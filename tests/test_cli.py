import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import delzant
from delzant import catalog, cli, serialize
from delzant.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_delzant_pass(capsys):
    code, out = run(capsys, "check", "delzant", "catalog:square")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_delzant_fail(capsys):
    code, out = run(capsys, "check", "delzant", "catalog:octahedron")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["check", "reflexive", str(bad)]) == 2


def test_check_unknown_catalog_entry(capsys):
    assert main(["check", "reflexive", "catalog:nope"]) == 2


def test_verify_main_cube(capsys):
    code, out = run(capsys, "verify", "main", "catalog:cube")
    assert code == 0
    d = json.loads(out)
    assert d["lhs"] == 24 and 24 in d["rhs"]


def test_verify_12_24_square(capsys):
    code, out = run(capsys, "verify", "12-24", "catalog:square")
    assert code == 0
    assert json.loads(out)["lhs"] == 12


def test_verify_graph_corollary(capsys):
    code, out = run(capsys, "verify", "graph-corollary", "catalog:gr24-graph")
    assert code == 0
    d = json.loads(out)
    assert d["lhs"] == 48 and d["rhs"] == [48]


def test_verify_gorenstein(capsys):
    code, _ = run(capsys, "verify", "gorenstein:2", "catalog:unit-square")
    assert code == 0


def test_verify_gorenstein_on_a_rational_polytope(capsys, tmp_path):
    # half of CP^2: its edges have the length 3/2, and its double is the
    # reflexive triangle itself
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [["-1/2", "-1/2"], [1, "-1/2"], ["-1/2", 1]]}))
    code, out = run(capsys, "verify", "gorenstein:2", str(path))
    d = json.loads(out)
    assert (code, d["pass"], d["lhs"], d["rhs"]) == (0, True, "9/2", ["9/2"])
    assert d["per_item"][0]["detail"]["shift"] == [0, 0]
    # the oracle counts the lattice points of each edge scaled by 2: 4 on
    # a segment of lattice length 2 * 3/2
    code, out = run(capsys, "verify", "gorenstein:2", str(path), "--with-oracle")
    d = json.loads(out)
    assert (code, d["pass"]) == (0, True)
    assert [(i["id"], i["pass"]) for i in d["per_item"] if i["id"].startswith("oracle")] == [
        ("oracle f-vector", True), ("oracle length (0, 1)", True),
        ("oracle length (0, 2)", True), ("oracle length (1, 2)", True)]


def test_verify_gorenstein_at_a_rational_index(capsys, tmp_path):
    # twice CP^2: its half is the reflexive triangle itself
    path = tmp_path / "double.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[-2, -2], [4, -2], [-2, 4]]}))
    code, out = run(capsys, "verify", "gorenstein:1/2", str(path))
    d = json.loads(out)
    assert (code, d["pass"], d["lhs"], d["rhs"]) == (0, True, 18, [18])
    assert d["per_item"][0]["detail"]["shift"] == [0, 0]
    assert main(["verify", "gorenstein:3/2", "catalog:unit-square"]) == 2
    assert capsys.readouterr().err == (
        "error: NotGorensteinOfIndex: no reflexive translate of the 3/2-fold dilate\n")


# the index is read as a JSON rational, "p" or "p/q": int() would also take
# the last three, as 2, 20 and 2
@pytest.mark.parametrize("index", ["abc", "", "1/0", "2.0", " 2", "2_0", "\u0662"])
def test_verify_gorenstein_refuses_an_unparsed_index(capsys, index):
    assert main(["verify", "gorenstein:" + index, "catalog:unit-square"]) == 2
    assert capsys.readouterr().err == f"error: cannot parse the index in {'gorenstein:' + index!r}\n"


def test_verify_with_oracle(capsys):
    code, out = run(capsys, "verify", "main", "catalog:cube", "--with-oracle")
    assert code == 0
    d = json.loads(out)
    assert any(i["id"] == "oracle f-vector" for i in d["per_item"])


def test_verify_precondition_error(capsys):
    assert main(["verify", "main", "catalog:rect"]) == 2


def test_verify_an_unknown_identity(capsys):
    assert main(["verify", "foo", "catalog:cube"]) == 2
    assert capsys.readouterr() == ("", "error: unknown identity 'foo'\n")


def test_dual_roundtrip(capsys):
    code, out = run(capsys, "dual", "catalog:cube")
    assert code == 0
    D = serialize.polytope_from_json(json.loads(out))
    assert D == catalog.load("octahedron")


def test_fvector_hvector_lengths(capsys):
    code, out = run(capsys, "fvector", "catalog:cube", "--with-oracle")
    assert code == 0 and json.loads(out)["f"] == [8, 12, 6, 1]
    code, out = run(capsys, "hvector", "catalog:cube", "--directed")
    d = json.loads(out)
    assert code == 0 and d["h"] == [1, 3, 3, 1] == d["h_directed"]
    code, out = run(capsys, "hvector", "catalog:gr24-graph")
    assert code == 0 and json.loads(out)["h"] == [1, 1, 2, 1, 1]
    code, out = run(capsys, "lengths", "catalog:cube")
    assert code == 0 and json.loads(out)["sum"] == 24


def test_fvector_exits_1_when_the_oracle_disagrees(capsys, monkeypatch):
    from delzant import oracle

    monkeypatch.setattr(oracle, "brute_f_vector", lambda P: (8, 12, 6, 2))
    code, out = run(capsys, "fvector", "catalog:cube", "--with-oracle")
    assert code == 1 and json.loads(out) == {"f": [8, 12, 6, 1], "oracle_f": [8, 12, 6, 2]}


def test_gkm_build(capsys):
    code, out = run(capsys, "gkm", "build", "A", "3", "--I", "0,2")
    assert code == 0
    d = json.loads(out)
    assert d["sum_lengths"] == 48 and d["h"] == [1, 1, 2, 1, 1]
    assert d["verification"]["pass"] is True


def test_gkm_build_b2(capsys):
    code, out = run(capsys, "gkm", "build", "B", "2")
    assert code == 0
    assert json.loads(out)["sum_lengths"] == 56


def test_gkm_build_a1(capsys):
    # CP^1: ambient dimension 1 has a single generic direction
    code, out = run(capsys, "gkm", "build", "A", "1")
    assert code == 0
    d = json.loads(out)
    assert d["h"] == [1, 1] and d["sum_lengths"] == 2
    assert d["verification"]["per_item"][0]["detail"]["r"] == 1


def test_gkm_build_unsupported(capsys):
    assert main(["gkm", "build", "E", "6"]) == 2
    capsys.readouterr()
    for argv, err in [(["C", "7"], "type C needs rank between 2 and 6"),
                      (["A", "3", "--I", "5"], "invalid simple-root indices [5]")]:
        assert main(["gkm", "build", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: UnsupportedType: {err}\n")


def test_gkm_check_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "catalog", "show", "gr24-graph")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out = run(capsys, "gkm", "check", str(path))
    assert code == 0


def test_bounds_table(capsys):
    code, out = run(capsys, "bounds", "table")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 18
    cell = next(r for r in rows if r["n"] == 4 and r["k0"] == 3)
    assert cell["constant"] == 32 and cell["coefficients"] == [-4, -8]


def test_bounds_enumerate(capsys):
    code, out = run(capsys, "bounds", "enumerate", "--n", "4", "--k0", "3", "--unimodal")
    assert code == 0
    d = json.loads(out)
    assert d["half_vectors"] == [[1, 2], [2, 3], [3, 1], [4, 2], [6, 1]]


def test_bounds_enumerate_unbounded(capsys):
    assert main(["bounds", "enumerate", "--n", "6", "--k0", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["check", "delzant", "catalog:a2-flag"],
    ["check", "gorenstein", "catalog:cube"],
    ["verify", "main", "catalog:a2-flag"],
    ["verify", "graph-corollary", "catalog:cube"],
    ["dual", "catalog:gr24-graph"],
    ["fvector", "catalog:b2-flag"],
    ["gkm", "check", "catalog:square"],
    ["verify", "gorenstein:abc", "catalog:unit-square"],
    ["gkm", "build", "A", "3", "--I", "a,b"],
    ["bounds", "enumerate", "--n", "4", "--k0", "0", "--cap", "3"],
    ["bounds", "enumerate", "--n", "4", "--k0", "9"],
    ["catalog", "show", "no-such-entry"],
    ["hvector", "catalog:a2-flag", "--xi", "1,2,3"],
    ["bounds", "enumerate", "--n", "10", "--k0", "11", "--cap", "60"],
    ["bounds", "enumerate", "--n", "20", "--k0", "18", "--unimodal"],
    ["bounds", "table", "--n-min", "0"],
    ["bounds", "table", "--k0-min", "0"],
    ["bounds", "table", "--n-min", "-3", "--k0-min", "-1"],
    ["verify", "gorenstein:-1", "catalog:cube"],
    ["verify", "gorenstein:-2", "catalog:unit-square"],
    ["bounds", "enumerate", "--n", "8", "--k0", "1", "--cap", "-3"],
])
def test_wrong_kind_or_bad_argument_exits_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["bounds", "enumerate", "--n", "1000", "--k0", "1", "--cap", "10000000000"],
    ["bounds", "enumerate", "--n", "400000", "--k0", "1", "--cap", "2"],
])
def test_a_search_too_large_to_write_out_is_refused_in_one_line(capsys, argv):
    # the exact candidate counts, 10^5000 and 2^200000, have more digits
    # than Python writes; the refusal gives a lower bound
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 120
    assert err.startswith(f"error: the search for n={argv[3]}, k0=1 has at least ")


# The segment between 1/(10^2200 + 1) and 1/(10^2200 + 3) has a length
# whose denominator has more than 4300 digits, which Python will not write.
TINY = [f"1/{10**2200 + 1}", f"1/{10**2200 + 3}"]
TOO_LONG = {
    "graph": {"ambient_dim": 1, "degree": 1, "vertices": [{"id": 0, "coords": [TINY[0]]},
                                                          {"id": 1, "coords": [TINY[1]]}],
              "edges": [{"u": 0, "v": 1}]},
    "polytope": {"dim": 1, "vertices": [[TINY[0]], [TINY[1]]]},
}


@pytest.mark.parametrize("flags", [(), ("--text",)])
@pytest.mark.parametrize("kind", list(TOO_LONG))
def test_a_number_too_long_to_write_is_refused(tmp_path, capsys, kind, flags):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(TOO_LONG[kind]))
    assert main(["lengths", str(path), *flags]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write a number: Exceeds the limit ({sys.get_int_max_str_digits()} digits) "
        "for integer string conversion\n")


def test_graph_corollary_refuses_the_oracle_flag(capsys):
    # graphs have no oracle yet, so the flag is refused in one line
    assert main(["verify", "graph-corollary", "catalog:a2-flag"]) == 0
    capsys.readouterr()
    assert main(["verify", "graph-corollary", "catalog:a2-flag", "--with-oracle"]) == 2
    assert capsys.readouterr() == (
        "", "error: --with-oracle takes a polytope identity: graphs have no oracle\n")


@pytest.mark.parametrize("flags", [(), ("--text",)])
@pytest.mark.parametrize("kind", list(TOO_LONG))
def test_a_number_too_long_to_write_leaves_no_output(tmp_path, capsys, kind, flags):
    # the text is made whole before it is written, and so is a JSON
    # document this small: its pieces fit in one batch
    path = tmp_path / "input.json"
    path.write_text(json.dumps(TOO_LONG[kind]))
    assert main(["lengths", str(path), *flags]) == 2
    assert capsys.readouterr().out == ""


def test_another_value_error_is_not_refused(monkeypatch):
    def fail(args):
        raise ValueError("invalid literal")

    monkeypatch.setattr(cli, "cmd_lengths", fail)
    with pytest.raises(ValueError, match="invalid literal"):
        main(["lengths", "catalog:cube"])


def test_catalog_list(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    names = {e["name"] for e in json.loads(out)}
    assert {"square", "cube", "gr24-graph", "octahedron-skeleton"} <= names


def test_catalog_show_polytope_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "catalog", "show", "hexagon")
    assert code == 0
    path = tmp_path / "p.json"
    path.write_text(out)
    code, out2 = run(capsys, "verify", "main", str(path))
    assert code == 0


def test_text_output(capsys):
    code, out = run(capsys, "verify", "main", "catalog:cube", "--text")
    assert code == 0
    assert "pass: True" in out


def test_stdin_input(monkeypatch, capsys):
    import io

    payload = json.dumps(serialize.polytope_to_json(catalog.load("square")))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out = run(capsys, "verify", "12-24", "-")
    assert code == 0


def test_full_catalog_sweep(capsys):
    # every entry passes its own validators through the CLI
    for name in catalog.names("polytope"):
        assert main(["fvector", f"catalog:{name}", "--with-oracle"]) == 0
        capsys.readouterr()
    for name in catalog.names("gkm-graph"):
        assert main(["gkm", "check", f"catalog:{name}"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("normal, offset", [(["3/2", 0], 3), (["1/2", 0], 1)])
def test_rational_facet_normal(tmp_path, capsys, normal, offset):
    # both first facets are x <= 2: the box is [-1, 2] x [-1, 1], whose
    # edges have lengths 3, 3, 2 and 2
    facets = [{"normal": normal, "offset": offset}, {"normal": [-1, 0], "offset": 1},
              {"normal": [0, 1], "offset": 1}, {"normal": [0, -1], "offset": 1}]
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"dim": 2, "facets": facets}))
    code, out = run(capsys, "lengths", str(path))
    assert code == 0
    assert json.loads(out)["sum"] == 10


def test_internal_key_error_is_not_an_input_error(monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_fvector", broken)
    with pytest.raises(KeyError):
        main(["fvector", "catalog:cube"])


# The a2-flag graph scaled by 1/3: "p/q" coordinates, lengths and r = 3.
A2_THIRD = {
    "ambient_dim": 2, "degree": 3,
    "vertices": [{"id": i, "coords": c} for i, c in enumerate(
        [["-2/3", "-2/3"], ["-2/3", 0], [0, "-2/3"], [0, "2/3"], ["2/3", 0], ["2/3", "2/3"]])],
    "edges": [{"u": u, "v": v} for u, v in
              [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]],
}


@pytest.mark.parametrize("argv, digest", [
    (["gkm", "build", "B", "3"],
     "257a80138c8e2fb564066df2bc1404120ddf9d8200bb54b85268de993920b636"),
    (["gkm", "build", "G2", "2", "--I", "0"],
     "0dc8e3f6b306985defb6e10fedb4390f8acfe22ca74cf15b4312ab44973e333d"),
    (["lengths", "A2_THIRD"],
     "5e47a6f37465c75f8997bac3f6464f14ce70023a485b80bc1f57194465cb7eb3"),
    (["check", "gorenstein", "A2_THIRD"],
     "193e8f6311a9cd72e7fa9f19c8eee54526c88c5bf44ca9bffe0b098516a644b9"),
    (["gkm", "build", "A", "4"],
     "de074c4a20164ec5303534f8b5dcf42c9bd9174a64b0cff228af0ac8d5eaaee2"),
    (["gkm", "build", "D", "4", "--I", "1,2,3"],
     "ea74bf9fba8787fd6791d1208ba168c694fad3218a86e8c4a7049eef6ae7fda6"),
    (["verify", "12-24", "catalog:cube"],
     "b7e20c14e0992e5780d17036ac124f8bbc0045614e90451d8f1669aa36a80757"),
    (["verify", "12-24", "catalog:octahedron"],
     "a48a6485aefd1edd35ea6f9499ac03e8090750085fac32597b8f584cfa1353fe"),
    (["verify", "combinatorics2", "catalog:hypercube4"],
     "28ec388339083f28cf29c697ee3b439ba5d9392e8c92cacb149a760f0bfaec51"),
    (["verify", "length-decomposition", "catalog:hexagon"],
     "a4aad681e42ffc00789b80cb9e4d74f1f11dff6826fb9a9e622d285e8ffd761b"),
    (["fvector", "catalog:octahedron"],
     "5237d8f23361bc835f94ab67735d27e2eafc1d45fb8ea5f7e7688e0f0c2c48a5"),
    (["gkm", "build", "B", "3", "--text"],
     "e8343806267e41360f4b48deb0cb135f86a3f129718b9898074a23fa39c3a2c6"),
    (["catalog", "show", "b2-flag"],
     "5076e06814e37f760076393f2f53133ce131a43222bbb04debadd0bccd0b11c0"),
])
def test_output_is_byte_identical(tmp_path, capsys, argv, digest):
    # the SHA-256 of stdout as the Fraction-based graph code printed it; the
    # next two as the edge search that found each edge from both ends did;
    # the next five as the frozenset face walk and the per-edge scans of
    # the incident edges and of the dual's vertices did; the last two as
    # graph_to_json and the generic writer did, before graphs were written
    # from their tables
    path = tmp_path / "a2_third.json"
    path.write_text(json.dumps(A2_THIRD))
    code, out = run(capsys, *(str(path) if a == "A2_THIRD" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _call(argv):
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse's usage errors and --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _fresh_call(argv):
    cli.build_parser.cache_clear()
    return _call(argv)


@pytest.mark.parametrize("argv, flag, code", [
    (["hvector", "catalog:cube"], "--directed", 0),
    (["verify", "main", "catalog:cube"], "--with-oracle", 0),
    (["verify", "main", "catalog:cube"], "--text", 0),
    (["verify", "main", "catalog:cube"], "--no-such-flag", 2),
    (["verify", "main", "catalog:cube"], "--help", 0),
])
def test_cached_parser_keeps_no_state_between_calls(argv, flag, code):
    # the tree is built once per process, and only for a call the table
    # reader does not take; a flag given to one call must not change the
    # next call's output
    fresh = [_fresh_call(argv + [flag]), _fresh_call(argv)]
    assert fresh[0][0] == code
    cli.build_parser.cache_clear()
    assert [_call(argv + [flag]), _call(argv)] == fresh
    tree = flag in ("--no-such-flag", "--help")  # the flags the reader does not take
    info = cli.build_parser.cache_info()  # built by the flagged call alone, if at all
    assert (info.misses, info.hits, info.currsize) == (tree, 0, tree)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["check", "delzant", "catalog:square"], 0),
    (["check", "delzant", "catalog:octahedron"], 1),
    (["check", "reflexive", "catalog:nope"], 2),
])
def test_main_restores_the_collector(argv, code, collecting):
    # main turns the cyclic collector off for the command and puts back
    # the state it found, whatever the exit
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert _call(argv)[0] == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_closed_pipe_exits_2_without_a_traceback():
    # the B4 full flag's 447 kB overflow the pipe, so the writer is still
    # writing when the reader leaves after one line
    src = os.path.dirname(os.path.dirname(delzant.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
        [sys.executable, "-m", "delzant.cli", "gkm", "build", "B", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as p:
        assert p.stdout.readline() == b"{\n"
        p.stdout.close()
        err = p.stderr.read().decode()
        assert p.wait(timeout=60) == 2
    assert "Traceback" not in err and "standard output was closed" in err


@pytest.mark.parametrize("argv, stdout_too", [
    (["gkm", "build", "A", "2"], True),
    (["verify", "main", "/nonexistent.json"], False),
    (["verify", "main", "catalog:octahedron"], False),
])
def test_closed_stderr_exits_2(argv, stdout_too):
    # standard error is a pipe whose reader has already left, and so is
    # standard output for the build: the error line cannot be written, and
    # the exit is still 2
    src = os.path.dirname(os.path.dirname(delzant.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        p = subprocess.run([sys.executable, "-m", "delzant.cli", *argv], env=env, timeout=60,
                           stdout=w if stdout_too else subprocess.DEVNULL, stderr=w)
    finally:
        os.close(w)
    assert p.returncode == 2


def test_importing_the_cli_leaves_dataclasses_unimported():
    # the package's records are namedtuples and plain classes: importing
    # `dataclasses` (and the inspect, ast and dis it pulls in) was about
    # half of the import of delzant.cli
    src = os.path.dirname(os.path.dirname(delzant.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, delzant.cli; print('dataclasses' in sys.modules)"
    p = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True,
                       text=True, check=True)
    assert p.stdout == "False\n"


def test_oracle_refuses_a_long_diagonal_edge_at_once(tmp_path):
    # the parallelogram's diagonal edges of length 300 have bounding boxes
    # of 301^2 points; the scan took 4.1 s before it was refused
    path = tmp_path / "parallelogram.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [300, 0], [600, 300], [300, 300]]}))
    t0 = time.perf_counter()
    code, out, err = _call(["verify", "combinatorics2", str(path), "--with-oracle"])
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (2, "")
    assert "takes at most 10000" in err and "Traceback" not in err
    assert _call(["verify", "combinatorics2", str(path)])[0] == 0
