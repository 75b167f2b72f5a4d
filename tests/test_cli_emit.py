"""The CLI's JSON writers against the standard library's encoder: ``_emit``
must print exactly ``json.dumps(x, indent=2, sort_keys=True)`` and a
newline for every JSON-like value without floats, and ``_emit_graph`` the
same for ``serialize.graph_to_json(G) | extra``."""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant import catalog, cli, gkm, polytope, roots, serialize
from delzant.gkm import GkmGraph
from delzant.report import VerificationReport
from delzant.serialize import num_to_json

import weyl_corpus

# Quotes, backslashes, control characters, DEL and non-ASCII (including
# characters outside the basic plane, written as surrogate pairs).
AWKWARD = st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\x80é€ 😀')
TEXT = st.text(st.one_of(AWKWARD, st.characters()), max_size=8)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(-10**80, 10**80),
    st.sampled_from([True, False, None, 0, -1, 2**64, -(2**64)]),
    st.fractions(),
    # integral ones, which the writer writes as JSON integers
    st.sampled_from([Fraction(4, 2), Fraction(-3), Fraction(0), Fraction(10**30, 5)]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


def exact(payload):
    """The payload with each Fraction as ``serialize.num_to_json`` gives
    it, for ``json.dumps``."""
    if type(payload) is Fraction:
        return num_to_json(payload)
    if isinstance(payload, (list, tuple)):
        return [exact(v) for v in payload]
    if isinstance(payload, dict):
        return {k: exact(v) for k, v in payload.items()}
    return payload


def emitted(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example([])
@example({})
@example({"a": {"b": {"c": {"d": []}}}})
@example([[[[{}]]]])
# more members at the second level than one batch of pieces holds
@example({"edges": [{"u": i, "weight": [i, -i]} for i in range(10000)]})
@example({"lhs": Fraction(9, 2), "rhs": [Fraction(9, 2)], "r": (Fraction(3, 2), Fraction(6, 3))})
def test_emit_matches_json_dumps(payload):
    assert emitted(payload) == json.dumps(exact(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    1.5,
    {"a": 0.0},
    [1, [2, [3, float("nan")]]],
    {1: "a"},
    {"a": [{"b": {2: 3}}]},
    {"a": 1, 2: "b"},
    [object()],
    {"a": {1, 2}},
    Decimal("1.5"),
])
def test_emit_refuses_floats_other_types_and_non_str_keys(payload):
    with pytest.raises(TypeError):
        emitted(payload)


# The coadjoint orbits of the weyl benchmark workload, and the D5 full
# flag, whose 19200 edges span several batches.
WEYL = weyl_corpus.WEYL + [("D", 5, ())]

# The A2 flag at a third of its size, with string ids: "p/q" coordinates
# and lengths.
A2_THIRD = serialize.graph_from_json({
    "ambient_dim": 2, "degree": 3,
    "vertices": [{"id": f"v{i}", "coords": c} for i, c in enumerate(
        [["-2/3", "-2/3"], ["-2/3", 0], [0, "-2/3"], [0, "2/3"], ["2/3", 0], ["2/3", "2/3"]])],
    "edges": [{"u": f"v{u}", "v": f"v{v}"} for u, v in
              [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]],
})


def _build_extra(G):
    # the members cmd_gkm_build adds to the graph
    rep = gkm.verify_graph_corollary(G)
    return {"h": rep.per_item[1]["detail"]["h"], "sum_lengths": num_to_json(rep.lhs),
            "verification": rep.to_dict()}


def _graph_cases():
    for name in catalog.names("gkm-graph"):
        yield name, lambda name=name: (catalog.load(name), {})
    yield "a2-third", lambda: (A2_THIRD, {})
    yield "a2-third-extra", lambda: (A2_THIRD, _build_extra(A2_THIRD) | {"a": None, "zz": [True]})
    yield "no-edges", lambda: (GkmGraph(2, 0, [("a", (1, -2)), (None, (Fraction(1, 3), 0)),
                                               (True, (0, 0)), ('"\u00e9', (3, 4))], []), {})
    yield "no-coordinates", lambda: (GkmGraph(0, 0, [(0, ())], []), {})
    for kind, rank, I in WEYL:
        def case(kind=kind, rank=rank, I=I):
            G = roots.coadjoint_graph(roots.build(kind, rank), I)
            return G, _build_extra(G)
        yield f"{kind}{rank}" + (f"-I{''.join(map(str, I))}" if I else ""), case


@pytest.mark.parametrize("make", [m for _, m in _graph_cases()], ids=[n for n, _ in _graph_cases()])
def test_graph_writer_matches_json_dumps(make):
    G, extra = make()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_graph(G, extra)
    want = serialize.graph_to_json(G) | extra
    assert out.getvalue() == json.dumps(want, indent=2, sort_keys=True) + "\n"


# SHA-256 of `delzant gkm build ...` standard output, recorded before the
# orbit graphs were built from their root data: the build must not change
# a byte of it.
BUILD_SHA256 = {
    ("A", "3"): "6fc897c8ef93b56c4670b198a67887a4970d5b5c8949343818929d118cc07224",
    ("B", "3", "--I", "0"): "c63cfcc6f56ace0286abc53a9b0477ff4a8c46123fb74504b26289fe3bc85725",
    ("C", "3"): "e12f22bd2aa865fde0d460ccc2cd07580e38bfe8310df526a263f9af1805d3ad",
    ("D", "4", "--I", "1,2,3"): "ea74bf9fba8787fd6791d1208ba168c694fad3218a86e8c4a7049eef6ae7fda6",
    ("G2", "2", "--I", "1"): "8e57156e55f55d122e62a749f8b8df6fdb69c1db512a7fe8321caaab67b735da",
    ("A", "2", "--text"): "fdbd92c90ae75ab5073797925ee46776babdd5e18f07bde7a9af710a4c996d97",
    # the rest of the weyl corpus, recorded before the orbit walk
    ("A", "1"): "9ae5dd292d6ba12723bb1232c069df49d934b2452b963be489f3557c0a8de9b1",
    ("A", "2"): "689fcf44c522d11003ff54ef2bc792e80fd720d929e83e1df72a900856857df0",
    ("A", "2", "--I", "1"): "69652f2a1717101e8a3336e6bdf01ded7299c56e870a5199af67f6cc2b5ff464",
    ("A", "3", "--I", "0,2"): "77755aecc071c535912e0bb496b206d4d7c276c017d5c224be29ff598897c4bf",
    ("A", "4", "--I", "0"): "53873452e2d645414428d58b9e88f891017ac3689ba02a5ea83448733e3de6f6",
    ("A", "4", "--I", "1,2,3"): "b26825b6df4eadac02bd96f6d9468ea00732f6ff9297e992e8779fd34dc2c712",
    ("A", "4", "--I", "0,1"): "8b9abe22b75c6b8c280457eddce52eb4447c0eb3c617d31a544e4df455f5d8c1",
    ("A", "5", "--I", "1,2,3,4"): "306ba9c7282bcb6f7a467e6f927286d72f02f73f25b7d5cb872a0be5a34bdc94",
    ("A", "5", "--I", "0,1,3,4"): "daaee9a8e6888dbb5dcaa8893de898498572d5f79a8e371e53d5a9e5e97d6533",
    ("B", "2"): "318ec8d488add1363550a7215fc5fee8e4e98e6ab49710a905fa5b2983f0dc0f",
    ("B", "2", "--I", "0"): "facaea13286adf9d51b667f08ee1b7411c1d610d28d7fb985c5b033dc722dbd0",
    ("B", "3"): "257a80138c8e2fb564066df2bc1404120ddf9d8200bb54b85268de993920b636",
    ("B", "4", "--I", "1,2,3"): "31289dc0648d1e3971bb32f560e7b102056e3f2eaaaa909176d3286569e9b1f8",
    ("B", "4", "--I", "0,1,2"): "d499489c4dd1cc8ba7068576d20b5c1e084873482314cc0b2cdc188e623f4259",
    ("C", "2"): "3f12a07c6ffe6d0db5f144ab576addc2f800992bea9ba8ee6a71fb7872acba8c",
    ("C", "3", "--I", "0,1"): "a3c2862fd1bd97656e62845fe33cdc6d4052c3157a64df033bd499e044a705bf",
    ("C", "4", "--I", "1,2,3"): "ccd39bda8b9aec15dca5b9361c9128781a9bf8eaac582a8afaf9400ab32c687f",
    ("C", "4", "--I", "0,1,2"): "9edccbb89ee5c09a17259ae21d388790da53e4d394982b73a4a6dcdb5158e4dd",
    ("D", "4", "--I", "0,2,3"): "0038018c660880c06d065457139335a4c6913cfe1c3aa594cdb26d61f72fe4a0",
    ("D", "5", "--I", "1,2,3,4"): "2ccb18138d01e201a84d3d4cd764ecb2cb2cf25a1e4f24f594784ddc8caf2343",
    ("D", "5", "--I", "0,1,2,3"): "2dfeb396172ddf4b3f21aa6daf645735d0132822ed6063fb7b2366cbf8ba97cf",
    ("G2", "2"): "348ca61f6b782c88751118080cd48688fb3a381ecaea3a57ce896937eee06dc8",
    ("G2", "2", "--I", "0"): "0dc8e3f6b306985defb6e10fedb4390f8acfe22ca74cf15b4312ab44973e333d",
}


@pytest.mark.parametrize("args", list(BUILD_SHA256), ids=" ".join)
def test_gkm_build_output_is_pinned(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(["gkm", "build", *args]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BUILD_SHA256[args]
    assert err.getvalue() == ""


def test_every_weyl_orbit_has_a_pinned_build():
    built = {("G2" if kind == "G" else kind, str(rank), *(("--I", ",".join(map(str, I))) if I else ()))
             for kind, rank, I in weyl_corpus.WEYL}
    assert built <= set(BUILD_SHA256)


def _tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_orbit_probe_hashes_the_build_output(capsys):
    # tools/json_probe.py runs `gkm build` in a child process and streams
    # its output through SHA-256
    probe = _tool("json_probe")
    assert probe.main(["gkm", "build", "A", "2"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["exit"] == 0 and got["stdout_sha256"] == BUILD_SHA256["A", "2"]
    assert got["stdout_bytes"] == 1992


def test_json_probe_hashes_a_command_on_a_json_file(capsys, tmp_path):
    # tools/json_probe.py runs `check gkm` on the A2 flag's JSON in a
    # child process: its hash and byte count are those of the same command
    # run in this process
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(serialize.graph_to_json(roots.coadjoint_graph(roots.build("A", 2), ()))))
    argv = ["check", "gkm", str(path)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode()
    probe = _tool("json_probe")
    assert probe.main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["argv"] == argv and got["exit"] == 0
    assert got["stdout_bytes"] == len(out) and got["stdout_sha256"] == hashlib.sha256(out).hexdigest()
    assert got["seconds"] > 0 and got["peak_rss_mb"] > 0
    # the child's own import and command times, which the process time holds
    assert 0 < got["import_s"] and 0 < got["command_s"]
    assert got["import_s"] + got["command_s"] < got["seconds"]


def test_hull_probe_counts_and_hashes_the_cyclic_polytope(capsys, monkeypatch):
    # tools/hull_probe.py on the cyclic 4-polytope with 9 vertices; the
    # SHA-256 was recorded before the hull's start and its output Fractions
    # changed.
    probe = _tool("hull_probe")
    assert [probe.cyclic_facets(d, n) for d, n in [(2, 5), (3, 6), (4, 40), (5, 9), (6, 28)]] == \
        [5, 8, 740, 30, 2576]
    assert probe.main(["4", "9"]) == 0
    line = capsys.readouterr().out
    assert " 27 facets (closed form 27)  sha256 " \
        "ffb9a58d4759157ebf30b1cee0a74cace683035ee79a8c39847e0bee22a36f8a\n" in line
    monkeypatch.setattr(polytope, "HULL_SCAN_LIMIT", 10)
    assert probe.main(["4", "9"]) == 2
    assert "UnboundedSearch" in capsys.readouterr().out


def test_hull_probe_counts_and_hashes_the_cube_from_its_facets(capsys, monkeypatch):
    # tools/hull_probe.py cube 3: the hash is that of `catalog show cube`
    assert cli.main(["catalog", "show", "cube"]) == 0
    shown = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    probe = _tool("hull_probe")
    assert probe.main(["cube", "3"]) == 0
    assert capsys.readouterr().out.endswith(f" 8 vertices (2^3 = 8)  sha256 {shown}\n")
    monkeypatch.setattr(polytope, "HULL_SCAN_LIMIT", 10)
    assert probe.main(["cube", "3"]) == 2
    assert "UnboundedSearch" in capsys.readouterr().out


def test_line_trace_names_the_uncalled_body(tmp_path):
    # tools/line_trace.py, in a child process so that its pytest run and
    # its tracer leave this one alone, on a module of two functions and a
    # test that calls one: only the other's body is unreached, and neither
    # def line nor the module's own lines are named
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "two.py").write_text(
        "N = 1\n\n\ndef called(x):\n    return x + N\n\n\n"
        "def uncalled(x):\n    y = x * 2\n    return y\n")
    (tmp_path / "test_one.py").write_text(
        "from pkg import two\n\n\ndef test_called():\n    assert two.called(1) == 2\n")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import line_trace; "
            "print(line_trace.trace('pkg', sys.argv[2:]))")
    tools = str(Path(__file__).resolve().parent.parent / "tools")
    p = subprocess.run([sys.executable, "-c", code, tools, "test_one.py", "-q",
                        "-p", "no:cacheprovider", "-p", "no:hypothesispytest"],
                       cwd=tmp_path, timeout=60, capture_output=True, text=True, check=True)
    assert p.stdout.splitlines()[-1] == repr((0, {str(tmp_path / "pkg" / "two.py"): [9, 10]}))
    assert _tool("line_trace").ranges([3, 4, 5, 9, 12, 13]) == "3-5, 9, 12-13"


def test_cli_sweep_digest_is_pinned(capsys, monkeypatch):
    # tools/cli_sweep.py over its 1622 argv, with this checkout's package;
    # the digest was taken before a report's numbers stayed Fractions until
    # the writer, and every argv must keep its exit code, stdout and stderr
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert _tool("cli_sweep").main([]) == 0
    assert capsys.readouterr().out == (
        "1622 argv  sha256 e935315ee4f312f2dc8e2517115b029d2eb25bc51b7181c1dc1e7446dd450a20\n")


def test_stage_split_times_each_verifier(capsys, monkeypatch):
    # tools/stage_split.py, one round of each workload: the stages and the
    # kinds of item each sum to the round, as does each kind's own split
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool("stage_split")
    try:
        tool.main(["--rounds", "1"])
    finally:
        for name in ("run", "corpus", "answers"):  # the benchmark modules it imports
            sys.modules.pop(name, None)
    out = json.loads(capsys.readouterr().out)
    assert list(out) == [*tool.STAGES, "edges_ms"]
    for workload, table in tool.STAGES.items():
        split = out[workload]
        assert list(split["stages"]) == [*dict.fromkeys(stage for stage, *_ in table), "rest"]
        assert split["bare_round_ms"] > 0
        assert sum(row["ms"] for row in split["stages"].values()) == pytest.approx(
            split["round_ms"], abs=0.01)
        assert sum(row["ms"] for row in split["kinds"].values()) == pytest.approx(
            split["round_ms"], abs=0.01)
        assert sum(row["items"] for row in split["kinds"].values()) == split["items"]
        for row in split["kinds"].values():
            assert sum(row["stages"].values()) == pytest.approx(row["ms"], abs=0.01)
    # the verify items by verifier: each makes the polytope stages it
    # reads, and only main, index and comb2 read the census, only comb2
    # and lendec the contribution sums
    verify = out["verify"]
    assert {name: row["items"] for name, row in verify["kinds"].items()} == {
        "verify_main_theorem": 12, "verify_index_corollary": 12, "verify_thm_combinatorics2": 12,
        "verify_length_decomposition": 11, "verify_12_24": 7}
    assert verify["stages"]["skeleton"]["ms"] > 0 and verify["stages"]["edges"]["ms"] > 0
    for stage, readers in [("census", {"verify_main_theorem", "verify_index_corollary",
                                       "verify_thm_combinatorics2"}),
                           ("contributions", {"verify_thm_combinatorics2",
                                              "verify_length_decomposition"})]:
        assert {name for name, row in verify["kinds"].items() if row["stages"][stage]} == readers
    # the hull items by constructor: dual and verify_gorenstein make no hull
    hull = out["hull"]["kinds"]
    assert {kind: row["items"] for kind, row in hull.items()} == {
        "from_vertices": 10, "from_halfspaces": 8, "dual": 4, "verify_gorenstein": 4}
    for kind, row in hull.items():
        parts = row["stages"]
        assert (parts["start"] > 0 and parts["row loop"] > 0) == kind.startswith("from_")
    # the weyl builds, on a fresh import of the package each round; the
    # package these tests imported is in place again after
    weyl = out["weyl"]
    assert weyl["items"] == len(weyl_corpus.WEYL)
    assert all(stage["ms"] > 0 for stage in weyl["stages"].values())
    assert sys.modules["delzant.cli"] is cli and sys.modules["delzant.roots"] is roots


class _Without:
    """A module without some of its names, as an older checkout's is.
    Every other name is read from the module itself, and every name is
    set on it."""

    def __init__(self, module, *hidden):
        object.__setattr__(self, "_module", module)
        object.__setattr__(self, "_hidden", hidden)

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return getattr(self._module, name)

    def __setattr__(self, name, value):
        setattr(self._module, name, value)


def test_stage_split_reads_null_for_a_stage_its_checkout_lacks(monkeypatch):
    # tools/stage_split.py on modules without exact.eliminate,
    # gkm.first_census, reflexive._contribution_sums, roots._base,
    # roots.base_point, roots._walk, cli._parse and cli._emit_graph: those
    # stages read null, their work falls in the stages that call them or
    # in the rest, and every function wrapped is itself again after
    monkeypatch.setattr(sys, "path", [str(Path(__file__).resolve().parent.parent / "perfbench"),
                                      *sys.path])
    tool = _tool("stage_split")
    originals = [polytope._extreme_rays, vars(polytope.Polytope)["skeleton"],
                 roots.coadjoint_graph, vars(VerificationReport)["to_dict"]]
    try:
        import corpus
        import run
        mods = run.Modules()
        for name, hidden in [("exact", ["eliminate"]), ("gkm", ["first_census"]),
                             ("reflexive", ["_contribution_sums"]),
                             ("roots", ["_base", "base_point", "_walk"]),
                             ("cli", ["_parse", "_emit_graph"])]:
            monkeypatch.setattr(mods, name, _Without(getattr(mods, name), *hidden))
        got = {workload: tool.split(lambda: mods, corpus.WORKLOADS[workload], table, 1, 1)
               for workload, table in tool.STAGES.items()}
    finally:
        for name in ("run", "corpus", "answers"):
            sys.modules.pop(name, None)
    for kind, row in got["hull"]["kinds"].items():
        assert row["stages"]["start"] is None
        assert (row["stages"]["row loop"] > 0) == kind.startswith("from_")
    verify = got["verify"]["stages"]
    assert verify["census"] is None and verify["contributions"] is None
    assert verify["delzant pass"]["ms"] > 0
    weyl = got["weyl"]["stages"]
    assert [stage for stage, row in weyl.items() if row is None] == [
        "parse", "base point", "walk", "writer"]
    assert all(row["ms"] > 0 for row in weyl.values() if row)
    assert [polytope._extreme_rays, vars(polytope.Polytope)["skeleton"], roots.coadjoint_graph,
            vars(VerificationReport)["to_dict"]] == originals


def test_ab_bench_summary_of_fixed_runs():
    # tools/ab_bench.py: medians and quartiles per side, the ratio of the
    # medians, the pairs won by the change, ties counting for neither, and
    # a verdict per metric against its bound; and the items whose median
    # time moved most each way
    base = [2.0, 1.0, 4.0, 1.0, 3.0, 2.0, 1.0, 2.0, 5.0]
    moved = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.1, 1.5]
    scales = iter([1, 3, 2, 1, 1, 2, 1, 1, 1, 4])  # each side's median is 1

    def run(rate, p50, setup, rss, failed, by=(1,) * len(base)):
        k = next(scales)
        return {"correct": True, "attempted": 28, "failed": failed,
                "metrics": {"items_per_s": {"value": rate, "unit": "1/s"},
                            "item_p50_ms": {"value": p50, "unit": "ms"},
                            "setup_s": {"value": setup, "unit": "s"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}},
                "items": {f"item {i}": k * t * r for i, (t, r) in enumerate(zip(base, by))}}

    metrics = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
               {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.12},
               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    runs = {"parent": [run(r, 1.0, 1.0, m, 1) for r, m in
                       [(100, 50), (110, 52), (120, 54), (130, 56), (140, 58)]],
            "change": [run(r, p, s, m, 0, moved) for r, p, s, m in
                       [(120, 1.0, 1.2, 40), (120, 0.9, 1.3, 41), (120, 0.9, 1.2, 42),
                        (90, 1.1, 1.2, 43), (160, 0.8, 1.2, 44)]]}
    tool = _tool("ab_bench")
    got = tool.summarize(runs, metrics, ["parent", "change"] * 2 + ["parent"])
    assert got["correct"] and got["pairs"] == 5
    assert got["failed"] == {"parent": 5, "change": 0}
    assert got["attempted"] == {"parent": 140, "change": 140}
    rate, p50 = got["metrics"]["items_per_s"], got["metrics"]["item_p50_ms"]
    assert rate["parent"] == {"median": 120, "q1": 105, "q3": 135}
    assert rate["change"] == {"median": 120, "q1": 105, "q3": 140}
    assert (rate["ratio_of_medians"], rate["change_better_pairs"]) == (1.0, 3)
    assert (p50["ratio_of_medians"], p50["change_better_pairs"]) == (0.9, 3)
    assert rate["runs"]["change"] == [120, 120, 120, 90, 160]
    assert tool.report(got)[0] == ("items_per_s (1/s, higher is better): parent 120 [105.0, 135.0]  "
                                   "change 120 [105.0, 140.0]  ratio 1.0  change won 3 of 5  "
                                   "unresolved")
    # the parent's interquartile range of items_per_s, 30, is wider than
    # 0.1 of its median; p50 reads 0.9 against 1.0, a change within 0.12;
    # setup_s is 0.2 worse, past 0.15; and peak_rss_mb is unresolved by
    # its spread (6 against 0.1 of 54) but better in every run
    assert [m["verdict"] for m in got["metrics"].values()] == \
        ["unresolved", "within bound", "worse", "better"]
    # five of the six faster items, most moved first; "item 6" is a tie
    assert [(m["item"], m["ratio"]) for m in got["items"]["faster"]] == \
        [("item 0", 0.5), ("item 1", 0.6), ("item 2", 0.7), ("item 3", 0.8), ("item 4", 0.9)]
    assert [(m["item"], m["ratio"]) for m in got["items"]["slower"]] == \
        [("item 8", 1.5), ("item 7", 1.1)]
    assert got["items"]["faster"][0] == {"item": "item 0", "parent_ms": 2.0, "change_ms": 1.0,
                                         "ratio": 0.5}
    assert tool.report(got)[4:6] == ["faster: item 0  parent 2.0 ms  change 1.0 ms  ratio 0.5",
                                     "faster: item 1  parent 1.0 ms  change 0.6 ms  ratio 0.6"]
    assert tool.report(got)[9:12] == ["slower: item 8  parent 5.0 ms  change 7.5 ms  ratio 1.5",
                                      "slower: item 7  parent 2.0 ms  change 2.2 ms  ratio 1.1",
                                      "correct True  failed parent 5 of 140, change 0 of 140"]
    # a win in 9 of 10 pairs by more than the parent's spread
    assert tool.verdict([10] * 10, [10.5] * 9 + [9.9], True, 0.1, 9) == "better"
    assert tool.verdict([10] * 10, [10.5] * 8 + [9.9] * 2, True, 0.1, 8) == "within bound"


def test_ab_bench_refuses_a_checkout_with_cached_bytecode(tmp_path, monkeypatch, capsys):
    # Python reads a src/**/__pycache__ even under PYTHONDONTWRITEBYTECODE,
    # so such a checkout would skip compiling in every set-up: the tool
    # names the directory and exits 2 before any run
    tool = _tool("ab_bench")
    cache = tmp_path / "src" / "delzant" / "__pycache__"
    cache.mkdir(parents=True)
    started = []
    monkeypatch.setattr(tool, "run_once", lambda *args: started.append(args))
    assert tool.main([str(tmp_path), "--workload", "hull", "--pairs", "2"]) == 2
    assert started == []
    assert str(cache) in capsys.readouterr().err


# `gkm build` with every simple root in I: the orbit is the origin alone,
# which has no index.  Exit code and standard error, recorded before the
# orbit walk.
REFUSED_BUILDS = [("A", "1", "--I", "0"), ("A", "3", "--I", "0,1,2"), ("B", "2", "--I", "1,0"),
                  ("G2", "2", "--I", "0,1")]


@pytest.mark.parametrize("args", REFUSED_BUILDS, ids=" ".join)
def test_gkm_build_refusal_is_pinned(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["gkm", "build", *args])
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "error: InvalidGraph: vertex at the origin has no well-defined index\n")


# SHA-256 of `delzant check delzant catalog:NAME [--text]` standard output
# and its exit code, recorded before the Delzant check became one pass over
# the skeleton's stars: the report must not change a byte.
DELZANT_SHA256 = {
    ("cp2-triangle",): (0, "bce80da5bfb066c293ad20327348087a24dc99b62ec7cb7a134f74c35d5f87bb"),
    ("cp2-triangle", "--text"): (0, "32045b68d9837d6ff1ef864cd00c302862a23f7ba184253efd302f909f4b7205"),
    ("square",): (0, "f06060a12ace58f6384d1676be1b5e4e31736f9ea8c97cbd49b555e9da56dd59"),
    ("square", "--text"): (0, "dff00494a5045375b739ef18f0cb964866593d9d92cb1a12d4d8e0686cf91ab8"),
    ("blowup1",): (0, "f06060a12ace58f6384d1676be1b5e4e31736f9ea8c97cbd49b555e9da56dd59"),
    ("blowup1", "--text"): (0, "dff00494a5045375b739ef18f0cb964866593d9d92cb1a12d4d8e0686cf91ab8"),
    ("blowup2",): (0, "58a8613949cbe47001cf8de0f94bd819148397d77067699c0f3bf2cf59e247e2"),
    ("blowup2", "--text"): (0, "6f05bd62d2ed28c2fa872bd8e97dad22340e91e5926b6a9f9146f4f9bd43ca80"),
    ("hexagon",): (0, "58878724b5167b2cd1663042f7a6a699f03399239747c75e617f15e93b02b066"),
    ("hexagon", "--text"): (0, "bd07cc23f7533361839f9ca137137f07ff5595d2334edbe77d4ff15c16992cef"),
    ("cube",): (0, "2eb21836256bed4f7a3c86543620bcba15e348c54188045af8ce022f9f3b3efc"),
    ("cube", "--text"): (0, "e93e0777b24d62557a00e7ea1b183127f68e64f06620695b66d45930c043e92f"),
    ("cp3-simplex",): (0, "f06060a12ace58f6384d1676be1b5e4e31736f9ea8c97cbd49b555e9da56dd59"),
    ("cp3-simplex", "--text"): (0, "dff00494a5045375b739ef18f0cb964866593d9d92cb1a12d4d8e0686cf91ab8"),
    ("hypercube4",): (0, "4a04d487ecc352308811641d147f5533f6f74493108425b598d7f88b826f3367"),
    ("hypercube4", "--text"): (0, "fb86a6a5088313654277237279ab728e98898fa3a2ebebf2425fdf2b4c91117a"),
    ("octahedron",): (1, "d550ca33bbdc70f90055c659a4dae6dc534383d4d21d288edcc6d81397f9a26f"),
    ("octahedron", "--text"): (1, "38664f309ad1e6e6e3e257453ccc3d3f02acff6890fdb6e55fa7ac4a774200d0"),
    ("diamond",): (1, "7b4eac5a28715fd5eb200dbe3ba5066de49c9e02f1e9ea96b0317d8b7fa6ea4a"),
    ("diamond", "--text"): (1, "c6f4e4ddb6336bd19f917d133244f9d2cb514a0d5a085f5e8754d0a2023fa4cd"),
    ("rect",): (0, "f06060a12ace58f6384d1676be1b5e4e31736f9ea8c97cbd49b555e9da56dd59"),
    ("rect", "--text"): (0, "dff00494a5045375b739ef18f0cb964866593d9d92cb1a12d4d8e0686cf91ab8"),
    ("unit-square",): (0, "f06060a12ace58f6384d1676be1b5e4e31736f9ea8c97cbd49b555e9da56dd59"),
    ("unit-square", "--text"): (0, "dff00494a5045375b739ef18f0cb964866593d9d92cb1a12d4d8e0686cf91ab8"),
    ("std-simplex",): (0, "bce80da5bfb066c293ad20327348087a24dc99b62ec7cb7a134f74c35d5f87bb"),
    ("std-simplex", "--text"): (0, "32045b68d9837d6ff1ef864cd00c302862a23f7ba184253efd302f909f4b7205"),
}


def test_every_catalog_polytope_has_a_pinned_delzant_check():
    assert {name for name, *_ in DELZANT_SHA256} == set(catalog.names("polytope"))


@pytest.mark.parametrize("args", list(DELZANT_SHA256), ids=" ".join)
def test_check_delzant_output_is_pinned(args):
    name, *flags = args
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "delzant", f"catalog:{name}", *flags])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DELZANT_SHA256[args]


# The same for `delzant check delzant FILE [--text]` on the cubes [-1, 1]^n,
# n = 1..6, and the cross-polytope in dimension 4, written to a file by
# serialize.polytope_to_json; recorded before the check ran edge by edge
# and the edges came from facet keys.
DELZANT_FILE_SHA256 = {
    ("cube1",): (0, "169f2adbb40b21b170dc6fa2f03a85d7e732b4bced54a504eae87d705e65167b"),
    ("cube1", "--text"): (0, "000f6d8412277aa4f914e81649a99b752b99c5390a8bea46c159fc22b13c1bba"),
    ("cube2",): (0, "f06060a12ace58f6384d1676be1b5e4e31736f9ea8c97cbd49b555e9da56dd59"),
    ("cube2", "--text"): (0, "dff00494a5045375b739ef18f0cb964866593d9d92cb1a12d4d8e0686cf91ab8"),
    ("cube3",): (0, "2eb21836256bed4f7a3c86543620bcba15e348c54188045af8ce022f9f3b3efc"),
    ("cube3", "--text"): (0, "e93e0777b24d62557a00e7ea1b183127f68e64f06620695b66d45930c043e92f"),
    ("cube4",): (0, "4a04d487ecc352308811641d147f5533f6f74493108425b598d7f88b826f3367"),
    ("cube4", "--text"): (0, "fb86a6a5088313654277237279ab728e98898fa3a2ebebf2425fdf2b4c91117a"),
    ("cube5",): (0, "256021dd0120d2852d66c1eeeca554fec024187fcd01109bc7df767b3d8045f5"),
    ("cube5", "--text"): (0, "c372eeec7942d2d19cf88ed0ce6d048760f4b107ecb13011523945e1843c8f47"),
    ("cube6",): (0, "e30cab785e19fd90317ab27a035336b434fe135ba557d036c12b53bb78ef8fb7"),
    ("cube6", "--text"): (0, "998734a3a5f7085365ea89e5641321e1f93a456c422a8f1048b0cd80009b5ade"),
    ("cross4",): (1, "610d76ff3cad438d7ae17a4ecd8dadca6fc7e25dd679e669ecd47967547a03e2"),
    ("cross4", "--text"): (1, "03137206352dbcaddc48c3a7a1670273aec73e47c9afb464374add7f766bcef2"),
}
DELZANT_FILES = {**{f"cube{n}": lambda n=n: polytope.cube(n) for n in range(1, 7)},
                 "cross4": lambda: polytope.cross_polytope(4)}


@pytest.mark.parametrize("args", list(DELZANT_FILE_SHA256), ids=" ".join)
def test_check_delzant_output_from_a_file_is_pinned(args, tmp_path):
    name, *flags = args
    source = tmp_path / f"{name}.json"
    source.write_text(json.dumps(serialize.polytope_to_json(DELZANT_FILES[name]())))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "delzant", str(source), *flags])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == DELZANT_FILE_SHA256[args]


# Exit code and SHA-256 of the standard output of `delzant dual|fvector
# catalog:NAME [--text]`, recorded before the hull and the maps kept their
# work in integers between reading the input and building the output.  A
# dual that exits 2 (origin not strictly inside) prints nothing.
POLYTOPE_SHA256 = {
    ("dual", "cp2-triangle"): (0, "a6dca1848b6e1ff354deb27ff7f24b739d77d0cf3a5d81cdfcb723b27af9c31f"),
    ("dual", "cp2-triangle", "--text"): (0, "06db16b443780d87535ba0bfe37e33ebb8bd53f1ae81e4422edba4e8a70a87cb"),
    ("fvector", "cp2-triangle"): (0, "8656c3ea1f4301599e43ff39b2fcd27a3d807b63c87a45d32d79791c1c38c567"),
    ("fvector", "cp2-triangle", "--text"): (0, "307124c76d0a968195d9daa284abad54932072b50b49404fce15eb5beb528356"),
    ("dual", "square"): (0, "14b9d9cbdd3f5e4150d3affc0b7db06096bb10d30bd22bdcc16e35fc5b35e03a"),
    ("dual", "square", "--text"): (0, "7a1ca4445aa71babcc48a20a0d7c0d125af9cebcb55cdaa6b0fb164305f54c45"),
    ("fvector", "square"): (0, "1c48f5e64efccad43984a841f9eadfc420456a68764bab488dd38e04495dbd76"),
    ("fvector", "square", "--text"): (0, "d83fa11278628e7c55c9010331afbb47999785f6d6b042d3d579c9fce7752a8d"),
    ("dual", "blowup1"): (0, "53c2f66e9bb7fbafa8fa52188f10b4419786c5ce0fca5466766f17db91b8595b"),
    ("dual", "blowup1", "--text"): (0, "123d83cb71ec73b0dcea8960982d8fb8b1f3fa64c26a6857f7a2fa2d9d671fc6"),
    ("fvector", "blowup1"): (0, "1c48f5e64efccad43984a841f9eadfc420456a68764bab488dd38e04495dbd76"),
    ("fvector", "blowup1", "--text"): (0, "d83fa11278628e7c55c9010331afbb47999785f6d6b042d3d579c9fce7752a8d"),
    ("dual", "blowup2"): (0, "c6088344528db90a66015c4c8c79f0ccc2c0770acca8fad97d0e3d2b33c182bc"),
    ("dual", "blowup2", "--text"): (0, "00e68db539a711f65cb470e7bce7d9ebb9797331d9d69d110d45a00d76a86d83"),
    ("fvector", "blowup2"): (0, "1ddb3220ae08f4a9cd79a2e938761d5cd15e2c7c6d1df014718a99c7e6c617a2"),
    ("fvector", "blowup2", "--text"): (0, "839a23a124948e525379f4365d53bb39b10bb2d0ced7282589076e31c42f5fa4"),
    ("dual", "hexagon"): (0, "d7af6e2444a16838da097fa2f3c5ef86f540fb43739ef3042538dbd951d2f3c3"),
    ("dual", "hexagon", "--text"): (0, "1151406a2c5c391c735c81d7d60fe642c0a8b506a4bff744f6fd377b351f5621"),
    ("fvector", "hexagon"): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ("fvector", "hexagon", "--text"): (0, "42869987192deeeb02debd49e6a06c5250bc68fd8b980f2713f737c498fec609"),
    ("dual", "cube"): (0, "2f471845e57e6244444674f29a1b1da40ca8e516e98e1107a8ab2b6c80a4f323"),
    ("dual", "cube", "--text"): (0, "a9052d8c4c1143990bd954814430c633990743a8f6f438524dcdbedb9a1b5a90"),
    ("fvector", "cube"): (0, "7bf21b6847a0727d2445c4bb56ecd8e45f8109c499842e7a2ed69ba860ab19d7"),
    ("fvector", "cube", "--text"): (0, "c92e74621b03c683d7917bca83bdc7b0e1a3476b99f8d27996c989151bae0008"),
    ("dual", "cp3-simplex"): (0, "96c61fef16ba4c4b62f7ae185b3090fce1ba3d3ea717229b842fdd92a48b3620"),
    ("dual", "cp3-simplex", "--text"): (0, "90619c135294f72157ce13cc347820cded51c7e2badbf594699056f04028464d"),
    ("fvector", "cp3-simplex"): (0, "e99653d70c1ab9ca0f1e5189628c30ae05c1190d81c55077b6ece6f4cb2815c3"),
    ("fvector", "cp3-simplex", "--text"): (0, "d73e0d583fc4b851b6b574d01dffa7c57ecbeec66034bc2e2157ed43245049d3"),
    ("dual", "hypercube4"): (0, "e04bb9346cd4bd8c73178ec6f92d9cda4e90897069f59fe2d5cd43dc5bc8ccb6"),
    ("dual", "hypercube4", "--text"): (0, "11b3f9a892400294bca621afb08f934f83ab046aef5eae689c27ed995fd40c65"),
    ("fvector", "hypercube4"): (0, "e4fe73ebec76db79f66ff2f0f199aadf0dbee328d7a9e4f4efe7a9a42f9b74c9"),
    ("fvector", "hypercube4", "--text"): (0, "6358d58ba73fc98d2405223e749c9f1dc4c21fe9a24c72b005443cf891539336"),
    ("dual", "octahedron"): (0, "124a4238449e885f397cd033436689be901d9f4758deccf0cf976f95e48ac8e5"),
    ("dual", "octahedron", "--text"): (0, "fc4b407aba34f0a051bcaef737f3418b2fb8946093bee8940996791a260db441"),
    ("fvector", "octahedron"): (0, "5237d8f23361bc835f94ab67735d27e2eafc1d45fb8ea5f7e7688e0f0c2c48a5"),
    ("fvector", "octahedron", "--text"): (0, "08e433ca2aec95fcb058e419a55c38dc862604de707fac18211f823520f8bc29"),
    ("dual", "diamond"): (0, "8f9750e446937e4719b38bce836b7262827860b0d8b95555fe7f2b0352e3f261"),
    ("dual", "diamond", "--text"): (0, "7c04a664904bf890c8117a32b41a9473dbc9ab59486bd1b79aecb08bbe4ed603"),
    ("fvector", "diamond"): (0, "1c48f5e64efccad43984a841f9eadfc420456a68764bab488dd38e04495dbd76"),
    ("fvector", "diamond", "--text"): (0, "d83fa11278628e7c55c9010331afbb47999785f6d6b042d3d579c9fce7752a8d"),
    ("dual", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dual", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fvector", "rect"): (0, "1c48f5e64efccad43984a841f9eadfc420456a68764bab488dd38e04495dbd76"),
    ("fvector", "rect", "--text"): (0, "d83fa11278628e7c55c9010331afbb47999785f6d6b042d3d579c9fce7752a8d"),
    ("dual", "unit-square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dual", "unit-square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fvector", "unit-square"): (0, "1c48f5e64efccad43984a841f9eadfc420456a68764bab488dd38e04495dbd76"),
    ("fvector", "unit-square", "--text"): (0, "d83fa11278628e7c55c9010331afbb47999785f6d6b042d3d579c9fce7752a8d"),
    ("dual", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("dual", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fvector", "std-simplex"): (0, "8656c3ea1f4301599e43ff39b2fcd27a3d807b63c87a45d32d79791c1c38c567"),
    ("fvector", "std-simplex", "--text"): (0, "307124c76d0a968195d9daa284abad54932072b50b49404fce15eb5beb528356"),
}


# Exit code and SHA-256 of the standard output of `delzant catalog show
# NAME [--text]` for every catalog polytope, recorded before the output
# coordinates -64..64 were taken from one shared table of Fractions.
SHOW_SHA256 = {
    ("cp2-triangle",): (0, "273fa29f81fcecfa1f6851d1327eaedc2b08e77211af028d3a4eb0d0093c62a8"),
    ("cp2-triangle", "--text"): (0, "695c4bb8b7fb142e811f1ae8b808a2a5883cfe16aca283241936f1acb333fd49"),
    ("square",): (0, "8f9750e446937e4719b38bce836b7262827860b0d8b95555fe7f2b0352e3f261"),
    ("square", "--text"): (0, "7c04a664904bf890c8117a32b41a9473dbc9ab59486bd1b79aecb08bbe4ed603"),
    ("blowup1",): (0, "95413ca91376be5e4beede64e8d96013b120e97ee82abf5a4f5ee1189e169ea7"),
    ("blowup1", "--text"): (0, "8f97d943ee6bd556f924c98247112454426029dea15aad355a608abcbb8b087b"),
    ("blowup2",): (0, "9e255bc4f05b9ddf5e957c3232c26c6cd13788e79416aad194b23c4c339f662e"),
    ("blowup2", "--text"): (0, "d8f9de5b0d5f491704de02c6aa2cb3495070e9ea03585c75ebb21733a0efc008"),
    ("hexagon",): (0, "91f2b2166f55217dfbf191a4f8eaf554d45cd3de6b190f72f048a2929fa08393"),
    ("hexagon", "--text"): (0, "e4748b952313870a344fd3d2d317132b2335947eb809919239c2226c6d66121d"),
    ("cube",): (0, "124a4238449e885f397cd033436689be901d9f4758deccf0cf976f95e48ac8e5"),
    ("cube", "--text"): (0, "fc4b407aba34f0a051bcaef737f3418b2fb8946093bee8940996791a260db441"),
    ("cp3-simplex",): (0, "4324e057cf881e84c95ee2c6a8879bd911e90a1e57da5337b18ac37d0f0177d4"),
    ("cp3-simplex", "--text"): (0, "e9f536bd1307281436fad9b6aafeddaa42c6998785c7b3a2f6412004e6b0f74d"),
    ("hypercube4",): (0, "59ab796946c7426498558bc6885ccb7e37f50fc1ee4c15f9147f00e4ba04b8b9"),
    ("hypercube4", "--text"): (0, "1c0084447984d49ae5539ae6ac213e2721aed12d5941ce519600775b7bec3385"),
    ("octahedron",): (0, "2f471845e57e6244444674f29a1b1da40ca8e516e98e1107a8ab2b6c80a4f323"),
    ("octahedron", "--text"): (0, "a9052d8c4c1143990bd954814430c633990743a8f6f438524dcdbedb9a1b5a90"),
    ("diamond",): (0, "14b9d9cbdd3f5e4150d3affc0b7db06096bb10d30bd22bdcc16e35fc5b35e03a"),
    ("diamond", "--text"): (0, "7a1ca4445aa71babcc48a20a0d7c0d125af9cebcb55cdaa6b0fb164305f54c45"),
    ("rect",): (0, "d5e6a20991c761b885ec91ce7af136dafbb50299ee62049b08238f540dda2d39"),
    ("rect", "--text"): (0, "1a5a8da5649f02590c0d714e2e45b149f5980f5299801b82f64b59d55db2614c"),
    ("unit-square",): (0, "832ac195c16159f61dd4692abd61dd693afd7c8f00fed578b6444d03316b5f46"),
    ("unit-square", "--text"): (0, "451b78168e3d86079cad3af348b1f36404dcc4efb074bb41ffaac968a9ee68b2"),
    ("std-simplex",): (0, "c28a00d351cbe40bef4368c759b88daf13b3695b52a72a30ffa8ffa53530a7b3"),
    ("std-simplex", "--text"): (0, "5ad557e5d10da359da3bd0f95cc7d5b507993061284dc48165f4f918f7dd918c"),
}


def test_every_catalog_polytope_has_a_pinned_show_output():
    for flags in ((), ("--text",)):
        assert {name for name, *f in SHOW_SHA256 if tuple(f) == flags} == set(catalog.names("polytope"))


@pytest.mark.parametrize("args", list(SHOW_SHA256), ids=" ".join)
def test_catalog_show_output_is_pinned(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["catalog", "show", *args])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == SHOW_SHA256[args]


def test_every_catalog_polytope_has_pinned_dual_and_fvector_outputs():
    for cmd in ("dual", "fvector"):
        for flags in ((), ("--text",)):
            pinned = {name for c, name, *f in POLYTOPE_SHA256 if c == cmd and tuple(f) == flags}
            assert pinned == set(catalog.names("polytope")), (cmd, flags)


@pytest.mark.parametrize("args", list(POLYTOPE_SHA256), ids=" ".join)
def test_polytope_command_output_is_pinned(args):
    cmd, name, *flags = args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([cmd, f"catalog:{name}", *flags])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == POLYTOPE_SHA256[args]


# Exit code and SHA-256 of the standard output of `delzant verify IDENTITY
# catalog:NAME [--text]`, recorded before the verifiers stopped walking the
# face lattice (edges from the incidence, f and h from the in-degree
# census, smoothness from the normal-weight pairing).  A verifier that
# exits 2 prints nothing.
VERIFY_SHA256 = {
    ("main", "cp2-triangle"): (0, "bdb878afbfc6c01719b9a49aa7969ac7c58f0f358a3b4da50089473645e9f676"),
    ("main", "cp2-triangle", "--text"): (0, "21522695faa54bf1226fc2efbfc9e5c17d23353113eee34327e1132255db9499"),
    ("index-corollary", "cp2-triangle"): (0, "a34c41df496a51daa84a58f03ee056b4d887ef3005a2e417e041fa2f8d0bdf9e"),
    ("index-corollary", "cp2-triangle", "--text"): (0, "f8c1828a8f037a53c1ef954d56c7ae0f9486fe5f258597874ec5e2460c110832"),
    ("combinatorics2", "cp2-triangle"): (0, "1f7b66af15fa70aa2c159559e6959d4df11424827c46daefb45e6e90ad36a831"),
    ("combinatorics2", "cp2-triangle", "--text"): (0, "e6a78292d5489a75b0cfa1ff3c082611614d9b0c8acd3a3dc2076e2bf6fc595e"),
    ("length-decomposition", "cp2-triangle"): (0, "a1141be2e9589e01e17f41951f4cbf7aa6f30cd477e158bd7be71364b33af77a"),
    ("length-decomposition", "cp2-triangle", "--text"): (0, "988d9c83bd6ba1585159bcd591e9077e6f91e23833a852d32014c8f23a5bf4bc"),
    ("12-24", "cp2-triangle"): (0, "47faeb174c78b02a5c692179a2b117831da871e3cada70303f7e0696e943fd15"),
    ("12-24", "cp2-triangle", "--text"): (0, "3853c9c9c707797fac33b27574a023767ac0e76b0631f8377e7a83351df2c838"),
    ("gorenstein:1", "cp2-triangle"): (0, "6959e646ff65b9b040bb01c97416234cd2f2500cc459addc12255a17ffb6af9f"),
    ("gorenstein:1", "cp2-triangle", "--text"): (0, "406f938b603c8508ab983843eb93754ee7655928e99e6359f3c65a2dd5ff13cb"),
    ("gorenstein:2", "cp2-triangle"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "cp2-triangle", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "square"): (0, "512db9ef4e85b057fa59aa2b97806c8290f480420fd2ed04a9949206acbf2ae3"),
    ("main", "square", "--text"): (0, "7da87b8d78a7b079800e11e0a0bbe8e2eaee5b68fe8e44e8d41d05fae3c77f93"),
    ("index-corollary", "square"): (0, "85c98b3a0d76d7b9b997f8643f7ffba785f571d5e87f4099c84d70f180f17773"),
    ("index-corollary", "square", "--text"): (0, "d2c612c58a9e07a0661f37739e52c53700f941bdb3ae3f1f456725a30a49ff9a"),
    ("combinatorics2", "square"): (0, "5cf80cb9cc4adc77c7eb8e2bf1233adb42b3562658558cc231b1f482bd609824"),
    ("combinatorics2", "square", "--text"): (0, "f9f36b58e90c21d8c9a23d70eb14c2cb2de3278a5623d5b28b7839703c4b18b9"),
    ("length-decomposition", "square"): (0, "6c8b91a76c443af06102a51b0dcef7ba69039642a11bb967f1f68f21b1b4b91f"),
    ("length-decomposition", "square", "--text"): (0, "b7cd23ee1b5c31e8379c6d4dd60af7ec2c93563bed93cf46e617c1ac54f5ad49"),
    ("12-24", "square"): (0, "a360b85c631ac697e4df0bac601d5c9214c6b1aa565aeacd44661e8e3a0e72d3"),
    ("12-24", "square", "--text"): (0, "7de622765cb5a978c07a5dd6bd51b91ba4b681d1cb68622ddcf2828ea77d9708"),
    ("gorenstein:1", "square"): (0, "95773ed0513e58ddf8767d741de2e68842def226d94413fb2f51cf43e96f034e"),
    ("gorenstein:1", "square", "--text"): (0, "b3e1289a70027b23d8caa5ebd89af9d1775eba4ed63bc31cf6ac5dff472ffda4"),
    ("gorenstein:2", "square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "blowup1"): (0, "512db9ef4e85b057fa59aa2b97806c8290f480420fd2ed04a9949206acbf2ae3"),
    ("main", "blowup1", "--text"): (0, "7da87b8d78a7b079800e11e0a0bbe8e2eaee5b68fe8e44e8d41d05fae3c77f93"),
    ("index-corollary", "blowup1"): (0, "a757ab972ab3874be961d699fa0264d9bae858f16f53a600b0f54f163e26a9ad"),
    ("index-corollary", "blowup1", "--text"): (0, "3fc5170a58184da78aedeff885059491f0a8ab83430f8064e12d00588c4b4cf0"),
    ("combinatorics2", "blowup1"): (0, "dd13b110ab7ea8546916e8f252540aede05e0d7a3caa75b386acaaae8496169a"),
    ("combinatorics2", "blowup1", "--text"): (0, "c333d3c5a17c53c217780c9faade0b9da04c1de895b139fb1cc686499610ffdc"),
    ("length-decomposition", "blowup1"): (0, "d230fe88ca91119860903330b2b0c0f0a2d787d7ab77da7d36389cebc7dc9854"),
    ("length-decomposition", "blowup1", "--text"): (0, "b0c21f6172c384c0d209bfb36b2859da0ebc552bd926bdaab20d82d5fdd64eab"),
    ("12-24", "blowup1"): (0, "a360b85c631ac697e4df0bac601d5c9214c6b1aa565aeacd44661e8e3a0e72d3"),
    ("12-24", "blowup1", "--text"): (0, "7de622765cb5a978c07a5dd6bd51b91ba4b681d1cb68622ddcf2828ea77d9708"),
    ("gorenstein:1", "blowup1"): (0, "95773ed0513e58ddf8767d741de2e68842def226d94413fb2f51cf43e96f034e"),
    ("gorenstein:1", "blowup1", "--text"): (0, "b3e1289a70027b23d8caa5ebd89af9d1775eba4ed63bc31cf6ac5dff472ffda4"),
    ("gorenstein:2", "blowup1"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "blowup1", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "blowup2"): (0, "b8300ff74a2ec9420600209a17feddb39aeb8ae983cc8c70145e15e41138347f"),
    ("main", "blowup2", "--text"): (0, "d26bb88d814ac22d859bc05e0b890471b812b7c4174db9a60be41c88df056960"),
    ("index-corollary", "blowup2"): (0, "e532df8d041427752d131f4b847b65ae1c59b00f7c0451de1f43de40b9669fbe"),
    ("index-corollary", "blowup2", "--text"): (0, "5f360dcacca02593e4dd655e15cc243785e980bbf2f4499709b779f9f4ecbab2"),
    ("combinatorics2", "blowup2"): (0, "5b65ac6bb7bb7c7791f0de4e2d7f1b5666530b1451aed3034d05c2a4403a5c8f"),
    ("combinatorics2", "blowup2", "--text"): (0, "b1e4379fed16d9bfc41b8ad1fbbab6683d943c8d9349142fdaad28c933e6d466"),
    ("length-decomposition", "blowup2"): (0, "64524158cfa66c8b179357396839f01cd1310bf8ecbf11d8b5809a4f98e2287c"),
    ("length-decomposition", "blowup2", "--text"): (0, "ed14eac91fd2cd88758dbaf7d0fe8b6e2417fb73119a52549c45c45ad9fcf35b"),
    ("12-24", "blowup2"): (0, "11e9450f1d9d75aa872d7ed52f324335762e498fe54b7bce69e2f2c5e7b172ab"),
    ("12-24", "blowup2", "--text"): (0, "af5c597c18b3b6038d8a789e3248a3620c6ad706a5c7e3981edc898762749f03"),
    ("gorenstein:1", "blowup2"): (0, "876ad03002cda9e57d836339dead4656c26998ff22159ee7beeb175641c621f5"),
    ("gorenstein:1", "blowup2", "--text"): (0, "e6ed7fca59c8955245b42d0ef5ef35fe5e8c17036e1e63a86ed482df6322aed9"),
    ("gorenstein:2", "blowup2"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "blowup2", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "hexagon"): (0, "3e24a9cb514e72e92fa400de9a9843c19692d2ee22d01efa4c41631498a760c2"),
    ("main", "hexagon", "--text"): (0, "718f9aa21da921c7ec31be67476c454cf306feed73a54bd19979c347b20105b4"),
    ("index-corollary", "hexagon"): (0, "d4fb804d425e732f5167d37fb359c39836cd083a3afa5554fd9bdd1476a36992"),
    ("index-corollary", "hexagon", "--text"): (0, "69cf55e9b5e4ef0391e88d3879aaa4da0b0a09d35c3339910020b26e021e38fd"),
    ("combinatorics2", "hexagon"): (0, "39de30777cd1751e333da92944fc028a57ad40c5f9d3185f81698ae7e2259f7f"),
    ("combinatorics2", "hexagon", "--text"): (0, "4e47171222fb2dbec1049a09acf869a6a2e814480290d480eeff53399d1c5d9a"),
    ("length-decomposition", "hexagon"): (0, "a4aad681e42ffc00789b80cb9e4d74f1f11dff6826fb9a9e622d285e8ffd761b"),
    ("length-decomposition", "hexagon", "--text"): (0, "f4456da1fdf67529fe766092fb91306d9ba07d71acaae06b07ab2fcff5b59ec3"),
    ("12-24", "hexagon"): (0, "041e18aa13283addb9ecf81aaa32c14bac883292452a1f9b486bdf37d80607df"),
    ("12-24", "hexagon", "--text"): (0, "9eee8e00b938128b0bffb699a9f28e8a0a06bcd67b8986ec0e4debf645a5d2fd"),
    ("gorenstein:1", "hexagon"): (0, "ed266afa3644ef30b7137ad6b49b8c7750f8b65e64c799ab6df002c632e65653"),
    ("gorenstein:1", "hexagon", "--text"): (0, "1b2a3370dc32f6639e2b7f1b2439e067c31ae2258581e83b747e47c8eaf4e2e4"),
    ("gorenstein:2", "hexagon"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "hexagon", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "cube"): (0, "8c3d0fa72d256edd0d406440d88a94ad3d3e98bbdc7a261515aea493c7e38d15"),
    ("main", "cube", "--text"): (0, "720c77bed008d9b07b30b0725acd4b1eff582ca408474c86e64fb8a971d58f67"),
    ("index-corollary", "cube"): (0, "37dfb6b422d820859599c859c7786c0861a4b677395d6faf3b2817defcc90357"),
    ("index-corollary", "cube", "--text"): (0, "003e4d89357189f7e95dfc50e2b22810370407cf85cf7e53197c114481c6cb3d"),
    ("combinatorics2", "cube"): (0, "6778edee498a1b9f43f284f33d071f426520b4f4bb874e43a00faabd9ecef9e3"),
    ("combinatorics2", "cube", "--text"): (0, "0d51415b32c6410bc39d2ef530845440d87dd8c149aa187fb4fc1b0c1104d07e"),
    ("length-decomposition", "cube"): (0, "038128f3195815ab13ffeef827d6802579e81781daa5d884a2fa6cac8049e61f"),
    ("length-decomposition", "cube", "--text"): (0, "07fa295e832f2e2a34149909e09c3cd9d409c54e9f1d72dff052e3a8523b1e0d"),
    ("12-24", "cube"): (0, "b7e20c14e0992e5780d17036ac124f8bbc0045614e90451d8f1669aa36a80757"),
    ("12-24", "cube", "--text"): (0, "739999612e0d84d1ee17e4bc2d42ac228c40c465919ad931ea332ba475985d4a"),
    ("gorenstein:1", "cube"): (0, "e321c8f9f8da844de950b53792de953c9388273a320f66441ab6eb57b6240fc7"),
    ("gorenstein:1", "cube", "--text"): (0, "e40ffbea3b385119f9074ea814aa8091d72c008e45728102bf1f4205f43f0b76"),
    ("gorenstein:2", "cube"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "cube", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "cp3-simplex"): (0, "8c3d0fa72d256edd0d406440d88a94ad3d3e98bbdc7a261515aea493c7e38d15"),
    ("main", "cp3-simplex", "--text"): (0, "720c77bed008d9b07b30b0725acd4b1eff582ca408474c86e64fb8a971d58f67"),
    ("index-corollary", "cp3-simplex"): (0, "c83b093777b47391d3a121a59792bac222724e3f871deb2a441ce99811f24a8b"),
    ("index-corollary", "cp3-simplex", "--text"): (0, "3bcfe502e60be5effd07c2dbe1efc621504dd05e0f9e8843d68a0c2ef3283dcd"),
    ("combinatorics2", "cp3-simplex"): (0, "8b4ab108d816f629edb5ef123dbead2035e8a0638878920034287ab81de02003"),
    ("combinatorics2", "cp3-simplex", "--text"): (0, "1c5dbb3229f8b6fcf8f72683b9af24dd8857a55b17b2fa065143e107402a5af1"),
    ("length-decomposition", "cp3-simplex"): (0, "502c3b78052695c8029cb70eb9f85934b5b4450e32a09b6548322c4db005b41e"),
    ("length-decomposition", "cp3-simplex", "--text"): (0, "c8b83ff39635fe78106baef95f2d60b8f68f13462872da56eb14ed5484b9b0b5"),
    ("12-24", "cp3-simplex"): (0, "321dc2537a175824ceeeef418fa02c755f5134e8ce194478a77f5bb1bee647b0"),
    ("12-24", "cp3-simplex", "--text"): (0, "a6cc9328d5419e336100096371fefce5bf523728b40191940110d89a75230f69"),
    ("gorenstein:1", "cp3-simplex"): (0, "e321c8f9f8da844de950b53792de953c9388273a320f66441ab6eb57b6240fc7"),
    ("gorenstein:1", "cp3-simplex", "--text"): (0, "e40ffbea3b385119f9074ea814aa8091d72c008e45728102bf1f4205f43f0b76"),
    ("gorenstein:2", "cp3-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "cp3-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "hypercube4"): (0, "51b3d0fdbe98fd52fe5df971536f6fc8ab055f9e36c7592d65b9549de621bf3c"),
    ("main", "hypercube4", "--text"): (0, "0dd487d24a854d5bec9c349067d06aa776b78461e48c1dfefc7055db238c49db"),
    ("index-corollary", "hypercube4"): (0, "30a8750789969d1dc2eafb70cdb01ea1c57ae9996074c6cb30db7197758b8a19"),
    ("index-corollary", "hypercube4", "--text"): (0, "7174e3efe74c3b29914f4723740a3d45d9b79aaca2bb22be6d80cff221e38fba"),
    ("combinatorics2", "hypercube4"): (0, "28ec388339083f28cf29c697ee3b439ba5d9392e8c92cacb149a760f0bfaec51"),
    ("combinatorics2", "hypercube4", "--text"): (0, "b13dd2935389d89862bb261a0dd010be97fb1fe81d9105e18e921ad82bd53948"),
    ("length-decomposition", "hypercube4"): (0, "fc55673662f23a50fdb3e5752118423be206057397b67bcacee70221ff45ebf2"),
    ("length-decomposition", "hypercube4", "--text"): (0, "f05687ecc2097fb2a96cf7aff04c8545e74d937dfab38dcabb11576e0b6ea194"),
    ("12-24", "hypercube4"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "hypercube4", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "hypercube4"): (0, "b0a47c84296ee3173cbb1e8d474fe3ebbbc3f3b46ce38b64bca36ef9826d66e7"),
    ("gorenstein:1", "hypercube4", "--text"): (0, "7e663203808977de6f6cae43be4a056fc4e4695a9e317603b60ac9d3141a991a"),
    ("gorenstein:2", "hypercube4"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "hypercube4", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "octahedron"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "octahedron", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "octahedron"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "octahedron", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "octahedron"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "octahedron", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "octahedron"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "octahedron", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "octahedron"): (0, "a48a6485aefd1edd35ea6f9499ac03e8090750085fac32597b8f584cfa1353fe"),
    ("12-24", "octahedron", "--text"): (0, "c7e338e8f806f6960d64c80ca7c501be96cc9d33f4df229c52b524703e09c1e2"),
    ("gorenstein:1", "octahedron"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "octahedron", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "octahedron"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "octahedron", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "diamond"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "diamond", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "diamond"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "diamond", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "diamond"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "diamond", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "diamond"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "diamond", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "diamond"): (0, "e370a38c50a272c4bc3b4d3ac332432a406c86944f967efd3f7c09ebaa2a3cf4"),
    ("12-24", "diamond", "--text"): (0, "792796ab3038e38a3fd92407f5729165f3c2034ec905d1adeb9b270df4226970"),
    ("gorenstein:1", "diamond"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "diamond", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "diamond"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "diamond", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "rect"): (0, "5cf80cb9cc4adc77c7eb8e2bf1233adb42b3562658558cc231b1f482bd609824"),
    ("combinatorics2", "rect", "--text"): (0, "f9f36b58e90c21d8c9a23d70eb14c2cb2de3278a5623d5b28b7839703c4b18b9"),
    ("length-decomposition", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "rect"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "rect", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "unit-square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "unit-square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "unit-square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "unit-square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "unit-square"): (0, "5cf80cb9cc4adc77c7eb8e2bf1233adb42b3562658558cc231b1f482bd609824"),
    ("combinatorics2", "unit-square", "--text"): (0, "f9f36b58e90c21d8c9a23d70eb14c2cb2de3278a5623d5b28b7839703c4b18b9"),
    ("length-decomposition", "unit-square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "unit-square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "unit-square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "unit-square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "unit-square"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "unit-square", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "unit-square"): (0, "e9f5845823384c83ce4e07d58120fd519e3596a1435d3a067bd10d94988fb83b"),
    ("gorenstein:2", "unit-square", "--text"): (0, "678ab3704b026ed1066fb4393975c4c53bc625e87b0e597cb9502d26ae395991"),
    ("main", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("main", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("index-corollary", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("combinatorics2", "std-simplex"): (0, "1f7b66af15fa70aa2c159559e6959d4df11424827c46daefb45e6e90ad36a831"),
    ("combinatorics2", "std-simplex", "--text"): (0, "e6a78292d5489a75b0cfa1ff3c082611614d9b0c8acd3a3dc2076e2bf6fc595e"),
    ("length-decomposition", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("length-decomposition", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("12-24", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:1", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "std-simplex"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("gorenstein:2", "std-simplex", "--text"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}
VERIFY_IDENTITIES = ("main", "index-corollary", "combinatorics2", "length-decomposition",
                     "12-24", "gorenstein:1", "gorenstein:2")


def test_every_catalog_polytope_has_pinned_verify_outputs():
    for ident in VERIFY_IDENTITIES:
        for flags in ((), ("--text",)):
            pinned = {name for i, name, *f in VERIFY_SHA256 if i == ident and tuple(f) == flags}
            assert pinned == set(catalog.names("polytope")), (ident, flags)


@pytest.mark.parametrize("args", list(VERIFY_SHA256), ids=" ".join)
def test_verify_output_is_pinned(args):
    ident, name, *flags = args
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", ident, f"catalog:{name}", *flags])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == VERIFY_SHA256[args]


# Exit code and SHA-256 of the standard output and the standard error of
# `delzant lengths INPUT [--text]` for every catalog entry and for the
# rational Delzant triangle conv{0, e1/2, e2/2} ("half-triangle", read from
# a file), recorded before a polytope's lengths became one column read off
# its skeleton.  The triangle exits 2 with NON_LATTICE, the hash of
# "error: NonLatticeEdge: edge (0, 1) has non-integral length 1/2\n".  The
# rows of the A2 flag scaled by 2/3, whose lengths are 4/3 and 8/3, were
# recorded before the numbers of an output stayed Fractions until the
# writer.
EMPTY = hashlib.sha256(b"").hexdigest()
NON_LATTICE = "18a5841e9f85fce7ee01e2c9c72c49c211e8ec6f99cacf64d16e915c4668df7e"
HALF_TRIANGLE = {"dim": 2, "vertices": [[0, 0], ["1/2", 0], [0, "1/2"]]}
# The A2 flag scaled by 2/3, with string ids: its index r is 3/2.
A2_TWO_THIRDS = {
    "ambient_dim": 2, "degree": 3,
    "vertices": [{"id": f"v{i}", "coords": c} for i, c in enumerate(
        [["-4/3", "-4/3"], ["-4/3", 0], [0, "-4/3"], [0, "4/3"], ["4/3", 0], ["4/3", "4/3"]])],
    "edges": [{"u": f"v{u}", "v": f"v{v}"} for u, v in
              [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]],
}
LENGTHS_FILES = {"half-triangle": HALF_TRIANGLE, "a2-two-thirds": A2_TWO_THIRDS}
LENGTHS_SHA256 = {
    ("cp2-triangle",): (0, "af65d8b3e8c119c4a16dfb138d5e4034e249a7ca55dde1eb292e3918545a47c4", EMPTY),
    ("cp2-triangle", "--text"): (0, "01be4c473f84b42001a71072a08d2abe9154558bb76d13de19a62362f9d83861", EMPTY),
    ("square",): (0, "5d45642310f0f935474bd6b45e7dd45f64157eae5fec3c5b4dc029891835e5ea", EMPTY),
    ("square", "--text"): (0, "d8bd55daae4f5d1aa775a661912cb6a99bd1d19b2fc0f21016503b57ab695218", EMPTY),
    ("blowup1",): (0, "0f44ff8d9ed5d4844618a533be98004671b0b3c60a3d2e22ba14a1413583765e", EMPTY),
    ("blowup1", "--text"): (0, "883b7096a5bbc98701d1fcfcf2714e398e9fcc85cec07eb6bb80e5a73ccef042", EMPTY),
    ("blowup2",): (0, "1467fa06b841f91f2e56580021edbe5d878ac22744931e9efc6053f16c4c0ed9", EMPTY),
    ("blowup2", "--text"): (0, "29ce378b67c8461b7d22ee77c8397490d71975229796f030bdcbfefcdbefab89", EMPTY),
    ("hexagon",): (0, "ab7f3ac62058f38f4681b38e89cec16120e43c6aa827fcd67e7e07594ff73e55", EMPTY),
    ("hexagon", "--text"): (0, "1a01eb78445e4a60e9d16518bf124938ba2e439d262fe5989502abf9d9adc3ec", EMPTY),
    ("cube",): (0, "f211eabf094943c5db09da639c5ccd838221114d8925da3eb14bb9baa27c37f5", EMPTY),
    ("cube", "--text"): (0, "a1ce69fc4cff31a34ec14a76372c36cf16f0e396d6de724b16b447b5ba67b30a", EMPTY),
    ("cp3-simplex",): (0, "71515fe898eb5a7438c3229d9283a7a397879df01fa19e050a8068f9968a440e", EMPTY),
    ("cp3-simplex", "--text"): (0, "bd98909c70e9119bfc41ba259ff2100e5dfdea4da5f160239464402942d8c73a", EMPTY),
    ("hypercube4",): (0, "6c764dcc20e46f7eeea290b9043202a79d277d49af0cc237854a628fff6f11ba", EMPTY),
    ("hypercube4", "--text"): (0, "2e32afe177376e2d9a16afa7d5963d04790b8e3bd83de332d312951f06c7de6c", EMPTY),
    ("octahedron",): (0, "c816d17ceb6fc19795de46f9b3f1f2ac537b172d58e42e5f049a029b68a3fe6f", EMPTY),
    ("octahedron", "--text"): (0, "903639cf16a0202208f74d3b3dd3fcb2cd9c693f0dd9b565d16c595dfcabf1f6", EMPTY),
    ("diamond",): (0, "a76d435fb223398a72a1c8226ccaec3902ac5155fc98c1313cb8347dd2978d1e", EMPTY),
    ("diamond", "--text"): (0, "99c8e3ce59c610a4cc22aacd0295685ab83ed29cbf2e8f5d3e720f6b48ebd84a", EMPTY),
    ("rect",): (0, "2879c1bf128edc402255289ff006df0f8384b5be790821a023f355d327f6eb97", EMPTY),
    ("rect", "--text"): (0, "aa8ae3648c03993f46e1e620d9127e184c9e4c215185de799700ac5d1e838f89", EMPTY),
    ("unit-square",): (0, "a76d435fb223398a72a1c8226ccaec3902ac5155fc98c1313cb8347dd2978d1e", EMPTY),
    ("unit-square", "--text"): (0, "99c8e3ce59c610a4cc22aacd0295685ab83ed29cbf2e8f5d3e720f6b48ebd84a", EMPTY),
    ("std-simplex",): (0, "ff74ddaf74e84d08dc8e1312e56d1330022b4a1fe3dc614f1f98d243cef5d7ea", EMPTY),
    ("std-simplex", "--text"): (0, "5f796bb9c7fe33ce376a71af8bbde35a0525098e8a7ab62fdd982edaa9765341", EMPTY),
    ("a2-flag",): (0, "aa562757dab3811862de00f7d8fbd8b0a14badf0bed811e31ca1efcae5594edc", EMPTY),
    ("a2-flag", "--text"): (0, "41ac2c3ed1a30f41e780e91aa89696ccc4510840d3474870aaf3d0b059cc5ba6", EMPTY),
    ("a2-cp2",): (0, "af65d8b3e8c119c4a16dfb138d5e4034e249a7ca55dde1eb292e3918545a47c4", EMPTY),
    ("a2-cp2", "--text"): (0, "01be4c473f84b42001a71072a08d2abe9154558bb76d13de19a62362f9d83861", EMPTY),
    ("a2-cp2b",): (0, "af65d8b3e8c119c4a16dfb138d5e4034e249a7ca55dde1eb292e3918545a47c4", EMPTY),
    ("a2-cp2b", "--text"): (0, "01be4c473f84b42001a71072a08d2abe9154558bb76d13de19a62362f9d83861", EMPTY),
    ("b2-flag",): (0, "267e6763157bc99a7b01469c643d2f929a64350fa9f7e331be2f279ddc4a004e", EMPTY),
    ("b2-flag", "--text"): (0, "1330d5a4e2d85b77bb3c70030a0b7bc57fdf91b6934cb65dc0e6336691e7127e", EMPTY),
    ("b2-i1",): (0, "71515fe898eb5a7438c3229d9283a7a397879df01fa19e050a8068f9968a440e", EMPTY),
    ("b2-i1", "--text"): (0, "bd98909c70e9119bfc41ba259ff2100e5dfdea4da5f160239464402942d8c73a", EMPTY),
    ("b2-i2",): (0, "8f03812ca64a9ea5602c9e0f812f4aeb701e6bf658579b9e2f82b8ec8c933a8e", EMPTY),
    ("b2-i2", "--text"): (0, "a02178999191ea92ea58e58136e4bb50b9a6c9c6217d206f3ecdeced2e5a6de9", EMPTY),
    ("gr24-graph",): (0, "c4eb38d2a96a568f006f4e40ed4d6f6d4a2dba47f0d3c176984eea1c33a1d1fb", EMPTY),
    ("gr24-graph", "--text"): (0, "e951b046044108aa7c1265570d0ee5eb572387e2e546e7ba91f694f2945ba52a", EMPTY),
    ("octahedron-skeleton",): (0, "4cb566eb8106fe1d95bac8e2368830f7669fd6f9b0fc5210a7d1a36ceffad8c1", EMPTY),
    ("octahedron-skeleton", "--text"): (0, "81f2ca18f7696e07dad23e57b7c5e028e9a09d329ffbcffb24babfef86fbd14b", EMPTY),
    ("half-triangle",): (2, EMPTY, NON_LATTICE),
    ("half-triangle", "--text"): (2, EMPTY, NON_LATTICE),
    ("a2-two-thirds",): (0, "91c79fd4f828facc2355b585d30b56e6e02de1e62f080f8d84d913688f16c1d7", EMPTY),
    ("a2-two-thirds", "--text"): (0, "8280748ffe07fea473b7046195e1a91b40e233ec8175b72d2c0f784edde2255a", EMPTY),
}


def test_every_catalog_entry_has_pinned_lengths_outputs():
    for flags in ((), ("--text",)):
        pinned = {name for name, *f in LENGTHS_SHA256 if tuple(f) == flags}
        assert pinned == {*catalog.names(), *LENGTHS_FILES}, flags


@pytest.mark.parametrize("args", list(LENGTHS_SHA256), ids=" ".join)
def test_lengths_output_is_pinned(args, tmp_path):
    name, *flags = args
    source = f"catalog:{name}"
    if name in LENGTHS_FILES:
        source = str(tmp_path / f"{name}.json")
        Path(source).write_text(json.dumps(LENGTHS_FILES[name]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["lengths", source, *flags])
    digests = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    assert (code, *digests) == LENGTHS_SHA256[args]


# Exit code and SHA-256 of the standard output of the commands whose
# report carries a Fraction, on (1/2)·CP^2 ("cp2-half"), where at r = 2
# both sides of the Gorenstein length sum are 9/2, and on the A2 flag
# scaled by 2/3, where r = 3/2; recorded before a report's numbers stayed
# Fractions until the writer.  Standard error is empty for each.
FRACTION_FILES = {"cp2-half": {"dim": 2, "vertices": [["-1/2", "-1/2"], [1, "-1/2"], ["-1/2", 1]]},
                  "a2-two-thirds": A2_TWO_THIRDS}
FRACTION_SHA256 = {
    ("verify", "gorenstein:2", "cp2-half"): (0, "15ea5bacc54729287d7a9a4c89fb2d9200e629e484984e6031894a34fe3d2ee4"),
    ("verify", "gorenstein:2", "cp2-half", "--text"): (0, "4568c6ec8673e3ee04b07b1c04e3d142bfc8c24d44e84414c996e6750b7c802f"),
    ("verify", "gorenstein:2", "cp2-half", "--with-oracle"): (0, "938b0f8a0580be483a89512e21da5f991dab669664fa0d871fe087e4776ad552"),
    ("verify", "gorenstein:2", "cp2-half", "--with-oracle", "--text"): (0, "1fc0f1d4ed52e285928b0bab444205b50407bc36142e40920e440a9721593af9"),
    ("check", "gorenstein", "a2-two-thirds"): (0, "2d2f72e2a0ae732e6ed0a723f715c285db40d4c4190f7cfc00649edac5b84582"),
    ("check", "gorenstein", "a2-two-thirds", "--text"): (0, "9a3a40b74629573de212bf4ca3b05608ab152377403be3ef0efdd51ac411cd7f"),
    ("verify", "graph-corollary", "a2-two-thirds"): (0, "50688b503cc610d765bafcf8055e7b269dcdfdde0f1be6319d0fa041fb08e17d"),
    ("verify", "graph-corollary", "a2-two-thirds", "--text"): (0, "e3134956f3d07525786c8bb1d8d718ad1f2cee888d5d0baf39ff55dd84b97061"),
}


@pytest.mark.parametrize("args", list(FRACTION_SHA256), ids=" ".join)
def test_fraction_output_is_pinned(args, tmp_path):
    for name, doc in FRACTION_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / f"{w}.json") if w in FRACTION_FILES else w for w in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == FRACTION_SHA256[args]
    assert err.getvalue() == ""


# GL(n, Z)-moved products of smooth reflexive factors in dimensions 2-5,
# written to JSON files that give only the vertices or only the facets,
# each at scale 1, 1/2 and 3/2: the 1/2 copy halves the vertices and the
# offsets, and the 3/2 copy multiplies the vertices by 3/2 and writes each
# facet as (3/2 a, 9/4 b), so the normals the hull reads are Fractions.
# Each factor is (vertices, facets (a, b) of <x, a> <= b).
FACTORS = {
    "seg": ([(-1,), (1,)], [((1,), 1), ((-1,), 1)]),
    "square": ([(-1, -1), (-1, 1), (1, -1), (1, 1)],
               [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]),
    "cp2": ([(-1, -1), (2, -1), (-1, 2)], [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)]),
    "hexagon": ([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
                [((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, -1), 1), ((-1, 1), 1)]),
}
MOVED_PRODUCTS = (("hexagon",), ("cp2", "seg"), ("hexagon", "square"), ("cp2", "cp2", "seg"))
SCALES = {"1": (Fraction(1), Fraction(1)), "1/2": (Fraction(1, 2), Fraction(1)),
          "3/2": (Fraction(3, 2), Fraction(3, 2))}


def _moved_product_json(names, form, scale):
    """The JSON of the product of the named factors moved by x -> U x, U
    unit upper triangular, at the given scale; its vertices or its facets
    (<x, a U^-1> <= b) in a fixed shuffled order."""
    n = sum(len(FACTORS[name][0][0]) for name in names)
    verts, facets = [()], []
    for name in names:
        fv, ff = FACTORS[name]
        at = len(verts[0])
        verts = [v + w for v in verts for w in fv]
        facets += [((0,) * at + a + (0,) * (n - at - len(a)), b) for a, b in ff]
    u = [[int(i == j) or (i < j) * ((i + 2 * j) % 3 - 1) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):  # back substitution, row by row from the last
        for j in range(i + 1, n):
            inv[i] = [x - u[i][j] * y for x, y in zip(inv[i], inv[j])]
    s, t = SCALES[scale]
    rng = random.Random(n)
    if form == "vertices":
        rows = [[num_to_json(s * sum(r * c for r, c in zip(row, v))) for row in u] for v in verts]
        rng.shuffle(rows)
        return {"dim": n, "vertices": rows}
    rows = [{"normal": [num_to_json(t * sum(a[i] * inv[i][j] for i in range(n))) for j in range(n)],
             "offset": num_to_json(s * t * b)} for a, b in facets]
    rng.shuffle(rows)
    return {"dim": n, "facets": rows}


# Exit code and SHA-256 of the standard output of `delzant dual|fvector|verify
# main FILE` on the files of `_moved_product_json`, recorded before the
# hull's start cone paired each row once and its boundary read integers
# off attrgetter maps.  The same product gives the same output from its
# vertices and from its facets.  A scaled copy is not reflexive, so `verify
# main` exits 2 on it and prints nothing.
JSON_INPUT_SHA256 = {
    ('dual', 'hexagon', 'vertices', '1'): (0, "0add66ecb10034dddc743230d115d320aeb7710285bd412d14b20e4e20bb2d74"),
    ('fvector', 'hexagon', 'vertices', '1'): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ('verify main', 'hexagon', 'vertices', '1'): (0, "3e24a9cb514e72e92fa400de9a9843c19692d2ee22d01efa4c41631498a760c2"),
    ('dual', 'hexagon', 'vertices', '1/2'): (0, "d5061aa76cca3f119cae2a88d3a0c7cdb4271c1f4ea2931dd6d9722e2d137613"),
    ('fvector', 'hexagon', 'vertices', '1/2'): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ('verify main', 'hexagon', 'vertices', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon', 'vertices', '3/2'): (0, "b4679385e0acdf459abafdbd70538eb1b58e074a5637f51c8fe5909cbfff0d99"),
    ('fvector', 'hexagon', 'vertices', '3/2'): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ('verify main', 'hexagon', 'vertices', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon', 'facets', '1'): (0, "0add66ecb10034dddc743230d115d320aeb7710285bd412d14b20e4e20bb2d74"),
    ('fvector', 'hexagon', 'facets', '1'): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ('verify main', 'hexagon', 'facets', '1'): (0, "3e24a9cb514e72e92fa400de9a9843c19692d2ee22d01efa4c41631498a760c2"),
    ('dual', 'hexagon', 'facets', '1/2'): (0, "d5061aa76cca3f119cae2a88d3a0c7cdb4271c1f4ea2931dd6d9722e2d137613"),
    ('fvector', 'hexagon', 'facets', '1/2'): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ('verify main', 'hexagon', 'facets', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon', 'facets', '3/2'): (0, "b4679385e0acdf459abafdbd70538eb1b58e074a5637f51c8fe5909cbfff0d99"),
    ('fvector', 'hexagon', 'facets', '3/2'): (0, "df845f906bd0687d0202ee66f9c8aac52839b7568ef7806988c5319adc374db6"),
    ('verify main', 'hexagon', 'facets', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-seg', 'vertices', '1'): (0, "4741b10ab7689641bda2c1f1b79b1c7914ca04b0bcd54252689c736604bb5af3"),
    ('fvector', 'cp2-seg', 'vertices', '1'): (0, "d4621fc1932b701314cfcdc39c92c16af6f48f36992b798c2b354092345734c6"),
    ('verify main', 'cp2-seg', 'vertices', '1'): (0, "8c3d0fa72d256edd0d406440d88a94ad3d3e98bbdc7a261515aea493c7e38d15"),
    ('dual', 'cp2-seg', 'vertices', '1/2'): (0, "cbacb25c1d93c1dffe918e8e7a04efc71d45e2262cad7a84e59202829c34115f"),
    ('fvector', 'cp2-seg', 'vertices', '1/2'): (0, "d4621fc1932b701314cfcdc39c92c16af6f48f36992b798c2b354092345734c6"),
    ('verify main', 'cp2-seg', 'vertices', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-seg', 'vertices', '3/2'): (0, "ef2aa1d6b5f768772c494301a8f94a29d2967090e1b25150ef1d35dbcd19c32a"),
    ('fvector', 'cp2-seg', 'vertices', '3/2'): (0, "d4621fc1932b701314cfcdc39c92c16af6f48f36992b798c2b354092345734c6"),
    ('verify main', 'cp2-seg', 'vertices', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-seg', 'facets', '1'): (0, "4741b10ab7689641bda2c1f1b79b1c7914ca04b0bcd54252689c736604bb5af3"),
    ('fvector', 'cp2-seg', 'facets', '1'): (0, "d4621fc1932b701314cfcdc39c92c16af6f48f36992b798c2b354092345734c6"),
    ('verify main', 'cp2-seg', 'facets', '1'): (0, "8c3d0fa72d256edd0d406440d88a94ad3d3e98bbdc7a261515aea493c7e38d15"),
    ('dual', 'cp2-seg', 'facets', '1/2'): (0, "cbacb25c1d93c1dffe918e8e7a04efc71d45e2262cad7a84e59202829c34115f"),
    ('fvector', 'cp2-seg', 'facets', '1/2'): (0, "d4621fc1932b701314cfcdc39c92c16af6f48f36992b798c2b354092345734c6"),
    ('verify main', 'cp2-seg', 'facets', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-seg', 'facets', '3/2'): (0, "ef2aa1d6b5f768772c494301a8f94a29d2967090e1b25150ef1d35dbcd19c32a"),
    ('fvector', 'cp2-seg', 'facets', '3/2'): (0, "d4621fc1932b701314cfcdc39c92c16af6f48f36992b798c2b354092345734c6"),
    ('verify main', 'cp2-seg', 'facets', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon-square', 'vertices', '1'): (0, "e90f1f4387cbde2e097bf54a3a0f047f303d7c7ca2e2964f697fc89586daab39"),
    ('fvector', 'hexagon-square', 'vertices', '1'): (0, "73c2ec1f9fd6b64b71a6961c942ab6c6c787ff0887a1fb614f2d9d33b8be82e0"),
    ('verify main', 'hexagon-square', 'vertices', '1'): (0, "8e693e23d1c15752061c57ee2999dd00262ecf618edcfd8fe6d8722d20a4f295"),
    ('dual', 'hexagon-square', 'vertices', '1/2'): (0, "6d10229ec64d28f23629e29640c7bf8bf4208e4d6bf3eaf7ed8043818f000b0e"),
    ('fvector', 'hexagon-square', 'vertices', '1/2'): (0, "73c2ec1f9fd6b64b71a6961c942ab6c6c787ff0887a1fb614f2d9d33b8be82e0"),
    ('verify main', 'hexagon-square', 'vertices', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon-square', 'vertices', '3/2'): (0, "ba57a2a8396343120d5df710bb2cea0fb076e3f9b906f6548a483c3c9120b963"),
    ('fvector', 'hexagon-square', 'vertices', '3/2'): (0, "73c2ec1f9fd6b64b71a6961c942ab6c6c787ff0887a1fb614f2d9d33b8be82e0"),
    ('verify main', 'hexagon-square', 'vertices', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon-square', 'facets', '1'): (0, "e90f1f4387cbde2e097bf54a3a0f047f303d7c7ca2e2964f697fc89586daab39"),
    ('fvector', 'hexagon-square', 'facets', '1'): (0, "73c2ec1f9fd6b64b71a6961c942ab6c6c787ff0887a1fb614f2d9d33b8be82e0"),
    ('verify main', 'hexagon-square', 'facets', '1'): (0, "8e693e23d1c15752061c57ee2999dd00262ecf618edcfd8fe6d8722d20a4f295"),
    ('dual', 'hexagon-square', 'facets', '1/2'): (0, "6d10229ec64d28f23629e29640c7bf8bf4208e4d6bf3eaf7ed8043818f000b0e"),
    ('fvector', 'hexagon-square', 'facets', '1/2'): (0, "73c2ec1f9fd6b64b71a6961c942ab6c6c787ff0887a1fb614f2d9d33b8be82e0"),
    ('verify main', 'hexagon-square', 'facets', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'hexagon-square', 'facets', '3/2'): (0, "ba57a2a8396343120d5df710bb2cea0fb076e3f9b906f6548a483c3c9120b963"),
    ('fvector', 'hexagon-square', 'facets', '3/2'): (0, "73c2ec1f9fd6b64b71a6961c942ab6c6c787ff0887a1fb614f2d9d33b8be82e0"),
    ('verify main', 'hexagon-square', 'facets', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-cp2-seg', 'vertices', '1'): (0, "75d9626d4d117b99f1aeaa8728c5e1c4fab1c6aedfd72bc146cf071996ebd8e3"),
    ('fvector', 'cp2-cp2-seg', 'vertices', '1'): (0, "18a6c582c8d832df807de3475041e9c18c799041afa5c5f81a3e2fd3e4ac0865"),
    ('verify main', 'cp2-cp2-seg', 'vertices', '1'): (0, "9608c978c7a2d9cc804a7682357d80ecc95d45172f5237cb793fa4831c4e901a"),
    ('dual', 'cp2-cp2-seg', 'vertices', '1/2'): (0, "204c1262a2d42e5f807cb4171319b9f48d9d87b3d008f7deac16be44c75d7c8b"),
    ('fvector', 'cp2-cp2-seg', 'vertices', '1/2'): (0, "18a6c582c8d832df807de3475041e9c18c799041afa5c5f81a3e2fd3e4ac0865"),
    ('verify main', 'cp2-cp2-seg', 'vertices', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-cp2-seg', 'vertices', '3/2'): (0, "47180f0d7f39a3b5643d76014492c332c4d7e7103d202a6a88d765df8858126a"),
    ('fvector', 'cp2-cp2-seg', 'vertices', '3/2'): (0, "18a6c582c8d832df807de3475041e9c18c799041afa5c5f81a3e2fd3e4ac0865"),
    ('verify main', 'cp2-cp2-seg', 'vertices', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-cp2-seg', 'facets', '1'): (0, "75d9626d4d117b99f1aeaa8728c5e1c4fab1c6aedfd72bc146cf071996ebd8e3"),
    ('fvector', 'cp2-cp2-seg', 'facets', '1'): (0, "18a6c582c8d832df807de3475041e9c18c799041afa5c5f81a3e2fd3e4ac0865"),
    ('verify main', 'cp2-cp2-seg', 'facets', '1'): (0, "9608c978c7a2d9cc804a7682357d80ecc95d45172f5237cb793fa4831c4e901a"),
    ('dual', 'cp2-cp2-seg', 'facets', '1/2'): (0, "204c1262a2d42e5f807cb4171319b9f48d9d87b3d008f7deac16be44c75d7c8b"),
    ('fvector', 'cp2-cp2-seg', 'facets', '1/2'): (0, "18a6c582c8d832df807de3475041e9c18c799041afa5c5f81a3e2fd3e4ac0865"),
    ('verify main', 'cp2-cp2-seg', 'facets', '1/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('dual', 'cp2-cp2-seg', 'facets', '3/2'): (0, "47180f0d7f39a3b5643d76014492c332c4d7e7103d202a6a88d765df8858126a"),
    ('fvector', 'cp2-cp2-seg', 'facets', '3/2'): (0, "18a6c582c8d832df807de3475041e9c18c799041afa5c5f81a3e2fd3e4ac0865"),
    ('verify main', 'cp2-cp2-seg', 'facets', '3/2'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("args", list(JSON_INPUT_SHA256), ids=" ".join)
def test_json_input_output_is_pinned(args, tmp_path):
    cmd, name, form, scale = args
    source = tmp_path / "input.json"
    source.write_text(json.dumps(_moved_product_json(name.split("-"), form, scale)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*cmd.split(), str(source)])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == JSON_INPUT_SHA256[args]
