"""The CLI contract, fuzzed: exit 0 on pass, 1 on an identity that failed
(with a report saying so), 2 on bad input or usage, and never a traceback.

Each example runs ``cli.main`` in-process on a subcommand, a catalog entry
and an identity or argument drawn by Hypothesis, including polytopes given
to graph commands and the reverse, unparsable Gorenstein indices and
simple-root indices, and index ranges outside [1, n + 1].
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from delzant import catalog
from delzant.cli import main

INPUTS = st.sampled_from([f"catalog:{n}" for n in catalog.names()] + ["catalog:nope"])
IDENTITIES = st.one_of(
    st.sampled_from([
        "main", "12-24", "combinatorics2", "length-decomposition",
        "index-corollary", "graph-corollary", "no-such-identity",
    ]),
    st.one_of(
        st.integers(-1, 3).map(str),
        st.sampled_from(["abc", "", "1/2", "2.0", "1,2"]),
    ).map(lambda r: f"gorenstein:{r}"),
)
ROOT_INDICES = st.sampled_from(["", "0", "0,1", "1", "a,b", "9", "-1", ","])
FLAG = st.booleans()


@st.composite
def argvs(draw):
    src = draw(INPUTS)
    cmd = draw(st.sampled_from([
        "check", "verify", "dual", "fvector", "hvector", "lengths",
        "catalog show", "gkm check", "gkm build", "bounds enumerate",
    ]))
    if cmd == "check":
        return ["check", draw(st.sampled_from(["delzant", "reflexive", "gkm", "gorenstein"])), src]
    if cmd == "verify":
        return ["verify", draw(IDENTITIES), src] + (["--with-oracle"] if draw(FLAG) else [])
    if cmd == "fvector":
        return ["fvector", src] + (["--with-oracle"] if draw(FLAG) else [])
    if cmd == "hvector":
        xi = draw(st.sampled_from([[], ["--directed"], ["--xi", "1,2"], ["--xi", "1,3,9"], ["--xi", "x"]]))
        return ["hvector", src] + xi
    if cmd == "catalog show":
        return ["catalog", "show", src.split(":", 1)[1]]
    if cmd == "gkm check":
        return ["gkm", "check", src]
    if cmd == "gkm build":
        kind = draw(st.sampled_from(["A", "B", "C", "D", "G2", "E"]))
        argv = ["gkm", "build", kind, str(draw(st.integers(0, 3)))]
        indices = draw(ROOT_INDICES)
        return argv + (["--I", indices] if indices else [])
    if cmd == "bounds enumerate":
        argv = ["bounds", "enumerate", "--n", str(draw(st.integers(-1, 8))),
                "--k0", str(draw(st.integers(-1, 10)))]
        if draw(FLAG):
            argv.append("--unimodal")
        if draw(FLAG):
            argv += ["--cap", str(draw(st.integers(-1, 4)))]
        return argv
    return [cmd, src]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_cli_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1:
        assert json.loads(out)["pass"] is False, argv


SEGMENT = {"dim": 1, "vertices": [[-1], [1]]}
LIST_ID = {"ambient_dim": 1, "degree": 1, "vertices": [
    {"id": [0], "coords": [-1]}, {"id": 1, "coords": [1]}], "edges": [{"u": [0], "v": 1}]}
LIST_END = {"ambient_dim": 1, "degree": 1, "vertices": [
    {"id": 0, "coords": [-1]}, {"id": 1, "coords": [1]}], "edges": [{"u": 0, "v": [1]}]}
EMPTY_GRAPH = {"ambient_dim": 1, "degree": 1, "vertices": [], "edges": []}


def segment_graph(**change):
    return {"ambient_dim": 1, "degree": 1, "vertices": [
        {"id": 0, "coords": [-1]}, {"id": 1, "coords": [1]}], "edges": [{"u": 0, "v": 1}], **change}


SQUARE_DEGREE_1 = {"ambient_dim": 2, "degree": 1, "vertices": [
    {"id": i, "coords": c} for i, c in enumerate([[1, 1], [-1, 1], [-1, -1], [1, -1]])],
    "edges": [{"u": i, "v": (i + 1) % 4} for i in range(4)]}


@pytest.mark.parametrize("argv, data, error", [
    (["verify", "index-corollary"], SEGMENT, "UnsupportedDimension"),
    (["gkm", "check"], LIST_ID, "is not a JSON scalar"),
    (["check", "gkm"], LIST_END, "is not a JSON scalar"),
    (["gkm", "check"], EMPTY_GRAPH, "InvalidGraph"),
    (["check", "gorenstein"], EMPTY_GRAPH, "InvalidGraph"),
    (["gkm", "check"], segment_graph(vertices=5), "'vertices' must be a JSON list"),
    (["hvector"], segment_graph(edges=5), "'edges' must be a JSON list"),
    (["hvector"], segment_graph(degree="1"), "'degree' must be an integer"),
    (["lengths"], segment_graph(degree=True), "'degree' must be an integer"),
    (["hvector"], segment_graph(degree=-1), "'degree' must be an integer"),
    (["check", "gkm"], segment_graph(ambient_dim="1"), "'ambient_dim' must be an integer"),
    (["hvector"], SQUARE_DEGREE_1, "InvalidGraph"),
    (["fvector"], {"dim": 2, "vertices": 5}, "'vertices' must be a JSON list"),
    (["lengths"], {"dim": 2, "facets": 5}, "'facets' must be a JSON list"),
    (["fvector"], {"dim": True, "vertices": [[0], [1]]}, "'dim' must be an integer"),
])
def test_json_input_exits_2(tmp_path, argv, data, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(argv + [str(path)])
    assert (code, out) == (2, ""), (argv, code, err)
    assert error in err and "Traceback" not in err
