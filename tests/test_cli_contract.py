"""The CLI contract, fuzzed: exit 0 on pass, 1 on an identity that failed
(with a report saying so), 2 on bad input or usage, and never a traceback.

Each example runs ``cli.main`` in-process on a subcommand, a catalog entry
and an identity or argument drawn by Hypothesis, including polytopes given
to graph commands and the reverse, unparsable Gorenstein indices and
simple-root indices, and index ranges outside [1, n + 1].  A second fuzz
writes polytope and graph documents with wrong types, missing keys,
booleans, nulls, huge integers and "p/q" strings, and runs them through
the commands that read JSON.
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
FLOAT_IDS = {"ambient_dim": 1, "degree": 1, "vertices": [
    {"id": 0.5, "coords": [-1]}, {"id": 1.5, "coords": [1]}], "edges": [{"u": 0.5, "v": 1.5}]}
# true is equal to 1 and false to 0 in Python: this edge would join vertex 1
# to 2, and the id false would clash with 0.
BOOL_END = {"ambient_dim": 1, "degree": 1, "vertices": [
    {"id": i, "coords": [c]} for i, c in enumerate([-1, 0, 1])], "edges": [{"u": True, "v": 2}]}
BOOL_ID = {"ambient_dim": 1, "degree": 1, "vertices": [
    {"id": 0, "coords": [-1]}, {"id": False, "coords": [1]}], "edges": []}
EMPTY_GRAPH = {"ambient_dim": 1, "degree": 1, "vertices": [], "edges": []}


def segment_graph(**change):
    return {"ambient_dim": 1, "degree": 1, "vertices": [
        {"id": 0, "coords": [-1]}, {"id": 1, "coords": [1]}], "edges": [{"u": 0, "v": 1}], **change}


SQUARE_DEGREE_1 = {"ambient_dim": 2, "degree": 1, "vertices": [
    {"id": i, "coords": c} for i, c in enumerate([[1, 1], [-1, 1], [-1, -1], [1, -1]])],
    "edges": [{"u": i, "v": (i + 1) % 4} for i in range(4)]}

# Three vertices, one edge and degree 2: `gkm check` fails it, and the census
# would count the two bare vertices at in-degree 0.
NON_REGULAR = {"ambient_dim": 1, "degree": 2, "vertices": [
    {"id": i, "coords": [c]} for i, c in enumerate([-1, 0, 1])], "edges": [{"u": 0, "v": 2}]}

# The 7-cube by its 14 facets: the f-vector oracle would try 2^14 subsets.
CUBE7 = {"dim": 7, "facets": [
    {"normal": [s if j == i else 0 for j in range(7)], "offset": 1}
    for i in range(7) for s in (1, -1)]}
# The 13-cube by its 26 facets: every ray pair of the hull passes the
# bit-count filter, and the mask scans charged for its last row (4096 pairs
# against 4097 rays) take the hull past polytope.HULL_SCAN_LIMIT.
CUBE13 = {"dim": 13, "facets": [
    {"normal": [s if j == i else 0 for j in range(13)], "offset": 1}
    for i in range(13) for s in (1, -1)]}

# The 12-cube by its 24 facets: the hull accepts it, and its face walk
# (531,441 faces) goes past polytope.FACE_WALK_LIMIT at the 5-faces.
CUBE12 = {"dim": 12, "facets": [
    {"normal": [s if j == i else 0 for j in range(12)], "offset": 1}
    for i in range(12) for s in (1, -1)]}


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
    (["verify", "combinatorics2"], SEGMENT, "UnsupportedDimension"),
    (["verify", "gorenstein:1"], SEGMENT, "UnsupportedDimension"),
    (["hvector"], segment_graph(degree=2), "more than 2 vertices allow"),
    (["hvector"], segment_graph(degree=10**30), "more than 2 vertices allow"),
    (["fvector"], {"dim": 1, "vertices": [["1.5"], [-1]]}, "cannot parse rational"),
    (["lengths"], {"dim": 1, "vertices": [["1e100000"], [-1]]}, "cannot parse rational"),
    (["hvector"], NON_REGULAR, "InvalidGraph"),
    (["fvector", "--with-oracle"], CUBE7, "takes at most 12 facets"),
    (["verify", "main", "--with-oracle"], CUBE7, "takes at most 12 facets"),
    (["lengths"], FLOAT_IDS, "is a float"),
    (["gkm", "check"], segment_graph(edges=[{"u": 0, "v": 1.0}]), "is a float"),
    (["fvector"], CUBE13, "more than its limit of 6000000"),
    (["lengths"], BOOL_END, "is a boolean"),
    (["gkm", "check"], BOOL_ID, "is a boolean"),
    (["fvector"], CUBE12, "2266776 face-facet pairs by dimension 5, more than its limit of 2000000"),
    # "p/0" matches the rational pattern, and Fraction refuses it
    (["fvector"], {"dim": 1, "vertices": [["1/0"], [-1]]}, "error: cannot parse rational '1/0'"),
    (["lengths"], {"dim": 1, "facets": [{"normal": [1], "offset": "1/0"},
                                        {"normal": [-1], "offset": 1}]},
     "error: cannot parse rational '1/0'"),
    (["gkm", "check"], segment_graph(vertices=[{"id": 0, "coords": [-1]}, {"id": 0, "coords": [1]}],
                                     edges=[]), "error: InvalidGraph: duplicate vertex id 0"),
    # graphs have no oracle yet: the flag is refused before the input is read
    (["verify", "graph-corollary", "--with-oracle"], segment_graph(),
     "error: --with-oracle takes a polytope identity: graphs have no oracle\n"),
    (["verify", "graph-corollary", "--with-oracle"], SEGMENT,
     "error: --with-oracle takes a polytope identity: graphs have no oracle\n"),
])
def test_json_input_exits_2(tmp_path, argv, data, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(argv + [str(path)])
    assert (code, out) == (2, ""), (argv, code, err)
    assert error in err and "Traceback" not in err


@pytest.mark.parametrize("text, error", [
    (b"[" * 100000 + b"]" * 100000, "invalid JSON"),
    (b'{"dim": 1, "vertices": [[' + b"9" * 5000 + b"], [1]]}", "invalid JSON"),
    (b'{"dim": 1, "vertices": [["\xff"], [1]]}', "cannot read"),
])
def test_unreadable_json_exits_2(tmp_path, text, error):
    path = tmp_path / "input.json"
    path.write_bytes(text)
    code, out, err = run(["fvector", str(path)])
    assert (code, out) == (2, ""), err
    assert error in err and "Traceback" not in err


# -- JSON documents ---------------------------------------------------------------

SQUARE_GRAPH = {"ambient_dim": 2, "degree": 2, "vertices": [
    {"id": i, "coords": c} for i, c in enumerate([[1, 1], [-1, 1], [-1, -1], [1, -1]])],
    "edges": [{"u": i, "v": (i + 1) % 4} for i in range(4)]}
THIRD_SQUARE_GRAPH = {**SQUARE_GRAPH, "vertices": [
    {"id": i, "coords": c} for i, c in enumerate(
        [["1/3", "1/3"], ["-1/3", "1/3"], ["-1/3", "-1/3"], ["1/3", "-1/3"]])]}
DOCUMENTS = [
    SEGMENT,
    {"dim": 2, "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
    {"dim": 2, "vertices": [[1, 0], [0, 1], [-1, -1]]},
    {"dim": 2, "vertices": [["1/2", 0], [0, "2/3"], ["-5/4", "-1/6"]]},
    {"dim": 2, "facets": [{"normal": [1, 0], "offset": 1}, {"normal": [-1, 0], "offset": 1},
                          {"normal": [0, 1], "offset": 1}, {"normal": [0, -1], "offset": "1/2"}]},
    {"dim": 3, "vertices": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]},
    segment_graph(),
    SQUARE_GRAPH,
    THIRD_SQUARE_GRAPH,
]
BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", "1/2", "-3/4", "1/0", "p/q", "1.5", "1e100000",
                     1.5, [], {}, [[]], 0, -1, 1, 2]),
    st.sampled_from([10**30, -10**30, 2**64, 2**63 - 1, 10**9]),
    st.integers(-5, 5).map(str),
)


def _paths(doc, prefix=()):
    """The key path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _paths(v, prefix + (k,))


@st.composite
def documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for k in head:
            parent = parent[k]
        action = draw(st.sampled_from(["replace", "replace", "delete", "repeat"]))
        if action == "replace":
            parent[last] = json.loads(json.dumps(draw(BAD_VALUES)))  # a fresh copy
        elif action == "delete":
            del parent[last]
        elif isinstance(parent, list):  # a repeated vertex, facet or edge
            parent.append(parent[last])
        else:  # a value wrapped in a list
            parent[last] = [parent[last]]
    return doc


JSON_COMMANDS = st.one_of(
    st.sampled_from(["delzant", "reflexive", "gkm", "gorenstein"]).map(lambda w: ["check", w]),
    st.sampled_from(["main", "12-24", "combinatorics2", "length-decomposition",
                     "index-corollary", "graph-corollary", "gorenstein:1", "gorenstein:2"]
                    ).map(lambda i: ["verify", i]),
    st.sampled_from([["hvector"], ["lengths"], ["gkm", "check"]]),
)


@settings(max_examples=200, deadline=None)
@given(JSON_COMMANDS, documents())
def test_json_input_contract(tmp_path_factory, argv, doc):
    path = tmp_path_factory.mktemp("doc") / "input.json"
    path.write_text(json.dumps(doc))
    try:
        code, out, err = run(argv + [str(path)])
    except Exception as e:  # an exception out of main is a traceback from the shell
        pytest.fail(f"{argv} {doc}: {type(e).__name__}: {e}")
    assert code in (0, 1, 2), (argv, doc, code)
    assert "Traceback" not in err, (argv, doc)
    if code == 1:
        assert json.loads(out)["pass"] is False, (argv, doc)
