"""The CLI's JSON writers against the standard library's encoder: ``_emit``
must print exactly ``json.dumps(x, indent=2, sort_keys=True)`` and a
newline for every JSON-like value without floats, and ``_emit_graph`` the
same for ``serialize.graph_to_json(G) | extra``."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant import catalog, cli, gkm, roots, serialize
from delzant.gkm import GkmGraph
from delzant.report import num_to_json

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
def test_emit_matches_json_dumps(payload):
    assert emitted(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    1.5,
    {"a": 0.0},
    [1, [2, [3, float("nan")]]],
    {1: "a"},
    {"a": [{"b": {2: 3}}]},
    {"a": 1, 2: "b"},
    [object()],
    {"a": {1, 2}},
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
}


@pytest.mark.parametrize("args", list(BUILD_SHA256), ids=" ".join)
def test_gkm_build_output_is_pinned(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gkm", "build", *args]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == BUILD_SHA256[args]


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
