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
