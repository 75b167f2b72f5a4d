import gc
import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from delzant import catalog, gkm, oracle, reflexive, roots, serialize
from delzant.errors import (
    DelzantError,
    DimensionMismatch,
    DirectionDependent,
    InconsistentIndex,
    InvalidGraph,
    NonGenericDirection,
    NonPositiveIndex,
    ZeroVector,
)
from delzant.gkm import GkmGraph
from delzant.polytope import Polytope, cube, simplex_cpn
from delzant.report import VerificationReport

import weyl_corpus


def square_skeleton():
    return reflexive.from_polytope(cube(2))


def test_validate_square():
    G = square_skeleton()
    assert gkm.validate(G).passed
    assert G.degree == 2


def test_validate_octahedron_skeleton():
    G = catalog.load("octahedron-skeleton")
    assert gkm.validate(G).passed
    assert G.degree == 4 and G.ambient_dim == 3
    assert len(G.edges()) == 12


def test_validate_rejects_parallel_weights():
    # with the edge (2, 1), w = (1, 0) and -w are two entries of the weight
    # table, and both leave vertex 1: a line is +-w, not w
    for middle in [(1, 2), (2, 1)]:
        G = GkmGraph(
            2, 2,
            [(0, (0, 0)), (1, (1, 0)), (2, (3, 0)), (3, (1, 1))],
            [(0, 1), middle, (2, 3), (3, 0)],
        )
        rep = gkm.validate(G)
        bad = [i["id"] for i in rep.per_item if not i["pass"]]
        assert bad == ["gkm-condition 1"], middle


def test_degree_regularity_edge_count():
    for name in catalog.names("gkm-graph"):
        G = catalog.load(name)
        assert 2 * len(G.edges()) == G.degree * len(G.ids), name


def test_duplicate_edge_rejected():
    with pytest.raises(InvalidGraph):
        GkmGraph(1, 1, [(0, (0,)), (1, (1,))], [(0, 1), (1, 0)])


def test_vertex_of_the_wrong_length_rejected():
    # the JSON reader refuses such coordinates before the graph sees them
    with pytest.raises(InvalidGraph, match=r"^vertex 1 has wrong dimension$"):
        GkmGraph(2, 2, [(0, (0, 0)), (1, (1, 0, 0))], [])


SQUARE = [(0, (0, 0)), (1, (1, 0)), (2, (1, 1)), (3, (0, 1))]

# vertices 1 and 2 at one point
COINCIDENT = [(0, (0, 0)), (1, (1, 0)), (2, (1, 0))]

# Each refused edge list with its error and message, recorded while the
# graph still kept its weights in tables by edge.
REFUSED_EDGES = [
    (SQUARE, [(0, 1), (1, 9)], InvalidGraph, "edge (1, 9) has an unknown endpoint"),
    (SQUARE, [("a", 1)], InvalidGraph, "edge ('a', 1) has an unknown endpoint"),
    (SQUARE, [(7, 7)], InvalidGraph, "edge (7, 7) has an unknown endpoint"),
    (SQUARE, [(0, 1), (2, 2)], InvalidGraph, "loop at 2"),
    (SQUARE, [(0, 1), (1, 2), (0, 1)], InvalidGraph, "repeated edge (0, 1)"),
    (SQUARE, [(0, 1), (1, 2), (2, 1)], InvalidGraph, "repeated edge (2, 1)"),
    ([(0, (0, 0)), (1, (1, 0)), (2, (1, 0))], [(0, 1), (1, 2)], ZeroVector, "zero displacement"),
    # two faults, each in both orders: the first edge at fault names the
    # error; recorded while one loop checked each edge and derived its
    # weight
    (COINCIDENT, [(0, 1), (1, 2), (0, 1)], ZeroVector, "zero displacement"),
    (COINCIDENT, [(0, 1), (0, 1), (1, 2)], InvalidGraph, "repeated edge (0, 1)"),
    (SQUARE, [(0, 1), (2, 2), (1, 9)], InvalidGraph, "loop at 2"),
    (SQUARE, [(0, 1), (1, 9), (2, 2)], InvalidGraph, "edge (1, 9) has an unknown endpoint"),
    (SQUARE, [(0, 1), (1, 0), (1, 9)], InvalidGraph, "repeated edge (1, 0)"),
    (SQUARE, [(0, 1), (1, 9), (1, 0)], InvalidGraph, "edge (1, 9) has an unknown endpoint"),
    (COINCIDENT, [(0, 0), (1, 2)], InvalidGraph, "loop at 0"),
    (COINCIDENT, [(1, 2), (0, 0)], ZeroVector, "zero displacement"),
    (COINCIDENT, [(0, 9), (1, 2)], InvalidGraph, "edge (0, 9) has an unknown endpoint"),
    (COINCIDENT, [(1, 2), (0, 9)], ZeroVector, "zero displacement"),
]


@pytest.mark.parametrize("vertices, edges, error, message", REFUSED_EDGES)
def test_refused_edges_keep_their_errors(vertices, edges, error, message):
    with pytest.raises(error) as info:
        GkmGraph(2, 2, vertices, edges)
    assert type(info.value) is error and str(info.value) == message


def test_fill_derives_the_columns():
    # q = 2, integer points (0, 0), (1, 0), (0, 4)
    G = GkmGraph(2, 2, [(0, (0, 0)), (1, (Fraction(1, 2), 0)), (2, (0, 2))],
                 [(0, 1), (1, 2), (2, 0)])
    assert G.edge_list == [(0, 1), (1, 2), (2, 0)]
    assert G._weight_col == [(1, 0), (-1, 4), (0, -1)]
    assert G._length_col == [Fraction(1, 2), Fraction(1, 2), 2]
    assert type(G._length_col[2]) is int
    assert G.weight((1, 2), tail=2) == (1, -4) and G.length((0, 2)) == 2
    assert gkm.star(G, 0) == ([1, 2], [(1, 0), (0, 1)])
    assert G.incident(0) == [(0, 1), (2, 0)]
    assert G.sum_lengths() == 3


def test_is_reflexive_graph():
    for name in ["a2-flag", "a2-cp2", "b2-flag", "gr24-graph"]:
        assert gkm.is_reflexive_graph(catalog.load(name)).passed, name
    assert gkm.is_reflexive_graph(square_skeleton()).passed
    assert not gkm.is_reflexive_graph(catalog.load("octahedron-skeleton")).passed


def test_vertex_sum_is_made_by_ratio():
    # the hexagon's skeleton with its coordinates given as Fractions
    S = catalog.load("hexagon").skeleton()
    G = GkmGraph(2, 2, [(v, tuple(map(Fraction, S.coords[v]))) for v in S.ids], S.edge_list)
    rep = gkm.is_reflexive_graph(G)
    assert rep.passed
    (total,) = [i["detail"]["sum"] for i in rep.per_item if i["id"] == "vertex-sum-zero"]
    assert total == [0, 0] and all(type(c) is int for c in total)


def test_gorenstein_index():
    assert gkm.gorenstein_index(catalog.load("octahedron-skeleton")) == 4
    for name in ["a2-flag", "b2-flag", "gr24-graph"]:
        assert gkm.gorenstein_index(catalog.load(name)) == 1, name


def test_gorenstein_index_rejects_a_non_parallel_weight_sum():
    # the square's skeleton moved by (0, 1/2): the first coordinates alone
    # still give r = 1 at every vertex
    G = GkmGraph(
        2, 2,
        [(0, (-1, Fraction(-1, 2))), (1, (1, Fraction(-1, 2))),
         (2, (1, Fraction(3, 2))), (3, (-1, Fraction(3, 2)))],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    with pytest.raises(InconsistentIndex):
        gkm.gorenstein_index(G)


def test_h_vector_graph_values():
    assert gkm.h_vector_graph(catalog.load("a2-flag")) == (1, 2, 2, 1)
    assert gkm.h_vector_graph(catalog.load("a2-cp2")) == (1, 1, 1)
    assert gkm.h_vector_graph(catalog.load("b2-flag")) == (1, 2, 2, 2, 1)
    assert gkm.h_vector_graph(catalog.load("gr24-graph")) == (1, 1, 2, 1, 1)
    assert gkm.h_vector_graph(catalog.load("octahedron-skeleton")) == (1, 1, 2, 1, 1)
    assert gkm.h_vector_graph(square_skeleton()) == (1, 2, 1)


def test_h_vector_matches_polytope():
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        G = reflexive.from_polytope(P)
        assert gkm.h_vector_graph(G) == P.h_vector_comb(), name


def test_h_vector_of_a_segment():
    # one generic direction exists in dimension 1, and it is enough
    G = reflexive.from_polytope(Polytope.from_vertices([(-1,), (1,)]))
    assert gkm.h_vector_graph(G) == (1, 1)


def test_polytope_skeleton_is_the_graph():
    for name in ["hexagon", "cube", "octahedron", "diamond"]:
        P = catalog.load(name)
        S = P.skeleton()
        assert S.edges() == P.edges(), name
        for v in S.ids:
            assert S.incident(v) == [e for e in S.edge_list if v in e], name
            assert P.vertex_weights(v) == [S.weight(e, tail=v) for e in S.incident(v)], name


def _assert_reads_are_the_columns(G):
    """Every reader by edge against one scan of the three columns: the
    weight in each orientation, with and without ``tail``, the length,
    the edges and the star at each vertex; KeyError for a loop, a non-edge
    and an unknown vertex."""
    at = {vid: [] for vid in G.ids}
    for (u, v), w, length in zip(G.edge_list, G._weight_col, G._length_col):
        minus = tuple(-c for c in w)
        at[u].append(((u, v), v, w))
        at[v].append(((u, v), u, minus))
        assert G.weight((u, v)) == G.weight((u, v), u) == G.weight((v, u), u) == w
        assert G.weight((v, u)) == G.weight((v, u), v) == G.weight((u, v), v) == minus
        assert G.length((u, v)) == G.length((v, u)) == length
    for vid, rows in at.items():
        assert G.incident(vid) == [e for e, _, _ in rows]
        assert gkm.star(G, vid) == ([o for _, o, _ in rows], [w for _, _, w in rows])
        near = {o for _, o, _ in rows}
        far = next((o for o in G.ids if o != vid and o not in near), None)
        for pair in [(vid, vid)] if far is None else [(vid, vid), (vid, far), (far, vid)]:
            for read in [G.weight, G.length, lambda e: G.weight(e, vid)]:
                with pytest.raises(KeyError):
                    read(pair)
    with pytest.raises(KeyError):
        G.weight(("no such vertex", G.ids[0]))


def _string_id_graph():
    data = serialize.graph_to_json(catalog.load("b2-flag"))
    name = {v["id"]: f"v{v['id']}" for v in data["vertices"]}
    for v in data["vertices"]:
        v["id"] = name[v["id"]]
    for e in data["edges"]:
        e["u"], e["v"] = name[e["u"]], name[e["v"]]
    return serialize.graph_from_json(json.loads(json.dumps(data)))


READ_GRAPHS = {
    **{f"{kind}{rank}-{I}": lambda kind=kind, rank=rank, I=I: roots.coadjoint_graph(
        roots.build(kind, rank), I) for kind, rank, I in weyl_corpus.WEYL + [("D", 5, ())]},
    **{name: lambda name=name: catalog.load(name) for name in catalog.names("gkm-graph")},
    "string-ids": _string_id_graph,
}


# A graph's columns and the weight-index pair: the readers by edge may add
# only the position adjacency ``_incident`` to these.
COLUMNS = {"ambient_dim", "degree", "ids", "coords", "q", "lattice", "edge_list",
           "_weight_col", "_length_col", "_weight_index"}


@pytest.mark.parametrize("name", READ_GRAPHS)
def test_readers_by_edge_read_the_columns(name):
    G = READ_GRAPHS[name]()
    _assert_reads_are_the_columns(G)
    assert set(vars(G)) - COLUMNS == {"_incident"}


def test_polytope_readers_by_edge_read_the_skeleton_columns():
    for name in catalog.names("polytope"):
        P = catalog.load(name)
        S = P.skeleton()
        _assert_reads_are_the_columns(S)
        for vid in S.ids:
            assert P.vertex_weights(vid) == gkm.star(S, vid)[1], name
        for (u, v), length in zip(S.edge_list, S._length_col):
            if isinstance(length, int):
                assert P.relative_length((u, v)) == P.relative_length((v, u)) == length, name
        with pytest.raises(KeyError):
            P.relative_length((0, 0))
        assert set(vars(S)) - COLUMNS == {"_incident"}, name


def test_generic_direction_skips_avoided_directions_given_as_lists():
    # an avoided direction is skipped whether it comes as a tuple or a list
    P = catalog.load("hexagon")
    assert P.generic_direction() == (1, 2)
    assert P.generic_direction(avoid=[(1, 2)]) == P.generic_direction(avoid=[[1, 2]]) == (1, 3)
    assert P.generic_direction(avoid=[[1, 2], (1, 3)]) == (1, 5)
    assert gkm.generic_direction(P.skeleton(), avoid=[[1, 2]]) == (1, 3)


def test_h_vector_rejects_non_generic_direction():
    with pytest.raises(NonGenericDirection):
        gkm.h_vector_graph(square_skeleton(), xi=(1, 0))


def test_h_vector_refuses_a_non_regular_graph():
    # three vertices, one edge, degree 2: the census would count the two
    # bare vertices at in-degree 0 and print (2, 1, 0)
    G = GkmGraph(1, 2, [(0, (-1,)), (1, (0,)), (2, (1,))], [(0, 2)])
    assert not gkm.validate(G).passed
    for xi in [None, (1,)]:
        with pytest.raises(InvalidGraph):
            gkm.h_vector_graph(G, xi)


def test_h_vector_rejects_a_direction_of_the_wrong_length():
    # a shorter direction must not be paired with a prefix of each weight
    G = catalog.load("a2-flag")
    for xi in [(1,), (1, 2, 3)]:
        with pytest.raises(DimensionMismatch):
            gkm.h_vector_graph(G, xi)


def test_build_and_corollary_make_no_reference_cycles():
    # cli.main turns the cyclic collector off for a command on this premise:
    # with it off, nothing the build and the checks leave needs it
    gc.collect()
    was = gc.isenabled()
    gc.disable()
    try:
        G = roots.coadjoint_graph(roots.build("D", 5), ())
        assert gkm.verify_graph_corollary(G).passed
        del G
    finally:
        if was:
            gc.enable()
    assert gc.collect() == 0


class _CountedEdges(list):
    """An edge list that counts the passes over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("make", [
    lambda: roots.coadjoint_graph(roots.build("B", 3), ()),
    lambda: cube(3).skeleton(),
], ids=["orbit", "skeleton"])
def test_pairing_is_one_pass_over_the_edges(make):
    # the degrees, the GKM verdict, the weight sums and the in-degrees all
    # come out of the one edge loop of _Pairing.__init__
    G = make()
    G.edge_list = edges = _CountedEdges(G.edge_list)
    p = gkm._Pairing(G)
    assert p.degrees == [G.degree] * len(G.ids) and all(p.independent)
    p.sums, p.indegrees(0)
    assert edges.passes == 1


def test_gkm_ok_is_validate_verdict():
    bad_degree = GkmGraph(1, 2, [(0, (0,)), (1, (1,))], [(0, 1)])
    parallel = GkmGraph(2, 2, [(0, (0, 0)), (1, (1, 0)), (2, (3, 0)), (3, (1, 1))],
                        [(0, 1), (1, 2), (2, 3), (3, 0)])
    # the kept pairing passes its degrees and GKM verdict exactly when
    # `validate` does
    for G in [square_skeleton(), catalog.load("b2-flag"), bad_degree, parallel]:
        p = G._pairing
        assert (all(p.independent) and p.degrees == [G.degree] * len(G.ids)) is gkm.validate(G).passed
    assert bad_degree._pairing.degrees == [1, 1]
    assert not all(parallel._pairing.independent)
    for G in [bad_degree, parallel]:
        with pytest.raises(InvalidGraph):
            gkm.gorenstein_index(G)


@st.composite
def small_graphs(draw):
    """Embedded graphs on 2-8 vertices in dimension 1-3, on points of a
    small box, so that parallel, opposite and repeated weights at a vertex
    are common.  The edges are a cycle, a matching or any set of pairs,
    each in either orientation; the ids are shuffled, some vertices may be
    isolated, and the degree is that of the first vertex or any other."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    points = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=n, max_size=n, unique=True))
    ids = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["cycle", "matching", "any"]))
    if shape == "cycle":
        pairs = [(i, (i + 1) % n) for i in range(n if n > 2 else 1)]
    elif shape == "matching":
        pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
    else:
        pairs = draw(st.lists(st.sampled_from([(u, v) for u in range(n) for v in range(u + 1, n)]),
                              unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(ids[v], ids[u]) if f else (ids[u], ids[v]) for (u, v), f in zip(pairs, flips)]
    first = sum(ids[0] in e for e in edges)
    degree = draw(st.one_of(st.just(first), st.integers(0, n)))
    return GkmGraph(d, degree, zip(ids, points), edges)


def _validate_by_stars(G):
    """The GKM report by the rule of distinct +-w: k primitive weights at a
    vertex are pairwise independent iff the 2k weights +-w are distinct."""
    rep = VerificationReport("gkm-valid", True)
    for vid in G.ids:
        ws = gkm.star(G, vid)[1]
        indep = len({*ws, *(tuple(-c for c in w) for w in ws)}) == 2 * len(ws)
        rep.add_item(f"degree {vid}", len(ws) == G.degree, {"degree": len(ws), "expected": G.degree})
        rep.add_item(f"gkm-condition {vid}", indep, {"weights": [list(w) for w in ws]})
    return rep


@given(small_graphs())
def test_validate_matches_the_distinct_plus_minus_w_rule(G):
    rep = gkm.validate(G)
    assert rep == _validate_by_stars(G)
    if rep.passed:
        sums = gkm._valid_sums(G)
        assert sums == [tuple(map(sum, zip(*gkm.star(G, vid)[1]))) or (0,) * G.ambient_dim
                        for vid in G.ids]
    else:
        with pytest.raises(InvalidGraph, match="graph fails GKM validation"):
            gkm._valid_sums(G)


# Graphs that each reader refuses or passes, with the outcome each reader
# gave before the readers shared one pairing pass: the exception's type
# and message, a report's verdict, or the value.  The readers, column by
# column: verify_graph_corollary, gorenstein_index, is_reflexive_graph,
# h_vector_graph, then h_vector_graph under the zero direction, which
# vanishes on every weight, and under a direction one too long,
# first_census (None where the graph is not regular: the census is not
# defined there), and generic_direction.
SQUARE = [(0, (-1, -1)), (1, (1, -1)), (2, (1, 1)), (3, (-1, 1))]
TOO_LONG = (DimensionMismatch, "direction of length 3 in ambient dimension 2")
VANISHES = (NonGenericDirection, "direction (0, 0) vanishes on an edge weight")
FAILURE_PATHS = {
    "missing-edge": (
        lambda: GkmGraph(2, 2, SQUARE, [(0, 1), (1, 2), (2, 3)]),
        [(InvalidGraph, "graph fails GKM validation")] * 3
        + [(InvalidGraph, "vertex 0 has 1 edges, not 2")] * 3 + [None, (1, 2)]),
    "parallel-weights": (
        lambda: GkmGraph(2, 2, [(0, (0, 0)), (1, (1, 0)), (2, (3, 0)), (3, (1, 1))],
                         [(0, 1), (1, 2), (2, 3), (3, 0)]),
        [(InvalidGraph, "graph fails GKM validation")] * 3
        + [(1, 2, 1), VANISHES, TOO_LONG, (1, 2, 1), (1, 3)]),
    "non-parallel-sum": (
        lambda: GkmGraph(2, 2, [(0, (-1, Fraction(-1, 2))), (1, (1, Fraction(-1, 2))),
                                (2, (1, Fraction(3, 2))), (3, (-1, Fraction(3, 2)))],
                         [(0, 1), (1, 2), (2, 3), (3, 0)]),
        [(InconsistentIndex, "weight sum at 0 is not parallel to the vertex")] * 2
        + [False, (1, 2, 1), VANISHES, TOO_LONG, (1, 2, 1), (1, 2)]),
    "disagreeing-indices": (
        lambda: GkmGraph(1, 1, [(0, (-1,)), (1, (2,))], [(0, 1)]),
        [(InconsistentIndex, "index 1/2 at 1 disagrees with 1")] * 2
        + [False, (1, 1), (NonGenericDirection, "direction (0,) vanishes on an edge weight"),
           (DimensionMismatch, "direction of length 2 in ambient dimension 1"), (1, 1), (1,)]),
    # (1, 2) vanishes on the repeated side (2, -1): the census drops it
    "vanishing-repeat": (
        lambda: GkmGraph(2, 2, [(0, (0, 0)), (1, (2, -1)), (2, (0, 1)), (3, (2, 0))],
                         [(0, 1), (0, 2), (1, 3), (2, 3)]),
        [(InvalidGraph, "vertex at the origin has no well-defined index")] * 2
        + [False, (1, 2, 1), VANISHES, TOO_LONG, (1, 2, 1), (1, 3)]),
    "vanishing-repeat-centred": (
        lambda: GkmGraph(2, 2, [(0, (-1, 0)), (1, (1, -1)), (2, (-1, 1)), (3, (1, 0))],
                         [(0, 1), (0, 2), (1, 3), (2, 3)]),
        [True, 2, False, (1, 2, 1), VANISHES, TOO_LONG, (1, 2, 1), (1, 3)]),
    "edgeless": (
        lambda: GkmGraph(2, 0, [(0, (1, 0)), (1, (-1, 0))], []),
        [(NonPositiveIndex, "computed index 0")] * 2
        + [False, (2,), (2,), TOO_LONG, (2,), (1, 2)]),
    # vertex 0 gives r = 0; the origin after it has the zero weight sum,
    # which is -r times it for any r, so it is refused apart
    "origin-after-first": (
        lambda: GkmGraph(2, 0, [(0, (1, 0)), (1, (0, 0))], []),
        [(InvalidGraph, "vertex at the origin has no well-defined index")] * 2
        + [False, (2,), (2,), TOO_LONG, (2,), (1, 2)]),
    "degree-too-large": (
        lambda: GkmGraph(1, 2, [(0, (-1,)), (1, (1,))], [(0, 1)]),
        [(InvalidGraph, "graph fails GKM validation")] * 3
        + [(InvalidGraph, "degree 2 is more than 2 vertices allow")] * 3 + [None, (1,)]),
}


def _result(reader, G):
    try:
        got = reader(G)
    except DelzantError as e:
        return type(e), str(e)
    return got.passed if isinstance(got, VerificationReport) else got


@pytest.mark.parametrize("name", list(FAILURE_PATHS))
def test_readers_keep_their_failure_paths(name):
    make, want = FAILURE_PATHS[name]
    d = make().ambient_dim
    readers = [gkm.verify_graph_corollary, gkm.gorenstein_index, gkm.is_reflexive_graph,
               gkm.h_vector_graph, lambda G: gkm.h_vector_graph(G, (0,) * d),
               lambda G: gkm.h_vector_graph(G, (1,) * (d + 1)), gkm.first_census,
               gkm.generic_direction]
    assert len(want) == len(readers)
    shared = make()
    for reader, expected in zip(readers, want):
        if expected is None:
            continue
        # the pairing made by this reader, and kept from the readers before it
        assert _result(reader, make()) == _result(reader, shared) == expected, reader


def test_an_edgeless_graph_has_zero_weight_sums():
    G = GkmGraph(2, 0, [(0, (1, 0)), (1, (-1, 0))], [])
    with pytest.raises(NonPositiveIndex):
        gkm.gorenstein_index(G)
    rep = gkm.is_reflexive_graph(G)
    sums = [i["detail"]["sum"] for i in rep.per_item if i["id"].startswith("weight-sum")]
    assert sums == [[0, 0], [0, 0]] and not rep.passed


def test_verify_graph_corollary():
    expected = {
        "a2-flag": 24,
        "a2-cp2": 9,
        "b2-flag": 56,
        "b2-i1": 24,
        "b2-i2": 24,
        "gr24-graph": 48,
        "octahedron-skeleton": 12,
    }
    for name, total in expected.items():
        G = catalog.load(name)
        rep = gkm.verify_graph_corollary(G)
        assert rep.passed and rep.lhs == total, name


def test_dimension_three_graphs_sum_24():
    for name in ["a2-flag", "b2-i1", "b2-i2"]:
        G = catalog.load(name)
        assert G.degree == 3 and G.sum_lengths() == 24, name
    assert reflexive.from_polytope(cube(3)).sum_lengths() == 24
    assert reflexive.from_polytope(simplex_cpn(3)).sum_lengths() == 24


def test_from_polytope_matches_main_theorem():
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        G = reflexive.from_polytope(P)
        assert gkm.is_reflexive_graph(G).passed
        rep_g = gkm.verify_graph_corollary(G)
        rep_p = reflexive.verify_main_theorem(P)
        assert rep_g.passed and rep_p.passed
        assert rep_g.lhs == rep_p.lhs, name


def test_direction_dependence_detected():
    # a non-convex 4-cycle whose in-degree census changes with the direction
    G = GkmGraph(
        2, 2,
        [(0, (0, 0)), (1, (5, 0)), (2, (0, 2)), (3, (5, 2))],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    assert gkm.h_vector_graph(G, xi=(1, 2)) != gkm.h_vector_graph(G, xi=(1, 3))
    with pytest.raises(DirectionDependent):
        gkm.h_vector_graph(G)


def test_rational_lengths_allowed():
    G = GkmGraph(
        1, 1,
        [(0, (Fraction(0),)), (1, (Fraction(1, 2),))],
        [(0, 1)],
    )
    assert G.length((0, 1)) == Fraction(1, 2)


@st.composite
def rational_graphs(draw):
    """Random graphs with integral, common-denominator or mixed-denominator
    coordinates, each edge a random pair of distinct points."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["integral", "common", "mixed"]))
    q = draw(st.integers(2, 12))

    def coord():
        if kind == "integral":
            return draw(st.integers(-9, 9))
        den = q if kind == "common" else draw(st.integers(1, 12))
        return Fraction(draw(st.integers(-30, 30)), den)

    n = draw(st.integers(2, 6))
    pts = list(dict.fromkeys(tuple(coord() for _ in range(d)) for _ in range(n)))
    if len(pts) < 2:
        pts.append(tuple(c + 1 for c in pts[0]))
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return GkmGraph(d, 1, list(enumerate(pts)), edges)


def _edge_oracle(G, u, v):
    """Weight and length of one edge from its own endpoints: clear the
    denominators of the difference, then divide by its content."""
    diff = [Fraction(b) - Fraction(a) for a, b in zip(G.coords[u], G.coords[v])]
    m = lcm(*(c.denominator for c in diff))
    ints = [int(c * m) for c in diff]
    g = oracle._content(ints)
    return tuple(c // g for c in ints), Fraction(g, m)


@given(rational_graphs())
def test_integer_core_matches_per_edge_oracle(G):
    total = 0
    for u, v in G.edges():
        w, length = _edge_oracle(G, u, v)
        assert G.weight((u, v)) == w
        assert G.weight((u, v), tail=v) == tuple(-c for c in w)
        assert G.length((u, v)) == G.length((v, u)) == length
        assert isinstance(G.length((u, v)), int) == (length.denominator == 1)
        total += length
    assert G.sum_lengths() == total


@given(st.sampled_from(catalog.names("gkm-graph")), st.integers(1, 7))
def test_scaling_coordinates_scales_index_and_lengths(name, k):
    G = catalog.load(name)
    H = GkmGraph(
        G.ambient_dim, G.degree,
        [(v, tuple(Fraction(c, k) for c in G.coords[v])) for v in G.ids],
        G.edges(),
    )
    r = gkm.gorenstein_index(H)
    assert r == k * gkm.gorenstein_index(G)
    # the weight sum is -v at every vertex exactly when the index is 1
    rep = gkm.is_reflexive_graph(H)
    assert all(i["pass"] for i in rep.per_item if i["id"].startswith("weight-sum")) == (r == 1)
    for e in G.edges():
        assert H.weight(e) == G.weight(e)
        assert H.length(e) == Fraction(G.length(e), k)


# The candidate directions are (1, b, b^2, ...) for these primes b, then
# (1, B, B^2, ...) for B = 2m + 1, m the largest absolute coordinate of a
# primitive edge direction.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _directions(G):
    m = 0
    for u, v in G.edges():
        d = [Fraction(b) - Fraction(a) for a, b in zip(G.coords[u], G.coords[v])]
        q = lcm(*(c.denominator for c in d))
        ints = [int(c * q) for c in d]
        m = max(m, *(abs(c) // gcd(*ints) for c in ints))
    n = G.ambient_dim
    return dict.fromkeys([*(tuple(b**i for i in range(n)) for b in PRIMES),
                          tuple((2 * m + 1) ** i for i in range(n))])


def _in_degrees_by_vertex(G, xi):
    """The in-degree of each vertex, vertex by vertex, from the coordinates:
    the number of its neighbours that xi puts lower."""
    height = {v: sum(Fraction(c) * x for c, x in zip(G.coords[v], xi)) for v in G.ids}
    indeg = {}
    for v in G.ids:
        nbrs = [b if a == v else a for a, b in G.edges() if v in (a, b)]
        if any(height[u] == height[v] for u in nbrs):
            raise NonGenericDirection(f"{xi} is constant on an edge at {v}")
        indeg[v] = sum(height[u] < height[v] for u in nbrs)
    return indeg


def _census_by_vertex(G, xi):
    h = [0] * (G.degree + 1)
    for k in _in_degrees_by_vertex(G, xi).values():
        h[k] += 1
    return tuple(h)


def _h_vector_oracle(G, xi=None):
    if any(sum(v in e for e in G.edges()) != G.degree for v in G.ids):
        raise InvalidGraph("not regular")
    if xi is not None:
        return _census_by_vertex(G, xi)
    results = []
    for d in _directions(G):
        try:
            results.append(_census_by_vertex(G, d))
        except NonGenericDirection:
            continue
        if len(results) == 3:
            break
    if not results:
        raise NonGenericDirection("no candidate is generic")
    if len(set(results)) != 1:
        raise DirectionDependent(str(results))
    return results[0]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidGraph, NonGenericDirection, DirectionDependent) as e:
        return type(e)


@given(rational_graphs(), st.data())
def test_census_matches_per_vertex_oracle(G, data):
    # as drawn (degree 1), and with the degree of the first vertex, which
    # makes a regular graph likelier
    k = len(G.incident(G.ids[0]))
    for H in [G, GkmGraph(G.ambient_dim, k, G.coords.items(), G.edges())]:
        assert _outcome(gkm.h_vector_graph, H) == _outcome(_h_vector_oracle, H)
        xi = data.draw(st.tuples(*[st.integers(-3, 3)] * H.ambient_dim))
        assert _outcome(gkm.h_vector_graph, H, xi) == _outcome(_h_vector_oracle, H, xi)
        # a regular census is often palindromic, so compare the in-degrees
        # themselves too: they tell the head of an edge from its tail.  The
        # height scan gives them under xi, the kept pairing under each of
        # its directions
        below = gkm._height_scan(H, xi)
        got = NonGenericDirection if below is None else below
        assert got == _outcome(_in_degrees_by_vertex, H, xi)
        p = H._pairing
        for c, d in enumerate(p.xis):
            assert dict(zip(H.ids, p.indegrees(c))) == _in_degrees_by_vertex(H, d), d


def test_census_matches_per_vertex_oracle_on_catalog():
    outcomes = set()
    for name in catalog.names():
        obj = catalog.load(name)
        G = obj if isinstance(obj, GkmGraph) else obj.skeleton()
        d = G.ambient_dim
        for xi in [None, (1,) + (0,) * (d - 1), tuple(range(1, d + 1)),
                   *(tuple(b**i for i in range(d)) for b in PRIMES[:4])]:
            got = _outcome(gkm.h_vector_graph, G, xi)
            assert got == _outcome(_h_vector_oracle, G, xi), (name, xi)
            outcomes.add(got if isinstance(got, type) else tuple)
    assert outcomes == {tuple, InvalidGraph, NonGenericDirection}


def _star_census(G, xi):
    """The census under xi from each vertex's star: its in-degree is the
    number of weights leaving it that pair negatively with xi."""
    h = [0] * (G.degree + 1)
    for v in G.ids:
        pairs = [sum(a * b for a, b in zip(G.weight(e, tail=v), xi)) for e in G.incident(v)]
        if 0 in pairs:
            raise NonGenericDirection(f"{xi} vanishes on a weight at {v}")
        h[sum(p < 0 for p in pairs)] += 1
    return tuple(h)


def _h_vector_by_stars(G, xi=None):
    if any(len(G.incident(v)) != G.degree for v in G.ids):
        raise InvalidGraph("not regular")
    if xi is not None:
        return _star_census(G, xi)
    results = []
    for d in _directions(G):
        try:
            results.append(_star_census(G, d))
        except NonGenericDirection:
            continue
        if len(results) == 3:
            break
    if not results:
        raise NonGenericDirection("no candidate is generic")
    if len(set(results)) != 1:
        raise DirectionDependent(str(results))
    return results[0]


def _census_cases():
    for name in catalog.names("gkm-graph"):
        yield name, lambda name=name: catalog.load(name)
    for kind, rank, I in weyl_corpus.WEYL:
        yield f"{kind}{rank}-I{''.join(map(str, I))}", (
            lambda kind=kind, rank=rank, I=I: roots.coadjoint_graph(roots.build(kind, rank), I))


@pytest.mark.parametrize("make", [m for _, m in _census_cases()],
                         ids=[n for n, _ in _census_cases()])
def test_census_matches_star_oracle(make):
    G = make()
    d = G.ambient_dim
    for xi in [None, (1,) + (0,) * (d - 1), tuple(range(1, d + 1)),
               *(tuple(b**i for i in range(d)) for b in PRIMES[:4])]:
        assert _outcome(gkm.h_vector_graph, G, xi) == _outcome(_h_vector_by_stars, G, xi), xi


def _vanishes(G, xi):
    """Whether xi pairs to 0 with the difference of the ends of an edge,
    which is parallel to its weight."""
    return any(sum((Fraction(b) - Fraction(a)) * x
                   for a, b, x in zip(G.coords[u], G.coords[v], xi)) == 0
               for u, v in G.edges())


# A parallelogram whose sides (2, -1) pair to 0 with the first candidate
# (1, 2), once before the repeat of (0, 1) and once after it.
PARALLELOGRAM = [(0, (0, 0)), (1, (2, -1)), (2, (0, 1)), (3, (2, 0))]


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 2), (1, 3), (2, 3)],
    [(0, 2), (1, 3), (0, 1), (2, 3)],
    [(0, 2), (1, 3), (3, 2), (1, 0)],
])
def test_a_vanishing_weight_that_repeats_drops_the_candidate(edges):
    G = GkmGraph(2, 2, PARALLELOGRAM, edges)
    assert _vanishes(G, (1, 2)) and G._pairing.xis[0] == (1, 3)
    with pytest.raises(NonGenericDirection):
        gkm.h_vector_graph(G, (1, 2))
    assert gkm.generic_direction(G) == (1, 3)
    assert gkm.h_vector_graph(G) == (1, 2, 1) == _h_vector_oracle(G) == _h_vector_by_stars(G)


def test_a_cycle_on_which_every_prime_candidate_vanishes():
    # the sides (b, -1) for every candidate prime b, (2, -1) twice, and the
    # side that closes the cycle: only the last candidate, in balanced base
    # 2m + 1, is generic
    steps = [(2, -1), *((b, -1) for b in PRIMES), (2, -1)]
    pts = [(0, 0)]
    for x, y in steps:
        pts.append((pts[-1][0] + x, pts[-1][1] + y))
    n = len(pts)
    G = GkmGraph(2, 2, list(enumerate(pts)), [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    *primes, last = gkm._candidates(G)
    assert primes == [(1, b) for b in PRIMES] and last == list(_directions(G))[-1]
    for xi in primes:
        assert _vanishes(G, xi)
    assert G._pairing.xis == [last]
    assert gkm.generic_direction(G) == last
    h = gkm.h_vector_graph(G)
    assert h == _h_vector_oracle(G) == _h_vector_by_stars(G) == _census_by_vertex(G, last)


# The height scan against the per-vertex oracle: under any direction,
# whether it is generic and, where it is, each vertex's in-degree
# (h_vector_graph with a direction); and the first candidate not avoided
# that is generic by the oracle (generic_direction, first_census).  The
# kept pairing's in-degrees under each of its directions are checked too.

def _oracle_scan(G, xi):
    try:
        below = _in_degrees_by_vertex(G, xi)
    except NonGenericDirection:
        return None
    return [below[vid] for vid in G.ids]


def _height_scan(G, xi):
    below = gkm._height_scan(G, xi)
    return None if below is None else [below[vid] for vid in G.ids]


def _first_by_oracle(G, avoid=()):
    avoid = set(map(tuple, avoid))
    for xi in _directions(G):
        if xi not in avoid and _oracle_scan(G, xi) is not None:
            return xi
    return NonGenericDirection


def _assert_height_scan_is_the_pairing(G, avoid=(), xi=None):
    if xi is not None:
        assert _height_scan(G, xi) == _oracle_scan(G, xi)
    p = G._pairing
    for c, d in enumerate(p.xis):
        assert p.indegrees(c) == _height_scan(G, d) == _oracle_scan(G, d), d
    want = _first_by_oracle(G, avoid)
    if want is NonGenericDirection:
        with pytest.raises(NonGenericDirection):
            gkm.generic_direction(G, avoid)
        return
    assert gkm.generic_direction(G, avoid) == want
    below = _oracle_scan(G, want)
    assert _height_scan(G, want) == below
    if not avoid and max(below, default=0) <= G.degree:
        assert gkm.first_census(G) == _census_by_vertex(G, want)


_LABELS = {
    "str": lambda vid: f"v{vid}",
    "tuple": lambda vid: (vid, "v"),
    "fraction": lambda vid: Fraction(2 * vid + 1, 7),
}


def _relabelled(G, label):
    return GkmGraph(G.ambient_dim, G.degree, [(label(v), G.coords[v]) for v in G.ids],
                    [(label(u), label(v)) for u, v in G.edge_list])


def _read_back(G):
    return serialize.graph_from_json(json.loads(json.dumps(serialize.graph_to_json(G))))


def _avoided(G, data):
    """Some of G's first candidates, each as a tuple or a list."""
    some = data.draw(st.lists(st.sampled_from(list(gkm._candidates(G))), max_size=4))
    return [list(xi) if data.draw(st.booleans()) else xi for xi in some]


@given(st.one_of(small_graphs(), rational_graphs()), st.sampled_from(sorted(_LABELS)), st.data())
def test_height_scan_matches_the_pairing(G, label, data):
    # on ids that are not ints, and on the graph as read back from its JSON
    H = _relabelled(G, _LABELS[label])
    xi = data.draw(st.tuples(*[st.integers(-3, 3)] * G.ambient_dim))
    for K in [G, H, _read_back(_relabelled(G, _LABELS["str"]))]:
        _assert_height_scan_is_the_pairing(K, xi=xi)
        _assert_height_scan_is_the_pairing(K, _avoided(K, data))


@given(st.one_of(small_graphs(), rational_graphs()))
def test_derived_index_column_and_its_pairing(G):
    # the distinct weights in order of first appearance, and each edge's
    # place among them; weights repeat across the edges of these graphs
    table, ids = G._weight_index
    assert table == list(dict.fromkeys(G._weight_col))
    assert [table[i] for i in ids] == G._weight_col
    # the graph read back from its JSON derives the same column, and its
    # kept pairing gives the same directions and per-vertex values
    R = _read_back(G)
    assert R._weight_index == (table, ids)
    p, r = G._pairing, R._pairing
    assert (p.xis, p.degrees, p.sums, p.independent) == (r.xis, r.degrees, r.sums, r.independent)
    assert all(p.indegrees(c) == r.indegrees(c) for c in range(len(p.xis)))


@pytest.mark.parametrize("kind, rank, I", weyl_corpus.WEYL)
def test_height_scan_matches_the_pairing_on_orbits(kind, rank, I):
    # the orbit graphs are made from edge tables that vouch for the weights
    G = roots.coadjoint_graph(roots.build(kind, rank), I)
    first = next(gkm._candidates(G))
    for avoid in [(), [first], [list(first)]]:
        _assert_height_scan_is_the_pairing(G, avoid)
    for xi in [(0,) * G.ambient_dim, (1,) + (0,) * (G.ambient_dim - 1), first]:
        _assert_height_scan_is_the_pairing(G, xi=xi)


def test_height_scan_matches_the_pairing_on_the_39_gon():
    # the lattice 39-gon with the sides (k, -1) for k = 2..37: every prime
    # candidate vanishes on a side, so the only generic one is the last
    steps = [((k, -1), 1) for k in range(2, 38)] + [((1, 0), 1), ((0, 1), 36)]
    pts = [(0, 0)]
    for (dx, dy), n in steps:
        pts.append((pts[-1][0] + dx * n, pts[-1][1] + dy * n))
    P = Polytope.from_vertices(pts)
    G = P.skeleton()
    *primes, last = gkm._candidates(G)
    assert len(P.vertices) == 39 and all(_vanishes(G, xi) for xi in primes)
    assert G._pairing.xis == [last]
    assert gkm.generic_direction(G) == last
    for avoid in [(), primes, [last]]:
        _assert_height_scan_is_the_pairing(G, avoid)
    for xi in primes:
        _assert_height_scan_is_the_pairing(G, xi=xi)
    assert P.h_vector_directed() == (1, 37, 1)
