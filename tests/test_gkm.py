from fractions import Fraction

import pytest

from delzant import catalog, gkm, reflexive
from delzant.errors import (
    DirectionDependent,
    InvalidGraph,
    NonGenericDirection,
)
from delzant.gkm import GkmGraph
from delzant.polytope import Polytope, cube, simplex_cpn


def square_skeleton():
    return gkm.from_polytope(cube(2))


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
    G = GkmGraph(
        2, 2,
        [(0, (0, 0)), (1, (1, 0)), (2, (3, 0)), (3, (1, 1))],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    rep = gkm.validate(G)
    bad = [i for i in rep.per_item if not i["pass"]]
    assert any("gkm-condition" in i["id"] for i in bad)


def test_degree_regularity_edge_count():
    for name in catalog.names("gkm-graph"):
        G = catalog.load(name)
        assert 2 * len(G.edges()) == G.degree * len(G.ids), name


def test_duplicate_edge_rejected():
    with pytest.raises(InvalidGraph):
        GkmGraph(1, 1, [(0, (0,)), (1, (1,))], [(0, 1), (1, 0)])


def test_is_reflexive_graph():
    for name in ["a2-flag", "a2-cp2", "b2-flag", "gr24-graph"]:
        assert gkm.is_reflexive_graph(catalog.load(name)).passed, name
    assert gkm.is_reflexive_graph(square_skeleton()).passed
    assert not gkm.is_reflexive_graph(catalog.load("octahedron-skeleton")).passed


def test_gorenstein_index():
    cert = gkm.gorenstein_index(catalog.load("octahedron-skeleton"))
    assert cert.r == 4 and cert.valid
    for name in ["a2-flag", "b2-flag", "gr24-graph"]:
        cert = gkm.gorenstein_index(catalog.load(name))
        assert cert.r == 1 and cert.valid, name


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
        G = gkm.from_polytope(P)
        assert gkm.h_vector_graph(G) == P.h_vector_comb(), name


def test_h_vector_of_a_segment():
    # one generic direction exists in dimension 1, and it is enough
    G = gkm.from_polytope(Polytope.from_vertices([(-1,), (1,)]))
    assert gkm.h_vector_graph(G) == (1, 1)


def test_polytope_skeleton_is_the_graph():
    for name in ["hexagon", "cube", "octahedron", "diamond"]:
        P = catalog.load(name)
        S = P.skeleton()
        assert S.edges() == P.edges(), name
        for v in S.ids:
            assert S.incident(v) == [e for e in S.edge_list if v in e], name
            assert P.vertex_weights(v) == [S.weight(e, tail=v) for e in S.incident(v)], name


def test_h_vector_rejects_non_generic_direction():
    with pytest.raises(NonGenericDirection):
        gkm.h_vector_graph(square_skeleton(), xi=(1, 0))


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
    assert gkm.from_polytope(cube(3)).sum_lengths() == 24
    assert gkm.from_polytope(simplex_cpn(3)).sum_lengths() == 24


def test_from_polytope_matches_main_theorem():
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        G = gkm.from_polytope(P)
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
