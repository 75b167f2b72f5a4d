"""Acceptance suite: twelve exact criteria, one printed line each.

Every comparison is exact; there are no tolerances anywhere.
"""

import random

from delzant import bounds, catalog, gkm, oracle, reflexive, roots
from delzant.polytope import cube, simplex_cpn

SMOOTH_POLYGONS = ["cp2-triangle", "square", "blowup1", "blowup2", "hexagon"]
DELZANT_REFLEXIVE = SMOOTH_POLYGONS + ["cube", "cp3-simplex", "hypercube4"]
EQUAL_LENGTH_ENTRIES = [
    "square", "cube", "cp2-triangle", "cp3-simplex", "hexagon", "hypercube4",
]


def _report(num, label, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_1_twelve():
    ok = True
    for name in SMOOTH_POLYGONS:
        P = catalog.load(name)
        ok = ok and sum(P.relative_lengths()) + P.f_vector()[0] == 12
    D = catalog.load("diamond")
    ok = ok and sum(D.relative_lengths()) == 4
    ok = ok and sum(D.dual().relative_lengths()) == 8
    ok = ok and reflexive.verify_12_24(D).passed
    _report(1, "twelve theorem on the smooth polygons and the diamond", ok)


def test_criterion_2_twenty_four():
    ok = True
    for name in ["cube", "cp3-simplex"]:
        P = catalog.load(name)
        ok = ok and sum(P.relative_lengths()) == 24
        rep = reflexive.verify_12_24(P)
        ok = ok and rep.passed and rep.lhs == 24
    rep = reflexive.verify_12_24(catalog.load("octahedron"))
    ok = ok and rep.passed and rep.lhs == 24
    _report(2, "twenty-four theorem on cube, simplex and octahedron", ok)


def test_criterion_3_main_theorem_n4():
    P = cube(4)
    f = P.f_vector()
    h = P.h_vector_comb()
    total = sum(P.relative_lengths())
    ok = (
        total == 64
        and h == (1, 4, 6, 4, 1)
        and total == 12 * f[2] + (5 - 12) * f[1]
        and total == bounds.c_from_h(4, h)
    )
    _report(3, "main theorem on [-1,1]^4: 64 three ways", ok)


def test_criterion_4_normal_contributions():
    ok = True
    for name in DELZANT_REFLEXIVE + ["rect", "unit-square", "std-simplex"]:
        ok = ok and reflexive.verify_thm_combinatorics2(catalog.load(name)).passed
    for name in DELZANT_REFLEXIVE:
        ok = ok and reflexive.verify_length_decomposition(catalog.load(name)).passed
    _report(4, "normal-contribution identity and per-edge decomposition", ok)


def test_criterion_5_h_vector_triple():
    ok = True
    for name in DELZANT_REFLEXIVE + ["rect", "unit-square", "std-simplex", "diamond"]:
        P = catalog.load(name)
        comb = P.h_vector_comb()
        used = []
        for _ in range(3):
            xi = P.generic_direction(avoid=tuple(used))
            used.append(xi)
            ok = ok and P.h_vector_directed(xi) == comb
        ok = ok and len(set(used)) == 3
    _report(5, "h-vector agreement over three generic directions", ok)


def test_criterion_6_table_1():
    expected = {
        (2, 1): (8, (-2,)), (2, 2): (6, (-3,)), (2, 3): (4, (-4,)),
        (3, 1): (21, (-3,)), (3, 2): (18, (-6,)), (3, 3): (15, (-9,)),
        (3, 4): (12, (-12,)),
        (4, 1): (40, (4, -4)), (4, 2): (36, (0, -6)), (4, 3): (32, (-4, -8)),
        (4, 4): (28, (-8, -10)), (4, 5): (24, (-12, -12)),
        (5, 1): (65, (17, -7)), (5, 2): (60, (12, -12)), (5, 3): (55, (7, -17)),
        (5, 4): (50, (2, -22)), (5, 5): (45, (-3, -27)), (5, 6): (40, (-8, -32)),
    }
    table = bounds.table_c(range(2, 6), range(1, 7))
    ok = table == expected and len(table) == 18
    _report(6, "table of C coefficients: all 18 cells reproduced", ok)


def test_criterion_7_table_2():
    expected = {
        (2, 1): [(1,), (2,), (3,), (4,)],
        (2, 2): [(2,)],
        (2, 3): [(1,)],
        (3, 1): [(b,) for b in range(1, 8)],
        (3, 2): [(1,), (2,), (3,)],
        (3, 3): [(1,)],
        (3, 4): [(1,)],
        (4, 3): [(1, 2), (2, 3), (3, 1), (4, 2), (6, 1)],
        (4, 4): [(1, 2)],
        (4, 5): [(1, 1)],
        (5, 5): [(1, 1), (6, 1)],
        (5, 6): [(1, 1)],
    }
    ok = True
    for (n, k0), want in expected.items():
        res = bounds.enumerate_admissible(n, k0, require_unimodal=True)
        ok = ok and res.complete and res.half_vectors == sorted(want)
    _report(7, "admissible Betti vectors: all populated cells reproduced", ok)


def test_criterion_8_coadjoint_graphs():
    ok = True
    cases = [
        ("A", 2, (), 24, (1, 2, 2, 1)),
        ("A", 2, (1,), 9, (1, 1, 1)),
        ("A", 3, (0, 2), 48, (1, 1, 2, 1, 1)),
        ("B", 2, (), 56, (1, 2, 2, 2, 1)),
        ("B", 2, (0,), 24, (1, 1, 1, 1)),
        ("B", 2, (1,), 24, (1, 1, 1, 1)),
    ]
    for kind, rank, I, total, h in cases:
        rs = roots.build(kind, rank)
        G = roots.coadjoint_graph(rs, I)
        ok = ok and gkm.is_reflexive_graph(G).passed
        ok = ok and G.sum_lengths() == total
        ok = ok and gkm.h_vector_graph(G) == h
        ok = ok and G.sum_lengths() == bounds.c_from_h(G.degree, h)
        orbit = roots.weyl_orbit(rs, roots.base_point(rs, I))
        ok = ok and len(orbit) * roots.parabolic_order(rs, I) == roots.weyl_order(rs)
    # CP^2 as an n=2 graph: sum l + |V| = 12 through C(2, (1,1,1)) = 9
    G = roots.coadjoint_graph(roots.build("A", 2), (1,))
    ok = ok and bounds.c_from_h(2, (1, 1, 1)) == 9
    ok = ok and G.sum_lengths() + len(G.ids) == 12
    # octahedral graph: all 12 lengths equal 4
    G = roots.coadjoint_graph(roots.build("A", 3), (0, 2))
    ok = ok and sorted(G.length(e) for e in G.edges()) == [4] * 12
    _report(8, "coadjoint orbit graphs: lengths, h-vectors, orbit sizes", ok)


def test_criterion_9_gorenstein_graph():
    G = catalog.load("octahedron-skeleton")
    r = gkm.gorenstein_index(G)
    rep = gkm.verify_graph_corollary(G)
    ok = (
        r == 4
        and G.sum_lengths() == 12
        and bounds.c_from_h(4, (1, 1, 2, 1, 1)) == 48
        and rep.passed
    )
    _report(9, "octahedron skeleton: index 4 and length sum 48/4", ok)


def test_criterion_10_oracles():
    ok = True
    for name in catalog.names("polytope"):
        P = catalog.load(name)
        ok = ok and oracle.brute_f_vector(P) == P.f_vector()
        for e in P.edges():
            c = oracle.lattice_points_on_segment(P.vertices[e[0]], P.vertices[e[1]])
            ok = ok and c - 1 == P.relative_length(e)
    for name in SMOOTH_POLYGONS + ["cube", "cp3-simplex"]:
        ok = ok and oracle.dual_edge_lengths_check(catalog.load(name)).passed
    rng = random.Random(12)
    small = [n for n in catalog.names("polytope") if n != "hypercube4"]
    for _ in range(100):
        P = catalog.load(rng.choice(small))
        Q = P.dilate(rng.randint(1, 3)).translate(
            tuple(rng.randint(-3, 3) for _ in range(P.dim))
        )
        ok = ok and oracle.brute_f_vector(Q) == Q.f_vector()
        for e in Q.edges():
            c = oracle.lattice_points_on_segment(Q.vertices[e[0]], Q.vertices[e[1]])
            ok = ok and c - 1 == Q.relative_length(e)
    _report(10, "oracle equivalence on catalog plus 100 random transforms", ok)


def test_criterion_11_index_bounds():
    ok = True
    for name in DELZANT_REFLEXIVE:
        P = catalog.load(name)
        k0 = reflexive.index_k0(P)
        ok = ok and 1 <= k0 <= P.dim + 1
        c = bounds.c_indexed_from_f(k0, P.dim, P.f_vector())
        ok = ok and c >= 0 and c % k0 == 0
        ok = ok and reflexive.verify_index_corollary(P).passed
        ok = ok and (c == 0) == (name in EQUAL_LENGTH_ENTRIES)
    _report(11, "index bounds: range, sign, divisibility, zero cases", ok)


def test_criterion_12_roundtrip_reconstruction():
    ok = True
    for name in DELZANT_REFLEXIVE + ["octahedron", "diamond"]:
        P = catalog.load(name)
        ok = ok and P.dual().dual() == P
    for name in DELZANT_REFLEXIVE:
        P = catalog.load(name)
        cones = {i: P.vertex_weights(i) for i in range(len(P.vertices))}
        ok = ok and reflexive.reconstruct_from_cones(cones) == P
    _report(12, "dual involution and cone reconstruction", ok)
