import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from delzant import catalog, cli, gkm, reflexive, roots, serialize
from delzant.errors import DelzantError, NotARoot, UnsupportedType
from delzant.polytope import Polytope, cross_polytope, cube

import weyl_corpus
from test_oracle import COORD, point_sets, unimodular


def test_positive_root_counts():
    assert len(roots.build("A", 2).positive_roots) == 3
    assert len(roots.build("B", 2).positive_roots) == 4
    assert len(roots.build("A", 3).positive_roots) == 6
    assert len(roots.build("C", 3).positive_roots) == 9
    assert len(roots.build("D", 4).positive_roots) == 12
    assert len(roots.build("G2", 2).positive_roots) == 6
    for d in range(1, 7):
        assert len(roots.build("A", d).positive_roots) == d * (d + 1) // 2
    for d in range(2, 7):
        assert len(roots.build("B", d).positive_roots) == d * d
        assert len(roots.build("C", d).positive_roots) == d * d
    for d in range(3, 7):
        assert len(roots.build("D", d).positive_roots) == d * (d - 1)


def test_a2_positive_roots():
    rs = roots.build("A", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_nonnegative():
    for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = roots.build(kind, rank)
        assert all(all(c >= 0 for c in r) for r in rs.positive_roots)


def test_unsupported_types():
    with pytest.raises(UnsupportedType):
        roots.build("E", 6)
    with pytest.raises(UnsupportedType):
        roots.build("A", 7)
    with pytest.raises(UnsupportedType):
        roots.build("G", 3)


def test_builds_share_tables_but_not_attributes():
    a, b = roots.build("A", 3), roots.build("A", 3)
    assert a is not b and vars(a) == vars(b)
    a.positive_roots = a.positive_roots[:2]
    assert len(b.positive_roots) == len(roots.build("A", 3).positive_roots) == 6
    for _ in range(2):
        for kind, rank in [("E", 6), ("A", 7), ("G", 3), ("D", 2)]:
            with pytest.raises(UnsupportedType):
                roots.build(kind, rank)


def test_reflect_basics():
    rs = roots.build("A", 2)
    a, b = rs.simple_roots
    assert rs.reflect(a, a) == (-1, 0)
    assert rs.reflect(a, b) == (1, 1)
    rs3 = roots.build("A", 3)
    x = (1, 2, 1)  # orthogonal to alpha_1
    assert _fraction_form(rs3)(x, rs3.simple_roots[0]) == 0
    assert rs3.reflect(rs3.simple_roots[0], x) == x


def test_reflect_requires_root():
    rs = roots.build("A", 2)
    with pytest.raises(NotARoot):
        rs.reflect((2, 0), (1, 1))


def test_reflections_preserve_roots():
    for kind, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)]:
        rs = roots.build(kind, rank)
        allroots = set(rs.positive_roots) | {
            tuple(-c for c in r) for r in rs.positive_roots
        }
        for beta in rs.positive_roots:
            for r in allroots:
                assert tuple(rs.reflect(beta, r)) in allroots


def test_base_points():
    a2 = roots.build("A", 2)
    assert roots.base_point(a2, ()) == (-2, -2)
    assert roots.base_point(a2, (1,)) == (-2, -1)
    a3 = roots.build("A", 3)
    assert roots.base_point(a3, (0, 2)) == (-2, -4, -2)


def test_b2_base_point():
    b2 = roots.build("B", 2)
    # -(a1 + a2 + (a1+a2) + (a1+2a2)) = -(3, 4)
    assert roots.base_point(b2, ()) == (-3, -4)


def test_orbit_sizes():
    a2 = roots.build("A", 2)
    assert len(roots.weyl_orbit(a2, roots.base_point(a2, ()))) == 6
    assert len(roots.weyl_orbit(a2, roots.base_point(a2, (1,)))) == 3
    b2 = roots.build("B", 2)
    assert len(roots.weyl_orbit(b2, roots.base_point(b2, ()))) == 8


def test_orbit_stabilizer():
    cases = [
        ("A", 2, ()), ("A", 2, (0,)), ("A", 2, (1,)),
        ("A", 3, ()), ("A", 3, (0, 2)), ("A", 3, (1,)),
        ("B", 2, ()), ("B", 2, (0,)), ("B", 2, (1,)),
        ("B", 3, (0, 1)), ("C", 3, (1, 2)), ("D", 4, (0, 2, 3)),
        ("G", 2, ()), ("G", 2, (0,)),
    ]
    for kind, rank, I in cases:
        rs = roots.build(kind, rank)
        orbit = roots.weyl_orbit(rs, roots.base_point(rs, I))
        assert len(orbit) * roots.parabolic_order(rs, I) == roots.weyl_order(rs), (
            kind, rank, I,
        )


def test_weights_at_base_point():
    # derived weights at p0 are exactly the positive roots outside <I>
    for kind, rank, I in [("A", 2, ()), ("A", 3, (0, 2)), ("B", 2, ()), ("G", 2, ())]:
        rs = roots.build(kind, rank)
        G = roots.coadjoint_graph(rs, I)
        p0 = roots.base_point(rs, I)
        vid = next(i for i in G.ids if tuple(G.coords[i]) == tuple(Fraction(c) for c in p0))
        ws = {G.weight(e, tail=vid) for e in G.incident(vid)}
        span = set(roots.parabolic_span(rs, I))
        outside = {r for r in rs.positive_roots if r not in span}
        from delzant import exact

        expected = {exact.primitive(r)[0] for r in outside}
        assert ws == expected, (kind, rank, I)


def test_coadjoint_graphs_reflexive():
    for kind, rank, I in [
        ("A", 2, ()), ("A", 2, (1,)), ("A", 3, (0, 2)),
        ("B", 2, ()), ("B", 2, (0,)), ("B", 2, (1,)), ("G", 2, ()),
    ]:
        rs = roots.build(kind, rank)
        G = roots.coadjoint_graph(rs, I)
        assert gkm.validate(G).passed, (kind, rank, I)
        assert gkm.is_reflexive_graph(G).passed, (kind, rank, I)
        assert gkm.verify_graph_corollary(G).passed, (kind, rank, I)


@pytest.mark.parametrize("kind, rank, I", [
    ("A", 1, ()), ("A", 2, ()), ("A", 2, (0,)), ("A", 3, ()), ("A", 3, (1,)), ("A", 4, ()),
    ("A", 4, (0, 3)), ("A", 5, (1, 2, 3, 4)), ("A", 5, (0, 2, 4)),
    ("B", 2, ()), ("B", 2, (1,)), ("B", 3, ()), ("B", 3, (0,)), ("B", 4, (1, 2, 3)), ("B", 4, (0, 2)),
    ("C", 2, ()), ("C", 2, (0,)), ("C", 3, ()), ("C", 3, (2,)), ("C", 4, (0, 1, 2)), ("C", 4, (1, 3)),
    ("D", 4, ()), ("D", 4, (1,)), ("D", 4, (0, 2, 3)),
    ("G", 2, ()), ("G", 2, (0,)), ("G", 2, (1,)),
])
def test_coadjoint_edges_match_pairwise_scan(kind, rank, I):
    # p and q are joined when q = p - 2 (p, beta) / (beta, beta) beta for a
    # positive root beta, through the Fraction form
    rs = roots.build(kind, rank)
    form = _fraction_form(rs)
    G = roots.coadjoint_graph(rs, I)
    pts = [G.coords[v] for v in G.ids]
    images = [
        {tuple(a - 2 * form(p, b) / form(b, b) * c for a, c in zip(p, b))
         for b in rs.positive_roots}
        for p in pts
    ]
    expected = [(G.ids[i], G.ids[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
                if pts[j] in images[i]]
    assert G.edges() == expected


def test_gr24_graph_geometry():
    rs = roots.build("A", 3)
    G = roots.coadjoint_graph(rs, (0, 2))
    assert len(G.ids) == 6 and len(G.edges()) == 12 and G.degree == 4
    assert all(G.length(e) == 4 for e in G.edges())
    assert G.sum_lengths() == 48


@given(st.sampled_from([("A", 2), ("B", 2), ("A", 3), ("G", 2), ("B", 3), ("C", 3), ("D", 4)]),
       st.tuples(*[st.integers(-5, 5)] * 4))
def test_reflection_involution_and_isometry(case, point):
    kind, rank = case
    rs = roots.build(kind, rank)
    form = _fraction_form(rs)
    x = point[:rank]
    for beta in rs.positive_roots:
        y = rs.reflect(beta, x)
        assert tuple(rs.reflect(beta, y)) == tuple(x)
        assert form(y, y) == form(x, x)
        # s_beta(x) = x - 2 (x, beta) / (beta, beta) beta, through the form
        t = 2 * form(x, beta) / form(beta, beta)
        assert y == tuple(a - t * b for a, b in zip(x, beta))


# (alpha_i, alpha_i) for each simple root, long roots of square length 2.
SQUARED_LENGTHS = {
    "A": lambda d: [2] * d,
    "B": lambda d: [2] * (d - 1) + [1],
    "C": lambda d: [1] * (d - 1) + [2],
    "D": lambda d: [2] * d,
    "G": lambda d: [Fraction(2, 3), 2],
}
SYSTEMS = ([("A", d) for d in range(1, 7)] + [("B", d) for d in range(2, 7)]
           + [("C", d) for d in range(2, 7)] + [("D", d) for d in range(3, 7)] + [("G", 2)])


def _fraction_form(rs):
    """The invariant form from the Cartan matrix and the squared lengths:
    (alpha_i, alpha_j) = cartan[i][j] (alpha_j, alpha_j) / 2."""
    sq = SQUARED_LENGTHS[rs.kind](rs.rank)
    F = [[Fraction(rs.cartan[i][j]) * sq[j] / 2 for j in range(rs.rank)] for i in range(rs.rank)]
    assert all(F[i][j] == F[j][i] for i in range(rs.rank) for j in range(rs.rank))
    return lambda x, y: sum(x[i] * F[i][j] * y[j] for i in range(rs.rank) for j in range(rs.rank))


def _subsets(items):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def _degenerate(rs, form, I):
    """The Fraction sign test, which the theorem in ``roots._base`` says no
    system fails: p0 moved by a simple reflection in I, or not strictly
    negative against a positive root outside <I>."""
    outside = [r for r in rs.positive_roots if any(c for i, c in enumerate(r) if i not in I)]
    p0 = tuple(-sum(r[i] for r in outside) for i in range(rs.rank))
    moved = any(form(p0, rs.simple_roots[i]) != 0 for i in I)
    return p0, moved or any(form(p0, r) >= 0 for r in outside)


def _assert_base_point_matches(rs, form, I):
    p0, degenerate = _degenerate(rs, form, I)
    assert not degenerate, (rs.kind, rs.rank, I)
    assert roots.base_point(rs, I) == p0


@pytest.mark.parametrize("kind, rank", SYSTEMS)
def test_integer_form_matches_fraction_form(kind, rank):
    rs = roots.build(kind, rank)
    form = _fraction_form(rs)
    rng = random.Random(f"{kind}{rank}")
    points = rs.simple_roots + [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(4)]
    every = rs.positive_roots + [tuple(-c for c in r) for r in rs.positive_roots]
    for beta in every:
        bb = form(beta, beta)
        for x in points:
            t = 2 * form(x, beta) / bb
            assert rs.reflect(beta, x) == tuple(a - t * b for a, b in zip(x, beta)), (beta, x)
    for I in _subsets(range(rank)):
        _assert_base_point_matches(rs, form, I)


@pytest.mark.parametrize("kind, rank", SYSTEMS)
def test_coroot_table_matches_fraction_form(kind, rank):
    # both signs of every root: the table stores -c for -beta
    rs = roots.build(kind, rank)
    form = _fraction_form(rs)
    every = rs.positive_roots + [tuple(-c for c in r) for r in rs.positive_roots]
    assert set(rs._coroot) == set(every)
    for beta in every:
        bb = form(beta, beta)
        assert list(rs._coroot[beta]) == [2 * form(a, beta) / bb for a in rs.simple_roots], beta


# The weyl benchmark's orbits, and five full flags.
ORBITS = weyl_corpus.WEYL + [("A", 4, ()), ("B", 4, ()), ("C", 4, ()), ("D", 4, ()), ("A", 5, ())]


def _assert_same_graph(G, H):
    """G and H hold the same columns and the same adjacency, and read the
    same weight and length off each edge in both orientations."""
    assert G.ids == H.ids and G.coords == H.coords
    assert G.edge_list == H.edge_list
    assert G._weight_col == H._weight_col and G._length_col == H._length_col
    assert list(map(type, G._length_col)) == list(map(type, H._length_col))
    assert G._incident == H._incident
    for u, v in G.edge_list:
        for e in [(u, v), (v, u)]:
            assert G.weight(e) == H.weight(e) and G.length(e) == H.length(e), e
    assert G.lattice == H.lattice and G.q == H.q


def _pairing_output(p):
    """Everything a pairing gives: its directions, and per vertex the
    degree, the weight sum and the in-degree under each direction, with
    the GKM verdict."""
    return p.xis, p.degrees, p.sums, p.independent, [p.indegrees(c) for c in range(len(p.xis))]


@pytest.mark.parametrize("kind, rank, I", ORBITS)
def test_orbit_tables_match_the_general_constructor(kind, rank, I):
    # coadjoint_graph hands its weights and lengths to the graph; the
    # general constructor derives them again from the points
    G = roots.coadjoint_graph(roots.build(kind, rank), I)
    H = gkm.GkmGraph(rank, G.degree, list(G.coords.items()), G.edge_list)
    _assert_same_graph(G, H)
    # both give the same pairing, and it is the one the stars give: per
    # vertex the degree, the weight sum and the in-degree under each
    # direction, the number of weights leaving it that pair negatively
    p = G._pairing
    assert _pairing_output(p) == _pairing_output(H._pairing)
    stars = [gkm.star(H, vid)[1] for vid in H.ids]
    assert p.degrees == list(map(len, stars))
    assert p.sums == [tuple(map(sum, zip(*ws))) for ws in stars]
    assert all(p.independent) and all(len({max(w, tuple(-c for c in w)) for w in ws}) == len(ws)
                                      for ws in stars)
    assert p.xis == list(dict.fromkeys(tuple(b**i for i in range(rank)) for b in (2, 3, 5)))
    for c, xi in enumerate(p.xis):
        assert p.indegrees(c) == [sum(sum(a * x for a, x in zip(w, xi)) < 0 for w in ws)
                                  for ws in stars]
    assert gkm.h_vector_graph(G) == gkm.h_vector_graph(H)


@pytest.mark.parametrize("kind, rank, I", ORBITS)
def test_orbit_index_column_matches_the_derived_one(kind, rank, I):
    # coadjoint_graph hands the graph its weight-index column over the
    # positive roots; the graph read back from its JSON derives its own
    rs = roots.build(kind, rank)
    G = roots.coadjoint_graph(rs, I)
    table, ids = G._weight_index
    assert "_weight_col" not in vars(G) and table == rs.positive_roots
    R = serialize.graph_from_json(json.loads(json.dumps(serialize.graph_to_json(G))))
    # every root is the weight of an edge, and each edge's is the one its
    # ends give
    assert sorted(set(ids)) == list(range(len(table)))
    assert [table[i] for i in ids] == R._weight_col
    assert sorted(R._weight_index[0]) == table
    # the kept pairings agree: directions, degrees, weight sums, GKM
    # verdicts and in-degrees under each direction
    assert _pairing_output(G._pairing) == _pairing_output(R._pairing)


SKELETONS = {**{name: lambda name=name: catalog.load(name) for name in catalog.names("polytope")},
             **{f"cube-{n}": lambda n=n: cube(n) for n in range(1, 6)},
             **{f"cross-{n}": lambda n=n: cross_polytope(n) for n in range(1, 6)},
             "hexagon-third": lambda: catalog.load("hexagon").dilate(Fraction(1, 3)),
             "hexagon-two-thirds-moved": lambda: catalog.load("hexagon").dilate(
                 Fraction(2, 3)).translate((Fraction(1, 2), Fraction(1, 3)))}


def _assert_skeleton_is_the_checked_graph(P):
    # the skeleton derives its columns from the integer points of the
    # incidence pass and its own edges, without the input checks; the
    # checked constructor makes them again from the vertices
    H = gkm.GkmGraph(P.dim, P.dim, enumerate(P.vertices), P.edges())
    _assert_same_graph(P.skeleton(), H)


@pytest.mark.parametrize("name", SKELETONS)
def test_skeleton_tables_match_the_general_constructor(name):
    _assert_skeleton_is_the_checked_graph(SKELETONS[name]())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_skeleton_tables_match_the_general_constructor_after_moves(data):
    # rational points, a GL(n, Z) move, a dilate and a rational translate:
    # most draws keep a common denominator q > 1
    try:
        P = Polytope.from_vertices(data.draw(point_sets()))
    except DelzantError:
        return
    u = data.draw(unimodular(P.dim))
    P = Polytope.from_vertices([tuple(sum(a * c for a, c in zip(row, v)) for row in u)
                                for v in P.vertices])
    P = P.dilate(data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(2, 3)])))
    _assert_skeleton_is_the_checked_graph(P.translate(data.draw(st.tuples(*[COORD] * P.dim))))


def test_orbit_tables_by_edge_are_made_only_when_read():
    G = roots.coadjoint_graph(roots.build("B", 3), ())
    assert gkm.verify_graph_corollary(G).passed
    with contextlib.redirect_stdout(io.StringIO()):
        cli._emit_graph(G, {})
    lazy = ("_incident",)
    assert not any(name in vars(G) for name in lazy)
    # the GKM check and the readers of the kept pairing read the columns,
    # on the orbit graph and on one read back from JSON
    for H in [G, serialize.graph_from_json(serialize.graph_to_json(G))]:
        for reader in [gkm.validate, gkm.is_reflexive_graph, gkm.gorenstein_index, gkm.h_vector_graph]:
            reader(H)
            assert not any(name in vars(H) for name in lazy), reader.__name__
    # the readers by edge make the position adjacency, and no table of
    # weights or lengths by edge
    gkm.star(G, 0)
    assert "_incident" in vars(G)
    for u, v in G.edge_list:
        assert G.weight((v, u)) == tuple(-c for c in G.weight((u, v)))
        assert G.length((v, u)) == G.length((u, v))
    assert not {"_weight", "_length"} & set(vars(G))
    # a polytope's verifiers, lengths and JSON read the skeleton's columns
    for P in [cube(3), catalog.load("hexagon")]:
        assert reflexive.verify_main_theorem(P).passed
        assert reflexive.verify_thm_combinatorics2(P).passed
        assert reflexive.verify_length_decomposition(P).passed
        assert reflexive.verify_index_corollary(P).passed
        assert reflexive.verify_gorenstein(P, 1).passed
        assert reflexive.verify_12_24(P).passed
        P.relative_lengths()
        serialize.graph_to_json(P.skeleton())
        assert not any(name in vars(P.skeleton()) for name in lazy)
    # other graphs, from the catalog or from JSON, are paired from the columns
    graphs = [catalog.load(name) for name in catalog.names("gkm-graph")]
    graphs.append(serialize.graph_from_json(serialize.graph_to_json(G)))
    for H in graphs:
        assert gkm.verify_graph_corollary(H).passed
        assert "_pairing" in vars(H)
        assert not any(name in vars(H) for name in lazy)


@pytest.mark.parametrize("kind, rank, I", ORBITS)
def test_walk_pairing_vectors_are_the_coroot_pairings(kind, rank, I):
    rs = roots.build(kind, rank)
    p0, tv = roots._base(rs, I)
    assert p0 == roots.base_point(rs, I)
    _, keys, points, pairings = roots._walk(rs, p0, tv)
    assert list(points) == roots.weyl_orbit(rs, p0)
    assert list(keys) == sorted(set(keys))
    for p, tv in zip(points, pairings):
        assert list(tv) == [sum(a * c for a, c in zip(p, rs._coroot[beta]))
                            for beta in rs.positive_roots], p


@pytest.mark.parametrize("kind, rank", SYSTEMS)
def test_root_tables_match_the_closure(kind, rank):
    rs = roots.build(kind, rank)
    every = rs.closure(rs.simple_roots, range(rank))
    assert rs.positive_roots == sorted(r for r in every if all(c >= 0 for c in r))
    assert len(every) == 2 * len(rs.positive_roots)
    for j, alpha in enumerate(rs.simple_roots):
        for beta, image in zip(rs.positive_roots, rs._reflected[j]):
            # the table keeps alpha_j for s_j alpha_j = -alpha_j
            want = rs.reflect(alpha, beta)
            assert rs.positive_roots[image] == (alpha if beta == alpha else want), (j, beta)
        assert rs.reflect(alpha, alpha) == tuple(-c for c in alpha)
