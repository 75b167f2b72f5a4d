import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import mul, neg

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from delzant import catalog, exact, gkm, polytope, reflexive
from delzant.errors import (
    DimensionMismatch,
    EmptyPolytope,
    NonLatticeEdge,
    NotFullDimensional,
    NotSimple,
    OriginNotInterior,
    Unbounded,
    UnboundedSearch,
    ZeroVector,
)
from delzant.gkm import GkmGraph
from delzant.polytope import Halfspace, Polytope, cube, cross_polytope, simplex_cpn


def test_from_vertices_square():
    P = Polytope.from_vertices([(1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0)])
    assert len(P.vertices) == 4  # interior point dropped
    assert len(P.facets) == 4
    assert P.f_vector() == (4, 4, 1)


def test_from_halfspaces_roundtrip():
    P = cube(3)
    Q = Polytope.from_halfspaces(P.facets)
    assert Q == P


@pytest.mark.parametrize("n", [5, 6])
def test_cube_roundtrips_through_its_vertices(n):
    P = cube(n)
    Q = Polytope.from_vertices(P.vertices)
    assert (Q.vertices, Q.facets) == (P.vertices, P.facets)
    assert len(Q.vertices) == 2**n and len(Q.facets) == 2 * n


@pytest.mark.parametrize("n", [5, 6])
def test_cross_polytope_roundtrips_through_its_facets(n):
    P = cross_polytope(n)
    Q = Polytope.from_halfspaces(P.facets)
    assert (Q.vertices, Q.facets) == (P.vertices, P.facets)
    assert len(Q.vertices) == 2 * n and len(Q.facets) == 2**n


def test_hull_work_limit(monkeypatch):
    # The 8-cube from its facets takes 254 ray pairs and 22338 mask scans,
    # from its vertices 1538 pairs and 13647 scans: far inside the budgets,
    # accepted at those counts and refused one below each.
    P = cube(8)
    for limit, count, hull in [
        ("HULL_PAIR_LIMIT", 254, lambda: cube(8)),
        ("HULL_SCAN_LIMIT", 22338, lambda: cube(8)),
        ("HULL_PAIR_LIMIT", 1538, lambda: Polytope.from_vertices(P.vertices)),
        ("HULL_SCAN_LIMIT", 13647, lambda: Polytope.from_vertices(P.vertices)),
    ]:
        with monkeypatch.context() as m:
            m.setattr(polytope, limit, count)
            assert hull() == P
            m.setattr(polytope, limit, count - 1)
            with pytest.raises(UnboundedSearch, match=f"more than its limit of {count - 1}$"):
                hull()


def _scan_only_extreme_rays(rows, d):
    """``polytope._extreme_rays`` as it was before the count rule: every
    pair that passes the bit-count pre-test is decided by the mask scan."""
    chosen, first, free = exact.eliminate(rows, d)
    if free:
        return None
    every = sum(1 << i for i in chosen)
    rays = [(ray, every & ~(1 << i)) for i, ray in zip(chosen, first)]
    chosen = set(chosen)
    pairs = scans = 0
    for k, row in enumerate(rows):
        if k in chosen:
            continue
        bit = 1 << k
        kept, pos, neg = [], [], []
        for ray, tight in rays:
            s = sum(map(mul, row, ray))
            if s > 0:
                kept.append((ray, tight))
                pos.append((ray, tight, s))
            elif s < 0:
                neg.append((ray, tight, s))
            else:
                kept.append((ray, tight | bit))
        if neg:
            pairs += len(pos) * len(neg)
            if pairs > polytope.HULL_PAIR_LIMIT:
                raise UnboundedSearch(
                    f"the double-description hull would test {pairs} ray pairs by row {k}, "
                    f"more than its limit of {polytope.HULL_PAIR_LIMIT}"
                )
            masks = [tight for _, tight in rays]
            for rp, tp, sp in pos:
                for rn, tn, sn in neg:
                    common = tp & tn
                    if common.bit_count() < d - 2:
                        continue
                    scans += len(masks)
                    if scans > polytope.HULL_SCAN_LIMIT:
                        raise UnboundedSearch(
                            f"the double-description hull would scan {scans} ray masks by row {k}, "
                            f"more than its limit of {polytope.HULL_SCAN_LIMIT}"
                        )
                    if any(t & common == common and t != tp and t != tn for t in masks):
                        continue
                    ray = exact.primitive([sp * b - sn * a for a, b in zip(rp, rn)])[0]
                    kept.append((ray, common | bit))
        rays = kept
    return rays


@st.composite
def _cone_rows(draw):
    """Integer rows in dimension d <= 6: random rows, combinations and
    repeats of earlier rows, and rows (1, -v) with v a signed unit vector
    or a vector of +-1s, as cubes and cross-polytopes give from either
    side; or all the rows of the cube's hull from its facets or from its
    vertices, with some others."""
    d = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    units = [(1, *map(neg, v)) for v in polytope._signed_units(d - 1)]
    signs = [(1, *v) for v in product((-1, 1), repeat=d - 1)]
    rows = list(draw(st.sampled_from([[], [], units + [(1,) + (0,) * (d - 1)], signs])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random", "combination", "repeat", "unit", "signs"]))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entry), draw(entry)
            rows.append(tuple(x * p + y * q for p, q in zip(a, b)))
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "unit" and units:
            rows.append(draw(st.sampled_from(units)))
        elif kind == "signs":
            rows.append(draw(st.sampled_from(signs)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=d, max_size=d))))
    return draw(st.permutations(rows)), d


@settings(max_examples=400, deadline=None)
@given(_cone_rows())
def test_the_count_rule_keeps_the_scans_verdict(case):
    # A pair with a ray tight on exactly d - 1 rows is adjacent without
    # the scan; every ray and tight set is the scan's, in its order.
    rows, d = case
    assert polytope._extreme_rays(rows, d) == _scan_only_extreme_rays(rows, d)


def test_the_12_cube_from_its_facets():
    # Every pair of its hull has a ray on exactly d - 1 rows, so no pair
    # is scanned.
    P = cube(12)
    assert list(P.vertices) == sorted(product((-1, 1), repeat=12))
    assert P.facets == tuple(sorted(Halfspace(e, 1) for e in polytope._signed_units(12)))


def test_the_13_cube_from_its_facets_is_refused_by_the_scan_budget():
    # The budget charges every pair that passes the pre-test, scanned or
    # not, so the refusal point is the scan-only hull's.
    with pytest.raises(UnboundedSearch) as e:
        cube(13)
    assert str(e.value) == ("the double-description hull would scan 6002073 ray masks by row 25, "
                            "more than its limit of 6000000")


def _rank(rows):
    return sympy.Matrix(rows).rank() if rows else 0


@st.composite
def start_rows(draw):
    """Integer rows in dimension d <= 6, some of them combinations of
    earlier ones."""
    d = draw(st.integers(1, 6))
    entry = st.integers(-4, 4)
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entry), draw(entry)
            rows.append(tuple(x * p + y * q for p, q in zip(a, b)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=d, max_size=d))))
    return rows, d


@settings(max_examples=200, deadline=None)
@given(start_rows())
def test_start_picks_the_first_independent_rows_and_their_rays(case):
    rows, d = case
    chosen, rays, free = exact.eliminate(rows, d)
    r = _rank(rows)
    # greedy: a row is chosen iff it is independent of the rows chosen
    # before it, until d are chosen
    greedy = []
    for i, row in enumerate(rows):
        if len(greedy) < d and _rank([rows[j] for j in greedy] + [row]) > len(greedy):
            greedy.append(i)
    assert chosen == greedy and len(chosen) == r
    assert len(rays) == r
    for j, ray in enumerate(rays):
        assert gcd(*ray) == 1
        for k, i in enumerate(chosen):
            s = sum(a * b for a, b in zip(rows[i], ray))
            assert s > 0 if k == j else s == 0
    # rank-deficient rows leave a basis of their null space: primitive
    # vectors tight on every row, d - rank of them
    assert len(free) == d - r and _rank(free) == len(free)
    for x in free:
        assert gcd(*x) == 1
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


def _halfspace(normal, offset):
    """The Halfspace <x, normal> <= offset for a rational normal: a
    primitive integer normal, and the offset scaled with it."""
    w, p, q = polytope._cleared(normal, offset)
    return Halfspace(w, Fraction(p, q))


RATIONAL = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
NORMAL_COORDINATE = st.one_of(RATIONAL, st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(NORMAL_COORDINATE, min_size=1, max_size=6), RATIONAL)
def test_cleared_is_its_definition(normal, offset):
    # Both sides times the lcm d of the normal's denominators, then divided
    # by the content of the integer normal; the offset p/q in lowest terms
    # with q > 0.  A zero normal raises ZeroVector.
    d = lcm(*(Fraction(c).denominator for c in normal))
    ints = [int(Fraction(c) * d) for c in normal]
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    if content == 0:
        with pytest.raises(ZeroVector):
            polytope._cleared(normal, offset)
        return
    w, p, q = polytope._cleared(normal, offset)
    b = Fraction(offset) * d / content
    assert w == tuple(c // content for c in ints)
    assert all(type(c) is int for c in w) and type(p) is int and type(q) is int
    assert (p, q) == (b.numerator, b.denominator) and q > 0 and gcd(p, q) == 1


@pytest.mark.parametrize("bad", [1.0, 0.0, "1", Decimal("1"), Decimal("0.5")], ids=repr)
def test_a_non_rational_coordinate_or_offset_is_a_type_error(bad):
    # Named before any other work: a bad coordinate of a zero normal is not
    # a ZeroVector, and a bad coordinate is named before a bad offset.
    square = [((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
    for make in (_halfspace,
                 lambda n, b: Polytope.from_halfspaces([(n, b)] + square)):
        for normal, offset in [((bad, 0), 1), ((Fraction(1, 2), bad), bad), ((0, bad), 1)]:
            with pytest.raises(TypeError, match=re.escape(
                    f"normal coordinate {bad!r} is not a rational number")):
                make(normal, offset)
        with pytest.raises(TypeError, match=re.escape(f"offset {bad!r} is not a rational number")):
            make((1, 0), bad)


@pytest.mark.parametrize("bad", [0.1, 1.0, "1", Decimal("1"), Decimal("0.5")], ids=repr)
def test_a_non_rational_point_coordinate_is_a_type_error(bad):
    # A vertex, a translation, a point looked up or tested, a dilation
    # factor, a cube's half-width, a Gorenstein index, a graph vertex or a
    # direction: the value is named, and neither rounded nor parsed.
    P = cube(2)
    G = GkmGraph(1, 1, [(0, (0,)), (1, (1,))], [(0, 1)])
    for what, call in (
            ("coordinate", lambda: Polytope.from_vertices([(bad, 0), (1, 0), (0, 1)])),
            ("coordinate", lambda: Polytope.from_vertices([(0, 0), (1, 0), (0, bad)])),
            ("coordinate", lambda: P.translate((bad, 0))),
            ("coordinate", lambda: P.translate((Fraction(1, 2), bad))),
            ("coordinate", lambda: P.vertex_id((bad, 1))),
            ("coordinate", lambda: P.vertex_id((1, bad))),
            ("coordinate", lambda: P.contains((bad, 0))),
            ("coordinate", lambda: P.contains((0, bad), strict=True)),
            ("coordinate", lambda: P.facets[0].holds((bad, bad))),
            ("factor", lambda: P.dilate(bad)),
            ("offset", lambda: cube(2, bad)),
            ("index", lambda: reflexive.verify_gorenstein(P, bad)),
            ("coordinate", lambda: GkmGraph(1, 1, [(0, (bad,)), (1, (1,))], [(0, 1)])),
            ("coordinate", lambda: GkmGraph(2, 1, [(0, (0, 0)), (1, (1, bad))], [(0, 1)])),
            ("direction coordinate", lambda: gkm.h_vector_graph(G, (bad,)))):
        with pytest.raises(TypeError, match=re.escape(f"{what} {bad!r} is not a rational number")):
            call()
    # other rationals are read as Fractions
    assert P.vertex_id((True, Fraction(1))) == P.vertices.index((1, 1))
    assert P.contains((True, Fraction(1))) and not P.contains((Fraction(1), 1), strict=True)
    # a float that rounds onto the boundary is refused, not read as 1.0
    with pytest.raises(TypeError, match=re.escape("coordinate 1.0 is not a rational number")):
        P.contains((1.0000000000000001, 0))


def _tight_sets_facets(P, halfspaces):
    """The facets of P among the halfspaces by vertex-set maximality: the
    halfspaces whose sets of tight vertices are nonempty and in no other
    such set."""
    hs = {_halfspace(n, b) for n, b in halfspaces}
    on = {h: frozenset(v for v in P.vertices if sum(a * c for a, c in zip(h.normal, v)) == h.offset)
          for h in hs}
    return {h for h, s in on.items() if s and not any(s < t for t in on.values())}


@st.composite
def _halfspace_systems(draw):
    """Bounded, full-dimensional halfspace systems in dimension 1-4: the
    box [-k, k]^d among other halfspaces that keep the origin strictly
    inside, in any order, with repeats.  An extra halfspace at the box's
    support value of its normal is tight only on a face of the box, often
    a vertex or another face below a facet."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    box = [(tuple(s if j == i else 0 for j in range(d)), k) for i in range(d) for s in (1, -1)]
    extra = []
    for normal in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d).filter(any), max_size=8)):
        support = k * sum(map(abs, normal))
        offset = draw(st.one_of(st.just(support), st.integers(1, support),
                                RATIONALS.filter(lambda x: x > 0)))
        extra.append((normal, offset))
    system = box + extra
    system += draw(st.lists(st.sampled_from(system), max_size=3))
    return draw(st.permutations(system))


@settings(max_examples=150, deadline=None)
@given(_halfspace_systems())
def test_facets_of_a_halfspace_system_are_its_maximal_tight_sets(halfspaces):
    P = Polytope.from_halfspaces(halfspaces)
    assert set(P.facets) == _tight_sets_facets(P, halfspaces)


def test_many_halfspaces_tight_at_one_vertex():
    # [-1, 1]^2 after 2000 halfspaces tight only at (1, 1)
    square = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]
    halfspaces = [((k, 1), k + 1) for k in range(2, 2002)] + square
    P = Polytope.from_halfspaces(halfspaces)
    assert (P.vertices, P.facets) == (cube(2).vertices, cube(2).facets)
    assert set(P.facets) == _tight_sets_facets(P, halfspaces)


def test_integral_output_coordinates_are_ints():
    # -65, 1000 and -64..64 alike are ints, with the values and hashes
    # that their Fractions had.
    P = Polytope.from_vertices([(0, 0), (1000, 0), (0, -65), (64, 64), (-64, 3)])
    for v in P.vertices:
        for c in v:
            assert type(c) is int
            assert (c, hash(c)) == (Fraction(c), hash(Fraction(c)))
    assert (1000, 0) in P.vertices and (0, -65) in P.vertices and (-64, 3) in P.vertices
    for c in range(-70, 71):
        (x,) = polytope._point((c,), 1)
        assert type(x) is int and x == c and hash(x) == hash(c) == hash(Fraction(c))


def test_a_polytope_compares_and_hashes_by_value_whatever_the_number_type():
    P = Polytope.from_vertices([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
    assert all(type(c) is int for v in P.vertices for c in v)
    Q = Polytope(2, [tuple(map(Fraction, v)) for v in P.vertices], P.facets)
    assert all(type(c) is Fraction for v in Q.vertices for c in v)
    assert P == Q and hash(P) == hash(Q) and len({P, Q}) == 1
    assert repr(P) == repr(Q) == "Polytope(dim=2, vertices=6, facets=6)"


def test_unbounded_rejected():
    with pytest.raises(Unbounded):
        Polytope.from_halfspaces(
            [_halfspace((1, 0), 1), _halfspace((0, 1), 1)]
        )
    with pytest.raises(Unbounded, match="no halfspaces given"):
        Polytope.from_halfspaces([])


def test_malformed_input_refused():
    with pytest.raises(EmptyPolytope, match="no points given"):
        Polytope.from_vertices([])
    with pytest.raises(DimensionMismatch, match="points of mixed dimensions"):
        Polytope.from_vertices([(0, 0), (1,), (0, 1)])
    with pytest.raises(DimensionMismatch, match="normals of mixed dimensions"):
        Polytope.from_halfspaces([_halfspace((1, 0), 1), _halfspace((-1,), 1),
                                  _halfspace((0, -1), 1)])
    with pytest.raises(DimensionMismatch, match="dot of lengths 2 and 1"):
        cube(2).translate((1,))
    with pytest.raises(KeyError, match=re.escape("(0, 0) is not a vertex")):
        cube(2).vertex_id((0, 0))


def test_lower_dimensional_rejected():
    with pytest.raises(NotFullDimensional):
        Polytope.from_vertices([(0, 0), (1, 0)])


def test_f_vectors():
    assert cube(2).f_vector() == (4, 4, 1)
    assert cube(3).f_vector() == (8, 12, 6, 1)
    assert cube(4).f_vector() == (16, 32, 24, 8, 1)
    assert cross_polytope(3).f_vector() == (6, 12, 8, 1)
    assert simplex_cpn(3).f_vector() == (4, 6, 4, 1)


def test_h_vector_comb():
    assert cube(2).h_vector_comb() == (1, 2, 1)
    assert cube(3).h_vector_comb() == (1, 3, 3, 1)
    assert cube(4).h_vector_comb() == (1, 4, 6, 4, 1)
    assert simplex_cpn(3).h_vector_comb() == (1, 1, 1, 1)


def test_h_vector_directed_matches_comb():
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4"]:
        P = catalog.load(name)
        assert P.h_vector_directed() == P.h_vector_comb()


def test_h_vector_directed_not_simple():
    with pytest.raises(NotSimple):
        catalog.load("octahedron").h_vector_directed()


def test_simplicity():
    assert cube(3).is_simple()
    assert not cross_polytope(3).is_simple()


def test_edges_and_lengths():
    P = cube(2)
    assert len(P.edges()) == 4
    assert all(P.relative_length(e) == 2 for e in P.edges())
    Q = simplex_cpn(3)
    assert len(Q.edges()) == 6
    assert all(Q.relative_length(e) == 4 for e in Q.edges())


def test_derived_tables_are_kept_once_by_their_owner():
    # the views are made on each call, from the tables the polytope keeps
    P = catalog.load("octahedron")
    assert set(vars(P)) == {"dim", "vertices", "facets", "_ints", "_bits", "_faces",
                            "_skeleton", "_delzant", "_leaving"}
    assert P.incidence() == P.incidence() and P.incidence() is not P.incidence()
    assert P.face_lattice() == P.face_lattice()
    assert P.face_lattice() is not P.face_lattice()
    # edges() copies the list the skeleton keeps
    edges = P.edges()
    assert edges == P.skeleton().edge_list and edges is not P.skeleton().edge_list


def test_signed_units():
    assert polytope._signed_units(2) == [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert cross_polytope(3).vertices == tuple(sorted(polytope._signed_units(3)))
    assert catalog.load("octahedron-skeleton").coords == dict(enumerate(polytope._signed_units(3)))


def test_relative_length_non_lattice():
    P = Polytope.from_vertices([(Fraction(1, 2), 0), (0, 1), (0, -1)])
    with pytest.raises(NonLatticeEdge):
        for e in P.edges():
            P.relative_length(e)


def test_vertex_weights_unimodular():
    P = cube(3)
    for vid in range(len(P.vertices)):
        ws = P.vertex_weights(vid)
        assert len(ws) == 3
        assert all(abs(c) in (0, 1) for w in ws for c in w)


def test_dual_cube_is_cross_polytope():
    assert cube(3).dual() == cross_polytope(3)
    assert cross_polytope(3).dual() == cube(3)


def test_dual_requires_interior_origin():
    with pytest.raises(OriginNotInterior):
        catalog.load("rect").dual()


def test_dual_dual_identity():
    for name in ["square", "cube", "hexagon", "octahedron", "diamond", "cp3-simplex"]:
        P = catalog.load(name)
        assert P.dual().dual() == P


def test_dilate_translate_contains():
    P = cube(2)
    Q = P.dilate(2)
    assert Q.contains((2, 2)) and not P.contains((2, 2))
    R = P.translate((5, 5))
    assert R.contains((5, 5)) and not R.contains((0, 0))


def test_interior_lattice_points():
    assert list(cube(2).interior_lattice_points()) == [(0, 0)] or set(
        cube(2).interior_lattice_points()
    ) == {(0, 0)}
    pts = set(cube(2).dilate(2).interior_lattice_points())
    assert len(pts) == 9


def test_euler_relation_catalog():
    for name in catalog.names("polytope"):
        P = catalog.load(name)
        f = P.f_vector()
        assert sum((-1) ** i * f[i] for i in range(P.dim + 1)) == 1


def test_simple_edge_count_relation():
    # 2*f1 = n*f0 for simple polytopes
    for name in ["square", "cube", "hexagon", "cp3-simplex", "hypercube4", "blowup2"]:
        P = catalog.load(name)
        f = P.f_vector()
        assert 2 * f[1] == P.dim * f[0]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=3,
        max_size=7,
    )
)
def test_hull_halfspace_roundtrip(points):
    try:
        P = Polytope.from_vertices(points)
    except NotFullDimensional:
        return
    Q = Polytope.from_halfspaces(P.facets)
    assert Q == P
    assert all(P.contains(p) for p in points)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["square", "hexagon", "cube", "cp2-triangle"]),
    st.integers(1, 3),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
def test_f_vector_invariant_under_dilation_translation(name, r, shift):
    P = catalog.load(name)
    t = shift[: P.dim]
    Q = P.dilate(r).translate(t)
    assert Q.f_vector() == P.f_vector()
    assert Q.h_vector_comb() == P.h_vector_comb()


# Rationals with denominators 1-6.  `_written` gives an integral one as an
# int or as a Fraction, so one value reaches the hull in both forms (2 and
# Fraction(4, 2)).
RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _written(draw, x):
    return int(x) if x.denominator == 1 and draw(st.booleans()) else x


@st.composite
def _written_all(draw, xs):
    return tuple(draw(_written(x)) for x in xs)


@st.composite
def _point_sets(draw):
    """Points in dimension 1-3 with duplicates, each written afresh."""
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[RATIONALS] * dim), min_size=dim + 1, max_size=7))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return [draw(_written_all(p)) for p in pts]


def _assert_exact(P):
    """Each coordinate and offset an int when integral, else a Fraction;
    int normals; vertices in sorted() order.  Comparisons with == would not
    tell Fraction(1) from 1."""
    for c in [c for v in P.vertices for c in v] + [h.offset for h in P.facets]:
        assert type(c) is (int if c.denominator == 1 else Fraction)
    assert all(type(c) is int for h in P.facets for c in h.normal)
    assert list(P.vertices) == sorted(P.vertices)


@settings(max_examples=80, deadline=None)
@given(_point_sets(), st.data())
def test_hulls_and_maps_make_ints_or_fractions_and_integer_normals(points, data):
    try:
        P = Polytope.from_vertices(points)
    except NotFullDimensional:
        assume(False)
    _assert_exact(P)
    # the facets again, each scaled by a positive rational and written
    # afresh, some of them twice
    halfspaces = []
    for h in P.facets + tuple(data.draw(st.lists(st.sampled_from(P.facets), max_size=3))):
        s = data.draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5, 2)]))
        normal = data.draw(_written_all(tuple(s * c for c in h.normal)))
        halfspaces.append((normal, data.draw(_written(s * h.offset))))
    Q = Polytope.from_halfspaces(halfspaces)
    _assert_exact(Q)
    assert Q.vertices == P.vertices
    r = data.draw(RATIONALS.filter(bool))
    _assert_exact(P.dilate(data.draw(_written(r))))
    t = data.draw(_written_all(data.draw(st.tuples(*[RATIONALS] * P.dim))))
    _assert_exact(P.translate(t))
    # moved so that the origin is strictly inside, the vertices' centroid
    centroid = tuple(Fraction(sum(v[i] for v in P.vertices), len(P.vertices)) for i in range(P.dim))
    R = P.translate(data.draw(_written_all(tuple(-c for c in centroid))))
    _assert_exact(R)
    _assert_exact(R.dual())
