import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant import catalog, oracle
from delzant.errors import (
    DelzantError,
    DimensionMismatch,
    EmptyPolytope,
    NotFullDimensional,
    Unbounded,
    UnboundedSearch,
    UnsupportedDimension,
    ZeroVector,
)
from delzant.polytope import Halfspace, Polytope, cross_polytope

POLYTOPES = catalog.names("polytope")

COORD = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def _pairs(P):
    return list(P.vertices), [(h.normal, h.offset) for h in P.facets]


def _outcome(fn, *args, **kwargs):
    """(vertices, facet pairs) of a hull, or the class of the error raised."""
    try:
        out = fn(*args, **kwargs)
    except DelzantError as e:
        return type(e)
    return _pairs(out) if isinstance(out, Polytope) else out


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[COORD] * n), min_size=n + 1, max_size=n + 5))
    shape = draw(st.sampled_from(["plain", "plain", "duplicates", "flat", "mixed"]))
    if shape == "duplicates":
        pts += pts[: draw(st.integers(1, len(pts)))]
    elif shape == "flat":
        pts = [p[:-1] + (0,) for p in pts]
    elif shape == "mixed":
        pts.append(pts[0] + (0,))
    return pts


@st.composite
def halfspace_sets(draw):
    n = draw(st.integers(1, 4))
    normal = st.tuples(*[st.one_of(
        st.integers(-2, 2), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    )] * n).filter(any)
    hs = draw(st.lists(st.tuples(normal, COORD), min_size=1, max_size=n + 3))
    shape = draw(st.sampled_from(["plain", "bounded", "duplicates", "flat", "empty"]))
    if shape != "plain":
        # a simplex around the origin makes the draw bounded; the other
        # shapes build on it
        hs += [(tuple(-int(j == i) for j in range(n)), 2) for i in range(n)]
        hs.append(((1,) * n, 2))
    if shape == "duplicates":
        hs += hs[:2]
    elif shape == "flat":
        hs += [(hs[0][0], hs[0][1]), (tuple(-c for c in hs[0][0]), -Fraction(hs[0][1]))]
    elif shape == "empty":
        hs += [(hs[0][0], -3), (tuple(-c for c in hs[0][0]), -3)]
    return hs


@settings(max_examples=100, deadline=None)
@given(point_sets())
@example(OCTAHEDRON)
@example([p for p in cross_polytope(3).vertices] + [(0, 0, 0)])
@example([(0, 0), (1, 0), (2, 0)])
def test_from_vertices_matches_brute_hull(points):
    assert _outcome(Polytope.from_vertices, points) == _outcome(oracle.brute_hull, points=points)
    # built again from its own facets, it keeps their order
    try:
        P = Polytope.from_vertices(points)
    except DelzantError:
        return
    assert Polytope.from_halfspaces(P.facets).facets == P.facets


@settings(max_examples=100, deadline=None)
@given(point_sets())
@example(OCTAHEDRON)
def test_face_dimensions_match_oracle(points):
    try:
        P = Polytope.from_vertices(points)
    except DelzantError:
        return
    for ids, face in P.face_lattice().items():
        assert face.dim == oracle._affine_dim([P.vertices[i] for i in ids]), sorted(ids)


@settings(max_examples=100, deadline=None)
@given(halfspace_sets())
@example([(tuple(s * c for c in v), 1) for v in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
          for s in (1, -1)])
@example([((1, 0), 1), ((0, 1), 1)])
@example([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 2), ((1, -1), 3)])
@example([((1,), 1), ((-1,), -2)])
def test_from_halfspaces_matches_brute_hull(halfspaces):
    assert _outcome(Polytope.from_halfspaces, halfspaces) == _outcome(
        oracle.brute_hull, halfspaces=halfspaces
    )


_BOX = [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]


# Malformed input: the oracle refuses it with the class the main path
# raises.  With no input or both inputs only the oracle is called.
@pytest.mark.parametrize("given, error", [
    ({"points": []}, EmptyPolytope),
    ({"points": [(0, 0), (1,), (0, 1)]}, DimensionMismatch),
    ({"points": [(0, 0), (1, 1), (2, 2)]}, NotFullDimensional),
    ({"halfspaces": []}, Unbounded),
    ({"halfspaces": [((1, 0), 1), ((-1,), 1), ((0, -1), 1)]}, DimensionMismatch),
    ({"halfspaces": [((0, 0), 1)] + _BOX}, ZeroVector),
    ({"halfspaces": [((1, 0), -2)] + _BOX}, EmptyPolytope),
    ({"halfspaces": _BOX[:3]}, Unbounded),
    ({"halfspaces": _BOX[:2]}, Unbounded),
    ({"halfspaces": [((1, 0), 0), ((-1, 0), 0)] + _BOX[2:]}, NotFullDimensional),
    ({}, ValueError),
    ({"points": [(0,), (1,)], "halfspaces": [((1,), 1), ((-1,), 1)]}, ValueError),
])
def test_brute_hull_refuses_what_the_main_path_refuses(given, error):
    if len(given) == 1:
        ((kind, value),) = given.items()
        main = Polytope.from_vertices if kind == "points" else Polytope.from_halfspaces
        with pytest.raises(error):
            main(value)
    with pytest.raises(error):
        oracle.brute_hull(**given)


def _cyclic(d, n):
    """The points (t, t^2, ..., t^d) of the moment curve, t = 0, ..., n - 1."""
    return [tuple(t**i for i in range(1, d + 1)) for t in range(n)]


def _gale_even(S, n):
    """Gale's evenness condition on a set S of points of the moment curve:
    every two t < u outside S have an even number of points of S between
    them.  The d-sets that meet it are the facets of the cyclic d-polytope."""
    outside = [t for t in range(n) if t not in S]
    return all(sum(a < s < b for s in S) % 2 == 0 for a, b in zip(outside, outside[1:]))


@pytest.mark.parametrize("d, n", [(4, 7), (4, 8), (4, 9)])
def test_cyclic_polytope_matches_brute_hull(d, n):
    points = _cyclic(d, n)
    assert _outcome(Polytope.from_vertices, points) == _outcome(oracle.brute_hull, points=points)


@pytest.mark.parametrize("d, n, facets", [(4, 40, 740), (6, 28, 2576)])
def test_cyclic_polytope_facets_by_gale_evenness(d, n, facets):
    # The closed form n/(n - m) C(n - m, m), d = 2m, counts the d-sets that
    # are Gale even; the hull finds that many distinct ones, so it finds
    # all of them.  Points come out in the order of t, so vertex t is t.
    m = d // 2
    assert n * comb(n - m, m) == facets * (n - m)
    P = Polytope.from_vertices(_cyclic(d, n))
    assert P.vertices == tuple(_cyclic(d, n))
    on_facet = set(P.incidence()[1])
    assert len(on_facet) == len(P.facets) == facets
    assert all(len(S) == d and _gale_even(S, n) for S in on_facet)


PYRAMID = [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1)]
RATIONAL = [(Fraction(1, 2), 0), (0, Fraction(2, 3)), (Fraction(-5, 4), Fraction(-1, 6)),
            (Fraction(1, 5), Fraction(-7, 3))]
# brute_f_vector tries all 2^f facet subsets, so it runs only on polytopes
# with at most this many facets.
BRUTE_FACETS = 12


def _scan_incidence(P):
    """The facet ids at each vertex, by a Fraction dot product per pair."""
    return [
        frozenset(j for j, h in enumerate(P.facets)
                  if sum(Fraction(a) * c for a, c in zip(h.normal, v)) == Fraction(h.offset))
        for v in P.vertices
    ]


def _assert_incidence_matches_scan(P):
    scan = _scan_incidence(P)
    nv, nf = len(P.vertices), len(P.facets)
    at_vertex, on_facet = P.incidence()
    assert list(at_vertex) == scan
    assert list(on_facet) == [frozenset(i for i in range(nv) if j in scan[i]) for j in range(nf)]
    # The faces are P itself and the nonempty intersections of facets.
    faces = {frozenset(range(nv))}
    for j in range(nf):
        faces |= {w & on_facet[j] for w in faces} - {frozenset()}
    # The f-vector and the edges of a fresh copy, read before its face
    # lattice exists, against the faces above counted by affine dimension.
    fresh = Polytope(P.dim, P.vertices, P.facets)
    f, edges = fresh.f_vector(), fresh.edges()
    dims = [oracle._affine_dim([P.vertices[i] for i in w]) for w in faces]
    assert f == tuple(dims.count(d) for d in range(P.dim + 1))
    if nf <= BRUTE_FACETS:
        assert f == oracle.brute_f_vector(P)
    assert set(P.face_lattice()) == faces
    for ids, face in P.face_lattice().items():
        assert face.vertex_ids == ids
        assert face.active_facets == frozenset(j for j in range(nf) if all(j in scan[i] for i in ids))
    assert edges == sorted(tuple(sorted(ids)) for ids, face in P.face_lattice().items()
                           if face.dim == 1)


def _rebuilt(P, offset):
    """P from its stored vertex and (normal, offset) pairs, with the offsets
    passed through ``offset``, as the benchmark rebuilds its inputs."""
    pairs = [(h.normal, offset(h.offset)) for h in P.facets]
    return Polytope(P.dim, P.vertices, [Halfspace(a, b) for a, b in pairs])


def _int_when_integral(b):
    return int(b) if b.denominator == 1 else b


def _check_incidence_and_rebuilds(P):
    _assert_incidence_matches_scan(P)
    for offset in (Fraction, _int_when_integral):
        Q = _rebuilt(P, offset)
        _assert_incidence_matches_scan(Q)
        assert Q.face_lattice() == P.face_lattice()


@settings(max_examples=60, deadline=None)
@given(point_sets())
@example(OCTAHEDRON)
@example(PYRAMID)
@example([p + (0,) for p in PYRAMID] + [(0, 0, 0, 1)])
@example(RATIONAL)
def test_incidence_matches_fraction_scan_from_vertices(points):
    try:
        P = Polytope.from_vertices(points)
    except DelzantError:
        return
    _check_incidence_and_rebuilds(P)


@settings(max_examples=60, deadline=None)
@given(halfspace_sets())
@example([(tuple(s * c for c in v), 1) for v in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
          for s in (1, -1)])
@example([((2, 1), Fraction(7, 3)), ((-1, 3), Fraction(5, 2)), ((0, -1), 4), ((-3, -1), Fraction(11, 6))])
def test_incidence_matches_fraction_scan_from_halfspaces(halfspaces):
    try:
        P = Polytope.from_halfspaces(halfspaces)
    except DelzantError:
        return
    _check_incidence_and_rebuilds(P)


def _moves(P, scale, shift):
    """Each mapped operation next to a hull of its image's points."""
    out = [
        (lambda: P.dilate(scale), lambda: Polytope.from_vertices(
            [tuple(Fraction(scale) * c for c in v) for v in P.vertices])),
        (lambda: P.translate(shift), lambda: Polytope.from_vertices(
            [tuple(c + t for c, t in zip(v, shift)) for v in P.vertices])),
    ]
    if all(h.offset > 0 for h in P.facets):
        out.append((P.dual, lambda: Polytope.from_vertices(
            [tuple(Fraction(-c) / h.offset for c in h.normal) for h in P.facets])))
    return out


@pytest.mark.parametrize("name", POLYTOPES + ["segment"])
def test_mapped_operations_match_rehull_on_catalog(name):
    # the segment is built from its facets, and it and its images come
    # out in the one order of every constructor, [(1,), (-1,)]
    P = (Polytope.from_halfspaces([((1,), 2), ((-1,), 1)]) if name == "segment"
         else catalog.load(name))
    for scale in (2, -1, Fraction(-3, 2), 0):
        for mapped, rehull in _moves(P, scale, tuple(range(1, P.dim + 1))):
            assert _outcome(mapped) == _outcome(rehull), (name, scale)


@st.composite
def unimodular(draw, n):
    """A GL(n, Z) matrix as a product of elementary moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=6)):
        if i == j:
            u[i] = [-c for c in u[i]]
        else:
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return u


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mapped_operations_match_rehull_after_moves(data):
    P = catalog.load(data.draw(st.sampled_from([n for n in POLYTOPES if n != "hypercube4"])))
    u = data.draw(unimodular(P.dim))
    Q = Polytope.from_vertices(
        [tuple(sum(a * c for a, c in zip(row, v)) for row in u) for v in P.vertices]
    )
    scale = data.draw(st.sampled_from([1, 3, -2, Fraction(1, 2)]))
    shift = data.draw(st.tuples(*[COORD] * P.dim))
    for mapped, rehull in _moves(Q, scale, shift):
        assert _outcome(mapped) == _outcome(rehull)


def test_segment_counts():
    assert oracle.lattice_points_on_segment((-1, -1), (1, -1)) == 3
    assert oracle.lattice_points_on_segment((0, 0), (2, 4)) == 3
    assert oracle.lattice_points_on_segment((0, 0, 0), (1, 1, 1)) == 2


def test_segment_of_one_point():
    # a lattice point, or none
    assert oracle.lattice_points_on_segment((1, 2), (1, 2)) == 1
    assert oracle.lattice_points_on_segment((Fraction(1, 2), 0), (Fraction(1, 2), 0)) == 0


def test_segment_box_limit():
    # the box of [0, 9999] holds exactly the limit; one more point is refused
    assert oracle.SEGMENT_BOX_LIMIT == 10**4
    assert oracle.lattice_points_on_segment((0,), (9999,)) == 10**4
    for u, v in [((0,), (10**4,)), ((0, 0, 0), (21, 21, 21)), ((0, 0), (300, 300))]:
        with pytest.raises(UnboundedSearch, match="takes at most 10000"):
            oracle.lattice_points_on_segment(u, v)


def test_lengths_match_oracle_on_catalog():
    for name in POLYTOPES:
        P = catalog.load(name)
        for e in P.edges():
            count = oracle.lattice_points_on_segment(P.vertices[e[0]], P.vertices[e[1]])
            assert count - 1 == P.relative_length(e), (name, e)


def test_brute_f_vector_examples():
    assert oracle.brute_f_vector(catalog.load("square")) == (4, 4, 1)
    assert oracle.brute_f_vector(catalog.load("octahedron")) == (6, 12, 8, 1)
    assert oracle.brute_f_vector(catalog.load("cube")) == (8, 12, 6, 1)


def test_brute_f_vector_matches_on_catalog():
    for name in POLYTOPES:
        P = catalog.load(name)
        assert oracle.brute_f_vector(P) == P.f_vector(), name


def test_dual_edge_lengths():
    for name in ["cp2-triangle", "square", "blowup1", "blowup2", "hexagon",
                 "cube", "cp3-simplex"]:
        assert oracle.dual_edge_lengths_check(catalog.load(name)).passed, name


@pytest.mark.parametrize("name", ["hexagon", "cube"])
def test_dual_edge_lengths_read_no_main_path_table(name):
    # The main path's incidence and skeleton are corrupted on a copy: the
    # facets at each vertex, the edges and the vertex weights it gives
    # change, and the oracle's report does not.
    clean = catalog.load(name)
    want = oracle.dual_edge_lengths_check(clean).to_dict()
    P = catalog.load(name)
    P._bits = ([(1 << len(P.facets)) - 1] * len(P.vertices), clean._incidence_bits()[1])
    assert P.incidence()[0][0] != clean.incidence()[0][0] and P.edges() != clean.edges()
    assert oracle.dual_edge_lengths_check(P).to_dict() == want
    Q = catalog.load(name)
    S = Q.skeleton()
    S._weight_col = [(1,) + (0,) * (Q.dim - 1)] * len(S.edge_list)
    assert Q.vertex_weights(0) != clean.vertex_weights(0)
    assert oracle.dual_edge_lengths_check(Q).to_dict() == want


@pytest.mark.parametrize("name, failed", [
    ("moved hexagon", ["reflexive"]),
    ("rect", ["reflexive"]),
    ("unit-square", ["reflexive"]),
    ("std-simplex", ["reflexive"]),
    ("diamond", [f"delzant at vertex {v}" for v in range(4)]),
    ("octahedron", [f"delzant at vertex {v}" for v in range(6)]),
    ("lopsided tetrahedron", ["reflexive"] + [f"delzant at vertex {v}" for v in range(4)]),
])
def test_dual_edge_lengths_fail_outside_delzant_reflexive(name, failed):
    # Outside its hypotheses the identity is not claimed: a polytope that is
    # not reflexive (an offset other than 1 or a vertex off the lattice) or
    # not Delzant (a vertex on more than n edges, or on n whose primitive
    # directions have |det| != 1) fails, by the oracle's own scans.
    P = {
        "moved hexagon": lambda: catalog.load("hexagon").dilate(2).translate((1, -2)),
        "lopsided tetrahedron": lambda: Polytope.from_vertices(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]),
    }.get(name, lambda: catalog.load(name))()
    rep = oracle.dual_edge_lengths_check(P)
    assert not rep.passed
    assert [i["id"] for i in rep.per_item if i["id"].split()[0] in ("reflexive", "delzant")] == failed
    assert all(not i["pass"] for i in rep.per_item if i["id"] in failed)


def test_dual_edge_lengths_unsupported():
    with pytest.raises(UnsupportedDimension):
        oracle.dual_edge_lengths_check(catalog.load("hypercube4"))


def test_randomized_dilations_translations():
    rng = random.Random(20260824)
    small = [n for n in POLYTOPES if n != "hypercube4"]
    for _ in range(100):
        name = rng.choice(small)
        P = catalog.load(name)
        r = rng.randint(1, 3)
        shift = tuple(rng.randint(-3, 3) for _ in range(P.dim))
        Q = P.dilate(r).translate(shift)
        assert oracle.brute_f_vector(Q) == Q.f_vector() == P.f_vector(), name
        for e in Q.edges():
            count = oracle.lattice_points_on_segment(Q.vertices[e[0]], Q.vertices[e[1]])
            assert count - 1 == Q.relative_length(e), (name, e)
