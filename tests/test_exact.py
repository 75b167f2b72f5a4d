from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from delzant import bounds, catalog, exact, reflexive
from delzant.errors import DimensionMismatch, NonSquare, ZeroVector
from delzant.gkm import GkmGraph


def test_primitive():
    assert exact.primitive((4, -2, 6)) == ((2, -1, 3), 2)
    assert exact.primitive((1, 0, 0)) == ((1, 0, 0), 1)
    assert exact.primitive((0, -5)) == ((0, -1), 5)
    with pytest.raises(ZeroVector):
        exact.primitive((0, 0, 0))


def test_det():
    assert exact.det([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert exact.det([(1, 1), (0, 1)]) == 1
    assert exact.det([(2, 0), (0, 2)]) == 4
    assert exact.det([(1, 2), (2, 4)]) == 0
    for rows in ([(1, 2)], [(1, 2), (3,)]):
        with pytest.raises(NonSquare, match="determinant of a non-square matrix"):
            exact.det(rows)


def test_dot():
    assert exact.dot((1, 2), (3, -4)) == -5
    with pytest.raises(DimensionMismatch, match="dot of lengths 2 and 1"):
        exact.dot((1, 2), (1,))


def test_is_lattice_basis():
    assert exact.is_lattice_basis([(1, 0), (0, 1)])
    assert exact.is_lattice_basis([(1, 1), (0, 1)])
    assert not exact.is_lattice_basis([(2, 0), (0, 1)])
    for vectors in ([(1, 0)], [(1, 0), (0,)]):
        with pytest.raises(DimensionMismatch, match="need n vectors of dimension n"):
            exact.is_lattice_basis(vectors)


def _segment_length(end):
    return GkmGraph(1, 1, [(0, (0,)), (1, (end,))], [(0, 1)]).length((0, 1))


def _gorenstein_rhs(factor, r):
    (rhs,) = reflexive.verify_gorenstein(catalog.load("cp2-triangle").dilate(factor), r).rhs
    return rhs


def _half_hexagon():
    return catalog.load("hexagon").dilate(Fraction(1, 2))


def _segment_sum(end):
    return GkmGraph(1, 1, [(0, (0,)), (1, (end,))], [(0, 1)]).sum_lengths()


# Each number the library makes, by exact.ratio: an int when integral,
# else a Fraction.  A negative q comes from gkm._index_at.
@pytest.mark.parametrize("made, want", [
    (lambda: exact.ratio(6, 3), 2),
    (lambda: exact.ratio(0, 5), 0),
    (lambda: exact.ratio(6, -3), -2),
    (lambda: exact.ratio(3, 6), Fraction(1, 2)),
    (lambda: exact.ratio(7, -2), Fraction(-7, 2)),
    (lambda: _segment_length(3), 3),
    (lambda: _segment_length(Fraction(3, 2)), Fraction(3, 2)),
    (lambda: bounds.c_from_f3(3, (1, 12, 18, 8)), 192),
    (lambda: bounds.c_from_f3(7, (1, 0, 0, 1, 0, 0, 0, 0)), Fraction(24, 5)),
    (lambda: bounds.max_betti_bound(3, 1), 7),
    (lambda: bounds.max_betti_bound(4, 3), Fraction(8, 3)),
    (lambda: _gorenstein_rhs(1, 1), 9),
    (lambda: _gorenstein_rhs(2, Fraction(1, 2)), 18),
    (lambda: _gorenstein_rhs(Fraction(1, 2), 2), Fraction(9, 2)),
    # six edges of length 1/2
    (lambda: _half_hexagon().skeleton().sum_lengths(), 3),
    (lambda: reflexive.verify_gorenstein(_half_hexagon(), 2).lhs, 3),
    (lambda: _segment_sum(Fraction(3, 2)), Fraction(3, 2)),
], ids=["ratio-2", "ratio-0", "ratio--2", "ratio-1/2", "ratio--7/2", "length-3", "length-3/2",
        "c_from_f3-192", "c_from_f3-24/5", "max_betti-7", "max_betti-8/3", "gorenstein-rhs-9",
        "gorenstein-rhs-18", "gorenstein-rhs-9/2", "sum_lengths-3", "gorenstein-lhs-3",
        "sum_lengths-3/2"])
def test_made_numbers_are_ints_when_integral(made, want):
    x = made()
    assert type(x) is type(want) and x == want


def test_rational_direction():
    w, t = exact.rational_direction((Fraction(3, 2), Fraction(-3, 2)))
    assert w == (1, -1) and t == Fraction(3, 2)


def test_rational_direction_refuses_the_zero_vector():
    with pytest.raises(ZeroVector, match="zero displacement"):
        exact.rational_direction((0, 0))


def test_hyperplane_normal():
    n = exact.hyperplane_normal([(1, 0), (0, 1)])
    assert n in ((1, 1), (-1, -1))
    assert exact.hyperplane_normal([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) is None
    assert exact.hyperplane_normal([(Fraction(7, 3),)]) == (1,)
    with pytest.raises(DimensionMismatch):
        exact.hyperplane_normal([(0, 0), (1, 0), (0, 1)])


def test_solve_square():
    assert exact.solve_square([(2, 0), (0, 3)], (4, 9)) == (2, 3)
    assert exact.solve_square([(1, 1), (2, 2)], (1, 1)) is None
    # inconsistent singular systems
    assert exact.solve_square([(1, 1), (1, 1)], (1, 2)) is None
    assert exact.solve_square([(1, 0), (0, 0)], (1, 1)) is None
    assert exact.solve_square([(Fraction(1, 2),)], (3,)) == (6,)
    with pytest.raises(NonSquare):
        exact.solve_square([(1, 0, 0), (0, 1, 0)], (1, 1))


nonzero_vec = (
    st.lists(st.integers(-50, 50), min_size=1, max_size=5)
    .map(tuple)
    .filter(lambda v: any(c != 0 for c in v))
)


@given(nonzero_vec)
def test_primitive_recomposes(v):
    w, m = exact.primitive(v)
    assert gcd(*w) == 1
    assert tuple(m * c for c in w) == v


@given(st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), max_size=6))
def test_primitive_is_the_content_split(v):
    # negatives and zeros; the zero vector (all zeros, or no coordinate)
    # has no primitive direction.  w primitive and m w == v, m > 0, say
    # all there is to say of the split.
    if not any(v):
        with pytest.raises(ZeroVector):
            exact.primitive(v)
        return
    w, m = exact.primitive(v)
    assert m > 0 and type(w) is tuple
    assert gcd(*w) == 1 and tuple(m * c for c in w) == tuple(v)


def _cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _cofactor_det(minor)
    return total


small_matrix = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(small_matrix)
def test_det_matches_cofactor_oracle(m):
    assert exact.det(m) == _cofactor_det(m)


@given(small_matrix)
def test_det_transpose(m):
    assert exact.det(m) == exact.det(list(zip(*m)))


@given(small_matrix, small_matrix)
def test_det_multiplicative(a, b):
    if len(a) != len(b):
        return
    prod = [
        [sum(a[i][k] * b[k][j] for k in range(len(a))) for j in range(len(a))]
        for i in range(len(a))
    ]
    assert exact.det(prod) == exact.det(a) * exact.det(b)


class _Tagged(Fraction):
    """A Fraction subclass."""


def _common_denominator_by_properties(points):
    """q and the integer points q * p, every term read off ``.numerator``
    and ``.denominator``."""
    q = 1
    for p in points:
        for c in p:
            q = q * c.denominator // gcd(q, c.denominator)
    return q, [tuple(c.numerator * (q // c.denominator) for c in p) for p in points]


_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
_coordinates = {
    "fraction": _fractions,
    "mixed": st.one_of(st.integers(-40, 40), _fractions),
    "subclass": st.one_of(_fractions, st.builds(_Tagged, st.integers(-40, 40), st.integers(1, 12))),
    "bool": st.one_of(st.booleans(), _fractions, st.integers(-3, 3)),
}


@given(st.sampled_from(sorted(_coordinates)).flatmap(
    lambda kind: st.integers(0, 4).flatmap(
        lambda d: st.lists(st.tuples(*[_coordinates[kind]] * d), min_size=1, max_size=6))))
def test_common_denominator_matches_the_properties(points):
    # on Fractions, ints, bools and Fraction subclasses alike, q is the lcm
    # of the denominators and the integer points are plain ints
    q, ints = exact.common_denominator(points)
    assert (q, ints) == _common_denominator_by_properties(points)
    assert type(q) is int and all(type(c) is int for p in ints for c in p)


def _sympy(rows, d):
    return sympy.Matrix(len(rows), d, [sympy.Rational(c.numerator, c.denominator)
                                       for r in rows for c in map(Fraction, r)])


@st.composite
def rational_rows(draw, d=None, count=None):
    """Rows of small Fractions and ints in dimension d (1-5 if not given),
    some of them combinations of earlier ones, so that rank-deficient and
    repeated rows are common."""
    d = draw(st.integers(1, 5)) if d is None else d
    entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6),
                                                    st.integers(1, 4)))
    rows = []
    for _ in range(draw(st.integers(0, 6)) if count is None else count):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entry), draw(entry)
            rows.append(tuple(x * p + y * q for p, q in zip(a, b)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=d, max_size=d))))
    return rows, d


@settings(max_examples=150, deadline=None)
@given(rational_rows())
def test_rank_and_null_direction_match_sympy(case):
    rows, d = case
    M = _sympy(rows, d)
    r = M.rank() if rows else 0
    assert exact.rank(rows) == r
    v = exact.null_direction(rows)
    if not rows or r == d:
        # no rows, or a null space of {0}
        assert v is None
        return
    assert len(v) == d and all(type(c) is Fraction for c in v) and any(v)
    assert all(sum(a * c for a, c in zip(row, v)) == 0 for row in rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    rational_rows(n, n), st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
                                  min_size=n, max_size=n))))
def test_solve_square_matches_sympy(case):
    # singular systems, consistent or not, have no unique solution
    (A, n), b = case
    x = exact.solve_square(A, b)
    if _sympy(A, n).det() == 0:
        assert x is None
        return
    assert len(x) == n
    assert all(sum(a * c for a, c in zip(row, x)) == bi for row, bi in zip(A, b))
    assert tuple(x) == tuple(_sympy(A, n).LUsolve(_sympy([(c,) for c in b], 1)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: rational_rows(n, n)))
def test_hyperplane_normal_matches_sympy(case):
    # the n points as rows; the normal is primitive and orthogonal to their
    # differences, of either sign, and exists iff they affinely span a
    # hyperplane
    points, n = case
    diffs = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    kernel = _sympy(diffs, n).nullspace() if diffs else [sympy.eye(n)[:, 0]]
    w = exact.hyperplane_normal(points)
    if len(kernel) != 1:
        assert w is None
        return
    assert all(type(c) is int for c in w) and gcd(*w) == 1
    assert all(sum(a * c for a, c in zip(w, p)) == 0 for p in diffs)
    k = [Fraction(int(c.p), int(c.q)) for c in kernel[0]]
    assert exact.rational_direction(k)[0] in (w, tuple(-c for c in w))
