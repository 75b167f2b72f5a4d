from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from delzant import exact
from delzant.errors import ZeroVector


def test_content():
    assert exact.content((4, -2, 6)) == 2
    assert exact.content((0, 0)) == 0
    assert exact.content((3, 5)) == 1


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


def test_is_lattice_basis():
    assert exact.is_lattice_basis([(1, 0), (0, 1)])
    assert exact.is_lattice_basis([(1, 1), (0, 1)])
    assert not exact.is_lattice_basis([(2, 0), (0, 1)])


def test_rational_direction():
    w, t = exact.rational_direction((Fraction(3, 2), Fraction(-3, 2)))
    assert w == (1, -1) and t == Fraction(3, 2)


def test_hyperplane_normal():
    n = exact.hyperplane_normal([(1, 0), (0, 1)])
    assert n in ((1, 1), (-1, -1))
    assert exact.hyperplane_normal([(0, 0, 0), (1, 0, 0), (2, 0, 0)]) is None


def test_solve_square():
    assert exact.solve_square([(2, 0), (0, 3)], (4, 9)) == (2, 3)
    assert exact.solve_square([(1, 1), (2, 2)], (1, 1)) is None


nonzero_vec = (
    st.lists(st.integers(-50, 50), min_size=1, max_size=5)
    .map(tuple)
    .filter(lambda v: any(c != 0 for c in v))
)


@given(nonzero_vec)
def test_primitive_recomposes(v):
    w, m = exact.primitive(v)
    assert exact.content(w) == 1
    assert tuple(m * c for c in w) == v


@given(st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)), max_size=6))
def test_primitive_is_the_content_split(v):
    # negatives and zeros; the zero vector (all zeros, or no coordinate)
    # has no primitive direction
    m = exact.content(v)
    if m == 0:
        with pytest.raises(ZeroVector):
            exact.primitive(v)
        return
    w, got = exact.primitive(v)
    assert got == m and type(w) is tuple
    assert w == tuple(c // m for c in v) and exact.content(w) == 1


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
