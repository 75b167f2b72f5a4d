"""Exact integer and rational linear algebra, and the two number rules.

Vectors are plain tuples of ``int`` (lattice vectors) or ``Fraction``
(rational points).  Everything here is pure and exact; no floating point
is used anywhere in the package.  A number given to the library is read by
``rational``; a number the library makes is made by ``ratio``, as an
``int`` when it is integral and as a ``Fraction`` only otherwise.

Besides the Bareiss determinant there is one elimination, ``eliminate``:
it starts the double-description hull, and it answers ``rank``,
``null_direction``, ``solve_square`` and ``hyperplane_normal`` on rows
cleared to integers.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import attrgetter, mul, neg

from .errors import DimensionMismatch, NonSquare, ZeroVector

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")

EXACT = {int, Fraction}  # the rational types read without an ABC check


def rational(c, what="coordinate"):
    """The one rule for a number given to the library: c itself if it is
    an int or a Fraction, else Fraction(c) for another rational number;
    TypeError names any other value as the ``what``."""
    if type(c) in EXACT:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"{what} {c!r} is not a rational number")
    return Fraction(c)


def ratio(p, q):
    """The one rule for a number the library makes: p/q for integers p and
    q != 0, as an int when q divides p, else as a Fraction."""
    return p // q if p % q == 0 else Fraction(p, q)


def primitive(v):
    """Split an integer vector as ``m * w`` with ``w`` primitive and ``m > 0``.

    Returns ``(w, m)`` with ``m = gcd(*v)``, the content of v: the gcd of
    the absolute values of its coordinates.  Raises ZeroVector on the zero
    vector.
    """
    m = gcd(*v)
    if m == 0:
        raise ZeroVector("the zero vector has no primitive direction")
    return tuple([c // m for c in v]) if m > 1 else tuple(v), m


def rational_direction(delta):
    """Primitive lattice direction of a rational displacement.

    Given a nonzero tuple of Fractions (or ints) ``delta``, returns
    ``(w, t)`` with ``w`` a primitive integer vector, ``t`` a positive
    Fraction, and ``delta = t * w``.
    """
    fracs = [Fraction(c) for c in delta]
    if all(c == 0 for c in fracs):
        raise ZeroVector("zero displacement")
    denom = lcm(*(c.denominator for c in fracs))
    ints = [int(c * denom) for c in fracs]
    w, m = primitive(ints)
    return w, Fraction(m, denom)


def dot(a, b):
    if len(a) != len(b):
        raise DimensionMismatch(f"dot of lengths {len(a)} and {len(b)}")
    return sum(x * y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def det(rows):
    """Exact determinant of a square integer matrix via Bareiss elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("determinant of a non-square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_lattice_basis(vectors):
    """True iff the given n integer vectors of dimension n form a basis of Z^n."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch("need n vectors of dimension n")
    return abs(det(vectors)) == 1


def eliminate(rows, d):
    """One fraction-free elimination of integer rows of length d: returns
    ``(chosen, rays, free)``.

    ``free`` spans the vectors tight on the rows chosen so far, starting
    from e_1, ..., e_d.  Each row is paired once with each free vector.  The
    first free vector y that pairs nonzero chooses the row and, made
    positive on it (<row, y> = s > 0), is its ray; each later free vector
    and each earlier ray x that pairs t != 0 becomes the primitive
    s x - t y, tight on the row.  So ``chosen`` holds the indices of the
    rows independent of the rows before them, ray j is primitive, tight on
    every chosen row but row j and positive on row j, and ``free`` is a
    basis of primitive vectors of the null space of the chosen rows.  The
    elimination stops once ``free`` is empty, so the rows have rank
    ``len(chosen)`` and ``free`` is a basis of their null space.
    """
    chosen, rays = [], []
    free = [(0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d)]
    for i, row in enumerate(rows):
        y, kept = None, []
        for x in free:
            t = sum(map(mul, row, x))
            if t and y is None:
                y, s = (x, t) if t > 0 else (tuple(map(neg, x)), -t)
            else:
                kept.append(primitive([s * a - t * b for a, b in zip(x, y)])[0] if t else x)
        if y is None:
            continue
        made = []
        for x in rays:
            t = sum(map(mul, row, x))
            made.append(primitive([s * a - t * b for a, b in zip(x, y)])[0] if t else x)
        free, rays = kept, made + [y]
        chosen.append(i)
        if not free:
            break
    return chosen, rays, free


def _integer_rows(rows):
    """Each rational row times the lcm of its denominators: a positive row
    scale keeps the rank and the null space."""
    return [common_denominator([r])[1][0] for r in rows]


def rank(rows):
    """Rank of a matrix with rational entries: the number of rows its
    elimination chooses."""
    return len(eliminate(_integer_rows(rows), len(rows[0]) if rows else 0)[0])


def null_direction(rows):
    """A nonzero rational vector in the null space of the matrix, the first
    free vector of its elimination, or None if there are no rows or the
    null space is {0}."""
    free = eliminate(_integer_rows(rows), len(rows[0]))[2] if rows else None
    return tuple(map(Fraction, free[0])) if free else None


def solve_square(rows, rhs):
    """Solve an n x n rational system exactly.  Returns None if singular.

    A solution x is a null vector (x, 1) of [A | -b]; there is exactly one
    up to scale, with a nonzero last coordinate, iff A is nonsingular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("solve of a non-square system")
    free = eliminate(_integer_rows([(*r, -b) for r, b in zip(rows, rhs)]), n + 1)[2]
    if len(free) != 1 or free[0][n] == 0:
        return None
    *v, s = free[0]
    return tuple([Fraction(c, s) for c in v])


def hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through n rational points in R^n.

    The single free vector of the points' differences, at one common
    denominator; None if there is more than one, that is if the points do
    not span an (n-1)-dimensional affine hull.
    """
    n = len(points[0])
    if len(points) != n:
        raise DimensionMismatch("need exactly n points in dimension n")
    _, (p, *pts) = common_denominator(points)
    free = eliminate([[a - b for a, b in zip(x, p)] for x in pts], n)[2]
    return free[0] if len(free) == 1 else None


def common_denominator(points):
    """q = the lcm of the denominators of every coordinate (ints or
    Fractions, read off ``.denominator``), and the integer points q * p.
    When q is 1 the integer points are the numerators."""
    q = lcm(*set(map(_denominator, chain.from_iterable(points))))
    if q == 1:
        return q, [tuple(map(_numerator, p)) for p in points]
    return q, [tuple([c.numerator * (q // c.denominator) for c in p]) for p in points]
