"""Exact integer and rational linear algebra.

Vectors are plain tuples of ``int`` (lattice vectors) or ``Fraction``
(rational points).  Everything here is pure and exact; no floating point
is used anywhere in the package.
"""

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import attrgetter

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


def content(v):
    """gcd of the absolute values of the coordinates; 0 only for the zero vector."""
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g


def primitive(v):
    """Split an integer vector as ``m * w`` with ``w`` primitive and ``m > 0``.

    Returns ``(w, m)`` with ``m = content(v)``.  Raises ZeroVector on the
    zero vector.
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


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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


def det_rational(rows):
    """Determinant of a square matrix with Fraction entries."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare("determinant of a non-square matrix")
    denom = 1
    for r in rows:
        for c in r:
            denom = lcm(denom, Fraction(c).denominator)
    ints = [[int(Fraction(c) * denom) for c in r] for r in rows]
    return Fraction(det(ints), denom**n)


def is_lattice_basis(vectors):
    """True iff the given n integer vectors of dimension n form a basis of Z^n."""
    n = len(vectors)
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch("need n vectors of dimension n")
    return abs(det(vectors)) == 1


def solve_square(rows, rhs):
    """Solve an n x n rational system exactly.  Returns None if singular."""
    n = len(rows)
    d = det_rational(rows)
    if d == 0:
        return None
    # Cramer's rule; n <= 8 in practice.
    sol = []
    cols = list(zip(*rows))
    for j in range(n):
        repl = list(cols)
        repl[j] = rhs
        sol.append(det_rational(list(zip(*repl))) / d)
    return tuple(sol)


def rank(rows):
    """Rank of a matrix with rational entries, by fraction-free elimination."""
    if not rows:
        return 0
    m = [[Fraction(c) for c in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                for j in range(c, ncols):
                    m[i][j] -= f * m[r][j]
        r += 1
        if r == nrows:
            break
    return r


def hyperplane_normal(points):
    """Primitive integer normal of the hyperplane through n rational points in R^n.

    Returns None if the points do not span an (n-1)-dimensional affine hull.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    n = len(pts[0])
    if len(pts) != n:
        raise DimensionMismatch("need exactly n points in dimension n")
    diffs = [vec_sub(p, pts[0]) for p in pts[1:]]
    # Generalized cross product: cofactors of the (n-1) x n difference matrix.
    normal = []
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in diffs]
        c = det_rational(minor) if minor else Fraction(1)
        normal.append(c if j % 2 == 0 else -c)
    if all(c == 0 for c in normal):
        return None
    w, _ = rational_direction(normal)
    return w


def null_direction(rows):
    """A nonzero rational vector in the null space of the matrix, or None.

    Only used on small matrices; returns the first kernel basis vector found.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    # Gaussian elimination with free-variable back substitution.
    m = [[Fraction(c) for c in r] for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                for j in range(ncols):
                    m[i][j] -= f * m[r][j]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    f0 = free[0]
    sol = [Fraction(0)] * ncols
    sol[f0] = Fraction(1)
    for i, c in enumerate(pivots):
        sol[c] = -m[i][f0] / m[i][c]
    return tuple(sol)


def common_denominator(points):
    """q = the lcm of the denominators of every coordinate (ints or
    Fractions, read off ``.denominator``), and the integer points q * p.
    When q is 1 the integer points are the numerators."""
    q = lcm(*set(map(_denominator, chain.from_iterable(points))))
    if q == 1:
        return q, [tuple(map(_numerator, p)) for p in points]
    return q, [tuple([c.numerator * (q // c.denominator) for c in p]) for p in points]
