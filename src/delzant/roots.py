"""Classical root systems in simple-root coordinates, Weyl orbits, and the
coadjoint-orbit GKM graphs built from a parabolic choice.

All coordinates are taken in the basis of simple roots, so the ambient
lattice is the root lattice and every reflection is integral.  The bilinear
form is the symmetrized Cartan matrix with long roots of square length 2.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import mul, neg

from .errors import DegenerateBasePoint, NotARoot, UnsupportedType
from .gkm import GkmGraph

_MAX_RANK = 6


def _cartan_matrix(kind, d):
    a = [[2 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(d - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if kind == "B" and d >= 2:
        # alpha_d short: <alpha_{d-1}, alpha_d^v> = -2
        a[d - 2][d - 1] = -2
    elif kind == "C" and d >= 2:
        # alpha_d long
        a[d - 1][d - 2] = -2
    elif kind == "D":
        a[d - 2][d - 1] = 0
        a[d - 1][d - 2] = 0
        a[d - 3][d - 1] = -1
        a[d - 1][d - 3] = -1
    elif kind == "G":
        a[0][1] = -1
        a[1][0] = -3
    return a


def _root_lengths(kind, d):
    # (alpha_i, alpha_i) / 2 for each simple root, long roots normalized to 2
    if kind == "B":
        return [Fraction(1)] * (d - 1) + [Fraction(1, 2)]
    if kind == "C":
        return [Fraction(1, 2)] * (d - 1) + [Fraction(1)]
    if kind == "G":
        return [Fraction(1, 3), Fraction(1)]
    return [Fraction(1)] * d


class RootSystem:
    def __init__(self, kind, rank):
        self.kind = kind
        self.rank = rank
        self.cartan = _cartan_matrix(kind, rank)
        # Column j holds <alpha_i, alpha_j^v> for every i.
        self._cartan_cols = list(zip(*self.cartan))
        half = _root_lengths(kind, rank)
        # The form in integers: gram[i][j] = m (alpha_i, alpha_j) =
        # cartan[i][j] m (alpha_j, alpha_j)/2, with m the lcm of the
        # denominators of the half squared lengths, so column j scales by
        # one integer.
        self.scale = lcm(*(h.denominator for h in half))
        col = [self.scale // h.denominator * h.numerator for h in half]
        self.gram = [list(map(mul, row, col)) for row in self.cartan]
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        ]
        roots = self.closure(self.simple_roots, range(rank))
        self.positive_roots = sorted(r for r in roots if all(c >= 0 for c in r))
        # The coroot covector of each root beta: c_i = <alpha_i, beta^v> =
        # 2 (alpha_i, beta) / (beta, beta), a Cartan integer (m cancels, so
        # the division is exact), so that <x, beta^v> = sum_i x_i c_i on
        # the root lattice.  It is odd in beta: -beta gets -c.
        self._coroot = {}
        for beta in self.positive_roots:
            gb = [sum(map(mul, row, beta)) for row in self.gram]
            bb = sum(map(mul, beta, gb))
            c = tuple(2 * a // bb for a in gb)
            self._coroot[beta] = c
            self._coroot[tuple(map(neg, beta))] = tuple(map(neg, c))

    def pairing(self, x, y):
        """The invariant bilinear form (x, y) in simple-root coordinates, as
        an exact Fraction."""
        gy = [sum(map(mul, row, y)) for row in self.gram]
        return Fraction(sum(map(mul, x, gy)), self.scale)

    def closure(self, seeds, gens):
        """The closure of the seed points under the simple reflections
        indexed by gens, by breadth-first search; a set."""
        # s_j subtracts t = <x, alpha_j^v> = sum_i x_i cartan[i][j] from
        # coordinate j, and fixes x when t = 0.
        cols = [(j, self._cartan_cols[j]) for j in gens]
        seen = set(seeds)
        frontier = list(seen)
        while frontier:
            nxt = []
            for p in frontier:
                for j, col in cols:
                    t = sum(map(mul, p, col))
                    if t:
                        s = list(p)
                        s[j] -= t
                        s = tuple(s)
                        if s not in seen:
                            seen.add(s)
                            nxt.append(s)
            frontier = nxt
        return seen

    def reflect(self, beta, x):
        """Reflection of x in the hyperplane orthogonal to the root beta:
        x - <x, beta^v> beta."""
        beta = tuple(beta)
        cov = self._coroot.get(beta)
        if cov is None:
            raise NotARoot(f"{beta} is not a root")
        t = sum(a * c for a, c in zip(x, cov))
        return tuple(a - t * b for a, b in zip(x, beta))


_WEYL_SIMPLE = {
    "A": lambda d: factorial(d + 1),
    "B": lambda d: 2**d * factorial(d),
    "C": lambda d: 2**d * factorial(d),
    "D": lambda d: 2 ** (d - 1) * factorial(d),
    "G": lambda d: 12,
}


def build(kind, rank):
    """Construct a root system of type A/B/C/D (rank <= 6) or G2."""
    kind = kind.upper()
    if kind == "G2":
        kind = "G"
    if kind not in ("A", "B", "C", "D", "G"):
        raise UnsupportedType(f"unsupported type {kind!r}")
    if kind == "G":
        if rank != 2:
            raise UnsupportedType("G root systems exist only in rank 2")
    elif kind == "D":
        if not 3 <= rank <= _MAX_RANK:
            raise UnsupportedType(f"type D needs rank between 3 and {_MAX_RANK}")
    elif kind == "B" or kind == "C":
        if not 2 <= rank <= _MAX_RANK:
            raise UnsupportedType(f"type {kind} needs rank between 2 and {_MAX_RANK}")
    elif not 1 <= rank <= _MAX_RANK:
        raise UnsupportedType(f"type A needs rank between 1 and {_MAX_RANK}")
    return RootSystem(kind, rank)


def weyl_order(rs):
    return _WEYL_SIMPLE[rs.kind](rs.rank)


def parabolic_span(rs, I):
    """Positive roots supported on the simple-root subset I."""
    I = set(I)
    if not I <= set(range(rs.rank)):
        raise UnsupportedType(f"invalid simple-root indices {sorted(I)}")
    return [r for r in rs.positive_roots if all(c == 0 for i, c in enumerate(r) if i not in I)]


def parabolic_order(rs, I):
    """Order of the parabolic subgroup W_I, by orbit of an I-regular point."""
    span = parabolic_span(rs, I)
    q = tuple(-sum(r[i] for r in span) for i in range(rs.rank))
    return len(rs.closure([q], I))


def base_point(rs, I):
    """The monotone base point p0 = -(sum of positive roots outside <I>)."""
    span = set(parabolic_span(rs, I))
    outside = [r for r in rs.positive_roots if r not in span]
    p0 = tuple(-sum(r[i] for r in outside) for i in range(rs.rank))
    for i in I:
        if rs.reflect(rs.simple_roots[i], p0) != p0:
            raise DegenerateBasePoint(f"p0 moved by the simple reflection {i}")
    # <p0, r^v> = 2 (p0, r) / (r, r) has the sign of (p0, r).
    for r in outside:
        if sum(map(mul, p0, rs._coroot[r])) >= 0:
            raise DegenerateBasePoint(f"p0 not strictly negative against {r}")
    return p0


def weyl_orbit(rs, p0):
    """Orbit of a point under the Weyl group, by simple-reflection closure."""
    return sorted(rs.closure([tuple(p0)], range(rs.rank)))


def coadjoint_graph(rs, I):
    """The coadjoint-orbit GKM graph of the parabolic choice I.

    Vertices are the Weyl orbit of the base point; two points are joined
    when a positive-root reflection swaps them.  s_beta maps p to
    p - t beta with t = <p, beta^v>, and flips the sign of t, so each edge
    is found once, at the end where t > 0.
    """
    p0 = base_point(rs, I)
    orbit = weyl_orbit(rs, p0)
    index = {p: i for i, p in enumerate(orbit)}
    degree = len(rs.positive_roots) - len(parabolic_span(rs, I))
    coroots = [(beta, tuple(map(neg, beta)), rs._coroot[beta]) for beta in rs.positive_roots]
    # The other end p - t beta comes first in the sorted orbit, as t > 0
    # and beta >= 0, so the edge is (j, i).  Its ends differ by t beta with
    # beta primitive: the weight j -> i is beta, i -> j is -beta, and the
    # length is t.
    edges = []
    for i, p in enumerate(orbit):
        for beta, minus, cov in coroots:
            t = sum(map(mul, p, cov))
            if t > 0:
                j = index[tuple([a - t * b for a, b in zip(p, beta)])]
                edges.append((j, i, beta, minus, t))
    edges.sort()
    return GkmGraph._from_edge_table(rs.rank, degree, orbit, edges)
