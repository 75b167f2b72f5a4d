"""Classical root systems in simple-root coordinates, Weyl orbits, and the
coadjoint-orbit GKM graphs built from a parabolic choice.

All coordinates are taken in the basis of simple roots, so the ambient
lattice is the root lattice and every reflection is integral.  The bilinear
form is the symmetrized Cartan matrix with long roots of square length 2.
"""

from fractions import Fraction
from functools import cache
from itertools import repeat
from math import factorial, lcm
from operator import mul, neg

from . import gkm
from .errors import DegenerateBasePoint, NotARoot, UnsupportedType

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
        # The positive roots, up from the simple roots: for beta != alpha_j,
        # s_j beta = beta - <beta, alpha_j^v> alpha_j is a positive root, and
        # each non-simple one is reached from a lower one.  images[beta][j]
        # is s_j beta, recorded as it is found (alpha_j for -alpha_j).
        found = list(self.simple_roots)
        images = dict.fromkeys(found)
        for beta in found:  # grows while it is read
            row = images[beta] = []
            for j, col in enumerate(self._cartan_cols):
                img = beta
                if beta != self.simple_roots[j]:
                    img = beta[:j] + (beta[j] - sum(map(mul, beta, col)),) + beta[j + 1:]
                    if img not in images:
                        images[img] = None
                        found.append(img)
                row.append(img)
        self.positive_roots = sorted(found)
        # _reflected[j][b]: the place of s_j beta_b in positive_roots.
        at = {beta: b for b, beta in enumerate(self.positive_roots)}
        self._reflected = [
            tuple(at[images[beta][j]] for beta in self.positive_roots) for j in range(rank)
        ]
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


@cache
def _tables(kind, rank):
    return vars(RootSystem(kind, rank))


def build(kind, rank):
    """A root system of type A/B/C/D (rank <= 6) or G2.

    Each call returns a new object, so a caller that reassigns one of its
    attributes changes only that object.  The tables it holds are made
    once per (type, rank) in a process and shared by every system of that
    type and rank: they are read-only."""
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
    rs = RootSystem.__new__(RootSystem)
    rs.__dict__.update(_tables(kind, rank))
    return rs


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


def _walk(rs, p0):
    """The Weyl orbit of the antidominant point p0 in sorted order, walked
    by simple reflections: the place values of the keys and, per point,
    its key, the point and its pairing vector <p, beta^v> over the positive
    roots.  Only p0's vector is made by dot products: as <s_j p, beta^v>
    = <p, (s_j beta)^v>, s_j p takes the vector of p permuted by the s_j
    table, with the alpha_j entry negated (s_j alpha_j = -alpha_j).

    A point's key is sum_i p_i R^(d-1-i).  The orbit lies coordinatewise
    between p0 and w0 p0, whose coordinates are those of -p0 permuted, so
    with R = 2 max |p0_i| + 1 keys are distinct, sort as the points do, and
    are linear.
    """
    d = rs.rank
    betas = rs.positive_roots
    R = 2 * max(map(abs, p0), default=0) + 1
    place = [R ** (d - 1 - i) for i in range(d)]
    simple = [(j, rs._reflected[j], betas.index(rs.simple_roots[j]), place[j])
              for j in range(d)]
    points = [p0]
    pairings = [[sum(map(mul, p0, rs._coroot[beta])) for beta in betas]]
    keys = [sum(map(mul, p0, place))]
    seen = set(keys)
    # The lists grow while they are read: each new point is visited in turn.
    for p, tv, k in zip(points, pairings, keys):
        for j, perm, a, e in simple:
            t = tv[a]
            kq = k - t * e
            if t and kq not in seen:
                seen.add(kq)
                keys.append(kq)
                q = list(p)
                q[j] -= t
                points.append(tuple(q))
                tq = [tv[b] for b in perm]
                tq[a] = -t
                pairings.append(tq)
    # The keys are distinct, so the sort never compares the rest.
    keys, points, pairings = zip(*sorted(zip(keys, points, pairings)))
    return place, keys, points, pairings


def coadjoint_graph(rs, I):
    """The coadjoint-orbit GKM graph of the parabolic choice I.

    Vertices are the sorted Weyl orbit of the base point; two points are
    joined when a positive-root reflection swaps them.  s_beta maps p to
    p - t beta, t = <p, beta^v>, so that edge has weight -sign(t) beta
    away from p and length |t|; it is written at its lower end, where
    t < 0 (beta >= 0), and its other end is found by key.
    """
    p0 = base_point(rs, I)
    place, keys, points, pairings = _walk(rs, p0)
    betas = rs.positive_roots
    encoded = [sum(map(mul, beta, place)) for beta in betas]
    index = {k: u for u, k in enumerate(keys)}
    edges, forward, lengths = [], [], []
    for u, (k, tv) in enumerate(zip(keys, pairings)):
        # The edges to the higher neighbours, by the neighbour's place.
        row = sorted([(index[k - t * e], -t, beta)
                      for t, e, beta in zip(tv, encoded, betas) if t < 0])
        if row:
            vs, ts, bs = zip(*row)
            edges.extend(zip(repeat(u), vs))
            lengths.extend(ts)
            forward.extend(bs)
    degree = sum(1 for t in pairings[0] if t)
    return gkm.GkmGraph._from_edge_table(rs.rank, degree, points, edges, forward, lengths)
