"""Classical root systems in simple-root coordinates, Weyl orbits, and the
coadjoint-orbit GKM graphs built from a parabolic choice.

All coordinates are taken in the basis of simple roots, so the ambient
lattice is the root lattice and every reflection is integral.  Pairings
<x, beta^v> are read off the integer coroot covectors, so no invariant form
and no Fraction is taken.
"""

from functools import cache
from itertools import repeat
from math import factorial
from operator import mul, neg

from . import gkm
from .errors import NotARoot, UnsupportedType

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


class RootSystem:
    def __init__(self, kind, rank):
        self.kind = kind
        self.rank = rank
        self.cartan = _cartan_matrix(kind, rank)
        # Column j holds <alpha_i, alpha_j^v> for every i.
        self._cartan_cols = cols = list(zip(*self.cartan))
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        ]
        # The positive roots, up from the simple roots: for beta != alpha_j,
        # s_j beta = beta - t alpha_j, t = row_j, is a positive root, and
        # each non-simple one is reached from a lower one.  A root carries
        # its Cartan row <beta, alpha_k^v> and coroot c_k = <alpha_k, beta^v>
        # (<x, beta^v> = sum_k x_k c_k): s_j beta has row - t cartan[j] and
        # c - c_j (column j).  images[beta][j] is s_j beta (alpha_j for -alpha_j).
        found = list(zip(self.simple_roots, self.cartan, cols))
        images = dict.fromkeys(self.simple_roots)
        self._coroot = coroot = {}
        for beta, row, c in found:  # grows while it is read
            coroot[beta] = c
            coroot[tuple(map(neg, beta))] = tuple(map(neg, c))
            images[beta] = imgs = []
            for j, t in enumerate(row):
                img = beta
                if t and beta != self.simple_roots[j]:
                    img = beta[:j] + (beta[j] - t,) + beta[j + 1:]
                    if img not in images:
                        images[img] = None
                        found.append((img, [a - t * b for a, b in zip(row, self.cartan[j])],
                                      tuple([a - c[j] * b for a, b in zip(c, cols[j])])))
                imgs.append(img)
        self.positive_roots = sorted(images)
        # _reflected[j][b]: the place of s_j beta_b in positive_roots.
        at = {beta: b for b, beta in enumerate(self.positive_roots)}
        self._reflected = [
            tuple(at[images[beta][j]] for beta in self.positive_roots) for j in range(rank)
        ]

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
    rest = [i for i in range(rs.rank) if i not in I]
    return [r for r in rs.positive_roots if not any(map(r.__getitem__, rest))]


def parabolic_order(rs, I):
    """Order of the parabolic subgroup W_I, by orbit of an I-regular point."""
    span = parabolic_span(rs, I)
    q = tuple(-sum(r[i] for r in span) for i in range(rs.rank))
    return len(rs.closure([q], I))


def _base(rs, I):
    """The monotone base point p0 = -(2 rho - 2 rho_I), minus the sum of the
    positive roots outside <I>, and its pairing vector <p0, beta^v> over
    the positive roots, the first vector of the walk.  p0 needs no check:
    - for i in I, s_i permutes the positive roots outside <I>, so s_i p0 =
      p0 and <p0, alpha_i^v> = 0;
    - for j not in I, <2 rho, alpha_j^v> = 2 and <2 rho_I, alpha_j^v> <= 0,
      so <p0, alpha_j^v> < 0;
    - a positive root r outside <I> has r^v = sum_j c_j alpha_j^v with every
      c_j >= 0 and c_j > 0 for some j not in I, so <p0, r^v> < 0.
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2 Lemma B and 13.3 Lemma A.)"""
    span = set(parabolic_span(rs, I))
    betas = rs.positive_roots
    p0 = tuple([-sum(c) for c in zip((0,) * rs.rank, *[r for r in betas if r not in span])])
    return p0, [sum(map(mul, p0, rs._coroot[beta])) for beta in betas]


def base_point(rs, I):
    """The monotone base point p0 = -(sum of positive roots outside <I>)."""
    return _base(rs, I)[0]


def weyl_orbit(rs, p0):
    """Orbit of a point under the Weyl group, by simple-reflection closure."""
    return sorted(rs.closure([tuple(p0)], range(rs.rank)))


def _walk(rs, p0, tv):
    """The Weyl orbit of the antidominant point p0 in sorted order, walked
    by simple reflections from p0 and its pairing vector tv over the
    positive roots: the place values of the keys and, per point, its key,
    the point and its pairing vector <p, beta^v>.  As <s_j p, beta^v> =
    <p, (s_j beta)^v>, s_j p takes the vector of p permuted by the s_j
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
    pairings = [tv]
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
    place, keys, points, pairings = _walk(rs, *_base(rs, I))
    betas = rs.positive_roots
    encoded = [sum(map(mul, beta, place)) for beta in betas]
    index = {k: u for u, k in enumerate(keys)}
    edges, forward, lengths = [], [], []
    for u, (k, tv) in enumerate(zip(keys, pairings)):
        # The edges to the higher neighbours, by the neighbour's place.
        row = sorted([(index[k - t * e], -t, b)
                      for t, e, b in zip(tv, encoded, range(len(betas))) if t < 0])
        if row:
            vs, ts, bs = zip(*row)
            edges.extend(zip(repeat(u), vs))
            lengths.extend(ts)
            forward.extend(bs)
    degree = sum(1 for t in pairings[0] if t)
    return gkm.GkmGraph._from_edge_table(rs.rank, degree, points, edges, betas, forward, lengths)
