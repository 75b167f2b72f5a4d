"""Embedded GKM graphs, the one weighted 1-skeleton shared with polytopes:
validation, reflexive and Gorenstein checks, generic directions, directed
h-vectors, and the edge-length-sum identity for graphs."""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat
from math import gcd
from operator import itemgetter, mul, neg, sub

from . import bounds, exact
from .errors import (
    DimensionMismatch,
    DirectionDependent,
    InvalidGraph,
    NonGenericDirection,
    NonPositiveIndex,
    InconsistentIndex,
    NotDelzant,
    NotReflexive,
    ZeroVector,
)
from .report import VerificationReport

_GENERIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _ratio(a, b):
    """a / b as an int when b divides a, else as a Fraction."""
    return a // b if a % b == 0 else Fraction(a, b)


class GkmGraph:
    """An n-regular graph embedded in Q^d with derived primitive edge weights.

    Vertices are identified by hashable ids; ``coords`` keeps each vertex's
    coordinates as given (ints or Fractions).  The graph is made integer
    once: q is the lcm of the coordinate denominators and ``lattice`` holds
    the integer points q * p.  Each edge's weight and length are derived
    from the integer difference d of its ends, as d / gcd(d) and
    gcd(d) / q, never given independently.  ``_on_points`` takes the
    integer points as already made (``Polytope.skeleton`` has them from
    the incidence pass); the one exception to the derivation is
    ``_from_edge_table``, which ``roots.coadjoint_graph`` calls with every
    edge's weight and length already known.  ``_folded`` keeps the graph's
    ``_fold`` once made.

    The edges are held as three columns: ``edge_list`` and, edge by edge,
    ``_weight_col`` (the weights u -> v) and ``_length_col``.  Readers of
    per-edge values and degrees read the columns.  ``star``, ``weight``,
    ``length`` and ``incident`` read tables by edge: ``_weight`` in both
    orientations, ``_length``, and ``_incident``, the edges at each vertex.
    These are views of the columns, made the first time they are read.
    """

    _folded = None

    def __init__(self, ambient_dim, degree, vertices, edges):
        coords = {}
        for vid, pt in vertices:
            if vid in coords:
                raise InvalidGraph(f"duplicate vertex id {vid!r}")
            if len(pt) != ambient_dim:
                raise InvalidGraph(f"vertex {vid!r} has wrong dimension")
            coords[vid] = tuple(pt)
        if not coords:
            raise InvalidGraph("a graph needs at least one vertex")
        q, points = exact.common_denominator(coords.values())
        self._fill(ambient_dim, degree, coords, q, points, edges)

    @classmethod
    def _on_points(cls, ambient_dim, degree, coords, q, points, edges):
        """The graph on the ids 0, 1, ... of the distinct points ``coords``
        (tuples of length ambient_dim), from their integer points already
        made: ``q, points`` is ``exact.common_denominator(coords)``.  The
        edges go through the same checks and derivations as in
        ``__init__``."""
        G = cls.__new__(cls)
        G._fill(ambient_dim, degree, dict(enumerate(coords)), q, points, edges)
        return G

    @classmethod
    def _from_edge_table(cls, ambient_dim, degree, points, edge_list, weights, lengths):
        """The graph on the ids 0, 1, ... of distinct integer points, from
        three columns: its edges (u, v) sorted by (u, v) and, edge by edge,
        the weights u -> v and the lengths, which ``__init__`` would derive
        from the same points and edges, taken as given.  The caller vouches
        for every edge."""
        G = cls.__new__(cls)
        G.ambient_dim = ambient_dim
        G.degree = degree
        G.ids = list(range(len(points)))
        G.coords = G.lattice = dict(enumerate(points))
        G.q = 1
        G.edge_list = edge_list
        G._weight_col = weights
        G._length_col = lengths
        return G

    def _fill(self, ambient_dim, degree, coords, q, points, edges):
        """Set the columns from the coordinates by id, their common
        denominator q and their integer points (in the order of
        ``coords``), deriving each edge's weight and length."""
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.coords = coords
        self.ids = list(coords)
        self.q = q
        self.lattice = lattice = dict(zip(coords, points))
        self.edge_list = edge_list = []
        self._weight_col = weights = []
        self._length_col = lengths = []
        seen = set()  # the edges so far, in both orientations
        for u, v in edges:
            if u not in lattice or v not in lattice:
                raise InvalidGraph(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            if u == v:
                raise InvalidGraph(f"loop at {u!r}")
            e = (u, v)
            if e in seen:
                raise InvalidGraph(f"repeated edge ({u!r}, {v!r})")
            seen.add(e)
            seen.add((v, u))
            d = tuple(map(sub, lattice[v], lattice[u]))
            g = gcd(*d)
            if g == 0:
                raise ZeroVector("zero displacement")
            if g != 1:
                d = tuple([c // g for c in d])
            edge_list.append(e)
            weights.append(d)
            lengths.append(_ratio(g, q))

    @cached_property
    def _weight(self):
        cols = self._weight_col
        minus = {w: tuple(map(neg, w)) for w in set(cols)}
        weight = dict(zip(self.edge_list, cols))
        weight.update(zip(map(itemgetter(1, 0), self.edge_list), map(minus.__getitem__, cols)))
        return weight

    @cached_property
    def _length(self):
        return dict(zip(self.edge_list, self._length_col))

    @cached_property
    def _incident(self):
        incident = {vid: [] for vid in self.ids}
        for e in self.edge_list:
            incident[e[0]].append(e)
            incident[e[1]].append(e)
        return incident

    def edges(self):
        return list(self.edge_list)

    def incident(self, vid):
        """The edges at vid, in ``edge_list`` order."""
        return list(self._incident[vid])

    def weight(self, edge, tail=None):
        """Primitive direction of the edge, oriented away from ``tail``."""
        u, v = edge
        if tail is not None and tail == v:
            u, v = v, u
        return self._weight[u, v]

    def length(self, edge):
        """Lattice length of the edge, given in either orientation."""
        u, v = edge
        return self._length[(u, v) if (u, v) in self._length else (v, u)]

    def sum_lengths(self):
        return sum(self._length_col)


def _degrees(G):
    """The number of edges at each vertex, counted from their ends, as a
    Counter without the vertices of degree 0."""
    return Counter(chain.from_iterable(G.edge_list))


def star(G, vid):
    """The star of vid, in edge order: its neighbours and the weights
    leaving vid toward them.  The one reader of a vertex's star: outside
    GkmGraph's methods, only this reads the adjacency table or orients a
    weight away from a given vertex."""
    weight = G._weight
    others = [v if u == vid else u for u, v in G._incident[vid]]
    return others, [weight[vid, o] for o in others]


_Fold = namedtuple("_Fold", "sums censuses")


def _fold(degree, dim, leaving):
    """One pass over the weights leaving each vertex (``leaving``, in id
    order) of a graph of the given degree in Q^dim.  ``sums``: the weight
    sum at each vertex, or None when a vertex has not ``degree`` weights
    or two of them are parallel (the GKM condition).  ``censuses``: the
    in-degree censuses under the first three distinct candidates, or None
    when a vertex has not ``degree`` weights or a candidate vanishes on a
    weight.  A vertex's in-degree is the number of weights leaving it that
    pair negatively with the direction.  Each distinct weight is paired
    once, which pays on orbit graphs: 84% of the weights leaving the
    vertices of the ``weyl`` bench corpus repeat an earlier one."""
    xis = list(dict.fromkeys(tuple(b**i for i in range(dim)) for b in _GENERIC_BASES[:3]))
    # Per weight, made once with its negative: its line +-w, and a code
    # with the bit of field c set when w pairs negatively with xis[c], and
    # the top bit when it pairs to 0.  A field holds a degree, so a
    # vertex's codes sum to its in-degrees under every candidate at once.
    shift = degree.bit_length()
    bits = [1 << shift * c for c in range(len(xis))]
    vanished = 1 << shift * len(xis)
    seen = {}

    def new(w):
        m = tuple(map(neg, w))
        below = above = 0
        for xi, bit in zip(xis, bits):
            pair = sum(map(mul, w, xi))
            if pair < 0:
                below += bit
            elif pair > 0:
                above += bit
            else:
                below |= vanished
                above |= vanished
        line = max(w, m)
        seen[m] = (line, above)
        seen[w] = got = (line, below)
        return got

    zero = (0,) * dim
    sums, codes = [], []
    regular = independent = True
    for ws in leaving:
        got = [seen.get(w) or new(w) for w in ws]
        regular = regular and len(ws) == degree
        independent = independent and len({line for line, _ in got}) == len(ws)
        sums.append(tuple(map(sum, zip(*ws))) or zero)
        codes.append(sum([code for _, code in got]))
    censuses = None
    if regular and all(code < vanished for code in codes):
        mask = (1 << shift) - 1
        censuses = [[0] * (degree + 1) for _ in xis]
        for code, count in Counter(codes).items():
            for c, h in enumerate(censuses):
                h[code >> shift * c & mask] += count
        censuses = list(map(tuple, censuses))
    return _Fold(sums if regular and independent else None, censuses)


def _fold_of(G):
    """G's fold, made on first use and kept.  One pass over the edge
    columns gives the weights leaving each vertex in ``G.ids`` and edge
    order, the order of its star: w at u and -w at v."""
    if G._folded is None:
        cols = G._weight_col
        minus = {w: tuple(map(neg, w)) for w in set(cols)}
        leaving = {vid: [] for vid in G.ids}
        for (u, v), w in zip(G.edge_list, cols):
            leaving[u].append(w)
            leaving[v].append(minus[w])
        G._folded = _fold(G.degree, G.ambient_dim, leaving.values())
    return G._folded


def validate(G):
    """Regularity, the GKM pairwise-independence condition, simple edges,
    with one degree item and one GKM item per vertex."""
    rep = VerificationReport("gkm-valid", True)
    for vid in G.ids:
        ws = star(G, vid)[1]
        # Two primitive weights are dependent iff one is +-the other, so k
        # weights are independent iff the 2k weights +-w are distinct.
        indep = len({*ws, *(tuple(map(neg, w)) for w in ws)}) == 2 * len(ws)
        rep.add_item(
            f"degree {vid}", len(ws) == G.degree,
            {"degree": len(ws), "expected": G.degree},
        )
        rep.add_item(f"gkm-condition {vid}", indep, {"weights": [list(w) for w in ws]})
    return rep


def is_reflexive_graph(G):
    """Weight sum -v at every vertex, lattice vertices, vertex sum zero."""
    sums = _fold_of(G).sums
    if sums is None:
        raise InvalidGraph("graph fails GKM validation")
    rep = VerificationReport("gkm-reflexive", True)
    for vid, s in zip(G.ids, sums):
        v, L = G.coords[vid], G.lattice[vid]
        rep.add_item(f"lattice {vid}", all(c % G.q == 0 for c in L), {"coords": list(v)})
        s = list(s)
        ok = all(G.q * a == -b for a, b in zip(s, L))
        rep.add_item(f"weight-sum {vid}", ok, {"sum": s, "vertex": list(v)})
    total = [sum(col) for col in zip(*G.coords.values())]
    rep.add_item("vertex-sum-zero", all(c == 0 for c in total), {"sum": total})
    return rep


def _index_at(G, vid, s):
    """The index r = -q * s_k / L_k that the weight sum s at vid gives,
    with L = q*v the integer point and k its first nonzero coordinate;
    InvalidGraph at the origin, InconsistentIndex when s is not parallel
    to L, that is when s_i * L_k != s_k * L_i for some i."""
    L = G.lattice[vid]
    k = next((i for i, c in enumerate(L) if c), None)
    if k is None:
        raise InvalidGraph("vertex at the origin has no well-defined index")
    if any(a * L[k] != s[k] * b for a, b in zip(s, L)):
        raise InconsistentIndex(f"weight sum at {vid!r} is not parallel to the vertex")
    return _ratio(-G.q * s[k], L[k])


def gorenstein_index(G):
    """The unique r > 0 with weight sum = -r*v at every vertex.

    r is read at the first vertex.  With r = a/b and L = q*v the integer
    point, every vertex then needs q*b*s = -a*L and L != 0, one integer
    list comparison; the first vertex that fails it is diagnosed as the
    first one was.
    """
    sums = _fold_of(G).sums
    if sums is None:
        raise InvalidGraph("graph fails GKM validation")
    r = _index_at(G, G.ids[0], sums[0])
    qb, a = repeat(G.q * r.denominator), repeat(-r.numerator)
    for vid, s, L in zip(G.ids, sums, map(G.lattice.__getitem__, G.ids)):
        if list(map(mul, s, qb)) != list(map(mul, L, a)) or not any(L):
            cand = _index_at(G, vid, s)
            raise InconsistentIndex(f"index {cand} at {vid!r} disagrees with {r}")
    if r <= 0:
        raise NonPositiveIndex(f"computed index {r}")
    return r


def _candidates(G):
    """The distinct directions (1, b, b^2, ...), b prime, in order of b,
    then (1, B, B^2, ...) with B = 2m + 1, m the largest absolute
    coordinate of an edge weight.  The last is generic: a weight w is
    nonzero with every |w_i| <= m, so <w, xi> = sum w_i B^i is w written in
    balanced base B, which is 0 only for w = 0.  It is made only when the
    primes are used up."""
    seen = set()
    for b in _GENERIC_BASES:
        xi = tuple(b**i for i in range(G.ambient_dim))
        if xi not in seen:
            seen.add(xi)
            yield xi
    m = max((abs(c) for w in G._weight_col for c in w), default=0)
    xi = tuple((2 * m + 1) ** i for i in range(G.ambient_dim))
    if xi not in seen:
        yield xi


def _in_degrees(G, xi):
    """The number of edges at each vertex that xi orients into it, as a
    Counter without the vertices of in-degree 0, from one pairing per edge:
    the end that xi puts higher is the head.  None when xi vanishes on an
    edge weight."""
    heads = []
    for e, w in zip(G.edge_list, G._weight_col):
        pair = sum(map(mul, w, xi))
        if not pair:
            return None
        heads.append(e[1] if pair > 0 else e[0])
    return Counter(heads)


def generic_direction(G, avoid=()):
    """The first generic direction that is not in ``avoid``."""
    for xi in _candidates(G):
        if xi not in avoid and _in_degrees(G, xi) is not None:
            return xi
    raise NonGenericDirection("no generic direction among the built-in candidates")


def _h_for_xi(G, xi):
    """The in-degree census of a regular graph under xi, or None when xi is
    not generic."""
    indeg = _in_degrees(G, xi)
    if indeg is None:
        return None
    h = [0] * (G.degree + 1)
    h[0] = len(G.ids) - len(indeg)
    for k in indeg.values():
        h[k] += 1
    return tuple(h)


def first_census(G):
    """The in-degree census of a regular graph under its first generic
    candidate direction, from one pass per candidate tried.  A polytope
    needs this census alone, and one pairing per edge costs less than
    ``_fold``'s sums and three censuses from both ends of each edge."""
    return next(h for h in (_h_for_xi(G, xi) for xi in _candidates(G)) if h is not None)


def h_vector_graph(G, xi=None):
    """In-degree census under a generic direction.

    The graph must be regular: a fold already kept on the graph proves it
    when it has its sums or censuses, and otherwise each vertex's edges
    are counted, which names the first vertex that fails.  When no
    direction is supplied, the censuses under the first three candidate
    directions (ambient dimension 1 has only one) come from the graph's
    fold; if one of them vanishes on a weight, the census is taken under
    each candidate in turn and the vanishing ones are dropped.  The three
    censuses must agree; a disagreement means the graph is not of the
    manifold type where the census is direction-independent.
    """
    # A vertex has at most |V| - 1 edges, so a larger degree cannot be met
    # by any vertex; say so before naming one.
    if G.degree >= len(G.ids):
        raise InvalidGraph(f"degree {G.degree} is more than {len(G.ids)} vertices allow")
    fold = G._folded
    if fold is None or fold.sums is None and fold.censuses is None:
        degrees = _degrees(G)
        for vid in G.ids:
            k = degrees[vid]
            if k != G.degree:
                raise InvalidGraph(f"vertex {vid!r} has {k} edges, not {G.degree}")
    if xi is not None:
        xi = tuple(xi)
        if len(xi) != G.ambient_dim:
            raise DimensionMismatch(
                f"direction of length {len(xi)} in ambient dimension {G.ambient_dim}"
            )
        h = _h_for_xi(G, xi)
        if h is None:
            raise NonGenericDirection(f"direction {xi} vanishes on an edge weight")
        return h
    results = _fold_of(G).censuses
    if results is None:
        # A candidate vanishes on a weight: drop it and take the next.  The
        # last candidate is generic, so there is at least one census.
        censuses = (_h_for_xi(G, d) for d in _candidates(G))
        results = list(islice((h for h in censuses if h is not None), 3))
    if len(set(results)) != 1:
        raise DirectionDependent(f"h-vector depends on the direction: {results}")
    return results[0]


def verify_graph_corollary(G):
    """Sum of edge lengths against C(n, h) / r."""
    r = gorenstein_index(G)
    h = h_vector_graph(G)
    total = G.sum_lengths()
    rhs = _ratio(bounds.c_from_h(G.degree, h) * r.denominator, r.numerator)
    rep = VerificationReport("graph-length-sum", total == rhs, total, (rhs,))
    rep.add_item("index", True, {"r": r})
    rep.add_item("h-vector", True, {"h": list(h)})
    return rep


# -- polytopes ------------------------------------------------------------------
# The Delzant and reflexive checks live here, not in reflexive, because
# from_polytope needs them and the polytope module imports this one for
# Polytope.skeleton(); reflexive imports both.


def is_delzant(P):
    """Simplicity, rationality and smoothness at each vertex, from one pass
    over the skeleton's edges: the report ``check delzant`` prints.

    The edges of a polytope with rational vertices are always rational.  A
    vertex is smooth when its n weights form a lattice basis.  A vertex
    with n edges lies on exactly n facets (its vertex figure is a simplex),
    and each edge there leaves exactly one of them, a different one for
    each edge.  With the primitive normals a_i of those facets as the rows
    of A and the weights w_i of the edges leaving them as the columns of W,
    A W is diagonal with the negative entries <a_i, w_i>.  If each is -1,
    det A det W = +-1 in integers, so |det W| = 1.  If |det W| = 1, then
    A = D W^-1 with W^-1 integral, so each entry of D divides the
    primitive row a_i and is -1.  So the vertex is smooth iff each weight
    pairs to -1 with the normal of the facet its edge leaves.

    The check runs edge by edge: the edge u v with weight w leaves the
    highest facet i at u not through v, and the highest facet j at v not
    through u, and it tests <a_i, w> = -1 at u and <a_j, w> = 1 at v.  A
    vertex is smooth iff it has n edges and every test at it passed; the
    edges at a vertex with n edges leave distinct facets, so each of its
    pairs is tested.  The weights by facet left at each vertex, a dict in
    edge order, are kept as P._leaving, and the verdict as P._delzant.
    """
    S = P.skeleton()
    n = P.dim
    at_vertex = P._incidence_bits()[0]
    normals = [h.normal for h in P.facets]
    leaving = [{} for _ in at_vertex]
    smooth = [True] * len(at_vertex)
    for (u, v), w in zip(S.edge_list, S._weight_col):
        at_u, at_v = at_vertex[u], at_vertex[v]
        i = (at_u & ~at_v).bit_length() - 1
        j = (at_v & ~at_u).bit_length() - 1
        leaving[u][i] = w
        leaving[v][j] = tuple(map(neg, w))
        if sum(map(mul, normals[i], w)) != -1:
            smooth[u] = False
        if sum(map(mul, normals[j], w)) != 1:
            smooth[v] = False
    degrees = _degrees(S)
    rep = VerificationReport("delzant", True)
    rep.add_item("simple", all(degrees[vid] == n for vid in S.ids))
    rep.add_item("rational", True)
    for vid, ok in enumerate(smooth):
        rep.add_item(f"smooth vertex {vid}", ok and degrees[vid] == n)
    P._leaving = leaving
    P._delzant = rep.passed
    return rep


def is_reflexive(P):
    """Integral vertices, origin interior, every facet of the form <x,l> <= 1.
    The vertices are integral iff their common denominator q, made by the
    incidence pass, is 1."""
    return P._integer_vertices()[0] == 1 and all(h.offset == 1 for h in P.facets)


def from_polytope(P):
    """The 1-skeleton of a Delzant reflexive polytope as a GKM graph."""
    if not is_delzant(P).passed:
        raise NotDelzant("polytope is not Delzant")
    if not is_reflexive(P):
        raise NotReflexive("polytope is not reflexive")
    return P.skeleton()
