"""Embedded GKM graphs, the one weighted 1-skeleton shared with polytopes:
validation, reflexive and Gorenstein checks, generic directions, directed
h-vectors, and the edge-length-sum identity for graphs."""

from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from math import gcd
from operator import mul, neg, sub

from . import bounds, exact
from .errors import (
    DimensionMismatch,
    DirectionDependent,
    InvalidGraph,
    NonGenericDirection,
    NonPositiveIndex,
    InconsistentIndex,
    ZeroVector,
)
from .report import VerificationReport

_GENERIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class GkmGraph:
    """An n-regular graph embedded in Q^d with derived primitive edge weights.

    Vertices are identified by hashable ids; ``coords`` keeps each vertex's
    coordinates as ``exact.rational`` reads them (ints and Fractions as
    given).  The graph is made integer
    once: q is the lcm of the coordinate denominators and ``lattice`` holds
    the integer points q * p.  Each edge's weight and length are derived
    from the integer difference d of its ends, as d / gcd(d) and
    gcd(d) / q, never given independently; ``exact.ratio`` makes the
    length, an int when it is integral.  The input checks on the edges
    (known ends, no loop, no repeat, no zero displacement) belong to
    ``GkmGraph(...)``.  ``Polytope.skeleton`` derives the columns through
    ``_on_points`` from its own incidence pass: its integer points, and
    edges that cannot fail those checks.  The one exception to the
    derivation is ``_from_edge_table``, which ``roots.coadjoint_graph``
    calls with every edge's root index and length already known.
    ``_pairing``, made the first time it is read, is the graph's
    ``_Pairing`` under its first three generic candidate directions.

    The edges are held as three columns: ``edge_list`` and, edge by edge,
    ``_weight_col`` (the weights u -> v) and ``_length_col``.  Readers of
    per-edge values and degrees read the columns.  The pairing and the
    writer read the weights by ``_weight_index``, the distinct weights and
    each edge's place among them: an orbit graph is given it, and others
    derive it from ``_weight_col``.  ``star``, ``weight``, ``length`` and
    ``incident`` read the columns through ``_incident``, made the first
    time it is read: at each vertex, each neighbour and the position in
    ``edge_list`` of their edge.  A weight read from an edge's head is
    negated.
    """

    def __init__(self, ambient_dim, degree, vertices, edges):
        coords = {}
        for vid, pt in vertices:
            if vid in coords:
                raise InvalidGraph(f"duplicate vertex id {vid!r}")
            if len(pt) != ambient_dim:
                raise InvalidGraph(f"vertex {vid!r} has wrong dimension")
            pt = tuple(pt)  # kept, not copied, when all ints and Fractions
            if not {*map(type, pt)} <= exact.EXACT:
                pt = tuple(map(exact.rational, pt))
            coords[vid] = pt
        if not coords:
            raise InvalidGraph("a graph needs at least one vertex")
        q, points = exact.common_denominator(coords.values())
        lattice = dict(zip(coords, points))
        checked, seen = [], set()  # seen: the edges so far, in both orientations
        for u, v in edges:
            if u not in lattice or v not in lattice:
                raise InvalidGraph(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            if u == v:
                raise InvalidGraph(f"loop at {u!r}")
            e = (u, v)
            if e in seen:
                raise InvalidGraph(f"repeated edge ({u!r}, {v!r})")
            if lattice[u] == lattice[v]:
                raise ZeroVector("zero displacement")
            seen.add(e)
            seen.add((v, u))
            checked.append(e)
        self._fill(ambient_dim, degree, coords, q, lattice, checked)

    @classmethod
    def _on_points(cls, ambient_dim, degree, coords, q, points, edges):
        """The graph on the ids 0, 1, ... of the distinct points ``coords``
        (tuples of length ambient_dim), from their integer points already
        made, ``exact.common_denominator(coords)``, and a list of pairs u < v
        of ids, each once, kept as ``edge_list``: a polytope's own edges,
        which need none of the input checks of ``__init__``."""
        G = cls.__new__(cls)
        G._fill(ambient_dim, degree, dict(enumerate(coords)), q, dict(enumerate(points)), edges)
        return G

    @classmethod
    def _from_edge_table(cls, ambient_dim, degree, points, edge_list, table, ids, lengths):
        """The graph on the ids 0, 1, ... of distinct integer points, from
        its edges (u, v) sorted by (u, v) and, edge by edge, the place in
        ``table`` of the weight u -> v and the length, as ``__init__`` would
        derive them, taken as given.  The weights of ``table`` are distinct
        and, if there are edges, each an edge's.  The caller vouches for it."""
        G = cls.__new__(cls)
        G.ambient_dim = ambient_dim
        G.degree = degree
        G.ids = list(range(len(points)))
        G.coords = G.lattice = dict(enumerate(points))
        G.q = 1
        G.edge_list = edge_list
        G._weight_index = table, ids
        G._length_col = lengths
        return G

    def _fill(self, ambient_dim, degree, coords, q, lattice, edge_list):
        """Set the columns from the coordinates by id, their common
        denominator q, their integer points by id and ``edge_list``, edges
        that pass the input checks, deriving each edge's weight and length."""
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.coords = coords
        self.ids = list(coords)
        self.q = q
        self.lattice = lattice
        self.edge_list = edge_list
        self._weight_col = weights = []
        self._length_col = lengths = []
        for u, v in edge_list:
            d = tuple(map(sub, lattice[v], lattice[u]))
            g = gcd(*d)
            if g != 1:
                d = tuple([c // g for c in d])
            weights.append(d)
            lengths.append(exact.ratio(g, q))

    @cached_property
    def _weight_index(self):
        places = {w: i for i, w in enumerate(dict.fromkeys(self._weight_col))}
        return list(places), list(map(places.__getitem__, self._weight_col))

    @cached_property
    def _weight_col(self):
        return list(map(self._weight_index[0].__getitem__, self._weight_index[1]))

    @cached_property
    def _incident(self):
        incident = {vid: {} for vid in self.ids}
        for i, (u, v) in enumerate(self.edge_list):
            incident[u][v] = incident[v][u] = i
        return incident

    @cached_property
    def _pairing(self):
        return _Pairing(self)

    def edges(self):
        return list(self.edge_list)

    def incident(self, vid):
        """The edges at vid, in ``edge_list`` order."""
        return list(map(self.edge_list.__getitem__, self._incident[vid].values()))

    def weight(self, edge, tail=None):
        """Primitive direction of the edge, oriented away from ``tail``;
        KeyError if it is not an edge."""
        u, v = edge
        if tail is not None and tail == v:
            u, v = v, u
        i = self._incident[u][v]
        w = self._weight_col[i]
        return w if self.edge_list[i][0] == u else tuple(map(neg, w))

    def length(self, edge):
        """Lattice length of the edge, given in either orientation; KeyError
        if it is not an edge."""
        u, v = edge
        return self._length_col[self._incident[u][v]]

    def sum_lengths(self):
        """The sum of the edge lengths, made by ``exact.ratio``."""
        total = sum(self._length_col)
        return exact.ratio(total.numerator, total.denominator)


def star(G, vid):
    """The star of vid, in edge order: its neighbours and the weights
    leaving vid toward them.  Outside GkmGraph's methods, only this reads
    the adjacency; ``Polytope.vertex_weights`` reads it, and no verifier
    does."""
    others = list(G._incident[vid])
    return others, [G.weight((vid, o)) for o in others]


class _Pairing:
    """The one pass that pairs G's edge weights with directions, which
    ``G._pairing`` makes once per graph.  It keeps ``xis``, the first
    three candidate directions (``_candidates``) that vanish on no weight
    (ambient dimension 1 has only one), and gives per vertex, in
    ``G.ids`` order: ``degrees``; ``independent``, the GKM verdict that no
    two weights there are parallel; ``indegrees(c)``, the number of weights
    leaving it that pair negatively with xis[c], which are its edges that
    xis[c] orients into it; and its weight sum.  The first two are set by
    the pass, the last two decoded from its totals on request.

    Each distinct weight w of ``G._weight_index`` is paired once with each
    candidate and gets two integers, for the tail its edges leave by w and
    the head they leave by -w, and the code of its line +-w.  From the
    lowest, the integers' bit fields hold a 1 for each kept direction that
    the weight leaving that end pairs negatively with, and that weight in
    balanced base 2^b.  A count field holds |V|, and a weight sum's
    coordinates are below |V| max|w_i| < 2^(b-1), so the fields of the sum
    of a vertex's integers are its in-degrees and its weight sum.  Each
    edge's weight is read by its index; the edge adds one integer at each
    end and lists its line at both, so a vertex's list has its degree for
    length and repeats no line when its weights are independent.
    """

    def __init__(self, G):
        weights, ids = G._weight_index
        n = len(G.ids)
        self._width = width = n.bit_length()
        self.xis = xis = []
        codes = [(0, 0)] * len(weights)
        for xi in _candidates(G):
            pairs = [sum(map(mul, w, xi)) for w in weights]
            if all(pairs):
                bit = 1 << len(xis) * width
                xis.append(xi)
                codes = [(t + bit, h) if pair < 0 else (t, h + bit)
                         for (t, h), pair in zip(codes, pairs)]
                if len(xis) == 3:
                    break
        low = len(xis) * width
        m = max(map(abs, chain.from_iterable(weights)), default=0)
        self._b = b = (n * m).bit_length() + 1
        self._shifts = range(low, low + b * G.ambient_dim, b)
        # A weight's field is its pairing with these places.  Each digit
        # starts at 2^(b-1), so that every field stays nonnegative.
        places = [1 << i for i in self._shifts]
        fields = [sum(map(mul, w, places)) for w in weights]
        line = {}
        codes = [(t + f, h - f, line.setdefault(max(w, tuple(map(neg, w))), len(line)))
                 for (t, h), f, w in zip(codes, fields, weights)]
        packed = dict.fromkeys(G.ids, sum(places) << b - 1)
        lines = {vid: [] for vid in G.ids}
        for (u, v), i in zip(G.edge_list, ids):
            tail, head, c = codes[i]
            packed[u] += tail
            packed[v] += head
            lines[u].append(c)
            lines[v].append(c)
        self._packed = packed.values()
        self.degrees = list(map(len, lines.values()))
        self.independent = [len(set(cs)) == len(cs) for cs in lines.values()]

    def indegrees(self, c):
        """Each vertex's in-degree under xis[c]."""
        shift, field = c * self._width, (1 << self._width) - 1
        return [a >> shift & field for a in self._packed]

    @cached_property
    def sums(self):
        shifts, half, digit = self._shifts, 1 << self._b - 1, (1 << self._b) - 1
        return [tuple([(a >> i & digit) - half for i in shifts]) for a in self._packed]


def _census(indegrees, degree):
    """The number of vertices of each in-degree 0..degree, for a regular
    graph of that degree."""
    h = [0] * (degree + 1)
    for k in indegrees:
        h[k] += 1
    return tuple(h)


def validate(G):
    """Regularity and the GKM pairwise-independence condition, with one
    degree item and one GKM item per vertex: the degrees and the verdict of
    the kept pairing, and the weights leaving each vertex in edge order (w
    at u and -w at v for the edge u v of weight w)."""
    p = G._pairing
    weights = {vid: [] for vid in G.ids}
    for (u, v), w in zip(G.edge_list, G._weight_col):
        weights[u].append(list(w))
        weights[v].append([-c for c in w])
    rep = VerificationReport("gkm-valid", True)
    for (vid, ws), k, ok in zip(weights.items(), p.degrees, p.independent):
        rep.add_item(f"degree {vid}", k == G.degree, {"degree": k, "expected": G.degree})
        rep.add_item(f"gkm-condition {vid}", ok, {"weights": ws})
    return rep


def _valid_sums(G):
    """The weight sum at each vertex of a graph that passes GKM validation,
    from its kept pairing; InvalidGraph for any other graph."""
    p = G._pairing
    if p.degrees.count(G.degree) != len(p.degrees) or not all(p.independent):
        raise InvalidGraph("graph fails GKM validation")
    return p.sums


def is_reflexive_graph(G):
    """Weight sum -v at every vertex, lattice vertices, vertex sum zero."""
    sums = _valid_sums(G)
    rep = VerificationReport("gkm-reflexive", True)
    for vid, s in zip(G.ids, sums):
        v, L = G.coords[vid], G.lattice[vid]
        rep.add_item(f"lattice {vid}", all(c % G.q == 0 for c in L), {"coords": list(v)})
        s = list(s)
        ok = all(G.q * a == -b for a, b in zip(s, L))
        rep.add_item(f"weight-sum {vid}", ok, {"sum": s, "vertex": list(v)})
    total = [exact.ratio(sum(col), G.q) for col in zip(*G.lattice.values())]
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
    return exact.ratio(-G.q * s[k], L[k])


def gorenstein_index(G):
    """The unique r > 0 with weight sum = -r*v at every vertex.

    r is read at the first vertex.  With r = a/b and L = q*v the integer
    point, every vertex then needs q*b*s = -a*L and L != 0, one integer
    list comparison; the first vertex that fails it is diagnosed as the
    first one was.
    """
    sums = _valid_sums(G)
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
    m = max((abs(c) for w in G._weight_index[0] for c in w), default=0)
    xi = tuple((2 * m + 1) ** i for i in range(G.ambient_dim))
    if xi not in seen:
        yield xi


def _height_scan(G, xi):
    """The in-degree of each vertex under the direction xi, a dict by id
    in ``G.ids`` order, or None when xi vanishes on a weight.

    A vertex's height is <xi, L>, L its integer point.  Each weight is its
    edge's integer difference over a positive gcd (``_from_edge_table``
    callers vouch for the same), so xi vanishes on a weight iff its edge
    joins two vertices of equal height, and a vertex's in-degree is the
    number of its neighbours below it.
    """
    height = {vid: sum(map(mul, xi, L)) for vid, L in G.lattice.items()}
    below = dict.fromkeys(G.ids, 0)
    for u, v in G.edge_list:
        a, b = height[u], height[v]
        if a == b:
            return None
        below[v if a < b else u] += 1
    return below


def _first_generic(G, avoid=()):
    """The first generic candidate direction not in ``avoid``, a collection
    of directions as tuples or lists, and the in-degrees under it."""
    avoid = set(map(tuple, avoid))
    for xi in _candidates(G):
        if xi not in avoid:
            below = _height_scan(G, xi)
            if below is not None:
                return xi, below
    raise NonGenericDirection("no generic direction among the built-in candidates")


def generic_direction(G, avoid=()):
    """The first generic candidate direction that is not in ``avoid``."""
    return _first_generic(G, avoid)[0]


def first_census(G):
    """The in-degree census of a regular graph under its first generic
    candidate direction, from the height scan.  A polytope needs this
    census alone."""
    return _census(_first_generic(G)[1].values(), G.degree)


def h_vector_graph(G, xi=None):
    """In-degree census under a generic direction.

    The graph must be regular: the degrees name the first vertex that
    fails.  When no direction is supplied, the degrees and the censuses
    come from the graph's kept pairing, under its first three generic
    candidate directions (ambient dimension 1 has only one); they must
    agree, or the graph is not of the manifold type where the census is
    direction-independent.  A supplied direction must have the ambient
    dimension and vanish on no weight, and its census is a height scan.
    """
    # A vertex has at most |V| - 1 edges, so a larger degree cannot be met
    # by any vertex; say so before naming one.
    if G.degree >= len(G.ids):
        raise InvalidGraph(f"degree {G.degree} is more than {len(G.ids)} vertices allow")
    if xi is None:
        p = G._pairing
        degrees = p.degrees
    else:
        xi = tuple([exact.rational(c, "direction coordinate") for c in xi])
        degrees = list(map(Counter(chain.from_iterable(G.edge_list)).__getitem__, G.ids))
    if degrees.count(G.degree) != len(degrees):
        vid, k = next((v, k) for v, k in zip(G.ids, degrees) if k != G.degree)
        raise InvalidGraph(f"vertex {vid!r} has {k} edges, not {G.degree}")
    if xi is not None:
        if len(xi) != G.ambient_dim:
            raise DimensionMismatch(
                f"direction of length {len(xi)} in ambient dimension {G.ambient_dim}"
            )
        below = _height_scan(G, xi)
        if below is None:
            raise NonGenericDirection(f"direction {xi} vanishes on an edge weight")
        return _census(below.values(), G.degree)
    results = [_census(p.indegrees(c), G.degree) for c in range(len(p.xis))]
    if len(set(results)) != 1:
        raise DirectionDependent(f"h-vector depends on the direction: {results}")
    return results[0]


def verify_graph_corollary(G):
    """Sum of edge lengths against C(n, h) / r."""
    r = gorenstein_index(G)
    h = h_vector_graph(G)
    total = G.sum_lengths()
    rhs = exact.ratio(bounds.c_from_h(G.degree, h) * r.denominator, r.numerator)
    rep = VerificationReport("graph-length-sum", total == rhs, total, (rhs,))
    rep.add_item("index", True, {"r": r})
    rep.add_item("h-vector", True, {"h": list(h)})
    return rep
