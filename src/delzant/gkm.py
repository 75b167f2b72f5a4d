"""Embedded GKM graphs, the one weighted 1-skeleton shared with polytopes:
validation, reflexive and Gorenstein checks, generic directions, directed
h-vectors, and the edge-length-sum identity for graphs."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import bounds, exact
from .errors import (
    DirectionDependent,
    InvalidGraph,
    NonGenericDirection,
    NonPositiveIndex,
    InconsistentIndex,
    NotDelzant,
    NotGorenstein,
    NotReflexive,
)
from .report import VerificationReport

_GENERIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class GkmGraph:
    """An n-regular graph embedded in Q^d with derived primitive edge weights.

    Vertices are identified by hashable ids; coordinates are tuples of
    Fractions (or ints).  Weights and lengths are always derived from the
    embedding, never given independently.  The adjacency map and the weight
    of each edge in both orientations are built once, so ``incident`` and
    ``weight`` are lookups.
    """

    def __init__(self, ambient_dim, degree, vertices, edges):
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.coords = {}
        self.ids = []
        for vid, pt in vertices:
            if vid in self.coords:
                raise InvalidGraph(f"duplicate vertex id {vid!r}")
            if len(pt) != ambient_dim:
                raise InvalidGraph(f"vertex {vid!r} has wrong dimension")
            self.coords[vid] = tuple(Fraction(c) for c in pt)
            self.ids.append(vid)
        if not self.ids:
            raise InvalidGraph("a graph needs at least one vertex")
        self.edge_list = []
        self._incident = {vid: [] for vid in self.ids}
        self._weight = {}
        for u, v in edges:
            if u not in self.coords or v not in self.coords:
                raise InvalidGraph(f"edge ({u!r}, {v!r}) has an unknown endpoint")
            if u == v:
                raise InvalidGraph(f"loop at {u!r}")
            if (u, v) in self._weight:
                raise InvalidGraph(f"repeated edge ({u!r}, {v!r})")
            self.edge_list.append((u, v))
            self._incident[u].append((u, v))
            self._incident[v].append((u, v))
            w, _ = exact.rational_direction(exact.vec_sub(self.coords[v], self.coords[u]))
            self._weight[u, v] = w
            self._weight[v, u] = exact.vec_neg(w)

    def point(self, vid):
        return self.coords[vid]

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
        u, v = edge
        _, t = exact.rational_direction(exact.vec_sub(self.coords[v], self.coords[u]))
        return int(t) if t.denominator == 1 else t

    def sum_lengths(self):
        return sum(self.length(e) for e in self.edge_list)


def validate(G):
    """Regularity, the GKM pairwise-independence condition, simple edges."""
    rep = VerificationReport("gkm-valid", True)
    for vid in G.ids:
        inc = G.incident(vid)
        rep.add_item(
            f"degree {vid}", len(inc) == G.degree,
            {"degree": len(inc), "expected": G.degree},
        )
        ws = [G.weight(e, tail=vid) for e in inc]
        # Two primitive weights are dependent iff one is +-the other.
        indep = len({max(w, exact.vec_neg(w)) for w in ws}) == len(ws)
        rep.add_item(f"gkm-condition {vid}", indep, {"weights": [list(w) for w in ws]})
    return rep


def is_reflexive_graph(G):
    """Weight sum -v at every vertex, lattice vertices, vertex sum zero."""
    if not validate(G):
        raise InvalidGraph("graph fails GKM validation")
    rep = VerificationReport("gkm-reflexive", True)
    total = (Fraction(0),) * G.ambient_dim
    for vid in G.ids:
        v = G.coords[vid]
        total = exact.vec_add(total, v)
        rep.add_item(f"lattice {vid}", exact.is_integral(v), {"coords": list(v)})
        s = (0,) * G.ambient_dim
        for e in G.incident(vid):
            s = exact.vec_add(s, G.weight(e, tail=vid))
        ok = all(Fraction(a) == -b for a, b in zip(s, v))
        rep.add_item(f"weight-sum {vid}", ok, {"sum": list(s), "vertex": list(v)})
    rep.add_item("vertex-sum-zero", all(c == 0 for c in total), {"sum": list(total)})
    return rep


@dataclass(frozen=True)
class GorensteinCertificate:
    r: Fraction
    residuals: dict

    @property
    def valid(self):
        return all(all(c == 0 for c in res) for res in self.residuals.values())


def gorenstein_index(G):
    """The unique r > 0 with weight sum = -r*v at every vertex."""
    if not validate(G):
        raise InvalidGraph("graph fails GKM validation")
    r = None
    sums = {}
    for vid in G.ids:
        v = G.coords[vid]
        s = (0,) * G.ambient_dim
        for e in G.incident(vid):
            s = exact.vec_add(s, G.weight(e, tail=vid))
        sums[vid] = s
        if all(c == 0 for c in v):
            raise InvalidGraph("vertex at the origin has no well-defined index")
        try:
            t = exact.solve_scalar(v, s)
        except exact.NotParallel:
            raise InconsistentIndex(f"weight sum at {vid!r} is not parallel to the vertex")
        cand = -t
        if r is None:
            r = cand
        elif r != cand:
            raise InconsistentIndex(f"index {cand} at {vid!r} disagrees with {r}")
    if r is None or r <= 0:
        raise NonPositiveIndex(f"computed index {r}")
    residuals = {
        vid: exact.vec_sub(sums[vid], exact.vec_scale(-r, G.coords[vid]))
        for vid in G.ids
    }
    return GorensteinCertificate(r, residuals)


def _generic_directions(G):
    """The distinct candidates (1, b, b^2, ...), b prime, on which no edge
    weight vanishes, in order of b."""
    weights = [G.weight(e) for e in G.edge_list]
    for xi in dict.fromkeys(tuple(b**i for i in range(G.ambient_dim)) for b in _GENERIC_BASES):
        if all(exact.dot(w, xi) != 0 for w in weights):
            yield xi


def generic_direction(G, avoid=()):
    """The first generic direction that is not in ``avoid``."""
    for xi in _generic_directions(G):
        if xi not in avoid:
            return xi
    raise NonGenericDirection("no generic direction among the built-in candidates")


def _h_for_xi(G, xi):
    h = [0] * (G.degree + 1)
    for vid in G.ids:
        indeg = 0
        for e in G.incident(vid):
            w = G.weight(e, tail=vid)
            pair = exact.dot(w, xi)
            if pair == 0:
                raise NonGenericDirection(f"direction {xi} vanishes on an edge weight")
            if pair < 0:
                indeg += 1
        h[indeg] += 1
    return tuple(h)


def h_vector_graph(G, xi=None):
    """In-degree census under a generic direction.

    When no direction is supplied, up to three distinct generic directions
    are tried (ambient dimension 1 has only one) and must agree; a
    disagreement means the graph is not of the manifold type where the
    census is direction-independent.
    """
    if xi is not None:
        return _h_for_xi(G, tuple(xi))
    results = [_h_for_xi(G, d) for d in islice(_generic_directions(G), 3)]
    if not results:
        raise NonGenericDirection("no generic direction among the built-in candidates")
    if len(set(results)) != 1:
        raise DirectionDependent(f"h-vector depends on the direction: {results}")
    return results[0]


def verify_graph_corollary(G):
    """Sum of edge lengths against C(n, h) / r."""
    cert = gorenstein_index(G)
    if not cert.valid:
        raise NotGorenstein("no consistent Gorenstein index")
    h = h_vector_graph(G)
    total = G.sum_lengths()
    rhs = Fraction(bounds.c_from_h(G.degree, h)) / cert.r
    if rhs.denominator == 1:
        rhs = int(rhs)
    rep = VerificationReport("graph-length-sum", total == rhs, total, (rhs,))
    rep.add_item("index", True, {"r": cert.r})
    rep.add_item("h-vector", True, {"h": list(h)})
    return rep


# -- polytopes ------------------------------------------------------------------
# The Delzant and reflexive predicates live here, not in reflexive, because
# from_polytope needs them and the polytope module imports this one for
# Polytope.skeleton(); reflexive imports both.


@dataclass(frozen=True)
class DelzantReport:
    simple: bool
    rational: bool
    smooth_per_vertex: dict
    overall: bool


def is_delzant(P):
    """Check simplicity, rationality and per-vertex smoothness.

    The edges of a polytope with rational vertices are always rational.
    """
    simple = P.is_simple()
    smooth = {}
    for vid in range(len(P.vertices)):
        weights = P.vertex_weights(vid)
        smooth[vid] = len(weights) == P.dim and abs(exact.det(weights)) == 1
    return DelzantReport(simple, True, smooth, simple and all(smooth.values()))


def is_reflexive(P):
    """Integral vertices, origin interior, every facet of the form <x,l> <= 1."""
    if not all(exact.is_integral(v) for v in P.vertices):
        return False
    return all(h.offset == 1 for h in P.facets)


def from_polytope(P):
    """The 1-skeleton of a Delzant reflexive polytope as a GKM graph."""
    if not is_delzant(P).overall:
        raise NotDelzant("polytope is not Delzant")
    if not is_reflexive(P):
        raise NotReflexive("polytope is not reflexive")
    return P.skeleton()
