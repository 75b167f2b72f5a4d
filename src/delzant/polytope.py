"""Lattice and rational polytopes with dual vertex/halfspace descriptions.

Conversion between the two descriptions is brute-force double description:
candidate facets come from n-subsets of vertices, candidate vertices from
n-subsets of facets.  This is exact and entirely adequate at the target
sizes (dimension <= 6, a few hundred vertices).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, ceil, floor

from . import exact, gkm
from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    NonLatticeEdge,
    NotFullDimensional,
    NotSimple,
    OriginNotInterior,
    Unbounded,
)


@dataclass(frozen=True)
class Halfspace:
    """Inequality <x, normal> <= offset with a primitive integer normal."""

    normal: tuple
    offset: Fraction

    @staticmethod
    def make(normal, offset):
        """Normalize an integer-direction inequality to a primitive normal."""
        w, m = exact.primitive(tuple(int(c) for c in normal))
        return Halfspace(w, Fraction(offset) / m)

    def holds(self, point, strict=False):
        v = exact.dot(self.normal, point)
        return v < self.offset if strict else v <= self.offset

    def active(self, point):
        return exact.dot(self.normal, point) == self.offset


@dataclass(frozen=True)
class Face:
    active_facets: frozenset
    vertex_ids: frozenset
    dim: int


def _as_point(p):
    return tuple(Fraction(c) for c in p)


class Polytope:
    """Full-dimensional bounded polytope with both descriptions computed.

    Vertices are tuples of Fractions, facets are Halfspace instances with
    primitive integer normals.  Instances are immutable; the face lattice
    and the 1-skeleton are computed once on first use.
    """

    def __init__(self, dim, vertices, facets):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self._faces = None
        self._edges = None
        self._skeleton = None
        self._active = tuple(
            frozenset(i for i, h in enumerate(self.facets) if h.active(v))
            for v in self.vertices
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_vertices(cls, points):
        pts = sorted(set(_as_point(p) for p in points))
        if not pts:
            raise EmptyPolytope("no points given")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("points of mixed dimensions")
        if exact.affine_rank(pts) != n:
            raise NotFullDimensional(f"hull is not full-dimensional in R^{n}")
        facets = cls._hull_facets(pts, n)
        verts = []
        for p in pts:
            normals = [facets[i].normal for i, h in enumerate(facets) if h.active(p)]
            if exact.rank(normals) == n:
                verts.append(p)
        return cls(n, verts, facets)

    @staticmethod
    def _hull_facets(pts, n):
        if n == 1:
            lo = min(p[0] for p in pts)
            hi = max(p[0] for p in pts)
            return [Halfspace((1,), Fraction(hi)), Halfspace((-1,), Fraction(-lo))]
        seen = {}
        for sub in combinations(pts, n):
            w = exact.hyperplane_normal(sub)
            if w is None:
                continue
            m = exact.dot(w, sub[0])
            vals = [exact.dot(w, p) for p in pts]
            if all(v <= m for v in vals):
                cand = (w, m)
            elif all(v >= m for v in vals):
                cand = (exact.vec_neg(w), -m)
            else:
                continue
            if cand not in seen:
                active = [p for p, v in zip(pts, vals) if v == m]
                if exact.affine_rank(active) == n - 1:
                    seen[cand] = Halfspace(cand[0], Fraction(cand[1]))
        return sorted(seen.values(), key=lambda h: (h.normal, h.offset))

    @classmethod
    def from_halfspaces(cls, halfspaces):
        hs = []
        seen = set()
        for h in halfspaces:
            h = Halfspace.make(h.normal, h.offset) if isinstance(h, Halfspace) else Halfspace.make(*h)
            if (h.normal, h.offset) not in seen:
                seen.add((h.normal, h.offset))
                hs.append(h)
        if not hs:
            raise Unbounded("no halfspaces given")
        n = len(hs[0].normal)
        if any(len(h.normal) != n for h in hs):
            raise DimensionMismatch("normals of mixed dimensions")
        normals = [h.normal for h in hs]
        if exact.rank(normals) < n:
            raise Unbounded("normals do not span the ambient space")
        cls._check_bounded(normals, n)
        verts = set()
        for sub in combinations(range(len(hs)), n):
            mat = [hs[i].normal for i in sub]
            rhs = [hs[i].offset for i in sub]
            x = exact.solve_square(mat, rhs)
            if x is None:
                continue
            if all(h.holds(x) for h in hs):
                verts.add(x)
        if not verts:
            raise EmptyPolytope("halfspace intersection is empty")
        verts = sorted(verts)
        if exact.affine_rank(verts) != n:
            raise NotFullDimensional("halfspace intersection is not full-dimensional")
        facets = []
        for h in hs:
            active = [v for v in verts if h.active(v)]
            if exact.affine_rank(active) == n - 1:
                facets.append(h)
        facets.sort(key=lambda h: (h.normal, h.offset))
        return cls(n, verts, facets)

    @staticmethod
    def _check_bounded(normals, n):
        # The recession cone {d : <l_i, d> <= 0} must be {0}.  Since the
        # normals span R^n the cone is pointed, so a nonzero cone would
        # contain an extreme ray tight on n-1 independent constraints.
        for sub in combinations(normals, n - 1) if n > 1 else [()]:
            if n > 1 and exact.rank(list(sub)) != n - 1:
                continue
            d = exact.null_direction(list(sub) if sub else [[0] * n])
            if d is None:
                continue
            for cand in (d, exact.vec_neg(d)):
                if all(exact.dot(l, cand) <= 0 for l in normals):
                    raise Unbounded("halfspace intersection has a recession direction")

    # -- faces ----------------------------------------------------------------

    def face_lattice(self):
        """All faces, keyed by frozenset of vertex ids.  Computed once."""
        if self._faces is None:
            self._faces = self._compute_faces()
        return self._faces

    def _compute_faces(self):
        nv = len(self.vertices)
        all_ids = frozenset(range(nv))
        facet_verts = [
            frozenset(i for i in range(nv) if h.active(self.vertices[i]))
            for h in self.facets
        ]
        faces = {all_ids: Face(frozenset(), all_ids, self.dim)}
        queue = [all_ids]
        while queue:
            cur = queue.pop()
            for j, fv in enumerate(facet_verts):
                w = cur & fv
                if not w or w == cur or w in faces:
                    continue
                active = frozenset(
                    k for k, kv in enumerate(facet_verts) if w <= kv
                )
                d = exact.affine_rank([self.vertices[i] for i in w])
                faces[w] = Face(active, w, d)
                queue.append(w)
        return faces

    def faces_of_dim(self, d):
        return [f for f in self.face_lattice().values() if f.dim == d]

    def f_vector(self):
        counts = [0] * (self.dim + 1)
        for f in self.face_lattice().values():
            counts[f.dim] += 1
        return tuple(counts)

    def h_vector_comb(self):
        """h-vector from the alternating-sum transform of the f-vector."""
        f = self.f_vector()
        n = self.dim
        return tuple(
            sum((-1) ** (j - i) * comb(n - i, n - j) * f[n - i] for i in range(j + 1))
            for j in range(n + 1)
        )

    def edges(self):
        """Sorted vertex-id pairs spanning the 1-dimensional faces."""
        if self._edges is None:
            out = []
            for f in self.faces_of_dim(1):
                a, b = sorted(f.vertex_ids)
                out.append((a, b))
            self._edges = tuple(sorted(out))
        return list(self._edges)

    def skeleton(self):
        """The weighted 1-skeleton as a GkmGraph on the vertex ids, the same
        graph the GKM verifiers use.  Computed once."""
        if self._skeleton is None:
            self._skeleton = gkm.GkmGraph(
                self.dim, self.dim, enumerate(self.vertices), self.edges()
            )
        return self._skeleton

    # -- local data -----------------------------------------------------------

    def vertex_weights(self, vid):
        """Primitive lattice directions of the edges leaving vertex vid."""
        S = self.skeleton()
        return [S.weight(e, tail=vid) for e in S.incident(vid)]

    def is_simple(self):
        S = self.skeleton()
        return all(len(S.incident(v)) == self.dim for v in S.ids)

    def edge_direction(self, edge):
        a, b = edge
        return exact.vec_sub(self.vertices[b], self.vertices[a])

    def relative_length(self, edge):
        """Lattice length of an edge with integral endpoint difference."""
        d = self.edge_direction(edge)
        if not exact.is_integral(d):
            raise NonLatticeEdge(f"edge {edge} has non-integral displacement {d}")
        return exact.content(exact.to_lattice(d))

    # -- global operations ----------------------------------------------------

    def dual(self):
        """Polar dual; requires the origin strictly interior."""
        if not all(h.offset > 0 for h in self.facets):
            raise OriginNotInterior("dual needs the origin strictly inside")
        pts = [
            tuple(Fraction(-c) / h.offset for c in h.normal) for h in self.facets
        ]
        return Polytope.from_vertices(pts)

    def dilate(self, r):
        return Polytope.from_vertices(
            [exact.vec_scale(Fraction(r), v) for v in self.vertices]
        )

    def translate(self, t):
        return Polytope.from_vertices([exact.vec_add(v, t) for v in self.vertices])

    def contains(self, point, strict=False):
        return all(h.holds(point, strict=strict) for h in self.facets)

    def interior_lattice_points(self):
        """All lattice points strictly inside, by bounding-box enumeration."""
        los = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(los, his)]
        out = []

        def rec(prefix, i):
            if i == self.dim:
                if self.contains(prefix, strict=True):
                    out.append(tuple(prefix))
                return
            for c in ranges[i]:
                rec(prefix + [c], i + 1)

        rec([], 0)
        return sorted(out)

    def generic_direction(self, avoid=()):
        """Deterministic direction not orthogonal to any edge.

        Tries (1, B, B^2, ...) for increasing primes B, skipping any
        direction in ``avoid`` so that several distinct generic directions
        can be produced for cross-checks.
        """
        return gkm.generic_direction(self.skeleton(), avoid)

    def h_vector_directed(self, xi=None):
        """In-degree census of the edge orientation induced by xi."""
        if not self.is_simple():
            raise NotSimple("directed h-vector is defined for simple polytopes")
        S = self.skeleton()
        return gkm.h_vector_graph(S, gkm.generic_direction(S) if xi is None else xi)

    # -- misc -----------------------------------------------------------------

    def vertex_id(self, point):
        p = _as_point(point)
        try:
            return self.vertices.index(p)
        except ValueError:
            raise KeyError(f"{point} is not a vertex")

    def active_facets(self, vid):
        return self._active[vid]

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.dim, self.vertices))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, vertices={len(self.vertices)}, facets={len(self.facets)})"


def cube(n, r=1):
    """The cube [-r, r]^n."""
    hs = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        hs.append((tuple(e), Fraction(r)))
        hs.append((tuple(-c for c in e), Fraction(r)))
    return Polytope.from_halfspaces(hs)


def cross_polytope(n):
    """conv{+-e_i}: the dual of the unit cube."""
    pts = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        pts.append(tuple(e))
        pts.append(tuple(-c for c in e))
    return Polytope.from_vertices(pts)


def simplex_cpn(n):
    """The reflexive simplex of projective n-space, edge length n+1."""
    pts = [tuple(-1 for _ in range(n))]
    for i in range(n):
        p = [-1] * n
        p[i] = n
        pts.append(tuple(p))
    return Polytope.from_vertices(pts)
