"""Lattice and rational polytopes with dual vertex/halfspace descriptions.

Both conversions between the descriptions are one exact integer double
description (``_extreme_rays``) on the homogenized cone: facets are the
extreme rays of the cone of inequalities valid on the points, vertices the
extreme rays of the cone over the halfspaces.  Dual, dilate and translate
map the vertex/facet pair they already have.  The subset-scan hull
``oracle.brute_hull`` is the independent cross-check.

The hulls and the maps work in integers from input to output.  The input
is cleared once (points at one common denominator, each halfspace to a
primitive normal and an offset p/q in lowest terms), points are sorted on
integer keys, and each output coordinate and offset is made once, when the
result is built, by ``exact.ratio``: an int when it is integral, else a
Fraction.
"""

from collections import namedtuple
from itertools import product
from math import ceil, comb, floor, gcd, lcm
from operator import add, attrgetter, mul, neg

from . import exact, gkm
from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    NonLatticeEdge,
    NotFullDimensional,
    NotSimple,
    OriginNotInterior,
    Unbounded,
    UnboundedSearch,
)

# The budgets of one double-description hull, over all its rows.  A row
# tests each pair of rays on opposite sides of it by the bit count of their
# common tight set, about 0.12 us a pair, and scans every ray's mask for
# each degenerate pair that passes, about 0.1 us a ray (shared 2-core
# Xeon).  The pairs are charged before a row's pair loop, the scans as each
# pair passes: every ray's mask, also for a pair that the count rule of
# ``_extreme_rays`` decides without the scan.  The hull raises
# UnboundedSearch as soon as either is over its budget.
HULL_PAIR_LIMIT = 3 * 10**6
HULL_SCAN_LIMIT = 6 * 10**6
# The budget of one face-lattice walk, in face-facet pairs.  A layer
# intersects each of its faces with every facet, and each new face takes
# at most one step per facet to find the facets through it: about 1 us a
# pair on the cube(10), 2 us on the 12-cube, whose vertex masks are longer
# (same machine).  Each layer is charged before its loop, and the walk
# raises UnboundedSearch as soon as the total is over the budget.
FACE_WALK_LIMIT = 2 * 10**6

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def _cleared(normal, offset):
    """The inequality <x, normal> <= offset, for a rational normal and a
    rational offset, as integers (w, p, q): w the primitive normal and p/q
    the offset in lowest terms, q > 0.  Both sides are multiplied by the lcm
    of the normal's denominators and divided by the content of the integer
    normal.  TypeError names the first non-rational coordinate or offset."""
    if not {type(offset), *map(type, normal)} <= exact.EXACT:
        for c in normal:
            exact.rational(c, "normal coordinate")
        exact.rational(offset, "offset")
    d = lcm(*map(_denominator, normal))
    w, m = exact.primitive(list(map(_numerator, normal)) if d == 1
                           else [c.numerator * (d // c.denominator) for c in normal])
    p, q = offset.numerator * d, offset.denominator * m
    g = gcd(p, q)
    return w, p // g, q // g


class Halfspace(namedtuple("Halfspace", "normal offset")):
    """Inequality <x, normal> <= offset with a primitive integer normal, as
    the named pair (normal, offset): it compares, hashes, sorts and unpacks
    as that pair."""

    __slots__ = ()

    def holds(self, point, strict=False):
        v = exact.dot(self.normal, tuple(map(exact.rational, point)))
        return v < self.offset if strict else v <= self.offset


Face = namedtuple("Face", "active_facets vertex_ids dim")


def _point(x, t):
    """The point x / t, for an integer vector x and an integer t > 0, each
    coordinate made by ``exact.ratio``."""
    if t == 1:
        return tuple(x)
    return tuple([exact.ratio(c, t) for c in x])


def _points(rays):
    """The points x / t of homogeneous integer rays (t, x1, ..., xn) with
    t > 0, made by ``_point``, in sorted order.  The sort is on the
    integer vectors x * (l / t), l the lcm of the t's: they are the points
    times l > 0, so they come in the points' order (the rays' own, if l = 1)."""
    l = lcm(*[r[0] for r in rays])
    if l == 1:
        return [_point(r[1:], 1) for r in sorted(rays)]
    return [_point(x, l) for x in sorted([tuple([c * (l // r[0]) for c in r[1:]]) for r in rays])]


def _bits(mask):
    """The positions of the set bits of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ids(mask):
    """The positions of the set bits of a mask, as a frozenset."""
    return frozenset(_bits(mask))


def _canonical(dim, vertices, facets):
    """A polytope in the order every constructor gives, from vertices
    already sorted: facets sorted by (normal, offset), except that in
    dimension 1 the order is [(1,), (-1,)]."""
    return Polytope(dim, vertices, sorted(facets, reverse=dim == 1))


def _extreme_rays(rows, d):
    """Extreme rays of the cone {y in Q^d : <row, y> >= 0 for every row}.

    Double description (Motzkin et al. 1953; Fukuda and Prodon, "Double
    description method revisited", 1996) on integer rows.  It starts from
    the simplicial cone of d independent rows, which ``exact.eliminate``
    finds, and adds the other rows one at a time.  A row keeps the rays on
    its nonnegative side, and each pair of rays on opposite sides gives the
    ray where the 2-face they span meets the row's hyperplane, if they do
    span a 2-face: by the combinatorial test, no third ray is tight on every
    row both are tight on.  Rays are primitive integer tuples.

    A pair is tested only if its common tight set has at least d - 2 rows,
    and it needs no scan of the masks if one of its rays is tight on
    exactly d - 1 of the rows added so far: by the algebraic test of
    Fukuda and Prodon, two extreme rays are adjacent iff the rows tight on
    both have rank d - 2, and here that rank is read off the bit count.
    The d start rows are among the rows added, so the cone is pointed, and
    the rows tight on an extreme ray of a pointed cone have rank d - 1: a
    ray tight on exactly d - 1 rows has independent tight rows.  They cut
    out its line, and the other ray, on the other side of the new row, is
    not on it, so the pair has exactly d - 2 common rows, which cut out a
    face of the cone that lies in a 2-dimensional subspace.  A pointed cone
    of dimension at most 2 has at most two extreme rays, here the pair
    itself, so no third mask contains the common set: the scan's own
    verdict.  Every other pair, a degenerate one, is scanned.

    Returns a list of (ray, tight) with ``tight`` the set of rows the ray
    is tight on, as a bitmask of row indices.  Returns None if the rows
    have rank < d, that is if the cone is not pointed.  Raises
    UnboundedSearch once the pair tests or the mask scans go over
    HULL_PAIR_LIMIT or HULL_SCAN_LIMIT; each tested pair is charged every
    ray's mask as scans, whether the scan runs or not.
    """
    chosen, first, free = exact.eliminate(rows, d)
    if free:
        return None
    every = sum(1 << i for i in chosen)
    rays = [(ray, every & ~(1 << i)) for i, ray in zip(chosen, first)]
    chosen = set(chosen)
    pairs = scans = 0
    for k, row in enumerate(rows):
        if k in chosen:
            continue
        bit = 1 << k
        kept, pos, neg = [], [], []
        for ray, tight in rays:
            s = sum(map(mul, row, ray))
            if s > 0:
                kept.append((ray, tight))
                pos.append((ray, tight, s))
            elif s < 0:
                neg.append((ray, tight, s))
            else:
                kept.append((ray, tight | bit))
        if neg:
            pairs += len(pos) * len(neg)
            if pairs > HULL_PAIR_LIMIT:
                raise UnboundedSearch(
                    f"the double-description hull would test {pairs} ray pairs by row {k}, "
                    f"more than its limit of {HULL_PAIR_LIMIT}"
                )
            masks = [tight for _, tight in rays]
            for rp, tp, sp in pos:
                simple = tp.bit_count() == d - 1
                for rn, tn, sn in neg:
                    common = tp & tn
                    if common.bit_count() < d - 2:
                        continue
                    scans += len(masks)
                    if scans > HULL_SCAN_LIMIT:
                        raise UnboundedSearch(
                            f"the double-description hull would scan {scans} ray masks by row {k}, "
                            f"more than its limit of {HULL_SCAN_LIMIT}"
                        )
                    if not simple and tn.bit_count() != d - 1 and any(
                            t & common == common and t != tp and t != tn for t in masks):
                        continue
                    ray = exact.primitive([sp * b - sn * a for a, b in zip(rp, rn)])[0]
                    kept.append((ray, common | bit))
        rays = kept
    return rays


class Polytope:
    """Full-dimensional bounded polytope with both descriptions computed.

    Vertices are tuples of rational coordinates, facets are Halfspace
    instances with primitive integer normals.  The hulls and the maps make
    each coordinate and offset by ``exact.ratio``: an int when integral,
    else a Fraction.  Instances are immutable.  Each table derived from
    them is made on first use and kept once, by one owner: the integer
    points, the vertex-facet incidence (in integers, as bitmasks), the face
    walk, the 1-skeleton, which holds the edge list, and the Delzant pass.
    The walk and the edge list are read from the incidence alone.  The
    views ``incidence()``, ``face_lattice()`` and ``edges()`` are made on
    each call from those tables.
    """

    def __init__(self, dim, vertices, facets):
        self.dim = dim
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self._ints = None
        self._bits = None
        self._faces = None
        self._skeleton = None
        # Filled in by the Delzant pass: the verdict at each vertex, and
        # the weight of the edge leaving each facet at each vertex.
        self._delzant = None
        self._leaving = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_vertices(cls, points):
        pts = [tuple(map(exact.rational, p)) for p in points]
        if not pts:
            raise EmptyPolytope("no points given")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("points of mixed dimensions")
        # At one common denominator q > 0 the points keep their order, so
        # the sorted integer points are the sorted rational ones.
        q, ints = exact.common_denominator(pts)
        ints = sorted(set(ints))
        # The cone of (beta, a) with <a, p> <= beta at every point: its
        # extreme rays are the facets, and it is pointed iff the points
        # affinely span R^n.
        rays = _extreme_rays([(q, *map(neg, x)) for x in ints], n + 1)
        if rays is None:
            raise NotFullDimensional(f"hull is not full-dimensional in R^{n}")
        # A ray is primitive, so ray[0] and m are coprime.  A point is a
        # vertex iff the facets through it meet in it alone.
        facets, meet = [], [-1] * len(ints)
        for ray, tight in rays:
            w, m = exact.primitive(ray[1:])
            facets.append(Halfspace(w, exact.ratio(ray[0], m)))
            rest = tight
            while rest:
                low = rest & -rest
                meet[low.bit_length() - 1] &= tight
                rest ^= low
        verts = [_point(x, q) for i, x in enumerate(ints) if meet[i] == 1 << i]
        return _canonical(n, verts, facets)

    @classmethod
    def from_halfspaces(cls, halfspaces):
        hs = []
        seen = set()
        for h in halfspaces:
            h = _cleared(*h)
            if h not in seen:
                seen.add(h)
                hs.append(h)
        if not hs:
            raise Unbounded("no halfspaces given")
        n = len(hs[0][0])
        if any(len(w) != n for w, _, _ in hs):
            raise DimensionMismatch("normals of mixed dimensions")
        # The homogenized cone of (t, x) with <a, x> <= b t and t >= 0.  A
        # ray with t = 0 is a recession direction; with no ray at all the
        # cone is {0} and the system is infeasible.
        rows = [(p, *[-q * c for c in w]) for w, p, q in hs]
        rays = _extreme_rays(rows + [(1,) + (0,) * n], n + 1)
        if rays is None:
            raise Unbounded("normals do not span the ambient space")
        if any(ray[0] == 0 for ray, _ in rays):
            raise Unbounded("halfspace intersection has a recession direction")
        if not rays:
            raise EmptyPolytope("halfspace intersection is empty")
        # A halfspace tight at every vertex is an implicit equality.
        # Halfspace i is a facet iff it alone is tight at every vertex on
        # it: ``common[i]``, the AND of those vertices' tight masks, made
        # from the rays' set bits, is 1 << i.  Any smaller face lies in a
        # facet, whose halfspace is tight on it too.
        equalities, common = (1 << len(hs)) - 1, [-1] * len(hs)
        for _, tight in rays:
            equalities &= tight
            rest = tight
            while rest:
                low = rest & -rest
                common[low.bit_length() - 1] &= tight
                rest ^= low
        if equalities:
            raise NotFullDimensional("halfspace intersection is not full-dimensional")
        facets = [Halfspace(w, exact.ratio(p, q)) for i, ((w, p, q), c) in enumerate(zip(hs, common))
                  if c == 1 << i]
        return _canonical(n, _points([ray for ray, _ in rays]), facets)

    # -- faces ----------------------------------------------------------------

    def face_lattice(self):
        """All faces, keyed by frozenset of vertex ids: a new dict on each
        call, read off the kept walk."""
        lattice = {}
        for w, (active, d) in self._walk().items():
            ids = _ids(w)
            lattice[ids] = Face(_ids(active), ids, d)
        return lattice

    def _walk(self):
        """Every nonempty face as {vertex mask: (facet mask, dim)}, walked
        down from P one dimension at a time.  Computed once.

        The lattice is graded: the facets of a face F are the maximal sets
        F & facet_j over the facets j not through F.  The cover test of
        Kaibel and Pfetsch ("Computing the face lattice of a polytope from
        its vertex-facet incidences", 2002) decides maximality without
        comparing candidates: w is a facet of F iff the facets through w
        that are not through F are exactly the j that produced w.  The
        facets through w are met over its vertices or, when it has more
        vertices than P has facets, found among the facets.  Raises
        UnboundedSearch once the face-facet pairs go over FACE_WALK_LIMIT.
        """
        if self._faces is None:
            at_vertex, on_facet = self._incidence_bits()
            facet_bits = [(fv, 1 << j) for j, fv in enumerate(on_facet)]
            top = (1 << len(self.vertices)) - 1
            faces = {top: (0, self.dim)}
            layer = [(top, 0)]
            pairs = 0
            for d in range(self.dim - 1, -1, -1):
                pairs += len(layer) * len(on_facet)
                if pairs > FACE_WALK_LIMIT:
                    raise UnboundedSearch(
                        f"the face walk would test {pairs} face-facet pairs by dimension {d}, "
                        f"more than its limit of {FACE_WALK_LIMIT}"
                    )
                nxt = []
                for F, A in layer:
                    producers = {}
                    for j, fv in enumerate(on_facet):
                        w = F & fv
                        if w and not A >> j & 1:
                            producers[w] = producers.get(w, 0) | 1 << j
                    for w, js in producers.items():
                        if w in faces:
                            continue
                        if w.bit_count() > len(on_facet):
                            meet = sum([bit for fv, bit in facet_bits if w & fv == w])
                        else:
                            meet, rest = -1, w
                            while rest:
                                low = rest & -rest
                                meet &= at_vertex[low.bit_length() - 1]
                                rest ^= low
                        if meet & ~A == js:
                            faces[w] = (meet, d)
                            nxt.append((w, meet))
                layer = nxt
            self._faces = faces
        return self._faces

    def f_vector(self):
        counts = [0] * (self.dim + 1)
        for _, d in self._walk().values():
            counts[d] += 1
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
        """Sorted vertex-id pairs spanning the 1-dimensional faces: a copy of
        the skeleton's ``edge_list``."""
        return list(self.skeleton().edge_list)

    def _edge_list(self):
        """The sorted edges, read off the incidence bitmasks without the
        face lattice: the pass that ``skeleton()`` runs once, whose list it
        keeps as its ``edge_list``.

        A simple vertex u lies on exactly n facets, and any n - 1 of them
        meet in an edge at u: its vertex figure is a simplex, whose facets
        are those n, and any n - 1 facets of a simplex meet in a vertex of
        it.  The key ``at_u ^ bit_i`` names the n - 1 facets of the edge
        that leaves facet i.  They meet in that edge alone, so the only
        vertices on all of them are its two ends, and a simple end has the
        same key: two simple vertices with a shared key are adjacent, and
        one dict from each key to the first vertex that has it pairs them.
        In dimension 1 the key is empty and P itself is the edge.

        The edges at a vertex on more than n facets are found by a scan
        from it over every vertex, skipping those on more than n facets
        with a lower id, which scanned the pair already: the later vertices
        and the earlier simple ones (``simple``).  The smallest face
        through u and v is cut out by the facets through both, so u v is an
        edge iff those facets meet in {u, v} alone.  An edge lies on at
        least n - 1 facets, so a pair on fewer is passed over before the
        meet."""
        at_vertex, on_facet = self._incidence_bits()
        n, least = self.dim, self.dim - 1
        top = (1 << len(at_vertex)) - 1
        first, out, simple = {}, [], []
        for u, here in enumerate(at_vertex):
            if here.bit_count() == n:
                simple.append((u, here))
                rest = here
                while rest:
                    low = rest & -rest
                    v = first.setdefault(here ^ low, u)
                    if v != u:
                        out.append((v, u))
                    rest ^= low
                continue
            near = [(v, common) for v, common in enumerate(
                [here & there for there in at_vertex[u + 1:]], u + 1)
                if common.bit_count() >= least]
            if simple:
                near += [(v, here & there) for v, there in simple]
            for v, common in near:
                pair, meet = 1 << u | 1 << v, top
                while common and meet != pair:
                    low = common & -common
                    meet &= on_facet[low.bit_length() - 1]
                    common ^= low
                if meet == pair:
                    out.append((u, v) if u < v else (v, u))
        out.sort()
        return out

    def skeleton(self):
        """The weighted 1-skeleton as a GkmGraph on the vertex ids, the same
        graph the GKM verifiers use, on the integer points of the incidence
        pass and the edges of ``_edge_list``.  Computed once; it owns the
        polytope's edge list."""
        if self._skeleton is None:
            q, points = self._integer_vertices()
            self._skeleton = gkm.GkmGraph._on_points(
                self.dim, self.dim, self.vertices, q, points, self._edge_list()
            )
        return self._skeleton

    # -- local data -----------------------------------------------------------

    def vertex_weights(self, vid):
        """Primitive lattice directions of the edges leaving vertex vid."""
        return gkm.star(self.skeleton(), vid)[1]

    def is_simple(self):
        """Every vertex lies on exactly n facets, that is has n edges."""
        return all(here.bit_count() == self.dim for here in self._incidence_bits()[0])

    def _delzant_pass(self):
        """Whether P is Delzant at each vertex (simple, rational and smooth
        there), from one pass over the skeleton's edges made on the first
        call and kept as ``_delzant``, with the weights by facet left at
        each vertex, a dict in edge order, as ``_leaving``.

        The edges of a polytope with rational vertices are rational.  A
        vertex has n edges iff it lies on n facets, so simplicity is read off
        the facet masks, and each edge at a simple vertex leaves a different
        one of its facets.  With the primitive normals a_i of those facets as
        the rows of A and the weights w_i of the edges leaving them as the
        columns of W, A W is diagonal with the negative entries <a_i, w_i>.
        The vertex is smooth (|det W| = 1: its weights form a lattice basis)
        iff each entry is -1: if each is, det A det W = +-1 in integers; if
        |det W| = 1, then A = D W^-1 with W^-1 integral, so each entry of D
        divides the primitive row a_i.

        The edge u v with weight w leaves the highest facet i at u not
        through v and the highest facet j at v not through u, and the pass
        tests <a_i, w> = -1 at u and <a_j, w> = 1 at v.  A vertex is smooth
        iff it is simple and every test at it passed.
        """
        if self._delzant is None:
            S = self.skeleton()
            n = self.dim
            at_vertex = self._incidence_bits()[0]
            normals = [h.normal for h in self.facets]
            leaving = [{} for _ in at_vertex]
            smooth = [here.bit_count() == n for here in at_vertex]
            for (u, v), w in zip(S.edge_list, S._weight_col):
                at_u, at_v = at_vertex[u], at_vertex[v]
                x = at_u ^ at_v
                i = (x & at_u).bit_length() - 1
                j = (x & at_v).bit_length() - 1
                leaving[u][i] = w
                leaving[v][j] = tuple(map(neg, w))
                if sum(map(mul, normals[i], w)) != -1:
                    smooth[u] = False
                if sum(map(mul, normals[j], w)) != 1:
                    smooth[v] = False
            self._leaving = leaving
            self._delzant = tuple(smooth)
        return self._delzant

    def relative_length(self, edge):
        """Lattice length of an edge with integral endpoint difference."""
        length = self.skeleton().length(edge)
        if not isinstance(length, int):
            raise NonLatticeEdge(f"edge {edge} has non-integral length {length}")
        return length

    def relative_lengths(self):
        """The lattice lengths of the edges in ``edges()`` order: the
        skeleton's length column.  NonLatticeEdge names the first edge
        whose endpoint difference is not integral."""
        S = self.skeleton()
        lengths = list(S._length_col)
        for edge, length in zip(S.edge_list, lengths):
            if not isinstance(length, int):
                raise NonLatticeEdge(f"edge {edge} has non-integral length {length}")
        return lengths

    # -- global operations ----------------------------------------------------

    def dual(self):
        """Polar dual; requires the origin strictly interior.  Its vertices
        are -a/b for the facets <x, a> <= b, and each vertex v gives the
        facet <y, -v> <= 1."""
        if not all(h.offset > 0 for h in self.facets):
            raise OriginNotInterior("dual needs the origin strictly inside")
        # -a/b is the ray (num(b), -den(b) a), and with the vertices at
        # their common denominator q, the facet of v = x/q is <y, -x> <= q.
        verts = _points([(h.offset.numerator, *[-h.offset.denominator * c for c in h.normal])
                         for h in self.facets])
        q, points = self._integer_vertices()
        facets = []
        for x in points:
            w, m = exact.primitive(list(map(neg, x)))
            facets.append(Halfspace(w, exact.ratio(q, m)))
        return _canonical(self.dim, verts, facets)

    def dilate(self, r):
        r = exact.rational(r, "factor")
        if r == 0:
            raise NotFullDimensional("the 0-fold dilate is a point")
        s = 1 if r > 0 else -1
        a, b = r.numerator, r.denominator
        q, points = self._integer_vertices()
        return _canonical(
            self.dim,
            _points([(b * q,) + tuple(a * c for c in x) for x in points]),
            [Halfspace(tuple(s * c for c in h.normal),
                       exact.ratio(s * a * h.offset.numerator, b * h.offset.denominator))
             for h in self.facets],
        )

    def translate(self, t):
        t = tuple(map(exact.rational, t))
        if len(t) != self.dim:
            raise DimensionMismatch(f"dot of lengths {self.dim} and {len(t)}")
        # With the vertices and t at one common denominator q, the facet
        # <x, a> <= b moves to <x, a> <= (num(b) q + den(b) <a, q t>) / (den(b) q).
        q, points = exact.common_denominator(self.vertices + (t,))
        shift = points.pop()
        facets = []
        for h in self.facets:
            p, d = h.offset.numerator, h.offset.denominator
            facets.append(Halfspace(h.normal, exact.ratio(p * q + d * sum(map(mul, h.normal, shift)), d * q)))
        return _canonical(self.dim, _points([(q,) + tuple(map(add, x, shift)) for x in points]), facets)

    def contains(self, point, strict=False):
        return all(h.holds(point, strict=strict) for h in self.facets)

    def interior_lattice_points(self):
        """All lattice points strictly inside, in lexicographic order, by
        enumerating the bounding box."""
        los = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        his = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        ranges = [range(ceil(lo), floor(hi) + 1) for lo, hi in zip(los, his)]
        return [x for x in product(*ranges) if self.contains(x, strict=True)]

    def generic_direction(self, avoid=()):
        """Deterministic direction not orthogonal to any edge.

        Tries (1, B, B^2, ...) for increasing primes B, then for B = 2m + 1,
        m the largest |coordinate| of an edge weight, which is generic;
        skips any direction in ``avoid`` so that several distinct generic
        directions can be produced for cross-checks.
        """
        return gkm.generic_direction(self.skeleton(), avoid)

    def h_vector_directed(self, xi=None):
        """In-degree census of the edge orientation induced by xi, by
        default the first generic candidate direction."""
        if not self.is_simple():
            raise NotSimple("directed h-vector is defined for simple polytopes")
        S = self.skeleton()
        return gkm.first_census(S) if xi is None else gkm.h_vector_graph(S, xi)

    # -- misc -----------------------------------------------------------------

    def vertex_id(self, point):
        p = tuple(map(exact.rational, point))
        try:
            return self.vertices.index(p)
        except ValueError:
            raise KeyError(f"{point} is not a vertex")

    def incidence(self):
        """The vertex-facet incidence both ways: the facet ids at each vertex
        and the vertex ids on each facet, as two tuples of frozensets, made
        on each call from the kept bitmasks of ``_incidence_bits``."""
        at_vertex, on_facet = self._incidence_bits()
        return tuple(map(_ids, at_vertex)), tuple(map(_ids, on_facet))

    def _incidence_bits(self):
        """The incidence as int bitmasks: the facet mask at each vertex and
        the vertex mask on each facet.  Computed once, in one integer pass:
        with q the common denominator of the vertices, vertex v is on the
        facet <x, a> <= b iff <a, q v> * den(b) == q * num(b)."""
        if self._bits is None:
            q, points = self._integer_vertices()
            rows = [(h.normal, q * h.offset.numerator, h.offset.denominator)
                    for h in self.facets]
            at_vertex, on_facet = [], [0] * len(rows)
            for i, p in enumerate(points):
                here = 0
                for j, (a, rhs, den) in enumerate(rows):
                    if sum(map(mul, a, p)) * den == rhs:
                        here |= 1 << j
                        on_facet[j] |= 1 << i
                at_vertex.append(here)
            self._bits = at_vertex, on_facet
        return self._bits

    def _integer_vertices(self):
        """q, the common denominator of the vertices, and the integer points
        q v, shared by the incidence pass, the skeleton, ``dual`` and
        ``dilate``.  Computed once."""
        if self._ints is None:
            self._ints = exact.common_denominator(self.vertices)
        return self._ints

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


def _signed_units(n):
    """The vectors e_1, -e_1, ..., e_n, -e_n of Z^n, as tuples."""
    return [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]


def cube(n, r=1):
    """The cube [-r, r]^n."""
    return Polytope.from_halfspaces([(e, r) for e in _signed_units(n)])


def cross_polytope(n):
    """conv{+-e_i}: the dual of the unit cube."""
    return Polytope.from_vertices(_signed_units(n))


def simplex_cpn(n):
    """The reflexive simplex of projective n-space, edge length n+1."""
    pts = [tuple(-1 for _ in range(n))]
    for i in range(n):
        p = [-1] * n
        p[i] = n
        pts.append(tuple(p))
    return Polytope.from_vertices(pts)
