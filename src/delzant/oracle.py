"""Brute-force cross-checks, deliberately independent of the main code paths.

These exist so the identities can be verified against implementations that
share nothing with the primary ones beyond exact arithmetic.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, lcm, prod

from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    NotFullDimensional,
    Unbounded,
    UnboundedSearch,
    UnsupportedDimension,
    ZeroVector,
)
from .report import VerificationReport


def _on_segment(p, u, v):
    # p on [u, v]: collinear with consistent parameter in [0, 1]
    t = None
    for a, b, c in zip(p, u, v):
        if b == c:
            if Fraction(a) != Fraction(b):
                return False
            continue
        s = (Fraction(a) - Fraction(b)) / (Fraction(c) - Fraction(b))
        if t is None:
            t = s
        elif t != s:
            return False
    if t is None:
        return True
    return 0 <= t <= 1


# lattice_points_on_segment tests every lattice point of the segment's
# bounding box, about 20 us each in the plane on a shared 2-core Xeon; a
# diagonal edge of length L has a box of (L + 1)^dim points.
SEGMENT_BOX_LIMIT = 10**4


def lattice_points_on_segment(u, v):
    """Number of lattice points on the closed segment, by bounding-box scan.

    A box of more than SEGMENT_BOX_LIMIT lattice points raises
    UnboundedSearch before any point is tested.
    """
    lo = [ceil(min(Fraction(a), Fraction(b))) for a, b in zip(u, v)]
    hi = [floor(max(Fraction(a), Fraction(b))) for a, b in zip(u, v)]
    box = prod(max(0, b - a + 1) for a, b in zip(lo, hi))
    if box > SEGMENT_BOX_LIMIT:
        raise UnboundedSearch(
            f"the segment oracle tests all {box} lattice points of the edge's "
            f"bounding box; it takes at most {SEGMENT_BOX_LIMIT}"
        )
    count = 0
    for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if _on_segment(p, u, v):
            count += 1
    return count


def _rank(rows):
    # rank by rational Gaussian elimination; kept separate from the
    # exact-core implementation on purpose
    rows = [[Fraction(c) for c in r] for r in rows]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _affine_dim(points):
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        return -1
    return _rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])


def _det(rows):
    m = [[Fraction(c) for c in r] for r in rows]
    d = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def _solve(rows):
    """The solution of a square system given as augmented rows [A | b], by
    Gauss-Jordan elimination; None if A is singular."""
    m = [[Fraction(c) for c in r] for r in rows]
    n = len(m)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _cross(rows):
    """The vector of signed maximal minors of n-1 rows in Q^n: orthogonal
    to every row, and zero iff the rows are dependent."""
    n = len(rows) + 1
    return tuple(
        (-1) ** j * _det([[r[k] for k in range(n) if k != j] for r in rows])
        for j in range(n)
    )


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    """The primitive integer vector on the ray of a nonzero rational vector,
    and the positive factor m with v = m * w."""
    q = lcm(*(Fraction(c).denominator for c in v))
    ints = [int(Fraction(c) * q) for c in v]
    g = _content(ints)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive direction")
    return tuple(c // g for c in ints), Fraction(g, q)


def _hull_facets(pts, n):
    if n == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        return [((1,), hi), ((-1,), -lo)]
    seen = set()
    for sub in combinations(pts, n):
        w = _cross([[a - b for a, b in zip(p, sub[0])] for p in sub[1:]])
        if all(c == 0 for c in w):
            continue
        w, _ = _primitive(w)
        m = _dot(w, sub[0])
        vals = [_dot(w, p) for p in pts]
        if all(v <= m for v in vals):
            cand = (w, m)
        elif all(v >= m for v in vals):
            cand = (tuple(-c for c in w), -m)
        else:
            continue
        if cand not in seen and _affine_dim([p for p, v in zip(pts, vals) if v == m]) == n - 1:
            seen.add(cand)
    return sorted(seen)


def _hull_from_vertices(points):
    pts = sorted(set(tuple(Fraction(c) for c in p) for p in points))
    if not pts:
        raise EmptyPolytope("no points given")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points of mixed dimensions")
    if _affine_dim(pts) != n:
        raise NotFullDimensional(f"hull is not full-dimensional in R^{n}")
    facets = _hull_facets(pts, n)
    verts = [p for p in pts if _rank([a for a, b in facets if _dot(a, p) == b]) == n]
    return verts, facets


def _hull_from_halfspaces(halfspaces):
    hs = []
    for normal, offset in halfspaces:
        w, m = _primitive(normal)
        h = (w, Fraction(offset) / m)
        if h not in hs:
            hs.append(h)
    if not hs:
        raise Unbounded("no halfspaces given")
    n = len(hs[0][0])
    if any(len(a) != n for a, _ in hs):
        raise DimensionMismatch("normals of mixed dimensions")
    normals = [a for a, _ in hs]
    if _rank(normals) < n:
        raise Unbounded("normals do not span the ambient space")
    # The recession cone {d : <a, d> <= 0} is pointed; if it is not {0} it
    # has an extreme ray tight on n-1 independent normals.
    for sub in combinations(normals, n - 1):
        d = _cross(sub)
        if any(d) and any(all(_dot(a, [s * c for c in d]) <= 0 for a in normals) for s in (1, -1)):
            raise Unbounded("halfspace intersection has a recession direction")
    verts = set()
    for sub in combinations(hs, n):
        x = _solve([list(a) + [b] for a, b in sub])
        if x is not None and all(_dot(a, x) <= b for a, b in hs):
            verts.add(x)
    if not verts:
        raise EmptyPolytope("halfspace intersection is empty")
    verts = sorted(verts)
    if _affine_dim(verts) != n:
        raise NotFullDimensional("halfspace intersection is not full-dimensional")
    facets = [
        (a, b) for a, b in hs
        if _affine_dim([v for v in verts if _dot(a, v) == b]) == n - 1
    ]
    return verts, sorted(facets, reverse=n == 1)


def brute_hull(points=None, halfspaces=None):
    """Vertices and facets of a polytope given by exactly one of ``points``
    or ``halfspaces`` ((normal, offset) pairs), by subset scans: facets
    from the hyperplanes through n-subsets of the points, vertices from the
    solutions of n-subsets of the halfspaces.

    Returns (sorted vertices, facets as (primitive normal, offset) pairs) in
    the order every Polytope constructor gives, sorted except for
    [(1,), (-1,)] in dimension 1.  Malformed input raises the exception
    class the constructor raises.  The check that each coordinate and
    offset is rational belongs to the constructors alone: the oracle reads
    each one through Fraction(c), so it takes (0.5, 0) or an offset "1".
    Cost is C(V, n) or C(m, n).
    """
    if (points is None) == (halfspaces is None):
        raise ValueError("give exactly one of points and halfspaces")
    if points is not None:
        return _hull_from_vertices(points)
    return _hull_from_halfspaces(halfspaces)


def _on(h, v):
    """Whether the point v lies on the hyperplane of the halfspace h, by a
    Fraction dot product."""
    return sum(Fraction(a) * c for a, c in zip(h.normal, v)) == h.offset


# brute_f_vector tries every subset of the facets: 12 facets (the 6-cube)
# take about 20 s, and each further facet at least doubles that.
BRUTE_FACET_LIMIT = 12


def brute_f_vector(P):
    """f-vector by exhausting facet subsets, independent of the face lattice.

    A polytope with more than BRUTE_FACET_LIMIT facets raises
    UnboundedSearch before any subset is tried.
    """
    n = P.dim
    nf = len(P.facets)
    if nf > BRUTE_FACET_LIMIT:
        raise UnboundedSearch(
            f"the f-vector oracle tries all 2^{nf} subsets of the {nf} facets; "
            f"it takes at most {BRUTE_FACET_LIMIT} facets"
        )
    by_vertexset = {}
    for size in range(nf + 1):
        for subset in combinations(range(nf), size):
            verts = [
                v
                for v in P.vertices
                if all(_on(P.facets[i], v) for i in subset)
            ]
            if not verts:
                continue
            key = frozenset(verts)
            d = _affine_dim(verts)
            if size == 0:
                d = n
            by_vertexset.setdefault(key, d)
    f = [0] * (n + 1)
    for d in by_vertexset.values():
        f[d] += 1
    return tuple(f)


def _content(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g


def _edges_by_scan(P, on):
    """The edges u < v of P, given the facets ``on`` each vertex lies on:
    the pairs whose smallest face, the vertices on every facet through
    both, spans a line."""
    return [(u, v) for u, v in combinations(range(len(P.vertices)), 2)
            if _affine_dim([p for p, at in zip(P.vertices, on) if on[u] & on[v] <= at]) == 1]


def dual_edge_lengths_check(P):
    """Dual-edge lengths of a Delzant reflexive polytope in dimension 2 or 3.

    n=2: every vertex of P gives a dual edge of length |det(weights)| = 1,
    and the dual edge lengths sum to f0(P).  n=3: every edge gives a dual
    edge of length 1.  A failed "reflexive" item is added unless every
    facet offset is 1 and every vertex is integral, and a failed "delzant"
    item at each vertex that is not on exactly n edges whose primitive
    directions have |det| = 1.  The facets through each vertex, the edges
    and their primitive directions come from scans of the vertices and
    facets.
    """
    n = P.dim
    if n not in (2, 3):
        raise UnsupportedDimension("dual-edge length check covers dimensions 2 and 3")
    on = [frozenset(j for j, h in enumerate(P.facets) if _on(h, v)) for v in P.vertices]
    edges = _edges_by_scan(P, on)

    def dual_length(i, j):
        return _content(tuple(a - b for a, b in zip(P.facets[i].normal, P.facets[j].normal)))

    rep = VerificationReport("dual-edge-lengths", True)
    if any(h.offset != 1 for h in P.facets) or any(
            Fraction(c).denominator != 1 for v in P.vertices for c in v):
        rep.add_item("reflexive", False)
    dets = []
    for vid, v in enumerate(P.vertices):
        ends = [u if w == vid else w for u, w in edges if vid in (u, w)]
        dirs = [_primitive([x - y for x, y in zip(P.vertices[o], v)])[0] for o in ends]
        dets.append(int(abs(_det(dirs))) if len(dirs) == n else None)
        if dets[-1] != 1:
            rep.add_item(f"delzant at vertex {vid}", False, {"edges": len(dirs), "det": dets[-1]})
    if n == 2:
        total = 0
        for vid, det in enumerate(dets):
            length = dual_length(*sorted(on[vid]))
            rep.add_item(
                f"vertex {vid}", length == 1 and det == length,
                {"dual_length": length, "det": det},
            )
            total += length
        rep.add_item("sum", total == len(P.vertices), {"sum": total, "f0": len(P.vertices)})
        return rep
    for e in edges:
        u, v = e
        length = dual_length(*sorted(on[u] & on[v]))
        rep.add_item(f"edge {e}", length == 1, {"dual_length": length})
    return rep
