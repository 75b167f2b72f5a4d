"""The Delzant and reflexivity checks, edge lengths, normal contributions,
the index, and machine verification of the edge-length-sum identities."""

from math import comb, gcd
from operator import mul, sub

from . import bounds, exact, gkm
from .errors import (
    InconsistentCones,
    NonPositiveIndex,
    NotDelzant,
    NotGorensteinOfIndex,
    NotReflexive,
    UnsupportedDimension,
)
from .polytope import Polytope, _bits, _ids
from .report import VerificationReport


def is_delzant(P):
    """The report ``check delzant`` prints, from the polytope's Delzant
    pass: simplicity, rationality, and smoothness vertex by vertex."""
    smooth = P._delzant_pass()
    rep = VerificationReport("delzant", True)
    rep.add_item("simple", P.is_simple())
    rep.add_item("rational", True)
    for vid, ok in enumerate(smooth):
        rep.add_item(f"smooth vertex {vid}", ok)
    return rep


def _require_delzant(P):
    if not all(P._delzant_pass()):
        raise NotDelzant("polytope is not Delzant")


def is_reflexive(P):
    """Integral vertices, origin interior, every facet of the form <x,l> <= 1.
    The vertices are integral iff their common denominator q, made by the
    incidence pass, is 1."""
    return P._integer_vertices()[0] == 1 and all(h.offset == 1 for h in P.facets)


def _require_reflexive(P):
    if not is_reflexive(P):
        raise NotReflexive("polytope is not reflexive")


def from_polytope(P):
    """The 1-skeleton of a Delzant reflexive polytope as a GKM graph."""
    _require_delzant(P)
    _require_reflexive(P)
    return P.skeleton()


def _census(P):
    """The f-vector and h-vector of a polytope already checked to be
    Delzant, without its face lattice: h is the in-degree census of the
    skeleton under its first generic direction (``P.h_vector_directed()``
    without the simplicity check), and f_k = sum_i C(i, k) h_i, since each
    k-face has one highest vertex, where it holds k of that vertex's
    in-edges, and each k of them span a k-face."""
    h = gkm.first_census(P.skeleton())
    return tuple(sum(comb(i, k) * c for i, c in enumerate(h)) for k in range(len(h))), h


def normal_contributions(P, edge):
    """Integer contribution of the edge in each 2-face containing it.

    For the edge u -> v with primitive direction w1, each 2-face F pairs
    the second weight w at u with the second weight w~ at v, and the
    contribution is the integer a with w - w~ = a * w1, which smoothness
    at u and at v guarantees (``_contributions``).  Returns a list of
    (vertex ids of F, a).  KeyError if u v is not an edge.
    """
    _require_delzant(P)
    at_vertex, on_facet = P._incidence_bits()
    u, v = edge
    w1 = P.skeleton().weight(edge)
    shared = at_vertex[u] & at_vertex[v]
    out = []
    for i, a in sorted(_contributions(P, [edge], [w1])[0].items()):
        face = (1 << len(P.vertices)) - 1
        for j in _bits(shared & ~(1 << i)):
            face &= on_facet[j]
        out.append((_ids(face), a))
    return out


def _contributions(P, edges, weights):
    """Per edge u v of ``edges``, with the weight w1 from u to v in
    ``weights``, its contribution in each 2-face through it, as a dict
    {facet id: a}, for a polytope already checked to be Delzant, from the
    table ``P._leaving`` its Delzant pass kept.

    In a simple polytope the edge lies on n-1 of the n facets at u, and its
    weight w1 at u leaves the other one, which v is not on: the shared
    facets are those the table has at both ends.  Leaving out facet i of
    the n-1, the others cut out a 2-face through the edge, and the second
    edge of that 2-face at u (and at v) is the one that leaves facet i.

    Its weights x at u and y at v span with w1 the lattice plane of that
    2-face.  Smoothness at u and at v makes {w1, x} and {-w1, y} bases of
    the plane, and x and y lie on the same side of the edge, so
    x - y = a w1 with a an integer, read off any nonzero coordinate of w1.
    Every caller has run ``_require_delzant``, so nothing is compared here.
    """
    leaving = P._leaving
    out = []
    for (u, v), w1 in zip(edges, weights):
        at_v = leaving[v]
        k = w1.index(next(filter(None, w1)))  # the first nonzero coordinate
        out.append({i: (x[k] - at_v[i][k]) // w1[k] for i, x in leaving[u].items() if i in at_v})
    return out


def _contribution_sums(P):
    """The sum of the contributions of each edge, in ``edges()`` order,
    from one pass over the skeleton's columns."""
    S = P.skeleton()
    return [sum(row.values()) for row in _contributions(P, S.edge_list, S._weight_col)]


def verify_thm_combinatorics2(P):
    """Sum of all normal contributions against 12*f2 - 3*(n-1)*f1."""
    _require_delzant(P)
    if P.dim < 2:
        raise UnsupportedDimension("the normal-contribution sum needs dimension >= 2")
    f, _ = _census(P)
    sums = _contribution_sums(P)
    total = sum(sums)
    rhs = 12 * f[2] - 3 * (P.dim - 1) * f[1]
    rep = VerificationReport("normal-contribution-sum", total == rhs, total, (rhs,))
    for e, s in zip(P.skeleton().edge_list, sums):
        rep.add_item("edge (%d, %d)" % e, True, {"contribution_sum": s})
    return rep


def verify_length_decomposition(P):
    """Per-edge check of l(e) = 2 + (sum of normal contributions)."""
    S = from_polytope(P)
    sums = [2 + a for a in _contribution_sums(P)]
    rep = VerificationReport("length-decomposition", True, S.sum_lengths(), (sum(sums),))
    for e, length, s in zip(S.edge_list, S._length_col, sums):
        rep.add_item("edge (%d, %d)" % e, length == s, {"length": length, "2+sum_a": s})
    return rep


def verify_main_theorem(P):
    """Edge-length sum against the f-vector and h-vector formulas."""
    S = from_polytope(P)
    n = P.dim
    if n < 2:
        raise UnsupportedDimension("length-sum formula needs dimension >= 2")
    total = S.sum_lengths()
    f, h = _census(P)
    rhs = [bounds.c_from_f(n, f), bounds.c_from_h(n, h)]
    if n >= 3:
        rhs.append(bounds.c_from_f3(n, f))
    rep = VerificationReport("length-sum", True, total, tuple(rhs))
    for name, value in zip(("f-formula", "h-formula", "f3-formula"), rhs):
        rep.add_item(name, total == value, {"value": value})
    return rep


def verify_12_24(P):
    """The dimension-2 "12" and dimension-3 "24" identities for reflexive
    polytopes (smoothness not required).

    The facets of a reflexive P are <x, a_i> <= 1, and its polar dual has
    the vertex -a_i for facet i.  A vertex of a polygon, or an edge of a
    3-polytope, lies on exactly two facets i and j, and is paired with the
    dual edge from -a_i to -a_j, of lattice length content(a_i - a_j).
    The vertices of a reflexive P are integral, so its lengths are too."""
    _require_reflexive(P)
    S = P.skeleton()
    at_vertex = P._incidence_bits()[0]

    def dual_length(mask):
        i, j = _bits(mask)
        return gcd(*map(sub, P.facets[i].normal, P.facets[j].normal))

    if P.dim == 2:
        primal, dual_sum = S.sum_lengths(), sum(map(dual_length, at_vertex))
        lhs = primal + dual_sum
        rep = VerificationReport("twelve", lhs == 12, lhs, (12,))
        rep.add_item("primal", True, {"sum": primal})
        rep.add_item("dual", True, {"sum": dual_sum})
        return rep
    if P.dim == 3:
        terms = [length * dual_length(at_vertex[u] & at_vertex[v])
                 for (u, v), length in zip(S.edge_list, S._length_col)]
        total = sum(terms)
        rep = VerificationReport("twenty-four", total == 24, total, (24,))
        for e, term in zip(S.edge_list, terms):
            rep.add_item("edge (%d, %d)" % e, True, {"l*l_dual": term})
        return rep
    raise UnsupportedDimension("the 12/24 identities hold in dimensions 2 and 3")


def index_k0(P):
    """gcd of all relative edge lengths of a reflexive Delzant polytope."""
    return gcd(*from_polytope(P)._length_col)


def verify_index_corollary(P):
    """The edge side C_f = sum_e (l(e) - k0), from the lengths alone,
    against C_h = C(k0, n, h) from the census; C_h >= 0, divisible by k0,
    and zero iff every edge has length exactly k0.  (C_f is all three for
    any lengths, each a multiple of k0.)"""
    S = from_polytope(P)
    lengths = S._length_col
    k0 = gcd(*lengths)
    n = P.dim
    if n < 2:
        raise UnsupportedDimension("the indexed length-sum formula needs dimension >= 2")
    cf = S.sum_lengths() - k0 * len(lengths)
    ch = bounds.c_indexed_from_h(k0, n, gkm.first_census(S))
    all_k0 = all(l == k0 for l in lengths)
    rep = VerificationReport("index-corollary", True, cf, (ch,))
    rep.add_item("f-equals-h", cf == ch, {"C_f": cf, "C_h": ch})
    rep.add_item("non-negative", ch >= 0, {"C": ch})
    rep.add_item("divisible", ch % k0 == 0, {"C": ch, "k0": k0})
    rep.add_item("zero-iff-equal-lengths", (ch == 0) == all_k0, {"lengths": list(lengths)})
    return rep


def verify_gorenstein(P, r):
    """Check the rescaled length-sum formula for a polytope whose r-th dilate
    has a reflexive lattice translate.

    A reflexive Delzant polytope has each vertex at minus the sum of its n
    weights, and rP - t has the vertex r v0 - t with the weights w_j of P at
    vertex 0, kept by the Delzant pass: so t = r v0 + sum_j w_j is the only
    candidate.  Those weights form a lattice basis, so t is a lattice point
    iff every r b_i on the n facets through vertex 0 is an integer.  rP - t
    has P's facets <x, a_i> at the offsets r b_i - <a_i, t>, and is
    reflexive iff each is 1.  The index r must be a positive rational.
    """
    r = exact.rational(r, "index")
    if r <= 0:
        raise NonPositiveIndex(f"the index {r} is not positive")
    _require_delzant(P)
    if P.dim < 2:
        raise UnsupportedDimension("the rescaled length-sum formula needs dimension >= 2")
    t = [r * c + sum(w) for c, *w in zip(P.vertices[0], *P._leaving[0].values())]
    if any(c.denominator != 1 for c in t):
        raise NotGorensteinOfIndex(f"the {r}-fold dilate has a non-integral facet offset")
    t = [c.numerator for c in t]
    if any(r * h.offset - sum(map(mul, h.normal, t)) != 1 for h in P.facets):
        raise NotGorensteinOfIndex(f"no reflexive translate of the {r}-fold dilate")
    total = P.skeleton().sum_lengths()
    f, _ = _census(P)
    rhs = exact.ratio(bounds.c_from_f(P.dim, f) * r.denominator, r.numerator)
    rep = VerificationReport("gorenstein-length-sum", total == rhs, total, (rhs,))
    rep.add_item("translate", True, {"shift": list(exact.vec_neg(t))})
    return rep


def reconstruct_from_cones(cones):
    """Rebuild a Delzant reflexive polytope from its vertex cones.

    ``cones`` maps a vertex label to the list of n weights at that vertex;
    each vertex is placed at minus the weight sum, and the reconstruction
    must reproduce the input cones exactly.  Then P is Delzant and
    reflexive with nothing more to test: every vertex is a placed label
    whose n edge weights form a lattice basis, so P is simple and smooth,
    and the facets through a vertex -sum w have the normals -w* of the
    dual basis, so each has offset 1.
    """
    placed = {}
    for label, weights in cones.items():
        if not exact.is_lattice_basis(list(weights)):
            raise InconsistentCones(f"cone at {label} is not unimodular")
        placed[label] = tuple([-sum(c) for c in zip(*weights)])
    P = Polytope.from_vertices(list(placed.values()))
    if len(P.vertices) != len(placed):
        raise InconsistentCones("placed points are not all extreme")
    for label, weights in cones.items():
        vid = P.vertex_id(placed[label])
        got = sorted(P.vertex_weights(vid))
        if got != sorted(tuple(w) for w in weights):
            raise InconsistentCones(f"cone at {label} not reproduced")
    return P
