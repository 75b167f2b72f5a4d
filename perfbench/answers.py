"""Expected answers for the benchmark, computed apart from ``delzant``.

Nothing here imports the package under test.  Every answer comes from a
closed form or from a property the method must have, using exact integers
and ``Fraction`` only:

* the five smooth reflexive polygons, the segment and the simplices of
  CP^2 and CP^3 are written out by hand (vertices, facets, edges);
* a product of factors has the product vertices and the embedded facets,
  its f- and h-polynomials are the products of the factors' polynomials,
  L(P x Q) = L(P) f0(Q) + f0(P) L(Q) and k0(P x Q) = gcd(k0(P), k0(Q));
* a move by U in GL(n, Z) maps vertices by U and facet normals by U^{-T},
  leaving the offsets alone;
* a Weyl-orbit graph has |W| / |W_I| vertices of degree |Phi+| - |Phi+_I|,
  and its h-vector is the coefficient list of W(q) / W_I(q), each Poincare
  polynomial being the product of [d]_q over the degrees d.
"""

from fractions import Fraction
from itertools import product as cartesian
from math import comb, factorial, gcd

# -- polynomials as coefficient tuples, lowest degree first --------------------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_div_exact(a, b):
    """Quotient of a by b, which must divide it exactly."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def q_integer(d):
    """[d]_q = 1 + q + ... + q^(d-1)."""
    return (1,) * d


# -- f, h and the length-sum formula ------------------------------------------


def h_from_f(f):
    """h-vector of a simple n-polytope from f = (f0, ..., fn), fn = 1:
    h_j = sum_{i <= j} (-1)^(j-i) C(n-i, j-i) f_(n-i)."""
    n = len(f) - 1
    return tuple(
        sum((-1) ** (j - i) * comb(n - i, j - i) * f[n - i] for i in range(j + 1))
        for j in range(n + 1)
    )


def f_from_h(h):
    """f_k = sum_i C(i, k) h_i: a vertex of in-degree i tops C(i, k) k-faces."""
    n = len(h) - 1
    return tuple(sum(comb(i, k) * h[i] for i in range(n + 1)) for k in range(n + 1))


def length_sum_from_f(n, f):
    """The paper's length sum 12 f2 + (5 - 3n) f1 (f2 = 0 when n = 1)."""
    f2 = f[2] if n >= 2 else 0
    return 12 * f2 + (5 - 3 * n) * f[1]


def length_sum_from_h(n, h):
    """C(n, h): the length sum written through h, via the f-vector h gives."""
    return length_sum_from_f(n, f_from_h(h))


def indexed_length_sum(k0, n, f):
    """C(k0, n, f) = 12 f2 + (5 - 3n - k0) f1."""
    return 12 * f[2] + (5 - 3 * n - k0) * f[1]


def contribution_sum(n, f):
    """Sum of all normal contributions, 12 f2 - 3 (n - 1) f1."""
    return 12 * f[2] - 3 * (n - 1) * f[1]


def indexed_half_value(k0, n, half):
    """C(k0, n, h) on the symmetric vector with free half ``half`` and h0 = 1."""
    h = [1] + list(half)
    h += [0] * (n + 1 - len(h))
    for j in range(n + 1):
        if j > n - j:
            h[j] = h[n - j]
    return indexed_length_sum(k0, n, f_from_h(tuple(h)))


# -- exact linear algebra on small integer matrices ----------------------------


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def transpose(m):
    return [list(c) for c in zip(*m)]


def content(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g


def lattice_length(a, b):
    """Lattice length of the segment between two lattice points."""
    return content([int(x - y) for x, y in zip(a, b)])


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def signed_permutation(n, rng):
    """A random signed permutation matrix and its inverse (its transpose)."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    return p, transpose(p)


def unimodular(n, rng):
    """A random U in GL(n, Z) and its inverse: U = P T Q with P, Q random
    signed permutations and T the fixed tridiagonal matrix (I + N^T)(I + N),
    N the nilpotent shift.  Every seed gives entries of the same sizes, so
    the cost of the exact arithmetic on moved inputs is alike across seeds.
    """
    low = [[1 if i == j or i == j + 1 else 0 for j in range(n)] for i in range(n)]
    low_inv = [[(-1) ** (i - j) if i >= j else 0 for j in range(n)] for i in range(n)]
    t = mat_mul(low, transpose(low))
    t_inv = mat_mul(transpose(low_inv), low_inv)
    p, p_inv = signed_permutation(n, rng)
    q, q_inv = signed_permutation(n, rng)
    return mat_mul(mat_mul(p, t), q), mat_mul(mat_mul(q_inv, t_inv), p_inv)


# -- reflexive Delzant factors -------------------------------------------------


class Shape:
    """A lattice polytope known in closed form: vertices, facets
    (normal, offset), edges (vertex-index pairs), the f-vector and the
    sorted multiset of lattice edge lengths."""

    def __init__(self, name, dim, vertices, facets, edges, f, lengths=None):
        self.name = name
        self.dim = dim
        self.vertices = [tuple(v) for v in vertices]
        self.facets = [(tuple(a), Fraction(b)) for a, b in facets]
        self.edges = list(edges)
        self.f = tuple(f)
        if lengths is None:
            lengths = [lattice_length(self.vertices[a], self.vertices[b]) for a, b in self.edges]
        self.lengths = sorted(lengths)
        self.L = sum(self.lengths)
        self.k0 = 0
        for x in self.lengths:
            self.k0 = gcd(self.k0, x)

    @property
    def h(self):
        return h_from_f(self.f)

    def moved(self, u, inv, shift=None):
        """Image under x -> U x + shift (shift defaults to 0)."""
        shift = shift or (0,) * self.dim
        verts = [tuple(a + b for a, b in zip(mat_vec(u, v), shift)) for v in self.vertices]
        inv_t = transpose(inv)
        facets = []
        for a, b in self.facets:
            na = mat_vec(inv_t, a)
            facets.append((na, b + sum(x * y for x, y in zip(na, shift))))
        # U is unimodular, so every lattice length is kept.
        return Shape(self.name, self.dim, verts, facets, self.edges, self.f, self.lengths)

    def sorted_vertices(self):
        return sorted(tuple(Fraction(c) for c in v) for v in self.vertices)

    def sorted_facets(self):
        return sorted(self.facets)

    def dual(self):
        """Polar dual conv{-a/b}; facet of each vertex v: <y, -v> <= 1."""
        verts = [tuple(Fraction(-c) / b for c in a) for a, b in self.facets]
        facets = []
        for v in self.vertices:
            m = content(v)
            facets.append((tuple(-c // m for c in v), Fraction(1, m)))
        return sorted(verts), sorted(facets)


def _polygon(name, cyclic, normals):
    k = len(cyclic)
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Shape(name, 2, cyclic, [(a, 1) for a in normals], edges, (k, k, 1))


def _simplex(name, n):
    verts = [(-1,) * n] + [tuple(n if j == i else -1 for j in range(n)) for i in range(n)]
    normals = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    normals.append((1,) * n)
    edges = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    f = tuple(comb(n + 1, k + 1) for k in range(n + 1))
    return Shape(name, n, verts, [(a, 1) for a in normals], edges, f)


FACTORS = {
    "seg": Shape("seg", 1, [(-1,), (1,)], [((1,), 1), ((-1,), 1)], [(0, 1)], (2, 1)),
    "cp2": _simplex("cp2", 2),
    "cp3": _simplex("cp3", 3),
    "square": _polygon(
        "square", [(-1, -1), (1, -1), (1, 1), (-1, 1)],
        [(0, -1), (1, 0), (0, 1), (-1, 0)],
    ),
    "blowup1": _polygon(
        "blowup1", [(1, 0), (0, 1), (-2, 1), (1, -2)],
        [(1, 1), (0, 1), (-1, -1), (1, 0)],
    ),
    "blowup2": _polygon(
        "blowup2", [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)],
        [(1, 1), (0, 1), (-1, 0), (0, -1), (1, 0)],
    ),
    "hexagon": _polygon(
        "hexagon", [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
    ),
}

POLYGONS = ("cp2", "square", "blowup1", "blowup2", "hexagon")


def product(*names):
    """The product of named factors, with every closed-form answer."""
    shapes = [FACTORS[n] for n in names]
    out = shapes[0]
    for q in shapes[1:]:
        out = _product2(out, q)
    out.name = "x".join(names)
    return out


def _product2(p, q):
    nq = len(q.vertices)
    verts = [a + b for a, b in cartesian(p.vertices, q.vertices)]
    facets = [(a + (0,) * q.dim, b) for a, b in p.facets]
    facets += [((0,) * p.dim + a, b) for a, b in q.facets]
    edges = [(i * nq + k, j * nq + k) for i, j in p.edges for k in range(nq)]
    edges += [(i * nq + k, i * nq + l) for i in range(len(p.vertices)) for k, l in q.edges]
    f = poly_mul(p.f, q.f)
    # Each edge of P x Q is an edge of one factor times a vertex of the other.
    lengths = p.lengths * q.f[0] + q.lengths * p.f[0]
    out = Shape(p.name + "x" + q.name, p.dim + q.dim, verts, facets, edges, f, lengths)
    # L(P x Q) = L(P) f0(Q) + f0(P) L(Q); k0(P x Q) = gcd(k0(P), k0(Q)).
    out.L = p.L * q.f[0] + p.f[0] * q.L
    out.k0 = gcd(p.k0, q.k0)
    return out


def twelve_24(shape):
    """The value of the 12/24 identity and, in dimension 2, L of the dual."""
    if shape.dim == 2:
        return 12, 12 - shape.L
    if shape.dim == 3:
        return 24, None
    raise ValueError("the 12/24 identities hold in dimensions 2 and 3")


# -- Gorenstein non-reflexive inputs -------------------------------------------


def unit_cube(k):
    """[0, 1]^k: Gorenstein of index 2 around the point (1, ..., 1) of 2P."""
    verts = list(cartesian((0, 1), repeat=k))
    facets = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        facets.append((e, 1))
        facets.append((tuple(-c for c in e), 0))
    edges = [
        (a, b) for a in range(len(verts)) for b in range(a + 1, len(verts))
        if sum(x != y for x, y in zip(verts[a], verts[b])) == 1
    ]
    f = tuple(comb(k, j) * 2 ** (k - j) for j in range(k + 1))
    return Shape(f"unit_cube{k}", k, verts, facets, edges, f), 2, (1,) * k


def standard_simplex(k):
    """conv{0, e_i}: Gorenstein of index k + 1 around (1, ..., 1) of (k+1)P."""
    verts = [(0,) * k] + [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    facets = [(tuple(-1 if j == i else 0 for j in range(k)), 0) for i in range(k)]
    facets.append(((1,) * k, 1))
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    f = tuple(comb(k + 1, j + 1) for j in range(k + 1))
    return Shape(f"std_simplex{k}", k, verts, facets, edges, f), k + 1, (1,) * k


# -- root systems by their standard formulas -----------------------------------


def weyl_order(kind, rank):
    return {
        "A": lambda r: factorial(r + 1),
        "B": lambda r: 2**r * factorial(r),
        "C": lambda r: 2**r * factorial(r),
        "D": lambda r: 2 ** (r - 1) * factorial(r),
        "G": lambda r: 12,
    }[kind](rank)


def positive_root_count(kind, rank):
    return {
        "A": lambda r: r * (r + 1) // 2,
        "B": lambda r: r * r,
        "C": lambda r: r * r,
        "D": lambda r: r * (r - 1),
        "G": lambda r: 6,
    }[kind](rank)


def degrees(kind, rank):
    if kind == "A":
        return tuple(range(2, rank + 2))
    if kind in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if kind == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return (2, 6)


def levi_components(kind, rank, I):
    """Types of the connected components of the Dynkin subdiagram on I.

    Simple roots are numbered 0..rank-1 along the diagram as in Bourbaki:
    for B and C the last root is the short (resp. long) end, for D the
    last two roots both hang off root rank-3.
    """
    I = set(I)
    adj = {i: set() for i in range(rank)}
    for i in range(rank - 1):
        adj[i].add(i + 1)
        adj[i + 1].add(i)
    if kind == "D":
        adj[rank - 2].discard(rank - 1)
        adj[rank - 1].discard(rank - 2)
        adj[rank - 3].add(rank - 1)
        adj[rank - 1].add(rank - 3)
    comps, seen = [], set()
    for s in sorted(I):
        if s in seen:
            continue
        stack, comp = [s], set()
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(y for y in adj[x] if y in I and y not in comp)
        seen |= comp
        k = len(comp)
        if kind in ("B", "C") and rank - 1 in comp and k >= 2:
            comps.append((kind, k))
        elif kind == "D" and {rank - 2, rank - 1} <= comp and k >= 4:
            comps.append(("D", k))
        elif kind == "G" and k == 2:
            comps.append(("G", 2))
        else:
            comps.append(("A", k))
    return comps


class OrbitAnswer:
    """Closed-form answers for the coadjoint-orbit graph of (kind, rank, I)."""

    def __init__(self, kind, rank, I):
        levi = levi_components(kind, rank, I)
        self.vertices = weyl_order(kind, rank)
        self.degree = positive_root_count(kind, rank)
        w_full = (1,)
        for d in degrees(kind, rank):
            w_full = poly_mul(w_full, q_integer(d))
        w_levi = (1,)
        for t, k in levi:
            self.vertices //= weyl_order(t, k)
            self.degree -= positive_root_count(t, k)
            for d in degrees(t, k):
                w_levi = poly_mul(w_levi, q_integer(d))
        self.h = poly_div_exact(w_full, w_levi)
        self.edges = self.vertices * self.degree // 2
        # The base point is minus the sum of the roots outside I, which is
        # the weight sum there, so the Gorenstein index r is 1.
        self.r = 1
        self.length_sum = Fraction(length_sum_from_h(self.degree, self.h), self.r)
