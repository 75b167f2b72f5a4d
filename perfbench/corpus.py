"""The three workloads: their seeded inputs, the timed operation of each
item, and the check of every output against ``answers``.

A workload's ``build(mods, seed)`` is its set-up.  It returns the list of
items; each item's ``op(*fresh())`` is the timed operation (``fresh()``
makes its inputs, untimed) and ``check(out)`` returns "ok" or "failed"
(the known fault), or raises ``Mismatch`` on a wrong answer.  Operations
look the package's functions up at call time, so the traced mode's
wrappers see them.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import answers as A


class Mismatch(Exception):
    """An output disagrees with its expected answer."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Item:
    def __init__(self, name, fresh, op, check):
        self.name = name
        self.fresh = fresh
        self.op = op
        self.check = check


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _facet_pairs(P):
    return [(h.normal, h.offset) for h in P.facets]


def _check_hull(P, shape):
    expect(P.dim == shape.dim, f"{shape.name}: dimension {P.dim}")
    expect(list(P.vertices) == shape.sorted_vertices(), f"{shape.name}: vertices differ")
    expect(_facet_pairs(P) == shape.sorted_facets(), f"{shape.name}: facets differ")
    return "ok"


def _polytope(mods, dim, vertices, facets):
    """A fresh Polytope from stored descriptions, so no cached face lattice
    carries over from one repeat to the next."""
    Halfspace = mods.polytope.Halfspace
    return mods.polytope.Polytope(dim, vertices, [Halfspace(a, b) for a, b in facets])


# -- hull ------------------------------------------------------------------------

# Products of reflexive Delzant factors, each moved by a seeded U in GL(n, Z).
HULL_FROM_VERTICES = (
    ("hexagon",), ("blowup2",), ("blowup1",),
    ("cp2", "seg"), ("hexagon", "seg"), ("seg", "seg", "seg"), ("cp3",),
    ("cp2", "cp2"), ("cp3", "seg"), ("cp2", "seg", "seg"),
)
HULL_FROM_HALFSPACES = (
    ("hexagon", "seg"), ("blowup1", "seg"),
    ("hexagon", "square"), ("cp2", "cp2"), ("cp3", "seg"),
    ("cp2", "cp2", "seg"), ("cp3", "cp2"), ("square", "square", "seg"),
)
HULL_DUAL = (("hexagon",), ("hexagon", "seg"), ("cp2", "cp2"), ("square", "square"))
# Gorenstein non-reflexive inputs: [0,1]^k and standard simplices.
HULL_GORENSTEIN = (("unit_cube", 2), ("unit_cube", 3), ("std_simplex", 2), ("std_simplex", 3))


def _moved_product(names, rng):
    shape = A.product(*names)
    u, inv = A.unimodular(shape.dim, rng)
    return shape.moved(u, inv)


def build_hull(mods, seed):
    rng = _rng("hull", seed)
    items = []
    for names in HULL_FROM_VERTICES:
        shape = _moved_product(names, rng)
        pts = list(shape.vertices)
        rng.shuffle(pts)
        items.append(Item(
            f"from_vertices:{shape.name}", lambda pts=pts: (pts,),
            lambda pts: mods.polytope.Polytope.from_vertices(pts),
            lambda P, shape=shape: _check_hull(P, shape),
        ))
    for names in HULL_FROM_HALFSPACES:
        shape = _moved_product(names, rng)
        hs = list(shape.facets)
        rng.shuffle(hs)
        items.append(Item(
            f"from_halfspaces:{shape.name}", lambda hs=hs: (hs,),
            lambda hs: mods.polytope.Polytope.from_halfspaces(hs),
            lambda P, shape=shape: _check_hull(P, shape),
        ))
    for names in HULL_DUAL:
        shape = _moved_product(names, rng)
        verts, facets = shape.sorted_vertices(), shape.sorted_facets()
        want = shape.dual()

        def check_dual(D, want=want, name=shape.name):
            expect(list(D.vertices) == want[0], f"dual {name}: vertices differ")
            expect(_facet_pairs(D) == want[1], f"dual {name}: facets differ")
            return "ok"

        items.append(Item(
            f"dual:{shape.name}",
            lambda n=shape.dim, v=verts, f=facets: (_polytope(mods, n, v, f),),
            lambda P: P.dual(), check_dual,
        ))
    for kind, k in HULL_GORENSTEIN:
        base, r, centre = (A.unit_cube if kind == "unit_cube" else A.standard_simplex)(k)
        u, inv = A.signed_permutation(k, rng)
        shift = tuple(rng.randint(-3, 3) for _ in range(k))
        shape = base.moved(u, inv, shift)
        inner = tuple(a + r * s for a, s in zip(A.mat_vec(u, centre), shift))
        want_rhs = Fraction(A.length_sum_from_f(k, shape.f), r)

        def check_gor(rep, shape=shape, inner=inner, want_rhs=want_rhs):
            expect(rep.passed, f"gorenstein {shape.name}: report failed")
            expect(rep.lhs == shape.L, f"gorenstein {shape.name}: length sum {rep.lhs}")
            expect(tuple(rep.rhs) == (want_rhs,), f"gorenstein {shape.name}: rhs {rep.rhs}")
            shift = rep.per_item[0]["detail"]["shift"]
            expect(tuple(shift) == tuple(-c for c in inner), f"gorenstein {shape.name}: shift {shift}")
            return "ok"

        verts, facets = shape.sorted_vertices(), shape.sorted_facets()
        items.append(Item(
            f"verify_gorenstein:{shape.name}",
            lambda k=k, v=verts, f=facets, r=r: (_polytope(mods, k, v, f), r),
            lambda P, r: mods.reflexive.verify_gorenstein(P, r), check_gor,
        ))
    return items


# -- verify ----------------------------------------------------------------------

# (factors, verifiers): reflexive Delzant products in dimensions 2-5.
VERIFY_POLYTOPES = (
    (("hexagon",), "main index comb2 lendec 1224"),
    (("blowup1",), "main index comb2 lendec 1224"),
    (("cp2",), "main index comb2 lendec 1224"),
    (("cp2", "seg"), "main index comb2 lendec 1224"),
    (("hexagon", "seg"), "main index comb2 lendec 1224"),
    (("seg", "seg", "seg"), "main index comb2 lendec 1224"),
    (("cp3",), "main index comb2 lendec 1224"),
    (("cp2", "cp2"), "main index comb2 lendec"),
    (("cp3", "seg"), "main index comb2 lendec"),
    (("square", "square"), "main index comb2 lendec"),
    (("cp2", "cp2", "seg"), "main index comb2 lendec"),
    (("cp3", "cp2"), "main index comb2"),
)
# (n, k0) for bounds.enumerate_admissible(n, k0, require_unimodal=True),
# each paired with a corpus polytope of that dimension and index.
VERIFY_ENUMERATE = (
    (("hexagon",), 2, 1), (("cp2",), 2, 3), (("hexagon", "seg"), 3, 1),
    (("seg", "seg", "seg"), 3, 2), (("cp3",), 3, 4), (("square", "square"), 4, 2),
    (("cp2", "cp2"), 4, 3),
)


def _check_main(rep, s):
    n = s.dim
    expect(rep.passed, f"main {s.name}: report failed")
    expect(rep.lhs == s.L, f"main {s.name}: length sum {rep.lhs} != {s.L}")
    expect(len(rep.rhs) == (3 if n >= 3 else 2), f"main {s.name}: {len(rep.rhs)} formulas")
    expect(rep.rhs[0] == A.length_sum_from_f(n, s.f), f"main {s.name}: f-formula {rep.rhs[0]}")
    expect(rep.rhs[1] == A.length_sum_from_h(n, s.h), f"main {s.name}: h-formula {rep.rhs[1]}")
    expect(all(r == s.L for r in rep.rhs), f"main {s.name}: rhs {rep.rhs}")
    return "ok"


def _check_index(rep, s):
    c = A.indexed_length_sum(s.k0, s.dim, s.f)
    expect(rep.passed, f"index {s.name}: report failed")
    expect(rep.lhs == c and tuple(rep.rhs) == (c,), f"index {s.name}: C = {rep.lhs}, {rep.rhs}")
    expect(c >= 0 and c % s.k0 == 0, f"index {s.name}: closed form C = {c}")
    lengths = rep.per_item[-1]["detail"]["lengths"]
    expect(sorted(lengths) == s.lengths, f"index {s.name}: edge lengths differ")
    return "ok"


def _check_comb2(rep, s):
    want = A.contribution_sum(s.dim, s.f)
    expect(rep.passed, f"comb2 {s.name}: report failed")
    expect(rep.lhs == want and tuple(rep.rhs) == (want,), f"comb2 {s.name}: {rep.lhs} != {want}")
    per_edge = sorted(it["detail"]["contribution_sum"] for it in rep.per_item)
    # l(e) = 2 + (sum of normal contributions) on a reflexive Delzant polytope.
    expect(per_edge == sorted(l - 2 for l in s.lengths), f"comb2 {s.name}: per-edge sums differ")
    return "ok"


def _check_lendec(rep, s):
    expect(rep.passed, f"lendec {s.name}: report failed")
    expect(rep.lhs == s.L and tuple(rep.rhs) == (s.L,), f"lendec {s.name}: {rep.lhs}, {rep.rhs}")
    got = sorted(it["detail"]["length"] for it in rep.per_item)
    expect(got == s.lengths, f"lendec {s.name}: edge lengths differ")
    expect(all(it["pass"] for it in rep.per_item), f"lendec {s.name}: an edge failed")
    return "ok"


def _check_1224(rep, s):
    value, dual_sum = A.twelve_24(s)
    expect(rep.passed and rep.lhs == value, f"12/24 {s.name}: {rep.lhs} != {value}")
    if s.dim == 2:
        sums = [it["detail"]["sum"] for it in rep.per_item]
        expect(sums == [s.L, dual_sum], f"12/24 {s.name}: primal and dual sums {sums}")
    else:
        expect(len(rep.per_item) == s.f[1], f"12/24 {s.name}: {len(rep.per_item)} edges")
    return "ok"


def _check_enumerate(res, s, n, k0):
    expect(res.n == n and res.k0 == k0, f"enumerate ({n}, {k0}): echoed {res.n}, {res.k0}")
    unimodal = "unimodal" in res.constraints
    for half in res.half_vectors:
        value = A.indexed_half_value(k0, n, half)
        expect(value >= 0 and value % k0 == 0, f"enumerate ({n}, {k0}): {half} gives C = {value}")
        expect(min(half) >= 1, f"enumerate ({n}, {k0}): {half} not positive")
        if unimodal:
            seq = (1,) + tuple(half)
            expect(all(a <= b for a, b in zip(seq, seq[1:])), f"enumerate: {half} not unimodal")
    if res.complete:
        half = tuple(s.h[1:n // 2 + 1])
        expect(half in res.half_vectors, f"enumerate ({n}, {k0}): h of {s.name} missing")
    return "ok"


VERIFIERS = {
    "main": ("verify_main_theorem", _check_main),
    "index": ("verify_index_corollary", _check_index),
    "comb2": ("verify_thm_combinatorics2", _check_comb2),
    "lendec": ("verify_length_decomposition", _check_lendec),
    "1224": ("verify_12_24", _check_1224),
}


def build_verify(mods, seed):
    rng = _rng("verify", seed)
    items = []
    shapes = {}
    for names, which in VERIFY_POLYTOPES:
        shape = _moved_product(names, rng)
        hs = list(shape.facets)
        rng.shuffle(hs)
        P = mods.polytope.Polytope.from_halfspaces(hs)
        _check_hull(P, shape)
        stored = (P.dim, P.vertices, _facet_pairs(P))
        shapes[names] = shape
        for key in which.split():
            fname, check = VERIFIERS[key]
            items.append(Item(
                f"{fname}:{shape.name}",
                lambda stored=stored: (_polytope(mods, *stored),),
                lambda P, fname=fname: getattr(mods.reflexive, fname)(P),
                lambda rep, s=shape, check=check: check(rep, s),
            ))
    for names, n, k0 in VERIFY_ENUMERATE:
        s = shapes[names]
        if (s.dim, s.k0) != (n, k0):
            raise ValueError(f"enumerate item ({n}, {k0}) paired with {s.name}")
        items.append(Item(
            f"enumerate_admissible:{n},{k0}:{s.name}",
            lambda n=n, k0=k0: (n, k0),
            lambda n, k0: mods.bounds.enumerate_admissible(n, k0, require_unimodal=True),
            lambda res, s=s, n=n, k0=k0: _check_enumerate(res, s, n, k0),
        ))
    return items


# -- weyl ------------------------------------------------------------------------

# (type, rank, parabolic I): full flags and partial flags A1-A5, B2-B4,
# C2-C4, D4-D5 and G2.  A1 is the one known failure (see README).
WEYL_GRAPHS = (
    ("A", 1, ()), ("A", 2, ()), ("A", 2, (1,)), ("A", 3, ()), ("A", 3, (0, 2)),
    ("A", 4, (0,)), ("A", 4, (1, 2, 3)), ("A", 4, (0, 1)),
    ("A", 5, (1, 2, 3, 4)), ("A", 5, (0, 1, 3, 4)),
    ("B", 2, ()), ("B", 2, (0,)), ("B", 3, ()), ("B", 3, (0,)),
    ("B", 4, (1, 2, 3)), ("B", 4, (0, 1, 2)),
    ("C", 2, ()), ("C", 3, ()), ("C", 3, (0, 1)), ("C", 4, (1, 2, 3)), ("C", 4, (0, 1, 2)),
    ("D", 4, (1, 2, 3)), ("D", 4, (0, 2, 3)), ("D", 5, (1, 2, 3, 4)), ("D", 5, (0, 1, 2, 3)),
    ("G", 2, ()), ("G", 2, (0,)), ("G", 2, (1,)),
)


def _gkm_argv(kind, rank, I, rng):
    argv = ["gkm", "build", "G2" if kind == "G" else kind, str(rank)]
    if I:
        order = list(I)
        rng.shuffle(order)  # the parabolic is a set; its order must not matter
        argv += ["--I", ",".join(map(str, order))]
    return argv


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_weyl(result, key, ans):
    code, out, err = result
    if code == 2 and key == ("A", 1, ()) and "NonGenericDirection" in err:
        return "failed"  # the known fault: no generic direction in dimension 1
    expect(code == 0, f"gkm build {key}: exit {code}: {err.strip()}")
    g = json.loads(out)
    expect(g["ambient_dim"] == key[1] and g["degree"] == ans.degree, f"{key}: degree {g['degree']}")
    expect(len(g["vertices"]) == ans.vertices, f"{key}: {len(g['vertices'])} vertices")
    expect(len(g["edges"]) == ans.edges, f"{key}: {len(g['edges'])} edges")
    h = tuple(g["h"])
    expect(h == ans.h, f"{key}: h {h} != {ans.h}")
    expect(h == h[::-1] and sum(h) == ans.vertices, f"{key}: h not palindromic or wrong sum")
    valence = {}
    total = Fraction(0)
    for e in g["edges"]:
        expect(A.content(e["weight"]) == 1, f"{key}: weight {e['weight']} not primitive")
        length = Fraction(e["length"])
        expect(length > 0 and length.denominator == 1, f"{key}: edge length {length}")
        total += length
        for x in (e["u"], e["v"]):
            valence[x] = valence.get(x, 0) + 1
    expect(set(valence.values()) == {ans.degree}, f"{key}: graph is not {ans.degree}-regular")
    expect(Fraction(g["sum_lengths"]) == total == ans.length_sum, f"{key}: length sum {total}")
    rep = g["verification"]
    expect(rep["pass"] and Fraction(rep["lhs"]) == ans.length_sum, f"{key}: verification {rep['lhs']}")
    expect([Fraction(x) for x in rep["rhs"]] == [ans.length_sum], f"{key}: rhs {rep['rhs']}")
    expect(rep["per_item"][0]["detail"]["r"] == ans.r, f"{key}: index {rep['per_item'][0]}")
    return "ok"


def build_weyl(mods, seed):
    rng = _rng("weyl", seed)
    items = []
    for kind, rank, I in WEYL_GRAPHS:
        key = (kind, rank, I)
        ans = A.OrbitAnswer(kind, rank, I)
        argv = _gkm_argv(kind, rank, I, rng)
        name = " ".join(argv[:4]) + (f" --I {','.join(map(str, I))}" if I else "")
        items.append(Item(
            name, lambda argv=argv: (mods.cli, argv), run_cli,
            lambda result, key=key, ans=ans: _check_weyl(result, key, ans),
        ))
    return items


WORKLOADS = {"hull": build_hull, "verify": build_verify, "weyl": build_weyl}
