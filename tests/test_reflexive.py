import functools
import json
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant import catalog, cli, exact, gkm, oracle, reflexive
from delzant.errors import (
    DelzantError,
    InconsistentCones,
    NonLatticeEdge,
    NonPositiveIndex,
    NotDelzant,
    NotGorensteinOfIndex,
    NotReflexive,
    UnsupportedDimension,
)
from delzant.polytope import Polytope, cube, simplex_cpn

from test_oracle import halfspace_sets

SMOOTH_POLYGONS = ["cp2-triangle", "square", "blowup1", "blowup2", "hexagon"]
DELZANT_REFLEXIVE = SMOOTH_POLYGONS + ["cube", "cp3-simplex", "hypercube4"]


def _simple(rep):
    return next(item["pass"] for item in rep.per_item if item["id"] == "simple")


def test_is_delzant():
    for name in DELZANT_REFLEXIVE + ["rect", "unit-square", "std-simplex"]:
        assert reflexive.is_delzant(catalog.load(name)).passed, name
    rep = reflexive.is_delzant(catalog.load("octahedron"))
    assert not rep.passed and not _simple(rep)
    rep = reflexive.is_delzant(catalog.load("diamond"))
    assert _simple(rep) and not rep.passed  # vertex cones are not unimodular


def test_a_vertex_on_too_many_facets_is_not_smooth():
    # the apex of this square pyramid lies on four facets, and each edge
    # there pairs to -1 with the facet it is tested against: only
    # simplicity refuses it, in the report and in the kept verdict
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    P = Polytope.from_vertices(pts)
    apex = P.vertex_id((0, 0, 1))
    rep = reflexive.is_delzant(P)
    smooth = {i["id"]: i["pass"] for i in rep.per_item if i["id"].startswith("smooth")}
    assert not _simple(rep) and [k for k, ok in smooth.items() if not ok] == [f"smooth vertex {apex}"]
    assert all(P._delzant) is False
    with pytest.raises(NotDelzant):
        reflexive.verify_length_decomposition(Polytope.from_vertices(pts))


def test_is_reflexive():
    for name in DELZANT_REFLEXIVE + ["octahedron", "diamond"]:
        assert reflexive.is_reflexive(catalog.load(name)), name
    assert not reflexive.is_reflexive(catalog.load("rect"))
    assert not reflexive.is_reflexive(catalog.load("unit-square"))


def _reflexive_by_coordinates(P):
    return (all(c.denominator == 1 for v in P.vertices for c in v)
            and all(h.offset == 1 for h in P.facets))


@st.composite
def unit_offset_halfspaces(draw):
    """Inequalities <x, a> <= 1 with integer normals, around the simplex
    -x_i <= 1, x_1 + ... + x_n <= 1: a non-primitive normal gives an
    offset below 1, and the vertices need not be integral."""
    n = draw(st.integers(1, 3))
    normals = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n).filter(any), max_size=n + 3))
    normals += [tuple(-int(j == i) for j in range(n)) for i in range(n)] + [(1,) * n]
    return [(a, 1) for a in normals]


# Every offset is 1, but the vertex (2/3, -1) is not integral.
OFFSETS_ONE_NOT_REFLEXIVE = [((3, 1), 1), ((-1, 0), 1), ((0, -1), 1)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(unit_offset_halfspaces(), halfspace_sets()))
@example(OFFSETS_ONE_NOT_REFLEXIVE)
def test_is_reflexive_matches_the_coordinates(halfspaces):
    try:
        P = Polytope.from_halfspaces(halfspaces)
    except DelzantError:
        return
    assert reflexive.is_reflexive(P) == _reflexive_by_coordinates(P)


def test_offsets_one_with_a_rational_vertex_is_not_reflexive():
    P = Polytope.from_halfspaces(OFFSETS_ONE_NOT_REFLEXIVE)
    assert all(h.offset == 1 for h in P.facets)
    assert (Fraction(2, 3), -1) in P.vertices
    assert not reflexive.is_reflexive(P)


def test_is_reflexive_matches_the_coordinates_on_the_catalog():
    for name in catalog.names("polytope"):
        P = catalog.load(name)
        assert reflexive.is_reflexive(P) == _reflexive_by_coordinates(P), name


def test_vertex_fano():
    # the weights at each vertex sum to minus the vertex
    for name in DELZANT_REFLEXIVE:
        assert gkm.is_reflexive_graph(catalog.load(name).skeleton()).passed, name


def test_vertex_fano_fails_off_reflexive():
    rep = gkm.is_reflexive_graph(catalog.load("rect").skeleton())
    assert not rep.passed


def test_normal_contributions_square():
    P = cube(2)
    for e in P.edges():
        contribs = reflexive.normal_contributions(P, e)
        # in dimension 2 every edge lies in the single 2-face
        assert len(contribs) == 1
        assert 2 + contribs[0][1] == P.relative_length(e)


def _direction(P, a, b):
    return exact.rational_direction([x - y for x, y in zip(P.vertices[b], P.vertices[a])])[0]


def _contributions_by_2face_scan(P, edge):
    """The contributions found by scanning every 2-face and every edge."""
    u, v = edge

    def weight_in_face(vid, face):
        (w,) = [
            _direction(P, vid, b if a == vid else a)
            for a, b in P.edges()
            if vid in (a, b) and {a, b} != {u, v} and {a, b} <= face
        ]
        return w

    out = []
    for f in P.face_lattice().values():
        if f.dim == 2 and {u, v} <= f.vertex_ids:
            diff = tuple(x - y for x, y in zip(weight_in_face(u, f.vertex_ids),
                                               weight_in_face(v, f.vertex_ids)))
            w1 = _direction(P, u, v)
            k = next(i for i, c in enumerate(w1) if c)
            a = Fraction(diff[k], w1[k])
            assert diff == tuple(a * c for c in w1)
            out.append((f.vertex_ids, a))
    return sorted(out, key=lambda p: sorted(p[0]))


def test_normal_contributions_match_2face_scan():
    delzant = [n for n in catalog.names("polytope") if reflexive.is_delzant(catalog.load(n)).passed]
    assert set(DELZANT_REFLEXIVE) <= set(delzant)
    for P in [catalog.load(n) for n in delzant] + [cube(4)]:
        sums = {item["id"]: item["detail"]["contribution_sum"]
                for item in reflexive.verify_thm_combinatorics2(P).per_item}
        for e in P.edges():
            got = sorted(reflexive.normal_contributions(P, e), key=lambda p: sorted(p[0]))
            assert got == _contributions_by_2face_scan(P, e), (P, e)
            assert sums[f"edge {e}"] == sum(a for _, a in got), (P, e)


@pytest.mark.parametrize("name", ["cube", "hexagon", "cp3-simplex"])
def test_normal_contributions_of_every_vertex_pair(name):
    # an edge in either orientation gives the contributions of the 2-face
    # scan, and any other pair, a loop included, is a KeyError
    P = catalog.load(name)
    edges = set(P.edges())
    for u in range(len(P.vertices)):
        for v in range(len(P.vertices)):
            if (u, v) in edges or (v, u) in edges:
                got = sorted(reflexive.normal_contributions(P, (u, v)), key=lambda p: sorted(p[0]))
                assert got == _contributions_by_2face_scan(P, (u, v)), (u, v)
            else:
                with pytest.raises(KeyError):
                    reflexive.normal_contributions(P, (u, v))


def _delzant_passes(monkeypatch):
    """The polytopes the Delzant pass runs on from now on, one entry a run:
    only the pass writes a polytope's ``_leaving`` table."""
    runs = []
    setattr_ = Polytope.__setattr__

    def counted(self, name, value):
        if name == "_leaving" and value is not None:
            runs.append(self)
        setattr_(self, name, value)

    monkeypatch.setattr(Polytope, "__setattr__", counted)
    return runs


def test_normal_contributions_check_and_tabulate_once(monkeypatch):
    # the Delzant pass runs once per polytope and keeps on it the table of
    # the edge leaving each facet at each vertex, which every edge and
    # every verifier then reads
    calls = _delzant_passes(monkeypatch)
    P = cube(5)
    reflexive.normal_contributions(P, P.edges()[0])
    table = P._leaving
    at_vertex = P.incidence()[0]
    for vid, leaving in enumerate(table):
        assert set(leaving) == at_vertex[vid], vid
        assert sorted(leaving.values()) == sorted(P.vertex_weights(vid)), vid
    for e in P.edges():
        reflexive.normal_contributions(P, e)
    assert reflexive.verify_thm_combinatorics2(P).passed
    assert reflexive.verify_length_decomposition(P).passed
    assert calls == [P] and P._leaving is table
    Q = catalog.load("octahedron")
    for _ in range(2):
        with pytest.raises(NotDelzant):
            reflexive.normal_contributions(Q, Q.edges()[0])
    assert calls == [P, Q]


def test_delzant_verdict_is_kept_where_it_is_found(monkeypatch):
    # a Delzant check made outside the verifiers keeps its verdict too, so
    # a verifier run afterwards on the same polytope does not check again
    calls = _delzant_passes(monkeypatch)
    H = catalog.load("hexagon")
    P = reflexive.reconstruct_from_cones({i: H.vertex_weights(i) for i in range(len(H.vertices))})
    assert reflexive.verify_main_theorem(P).passed
    assert calls == [P]
    Q = cube(3)
    reflexive.from_polytope(Q)
    assert reflexive.verify_length_decomposition(Q).passed
    assert calls == [P, Q]
    R = catalog.load("octahedron")
    assert not all(R._delzant_pass()) and all(R._delzant) is False
    with pytest.raises(NotDelzant):
        reflexive.verify_main_theorem(R)
    assert calls == [P, Q, R]


def _verified(P):
    try:
        reflexive.verify_main_theorem(P)
    except (NotDelzant, NotReflexive):
        pass
    return P


def _checked(P):
    reflexive.is_delzant(P)
    return P


def _skeleton_made(P):
    try:
        reflexive.from_polytope(P)
    except (NotDelzant, NotReflexive):
        pass
    return P


def _reconstructed(P):
    return reflexive.reconstruct_from_cones({i: P.vertex_weights(i) for i in range(len(P.vertices))})


ORDERS = {
    "is_delzant-after-a-verifier": (_verified, _checked),
    "a-verifier-after-is_delzant": (_checked, _verified),
    "from_polytope-then-a-verifier": (_skeleton_made, _verified),
    "reconstruct_from_cones-then-a-verifier": (_reconstructed, _verified),
}


# Delzant and reflexive (cube, hexagon), Delzant only (rect), and neither
# (octahedron); only the first two have cones to reconstruct from.
@pytest.mark.parametrize("order, name", [
    (order, name) for order in ORDERS for name in ["cube", "hexagon", "rect", "octahedron"]
    if name in ("cube", "hexagon") or ORDERS[order][0] is not _reconstructed
])
def test_the_delzant_pass_runs_once_per_polytope(order, name, monkeypatch):
    # whichever caller comes first runs the pass, and the second reads what
    # it kept; reconstruct_from_cones runs none, so its verifier runs it
    first, then = ORDERS[order]
    P = catalog.load(name)
    runs = _delzant_passes(monkeypatch)
    Q = first(P)
    then(Q)
    assert len(runs) == 1 and runs[0] is Q


def _leaving_by_stars(P):
    """The facet each edge leaves at each vertex, with the edge's weight,
    from each vertex's star, in the way the Delzant check made the table
    before it read the skeleton's edges."""
    S = P.skeleton()
    at_vertex = P._incidence_bits()[0]
    table = []
    for vid, here in enumerate(at_vertex):
        others, ws = gkm.star(S, vid)
        table.append({(here & ~at_vertex[o]).bit_length() - 1: w for o, w in zip(others, ws)})
    return table


@pytest.mark.parametrize("name", catalog.names("polytope"))
def test_leaving_table_is_the_star_table(name):
    # the octahedron is not simple: at each vertex two of its four edges
    # leave the same highest facet, and the second one's weight is kept in
    # the first one's place
    P = catalog.load(name)
    rep = reflexive.is_delzant(P)
    assert all(P._delzant) is rep.passed
    assert [list(t.items()) for t in P._leaving] == [list(t.items()) for t in _leaving_by_stars(P)]


def test_dim2_contribution_sum():
    # sum of contributions = 12 - 3*f0 in dimension 2
    for name in SMOOTH_POLYGONS:
        P = catalog.load(name)
        total = sum(
            a for e in P.edges() for _, a in reflexive.normal_contributions(P, e)
        )
        assert total == 12 - 3 * P.f_vector()[0], name


def test_thm_combinatorics2():
    for name in DELZANT_REFLEXIVE + ["rect", "unit-square", "std-simplex"]:
        assert reflexive.verify_thm_combinatorics2(catalog.load(name)).passed, name


def test_length_decomposition():
    for name in DELZANT_REFLEXIVE:
        assert reflexive.verify_length_decomposition(catalog.load(name)).passed, name


def test_main_theorem():
    for name in DELZANT_REFLEXIVE:
        assert reflexive.verify_main_theorem(catalog.load(name)).passed, name


def test_main_theorem_values():
    assert sum(cube(3).relative_lengths()) == 24
    assert sum(simplex_cpn(3).relative_lengths()) == 24
    assert sum(cube(4).relative_lengths()) == 64


@pytest.mark.parametrize("vertices, first", [
    ([(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))], (0, 1)),
    # the first edge has length 1, the second 1/2
    ([(0, 0), (0, 1), (Fraction(1, 2), 0), (Fraction(1, 2), 1)], (0, 2)),
], ids=["half-triangle", "half-rectangle"])
def test_sum_lengths_names_the_first_non_lattice_edge(vertices, first):
    P = Polytope.from_vertices(vertices)
    assert reflexive.is_delzant(P).passed
    assert [e for e in P.edges() if not isinstance(P.skeleton().length(e), int)][0] == first
    with pytest.raises(NonLatticeEdge) as by_edge:
        P.relative_length(first)
    with pytest.raises(NonLatticeEdge) as by_sum:
        sum(P.relative_lengths())
    assert str(by_sum.value) == str(by_edge.value) == f"edge {first} has non-integral length 1/2"


# Two GL(2, Z) matrices, of determinant 1 and -1.
MOVES_2 = ([[2, 1], [1, 1]], [[1, 3], [0, -1]])


def _moved(P, u):
    """P under the linear map u."""
    return Polytope.from_vertices([tuple(sum(a * c for a, c in zip(row, v)) for row in u)
                                   for v in P.vertices])


def test_twelve_on_polygons():
    # the "dual" item, read off pairs of facet normals, against the lengths
    # of the polar dual built as a polytope
    for name in SMOOTH_POLYGONS + ["diamond"]:
        P = catalog.load(name)
        for Q in [P] + [_moved(P, u) for u in MOVES_2]:
            if name != "diamond":
                assert sum(Q.relative_lengths()) + len(Q.vertices) == 12, name
            rep = reflexive.verify_12_24(Q)
            assert rep.passed, name
            dual = next(item for item in rep.per_item if item["id"] == "dual")
            assert dual["detail"]["sum"] == sum(Q.dual().relative_lengths()), name


def test_twelve_on_diamond():
    P = catalog.load("diamond")
    rep = reflexive.verify_12_24(P)
    assert rep.passed
    assert sum(P.relative_lengths()) == 4
    assert sum(P.dual().relative_lengths()) == 8


def test_twenty_four():
    for name in ["cube", "cp3-simplex", "octahedron"]:
        rep = reflexive.verify_12_24(catalog.load(name))
        assert rep.passed and rep.lhs == 24, name


# Two GL(3, Z) matrices, of determinant 1 and -1.
MOVES_3 = ([[1, 2, 0], [0, 1, 0], [1, 0, 1]], [[2, 1, 1], [1, 1, 0], [0, 0, -1]])


def _segment_length(p, q):
    return oracle.lattice_points_on_segment(p, q) - 1


def test_twenty_four_terms_match_segment_scan():
    # each edge's term is its lattice length times that of the segment
    # joining the dual vertices -a_i/b_i and -a_j/b_j of its two facets
    for name in ["cube", "cp3-simplex", "octahedron"]:
        P = catalog.load(name)
        for Q in [P] + [_moved(P, u) for u in MOVES_3]:
            terms = {item["id"]: item["detail"]["l*l_dual"]
                     for item in reflexive.verify_12_24(Q).per_item}
            assert len(terms) == len(Q.edges())
            for u, v in Q.edges():
                i, j = [h for h in Q.facets
                        if all(sum(Fraction(a) * c for a, c in zip(h.normal, Q.vertices[w]))
                               == h.offset for w in (u, v))]
                di, dj = ([Fraction(-a) / h.offset for a in h.normal] for h in (i, j))
                want = (_segment_length(Q.vertices[u], Q.vertices[v])
                        * _segment_length(di, dj))
                assert terms[f"edge {(u, v)}"] == want, (name, u, v)


def test_twelve_24_unsupported_dim():
    with pytest.raises(UnsupportedDimension):
        reflexive.verify_12_24(catalog.load("hypercube4"))


def test_twelve_24_requires_reflexive():
    with pytest.raises(NotReflexive):
        reflexive.verify_12_24(catalog.load("rect"))


@pytest.mark.parametrize("identity, name", [
    ("12-24", "square"),
    ("12-24", "cube"),
    ("main", "square"),
    ("main", "cube"),
    ("index-corollary", "square"),
    ("index-corollary", "hexagon"),
    ("length-decomposition", "square"),
    ("length-decomposition", "cube"),
    ("graph-corollary", "octahedron-skeleton"),
    ("gorenstein:2", "unit-square"),
    ("gorenstein:1", "cube"),
])
def test_a_corrupted_length_fails_the_identity(identity, name, monkeypatch, capsys):
    # These identities hold on every valid input, so only a wrong length
    # reaches their failing branch.  Doubling the first edge's length, in
    # the column every skeleton and JSON graph fills, must fail the report
    # (a larger sum too: a check weakened to >= would pass it) and exit 1.
    if identity == "graph-corollary":
        verify = gkm.verify_graph_corollary
    elif identity.startswith("gorenstein:"):
        verify = functools.partial(reflexive.verify_gorenstein, r=int(identity.split(":")[1]))
    else:
        verify = getattr(reflexive, cli._POLYTOPE_IDENTITIES[identity])
    assert verify(catalog.load(name)).passed
    fill = gkm.GkmGraph._fill

    def corrupted(self, *args):
        fill(self, *args)
        self._length_col[0] *= 2

    monkeypatch.setattr(gkm.GkmGraph, "_fill", corrupted)
    rep = verify(catalog.load(name))
    assert not rep.passed
    if identity == "index-corollary":
        # the edge side C_f moves with the lengths, the census side C_h not
        items = {item["id"]: item["pass"] for item in rep.per_item}
        assert items["f-equals-h"] is False
    assert cli.main(["verify", identity, f"catalog:{name}"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def _corrupt_first_contribution(monkeypatch):
    """Make every Delzant pass from now on keep, at u, for the lowest facet
    that the skeleton's first edge u v lies on, the weight x + w1 in place
    of x, w1 being the edge's weight: the edge's contribution in that
    2-face grows by one, and x + w1 - y is still a multiple of w1.  Returns
    the edge corrupted on each polytope, one entry a pass."""
    run = Polytope._delzant_pass
    corrupted = []

    def pass_(self):
        first = self._delzant is None
        verdict = run(self)
        if first:
            S = self.skeleton()
            (u, v), w1 = S.edge_list[0], S._weight_col[0]
            i = min(self._leaving[u].keys() & self._leaving[v].keys())
            self._leaving[u][i] = tuple(map(add, self._leaving[u][i], w1))
            corrupted.append((u, v))
        return verdict

    monkeypatch.setattr(Polytope, "_delzant_pass", pass_)
    return corrupted


@pytest.mark.parametrize("name", ["cube", "hexagon", "cp3-simplex", "hypercube4", "blowup2"])
def test_a_corrupted_contribution_fails_the_identity(name, monkeypatch, capsys):
    # smoothness is decided by the Delzant pass, and the contributions are
    # read off its table with no check of their own: a wrong contribution
    # must fail both identities that read it and exit 1, and the
    # decomposition must fail the corrupted edge alone
    P = catalog.load(name)
    assert reflexive.verify_thm_combinatorics2(P).passed
    assert reflexive.verify_length_decomposition(P).passed
    corrupted = _corrupt_first_contribution(monkeypatch)
    assert cli.main(["verify", "combinatorics2", f"catalog:{name}"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
    assert cli.main(["verify", "length-decomposition", f"catalog:{name}"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = [item["id"] for item in rep["per_item"] if not item["pass"]]
    assert rep["pass"] is False and len(corrupted) == 2
    assert failed == ["edge (%d, %d)" % corrupted[-1]]


def test_index_values():
    expected = {
        "square": 2, "cube": 2, "hypercube4": 2,
        "cp2-triangle": 3, "cp3-simplex": 4,
        "hexagon": 1, "blowup1": 1, "blowup2": 1,
    }
    for name, k0 in expected.items():
        assert reflexive.index_k0(catalog.load(name)) == k0, name


def test_index_corollary():
    for name in DELZANT_REFLEXIVE:
        P = catalog.load(name)
        rep = reflexive.verify_index_corollary(P)
        assert rep.passed, name
        assert 1 <= reflexive.index_k0(P) <= P.dim + 1


def test_gorenstein():
    assert reflexive.verify_gorenstein(catalog.load("unit-square"), 2).passed
    assert reflexive.verify_gorenstein(catalog.load("std-simplex"), 3).passed
    with pytest.raises(NotGorensteinOfIndex):
        reflexive.verify_gorenstein(catalog.load("unit-square"), 3)
    with pytest.raises(NotGorensteinOfIndex):  # no scan of the 199^2 interior points
        reflexive.verify_gorenstein(catalog.load("unit-square"), 200)


def test_gorenstein_says_why_it_refuses():
    # (1/2)CP^2 has the vertex (-1/2, -1/2), so its translate t = r v0 + (1, 1)
    # is not a lattice point at r = 1; the unit square's t = (1, 1) is one at
    # r = 3, but leaves the facets x_i <= 1 at the offset 2
    half = Polytope.from_vertices([(Fraction(-1, 2), Fraction(-1, 2)), (1, Fraction(-1, 2)),
                                   (Fraction(-1, 2), 1)])
    with pytest.raises(NotGorensteinOfIndex, match="^the 1-fold dilate has a non-integral facet offset$"):
        reflexive.verify_gorenstein(half, 1)
    with pytest.raises(NotGorensteinOfIndex, match="^no reflexive translate of the 3-fold dilate$"):
        reflexive.verify_gorenstein(catalog.load("unit-square"), 3)


def _shift_by_scan(P, r):
    """The shift -t for the first interior lattice point t of rP whose
    translate rP - t is reflexive, or None: the scan over every candidate."""
    rP = P.dilate(r)
    for t in rP.interior_lattice_points():
        if reflexive.is_reflexive(rP.translate(exact.vec_neg(t))):
            return list(exact.vec_neg(t))
    return None


def test_gorenstein_shift_matches_scan():
    delzant = [catalog.load(n) for n in catalog.names("polytope")
               if reflexive.is_delzant(catalog.load(n)).passed]
    moved = [catalog.load("unit-square").translate((2, -1)), cube(3).translate((1, 0, 0)),
             *(_moved(catalog.load(name), u) for name in ["unit-square", "std-simplex"]
               for u in MOVES_2)]
    # rational P, whose lengths need not be integers: (1/k)Q and its
    # translate by (1/k, ..., 1/k)
    shrunk = []
    for Q in delzant:
        for k in (2, 3):
            P = Q.dilate(Fraction(1, k))
            shrunk += [P, P.translate((Fraction(1, k),) * P.dim)]
    for P in delzant + moved + shrunk:
        for r in [1, -1, 2, -2, 3, 4, Fraction(1, 2), Fraction(3, 2)]:
            if r < 0:
                # a negative dilate may have a reflexive translate, but the
                # index of a Gorenstein polytope is positive
                with pytest.raises(NonPositiveIndex):
                    reflexive.verify_gorenstein(P, r)
                continue
            want = _shift_by_scan(P, r)
            if want is None:
                with pytest.raises(NotGorensteinOfIndex):
                    reflexive.verify_gorenstein(P, r)
            else:
                rep = reflexive.verify_gorenstein(P, r)
                assert rep.per_item[0]["detail"]["shift"] == want, (P, r)


def test_gorenstein_requires_delzant():
    with pytest.raises(NotDelzant):
        reflexive.verify_gorenstein(catalog.load("octahedron"), 1)


def test_reconstruct_from_cones():
    for name in DELZANT_REFLEXIVE:
        P = catalog.load(name)
        cones = {i: P.vertex_weights(i) for i in range(len(P.vertices))}
        assert reflexive.reconstruct_from_cones(cones) == P, name


SQUARE_CONES = {"a": [(1, 0), (0, 1)], "b": [(-1, 0), (0, -1)],
                "c": [(-1, 0), (0, 1)], "d": [(1, 0), (0, -1)]}


def test_reconstruct_rejects_bad_cones():
    with pytest.raises(InconsistentCones, match="cone at 0 is not unimodular"):
        reflexive.reconstruct_from_cones({0: [(2, 0), (0, 1)], 1: [(1, 0), (0, 1)]})
    # a fifth cone placed at (0, -1), on an edge of the square
    with pytest.raises(InconsistentCones, match="^placed points are not all extreme$"):
        reflexive.reconstruct_from_cones(dict(SQUARE_CONES, e=[(1, 0), (-1, 1)]))
    # placed at (-1, -1), where the square's cone is {(1, 0), (0, 1)}
    with pytest.raises(InconsistentCones, match="^cone at a not reproduced$"):
        reflexive.reconstruct_from_cones(dict(SQUARE_CONES, a=[(2, 1), (-1, 0)]))
    with pytest.raises(DelzantError):
        reflexive.reconstruct_from_cones({0: []})
