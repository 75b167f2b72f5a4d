"""The verifiers' skeleton-only paths against the face lattice and
determinants: ``edges()``, read off the incidence, against the walk's
1-faces; the census f- and h-vectors against ``f_vector()`` and
``h_vector_comb()``; the smoothness pairing against |det W| = 1; the
normal contributions against the weights of the 2-faces; and no verifier
or Delzant check walks the face lattice."""

import collections
import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import example, given, settings, strategies as st

from delzant import catalog, cli, exact, gkm, reflexive
from delzant.errors import DelzantError
from delzant.polytope import Polytope, cube, cross_polytope
from delzant.report import VerificationReport

from test_oracle import OCTAHEDRON, PYRAMID, RATIONAL, halfspace_sets, point_sets, unimodular

POLYTOPES = catalog.names("polytope")
DELZANT = [n for n in POLYTOPES if reflexive.is_delzant(catalog.load(n)).passed]
CUBES = range(1, 7)


def _walk_edges(P):
    """The vertex-id pairs of the walk's 1-faces."""
    return sorted(tuple(sorted(ids)) for ids, face in P.face_lattice().items() if face.dim == 1)


def _hulled(fn, arg):
    try:
        return fn(arg)
    except DelzantError:
        return None


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example(OCTAHEDRON)
@example(PYRAMID)
@example(RATIONAL)
@example([(Fraction(1, 2),), (Fraction(-3, 2),), (0,)])
def test_edges_match_the_walk_from_points(points):
    P = _hulled(Polytope.from_vertices, points)
    if P is not None:
        assert P.edges() == _walk_edges(P)


@settings(max_examples=150, deadline=None)
@given(halfspace_sets())
@example([((1,), 2), ((-1,), 1)])
@example([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 1), 2), ((1, -1), 3)])
def test_edges_match_the_walk_from_halfspaces(halfspaces):
    P = _hulled(Polytope.from_halfspaces, halfspaces)
    if P is not None:
        assert P.edges() == _walk_edges(P)


def _octahedron_times_square():
    # two vertices (a, s) and (a, t), s and t opposite corners of the
    # square, share the 4 facets F x square through a, which meet in
    # {a} x square: not an edge, though n - 1 = 4 facets hold both
    return Polytope.from_vertices([a + s for a in OCTAHEDRON
                                   for s in [(1, 1), (-1, 1), (-1, -1), (1, -1)]])


# Polytopes with both simple vertices, whose edges come from facet keys,
# and vertices on more than n facets, whose edges come from the pair scan.
BIPYRAMID = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)]
MIXED = {
    # the apex lies on 4 facets, the base vertices on 3
    "pyramid": lambda: Polytope.from_vertices(PYRAMID),
    # the apices lie on 3 facets, the equator vertices on 4
    "bipyramid": lambda: Polytope.from_vertices(BIPYRAMID),
    # the apex edge lies on 5 facets, the base edges on 4
    "pyramidxsegment": lambda: Polytope.from_vertices([p + (t,) for p in PYRAMID for t in (-1, 1)]),
    "segment": lambda: Polytope.from_vertices([(-1,), (2,)]),
}


def _on_more_than_n(P):
    return sum(len(active) > P.dim for active in P.incidence()[0])


@pytest.mark.parametrize("make", [*(lambda n=n: catalog.load(n) for n in POLYTOPES),
                                  *(lambda n=n: cube(n) for n in CUBES),
                                  lambda: cross_polytope(4), _octahedron_times_square,
                                  *MIXED.values()],
                         ids=[*POLYTOPES, *(f"cube{n}" for n in CUBES), "cross4",
                              "octahedronxsquare", *MIXED])
def test_edges_match_the_walk(make):
    P = make()
    assert P.edges() == _walk_edges(P)


def test_the_mixed_polytopes_have_both_kinds_of_vertex():
    counts = {name: (len(make().vertices), _on_more_than_n(make())) for name, make in MIXED.items()}
    assert counts == {"pyramid": (5, 1), "bipyramid": (5, 3), "pyramidxsegment": (10, 2),
                      "segment": (2, 0)}


@pytest.mark.parametrize("make", [*(lambda n=n: catalog.load(n) for n in POLYTOPES),
                                  *(lambda n=n: cube(n) for n in range(1, 9))],
                         ids=[*POLYTOPES, *(f"cube{n}" for n in range(1, 9))])
def test_a_simple_polytope_has_n_edges_at_each_vertex(make):
    # each vertex on exactly n facets: 2|E| = n V
    P = make()
    if not _on_more_than_n(P):
        assert 2 * len(P.edges()) == P.dim * len(P.vertices)


# The reflexive Delzant factors of the verify benchmark's products.
FACTORS = {
    "hexagon": catalog.load("hexagon").vertices,
    "blowup1": catalog.load("blowup1").vertices,
    "cp2": catalog.load("cp2-triangle").vertices,
    "cp3": catalog.load("cp3-simplex").vertices,
    "square": catalog.load("square").vertices,
    "seg": [(-1,), (1,)],
}
PRODUCTS = [("hexagon",), ("blowup1",), ("cp2",), ("cp2", "seg"), ("hexagon", "seg"),
            ("seg", "seg", "seg"), ("cp3",), ("cp2", "cp2"), ("cp3", "seg"),
            ("square", "square"), ("cp2", "cp2", "seg"), ("cp3", "cp2")]


def _product(names, u=None):
    points = [sum(vs, ()) for vs in itertools.product(*(FACTORS[n] for n in names))]
    if u is not None:
        points = [tuple(sum(a * c for a, c in zip(row, p)) for row in u) for p in points]
    return Polytope.from_vertices(points)


def _assert_census(P):
    assert reflexive._census(P) == (P.f_vector(), P.h_vector_comb())


@pytest.mark.parametrize("make", [*(lambda n=n: catalog.load(n) for n in DELZANT),
                                  *(lambda n=n: cube(n) for n in CUBES),
                                  *(lambda names=names: _product(names) for names in PRODUCTS)],
                         ids=[*DELZANT, *(f"cube{n}" for n in CUBES),
                              *("x".join(names) for names in PRODUCTS)])
def test_census_f_and_h_match_the_walk(make):
    _assert_census(make())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_census_f_and_h_match_the_walk_after_moves(data):
    names = data.draw(st.sampled_from(PRODUCTS))
    P = _product(names, data.draw(unimodular(sum(len(FACTORS[n][0]) for n in names))))
    _assert_census(P)


def _assert_contributions_match_the_2faces(P):
    """The 2-face lemma that lets the contributions go unchecked, from the
    face lattice, which shares no code with the Delzant pass: for each
    edge u v of weight w1 and each 2-face F through it, the weights x at u
    and y at v of F's other edges there from ``gkm.star`` give
    x - y = a w1, a the contribution ``normal_contributions`` gives for F."""
    S = P.skeleton()
    faces = [ids for ids, face in P.face_lattice().items() if face.dim == 2]
    for u, v in P.edges():
        w1 = S.weight((u, v))
        got = dict(reflexive.normal_contributions(P, (u, v)))
        through = [F for F in faces if u in F and v in F]
        assert sorted(got, key=sorted) == sorted(through, key=sorted), (u, v)
        for F in through:
            (x,) = [w for o, w in zip(*gkm.star(S, u)) if o in F and o != v]
            (y,) = [w for o, w in zip(*gkm.star(S, v)) if o in F and o != u]
            assert tuple(map(sub, x, y)) == tuple(got[F] * c for c in w1), (u, v, sorted(F))


@pytest.mark.parametrize("make", [*(lambda n=n: catalog.load(n) for n in DELZANT),
                                  *(lambda n=n: cube(n) for n in range(2, 6))],
                         ids=[*DELZANT, *(f"cube{n}" for n in range(2, 6))])
def test_contributions_match_the_2faces(make):
    _assert_contributions_match_the_2faces(make())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contributions_match_the_2faces_after_moves(data):
    names = data.draw(st.sampled_from(PRODUCTS))
    _assert_contributions_match_the_2faces(
        _product(names, data.draw(unimodular(sum(len(FACTORS[n][0]) for n in names)))))


def _pairing_matches_det(P):
    rep = reflexive.is_delzant(P)
    smooth = {it["id"]: it["pass"] for it in rep.per_item}
    checked = 0
    for vid in range(len(P.vertices)):
        ws = P.vertex_weights(vid)
        if len(ws) == P.dim:
            assert smooth[f"smooth vertex {vid}"] == (abs(exact.det(ws)) == 1), (P.vertices, vid)
            checked += 1
        else:
            assert not smooth[f"smooth vertex {vid}"]
    return checked


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example([(0, 0), (2, 0), (0, 1)])
@example(RATIONAL)
@example([(Fraction(1, 2), 0), (0, Fraction(1, 3)), (0, 0)])
@example(PYRAMID)
def test_smoothness_pairing_matches_det(points):
    P = _hulled(Polytope.from_vertices, points)
    if P is not None:
        _pairing_matches_det(P)


def test_smoothness_pairing_matches_det_on_known_polytopes():
    P = Polytope.from_vertices([(0, 0), (2, 0), (0, 1)])
    # (0, 1) has the weights (0, -1) and (2, -1): det 2
    assert [it["pass"] for it in reflexive.is_delzant(P).per_item[2:]] == [True, False, True]
    assert _pairing_matches_det(P) == 3
    rng = random.Random(15)
    for P in [*map(catalog.load, POLYTOPES), *map(cube, CUBES), *map(_product, PRODUCTS),
              Polytope.from_vertices(RATIONAL), catalog.load("hexagon").dilate(Fraction(1, 3))]:
        _pairing_matches_det(P)
        u = [[int(i == j) for j in range(P.dim)] for i in range(P.dim)]
        for _ in range(4):
            i, j = rng.sample(range(P.dim), 2) if P.dim > 1 else (0, 0)
            u[i] = [-c for c in u[i]] if i == j else [a + rng.choice((-1, 1)) * b
                                                      for a, b in zip(u[i], u[j])]
        _pairing_matches_det(Polytope.from_vertices(
            [tuple(sum(a * c for a, c in zip(row, v)) for row in u) for v in P.vertices]))


def _delzant_by_vertex(P):
    """A per-vertex form of the Delzant check: the weight leaving each
    facet at each vertex is gathered first, the highest facet an edge
    leaves where it is not simple, and then each vertex is smooth iff it
    has n edges and each of its gathered weights pairs to -1 with the
    normal of its facet.  Returns the report and the gathered table."""
    S = P.skeleton()
    at_vertex = P._incidence_bits()[0]
    normals = [h.normal for h in P.facets]
    leaving = [{} for _ in at_vertex]
    for (u, v), w in zip(S.edge_list, S._weight_col):
        at_u, at_v = at_vertex[u], at_vertex[v]
        leaving[u][(at_u & ~at_v).bit_length() - 1] = w
        leaving[v][(at_v & ~at_u).bit_length() - 1] = tuple(-c for c in w)
    degrees = collections.Counter(itertools.chain.from_iterable(S.edge_list))
    rep = VerificationReport("delzant", True)
    rep.add_item("simple", all(degrees[vid] == P.dim for vid in S.ids))
    rep.add_item("rational", True)
    for vid, out in enumerate(leaving):
        rep.add_item(f"smooth vertex {vid}", degrees[vid] == P.dim and all(
            exact.dot(normals[i], w) == -1 for i, w in out.items()))
    return rep, leaving


def _assert_delzant_by_vertex(P):
    rep, leaving = _delzant_by_vertex(P)
    assert reflexive.is_delzant(P).to_dict() == rep.to_dict()
    assert P._leaving == leaving and all(P._delzant) == rep.passed
    assert list(P._delzant) == [it["pass"] for it in rep.per_item[2:]]
    # is_simple reads the facet masks; the edge-end count is the oracle
    assert P.is_simple() is rep.per_item[0]["pass"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(st.just(Polytope.from_vertices), point_sets()),
                 st.tuples(st.just(Polytope.from_halfspaces), halfspace_sets())))
@example((Polytope.from_vertices, OCTAHEDRON))
@example((Polytope.from_vertices, PYRAMID))
@example((Polytope.from_vertices, BIPYRAMID))
@example((Polytope.from_vertices, RATIONAL))
@example((Polytope.from_vertices, [(0, 0), (2, 0), (0, 1)]))
@example((Polytope.from_vertices, [(-1,), (2,)]))
def test_delzant_check_matches_the_per_vertex_check(made):
    P = _hulled(*made)
    if P is not None:
        _assert_delzant_by_vertex(P)


@pytest.mark.parametrize("make", [*(lambda n=n: catalog.load(n) for n in POLYTOPES),
                                  *(lambda n=n: cube(n) for n in CUBES),
                                  lambda: cross_polytope(4), *MIXED.values()],
                         ids=[*POLYTOPES, *(f"cube{n}" for n in CUBES), "cross4", *MIXED])
def test_delzant_check_matches_the_per_vertex_check_on_known_polytopes(make):
    _assert_delzant_by_vertex(make())


VERIFIERS = [
    reflexive.verify_main_theorem, reflexive.verify_index_corollary,
    reflexive.verify_thm_combinatorics2, reflexive.verify_length_decomposition,
    reflexive.verify_12_24, lambda P: reflexive.verify_gorenstein(P, 1),
    lambda P: reflexive.verify_gorenstein(P, 2), reflexive.is_delzant,
    lambda P: [reflexive.normal_contributions(P, e) for e in P.edges()],
]


@pytest.mark.parametrize("make", [*(lambda n=n: catalog.load(n) for n in POLYTOPES),
                                  lambda: cube(5)], ids=[*POLYTOPES, "cube5"])
def test_no_verifier_walks_the_face_lattice(make, monkeypatch):
    # nor builds a polytope, reads the lengths through the integrality check
    # of ``relative_lengths`` or takes a determinant: each reads the
    # skeleton and the Delzant pass of the polytope it is given.
    built, read, dets = [], [], []
    init, relative_lengths, det = Polytope.__init__, Polytope.relative_lengths, exact.det

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_lengths(self):
        read.append(self)
        return relative_lengths(self)

    def counted_det(rows):
        dets.append(rows)
        return det(rows)

    monkeypatch.setattr(Polytope, "__init__", counted_init)
    monkeypatch.setattr(Polytope, "relative_lengths", counted_lengths)
    monkeypatch.setattr(exact, "det", counted_det)
    for verify in VERIFIERS:
        P = make()
        before = len(built)
        del read[:], dets[:]
        try:
            verify(P)
        except DelzantError:
            pass
        assert P._faces is None and len(built) == before, verify
        assert (len(read), len(dets)) == (0, 0), verify


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_polygon_on_which_every_prime_candidate_vanishes(tmp_path):
    # the lattice 39-gon with the sides (k, -1) for k = 2..37: every prime
    # candidate (1, b) vanishes on the side (b, -1)
    steps = [((k, -1), 1) for k in range(2, 38)] + [((1, 0), 1), ((0, 1), 36), ((-1, 0), 703)]
    pts = [(0, 0)]
    for (dx, dy), n in steps[:-1]:
        pts.append((pts[-1][0] + dx * n, pts[-1][1] + dy * n))
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps({"dim": 2, "vertices": pts}))
    P = Polytope.from_vertices(pts)
    assert len(P.vertices) == 39 and reflexive.is_delzant(P).passed
    code, out, err = _run(["hvector", "--directed", str(path)])
    assert (code, json.loads(out), err) == (0, {"h": [1, 37, 1], "h_directed": [1, 37, 1]}, "")
    code, out, err = _run(["verify", "combinatorics2", str(path)])
    assert (code, json.loads(out)["lhs"], err) == (0, 12 * 1 - 3 * 39, "")
