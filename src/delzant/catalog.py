"""Built-in example catalog: the five smooth reflexive polygons, standard
reflexive solids, a few non-reflexive Delzant examples, and the coadjoint
Weyl-orbit graphs."""

from collections import namedtuple

from . import roots
from .gkm import GkmGraph
from .polytope import Polytope, _signed_units, cube, simplex_cpn


# kind is "polytope" or "gkm-graph"; build() makes the object.
CatalogEntry = namedtuple("CatalogEntry", "name kind note build")


def _poly(verts):
    return lambda: Polytope.from_vertices([tuple(v) for v in verts])


def _coadjoint(kind, rank, I):
    return lambda: roots.coadjoint_graph(roots.build(kind, rank), I)


def _octahedron_skeleton():
    pts = _signed_units(3)
    vertices = [(i, p) for i, p in enumerate(pts)]
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if any(a + b != 0 for a, b in zip(pts[i], pts[j]))
    ]
    return GkmGraph(3, 4, vertices, edges)


_ENTRIES = [
    CatalogEntry(
        "cp2-triangle", "polytope",
        "smooth reflexive triangle, the moment polytope of CP^2",
        _poly([(-1, -1), (2, -1), (-1, 2)]),
    ),
    CatalogEntry(
        "square", "polytope",
        "smooth reflexive square [-1,1]^2, CP^1 x CP^1",
        lambda: cube(2),
    ),
    CatalogEntry(
        "blowup1", "polytope",
        "smooth reflexive quadrilateral, CP^2 blown up at one point",
        _poly([(1, 0), (0, 1), (1, -2), (-2, 1)]),
    ),
    CatalogEntry(
        "blowup2", "polytope",
        "smooth reflexive pentagon, CP^2 blown up at two points",
        _poly([(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)]),
    ),
    CatalogEntry(
        "hexagon", "polytope",
        "smooth reflexive hexagon, CP^2 blown up at three points",
        _poly([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]),
    ),
    CatalogEntry(
        "cube", "polytope",
        "smooth reflexive cube [-1,1]^3",
        lambda: cube(3),
    ),
    CatalogEntry(
        "cp3-simplex", "polytope",
        "smooth reflexive simplex, the moment polytope of CP^3",
        lambda: simplex_cpn(3),
    ),
    CatalogEntry(
        "hypercube4", "polytope",
        "smooth reflexive hypercube [-1,1]^4",
        lambda: cube(4),
    ),
    CatalogEntry(
        "octahedron", "polytope",
        "reflexive but non-simple octahedron conv{+-e_i}",
        _poly([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
    ),
    CatalogEntry(
        "diamond", "polytope",
        "reflexive non-smooth square conv{+-e_1, +-e_2}",
        _poly([(1, 0), (-1, 0), (0, 1), (0, -1)]),
    ),
    CatalogEntry(
        "rect", "polytope",
        "Delzant but non-reflexive rectangle [0,1] x [0,2]",
        _poly([(0, 0), (1, 0), (0, 2), (1, 2)]),
    ),
    CatalogEntry(
        "unit-square", "polytope",
        "Delzant square [0,1]^2, Gorenstein of index 2",
        _poly([(0, 0), (1, 0), (0, 1), (1, 1)]),
    ),
    CatalogEntry(
        "std-simplex", "polytope",
        "standard Delzant triangle, Gorenstein of index 3",
        _poly([(0, 0), (1, 0), (0, 1)]),
    ),
    CatalogEntry(
        "a2-flag", "gkm-graph",
        "Weyl orbit graph of type A2 with empty parabolic (full flag)",
        _coadjoint("A", 2, ()),
    ),
    CatalogEntry(
        "a2-cp2", "gkm-graph",
        "Weyl orbit graph of type A2 with I = {second simple root} (CP^2)",
        _coadjoint("A", 2, (1,)),
    ),
    CatalogEntry(
        "a2-cp2b", "gkm-graph",
        "Weyl orbit graph of type A2 with I = {first simple root}",
        _coadjoint("A", 2, (0,)),
    ),
    CatalogEntry(
        "b2-flag", "gkm-graph",
        "Weyl orbit graph of type B2 with empty parabolic",
        _coadjoint("B", 2, ()),
    ),
    CatalogEntry(
        "b2-i1", "gkm-graph",
        "Weyl orbit graph of type B2 with I = {first simple root}",
        _coadjoint("B", 2, (0,)),
    ),
    CatalogEntry(
        "b2-i2", "gkm-graph",
        "Weyl orbit graph of type B2 with I = {second simple root}",
        _coadjoint("B", 2, (1,)),
    ),
    CatalogEntry(
        "gr24-graph", "gkm-graph",
        "Weyl orbit graph of type A3 with I = {outer simple roots}, Gr(2,4)",
        _coadjoint("A", 3, (0, 2)),
    ),
    CatalogEntry(
        "octahedron-skeleton", "gkm-graph",
        "octahedron 1-skeleton as a degree-4 graph, Gorenstein of index 4",
        _octahedron_skeleton,
    ),
]


def entries():
    return {e.name: e for e in _ENTRIES}


def names(kind=None):
    return [e.name for e in _ENTRIES if kind is None or e.kind == kind]


def load(name):
    table = entries()
    if name not in table:
        raise KeyError(f"no catalog entry named {name!r}")
    return table[name].build()
