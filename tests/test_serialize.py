import json
from fractions import Fraction

import pytest

from delzant import catalog, gkm, reflexive, serialize
from delzant.errors import MalformedInput


def test_num_roundtrip():
    assert serialize.num_to_json(Fraction(3)) == 3
    assert serialize.num_to_json(Fraction(-1, 2)) == "-1/2"
    assert serialize.num_from_json(3) == 3
    # a JSON integer is read as an int, as exact.rational keeps one, and
    # a "p" or "p/q" string as a Fraction
    assert type(serialize.num_from_json(3)) is int
    assert type(serialize.num_from_json("3")) is Fraction
    assert serialize.num_from_json("-1/2") == Fraction(-1, 2)
    with pytest.raises(MalformedInput):
        serialize.num_from_json("x")
    with pytest.raises(MalformedInput):
        serialize.num_from_json(1.5)
    with pytest.raises(MalformedInput):
        serialize.num_from_json(True)


def test_polytope_roundtrip_vertices():
    for name in catalog.names("polytope"):
        P = catalog.load(name)
        j = json.loads(json.dumps(serialize.polytope_to_json(P)))
        assert serialize.polytope_from_json(j) == P, name


def test_polytope_roundtrip_halfspaces():
    for name in ["cube", "hexagon", "octahedron"]:
        P = catalog.load(name)
        j = serialize.polytope_to_json(P)
        del j["vertices"]
        assert serialize.polytope_from_json(j) == P, name


def test_polytope_bad_input():
    with pytest.raises(MalformedInput):
        serialize.polytope_from_json({"dim": 2})
    with pytest.raises(MalformedInput):
        serialize.polytope_from_json([1, 2])
    with pytest.raises(MalformedInput):
        serialize.polytope_from_json({"dim": 2, "vertices": [[1, 0, 0]]})
    with pytest.raises(MalformedInput, match="bad facet 1"):
        serialize.polytope_from_json({"dim": 2, "facets": [1]})
    with pytest.raises(MalformedInput, match="graph JSON must be an object"):
        serialize.graph_from_json([])
    with pytest.raises(MalformedInput, match="graph JSON missing 'degree'"):
        serialize.graph_from_json({"ambient_dim": 1, "vertices": [], "edges": []})
    with pytest.raises(MalformedInput, match="bad graph edge"):
        serialize.graph_from_json({"ambient_dim": 1, "degree": 1, "edges": [{"u": 0}],
                                   "vertices": [{"id": 0, "coords": [0]}, {"id": 1, "coords": [1]}]})


def test_graph_roundtrip_preserves_verification():
    for name in catalog.names("gkm-graph"):
        G = catalog.load(name)
        j = json.loads(json.dumps(serialize.graph_to_json(G)))
        H = serialize.graph_from_json(j)
        assert gkm.h_vector_graph(H) == gkm.h_vector_graph(G), name
        assert H.sum_lengths() == G.sum_lengths(), name
        assert gkm.verify_graph_corollary(H).passed == gkm.verify_graph_corollary(G).passed


def test_graph_json_has_derived_fields():
    j = serialize.graph_to_json(catalog.load("gr24-graph"))
    assert all("weight" in e and "length" in e for e in j["edges"])
    assert all(e["length"] == 4 for e in j["edges"])


def test_report_keeps_its_fractions_and_its_items():
    # (1/2)·CP^2 at r = 2: sum l(e) = C(2, h) / r = 9/2 stays a Fraction,
    # and the items are the report's own list
    rep = reflexive.verify_gorenstein(catalog.load("cp2-triangle").dilate(Fraction(1, 2)), 2)
    d = rep.to_dict()
    assert d["lhs"] == Fraction(9, 2) and type(d["lhs"]) is Fraction
    assert d["per_item"] is rep.per_item


def test_report_serialization():
    rep = reflexive.verify_main_theorem(catalog.load("cube"))
    d = rep.to_dict()
    # the numbers stay as the library made them, here all ints; the CLI's
    # writer alone turns a Fraction into its "p/q"
    json.dumps(d)
    assert d["identity"] == "length-sum"
    assert d["pass"] is True
    assert d["lhs"] == 24
    # a report is true exactly when it passes, so that `if rep:` reads it
    assert bool(rep) is True
    rep.add_item("failing", False)
    assert bool(rep) is False and rep.to_dict()["pass"] is False
