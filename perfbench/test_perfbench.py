"""Tests of the benchmark itself: the answer generator against hand-known
values, a quick slice of each workload, the traced mode, and each
workload's checker against a deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import answers as A  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return run.Modules()


# -- the generator ---------------------------------------------------------------


def test_cube3_closed_forms():
    cube = A.product("seg", "seg", "seg")
    assert cube.f == (8, 12, 6, 1)
    assert cube.h == (1, 3, 3, 1)
    assert (cube.L, cube.k0) == (24, 2)
    assert A.length_sum_from_f(3, cube.f) == 24 == A.length_sum_from_h(3, cube.h)


@pytest.mark.parametrize("name", A.POLYGONS)
def test_twelve_on_the_smooth_reflexive_polygons(name):
    p = A.FACTORS[name]
    dual = [tuple(-c for c in a) for a, _ in p.facets]  # in cyclic order
    dual_L = sum(A.lattice_length(dual[i], dual[i - 1]) for i in range(len(dual)))
    assert p.L + dual_L == 12
    assert A.twelve_24(p) == (12, dual_L)


def test_weyl_group_orders_and_h_vectors():
    assert A.weyl_order("D", 4) == 192
    assert A.OrbitAnswer("A", 3, ()).h == (1, 3, 5, 6, 5, 3, 1)
    gr24 = A.OrbitAnswer("A", 3, (0, 2))
    assert (gr24.vertices, gr24.degree, gr24.h) == (6, 4, (1, 1, 2, 1, 1))
    # CP^1: the length sum 2 = C(1, h) / r with r = 1.
    assert A.OrbitAnswer("A", 1, ()).length_sum == 2
    assert A.levi_components("D", 5, (1, 2, 3, 4)) == [("D", 4)]
    assert A.levi_components("B", 4, (0, 2, 3)) == [("A", 1), ("B", 2)]


def test_unimodular_inverse():
    import random

    rng = random.Random(3)
    for n in (1, 2, 3, 5):
        u, inv = A.unimodular(n, rng)
        prod = [[sum(u[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("names", [("hexagon", "seg"), ("cp2", "cp2"), ("cp3", "blowup2"),
                                   ("square", "square", "seg")])
def test_product_closed_forms_match_the_moved_shape(names):
    import random

    s = A.product(*names)
    u, inv = A.unimodular(s.dim, random.Random(5))
    m = s.moved(u, inv)
    # Lengths measured on the moved vertices agree with the closed form.
    direct = sorted(A.lattice_length(m.vertices[a], m.vertices[b]) for a, b in m.edges)
    assert direct == s.lengths and sum(direct) == s.L
    # Every vertex lies on exactly dim facets, all with offset 1.
    for v in m.vertices:
        vals = [sum(x * y for x, y in zip(a, v)) for a, _ in m.facets]
        assert all(x <= b for x, (_, b) in zip(vals, m.facets))
        assert sum(x == b for x, (_, b) in zip(vals, m.facets)) == s.dim
    h = (1,)
    for n in names:
        h = A.poly_mul(h, A.FACTORS[n].h)
    assert s.h == h
    assert A.length_sum_from_f(s.dim, s.f) == s.L


# -- a quick slice of each workload ---------------------------------------------

QUICK = {
    "hull": ("from_vertices:hexagon", "from_halfspaces:hexagonxseg", "dual:hexagon",
             "verify_gorenstein:std_simplex2"),
    "verify": ("verify_main_theorem:hexagon", "verify_thm_combinatorics2:cp2xseg",
               "verify_length_decomposition:cp3", "verify_12_24:cp2xseg",
               "verify_index_corollary:blowup1", "enumerate_admissible:4,3:cp2xcp2"),
    "weyl": ("gkm build A 1", "gkm build A 2", "gkm build B 2 --I 0", "gkm build G2 2"),
}


def _slice(mods, workload, seed=0):
    items = corpus.WORKLOADS[workload](mods, seed)
    return [it for it in items if it.name in QUICK[workload]]


@pytest.mark.parametrize("workload", sorted(QUICK))
def test_quick_slice(mods, workload):
    items = _slice(mods, workload)
    assert len(items) == len(QUICK[workload])
    outcomes = []
    run.run_rounds(items, 1, outcomes)
    want = ["failed" if it.name == "gkm build A 1" else "ok" for it in items]
    assert outcomes == want


def test_traced_slice_reports_every_layer_metric(mods):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    per_layer = {m["name"] for m in bench["per_layer"]}
    items = _slice(mods, "hull") + _slice(mods, "verify") + _slice(mods, "weyl")
    first = spans.traced_run(mods, items, 2, run.run_rounds, run.speed_scale)
    second = spans.traced_run(mods, items, 2, run.run_rounds, run.speed_scale)
    assert set(first[0]) == per_layer
    counts = {k: v["value"] for k, v in first[0].items() if k.endswith(".calls")}
    assert counts == {k: v["value"] for k, v in second[0].items() if k.endswith(".calls")}
    assert counts["gkm.h_vector_graph.calls"] == 2 * 3 + 1  # twice per build; A1 fails once
    assert first[0]["polytope.hull_facet_yield"]["value"] > 0
    assert "wrong" not in first[1]
    assert first[3]["spans"] and all(s[4] >= s[5] >= 0 for s in first[3]["spans"])
    # Patches are undone: the module attributes are the package's own again.
    assert mods.exact.det.__module__ == "delzant.exact"
    assert mods.polytope.Polytope.__dict__["from_vertices"].__func__.__module__ == "delzant.polytope"


# -- corrupted outputs fail their checks ---------------------------------------------


def test_hull_check_rejects_a_corrupted_polytope(mods):
    item = next(it for it in _slice(mods, "hull") if it.name == "from_halfspaces:hexagonxseg")
    P = item.op(*item.fresh())
    assert item.check(P) == "ok"
    Halfspace = mods.polytope.Halfspace
    bad = [Halfspace(h.normal, h.offset + (i == 0)) for i, h in enumerate(P.facets)]
    with pytest.raises(corpus.Mismatch):
        item.check(mods.polytope.Polytope(P.dim, P.vertices, bad))
    with pytest.raises(corpus.Mismatch):
        item.check(mods.polytope.Polytope(P.dim, P.vertices[1:], P.facets))


def test_verify_check_rejects_a_corrupted_report(mods):
    for item in _slice(mods, "verify"):
        rep = item.op(*item.fresh())
        assert item.check(rep) == "ok"
        bad = copy.deepcopy(rep)
        if hasattr(bad, "half_vectors"):
            bad.half_vectors = [h for h in bad.half_vectors if h != (2, 3)]
        else:
            bad.lhs += 1
        with pytest.raises(corpus.Mismatch):
            item.check(bad)


def test_weyl_check_rejects_a_corrupted_graph(mods):
    item = next(it for it in _slice(mods, "weyl") if it.name == "gkm build A 2")
    code, out, err = item.op(*item.fresh())
    assert item.check((code, out, err)) == "ok"
    g = json.loads(out)
    g["h"] = [1, 3, 1, 1]
    with pytest.raises(corpus.Mismatch):
        item.check((code, json.dumps(g), err))
    g = json.loads(out)
    g["edges"][0]["length"] += 1
    with pytest.raises(corpus.Mismatch):
        item.check((code, json.dumps(g), err))
    with pytest.raises(corpus.Mismatch):
        item.check((1, out, err))


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hull", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""

