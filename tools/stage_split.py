"""Warm per-stage times of the verify workload's polytope items, of
``Polytope.edges()`` on two polytopes, and of the hull workload's items;
per-stage times of the weyl workload's builds, imported afresh each round.

    python3 tools/stage_split.py [CHECKOUT] [--seed S] [--rounds N]

Imports the package and ``perfbench/corpus.py`` from CHECKOUT (by default
the checkout this file belongs to), builds the verify corpus for seed S
(1 by default) and runs its polytope items N times (40 by default).  Each
item gets a fresh polytope from its stored descriptions, as in the
benchmark, and the stages run one after the other, each timed on its own:
the integer points, the incidence bitmasks, ``edges()``, the skeleton
(``P.skeleton()``: the graph on the integer points and edges already
made, whose edge list, weights and lengths it derives), the Delzant pass
(``P._delzant_pass``, the verdict the verifiers require, without the
report of ``check delzant``), the census (``gkm.first_census``), the
contribution sums of the edges (``reflexive._contribution_sums``, on the
polytopes the pass finds Delzant, so null without the pass), and last the
item's verifier, which finds the stages up to the Delzant pass made.
Neither the census nor the contribution sums are kept, so the verifiers
that read them make them again.  The enumeration items run no polytope
code and are left out.  Prints, as JSON, each stage's median
over the rounds of its total over the items, in ms, with its share of the
round; the same for each verifier's part of the last stage, with its
number of items and its median ms per item; under "paid", the same for
the census and the contribution stages over only the items whose
verifier makes them again (``PAID``), the part of them the benchmark
pays, with their number of items; ``census_ms``, the median
over the rounds of the total time of ``gkm.first_census`` on each item's
skeleton, built untimed beforehand;
the median time of ``edges()`` over 9 fresh copies of cube(10), whose
vertices are all simple, and 200 of cross_polytope(6), whose vertices are
on more than n facets; and under "hull", for the hull corpus of seed S run
N times, the median over the rounds of each kind of item's total (by the
name before the colon: ``from_vertices``, ``from_halfspaces``, ``dual``,
``verify_gorenstein``), with its parts: the start cone
(``polytope._start``), the row loop (``polytope._extreme_rays`` less the
start) and the rest, the conversions at the boundary.  The two private
functions are timed by wrapping them for the run.  Under "weyl", for the
weyl corpus of seed S run N times, each round with the package imported
afresh as the benchmark does, the median over the rounds of each stage's
total over the builds: the parse (``cli._parse`` and the parabolic), the
root tables (``roots.build``), the base point and the orbit walk
(``roots._base``, or ``roots.base_point`` where a checkout has no
``_base``, and ``roots._walk``), the edge table (the rest of
``roots.coadjoint_graph``), ``gkm.verify_graph_corollary``, the report's
``to_dict`` with the other members the build adds, and the writer
(``cli._emit_graph``), whose output is checked as the benchmark checks it.

A stage named by a private function its checkout lacks reads null, and
its work, if the checkout does it elsewhere, falls in a later stage: one
copy of this file times any checkout.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("integer points", "incidence", "edges", "skeleton", "delzant pass", "census",
          "contributions", "verifiers")
# The stages made again by verifiers, and the verifiers that make them.
PAID = {"census": ("verify_main_theorem", "verify_index_corollary", "verify_thm_combinatorics2"),
        "contributions": ("verify_thm_combinatorics2", "verify_length_decomposition")}


def _median_ms(rounds_ms, key, round_ms):
    ms = statistics.median(r[key] for r in rounds_ms)
    return {"ms": round(ms, 3), "share": round(ms / round_ms, 3)}


def split(mods, corpus, seed, rounds):
    items = [it for it in corpus.build_verify(mods, seed) if not it.name.startswith("enumerate")]
    verifiers = collections.Counter(item.name.split(":")[0] for item in items)
    rounds_ms, by_verifier_ms, paid_ms = [], [], []
    first_census = getattr(mods.gkm, "first_census", None)
    contributions = getattr(mods.reflexive, "_contribution_sums", None)
    no_pass = not hasattr(mods.polytope.Polytope, "_delzant_pass")
    missing = {"delzant pass": no_pass, "census": first_census is None,
               "contributions": no_pass or contributions is None}
    for _ in range(rounds):
        total = dict.fromkeys(STAGES, 0.0)
        by_verifier = dict.fromkeys(verifiers, 0.0)
        paid = dict.fromkeys(PAID, 0.0)
        for item in items:
            (P,) = item.fresh()
            verdict = getattr(P, "_delzant_pass", None)
            t = [time.perf_counter()]
            for stage in (P._integer_vertices, P._incidence_bits, P.edges, P.skeleton, verdict,
                          first_census and (lambda: first_census(P.skeleton())),
                          verdict and contributions
                          and (lambda: all(verdict()) and contributions(P))):
                if stage:
                    stage()
                t.append(time.perf_counter())
            out = item.op(P)
            t.append(time.perf_counter())
            if item.check(out) != "ok":
                raise SystemExit(f"{item.name}: wrong output")
            verifier = item.name.split(":")[0]
            for stage, a, b in zip(STAGES, t, t[1:]):
                total[stage] += 1000 * (b - a)
                if verifier in PAID.get(stage, ()):
                    paid[stage] += 1000 * (b - a)
            by_verifier[verifier] += 1000 * (t[-1] - t[-2])
        rounds_ms.append(total)
        by_verifier_ms.append(by_verifier)
        paid_ms.append(paid)
    round_ms = statistics.median(sum(r.values()) for r in rounds_ms)
    stages = {stage: None if missing.get(stage) else _median_ms(rounds_ms, stage, round_ms)
              for stage in STAGES}
    paid = {stage: None if missing.get(stage) else {
        **_median_ms(paid_ms, stage, round_ms), "items": sum(verifiers[v] for v in names)}
        for stage, names in PAID.items()}
    per_verifier = {}
    for name, count in verifiers.items():
        row = _median_ms(by_verifier_ms, name, round_ms)
        per_verifier[name] = {**row, "items": count, "per_item_ms": round(row["ms"] / count, 4)}
    return {"items": len(items), "round_ms": round(round_ms, 3), "stages": stages,
            "paid": paid, "verifiers": per_verifier,
            "census_ms": first_census and census_ms(first_census, items, rounds)}


def census_ms(first_census, items, rounds):
    """The median over the rounds of the time ``gkm.first_census`` takes
    on the skeletons of all the items, each skeleton made untimed."""
    totals = []
    for _ in range(rounds):
        total = 0.0
        for item in items:
            (P,) = item.fresh()
            S = P.skeleton()
            t0 = time.perf_counter()
            first_census(S)
            total += time.perf_counter() - t0
        totals.append(1000 * total)
    return round(statistics.median(totals), 3)


HULL_PARTS = ("total", "_start", "row loop", "rest")


def _timed(spent, name, f):
    """f, adding the seconds each call takes to spent[name]."""
    def call(*args):
        t0 = time.perf_counter()
        try:
            return f(*args)
        finally:
            spent[name] += time.perf_counter() - t0
    return call


def hull_split(mods, corpus, seed, rounds):
    items = corpus.build_hull(mods, seed)
    kinds = collections.Counter(item.name.split(":")[0] for item in items)
    module = mods.polytope
    wrapped = {name: getattr(module, name) for name in ("_start", "_extreme_rays")
               if hasattr(module, name)}
    spent = dict.fromkeys(wrapped, 0.0)

    for name, f in wrapped.items():
        setattr(module, name, _timed(spent, name, f))
    rounds_ms = []
    try:
        for _ in range(rounds):
            total = {kind: dict.fromkeys(HULL_PARTS, 0.0) for kind in kinds}
            for item in items:
                args = item.fresh()
                spent.update(dict.fromkeys(spent, 0.0))
                t0 = time.perf_counter()
                out = item.op(*args)
                elapsed = time.perf_counter() - t0
                if item.check(out) != "ok":
                    raise SystemExit(f"{item.name}: wrong output")
                start, rays = spent.get("_start", 0.0), spent.get("_extreme_rays", 0.0)
                row = total[item.name.split(":")[0]]
                for part, ms in zip(HULL_PARTS, (elapsed, start, rays - start, elapsed - rays)):
                    row[part] += 1000 * ms
            rounds_ms.append(total)
    finally:
        for name, f in wrapped.items():
            setattr(module, name, f)
    missing = {"_start": "_start" not in wrapped, "row loop": len(wrapped) < 2,
               "rest": "_extreme_rays" not in wrapped}
    round_ms = statistics.median(sum(r[kind]["total"] for kind in kinds) for r in rounds_ms)
    out = {}
    for kind, count in kinds.items():
        by_round = [r[kind] for r in rounds_ms]
        out[kind] = {"items": count, **{
            part: None if missing.get(part) else _median_ms(by_round, part, round_ms)
            for part in HULL_PARTS}}
    return {"items": len(items), "round_ms": round(round_ms, 3), "constructors": out}


WEYL_STAGES = ("parse", "roots.build", "base point and walk", "edge table",
               "verify_graph_corollary", "to_dict", "writer")


def weyl_split(fresh, corpus, seed, rounds):
    """The weyl stages, with ``fresh()`` giving the modules of each round."""
    rounds_ms = []
    for _ in range(rounds):
        mods = fresh()
        cli, roots = mods.cli, mods.roots
        base = "_base" if hasattr(roots, "_base") else "base_point"
        wrapped = {name: getattr(roots, name) for name in (base, "_walk") if hasattr(roots, name)}
        spent = dict.fromkeys(wrapped, 0.0)
        for name, f in wrapped.items():
            setattr(roots, name, _timed(spent, name, f))
        parse = getattr(cli, "_parse", None)
        emit = getattr(cli, "_emit_graph", None)
        missing = {"parse": parse is None, "base point and walk": len(wrapped) < 2,
                   "writer": emit is None}
        total = dict.fromkeys(WEYL_STAGES, 0.0)
        try:
            for item in corpus.build_weyl(mods, seed):
                _, argv = item.fresh()
                spent.update(dict.fromkeys(spent, 0.0))
                t = [time.perf_counter()]
                args = (parse or cli.build_parser().parse_args)(argv)
                I = cli._parse_ints(args.I, "simple-root indices") if args.I else ()
                t.append(time.perf_counter())
                rs = roots.build(args.type, args.rank)
                t.append(time.perf_counter())
                G = roots.coadjoint_graph(rs, I)
                t.append(time.perf_counter())
                rep = mods.gkm.verify_graph_corollary(G)
                t.append(time.perf_counter())
                extra = {"h": next(i["detail"]["h"] for i in rep.per_item if i["id"] == "h-vector"),
                         "sum_lengths": cli.num_to_json(rep.lhs), "verification": rep.to_dict()}
                t.append(time.perf_counter())
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    if emit:
                        emit(G, extra)
                    else:
                        cli._emit(mods.serialize.graph_to_json(G) | extra)
                t.append(time.perf_counter())
                if item.check((0, out.getvalue(), "")) != "ok":
                    raise SystemExit(f"{item.name}: wrong output")
                # the graph's time, split into the walk and the rest
                walk = sum(spent.values())
                ms = [b - a for a, b in zip(t, t[1:])]
                ms[2:3] = [walk, ms[2] - walk]
                for stage, x in zip(WEYL_STAGES, ms):
                    total[stage] += 1000 * x
        finally:
            for name, f in wrapped.items():
                setattr(roots, name, f)
        rounds_ms.append({stage: x for stage, x in total.items() if not missing.get(stage)})
    round_ms = statistics.median(sum(r.values()) for r in rounds_ms)
    stages = {stage: None if missing.get(stage) else _median_ms(rounds_ms, stage, round_ms)
              for stage in WEYL_STAGES}
    return {"items": len(corpus.WEYL_GRAPHS), "round_ms": round(round_ms, 3), "stages": stages}


def _fresh_modules(run):
    """The package imported afresh, as each round of the benchmark does."""
    run._purge_package()
    return run.Modules()


def edges_ms(polytope, make, repeats):
    P = make()
    times = []
    for _ in range(repeats):
        Q = polytope.Polytope(P.dim, P.vertices, P.facets)
        Q._incidence_bits()
        t0 = time.perf_counter()
        Q.edges()
        times.append(1000 * (time.perf_counter() - t0))
    return round(statistics.median(times), 4)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", nargs="?", default=ROOT)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=40)
    args = p.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import corpus
    import run
    mods = run.Modules()
    out = split(mods, corpus, args.seed, args.rounds)
    out["edges_ms"] = {
        "cube(10)": edges_ms(mods.polytope, lambda: mods.polytope.cube(10), 9),
        "cross_polytope(6)": edges_ms(mods.polytope, lambda: mods.polytope.cross_polytope(6), 200),
    }
    out["hull"] = hull_split(mods, corpus, args.seed, args.rounds)
    # the package as it was imported before, once the rounds are done
    kept = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "delzant"}
    try:
        out["weyl"] = weyl_split(lambda: _fresh_modules(run), corpus, args.seed, args.rounds)
    finally:
        run._purge_package()
        sys.modules.update(kept)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
