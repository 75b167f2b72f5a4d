"""Per-stage times of the benchmark's verify, hull and weyl workloads, by
self time inside the items' own calls, and of the polytope edge pass.

    python3 tools/stage_split.py [CHECKOUT] [--seed S] [--rounds N]

Imports the package and ``perfbench/corpus.py`` from CHECKOUT (by default
this file's checkout) and builds each workload's corpus for seed S (1 by
default), less the verify enumeration items, which run no polytope code.
Each of N rounds (40 by default) runs every item as the benchmark does,
``item.op(*item.fresh())``, and checks its output with ``item.check``;
for weyl it imports the package afresh each round.  Each round runs bare,
then with the workload's stage functions (``STAGES``: stage, owner,
attribute) wrapped for the round.  A wrapper adds a call's self time, its
time less that of the wrapped calls inside it, to its stage.  An owner
may be a class: the weyl stage ``pairing`` times ``gkm._Pairing``'s
``__init__``, the one pass over a graph's edges that every GKM check
reads, apart from the rest of ``verify_graph_corollary``.  Nothing of
the package runs outside an item's op, so no stage is timed twice; the
item time no stage holds is ``rest``: the verifiers' own code, the hull's
conversions at the boundary, ``cli.main`` and ``cmd_gkm_build``.

Prints, as JSON, per workload: the number of items; ``round_ms`` and
``bare_round_ms``, a wrapped and a bare round, whose difference is the
wrappers' own cost; each stage's ms and share of the round; and per kind
of item (its name up to the first colon or space: the verifier, the
constructor, ``gkm``) its items, ms, share and ms by stage.  Each figure
is the mean over the middle half of the rounds by round time, so the
stages and the kinds each sum to the round.  Under ``edges_ms``: the
median time of the edge pass over 9 fresh cube(10), whose vertices are all
simple, and 200 cross_polytope(6), whose vertices are on more than n
facets.  The pass is ``Polytope._edge_list()`` where a checkout has it:
there ``edges()`` copies the skeleton's edge list, and timing it would add
the skeleton's weights and lengths.  Elsewhere it is ``edges()``.  A
stage none of whose functions its checkout has reads null: one copy of
this file times any checkout.
"""

import argparse
import collections
import functools
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = {
    # where a checkout has _edge_list, Polytope.skeleton runs it once and
    # edges() copies the skeleton's edge list
    "verify": (("integer points", "polytope.Polytope", "_integer_vertices"),
               ("incidence", "polytope.Polytope", "_incidence_bits"),
               ("edges", "polytope.Polytope", "edges"),
               ("edges", "polytope.Polytope", "_edge_list"),
               ("skeleton", "polytope.Polytope", "skeleton"),
               ("delzant pass", "polytope.Polytope", "_delzant_pass"),
               ("census", "gkm", "first_census"),
               ("contributions", "reflexive", "_contribution_sums")),
    "hull": (("start", "exact", "eliminate"), ("row loop", "polytope", "_extreme_rays")),
    # roots.base_point calls roots._base where a checkout has both
    "weyl": (("parse", "cli", "_parse"),
             ("roots.build", "roots", "build"),
             ("base point", "roots", "_base"),
             ("base point", "roots", "base_point"),
             ("walk", "roots", "_walk"),
             ("edge table", "roots", "coadjoint_graph"),
             ("pairing", "gkm._Pairing", "__init__"),
             ("verify_graph_corollary", "gkm", "verify_graph_corollary"),
             ("to_dict", "cli.VerificationReport", "to_dict"),
             ("writer", "cli", "_emit_graph")),
}


def _found(mods, table):
    """(owner, attribute, function, stage) for each row of table whose
    function mods has."""
    owners = [functools.reduce(lambda m, name: getattr(m, name, None), path.split("."), mods)
              for _, path, _ in table]
    return [(owner, attr, getattr(owner, attr), stage)
            for owner, (stage, _, attr) in zip(owners, table) if hasattr(owner, attr)]


def _wrap(f, stage, spent, inner):
    """f, adding each call's self time to spent[stage].  inner[-1] sums
    the time of the wrapped calls inside the one running (inner[0], of
    those at the top)."""
    def call(*args, **kwargs):
        inner.append(0.0)
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            spent[stage] += dt - inner.pop()
            inner[-1] += dt
    return call


def _kind(item):
    return item.name.split(":")[0].split(" ")[0]


def _round(items, found):
    """One round of the items with the (owner, attribute, function, stage)
    in found wrapped: the seconds of each (kind, stage) of the round."""
    spent, inner, total = collections.Counter(), [0.0], collections.Counter()
    for owner, attr, f, stage in found:
        setattr(owner, attr, _wrap(f, stage, spent, inner))
    try:
        for item in items:
            args = item.fresh()
            spent.clear()
            inner[0] = 0.0
            t0 = time.perf_counter()
            out = item.op(*args)
            elapsed = time.perf_counter() - t0
            item.check(out)
            for stage, s in spent.items():
                total[_kind(item), stage] += s
            total[_kind(item), "rest"] += elapsed - inner[0]
    finally:
        for owner, attr, f, _ in found:
            setattr(owner, attr, f)
    return total


def _middle(rounds):
    """The middle half of the rounds by round time, at least one."""
    rounds = sorted(rounds, key=lambda r: sum(r.values()))
    q = len(rounds) // 4
    return rounds[q:len(rounds) - q]


def split(modules, build, table, seed, rounds):
    """The split of one workload, its corpus made by build and its modules
    by ``modules()`` each round."""
    bare, wrapped = [], []
    for _ in range(rounds):
        for timed in (bare, wrapped):
            mods = modules()
            items = [it for it in build(mods, seed) if not it.name.startswith("enumerate")]
            found = _found(mods, table)
            timed.append(_round(items, found if timed is wrapped else ()))
    live = {stage for *_, stage in found} | {"rest"}
    names = [*dict.fromkeys(stage for stage, *_ in table), "rest"]
    kinds = collections.Counter(map(_kind, items))

    def ms(keys, rounds=_middle(wrapped)):
        return round(1000 * statistics.fmean(sum(r[k] for k in keys) for r in rounds), 3)

    def row(keys):
        return {"ms": ms(keys), "share": round(ms(keys) / round_ms, 3)}

    round_ms = ms([(k, stage) for k in kinds for stage in live])
    return {
        "items": len(items), "round_ms": round_ms,
        "bare_round_ms": ms([(k, "rest") for k in kinds], _middle(bare)),
        "stages": {stage: row([(k, stage) for k in kinds]) if stage in live else None
                   for stage in names},
        "kinds": {k: {"items": n, **row([(k, stage) for stage in live]),
                      "stages": {stage: ms([(k, stage)]) if stage in live else None
                                 for stage in names}}
                  for k, n in kinds.items()},
    }


def edges_ms(polytope, make, repeats):
    P = make()
    times = []
    for _ in range(repeats):
        Q = polytope.Polytope(P.dim, P.vertices, P.facets)
        Q._incidence_bits()
        edge_pass = getattr(Q, "_edge_list", Q.edges)
        t0 = time.perf_counter()
        edge_pass()
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
    # the package as it was imported before, once the weyl rounds are done
    kept = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "delzant"}
    out = {}
    try:
        for workload, table in STAGES.items():
            fresh = workload == "weyl"  # imported afresh each round, as the benchmark does
            out[workload] = split(lambda: run._purge_package() or run.Modules() if fresh else mods,
                                  corpus.WORKLOADS[workload], table, args.seed, args.rounds)
    finally:
        run._purge_package()
        sys.modules.update(kept)
    out["edges_ms"] = {
        "cube(10)": edges_ms(mods.polytope, lambda: mods.polytope.cube(10), 9),
        "cross_polytope(6)": edges_ms(mods.polytope, lambda: mods.polytope.cross_polytope(6), 200),
    }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
