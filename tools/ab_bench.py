"""Paired runs of the benchmark on a parent checkout and on this one.

    python3 tools/ab_bench.py PARENT_DIR --workload W [--seed S] [--pairs N] [--out FILE]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds 20`` in
PARENT_DIR and in the checkout this file belongs to, N times each (10 by
default), one pair at a time: the parent runs first in pairs 0, 2, 4, ...
and the change first in the others.  Both sides run with
PYTHONDONTWRITEBYTECODE=1, so neither leaves a ``__pycache__``; but Python
still reads one that is there, and a side with cached bytecode skips
compiling ``src/`` in every set-up.  So before the first run the tool
exits 2, naming the directory, if either checkout's ``src/`` holds one.
For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles``, n = 4), the ratio of the
medians (change over parent), the pairs the change won, ties counting
for neither, and a verdict against the metric's ``bound``; then whether
every output was correct and the failed and attempted item counts.

The verdict is ``better`` when every run of the change reads better than
every run of the parent.  Otherwise it is ``unresolved`` when the parent's
interquartile range is wider than the bound relative to its median,
``worse`` when the change's median is worse than the parent's by more than
the bound, ``better`` when the change won at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range, and ``within bound`` else.

Each run also leaves the median time of each of its items in
``.bench_out/result-W-seedS-trace0.json`` in its checkout.  Per item, the
median of those over each side's runs gives a ratio (change over parent),
and the five items with the lowest ratio below 1 and the five with the
highest above 1 are printed as the items that moved most.  ``--out`` writes
the same summary with every run's metrics listed, as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_once(checkout, workload, seed):
    """One benchmark run in ``checkout``: the JSON of its last line, with
    each item's median time in ms under "items", read from the result file
    the run writes."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "20"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(checkout, ".bench_out", f"result-{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        items = json.load(fh)["detail"]["items"]
    result["items"] = {name: item["median_ms"] for name, item in items.items()}
    return result


def cached_bytecode(checkout):
    """The first ``__pycache__`` directory under the checkout's ``src/``,
    or None."""
    for path, dirs, _ in os.walk(os.path.join(checkout, "src")):
        if "__pycache__" in dirs:
            return os.path.join(path, "__pycache__")
    return None


def _spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": round(statistics.median(xs), 5), "q1": round(q1, 5), "q3": round(q3, 5)}


def verdict(parent, change, higher, bound, wins):
    """The verdict on one metric from its runs on each side: ``higher``
    says whether higher is better, ``bound`` is the largest change of the
    median, relative to the parent's, that counts as none, and ``wins`` is
    the number of pairs the change won."""
    sign = 1 if higher else -1
    parent, change = [sign * x for x in parent], [sign * x for x in change]
    if min(change) > max(parent):
        return "better"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    mid = statistics.median(parent)
    if q3 - q1 > bound * abs(mid):
        return "unresolved"
    gain = statistics.median(change) - mid
    if gain < -bound * abs(mid):
        return "worse"
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better"
    return "within bound"


def moved_items(runs):
    """The five items whose median time moved most each way.  Per item, the
    median over each side's runs of its time and the ratio of the two
    (change over parent); "faster" lists the lowest ratios below 1, and
    "slower" the highest above 1, most moved first."""
    moved = []
    for name in runs["parent"][0]["items"]:
        p, c = (statistics.median(r["items"][name] for r in runs[side]) for side in SIDES)
        moved.append((c / p, {"item": name, "parent_ms": round(p, 5), "change_ms": round(c, 5),
                              "ratio": round(c / p, 4)}))
    moved.sort(key=lambda m: m[0])
    return {"faster": [m for ratio, m in moved[:5] if ratio < 1],
            "slower": [m for ratio, m in moved[::-1][:5] if ratio > 1]}


def summarize(runs, metrics, first):
    """The summary of paired runs.  ``runs`` maps "parent" and "change" to
    their run results in pair order, each the JSON ``perfbench/run.py``
    prints last (a metric is a {"value", "unit"} object) with its item
    times under "items", as ``run_once`` returns it; ``metrics`` is
    the ``end_to_end`` list of ``BENCHMARK.json`` and ``first`` names the
    side that ran first in each pair."""
    out = {
        "pairs": len(first),
        "first_side_per_pair": list(first),
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": {},
        "items": moved_items(runs),
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        wins = sum(c > p if higher else c < p for p, c in zip(vals["parent"], vals["change"]))
        spread = {side: _spread(vals[side]) for side in SIDES}
        out["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            **spread,
            "ratio_of_medians": round(spread["change"]["median"] / spread["parent"]["median"], 4),
            "change_better_pairs": wins,
            "verdict": verdict(vals["parent"], vals["change"], higher, m["bound"], wins),
            "runs": vals,
        }
    return out


def report(summary):
    """The summary as lines of text."""
    lines = []
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): "
            f"parent {p['median']} [{p['q1']}, {p['q3']}]  "
            f"change {c['median']} [{c['q1']}, {c['q3']}]  "
            f"ratio {m['ratio_of_medians']}  "
            f"change won {m['change_better_pairs']} of {summary['pairs']}  "
            f"{m['verdict']}"
        )
    for way in ("faster", "slower"):
        for m in summary["items"][way]:
            lines.append(f"{way}: {m['item']}  parent {m['parent_ms']} ms  "
                         f"change {m['change_ms']} ms  ratio {m['ratio']}")
    lines.append(
        f"correct {summary['correct']}  failed parent {summary['failed']['parent']} of "
        f"{summary['attempted']['parent']}, change {summary['failed']['change']} of "
        f"{summary['attempted']['change']}"
    )
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="root of the parent commit's checkout")
    p.add_argument("--workload", required=True, choices=("hull", "verify", "weyl"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", help="write the summary and every run to this JSON file")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    where = {"parent": args.parent, "change": ROOT}
    for side in SIDES:
        cache = cached_bytecode(where[side])
        if cache:
            print(f"error: {cache} holds bytecode that the runs would read; remove it first",
                  file=sys.stderr)
            return 2
    runs = {side: [] for side in SIDES}
    first = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_once(where[side], args.workload, args.seed))
        print(f"pair {i} items_per_s: " + "  ".join(
            f"{side} {runs[side][-1]['metrics']['items_per_s']['value']:.1f}" for side in SIDES),
            file=sys.stderr)
    summary = {"workload": args.workload, "seed": args.seed, **summarize(runs, metrics, first)}
    print("\n".join(report(summary)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
