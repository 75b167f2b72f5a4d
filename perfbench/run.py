"""Benchmark of the delzant package: one workload per run.

    python3 perfbench/run.py --workload hull|verify|weyl --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced runs
report the end-to-end metrics, with times scaled to the reference speed by
a speed probe timed before every item; traced runs report the per-layer
ones.  Full results, wall-clock times and the span trace go to
``.bench_out/``.  See README.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Reference cost of one round over each corpus on the reference machine,
# in seconds.  A run does round(seconds / cost) rounds: its work is fixed
# by --seconds alone, never by a clock.
ROUND_SECONDS = {"hull": 1.15, "verify": 2.1, "weyl": 2.9}
MIN_ROUNDS = 5
HASH_SEED = "0"
# Time of one speed probe at the reference speed (see README: speed).
PROBE_REFERENCE_S = 0.001


def _reexec_with_fixed_hash_seed():
    """Replace this process by one with PYTHONHASHSEED fixed, so set and
    dict iteration orders inside the program repeat from run to run."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


class Modules:
    """The package's modules, as imported by the last set-up."""

    NAMES = ("exact", "polytope", "reflexive", "bounds", "gkm", "roots", "serialize", "cli")

    def __init__(self):
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"delzant.{name}"))


def _purge_package():
    for name in [m for m in sys.modules if m == "delzant" or m.startswith("delzant.")]:
        del sys.modules[name]


def setup(workload, seed):
    """Import the package afresh and build the workload's inputs.  Returns
    the modules, the items and the time taken."""
    _purge_package()
    gc.collect()
    t0 = time.perf_counter()
    mods = Modules()
    items = corpus.WORKLOADS[workload](mods, seed)
    return mods, items, time.perf_counter() - t0


_PROBE_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
                 for i in range(6)]
_PROBE_SETS = [frozenset(range(i, i + 12)) for i in range(0, 36, 3)]


def probe():
    """Fixed work alike in kind to the package's (Fraction elimination,
    tuples, frozensets); its time measures how fast the machine runs now."""
    t0 = time.perf_counter()
    for _ in range(2):
        m = [row[:] for row in _PROBE_MATRIX]
        r = 0
        for c in range(7):
            piv = next((i for i in range(r, 6) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for i in range(r + 1, 6):
                f = m[i][c] / m[r][c]
                for j in range(c, 7):
                    m[i][j] -= f * m[r][j]
            r += 1
    seen = {}
    for a in _PROBE_SETS:
        for b in _PROBE_SETS:
            w = a & b
            if w and w != a:
                seen[w] = tuple(sorted(w))
    return time.perf_counter() - t0


def attempt(item):
    """Time one operation on fresh inputs and check its output.  Returns
    the time and "ok", "failed" (the known fault) or "wrong"."""
    args = item.fresh()
    t0 = time.perf_counter()
    try:
        out = item.op(*args)
    except Exception:  # any raise is a wrong answer; report it and go on
        dt = time.perf_counter() - t0
        print(f"wrong: {item.name} raised", file=sys.stderr)
        traceback.print_exc()
        return dt, "wrong"
    dt = time.perf_counter() - t0
    try:
        return dt, item.check(out)
    except corpus.Mismatch as e:
        print(f"wrong: {item.name}: {e}", file=sys.stderr)
        return dt, "wrong"


def run_rounds(items, rounds, outcomes, on_item=None, probes=None):
    """Run every item once per round, round-robin, so that each item's
    repeats are spread across the run.  Returns each item's times.  With
    a ``probes`` list, a speed probe is timed before every item."""
    times = [[] for _ in items]
    for _ in range(rounds):
        for i, item in enumerate(items):
            if on_item:
                on_item(item.name)
            if probes is not None:
                probes.append(probe())
            dt, outcome = attempt(item)
            times[i].append(dt)
            outcomes.append(outcome)
    return times


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def speed_scale(probes):
    """Factor taking a round's times to the reference speed."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def end_to_end(workload, seed, rounds):
    """The untraced run.  Each round sets up afresh and then runs every
    item once, so set-up, like every item, is timed once per round and
    reported as the median of its repeats.  Every time is scaled to the
    reference speed by its round's speed probes."""
    outcomes, setups, scales = [], [], []
    times = None
    for _ in range(rounds):
        _, items, dt = setup(workload, seed)
        probes = []
        got = run_rounds(items, 1, outcomes, probes=probes)
        scales.append(speed_scale(probes))
        setups.append(dt)
        times = got if times is None else [a + b for a, b in zip(times, got)]
    scaled = [[t * k for t, k in zip(ts, scales)] for ts in times]
    medians = [statistics.median(t) for t in scaled]
    setup_scaled = [t * k for t, k in zip(setups, scales)]
    wall_medians = [statistics.median(t) for t in times]
    metrics = {
        "items_per_s": {"value": len(items) / sum(medians), "unit": "1/s"},
        "item_p50_ms": {"value": 1000 * statistics.median(medians), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB",
        },
    }
    detail = {
        "speed": {"scale_per_round": scales},
        "wall": {
            "items_per_s": len(items) / sum(wall_medians),
            "item_p50_ms": 1000 * statistics.median(wall_medians),
            "setup_s": statistics.median(setups),
        },
        "setup_ms": [1000 * t for t in setups],
        "items": {it.name: {"median_ms": 1000 * m, "times_ms": [1000 * x for x in t]}
                  for it, m, t in zip(items, medians, times)},
    }
    return metrics, outcomes, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("hull", "verify", "weyl"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "delzant")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    _reexec_with_fixed_hash_seed()
    sys.path.insert(0, SRC)

    rounds = rounds_for(args.workload, args.seconds)
    if args.trace:
        import spans

        mods, items, _ = setup(args.workload, args.seed)
        metrics, outcomes, detail, trace = spans.traced_run(mods, items, rounds, run_rounds, speed_scale)
    else:
        metrics, outcomes, detail = end_to_end(args.workload, args.seed, rounds)
        trace = None
    failed = sum(1 for o in outcomes if o == "failed")
    result = {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump({"args": vars(args), "rounds": rounds, "result": result, "detail": detail}, fh, indent=1)
    if trace is not None:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as fh:
            json.dump(trace, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
