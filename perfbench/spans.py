"""Traced mode: per-layer calls and self time, measured from outside the
program by wrapping its public functions by module attribute.

Because the package calls its own functions through module globals,
module attributes and class attributes, a wrapper set with ``setattr``
sees internal calls too.  Two kinds of pass run over the corpus:

* one counting pass wraps every listed function with a bare counter, which
  gives ``.calls`` and the two hull yields; the hot kernel functions are
  counted only here, so their wrappers never distort layer times;
* timing passes wrap only the layer functions with spans.  A span's self
  time is its duration minus that of the spans nested in it.  Untraced
  passes alternate with them, and the difference is the trace's overhead.
"""

import statistics
import time

# Layer functions: ".calls" and ".self_ms".  "Class.method" names a method.
SPANNED = {
    "cli": ("main",),
    "serialize": ("graph_to_json",),
    "polytope": tuple(f"Polytope.{m}" for m in (
        "from_vertices", "from_halfspaces", "face_lattice", "dual", "dilate",
        "translate", "interior_lattice_points",
    )),
    "reflexive": (
        "is_delzant", "normal_contributions", "verify_main_theorem",
        "verify_thm_combinatorics2", "verify_length_decomposition",
        "verify_index_corollary", "verify_12_24", "verify_gorenstein",
    ),
    "gkm": ("validate", "gorenstein_index", "h_vector_graph", "verify_graph_corollary"),
    "roots": ("coadjoint_graph", "weyl_orbit"),
    "bounds": ("enumerate_admissible",),
}
# Hot kernel functions: ".calls" only.
COUNTED = {
    "gkm": ("GkmGraph.incident", "GkmGraph.weight"),
    "roots": ("RootSystem.reflect",),
    "exact": (
        "det", "rank", "hyperplane_normal", "solve_square", "null_direction",
        "rational_direction",
    ),
}


def metric_base(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _targets(mods, table):
    """(owner, attribute, metric base) for every entry of a table."""
    out = []
    for module, attrs in table.items():
        for attr in attrs:
            owner = getattr(mods, module)
            if "." in attr:
                cls, attr_name = attr.split(".")
                owner = getattr(owner, cls)
            else:
                attr_name = attr
            out.append((owner, attr_name, metric_base(module, attr)))
    return out


class Patch:
    """Replaces functions by wrappers and puts the originals back."""

    def __init__(self, targets, make):
        self.saved = []
        for owner, attr, name in targets:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__, name))
            else:
                new = make(raw, name)
            self.saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def undo(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved = []


class Counter:
    """Call counts, and the facets and vertices the two hulls find per
    kernel call made inside them."""

    def __init__(self):
        self.calls = {}
        self.inside = {"polytope.from_vertices": 0, "polytope.from_halfspaces": 0}
        self.normals_in_hull = 0
        self.solves_in_hull = 0
        self.facets_found = 0
        self.vertices_found = 0

    def make(self, fn, name):
        calls = self.calls
        calls.setdefault(name, 0)
        inside = self.inside

        if name in inside:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                inside[name] += 1
                try:
                    P = fn(*args, **kwargs)
                finally:
                    inside[name] -= 1
                if name == "polytope.from_vertices":
                    self.facets_found += len(P.facets)
                else:
                    self.vertices_found += len(P.vertices)
                return P
        elif name == "exact.hyperplane_normal":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if inside["polytope.from_vertices"]:
                    self.normals_in_hull += 1
                return fn(*args, **kwargs)
        elif name == "exact.solve_square":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if inside["polytope.from_halfspaces"]:
                    self.solves_in_hull += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def yields(self):
        def ratio(a, b):
            return a / b if b else 0.0
        return {
            "polytope.hull_facet_yield": ratio(self.facets_found, self.normals_in_hull),
            "polytope.hull_vertex_yield": ratio(self.vertices_found, self.solves_in_hull),
        }


class Spans:
    """Spans kept in memory: [name, item, parent, start_ns, dur_ns, self_ns]."""

    def __init__(self):
        self.t0 = time.perf_counter_ns()
        self.spans = []
        self.stack = []  # [span index, start, time of nested spans]
        self.item = None
        self.self_ns = {}

    def make(self, fn, name):
        spans, stack, self_ns = self.spans, self.stack, self.self_ns
        self_ns.setdefault(name, 0)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self_ns[name] += own
                spans[idx] = [name, self.item, parent, frame[1] - self.t0, dur, own]
        return wrapper


def traced_run(mods, items, rounds, run_rounds, speed_scale):
    """The traced run: a counting pass, then timing passes with spans that
    alternate with untraced ones.  Times are scaled to the reference speed
    by each round's speed probes, as in the untraced run.  Returns metrics,
    outcomes, per-item detail and the trace to write out."""
    outcomes = []
    counter = Counter()
    patch = Patch(_targets(mods, SPANNED) + _targets(mods, COUNTED), counter.make)
    try:
        run_rounds(items, 1, outcomes)
    finally:
        patch.undo()

    passes = max(2, rounds // 2)
    spans = Spans()
    plain_times, traced_times = [[] for _ in items], [[] for _ in items]
    self_ms = {}
    for _ in range(passes):
        probes = []
        got = run_rounds(items, 1, outcomes, probes=probes)
        k = speed_scale(probes)
        for i, t in enumerate(got):
            plain_times[i].extend(x * k for x in t)
        before = dict(spans.self_ns)
        probes = []
        patch = Patch(_targets(mods, SPANNED), spans.make)
        try:
            got = run_rounds(items, 1, outcomes, probes=probes,
                             on_item=lambda name: setattr(spans, "item", name))
        finally:
            patch.undo()
        k = speed_scale(probes)
        for i, t in enumerate(got):
            traced_times[i].extend(x * k for x in t)
        for name, ns in spans.self_ns.items():
            self_ms[name] = self_ms.get(name, 0.0) + (ns - before.get(name, 0)) * k / 1e6

    plain = sum(statistics.median(t) for t in plain_times)
    traced = sum(statistics.median(t) for t in traced_times)
    metrics = {}
    for _, _, name in _targets(mods, SPANNED):
        metrics[f"{name}.calls"] = {"value": counter.calls[name], "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": self_ms[name] / passes, "unit": "ms"}
    for _, _, name in _targets(mods, COUNTED):
        metrics[f"{name}.calls"] = {"value": counter.calls[name], "unit": "count"}
    for name, value in counter.yields().items():
        metrics[name] = {"value": value, "unit": "ratio"}
    metrics["trace.overhead_pct"] = {"value": 100 * (traced - plain) / plain, "unit": "%"}
    detail = {
        it.name: {"plain_median_ms": 1000 * statistics.median(p),
                  "traced_median_ms": 1000 * statistics.median(t)}
        for it, p, t in zip(items, plain_times, traced_times)
    }
    trace = {
        "fields": ["name", "item", "parent", "start_ns", "dur_ns", "self_ns"],
        "timing_passes": passes,
        "counts": dict(counter.calls),
        "spans": spans.spans,
    }
    return metrics, outcomes, detail, trace
