"""Closed-loop measurement and per-layer metrics for perfbench/run.py.

Imports mobal, so run.py puts the checkout's src/ on the path first.
"""

from __future__ import annotations

import resource
import statistics
from time import perf_counter

import workloads as wl
from tracing import diff_counts

# the tail is the highest percentile with at least this many instances
# beyond it, or the slowest instance when there are not that many
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile that
    has TAIL_BEYOND samples beyond it; the maximum when no percentile has."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n, n


class Loop:
    """Closed loop: one instance at a time, every result checked."""

    def __init__(self, workload, corpus: list[str], step):
        self.w = workload
        self.corpus = corpus
        self.step = step
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        # corpus index -> (certify seconds, solve seconds) of every visit
        self.times: dict[int, list[tuple[float, float]]] = {}
        self.outputs: dict[int, object] = {}
        self.errors: list[str] = []

    def run_one(self, i: int) -> float | None:
        j = i % len(self.corpus)
        self.attempted += 1
        t0 = perf_counter()
        try:
            ok, solve_s, out = self.step(self.corpus[j])
        except Exception as exc:  # a raising instance is a failure, not a crash
            self.failed += 1
            self.errors.append(f"instance {j}: {type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - t0
        self.times.setdefault(j, []).append((elapsed, solve_s))
        if ok:
            self.certified += 1
        else:
            self.failed += 1
            self.errors.append(f"instance {j}: certificate failed")
        if j < self.w.count_set:
            if j in self.outputs and self.outputs[j] != out:
                self.errors.append(f"instance {j}: output differs on repeat")
            self.outputs.setdefault(j, out)
        return elapsed

    def per_instance(self, which: int) -> list[float]:
        """One time per distinct instance: the best over its visits of the
        certify (which=0) or solve (which=1) time.  Host contention only
        ever slows a visit down, so the best visit is the steadiest
        estimate of the program's own cost on that input."""
        return [min(t[which] for t in ts) for ts in self.times.values()]


def set_up(w, seed: int, reps: int) -> tuple[list[str], list[float]]:
    """Build the corpus and warm up, `reps` times; returns the corpus and
    the duration of each repetition."""
    durations = []
    for _ in range(reps):
        t0 = perf_counter()
        corpus = wl.make_corpus(w, seed)
        wl.warm_up(w)
        durations.append(perf_counter() - t0)
    return corpus, durations


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(w, seed: int, seconds: float, import_s: float, setup_reps: int) -> dict:
    """Untraced closed loop; returns the end-to-end report.

    The loop visits every corpus instance twice, and then keeps cycling
    through the corpus until `seconds` have passed.  So the median and
    the tail are always taken over the same instances, at the same ranks,
    and every instance has at least two visits to take the best of.
    """
    corpus, setups = set_up(w, seed, setup_reps)
    loop = Loop(w, corpus, wl.STEPS[w.kind])
    floor = 2 * len(corpus)
    start = perf_counter()
    i = 0
    while i < floor or perf_counter() - start < seconds:
        loop.run_one(i)
        i += 1
    elapsed = perf_counter() - start
    certify_s, solve_s = loop.per_instance(0), loop.per_instance(1)
    certify_tail, solve_tail = tail(certify_s), tail(solve_s)
    metrics = {
        "certified_per_s": (loop.certified / elapsed, "1/s"),
        "certify_s_p50": (statistics.median(certify_s), "s"),
        "certify_s_tail": (certify_tail[0], "s"),
        "solve_s_p50": (statistics.median(solve_s), "s"),
        "solve_s_tail": (solve_tail[0], "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    notes = {
        "certify_s_p50": f"over {len(certify_s)} instances, {loop.attempted} visits",
        "certify_s_tail": f"p{certify_tail[1]:.2f} of {certify_tail[2]} instances",
        "solve_s_tail": f"p{solve_tail[1]:.2f} of {solve_tail[2]} instances",
        "setup_s": f"median import {import_s:.4f} s + median corpus build and warm-up",
    }
    return _report(loop, metrics, notes, [])


def measure_traced(w, seed: int, seconds: float, setup_reps: int) -> dict:
    """Traced run: per-layer spans and work counts.

    The first `count_set` instances are traced one by one and their work
    counts kept; then instances run in pairs, untraced and traced in
    alternating order, until `seconds` have passed, which gives the
    tracing overhead on identical inputs; finally instance 0 is traced
    again and its counts must match the first pass exactly.
    """
    corpus, _ = set_up(w, seed, setup_reps)
    loop = Loop(w, corpus, wl.STEPS[w.kind])
    tracer = wl.make_tracer()
    traced_s: list[float] = []
    paired_traced: list[float] = []
    paired_untraced: list[float] = []
    problems: list[str] = []

    def traced(i: int) -> tuple[float | None, dict[str, int]]:
        tracer.install()
        try:
            before = tracer.work_counts()
            elapsed = loop.run_one(i)
            counts = diff_counts(tracer.work_counts(), before)
        finally:
            tracer.uninstall()
        if elapsed is not None:
            traced_s.append(elapsed)
        return elapsed, counts

    start = perf_counter()
    per_instance = [traced(i)[1] for i in range(w.count_set)]
    i = w.count_set
    while i == w.count_set or perf_counter() - start < seconds:
        first_traced = i % 2 == 1
        for is_traced in (first_traced, not first_traced):
            if is_traced:
                elapsed, _ = traced(i)
                if elapsed is not None:
                    paired_traced.append(elapsed)
            else:
                elapsed = loop.run_one(i)
                if elapsed is not None:
                    paired_untraced.append(elapsed)
        i += 1
    _, again = traced(0)
    if again != per_instance[0]:
        changed = sorted(k for k in again if again[k] != per_instance[0].get(k))
        problems.append(f"work counts of instance 0 differ on repeat: {changed}")
    left = tracer.installed_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")

    metrics = _layer_metrics(tracer, per_instance, len(traced_s))
    traced_p50 = statistics.median(paired_traced or [0.0])
    untraced_p50 = statistics.median(paired_untraced or [0.0])
    metrics["trace.certify_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_certify_s_p50"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    metrics["trace.instances"] = (len(traced_s), "count")
    notes = {
        "trace.overhead_s": f"{len(paired_traced)} traced/untraced pairs",
        "trace.instances": f"span times are per traced instance; counts are per instance "
        f"over the first {w.count_set}",
    }
    for solver, children in APPROX_CHILDREN.items():
        if not metrics[f"{solver}.s"][0]:
            continue
        parts = [f"self {metrics[solver + '.self_s'][0]:.4g}"]
        parts += [f"{c} {metrics[c + '.s'][0]:.4g}" for c in children]
        notes[f"{solver}.s"] = " + ".join(parts) + f"; residual {approx_residual(metrics, solver):.2g}"
    return _report(loop, metrics, notes, problems)


# spans opened directly inside each approximation span
APPROX_CHILDREN = {
    "maxatsp.approx": (
        "graphs.contract",
        "matching.backend",
        "maxatsp.extend",
        "graphs.expand",
        "pareto.pool_filter",
    ),
    "maxsat.approx": ("maxsat.sat_state", "pareto.pool_filter"),
}
SPAN_TIMES = (
    "instances.parse",
    "maxatsp.approx",
    "graphs.contract",
    "matching.backend",
    "maxatsp.extend",
    "graphs.expand",
    "maxatsp.oracle",
    "maxsat.approx",
    "maxsat.sat_state",
    "maxsat.oracle",
    "pareto.pool_filter",
    "pareto.certificate",
    "balancing.paired",
    "balancing.integer",
    "balancing.combinatorial",
    "balancing.verify",
)
WORK_COUNTS = (
    "maxatsp.path_sets",
    "graphs.contract.calls",
    "matching.backend.calls",
    "matching.backend.matchings_out",
    "maxatsp.extend.calls",
    "graphs.expand.calls",
    "maxatsp.front_out",
    "maxatsp.oracle_front",
    "maxsat.sat_state.calls",
    "maxsat.masks",
    "maxsat.front_out",
    "maxsat.oracle_front",
    "pareto.pool_filter.in",
    "pareto.pool_filter.out",
)


def approx_residual(metrics: dict, solver: str) -> float:
    """Span time of `solver` not covered by its self time and named
    children; zero up to rounding when the span tree is as expected.
    The pool filter is shared, so only one solver may run per workload."""
    covered = metrics[f"{solver}.self_s"][0]
    covered += sum(metrics[f"{c}.s"][0] for c in APPROX_CHILDREN[solver])
    return metrics[f"{solver}.s"][0] - covered


def _layer_metrics(tracer, per_instance: list[dict[str, int]], traced: int) -> dict:
    """Per-layer metrics as name -> (value, unit).  Span times are seconds
    per traced instance; work counts are means per instance over the
    count set, so they repeat exactly for a seed."""
    n = max(traced, 1)
    m = {f"{name}.s": (tracer.spans[name].total_s / n, "s") for name in SPAN_TIMES}
    for solver in APPROX_CHILDREN:
        m[f"{solver}.self_s"] = (tracer.spans[solver].self_s / n, "s")
    for key in WORK_COUNTS:
        m[key] = (sum(c.get(key, 0) for c in per_instance) / len(per_instance), "count")

    def ratio(a: str, b: str) -> tuple[float, str]:
        return (m[a][0] / m[b][0] if m[b][0] else 0.0, "ratio")

    m["maxatsp.approx_over_oracle"] = ratio("maxatsp.approx.s", "maxatsp.oracle.s")
    m["maxsat.approx_over_oracle"] = ratio("maxsat.approx.s", "maxsat.oracle.s")
    m["maxatsp.useful_ratio"] = ratio("maxatsp.front_out", "matching.backend.matchings_out")
    return m


def _report(loop: Loop, metrics: dict, notes: dict, problems: list[str]) -> dict:
    problems = loop.errors + problems
    return {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        "notes": notes,
        "problems": problems,
        "failed_frac": loop.failed / loop.attempted,
        "digest": wl.output_digest([loop.outputs.get(j) for j in range(loop.w.count_set)]),
    }
