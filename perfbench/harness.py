"""The timed phase, the checks and the metrics of one benchmark run.

Import this only after run.import_program() has put the program on the path.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from gicnof import GapReport, exact_gap
from layers import COUNTS, Tracer, traced_exact_gap
from workloads import REFERENCE_CHANNELS, WORKLOADS

RESULTS = Path(__file__).resolve().parent / "results"
TRIPLES_PER_CHANNEL = 3     # oracle polytopes checked per traced channel
SETUP_REPEATS = 5


class Run:
    """The timed phase of one run and everything its checks need afterwards.

    An operation fails when its call raises, or when its output fails the
    grid-drift check: that check catches a grid too coarse for the channel,
    a fault of the program on that input rather than a wrong computation.
    Every attempt of such an operation counts as failed, and its times are
    left out of the timing metrics.  Any other failed check makes the run
    incorrect.
    """

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.op_s: list[tuple[int, float]] = []      # (operation, untraced time)
        self.traced_s: list[tuple[int, float]] = []  # (operation, traced time)
        self.first: dict[int, object] = {}           # first output of each operation
        self.traced: dict[int, list] = {}            # its first traced outputs
        self.later: list[tuple[int, tuple]] = []     # gaps of the repeated outputs
        self.attempted = 0
        self.raised = 0
        self.faulty: set[int] = set()                # operations failing the drift check
        self.elapsed = 0.0

    def _timed(self, fn):
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None, 0.0
        return out, time.perf_counter() - start

    def measure(self) -> None:
        w = self.workload
        start = time.perf_counter()
        while True:
            for i, op in enumerate(w.ops):
                self.attempted += 1
                out, dt = self._timed(op.call)
                if out is None:
                    self.raised += 1
                    continue
                self.op_s.append((i, dt))
                if i not in self.first:
                    self.first[i] = out
                else:
                    self.later.append((i, gaps_of(out)))
                if self.tracer is None:
                    continue
                traced, dt = self._timed(lambda: [
                    traced_exact_gap(p, w.grid, w.converse_grid, self.tracer)
                    for p in op.cells])
                if traced is None:
                    self.raised += 1
                    continue
                self.traced_s.append((i, dt))
                self.traced.setdefault(i, traced)
            if time.perf_counter() - start >= self.seconds:
                break
        self.elapsed = time.perf_counter() - start

    def check(self, rng) -> list[str]:
        """Check every output; return the errors and mark the faulty operations."""
        w = self.workload
        errors = []
        for i, out in self.first.items():
            cells = w.ops[i].cells
            if isinstance(out, GapReport):
                errors += checks.check_gap(cells[0], out.exact_gap, out.witness)
            else:
                errors += checks.check_surface_row(out.gaps, out.missing)
            if w.dense:
                drift = checks.check_drift(out.exact_gap, exact_gap(cells[0]).exact_gap,
                                           cells[0])
                if drift:
                    self.faulty.add(i)
                    print(f"FAILED OPERATION {drift[0]}", file=sys.stderr)
            for p, traced, reported in zip(cells, self.traced.get(i, ()), gaps_of(out)):
                errors += checks.check_recomposed(traced.gap, reported, p)
                errors += checks.check_corners(p, traced.inner)
                errors += checks.check_sandwich(traced.inner, traced.outer)
                triples = checks.sample_triples(p, w.grid.rho_points, w.grid.mu_points,
                                                rng, TRIPLES_PER_CHANNEL)
                errors += checks.check_oracle_vertices(p, traced.inner, triples)
        for i, again in self.later:
            errors += checks.check_repeat(gaps_of(self.first[i]), again)
        if self.tracer is not None and len(self.traced) != len(self.first):
            errors.append("trace: an operation has no traced output")
        return errors

    @property
    def failed(self) -> int:
        return self.raised + sum(1 for i, _ in self.op_s if i in self.faulty)

    def times(self, traced: bool = False) -> list[float]:
        """Times of the operations that did not fail, in seconds."""
        return [dt for i, dt in (self.traced_s if traced else self.op_s)
                if i not in self.faulty]


def gaps_of(out) -> tuple[float, ...]:
    if isinstance(out, GapReport):
        return (out.exact_gap,)
    return tuple(float(g) for g in out.gaps.ravel())


def setup(name: str, seed: int):
    """Input generation plus one warm-up exact_gap call, timed.

    The warm-up channel is the same for every seed, because the cost of a
    call depends on its channel: from 8 to 93 ms at the default grids.
    """
    start = time.perf_counter()
    w = WORKLOADS[name](seed)
    exact_gap(REFERENCE_CHANNELS[0], w.grid, w.converse_grid)
    return w, time.perf_counter() - start


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    times = run.times()
    return {
        "ops_per_s": (len(times) / run.elapsed, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def per_layer_metrics(run: Run) -> dict:
    tracer = run.tracer
    calls = max(1, len(tracer.counts))
    metrics = {f"{name}.ms": (v, "ms") for name, v in tracer.layer_means_ms().items()}
    totals = tracer.count_totals()
    metrics.update({name: (totals[name] / calls, "count") for name in COUNTS})
    metrics["geometry.vertex_yield"] = (
        totals["geometry.hull_vertices"] / max(1, totals["geometry.candidate_vertices"]),
        "ratio")
    metrics["trace.overhead_ms"] = (
        1e3 * (statistics.fmean(run.times(traced=True)) - statistics.fmean(run.times())),
        "ms")
    return metrics


def bench(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """One run: set up, measure, check; returns the result object."""
    setups = [setup(name, seed) for _ in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(s for _, s in setups)

    run = Run(setups[0][0], seconds, trace)
    run.measure()
    errors = run.check(np.random.default_rng([seed, 1]))
    for e in errors:
        print(f"CHECK FAILED {e}", file=sys.stderr)

    if trace:
        metrics = per_layer_metrics(run)
        RESULTS.mkdir(exist_ok=True)
        out = RESULTS / f"trace_{name}_seed{seed}.json"
        out.write_text(json.dumps(run.tracer.to_json()))
    else:
        metrics = end_to_end_metrics(run, setup_s)
    print(f"{name} seed {seed}: {run.attempted} operations attempted, {run.failed} failed, "
          f"{len(run.first)} distinct, {run.elapsed:.2f} s timed, {len(errors)} check failures")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:14.6f} {unit}")
    return {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
