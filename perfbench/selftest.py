"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs each workload in a tiny form, untraced and traced, and requires it to
pass.  Then feeds every check a corrupted result and requires that check to
report it, so that no check passes vacuously.  Exits 1 on any miss.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

import run

run.import_program()

import checks  # noqa: E402  (these need the program on sys.path)
import harness  # noqa: E402
import workloads  # noqa: E402
from gicnof import Region, exact_gap  # noqa: E402
from gicnof.geometry import region_from_points  # noqa: E402
from layers import Tracer, traced_exact_gap  # noqa: E402

misses: list[str] = []


def expect(label: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'MISS'} {label}")
    if not condition:
        misses.append(label)


def expect_caught(check: str, errors: list[str]) -> None:
    expect(f"{check} rejects a corrupted result",
           any(e.startswith(check + ":") for e in errors))


def tiny(name: str):
    w = workloads.WORKLOADS[name](0)
    if w.dense:
        drift = next(i for i, op in enumerate(w.ops) if op.cells[0] == workloads.DRIFT_CHANNEL)
        return dataclasses.replace(w, ops=(w.ops[drift - 1], w.ops[drift])), 1
    if name == "surface_40db":
        op = w.ops[0]
        return dataclasses.replace(w, ops=(dataclasses.replace(op, cells=op.cells[:3]),)), 0
    return dataclasses.replace(w, ops=w.ops[:3]), 0


def tiny_runs() -> dict:
    """Each workload for one round, both modes; returns one traced run."""
    kept = {}
    for name in workloads.WORKLOADS:
        w, faulty = tiny(name)
        for trace in (False, True):
            r = harness.Run(w, 0.0, trace)
            r.measure()
            errors = r.check(np.random.default_rng(0))
            expect(f"{name} trace={int(trace)}: tiny run passes every check",
                   not errors and r.raised == 0)
            expect(f"{name} trace={int(trace)}: {faulty} operation(s) fail",
                   len(r.faulty) == faulty and r.failed == faulty)
            metrics = (harness.per_layer_metrics(r) if trace
                       else harness.end_to_end_metrics(r, 1.0))
            expect(f"{name} trace={int(trace)}: every metric is finite",
                   all(math.isfinite(v) for v, _ in metrics.values()))
            kept[(name, trace)] = r
    return kept


def corrupted_outputs(runs: dict) -> None:
    p = workloads.REFERENCE_CHANNELS[0]       # both INRs >= 1: the oracle applies
    w = workloads.gap_random(0)
    report = exact_gap(p)
    gap, (w1, w2) = report.exact_gap, report.witness
    expect("a genuine report passes", not checks.check_gap(p, gap, (w1, w2)))
    expect_caught("gap_range", checks.check_gap(p, -0.01, (w1, w2)))
    expect_caught("gap_range", checks.check_gap(p, checks.GAP_LIMIT + 0.01, (w1, w2)))
    expect_caught("gap_range", checks.check_gap(p, math.nan, (w1, w2)))
    expect_caught("witness", checks.check_gap(p, gap, (-0.01, w2)))
    expect_caught("witness", checks.check_gap(p, gap, (w1, checks.cut_set_rate(p, 2) + 0.01)))
    expect_caught("gap_vs_witness", checks.check_gap(p, max(w1, w2) + 0.01, (w1, w2)))

    row = np.array([[0.5, 1.0]])
    expect("a genuine surface row passes", not checks.check_surface_row(row, {}))
    expect_caught("gap_range", checks.check_surface_row(np.array([[0.5, math.nan]]), {}))
    expect_caught("gap_range", checks.check_surface_row(np.array([[0.5, -0.01]]), {}))
    expect_caught("surface_missing", checks.check_surface_row(row, {(0, 1): "degenerate"}))

    expect_caught("repeat", checks.check_repeat((gap,), (np.nextafter(gap, 1.0),)))
    expect_caught("grid_drift", checks.check_drift(gap + checks.DRIFT_LIMIT, gap, p))
    expect_caught("recomposed", checks.check_recomposed(np.nextafter(gap, 1.0), gap, p))

    traced = traced_exact_gap(p, w.grid, w.converse_grid, Tracer())
    inner, outer = traced.inner, traced.outer
    shrunk = region_from_points(inner.vertices * 0.99, len(inner.frontier_r1))
    lowered = dataclasses.replace(outer, frontier_r2=outer.frontier_r2 * 0.5)
    narrowed = dataclasses.replace(outer, frontier_r1=outer.frontier_r1 * 0.5)
    triples = checks.sample_triples(p, w.grid.rho_points, w.grid.mu_points,
                                    np.random.default_rng(0), 8)
    expect("genuine regions pass",
           not (checks.check_corners(p, inner) + checks.check_sandwich(inner, outer)
                + checks.check_oracle_vertices(p, inner, triples)))
    expect_caught("corners", checks.check_corners(p, shrunk))
    expect_caught("sandwich", checks.check_sandwich(inner, lowered))
    expect_caught("sandwich", checks.check_sandwich(inner, narrowed))
    halved = region_from_points(inner.vertices * 0.5, len(inner.frontier_r1))
    expect_caught("oracle_vertices", checks.check_oracle_vertices(p, halved, triples))
    expect_caught("oracle_vertices", checks.check_oracle_vertices(
        p, Region(inner.vertices[:2], inner.frontier_r1, inner.frontier_r2), triples))

    # the same corruptions, planted in finished runs, reach the run's verdict
    r = runs[("gap_random", True)]
    r.first[0] = dataclasses.replace(r.first[0], exact_gap=-0.01)
    expect_caught("gap_range", r.check(np.random.default_rng(0)))
    expect_caught("recomposed", r.check(np.random.default_rng(0)))
    r.later.append((1, (-1.0,)))
    expect_caught("repeat", r.check(np.random.default_rng(0)))
    r.traced[2] = [dataclasses.replace(t, inner=region_from_points(
        t.inner.vertices * 0.99, len(t.inner.frontier_r1))) for t in r.traced[2]]
    expect_caught("corners", r.check(np.random.default_rng(0)))
    del r.traced[2]
    expect_caught("trace", r.check(np.random.default_rng(0)))

    r = runs[("surface_40db", False)]
    out = r.first[0]
    r.first[0] = dataclasses.replace(out, gaps=out.gaps + checks.GAP_LIMIT)
    expect_caught("gap_range", r.check(np.random.default_rng(0)))
    r.first[0] = dataclasses.replace(out, missing={(0, 0): "degenerate"})
    expect_caught("surface_missing", r.check(np.random.default_rng(0)))

    r = runs[("gap_dense", False)]
    ok = next(i for i in r.first if i not in r.faulty)
    r.first[ok] = dataclasses.replace(r.first[ok], exact_gap=r.first[ok].exact_gap + 0.02)
    r.check(np.random.default_rng(0))
    expect("grid_drift marks a drifted operation as failed", ok in r.faulty)


def main() -> int:
    corrupted_outputs(tiny_runs())
    print(f"selftest: {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
