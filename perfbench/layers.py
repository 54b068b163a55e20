"""Per-layer trace: exact_gap recomposed from the public calls it is made of.

Spans are recorded from outside the package, around each public call, and
kept in memory until the run ends.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from gicnof import ChannelParameters, GridSpec, Region, achievability, converse, gap, geometry

LAYERS = (
    "achievability.sweep_family_caps",
    "geometry.batch_vertices",
    "geometry.discard_strictly_dominated",
    "geometry.region_from_points",
    "converse.family_caps",
    "converse.converse_region",
    "geometry.deflation_gap",
    "gap.analytic_gap_bound",
)
COUNTS = (
    "achievability.polytopes",
    "geometry.candidate_vertices",
    "geometry.prefilter_survivors",
    "geometry.hull_vertices",
    "geometry.deflation_candidates",
    "converse.feasible_rho",
    "converse.envelope_vertices",
)
ROOT_SPAN = "gap.exact_gap"


class Tracer:
    """Spans (call id, name, parent, start, end) and per-call counts."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple[int, str, str | None, float, float]] = []
        self.counts: list[dict[str, int]] = []
        self._call = -1

    @contextmanager
    def span(self, name: str, parent: str | None = ROOT_SPAN):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self._call, name, parent, start - self.origin,
                               time.perf_counter() - self.origin))

    def new_call(self) -> dict[str, int]:
        self._call += 1
        self.counts.append({})
        return self.counts[-1]

    def layer_means_ms(self) -> dict[str, float]:
        """Mean time per exact_gap call spent in each layer, in ms."""
        calls = max(1, len(self.counts))
        total = dict.fromkeys(LAYERS, 0.0)
        for _, name, _, start, end in self.spans:
            if name in total:
                total[name] += end - start
        return {name: 1e3 * t / calls for name, t in total.items()}

    def count_totals(self) -> dict[str, int]:
        return {name: sum(c.get(name, 0) for c in self.counts) for name in COUNTS}

    def to_json(self) -> dict:
        return {
            "spans": [{"call": c, "name": n, "parent": par, "start_s": s, "end_s": e}
                      for c, n, par, s, e in self.spans],
            "counts": self.counts,
        }


@dataclass(frozen=True)
class TracedGap:
    inner: Region
    outer: Region
    gap: float
    analytic_bound: float


def traced_exact_gap(p: ChannelParameters, grid: GridSpec, converse_grid: GridSpec,
                     tracer: Tracer) -> TracedGap:
    """exact_gap, one public call at a time, with a span around each call.

    The steps repeat achievable_region, converse_region's feasibility rule
    and deflation_gap's candidate filter, so the recomposed gap must equal
    exact_gap's bit for bit.  converse.family_caps is called once more on
    its own, to time the part of converse_region it accounts for.
    """
    counts = tracer.new_call()
    with tracer.span(ROOT_SPAN, parent=None):
        with tracer.span("achievability.sweep_family_caps"):
            caps = achievability.sweep_family_caps(p, grid)
        counts["achievability.polytopes"] = caps.shape[1]
        with tracer.span("geometry.batch_vertices"):
            pts, _ = geometry.batch_vertices(achievability.FAMILY_COEFFS, caps)
        counts["geometry.candidate_vertices"] = len(pts)
        pts = pts if pts.size else np.zeros((0, 2))
        pts = np.vstack([pts, achievability.single_user_anchors(p)])
        with tracer.span("geometry.discard_strictly_dominated"):
            pts = geometry.discard_strictly_dominated(pts)
        counts["geometry.prefilter_survivors"] = len(pts)
        with tracer.span("geometry.region_from_points"):
            inner = geometry.region_from_points(pts, grid.frontier_samples)
        counts["geometry.hull_vertices"] = len(inner.vertices)

        rho = np.linspace(0.0, 1.0, converse_grid.rho_points)
        with tracer.span("converse.family_caps"):
            ccaps = converse.family_caps(p, rho)
        feasible = np.all(np.isfinite(ccaps) & (ccaps >= -geometry.FEASIBILITY_TOL), axis=0)
        counts["converse.feasible_rho"] = int(feasible.sum())
        with tracer.span("converse.converse_region"):
            outer = converse.converse_region(p, converse_grid)
        counts["converse.envelope_vertices"] = len(outer.vertices)

        cand = np.vstack([np.column_stack([outer.frontier_r1, outer.frontier_r2]),
                          outer.vertices.reshape(-1, 2)])
        counts["geometry.deflation_candidates"] = max(1, int(np.all(cand >= 0, axis=1).sum()))
        with tracer.span("geometry.deflation_gap"):
            result = geometry.deflation_gap(inner, outer, tol=geometry.BISECTION_TOL)
        with tracer.span("gap.analytic_gap_bound"):
            bound = gap.analytic_gap_bound(p, grid)
    return TracedGap(inner, outer, result.gap, bound)
