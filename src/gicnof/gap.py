"""Gap analysis between the achievable and converse regions.

Two gap notions are computed.  The exact gap is the smallest per-coordinate
deflation mapping every converse-region point into the achievable region,
found geometrically from the two regions.  The analytic bound evaluates the
per-family slack expressions (converse cap minus achievable cap, with the
same correlation threaded through both sides), minimizes the worst normalized
slack over the power splits, and maximizes over the correlation grid.  The
analytic bound follows a restricted parameter policy, so it is reported next
to the exact gap rather than asserted to dominate it.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from . import achievability, converse
from .channel import ChannelParameters, SymmetricPoint, symmetric_params
from .errors import DegenerateChannelError
from .geometry import (
    GridSpec,
    Region,
    deflate,
    deflation_gap,
    region_from_points,
    regions_from_points,
)


@dataclass(frozen=True)
class GapReport:
    """Exact deflation gap, analytic slack bound and their diagnostics.

    delta_components holds the five per-family slacks (R1, R2, sum,
    2R1+R2, R1+2R2) at the analytic optimizer, in bits per channel use.
    """

    exact_gap: float
    analytic_bound: float
    witness: tuple[float, float]
    delta_components: tuple[float, float, float, float, float]


@dataclass(frozen=True)
class GapSurface:
    """Exact gaps over a symmetric (alpha, beta) grid at one forward SNR."""

    snr: float
    alpha_grid: np.ndarray
    beta_grid: np.ndarray
    gaps: np.ndarray
    missing: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gaps.shape != (len(self.alpha_grid), len(self.beta_grid)):
            raise ValueError("gap matrix shape does not match the grids")


def _rho_scores(outer: np.ndarray, inner: np.ndarray):
    """At each rho of the inner caps, the least over the splits of the worst
    normalized slack, and the five delta components at the first splits
    that give it.

    inner is family caps of shape (5, n_rho, n_mu, n_mu), a slab of
    achievability._grid_slabs or a whole grid, and outer converse.family_caps
    at the same rho, shape (5, n_rho).  Returns arrays of shape (n_rho,)
    and (n_rho, 5); each row depends on its own rho alone.  The slacks are
    folded one family at a time; those of weight 1 are not divided.
    """
    shape = inner.shape[1:]
    weights = achievability.FAMILY_COEFFS.sum(axis=1)
    score, slack = np.empty((2,) + shape)  # worst normalized slack, one family at a time
    for k, w in enumerate(weights):
        out = slack if k else score
        np.subtract(outer[k, :, None, None], inner[k], out=out)
        if w != 1.0:  # dividing by 1 is exact, so skipping it moves no bit
            out /= w
        if k:
            np.maximum(score, slack, out=score)
    per_rho_flat = score.reshape(shape[0], -1)
    rows = np.arange(shape[0])
    best_mu = per_rho_flat.argmin(axis=1)           # best splits at each rho
    i_mu1, i_mu2 = np.unravel_index(best_mu, shape[1:])
    return per_rho_flat[rows, best_mu], (outer - inner[:, rows, i_mu1, i_mu2]).T


def _bound(per_rho: np.ndarray, components: np.ndarray):
    """The bound and its delta components from _rho_scores over the whole
    rho axis: the worst rho wins, the first of ties."""
    i_rho = int(per_rho.argmax())
    return float(per_rho[i_rho]), tuple(float(c) for c in components[i_rho])


def _scored(slabs, outer: np.ndarray, per_rho: np.ndarray, components: np.ndarray):
    """The slabs (rows, caps) of achievability._grid_slabs, passed on in
    turn, each scored into per_rho and components at its rows (_rho_scores)
    against outer, converse.family_caps on the grid's whole rho axis."""
    for rows, caps in slabs:
        per_rho[rows], components[rows] = _rho_scores(outer[:, rows], caps)
        yield rows, caps
        del caps  # dropped before the next slab is made


def analytic_gap_bound(p: ChannelParameters, grid: GridSpec = achievability.DEFAULT_GRID) -> float:
    """Worst-over-correlation, best-over-splits normalized slack bound."""
    rho, slabs = achievability._grid_slabs(p, grid)
    per_rho, components = np.empty(rho.size), np.empty((rho.size, 5))
    for _ in _scored(slabs, converse.family_caps(p, rho), per_rho, components):
        pass
    return _bound(per_rho, components)[0]


def exact_gap(
    p: ChannelParameters,
    grid: GridSpec = achievability.DEFAULT_GRID,
    converse_grid: GridSpec = converse.DEFAULT_GRID,
) -> GapReport:
    """Deflation gap between the two regions, with the analytic bound alongside.

    Each region's grid defaults to its module's DEFAULT_GRID.  On reference
    channels those keep the gap stable to well under a hundredth of a bit
    under grid refinement, but not on all: doubling the grids moves the gap
    of ChannelParameters(6121.7, 289788.0, 48.454, 11705.7, 0.1455, 3199.56)
    from 0.6856 to 0.6308 bits, all of it from the mu grid.

    Each side's family caps are evaluated once and serve both the region
    and the analytic bound.  The inner guard runs first, then the converse
    caps over the converse grid's rho and the inner grid's rho axis
    together (converse._region_and_caps).  Then the inner pass
    (achievability.run_inner_clouds) takes the inner caps in rho slabs of
    at most achievability.SLAB_BYTES per (rho, mu1, mu2) array, and each
    slab is scored for the analytic bound (_rho_scores) as it is pruned,
    then dropped; the bound's worst rho is taken at the end, over the
    whole axis.  Every output is the one the whole grid's caps give,
    bit for bit: the hull depends on its point set alone, and every other
    step works per polytope or per rho.  The default grid is one slab.
    """
    rho, slabs = achievability._grid_slabs(p, grid)
    outer, outer_caps = converse._region_and_caps(p, converse_grid, rho)
    per_rho, components = np.empty(rho.size), np.empty((rho.size, 5))
    (cloud,) = achievability.run_inner_clouds(
        [p], [_scored(slabs, outer_caps, per_rho, components)])
    result = deflation_gap(region_from_points(cloud, grid.frontier_samples), outer)
    bound, deltas = _bound(per_rho, components)
    return GapReport(
        exact_gap=result.gap,
        analytic_bound=bound,
        witness=result.witness,
        delta_components=deltas,
    )


def regions(
    p: ChannelParameters,
    grid: GridSpec = achievability.DEFAULT_GRID,
    converse_grid: GridSpec = converse.DEFAULT_GRID,
) -> tuple[Region, Region]:
    """Both regions with matching defaults, for callers that need the geometry."""
    return achievability.achievable_region(p, grid), converse.converse_region(p, converse_grid)


def _sweep_chunk(snr: float, alpha: float, betas, grid: GridSpec,
                 converse_grid: GridSpec) -> list:
    """The gap of each cell (alpha, beta) of a run of one alpha row, or the
    reason a DegenerateChannelError gave for it, in beta order.

    The cells of a run share their forward SNRs and INRs, and so their
    event pair and their rho grids; beta moves only the feedback SNR.  So
    each stage is made once for the run, not once per cell:
      1. each cell's inner guard (achievability._grid_slabs), which
         raises for a zero INR or an overflowing power product;
      2. the converse vertices of the cells left
         (converse.run_converse_vertices): each cell's converse guard, which
         refuses an overflowing INR product or kappa_3, then one evaluation
         of the caps and one batch_vertices call, with a
         DegenerateChannelError for each cell refused or with no feasible
         rho;
      3. the inner clouds of the cells left (achievability.run_inner_clouds),
         from the slabs of step 1: one batch_vertices call for all their
         coarse clouds, from each cell's slab 0, then each cell's chain,
         its prune slab by slab and its walk of what the slabs keep;
      4. one batch of hulls (geometry.regions_from_points), then each cell's
         deflation gap from its converse vertices (geometry.deflate), which
         is deflation_gap's over the converse envelope, with no frontier.
    A cell is left out with the reason of the first check that raises for
    it, in the order exact_gap meets them (inner guard, INR product,
    kappa_3, no feasible rho); the other cells still get their gaps, each
    deflation_gap(*regions(p, grid, converse_grid)).gap bit for bit.  Any
    other exception propagates.
    """
    out, cells = [None] * len(betas), []
    for ib, beta in enumerate(betas):
        p = symmetric_params(SymmetricPoint(snr=snr, alpha=float(alpha), beta=float(beta)))
        try:
            cells.append((ib, p, achievability._grid_slabs(p, grid)[1]))
        except DegenerateChannelError as exc:
            out[ib] = str(exc)
    if not cells:
        return out
    live = []
    for (ib, p, slabs), outer in zip(cells, converse.run_converse_vertices(
            [p for _, p, _ in cells], converse_grid)):
        if isinstance(outer, DegenerateChannelError):
            out[ib] = str(outer)
        else:
            live.append((ib, p, slabs, outer))
    if not live:
        return out
    clouds = achievability.run_inner_clouds([p for _, p, _, _ in live],
                                            [slabs for _, _, slabs, _ in live])
    for (ib, _, _, outer), inner in zip(live, regions_from_points(clouds, grid.frontier_samples)):
        out[ib] = deflate(inner, *outer).gap
    return out


# the inner family caps a run of the sweep may hold: a run holds each cell's
# slab 0 (achievability.run_inner_clouds), reckoned here at the whole grid's
# 8 bytes per family and grid point, which slab 0 is at most: 5 cells at the
# default inner grid, which is one slab
RUN_BYTES = 2 * 1024 * 1024

_POOL = None  # this process's ProcessPoolExecutor


@atexit.register
def _shutdown_pool() -> None:
    """Stop this process's pool at exit.  concurrent.futures' own exit hook
    has joined the workers, but only shutdown() drops the executor's manager
    thread, whose weakref callback would otherwise run at module teardown,
    after concurrent.futures' globals are cleared, and print an error."""
    if _POOL is not None:
        _POOL.shutdown()


def _forget_pool() -> None:
    """In a forked child: drop the pool and its workers, which belong to the
    parent, so that the child neither reuses them nor joins them at exit.
    This hook is the one fork guard: _POOL holds no pid."""
    global _POOL
    if _POOL is not None:
        import multiprocessing.process
        for worker in (_POOL._processes or {}).values():
            multiprocessing.process._children.discard(worker)
        _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool(workers: int):
    """The sweep's persistent fork pool of workers processes, or None where
    the fork start method is missing.

    It is made on first use, and made again once broken or in a forked
    child, which forgets its parent's (_forget_pool).  The imports are made
    here, so that importing gicnof stays as cheap as it was.
    """
    global _POOL
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if _POOL is None or _POOL._broken:
        from concurrent.futures import ProcessPoolExecutor
        _POOL = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    return _POOL


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def sweep_symmetric(
    snr: float,
    alpha_grid,
    beta_grid,
    grid: GridSpec = achievability.DEFAULT_GRID,
    converse_grid: GridSpec = converse.DEFAULT_GRID,
) -> GapSurface:
    """Exact gap at every symmetric (alpha, beta) cell.

    Degenerate cells are recorded as missing with their reason instead of
    aborting the sweep: zero-INR cells, cells with a power product that
    overflows a float (an inner one, the INR product or both of kappa_3's),
    and cells where no rho of the converse grid gives a polytope
    containing the origin.  Each cell's gap is
    deflation_gap(*regions(p, grid, converse_grid)).gap, taken from the
    converse polytopes' vertices (converse.run_converse_vertices) without the
    envelope that converse_region builds for exact_gap and the region command.
    The cells are cut into runs in row-major order (_sweep_chunk): even
    parts of each alpha row, as few as give every CPU a run and keep each
    run's inner family caps within RUN_BYTES (5 cells at the default inner
    grid; a run of more cells holds more memory).  The cells of a run share their forward ratios, so each stage
    of the gap whose cost is mostly fixed per call is made once per run:
    the converse caps and vertices, the coarse clouds and the hulls.  The
    runs go to a persistent pool of one forked worker process per CPU of
    the affinity mask, or are run in this process when there is one run,
    one CPU or no fork.  Each cell's gap is the same either way, and the
    same as a run of it alone gives.
    """
    alpha_grid = np.asarray(alpha_grid, float)
    beta_grid = np.asarray(beta_grid, float)
    gaps = np.full((alpha_grid.size, beta_grid.size), np.nan)
    missing: dict = {}
    cpus, nb = _cpus(), beta_grid.size
    per_row = -(-cpus // max(1, alpha_grid.size))  # runs per row for every CPU
    per_run = max(1, RUN_BYTES // (40 * grid.rho_points * grid.mu_points ** 2))  # cells
    parts = max(1, min(nb, max(per_row, -(-nb // per_run))))  # runs per row
    chunks = [(ia, range(nb * k // parts, nb * (k + 1) // parts))
              for ia in range(alpha_grid.size) for k in range(parts)]
    args = [(snr, alpha_grid[ia], beta_grid[ibs.start:ibs.stop], grid, converse_grid)
            for ia, ibs in chunks]
    pool = _pool(cpus) if len(chunks) > 1 and cpus > 1 else None
    results = starmap(_sweep_chunk, args) if pool is None else pool.map(_sweep_chunk, *zip(*args))
    for (ia, ibs), out in zip(chunks, results):
        for ib, cell in zip(ibs, out):
            if isinstance(cell, str):
                missing[(ia, ib)] = cell
            else:
                gaps[ia, ib] = cell
    return GapSurface(snr=snr, alpha_grid=alpha_grid, beta_grid=beta_grid,
                      gaps=gaps, missing=missing)
