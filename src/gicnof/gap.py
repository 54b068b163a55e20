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


def analytic_deltas(
    p: ChannelParameters, rho: float, mu1: float, mu2: float
) -> tuple[float, float, float, float, float]:
    """Per-family converse-minus-achievable slack at a shared correlation.

    rho must lie in the inner bound's admissible domain since it is threaded
    through both sides.
    """
    for name, v in (("mu1", mu1), ("mu2", mu2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    sup = achievability.rho_domain_sup(p)
    if rho < 0.0 or rho > sup + 1e-12:
        raise ValueError(f"rho={rho} outside the shared domain [0, {sup}]")
    inner = achievability.family_caps(p, rho, mu1, mu2)
    outer = converse.family_caps(p, np.asarray([rho]))[:, 0]
    return tuple(float(o - i) for o, i in zip(outer, inner))


def _analytic_bound_details(p: ChannelParameters, rho: np.ndarray, inner: np.ndarray):
    """The bound and its delta components from the inner family caps.

    rho and inner are achievability.grid_caps: the grid's 1-D correlation
    axis and the family caps, shape (5, n_rho, n_mu, n_mu).
    """
    outer = converse.family_caps(p, rho)  # (5, n_rho)
    deltas = outer[:, :, None, None] - inner
    shape = deltas.shape[1:]

    weights = achievability.FAMILY_COEFFS.sum(axis=1)[:, None, None, None]
    score = np.max(deltas / weights, axis=0)        # worst normalized slack
    per_rho_flat = score.reshape(shape[0], -1)
    best_mu = per_rho_flat.argmin(axis=1)           # best splits at each rho
    per_rho = per_rho_flat[np.arange(shape[0]), best_mu]
    i_rho = int(per_rho.argmax())                   # worst rho wins

    i_mu1, i_mu2 = np.unravel_index(best_mu[i_rho], shape[1:])
    components = tuple(float(deltas[k, i_rho, i_mu1, i_mu2]) for k in range(5))
    return float(per_rho[i_rho]), components


def analytic_gap_bound(p: ChannelParameters, grid: GridSpec = achievability.DEFAULT_GRID) -> float:
    """Worst-over-correlation, best-over-splits normalized slack bound."""
    bound, _ = _analytic_bound_details(p, *achievability.grid_caps(p, grid))
    return bound


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
    from 0.6856 to 0.6308 bits, all of it from the mu grid.  The inner family
    caps are evaluated once and serve both the inner region and the analytic bound.
    """
    rho, caps = achievability.grid_caps(p, grid)
    inner = region_from_points(achievability.inner_cloud(p, caps), grid.frontier_samples)
    result = deflation_gap(inner, converse.converse_region(p, converse_grid))
    bound, components = _analytic_bound_details(p, rho, caps)
    return GapReport(
        exact_gap=result.gap,
        analytic_bound=bound,
        witness=result.witness,
        delta_components=components,
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

    A run is built in three steps: each cell's inner cloud
    (achievability.inner_cloud, its caps dropped once it is made) and its
    converse polytopes' vertices (converse.converse_vertices), then one
    batch of hulls for the run (geometry.regions_from_points), then each
    cell's deflation gap from the vertices (geometry.deflate), which is
    deflation_gap's over the converse envelope, with no frontier built.
    The first step raises DegenerateChannelError for a zero INR (the inner
    cloud), an overflowing INR product or no feasible rho (the converse),
    and the cell is then left out; the deflation raises no such error.  Any
    other exception propagates.
    """
    out, cells, clouds = [None] * len(betas), [], []
    for ib, beta in enumerate(betas):
        p = symmetric_params(SymmetricPoint(snr=snr, alpha=float(alpha), beta=float(beta)))
        try:  # the caps are dropped as soon as the cloud is made
            cloud = achievability.inner_cloud(p, achievability.grid_caps(p, grid)[1])
            outer = converse.converse_vertices(p, converse_grid)
        except DegenerateChannelError as exc:
            out[ib] = str(exc)
            continue
        clouds.append(cloud)
        cells.append((ib, outer))
    for (ib, outer), inner in zip(cells, regions_from_points(clouds, grid.frontier_samples)):
        out[ib] = deflate(inner, *outer).gap
    return out


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
    aborting the sweep: zero-INR cells, cells whose INR product overflows a
    float, and cells where no rho of the converse grid gives a polytope
    containing the origin.  Each cell's gap is
    deflation_gap(*regions(p, grid, converse_grid)).gap, taken from the
    converse polytopes' vertices (converse.converse_vertices) without the
    envelope that converse_region builds for exact_gap and the region command.
    The cells are cut into runs in row-major order (_sweep_chunk): one alpha
    row each, or, when there are fewer rows than CPUs, even parts of each
    row.  The runs go to a persistent pool of one forked worker process per
    CPU of the affinity mask, or are run in this process when there is one
    run, one CPU or no fork.  Each cell's gap is the same either way.
    """
    alpha_grid = np.asarray(alpha_grid, float)
    beta_grid = np.asarray(beta_grid, float)
    gaps = np.full((alpha_grid.size, beta_grid.size), np.nan)
    missing: dict = {}
    cpus, nb = _cpus(), beta_grid.size
    parts = max(1, min(nb, -(-cpus // max(1, alpha_grid.size))))  # runs per row
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
