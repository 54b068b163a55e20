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
from .geometry import GridSpec, Region, deflation_gap, regions_from_points


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

    inner is achievability.family_caps on the parameter grid, shape
    (5, n_rho, n_mu, n_mu); rho is that grid's correlation axis.
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


def _inner_caps(p: ChannelParameters, grid: GridSpec):
    """The correlation axis and the inner family caps over the parameter grid."""
    axes = achievability.parameter_grids(p, grid)
    return axes[0].ravel(), achievability.family_caps(p, *axes)


def analytic_gap_bound(p: ChannelParameters, grid: GridSpec | None = None) -> float:
    """Worst-over-correlation, best-over-splits normalized slack bound."""
    bound, _ = _analytic_bound_details(p, *_inner_caps(p, grid or achievability.DEFAULT_GRID))
    return bound


def exact_gap(
    p: ChannelParameters,
    grid: GridSpec | None = None,
    converse_grid: GridSpec | None = None,
) -> GapReport:
    """Deflation gap between the two regions, with the analytic bound alongside.

    Each region uses its module's default grid when none is given; those
    defaults keep the gap stable to well under a hundredth of a bit under
    grid refinement.  The inner family caps are evaluated once and serve
    both the inner region and the analytic bound.
    """
    grid = grid or achievability.DEFAULT_GRID
    rho, caps = _inner_caps(p, grid)
    inner = achievability.region_from_caps(p, caps, grid.frontier_samples)
    outer = converse.converse_region(p, converse_grid or converse.DEFAULT_GRID)
    result = deflation_gap(inner, outer)
    bound, components = _analytic_bound_details(p, rho, caps)
    return GapReport(
        exact_gap=result.gap,
        analytic_bound=bound,
        witness=result.witness,
        delta_components=components,
    )


def regions(
    p: ChannelParameters,
    grid: GridSpec | None = None,
    converse_grid: GridSpec | None = None,
) -> tuple[Region, Region]:
    """Both regions with matching defaults, for callers that need the geometry."""
    inner = achievability.achievable_region(p, grid or achievability.DEFAULT_GRID)
    outer = converse.converse_region(p, converse_grid or converse.DEFAULT_GRID)
    return inner, outer


def _sweep_chunk(snr: float, alpha: float, betas, grid: GridSpec,
                 converse_grid: GridSpec) -> list:
    """The gap of each cell (alpha, beta) of a run of one alpha row, or the
    reason a DegenerateChannelError gave for it, in beta order.

    A run is built in three steps: each cell's inner cloud
    (achievability.inner_cloud, its caps dropped once it is made), then one
    batch of hulls for the run (geometry.regions_from_points), then each
    cell's converse region and deflation gap.  Any other exception
    propagates.
    """
    out, cells, clouds = [None] * len(betas), [], []
    for ib, beta in enumerate(betas):
        p = symmetric_params(SymmetricPoint(snr=snr, alpha=float(alpha), beta=float(beta)))
        try:  # the caps are dropped as soon as the cloud is made
            axes = achievability.parameter_grids(p, grid)
            clouds.append(achievability.inner_cloud(p, achievability.family_caps(p, *axes)))
            cells.append((ib, p))
        except DegenerateChannelError as exc:
            out[ib] = str(exc)
    for (ib, p), inner in zip(cells, regions_from_points(clouds, grid.frontier_samples)):
        try:
            out[ib] = deflation_gap(inner, converse.converse_region(p, converse_grid)).gap
        except DegenerateChannelError as exc:
            out[ib] = str(exc)
    return out


_POOL = None  # (pid of the process that made it, its ProcessPoolExecutor)


@atexit.register
def _shutdown_pool() -> None:
    """Stop this process's pool, so that no worker outlives the interpreter."""
    if _POOL is not None and _POOL[0] == os.getpid():
        _POOL[1].shutdown()


def _forget_pool() -> None:
    """In a forked child: drop the pool and its workers, which belong to the
    parent, so that the child neither reuses them nor joins them at exit."""
    global _POOL
    if _POOL is not None:
        import multiprocessing.process
        for worker in (_POOL[1]._processes or {}).values():
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
    pid = os.getpid()
    if _POOL is None or _POOL[0] != pid or _POOL[1]._broken:
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("fork")
        _POOL = (pid, ProcessPoolExecutor(workers, mp_context=context))
    return _POOL[1]


def _cpus() -> int:
    """The CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def sweep_symmetric(
    snr: float,
    alpha_grid,
    beta_grid,
    grid: GridSpec | None = None,
    converse_grid: GridSpec | None = None,
) -> GapSurface:
    """Exact gap at every symmetric (alpha, beta) cell.

    Degenerate cells are recorded as missing with their reason instead of
    aborting the sweep; in practice only zero-INR cells can be degenerate.
    Each cell's gap is deflation_gap(*regions(p, grid, converse_grid)).gap.
    The cells are cut into runs in row-major order (_sweep_chunk): one alpha
    row each, or, when there are fewer rows than CPUs, even parts of each
    row.  The runs go to a persistent pool of one forked worker process per
    CPU of the affinity mask, or are run in this process when there is one
    run, one CPU or no fork.  Each cell's gap is the same either way.
    """
    grid = grid or achievability.DEFAULT_GRID
    converse_grid = converse_grid or converse.DEFAULT_GRID
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
