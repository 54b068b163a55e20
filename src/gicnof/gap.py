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

from dataclasses import dataclass, field

import numpy as np

from . import achievability, converse
from .channel import ChannelParameters, SymmetricPoint, symmetric_params
from .errors import DegenerateChannelError
from .geometry import BISECTION_TOL, GridSpec, Region, deflation_gap


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


def _analytic_bound_details(p: ChannelParameters, grid: GridSpec):
    rho, mu1, mu2 = achievability.parameter_grids(p, grid)
    inner = achievability.family_caps(p, rho, mu1, mu2)  # (5, n_rho, n_mu, n_mu)
    outer = converse.family_caps(p, rho[:, 0, 0])  # (5, n_rho)
    deltas = outer[:, :, None, None] - inner
    shape = deltas.shape[1:]

    weights = np.array([1.0, 1.0, 2.0, 3.0, 3.0])[:, None, None, None]
    score = np.max(deltas / weights, axis=0)        # worst normalized slack
    per_rho_flat = score.reshape(shape[0], -1)
    best_mu = per_rho_flat.argmin(axis=1)           # best splits at each rho
    per_rho = per_rho_flat[np.arange(shape[0]), best_mu]
    i_rho = int(per_rho.argmax())                   # worst rho wins

    i_mu1, i_mu2 = np.unravel_index(best_mu[i_rho], shape[1:])
    components = tuple(float(deltas[k, i_rho, i_mu1, i_mu2]) for k in range(5))
    return float(per_rho[i_rho]), components


def analytic_gap_bound(p: ChannelParameters, grid: GridSpec | None = None) -> float:
    """Worst-over-correlation, best-over-splits normalized slack bound."""
    bound, _ = _analytic_bound_details(p, grid or achievability.DEFAULT_GRID)
    return bound


def exact_gap(
    p: ChannelParameters,
    grid: GridSpec | None = None,
    converse_grid: GridSpec | None = None,
) -> GapReport:
    """Deflation gap between the two regions, with the analytic bound alongside.

    Each region uses its module's default grid when none is given; those
    defaults keep the gap stable to well under a hundredth of a bit under
    grid refinement.
    """
    grid = grid or achievability.DEFAULT_GRID
    result = deflation_gap(*regions(p, grid, converse_grid), tol=BISECTION_TOL)
    bound, components = _analytic_bound_details(p, grid)
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
    """
    alpha_grid = np.asarray(alpha_grid, float)
    beta_grid = np.asarray(beta_grid, float)
    gaps = np.full((alpha_grid.size, beta_grid.size), np.nan)
    missing: dict = {}
    for ia, alpha in enumerate(alpha_grid):
        for ib, beta in enumerate(beta_grid):
            p = symmetric_params(SymmetricPoint(snr=snr, alpha=float(alpha), beta=float(beta)))
            try:
                gaps[ia, ib] = deflation_gap(*regions(p, grid, converse_grid),
                                             tol=BISECTION_TOL).gap
            except DegenerateChannelError as exc:
                missing[(ia, ib)] = str(exc)
    return GapSurface(snr=snr, alpha_grid=alpha_grid, beta_grid=beta_grid,
                      gaps=gaps, missing=missing)
