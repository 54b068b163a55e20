"""The benchmark's workloads: their inputs, made from the seed, and their operations.

Every operation is one call into the public API of gicnof.  The program only
ever receives the generated ChannelParameters (or, for the surface, the
exponent grid that sweep_symmetric turns into them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from gicnof import (
    ChannelParameters,
    GridSpec,
    SymmetricPoint,
    achievability,
    converse,
    exact_gap,
    sweep_symmetric,
    symmetric_params,
)

DB_RANGE = (-10.0, 60.0)        # acceptance criterion 1's channel range
GAP_RANDOM_CHANNELS = 64        # one round of gap_random
CRITERION_8_SEED = 20260405     # criterion 8 draws 17 random channels ...
REFERENCE_CHANNELS = (          # ... and adds these three
    ChannelParameters(10.0, 10.0, 5.0, 5.0, 10.0, 10.0),
    symmetric_params(SymmetricPoint(1e4, 1.05, 1.2)),
    symmetric_params(SymmetricPoint(1e3, 0.5, 0.8)),
)
# Doubling the grids moves this channel's gap by 0.055 bits, above
# criterion 8's 0.01: the default inner grid is too coarse here.  It stays in
# gap_dense as the one operation that fails in every run.
DRIFT_CHANNEL = ChannelParameters(6121.7, 289788.0, 48.454, 11705.7, 0.1455, 3199.56)
SURFACE_SNR = 1e4                # 40 dB
SURFACE_ALPHAS = np.round(np.arange(0.1, 1.6 + 0.025, 0.05), 10)   # criterion 2: 31
SURFACE_BETAS = np.round(np.arange(0.1, 3.0 + 0.025, 0.05), 10)    # criterion 2: 59
SURFACE_ALPHA_STEP = 3           # every third alpha and every sixth beta, ...
SURFACE_BETA_STEP = 6
SURFACE_SIZE = 10                # ... ten of each, from an offset the seed picks


@dataclass(frozen=True)
class Op:
    """One timed operation: an untraced public call and the channels it covers.

    cells lists, in order, the channel of every exact_gap call the operation
    makes, so that the traced run can recompose each call layer by layer.
    """

    call: Callable[[], object]
    cells: tuple[ChannelParameters, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    grid: GridSpec
    converse_grid: GridSpec
    ops: tuple[Op, ...]
    dense: bool = False


def doubled(grid: GridSpec) -> GridSpec:
    """Every resolution doubled, as acceptance criterion 8 does it."""
    return GridSpec(2 * grid.rho_points - 1, 2 * grid.mu_points - 1,
                    2 * grid.frontier_samples)


def log_uniform_channels(n: int, rng: np.random.Generator) -> list[ChannelParameters]:
    """n channels whose six ratios are each log-uniform over DB_RANGE.

    Latin-hypercube draw: each ratio's n values fall one into each of n equal
    dB strata, in an independent random order.  The marginals stay
    log-uniform, but the share of sub-unity INRs is the same for every seed.
    That share matters: an INR below 1 collapses the rho grid to one point,
    which makes a call about four times cheaper, so a plain draw would move
    the timings with the seed.
    """
    strata = np.argsort(rng.random((6, n)), axis=1).T
    u = (strata + rng.random((n, 6))) / n
    db = DB_RANGE[0] + (DB_RANGE[1] - DB_RANGE[0]) * u
    return [ChannelParameters(*(10.0 ** (row / 10.0))) for row in db]


def _gap_ops(channels, grid, converse_grid) -> tuple[Op, ...]:
    return tuple(Op(partial(exact_gap, p, grid, converse_grid), (p,)) for p in channels)


def gap_random(seed: int) -> Workload:
    grid, cgrid = achievability.DEFAULT_GRID, converse.DEFAULT_GRID
    channels = log_uniform_channels(GAP_RANDOM_CHANNELS, np.random.default_rng(seed))
    return Workload("gap_random", grid, cgrid, _gap_ops(channels, grid, cgrid))


def criterion_8_channels() -> list[ChannelParameters]:
    """Acceptance criterion 8's twenty channels, drawn as the test suite draws them."""
    rng = np.random.default_rng(CRITERION_8_SEED)
    drawn = [ChannelParameters(*(10.0 ** (rng.uniform(*DB_RANGE, size=6) / 10.0)))
             for _ in range(17)]
    return drawn + list(REFERENCE_CHANNELS)


def gap_dense(seed: int) -> Workload:
    """Criterion 8's channels plus DRIFT_CHANNEL, in an order drawn from the seed.

    The channels do not depend on the seed: on freshly drawn channels the
    grid-drift check fails for about one channel in a hundred, so a seeded
    draw would fail on some seeds and not on others.
    """
    grid, cgrid = doubled(achievability.DEFAULT_GRID), doubled(converse.DEFAULT_GRID)
    channels = criterion_8_channels() + [DRIFT_CHANNEL]
    order = np.random.default_rng(seed).permutation(len(channels))
    return Workload("gap_dense", grid, cgrid,
                    _gap_ops([channels[k] for k in order], grid, cgrid), dense=True)


def _every(axis: np.ndarray, step: int, rng: np.random.Generator) -> np.ndarray:
    off = rng.integers(len(axis) - step * (SURFACE_SIZE - 1))
    return axis[off:off + step * SURFACE_SIZE:step]


def surface_40db(seed: int) -> Workload:
    """One operation is one alpha row, swept over the beta subset.

    Both subsets have SURFACE_SIZE entries whatever the offsets, so every
    seed times operations of the same size.
    """
    rng = np.random.default_rng(seed)
    alphas = _every(SURFACE_ALPHAS, SURFACE_ALPHA_STEP, rng)
    betas = _every(SURFACE_BETAS, SURFACE_BETA_STEP, rng)
    grid, cgrid = achievability.DEFAULT_GRID, converse.DEFAULT_GRID
    ops = tuple(
        Op(partial(sweep_symmetric, SURFACE_SNR, [float(a)], betas, grid, cgrid),
           tuple(symmetric_params(SymmetricPoint(SURFACE_SNR, float(a), float(b)))
                 for b in betas))
        for a in alphas
    )
    return Workload("surface_40db", grid, cgrid, ops)


WORKLOADS = {"gap_random": gap_random, "surface_40db": surface_40db, "gap_dense": gap_dense}
