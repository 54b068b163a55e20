"""Inner bound: the achievable rate region and its coefficient functions.

The region is parameterized by a channel-input correlation rho and two
common-message power splits mu_1, mu_2.  For a fixed parameter triple the
achievable set is a polytope cut out by seventeen linear bounds in five
families (R1, R2, R1+R2, 2R1+R2, R1+2R2); the full region is the convex hull
of the union over a parameter grid (time sharing justifies the hull), always
including the origin.

The coefficient formulas assume both INRs are at least one; below that, the
power split they encode (a private stream with power 1/INR_ji, a common
stream occupying the interference budget (1-rho)*INR_ij - 1) stops being
power-feasible and the raw expressions can overshoot hard outer bounds.  The
coefficient functions therefore cap the private-power ratio at the unit power
constraint (SNR_i / max(1, INR_ji)) and floor the residual common
interference at zero.  Both operations are inactive whenever the INRs are at
least one, which keeps the nominal-regime values untouched.

Right-hand sides of the rate bounds can still be negative for sub-unity
SNR+INR channels; negative caps simply make the polytope empty rather than
being clamped away.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelParameters
from .errors import DegenerateChannelError
from .geometry import (
    GridSpec,
    Region,
    batch_vertices,
    discard_strictly_dominated,
    region_from_points,
)

DEFAULT_GRID = GridSpec(rho_points=33, mu_points=17)

# constraint directions of the five bound families, in fixed order
FAMILY_COEFFS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])


def _other(i: int) -> int:
    return 2 if i == 1 else 1


def _require_positive_inrs(p: ChannelParameters) -> None:
    if p.inr_12 <= 0.0 or p.inr_21 <= 0.0:
        raise DegenerateChannelError(
            "inner bound is undefined for zero INR "
            f"(inr_12={p.inr_12}, inr_21={p.inr_21})"
        )


def rho_domain_sup(p: ChannelParameters) -> float:
    """Upper end of the admissible input-correlation interval."""
    _require_positive_inrs(p)
    return max(0.0, 1.0 - max(1.0 / p.inr_12, 1.0 / p.inr_21))


def b_basic(p: ChannelParameters, i: int, rho):
    """Signal-plus-interference power b1 and residual common power b2 for user i.

    b2 is returned raw and goes negative below unit INR; the coefficient
    functions floor it at zero where they consume it.
    """
    snr = p.snr_fwd(i)
    inr = p.inr(i)
    b1 = snr + 2.0 * np.asarray(rho) * math.sqrt(snr * inr) + inr
    b2 = (1.0 - np.asarray(rho)) * inr - 1.0
    return b1, b2


def _private_ratio(p: ChannelParameters, i: int) -> float:
    # received private-stream SNR with the private power capped at the unit
    # power constraint: snr_i * min(1, 1/inr_ji)
    _require_positive_inrs(p)
    return p.snr_fwd(i) / max(1.0, p.inr(_other(i)))


def _b2_pos(p: ChannelParameters, i: int, rho):
    _, b2 = b_basic(p, i, rho)
    return np.maximum(b2, 0.0)


def a1(p: ChannelParameters, i: int) -> float:
    return 0.5 * math.log2(2.0 + _private_ratio(p, i)) - 0.5


def a2(p: ChannelParameters, i: int, rho):
    b1, _ = b_basic(p, i, rho)
    return 0.5 * np.log2(b1 + 1.0) - 0.5


def a3(p: ChannelParameters, i: int, rho, mu):
    """Feedback term: zero at mu = 0, increasing in the feedback SNR."""
    fb = p.snr_bwd(i)
    b1_full, _ = b_basic(p, i, 1.0)
    b2 = _b2_pos(p, i, rho)
    num = fb * (b2 + 2.0) + b1_full + 1.0
    den = fb * ((1.0 - np.asarray(mu)) * b2 + 2.0) + b1_full + 1.0
    return 0.5 * np.log2(num / den)


def a4(p: ChannelParameters, i: int, rho, mu):
    return 0.5 * np.log2((1.0 - np.asarray(mu)) * _b2_pos(p, i, rho) + 2.0) - 0.5


def a5(p: ChannelParameters, i: int, rho, mu):
    ratio = _private_ratio(p, i)
    return 0.5 * np.log2(2.0 + ratio + (1.0 - np.asarray(mu)) * _b2_pos(p, i, rho)) - 0.5


def a6(p: ChannelParameters, i: int, rho, mu):
    ratio = _private_ratio(p, i)
    b2_j = _b2_pos(p, _other(i), rho)
    return 0.5 * np.log2(ratio * ((1.0 - np.asarray(mu)) * b2_j + 1.0) + 2.0) - 0.5


def a7(p: ChannelParameters, i: int, rho, mu1, mu2):
    ratio = _private_ratio(p, i)
    b2_i = _b2_pos(p, i, rho)
    b2_j = _b2_pos(p, _other(i), rho)
    mu_i = mu1 if i == 1 else mu2
    mu_j = mu2 if i == 1 else mu1
    return 0.5 * np.log2(
        ratio * ((1.0 - np.asarray(mu_i)) * b2_j + 1.0)
        + (1.0 - np.asarray(mu_j)) * b2_i + 2.0
    ) - 0.5


def bound_rhs_arrays(p: ChannelParameters, rho, mu1, mu2) -> dict[str, list]:
    """Right-hand sides of the seventeen bounds, grouped by family.

    rho, mu1 and mu2 may be broadcastable arrays; every returned entry
    broadcasts against their common shape.  This is the single source for
    family_caps.  The splits pair as in the rate-bound list: a3, a4 and a5 of
    user i take the other user's split mu_j, a6 its own mu_i, a7 both.
    """
    a1_1, a1_2 = a1(p, 1), a1(p, 2)
    a2_1, a2_2 = a2(p, 1, rho), a2(p, 2, rho)
    a3_1, a3_2 = a3(p, 1, rho, mu2), a3(p, 2, rho, mu1)
    a4_1, a4_2 = a4(p, 1, rho, mu2), a4(p, 2, rho, mu1)
    a5_1, a5_2 = a5(p, 1, rho, mu2), a5(p, 2, rho, mu1)
    a6_1, a6_2 = a6(p, 1, rho, mu1), a6(p, 2, rho, mu2)
    a7_1 = a7(p, 1, rho, mu1, mu2)
    a7_2 = a7(p, 2, rho, mu1, mu2)
    return {
        "r1": [a2_1, a6_1 + a3_2, a1_1 + a3_2 + a4_2],
        "r2": [a2_2, a3_1 + a6_2, a3_1 + a4_1 + a1_2],
        "sum": [
            a2_1 + a1_2,
            a1_1 + a2_2,
            a3_1 + a1_1 + a3_2 + a7_2,
            a3_1 + a5_1 + a3_2 + a5_2,
            a3_1 + a7_1 + a3_2 + a1_2,
        ],
        "two_r1": [
            a2_1 + a1_1 + a3_2 + a7_2,
            a3_1 + a1_1 + a7_1 + 2.0 * a3_2 + a5_2,
            a2_1 + a1_1 + a3_2 + a5_2,
        ],
        "two_r2": [
            a3_1 + a5_1 + a2_2 + a1_2,
            a3_1 + a7_1 + a2_2 + a1_2,
            2.0 * a3_1 + a5_1 + a3_2 + a1_2 + a7_2,
        ],
    }


def family_caps(p: ChannelParameters, rho, mu1, mu2) -> np.ndarray:
    """Binding cap of each bound family: the minimum over its members.

    rho, mu1 and mu2 may be broadcastable arrays.  Returns shape
    (5,) + their broadcast shape in FAMILY_COEFFS order, the same layout as
    converse.family_caps.
    """
    groups = bound_rhs_arrays(p, rho, mu1, mu2)
    shape = np.broadcast_shapes(np.shape(rho), np.shape(mu1), np.shape(mu2))
    caps = np.empty((5,) + shape)
    for k, members in enumerate(groups.values()):
        caps[k] = np.minimum.reduce([np.broadcast_to(v, shape) for v in members])
    return caps


def parameter_grids(p: ChannelParameters, grid: GridSpec):
    """The (rho, mu1, mu2) sweep axes for a channel, shaped for broadcasting."""
    sup = rho_domain_sup(p)
    if sup > 0.0 and grid.rho_points < 2:
        raise ValueError("rho grid needs at least 2 points on a nondegenerate interval")
    if grid.mu_points < 2:
        raise ValueError("mu grids need at least 2 points")
    rho = np.linspace(0.0, sup, grid.rho_points if sup > 0.0 else 1)
    mu = np.linspace(0.0, 1.0, grid.mu_points)
    return rho[:, None, None], mu[None, :, None], mu[None, None, :]


def sweep_family_caps(p: ChannelParameters, grid: GridSpec) -> np.ndarray:
    """family_caps over the whole parameter grid, one column per grid tuple."""
    return family_caps(p, *parameter_grids(p, grid)).reshape(5, -1)


def single_user_anchors(p: ChannelParameters) -> np.ndarray:
    """The two single-user time-sharing corners, always achievable.

    Silencing one transmitter leaves the other an interference-free AWGN link
    of capacity half log2(1 + snr).  The swept polytopes can miss these
    corners entirely: a weak user's rate cap goes negative, which empties the
    whole polytope even though the strong user's axis remains reachable.
    """
    return np.array([
        [0.5 * math.log2(1.0 + p.snr_fwd_1), 0.0],
        [0.0, 0.5 * math.log2(1.0 + p.snr_fwd_2)],
    ])


def achievable_region(p: ChannelParameters, grid: GridSpec | None = None) -> Region:
    """Convex hull of the polytope-vertex union over the parameter grid.

    The hull (rather than the raw union) realizes the closure of the
    achievable set: any point between achievable points is reachable by time
    sharing.  The single-user corners and the origin are always part of the
    region, so an all-infeasible sweep still yields the strong user's axis
    segment rather than collapsing to the origin.
    """
    grid = grid or DEFAULT_GRID
    caps = sweep_family_caps(p, grid)
    pts, _ = batch_vertices(FAMILY_COEFFS, caps)
    pts = pts if pts.size else np.zeros((0, 2))
    pts = np.vstack([pts, single_user_anchors(p)])
    pts = discard_strictly_dominated(pts)  # safe hull prefilter
    return region_from_points(pts, grid.frontier_samples)
