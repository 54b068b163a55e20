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

Only the few polytopes on the outside of the union can give a vertex of its
hull, so the sweep drops the others before enumerating vertices (the
Akl-Toussaint heuristic, applied to whole polytopes).  The coarse cloud is
the vertices of a coarse sub-grid (every COARSE_STRIDE-th rho and mu index
plus the last) and the single-user corners.  Its extreme points in
FAN_DIRECTIONS directions evenly spaced over [0, pi/2], and the point
farthest beyond the chord of each two adjacent ones, are points of the
region, so the chain Q through them, by ascending R1, lies inside it.  The
prune runs in support space (geometry.vertices_outside).  The facets
n . v <= b of Q's downward closure (R2 below Q's first knot, one per pair of
adjacent knots, R1 below Q's largest R1) have normals n >= 0, and each n is
a nonnegative mix of two slope-adjacent family directions, so a polytope's
support in n is at most the same mix of its supports in those two.  A
polytope with finite, nonnegative caps is dropped when that bound lies
below b less a scale-relative 1e-9 * (n1 + n2) on every facet: first with
supports bounded from the raw caps by the LP-dual terms that pair two
families, over the whole grid; then, for the few polytopes left, with their
exact supports once tightened.  A dropped polytope lies strictly inside the
region's downward closure: none of its points is a hull vertex, the
farthest point of a quickhull step, or the largest R1 or R2.  The region is
bit for bit the one the unpruned sweep gives.
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
    pareto_vertices,
    region_from_points,
    vertices_outside,
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
    for k, (first, *rest) in enumerate(groups.values()):
        out = caps[k, ...]  # a view even when shape is (), where caps[k] is a scalar
        out[...] = first
        for v in rest:
            np.minimum(out, v, out=out)
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
    caps = family_caps(p, *parameter_grids(p, grid))
    return region_from_caps(p, caps, grid.frontier_samples)


COARSE_STRIDE = 8  # the coarse cloud's sub-grid: every 8th rho and mu index
FAN_DIRECTIONS = 32  # directions of the fan over [0, pi/2] that picks the coarse knots
_FAN_ANGLES = np.linspace(0.0, 0.5 * math.pi, FAN_DIRECTIONS)
_FAN = np.array([np.cos(_FAN_ANGLES), np.sin(_FAN_ANGLES)])


def _coarse(n: int) -> np.ndarray:
    """Every COARSE_STRIDE-th of n grid indices, and the last one."""
    return np.unique(np.r_[0:n:COARSE_STRIDE, n - 1])


def _coarse_cloud(caps: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The vertices of the coarse sub-grid's polytopes, and the anchors."""
    coarse = caps[np.ix_(range(5), *map(_coarse, caps.shape[1:]))]
    pts, _ = batch_vertices(FAMILY_COEFFS, coarse.reshape(5, -1))
    return np.vstack([pts, anchors])


def _fan_chain(points: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """An upper boundary (r1_max, knot_r1, knot_r2) inside a cloud's hull.

    The knots are the cloud's extreme points in FAN_DIRECTIONS directions
    evenly spaced over [0, pi/2] (the first one found of exact ties), and,
    for each pair of adjacent ones, the point farthest beyond their chord,
    if any lies beyond it: that catches a hull vertex whose normal cone is
    narrower than the fan's spacing.  Knots another knot dominates are left
    out, and the rest are sorted by ascending R1; r1_max is the largest knot
    R1.  Every knot is a point of the cloud, so the chain lies inside its
    hull's downward closure.
    """
    score = points[:, :1] * _FAN[0] + points[:, 1:] * _FAN[1]
    fan = pareto_vertices(points[np.unique(np.argmax(score, axis=0))])
    a, d = fan[:-1, :, None], np.diff(fan, axis=0)[:, :, None]
    beyond = d[:, 0] * (points[:, 1] - a[:, 1]) - d[:, 1] * (points[:, 0] - a[:, 0])
    far = np.argmax(beyond, axis=1)
    chain = pareto_vertices(np.vstack([fan, points[far[beyond[np.arange(far.size), far] > 0.0]]]))
    return float(chain[-1, 0]), chain[:, 0], chain[:, 1]


def inner_cloud(p: ChannelParameters, caps: np.ndarray) -> np.ndarray:
    """The points whose hull, with the origin and the axis projections of
    their extremes, is the inner region of the family caps caps, of shape
    (5, n_rho, n_mu, n_mu).

    The vertices of a coarse sub-grid and the single-user corners lie in
    the region, and so does the chain of their extreme points in a fan of
    directions (_fan_chain).  The polytopes strictly inside that chain can
    hold no hull vertex (geometry.vertices_outside), so only the others are
    walked; their vertices and the corners then pass the dominance
    prefilter.  The hull is the one the unpruned sweep gives.
    """
    anchors = single_user_anchors(p)
    chain = _fan_chain(_coarse_cloud(caps, anchors))
    pts, _ = vertices_outside(FAMILY_COEFFS, caps.reshape(5, -1), chain)
    return discard_strictly_dominated(np.vstack([pts, anchors]))  # safe hull prefilter


def region_from_caps(p: ChannelParameters, caps: np.ndarray, frontier_samples: int) -> Region:
    """achievable_region from family caps already swept, of shape
    (5, n_rho, n_mu, n_mu).

    For callers that also need the caps themselves, such as gap.exact_gap,
    which evaluates them once for both the region and the analytic bound.
    """
    return region_from_points(inner_cloud(p, caps), frontier_samples)
