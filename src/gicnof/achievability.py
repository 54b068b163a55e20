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
interference at zero.  With both INRs at least one the cap is inactive, and
so is the floor below rho_domain_sup.  At rho_domain_sup the raw b2 of the
user with the smaller INR is zero up to the rounding of 1 - rho, about
1e-16 * INR either way, and the floor clips the negative ones: a change of
about 1e-9 bits at 80 dB.

The bounds are sums of the terms a1..a7 of both users, written once, in
_coefficients; the functions a1..a7 are its views.

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
prune is one test in support space, over the whole grid, on supports
bounded from the raw caps (geometry.vertices_outside gives the argument).
A polytope it drops lies strictly inside the region's downward closure:
none of its points is a hull vertex, the farthest point of a quickhull
step, or the largest R1 or R2.  The vertices of the polytopes left go to
the hull with no dominance prefilter, and the region is bit for bit the one
the unpruned sweep gives.

The walked vertices strictly inside the chain, most of them, are dropped
before the hull (geometry.strictly_inside), by the same argument.  The
symmetric sweep builds the clouds of a run of cells together
(run_inner_clouds), with one vertex batch for all their coarse clouds.

The inner pass holds no array over the whole grid.  It takes the grid's
rho rows in slabs (_slab_rows), each one family_caps call whose
(rho, mu1, mu2) arrays hold at most SLAB_BYTES, the one budget.  Slab 0
holds every coarse row, so the coarse cloud and the chain come from it;
then each slab in turn, slab 0 first, is pruned and walked and dropped.
exact_gap and analytic_gap_bound score each slab for the analytic bound
as it passes.  Each step works per polytope or per rho, and the hull
depends on its point set alone, so every output is the whole grid's, bit
for bit; the default grid is one slab, so there the calls and arrays are
the whole grid's too.
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
    group_rows,
    pareto_vertices,
    region_from_points,
    strictly_inside,
    vertices_outside,
)

DEFAULT_GRID = GridSpec(rho_points=33, mu_points=17)

# constraint directions of the five bound families, in fixed order
FAMILY_COEFFS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])


def _other(i: int) -> int:
    return 2 if i == 1 else 1


def _require_defined(p: ChannelParameters) -> None:
    """DegenerateChannelError for a zero INR, and for a product the caps
    form beyond the float range: snr_i * inr_i (b1's cross term) or
    snr_bwd_i * (inr_i + 1) (a3's feedback power at rho = 0)."""
    if p.inr_12 <= 0.0 or p.inr_21 <= 0.0:
        raise DegenerateChannelError(
            "inner bound is undefined for zero INR "
            f"(inr_12={p.inr_12}, inr_21={p.inr_21})"
        )
    for i in (1, 2):
        snr, inr, fb = p.snr_fwd(i), p.inr(i), p.snr_bwd(i)
        if not (math.isfinite(snr * inr) and math.isfinite(fb * (inr + 1.0))):
            raise DegenerateChannelError(
                "inner bound is undefined for a power product beyond the float range "
                f"(snr_fwd_{i}={snr!r}, inr_{i}{_other(i)}={inr!r}, snr_bwd_{i}={fb!r})")


def rho_domain_sup(p: ChannelParameters) -> float:
    """Upper end of the admissible input-correlation interval, 1 - 1/min(INR).

    It is 0 when either INR is at most 1, and the rho axis is then the single
    point 0.  From an INR of 2**54 (about 162.6 dB) on it is exactly 1.0, and
    the analytic bound's R1 and R2 slacks read negative there.
    """
    _require_defined(p)
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


def _coefficients(p: ChannelParameters, rho, mu1, mu2) -> dict:
    """{i: (a1, ..., a7) of user i} at rho, mu1 and mu2 (broadcastable).

    The inner guard runs once, and each per-user term is evaluated once:
    b1_i(rho) and b2_i from one b_basic call, b1_i(1), b2_i floored at zero,
    the private ratio r_i = snr_i / max(1, inr_ji) (private power capped at
    the unit power constraint), s_i = (1 - mu_j) b2_i and
    q_i = r_i ((1 - mu_i) b2_j + 1): a3, a4 and a5 of user i take the other
    user's split, through s_i, a6 its own, through q_i, and a7 both."""
    _require_defined(p)
    users, pairs = (1, 2), ((1, 2), (2, 1))  # pairs: user i and the other user j
    split = {1: 1.0 - np.asarray(mu1), 2: 1.0 - np.asarray(mu2)}  # 1 - mu_i
    basic = {i: b_basic(p, i, rho) for i in users}  # b1_i(rho) and the raw b2_i
    b1 = {i: basic[i][0] for i in users}
    b2 = {i: np.maximum(basic[i][1], 0.0) for i in users}
    b1_full = {i: b_basic(p, i, 1.0)[0] for i in users}
    r = {i: p.snr_fwd(i) / max(1.0, p.inr(j)) for i, j in pairs}
    s = {i: split[j] * b2[i] for i, j in pairs}
    q = {i: r[i] * (s[j] + 1.0) for i, j in pairs}
    out = {}
    for i in users:
        fb = p.snr_bwd(i)
        num = fb * (b2[i] + 2.0) + b1_full[i] + 1.0
        den = fb * (s[i] + 2.0) + b1_full[i] + 1.0
        out[i] = (
            0.5 * math.log2(2.0 + r[i]) - 0.5,
            0.5 * np.log2(b1[i] + 1.0) - 0.5,
            0.5 * np.log2(num / den),  # zero at mu_j = 0, increasing in snr_bwd_i
            0.5 * np.log2(s[i] + 2.0) - 0.5,
            0.5 * np.log2(2.0 + r[i] + s[i]) - 0.5,
            0.5 * np.log2(q[i] + 2.0) - 0.5,
            0.5 * np.log2(q[i] + s[i] + 2.0) - 0.5,
        )
    return out


# views of _coefficients; a split that a term does not read is passed as the one it does
def a1(p: ChannelParameters, i: int) -> float:
    return _coefficients(p, 0.0, 0.0, 0.0)[i][0]


def a2(p: ChannelParameters, i: int, rho):
    return _coefficients(p, rho, 0.0, 0.0)[i][1]


def a3(p: ChannelParameters, i: int, rho, mu):
    return _coefficients(p, rho, mu, mu)[i][2]


def a4(p: ChannelParameters, i: int, rho, mu):
    return _coefficients(p, rho, mu, mu)[i][3]


def a5(p: ChannelParameters, i: int, rho, mu):
    return _coefficients(p, rho, mu, mu)[i][4]


def a6(p: ChannelParameters, i: int, rho, mu):
    return _coefficients(p, rho, mu, mu)[i][5]


def a7(p: ChannelParameters, i: int, rho, mu1, mu2):
    return _coefficients(p, rho, mu1, mu2)[i][6]


def _bound_rhs_arrays(p: ChannelParameters, rho, mu1, mu2) -> tuple:
    """Right-hand sides of the seventeen bounds, one tuple per family in
    FAMILY_COEFFS order, as converse._caps_by_family gives the converse's.

    rho, mu1 and mu2 may be broadcastable arrays; every returned entry
    broadcasts against their common shape.  This is the single source for
    family_caps.  The splits pair as in the rate-bound list: a3, a4 and a5 of
    user i take the other user's split mu_j, a6 its own mu_i, a7 both.
    """
    a = _coefficients(p, rho, mu1, mu2)
    a1_1, a2_1, a3_1, a4_1, a5_1, a6_1, a7_1 = a[1]
    a1_2, a2_2, a3_2, a4_2, a5_2, a6_2, a7_2 = a[2]
    return (
        (a2_1, a6_1 + a3_2, a1_1 + a3_2 + a4_2),  # R1
        (a2_2, a3_1 + a6_2, a3_1 + a4_1 + a1_2),  # R2
        (  # R1 + R2
            a2_1 + a1_2,
            a1_1 + a2_2,
            a3_1 + a1_1 + a3_2 + a7_2,
            a3_1 + a5_1 + a3_2 + a5_2,
            a3_1 + a7_1 + a3_2 + a1_2,
        ),
        (  # 2 R1 + R2
            a2_1 + a1_1 + a3_2 + a7_2,
            a3_1 + a1_1 + a7_1 + 2.0 * a3_2 + a5_2,
            a2_1 + a1_1 + a3_2 + a5_2,
        ),
        (  # R1 + 2 R2
            a3_1 + a5_1 + a2_2 + a1_2,
            a3_1 + a7_1 + a2_2 + a1_2,
            2.0 * a3_1 + a5_1 + a3_2 + a1_2 + a7_2,
        ),
    )


def family_caps(p: ChannelParameters, rho, mu1, mu2) -> np.ndarray:
    """Binding cap of each bound family: the minimum over its members.

    rho, mu1 and mu2 may be broadcastable arrays.  Returns shape
    (5,) + their broadcast shape in FAMILY_COEFFS order, the same layout as
    converse.family_caps.
    """
    shape = np.broadcast_shapes(np.shape(rho), np.shape(mu1), np.shape(mu2))
    return _least_of_each(_bound_rhs_arrays(p, rho, mu1, mu2), shape)


def _least_of_each(families, shape: tuple) -> np.ndarray:
    """The elementwise minimum over the members of each family, each member
    broadcast to shape: an array of shape (len(families),) + shape."""
    caps = np.empty((len(families),) + shape)
    for k, (first, *rest) in enumerate(families):
        out = caps[k, ...]  # a view even when shape is (), where caps[k] is a scalar
        out[...] = first
        for v in rest:
            np.minimum(out, v, out=out)
    return caps


def _parameter_grids(p: ChannelParameters, grid: GridSpec):
    """The (rho, mu1, mu2) sweep axes for a channel, shaped for broadcasting."""
    sup = rho_domain_sup(p)
    if sup > 0.0 and grid.rho_points < 2:
        raise ValueError("rho grid needs at least 2 points on a nondegenerate interval")
    if grid.mu_points < 2:
        raise ValueError("mu grids need at least 2 points")
    rho = np.linspace(0.0, sup, grid.rho_points if sup > 0.0 else 1)
    mu = np.linspace(0.0, 1.0, grid.mu_points)
    return rho[:, None, None], mu[None, :, None], mu[None, None, :]


SLAB_BYTES = 128 * 1024  # the inner pass's budget: one (rho, mu1, mu2) array of a slab


def _slab_rows(n_rho: int, n_mu: int) -> list[np.ndarray]:
    """The rho rows of each slab of an (n_rho, n_mu, n_mu) grid, in the
    order the inner pass makes them.

    A slab holds as many rows as fit in SLAB_BYTES, at least one.  Slab 0
    holds every coarse row (_coarse), the grid's last row among them, and
    the lowest other rows that fit beside them; each slab after it holds
    the next other rows that fit.  Each slab's rows ascend.  A grid that
    fits in one slab, as the default one does, is one slab of all its
    rows; slab 0 outgrows the budget only where the coarse rows alone do.
    """
    step = max(1, SLAB_BYTES // (8 * n_mu * n_mu))
    coarse = _coarse(n_rho)
    first = np.zeros(n_rho, bool)
    first[coarse] = True
    rest = np.flatnonzero(~first)
    fill = max(0, step - coarse.size)
    first[rest[:fill]] = True
    rest = rest[fill:]
    return [np.flatnonzero(first)] + [rest[s:s + step] for s in range(0, rest.size, step)]


def _grid_slabs(p: ChannelParameters, grid: GridSpec):
    """The parameter grid's 1-D correlation axis, and an iterator over its
    slabs (rows, caps), in _slab_rows order: caps is family_caps over the
    rows of rho, of shape (5, rows.size, n_mu, n_mu).

    The inner guard runs at once (_parameter_grids); each slab's caps are
    made when the iterator reaches it, one family_caps call, so that a
    consumer that drops each slab before taking the next holds one slab at
    a time.  family_caps is elementwise, so a slab's caps are the whole
    grid's at its rows, bit for bit.
    """
    rho, mu1, mu2 = _parameter_grids(p, grid)
    return rho.ravel(), ((rows, family_caps(p, rho[rows], mu1, mu2))
                         for rows in _slab_rows(rho.size, mu1.size))


def sweep_family_caps(p: ChannelParameters, grid: GridSpec) -> np.ndarray:
    """family_caps over the whole parameter grid, one column per grid tuple."""
    return family_caps(p, *_parameter_grids(p, grid)).reshape(5, -1)


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


def achievable_region(p: ChannelParameters, grid: GridSpec = DEFAULT_GRID) -> Region:
    """Convex hull of the polytope-vertex union over the parameter grid.

    The hull (rather than the raw union) realizes the closure of the
    achievable set: any point between achievable points is reachable by time
    sharing.  The single-user corners and the origin are always part of the
    region, so an all-infeasible sweep still yields the strong user's axis
    segment rather than collapsing to the origin.
    """
    (cloud,) = run_inner_clouds([p], [_grid_slabs(p, grid)[1]])
    return region_from_points(cloud, grid.frontier_samples)


COARSE_STRIDE = 8  # the coarse cloud's sub-grid: every 8th rho and mu index
FAN_DIRECTIONS = 32  # directions of the fan over [0, pi/2] that picks the coarse knots
_FAN_ANGLES = np.linspace(0.0, 0.5 * math.pi, FAN_DIRECTIONS)
_FAN = np.array([np.cos(_FAN_ANGLES), np.sin(_FAN_ANGLES)])


def _coarse(n: int) -> np.ndarray:
    """Every COARSE_STRIDE-th of n grid indices, and the last one."""
    return np.unique(np.r_[0:n:COARSE_STRIDE, n - 1])


def _coarse_clouds(firsts, anchors) -> list[np.ndarray]:
    """Each cell's coarse cloud (its coarse sub-grid's vertices, and its
    anchors) from one batch_vertices call, firsts each cell's slab 0
    (rows, caps), all of one shape; a polytope's vertices depend on its own
    caps alone, so each cell's are the ones a call for it alone gives, in
    the same order.  Slab 0's rows ascend and end at the grid's last row,
    so its coarse rows are those of a grid of rows[-1] + 1."""
    rows, caps = firsts[0]
    sub = np.ix_(range(5), np.searchsorted(rows, _coarse(rows[-1] + 1)),
                 *map(_coarse, caps.shape[2:]))
    coarse = np.stack([c[sub] for _, c in firsts], axis=1)  # (5, cells) + sub-grid
    pts, column = batch_vertices(FAMILY_COEFFS, coarse.reshape(5, -1))
    per_cell = coarse[0, 0].size
    return [np.vstack([v, a])
            for v, a in zip(group_rows(pts, column // per_cell, len(firsts)), anchors)]


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


def run_inner_clouds(ps, slabs) -> list[np.ndarray]:
    """The points whose hull, with the origin and the axis projections of
    their extremes, is the inner region of each cell of a run, in order: ps
    the channels and slabs, for each, an iterator over its slabs (rows,
    caps), slab 0 first, as _grid_slabs gives them, every cell's slab 0 of
    one shape, as for the cells of one alpha row of the symmetric surface.

    This is the inner pass.  Slab 0 of every cell is taken first, and the
    coarse clouds of the whole run are one batch_vertices call on their
    coarse rows (_coarse_clouds).  Then, cell by cell, the chain is made,
    and each slab in turn, slab 0 first, is pruned and walked and dropped
    before the next one is taken: a run holds each cell's slab 0 and one
    more slab.  A prune over the whole run's columns was slower per cell,
    its arrays too large for the cache.  Each cloud is the one a run of its
    cell alone gives, in walk order slab by slab.
    """
    slabs = [iter(s) for s in slabs]
    firsts = [next(s) for s in slabs]
    anchors = [single_user_anchors(p) for p in ps]
    clouds = []
    for k, (rest, a, coarse) in enumerate(zip(slabs, anchors, _coarse_clouds(firsts, anchors))):
        chain = _fan_chain(coarse)
        parts, slab, firsts[k] = [], firsts[k], None
        while slab is not None:
            pts, _ = vertices_outside(FAMILY_COEFFS, slab[1].reshape(5, -1), chain)
            parts.append(pts[~strictly_inside(pts, chain)])
            slab = None  # dropped before the next one is made
            slab = next(rest, None)
        pts = np.vstack(parts + [a])
        # a strictly dominated point v >= 0 lies in the box between the origin
        # and its dominator, inside the hull of the anchored cloud (the origin
        # and the axis projections of the extremes), so it is no hull vertex and
        # the prefilter changes nothing; a point with a coordinate below zero,
        # from a cap in [-FEASIBILITY_TOL, 0), can be one, and there the
        # prefilter drops it as the unpruned sweep does
        clouds.append(discard_strictly_dominated(pts) if np.any(pts < 0.0) else pts)
    return clouds
