"""Outer bound: scenario classification and the converse rate region.

The converse bounds depend on how each forward SNR orders against the two
INRs and their product.  Five mutually exclusive scenarios per user carve up
the parameter space.  Twenty-three joint scenarios are feasible: the (2, 2)
and (3, 3) combinations are contradictory.

The eleven caps kappa_1..kappa_7 are written in one place, _caps_by_family,
from one set of per-user terms, each evaluated once per call.  kappa_4 and
kappa_5 share the term t_i with kappa_2 of user i, and add kappa_1 of the
other user.

The sum cap kappa_6 and the weighted caps kappa_7 are built from one
per-user half H_j with two forms: the b1 form, in b1_j and the feedback gain,
and the b6 form, in b6_j and the cross-feedback factor.  H_j takes the b1
form iff the other user's scenario index is 1, 2 or 5.  kappa_6 holds both
halves and kappa_7 of user i holds H_j of the other user j; the variant
labels that classify prints name these choices.

For a fixed correlation rho in [0, 1] the bounds cut out a polytope; the
converse region is the union over rho, realized as the pointwise-maximum
frontier envelope.  The union is deliberately not convexified: a hull would
still be a valid outer bound but would inflate the measured gap.
converse_region builds the envelope, which exact_gap (its witness is a
frontier sample) and the region command use; exact_gap takes it from
_region_and_caps, with the caps on the inner grid's rho axis that the
analytic bound needs, from one evaluation of the caps.  The symmetric
sweep takes run_converse_vertices instead, the vertices of every nonempty
polytope: the deflation is convex and nondecreasing, so its largest value
over the union is reached at one of them, and the gap is the envelope's.
Both give DegenerateChannelError when no rho of the grid gives a polytope
containing the origin: the bounds then exclude a rate pair every channel
achieves.

The caps, the feasible columns and their vertices are computed for a run:
channels with the same forward SNRs and INRs, as the cells of one alpha row
of the symmetric surface are, which share the event pair and every term
but the feedback SNRs.  run_converse_vertices checks each channel once,
evaluates the caps once for the run (_run_caps) and enumerates the
vertices of every feasible column of the run in one batch_vertices call.
family_caps, kappa and converse_region are the one-channel run.

The kappa_6 / kappa_7 cap definitions include additive log2(2*pi*e) and
2*log2(2*pi*e) constants.  They are kept verbatim even though they loosen
these caps at low SNR; formula fidelity wins over editorial judgment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParameters
from .errors import DegenerateChannelError
from .geometry import (
    FEASIBILITY_TOL,
    GridSpec,
    Region,
    batch_vertices,
    envelope_union,
    group_rows,
)
from .achievability import FAMILY_COEFFS, _least_of_each, _other, b_basic

DEFAULT_GRID = GridSpec(rho_points=65, mu_points=17)

LOG2_2PIE = math.log2(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class EventPair:
    """Joint scenario indices (l_1, l_2), each in 1..5; (2,2) and (3,3) cannot occur."""

    l_1: int
    l_2: int

    def __post_init__(self) -> None:
        if self.l_1 not in range(1, 6) or self.l_2 not in range(1, 6):
            raise ValueError(f"scenario indices must be in 1..5, got ({self.l_1}, {self.l_2})")
        if (self.l_1, self.l_2) in ((2, 2), (3, 3)):
            raise ValueError(f"scenario pair ({self.l_1}, {self.l_2}) is infeasible")


def _classify_user(snr_j: float, inr_ij: float, inr_ji: float) -> int:
    if snr_j < min(inr_ij, inr_ji):
        return 1
    if inr_ji <= snr_j < inr_ij:
        return 2
    if inr_ij <= snr_j < inr_ji:
        return 3
    if max(inr_ij, inr_ji) <= snr_j < inr_ij * inr_ji:
        return 4
    if snr_j >= max(inr_ij, inr_ji, inr_ij * inr_ji):
        return 5
    raise AssertionError("scenario events failed to partition the parameter space")


def classify_events(p: ChannelParameters) -> EventPair:
    """The unique joint scenario of a channel."""
    return EventPair(
        l_1=_classify_user(p.snr_fwd_2, p.inr_12, p.inr_21),
        l_2=_classify_user(p.snr_fwd_1, p.inr_21, p.inr_12),
    )


# ---------------------------------------------------------------------------
# converse coefficient functions
# ---------------------------------------------------------------------------

def _b3(p: ChannelParameters, i: int) -> float:
    snr, inr_ji = p.snr_fwd(i), p.inr(_other(i))
    return snr - 2.0 * math.sqrt(snr * inr_ji) + inr_ji


def _b4(p: ChannelParameters, i: int, rho):
    return (1.0 - np.asarray(rho) ** 2) * p.snr_fwd(i)


def _b5(p: ChannelParameters, i: int, rho):
    return (1.0 - np.asarray(rho) ** 2) * p.inr(i)


def _b6(p: ChannelParameters, i: int, rho):
    snr = p.snr_fwd(i)
    if snr <= 0.0:
        raise DegenerateChannelError(f"b6 is undefined for zero forward SNR of user {i}")
    inr_ij, inr_ji = p.inr(i), p.inr(_other(i))
    return (
        snr
        + inr_ij
        + 2.0 * np.asarray(rho) * math.sqrt(inr_ij) * (math.sqrt(snr) - math.sqrt(inr_ji))
        + (inr_ij * math.sqrt(inr_ji) / snr) * (math.sqrt(inr_ji) - 2.0 * math.sqrt(snr))
    )


def b_conv(p: ChannelParameters, i: int, rho):
    """Converse building blocks (b3, b4, b5, b6) for user i; b6 raises
    DegenerateChannelError for a zero forward SNR."""
    return _b3(p, i), _b4(p, i, rho), _b5(p, i, rho), _b6(p, i, rho)


def _b1_form(ev: EventPair, j: int) -> bool:
    """Whether user j's half takes the b1 form: the other user's scenario is 1, 2 or 5."""
    return (ev.l_2 if j == 1 else ev.l_1) in (1, 2, 5)


def k6_variant(ev: EventPair) -> int:
    """Label of the sum-cap form: 1 + 2*[H_1 in b6 form] + [H_2 in b6 form]."""
    return 1 + 2 * (not _b1_form(ev, 1)) + (not _b1_form(ev, 2))


def k7_variant(ev: EventPair, i: int) -> int:
    """Label of the weighted-cap form of user i: 1 if H_j takes the b1 form, else 2."""
    return 1 if _b1_form(ev, _other(i)) else 2


def _log2_or_minus_inf(arg):
    """log2 where arg > 0, else -inf, set and not computed: the first log
    argument of H_j can be zero at sub-unity extremes, and the b6 form's
    negative or NaN.  A cap of -inf empties its polytope."""
    arg = np.asarray(arg)
    return np.log2(arg, out=np.full(arg.shape, -np.inf), where=arg > 0.0)


def _caps_by_family(ps, rho, ev: EventPair):
    """The eleven converse caps at rho of each channel of a run ps, grouped
    by family in FAMILY_COEFFS order.

    The channels share their forward SNRs and INRs, read from ps[0]
    (run_converse_vertices checks it), and differ in their feedback SNRs, which
    enter as arrays of shape (len(ps),) + (1,) * rho.ndim in three places:
    the b1 form's feedback gain, the b6 form's cross-feedback factor and
    kappa_3's ratio.  A cap with a feedback term has shape
    (len(ps),) + rho.shape, any other the shape of rho.

    Every per-user term is evaluated once: b1_i(rho), b1_i(1) + 1, b4_i and
    b5_i, then k1_i = kappa_1 of user i, l5_i = 1/2 log2(1 + b5_i) and
    t_i = 1/2 log2(1 + b4_i / (1 + b5_j)).  kappa_2 of user i is l5_j + t_i,
    kappa_4 is t_1 + k1_2 and kappa_5 is t_2 + k1_1.
    """
    users, pairs = (1, 2), ((1, 2), (2, 1))  # pairs: user i and the other user j
    p, cell = ps[0], (-1,) + (1,) * np.ndim(rho)
    fb = {i: np.reshape([q.snr_bwd(i) for q in ps], cell) for i in users}
    b1 = {i: b_basic(p, i, rho)[0] for i in users}
    g = {i: b_basic(p, i, 1.0)[0] + 1.0 for i in users}  # b1_i(1) + 1
    b4 = {i: _b4(p, i, rho) for i in users}
    b5 = {i: _b5(p, i, rho) for i in users}
    k1 = {i: 0.5 * np.log2(b1[i] + 1.0) for i in users}
    l5 = {i: 0.5 * np.log2(1.0 + b5[i]) for i in users}
    t = {i: 0.5 * np.log2(1.0 + b4[i] / (1.0 + b5[j])) for i, j in pairs}

    # H_j, user j's part of kappa_6 and of the other user's kappa_7
    mix = b5[1] * p.inr_21  # (1 - rho^2) * inr12 * inr21, symmetric in the users
    h = {}
    for j, i in pairs:
        if _b1_form(ev, j):
            fb_gain = 1.0 + b5[j] * fb[j] / g[j]
            h[j] = 0.5 * _log2_or_minus_inf(b1[j] + mix) + 0.5 * np.log2(fb_gain)
            continue
        b6 = _b6(p, j, rho)  # raises for a zero forward SNR before it is divided by
        snr, b3 = p.snr_fwd(j), _b3(p, j)
        cross_feedback = 1.0 + (b5[j] / snr) * (p.inr(i) + b3 * fb[j] / g[j])
        h[j] = (
            0.5 * _log2_or_minus_inf(b6 + (mix / snr) * (snr + b3))
            + 0.5 * np.log2(cross_feedback)
            - 0.5 * np.log2(1.0 + mix / snr)
        )

    inr_term = {i: 0.5 * math.log2(1.0 + p.inr(i)) for i in users}
    k3, k7 = {}, {}
    for i, j in pairs:
        ratio = fb[j] * (b4[i] + b5[j] + 1.0) / (g[j] * (b4[i] + 1.0))
        k3[i] = 0.5 * np.log2(ratio + 1.0) + 0.5 * np.log2(b4[i] + 1.0)
        k7[i] = (k1[i] - inr_term[i] + 0.5 * np.log2(1.0 + b4[i] + b5[j]) - l5[j]
                 + h[j] + 2.0 * LOG2_2PIE)
    k6 = h[1] + h[2] - inr_term[1] - inr_term[2] + LOG2_2PIE
    return (
        (k1[1], l5[2] + t[1], k3[1]),
        (k1[2], l5[1] + t[2], k3[2]),
        (t[1] + k1[2], t[2] + k1[1], k6),
        (k7[1],),
        (k7[2],),
    )


@dataclass(frozen=True)
class KappaValues:
    """All converse cap values at one correlation, with the selected variants."""

    k1: tuple[float, float]
    k2: tuple[float, float]
    k3: tuple[float, float]
    k4: float
    k5: float
    k6: float
    k6_variant: int
    k7: tuple[float, float]
    k7_variants: tuple[int, int]


def kappa(p: ChannelParameters, rho: float, ev: EventPair) -> KappaValues:
    """Evaluate every converse cap at one correlation value."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    _require_defined(p)
    (k1_1, k2_1, k3_1), (k1_2, k2_2, k3_2), (k4, k5, k6), (k7_1,), (k7_2,) = (
        [np.asarray(v).item() for v in family] for family in _caps_by_family([p], rho, ev)
    )
    return KappaValues(
        k1=(k1_1, k1_2),
        k2=(k2_1, k2_2),
        k3=(k3_1, k3_2),
        k4=k4,
        k5=k5,
        k6=k6,
        k6_variant=k6_variant(ev),
        k7=(k7_1, k7_2),
        k7_variants=(k7_variant(ev, 1), k7_variant(ev, 2)),
    )


def _require_defined(p: ChannelParameters) -> None:
    """DegenerateChannelError for a product the caps form beyond the float
    range: inr_12 * inr_21, a factor of the sum and weighted caps, or both
    products of kappa_3's ratio of some user i, whose quotient is then
    inf / inf, NaN.  They are checked at rho = 0, where both are largest:
    snr_bwd_j * (snr_fwd_i + inr_ji + 1) and (b1_j(1) + 1) * (snr_fwd_i + 1)."""
    if not math.isfinite(p.inr_12 * p.inr_21):
        raise DegenerateChannelError(
            f"converse bound is undefined for an INR product beyond the float range "
            f"(inr_12={p.inr_12!r}, inr_21={p.inr_21!r})")
    for i, j in ((1, 2), (2, 1)):
        snr_i, inr_ji, fb_j = p.snr_fwd(i), p.inr(j), p.snr_bwd(j)
        num = fb_j * (snr_i + inr_ji + 1.0)
        den = (float(b_basic(p, j, 1.0)[0]) + 1.0) * (snr_i + 1.0)
        if not (math.isfinite(num) or math.isfinite(den)):
            raise DegenerateChannelError(
                f"converse bound is undefined for a kappa_3 of user {i} whose two products "
                f"are beyond the float range (snr_fwd_{i}={snr_i!r}, "
                f"snr_fwd_{j}={p.snr_fwd(j)!r}, inr_{j}{i}={inr_ji!r}, snr_bwd_{j}={fb_j!r})")


def _forward(p: ChannelParameters) -> tuple:
    return p.snr_fwd_1, p.snr_fwd_2, p.inr_12, p.inr_21


def _check_run(ps) -> None:
    """ValueError unless the channels ps share their forward SNRs and INRs."""
    if any(_forward(q) != _forward(ps[0]) for q in ps):
        raise ValueError("the channels of a run must share their forward SNRs and INRs")


def _run_caps(ps, rho) -> np.ndarray:
    """family_caps of each channel of a run ps, whose channels _check_run
    and _require_defined have passed, from one evaluation of the caps:
    shape (5, len(ps)) + rho.shape, and column c is family_caps(ps[c], rho)
    bit for bit."""
    rho = np.asarray(rho, float)
    return _least_of_each(_caps_by_family(ps, rho, classify_events(ps[0])), (len(ps),) + rho.shape)


def family_caps(p: ChannelParameters, rho) -> np.ndarray:
    """Binding converse cap per bound family; rho may be an array.

    Returns shape (5,) + rho.shape in FAMILY_COEFFS order: the one-channel
    run of _run_caps.  Raises DegenerateChannelError where
    _require_defined does, and when a half H_j in the b6 form meets a zero
    forward SNR of user j, which b6 divides by.
    """
    _require_defined(p)
    return _run_caps([p], rho)[:, 0]


_INFEASIBLE = ("converse bound is undefined: no rho of the grid gives a polytope "
               "containing the origin")


def _rho_axis(grid: GridSpec) -> np.ndarray:
    """The correlation grid, grid.rho_points points over [0, 1]."""
    if grid.rho_points < 2:
        raise ValueError("the converse rho grid needs at least 2 points")
    return np.linspace(0.0, 1.0, grid.rho_points)


def _feasible(caps: np.ndarray):
    """The columns of caps, of shape (5, ...), that are nonempty polytopes
    (caps all finite and >= -FEASIBILITY_TOL), one column each in C order,
    the first index of each, and their vertices and the column of each, from
    one batch_vertices call."""
    feasible = np.all(np.isfinite(caps) & (caps >= -FEASIBILITY_TOL), axis=0)
    caps = caps[:, feasible]
    pts, column = batch_vertices(FAMILY_COEFFS, caps)
    return caps, np.nonzero(feasible)[0], pts, column


def _reach(caps: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each polytope's reach along one rate axis, whose coefficients in
    FAMILY_COEFFS are c: family k reads c1 R1 + c2 R2 <= cap_k, so the
    reach is the least cap_k / c_k over c_k > 0."""
    return np.min(caps[c > 0] / c[c > 0, None], axis=0)


def converse_region(p: ChannelParameters, grid: GridSpec = DEFAULT_GRID) -> Region:
    """Union over the correlation grid, as a pointwise-maximum frontier envelope.

    A rate pair violates the converse only if it violates the bounds at every
    rho, so the region is the union of the per-rho polytopes.  Per-rho
    polytope vertices lying on the envelope are kept as candidate extreme
    points.  Raises DegenerateChannelError when no rho of the grid gives a
    polytope containing the origin.

    Each polytope's frontier is the least (cap_k - c1 R1) / c2 over the
    families with c2 > 0, up to its R1 reach.  The frontiers are folded one
    family at a time into one (feasible rho, samples) array, with the reach
    applied in place: there is no (families, rho, samples) temporary.  It
    is _region_and_caps with no other rho.
    """
    return _region_and_caps(p, grid, ())[0]


def _region_and_caps(p: ChannelParameters, grid: GridSpec, rho) -> tuple[Region, np.ndarray]:
    """converse_region(p, grid) and family_caps(p, rho), from one
    evaluation of the caps, and one converse guard, over the grid's rho and
    the 1-D rho together: the caps are elementwise in rho, so each part is
    bit for bit the caps of its own call.  exact_gap passes the inner grid's
    rho axis, for the analytic bound.
    """
    axis = _rho_axis(grid)
    caps = family_caps(p, np.concatenate([axis, np.asarray(rho, float).ravel()]))
    feasible, _, pts, _ = _feasible(caps[:, :axis.size])
    if feasible.shape[1] == 0:
        raise DegenerateChannelError(_INFEASIBLE)
    c1, c2 = FAMILY_COEFFS.T
    reach = _reach(feasible, c1)
    r1_grid = np.linspace(0.0, float(reach.max()), grid.frontier_samples)

    frontier, term = np.empty((2, feasible.shape[1], r1_grid.size))
    for n, k in enumerate(np.flatnonzero(c2 > 0)):
        out = term if n else frontier
        out[...] = feasible[k, :, None]
        if c1[k]:  # subtracting 0 and dividing by 1 change nothing
            out -= c1[k] * r1_grid
        if c2[k] != 1.0:
            out /= c2[k]
        if n:
            np.minimum(frontier, term, out=frontier)
    np.copyto(frontier, -np.inf, where=r1_grid > reach[:, None] + FEASIBILITY_TOL)
    return envelope_union(r1_grid, frontier, vertices=pts), caps[:, axis.size:]


def run_converse_vertices(ps, grid: GridSpec = DEFAULT_GRID) -> list:
    """The vertices of every nonempty per-rho polytope of each channel of a
    run, and the start of the deflation's bisection, in order: its
    (vertices, start), or a DegenerateChannelError, for a channel
    _require_defined refuses or one with no feasible rho.  A run ps is a
    nonempty sequence of channels with the same forward SNRs and INRs
    (ValueError otherwise).  geometry.deflate(inner, vertices, start) is
    deflation_gap(inner, converse_region(p, grid)), with no frontier.

    The deflation xi(q) is convex and nondecreasing in q (every facet normal
    of the inner closure is nonnegative), so its largest value over the
    union of the polytopes is reached at a vertex of one of them; the
    sampled frontier and the envelope filter add no larger value.  The
    start is deflation_gap's, the largest coordinate of its candidates: the
    largest R1 and R2 reaches, which the frontier samples reach, and the
    largest coordinate of the envelope vertices, which envelope_union rounds
    to 12 decimals.  The rounding is repeated here over every vertex, so
    that the two bisections start at the same float.

    Each channel is checked once, and the caps of the channels left are
    evaluated once for the run (_run_caps); the vertices of every feasible
    column of the run come from one batch_vertices call.  A polytope's
    vertices depend on its own caps alone, so each channel's are the ones a
    run of it alone gives, in the same order.  Any other error is raised.
    """
    axis = _rho_axis(grid)
    _check_run(ps)
    out = []
    for q in ps:
        try:
            _require_defined(q)
            out.append(None)
        except DegenerateChannelError as exc:
            out.append(exc)
    ok = [c for c, got in enumerate(out) if got is None]
    if not ok:
        return out
    caps, cell, pts, column = _feasible(_run_caps([ps[c] for c in ok], axis))
    c1, c2 = FAMILY_COEFFS.T
    start = np.full(len(ok), -np.inf)
    np.maximum.at(start, cell, np.maximum(_reach(caps, c1), _reach(caps, c2)))
    np.maximum.at(start, cell[column], np.round(pts, 12).max(axis=1))
    feasible = np.bincount(cell, minlength=len(ok)) > 0
    for c, v, s, f in zip(ok, group_rows(pts, cell[column], len(ok)), start, feasible):
        out[c] = (v, float(s)) if f else DegenerateChannelError(_INFEASIBLE)
    return out
