"""Outer bound: scenario classification and the converse rate region.

The converse bounds depend on how each forward SNR orders against the two
INRs and their product.  Five mutually exclusive scenarios per user carve up
the parameter space.  Twenty-three joint scenarios are feasible: the (2, 2)
and (3, 3) combinations are contradictory.

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
frontier sample) and the region command use.  The symmetric sweep takes
converse_vertices instead, the vertices of every nonempty polytope: the
deflation is convex and nondecreasing, so its largest value over the union
is reached at one of them, and the gap is the envelope's.  Both raise
DegenerateChannelError when no rho of the grid gives a polytope containing
the origin: the bounds then exclude a rate pair every channel achieves.

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


def _k1(p, i, rho):
    b1, _ = b_basic(p, i, rho)
    return 0.5 * np.log2(b1 + 1.0)


def _k2(p, i, rho):
    j = _other(i)
    b5j = _b5(p, j, rho)
    return 0.5 * np.log2(1.0 + b5j) + 0.5 * np.log2(1.0 + _b4(p, i, rho) / (1.0 + b5j))


def _k3(p, i, rho):
    j = _other(i)
    b4i = _b4(p, i, rho)
    b5j = _b5(p, j, rho)
    b1j_full, _ = b_basic(p, j, 1.0)
    num = p.snr_bwd(j) * (b4i + b5j + 1.0)
    den = (b1j_full + 1.0) * (b4i + 1.0)
    return 0.5 * np.log2(num / den + 1.0) + 0.5 * np.log2(b4i + 1.0)


def _k4(p, rho):
    b1_2, _ = b_basic(p, 2, rho)
    return 0.5 * np.log2(1.0 + _b4(p, 1, rho) / (1.0 + _b5(p, 2, rho))) + 0.5 * np.log2(b1_2 + 1.0)


def _k5(p, rho):
    b1_1, _ = b_basic(p, 1, rho)
    return 0.5 * np.log2(1.0 + _b4(p, 2, rho) / (1.0 + _b5(p, 1, rho))) + 0.5 * np.log2(b1_1 + 1.0)


def _fb_gain(p, i, rho):
    # recurring factor: 1 + b5_i * snr_bwd_i / (b1_i(1) + 1)
    b1_full, _ = b_basic(p, i, 1.0)
    return 1.0 + _b5(p, i, rho) * p.snr_bwd(i) / (b1_full + 1.0)


def _cross_feedback(p, i, rho):
    # recurring factor: 1 + (b5_i / snr_i)(inr_ji + b3_i * snr_bwd_i / (b1_i(1) + 1))
    b1_full, _ = b_basic(p, i, 1.0)
    inner = p.inr(_other(i)) + _b3(p, i) * p.snr_bwd(i) / (b1_full + 1.0)
    return 1.0 + (_b5(p, i, rho) / p.snr_fwd(i)) * inner


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


def _half(p, j, b1_form, rho):
    """H_j: user j's part of kappa_6 and of the other user's kappa_7."""
    mix = _b5(p, 1, rho) * p.inr_21  # (1 - rho^2) * inr12 * inr21, symmetric in the users
    if b1_form:
        b1_j, _ = b_basic(p, j, rho)
        return 0.5 * _log2_or_minus_inf(b1_j + mix) + 0.5 * np.log2(_fb_gain(p, j, rho))
    b6_j = _b6(p, j, rho)  # raises for a zero forward SNR before it is divided by
    snr_j = p.snr_fwd(j)
    return (
        0.5 * _log2_or_minus_inf(b6_j + (mix / snr_j) * (snr_j + _b3(p, j)))
        + 0.5 * np.log2(_cross_feedback(p, j, rho))
        - 0.5 * np.log2(1.0 + mix / snr_j)
    )


def _k7(p, i, half_j, rho):
    j = _other(i)
    b1_i, _ = b_basic(p, i, rho)
    b5j = _b5(p, j, rho)
    return (
        0.5 * np.log2(b1_i + 1.0)
        - 0.5 * math.log2(1.0 + p.inr(i))
        + 0.5 * np.log2(1.0 + _b4(p, i, rho) + b5j)
        - 0.5 * np.log2(1.0 + b5j)
        + half_j
        + 2.0 * LOG2_2PIE
    )


def _caps_by_family(p: ChannelParameters, rho, ev: EventPair):
    """The eleven converse caps at rho, grouped by family in FAMILY_COEFFS order."""
    h1 = _half(p, 1, _b1_form(ev, 1), rho)
    h2 = _half(p, 2, _b1_form(ev, 2), rho)
    k7 = (_k7(p, 1, h2, rho), _k7(p, 2, h1, rho))
    k6 = h1 + h2 - 0.5 * math.log2(1.0 + p.inr_12) - 0.5 * math.log2(1.0 + p.inr_21) + LOG2_2PIE
    return (
        (_k1(p, 1, rho), _k2(p, 1, rho), _k3(p, 1, rho)),
        (_k1(p, 2, rho), _k2(p, 2, rho), _k3(p, 2, rho)),
        (_k4(p, rho), _k5(p, rho), k6),
        (k7[0],),
        (k7[1],),
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
    (k1_1, k2_1, k3_1), (k1_2, k2_2, k3_2), (k4, k5, k6), (k7_1,), (k7_2,) = (
        [float(v) for v in family] for family in _caps_by_family(p, rho, ev)
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


def family_caps(p: ChannelParameters, rho) -> np.ndarray:
    """Binding converse cap per bound family; rho may be an array.

    Returns shape (5,) + rho.shape in FAMILY_COEFFS order.  Raises
    DegenerateChannelError when inr_12 * inr_21, a factor of the sum and
    weighted caps, is not a finite float.
    """
    if not math.isfinite(p.inr_12 * p.inr_21):
        raise DegenerateChannelError(
            f"converse bound is undefined for an INR product beyond the float range "
            f"(inr_12={p.inr_12!r}, inr_21={p.inr_21!r})")
    rho = np.asarray(rho, float)
    return _least_of_each(_caps_by_family(p, rho, classify_events(p)), rho.shape)


def _feasible_caps(p: ChannelParameters, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The family caps on the correlation grid of the nonempty polytopes
    only, one column per rho (caps all finite and >= -FEASIBILITY_TOL), and
    their vertices.  Raises DegenerateChannelError when there is none."""
    if grid.rho_points < 2:
        raise ValueError("the converse rho grid needs at least 2 points")
    caps = family_caps(p, np.linspace(0.0, 1.0, grid.rho_points))  # (5, n_rho)
    caps = caps[:, np.all(np.isfinite(caps) & (caps >= -FEASIBILITY_TOL), axis=0)]
    if caps.shape[1] == 0:
        raise DegenerateChannelError("converse bound is undefined: no rho of the "
                                     "grid gives a polytope containing the origin")
    pts, _ = batch_vertices(FAMILY_COEFFS, caps)
    return caps, pts


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
    """
    caps, pts = _feasible_caps(p, grid)
    # the frontier is the least (cap_k - c1 R1) / c2 over c2 > 0, up to the R1 reach
    c1, c2 = FAMILY_COEFFS.T
    reach = _reach(caps, c1)
    r1_grid = np.linspace(0.0, float(reach.max()), grid.frontier_samples)

    r = r1_grid[None, :]
    up = c2 > 0
    frontier = caps[up, :, None] - c1[up, None, None] * r
    frontier /= c2[up, None, None]  # in place: one (families, rho, samples) temporary
    frontier = np.min(frontier, axis=0)
    frontier = np.where(r <= reach[:, None] + FEASIBILITY_TOL, frontier, -np.inf)
    return envelope_union(r1_grid, frontier, vertices=pts)


def converse_vertices(p: ChannelParameters,
                      grid: GridSpec = DEFAULT_GRID) -> tuple[np.ndarray, float]:
    """The vertices of every nonempty per-rho polytope, and the start of the
    deflation's bisection: geometry.deflate(inner, *converse_vertices(p, grid))
    is deflation_gap(inner, converse_region(p, grid)), with no frontier.

    The deflation xi(q) is convex and nondecreasing in q (every facet normal
    of the inner closure is nonnegative), so its largest value over the
    union of the polytopes is reached at a vertex of one of them; the
    sampled frontier and the envelope filter add no larger value.  The
    start is deflation_gap's, the largest coordinate of its candidates: the
    largest R1 and R2 reaches, which the frontier samples reach, and the
    largest coordinate of the envelope vertices, which envelope_union rounds
    to 12 decimals.  The rounding is repeated here over every vertex, so
    that the two bisections start at the same float.  Raises
    DegenerateChannelError as converse_region does.
    """
    caps, pts = _feasible_caps(p, grid)
    c1, c2 = FAMILY_COEFFS.T
    start = max(_reach(caps, c1).max(), _reach(caps, c2).max(), np.round(pts, 12).max())
    return pts, float(start)
