"""Generic 2-D rate-region machinery.

A rate-region polytope is a finite list of half-planes c1*R1 + c2*R2 <= rhs
with nonnegative coefficients, plus the implicit nonnegativity of both rates.
Regions are represented by their extreme points plus a sampled Pareto
frontier; convex regions (hulls of vertex unions) and non-convex envelope
unions (pointwise-maximum frontiers) share the same container.

The deflation gap between an inner and an outer region is the smallest xi
such that every outer point, pushed down by xi in each coordinate (clamped at
zero), lands inside the inner region.  Because the inner region is downward
closed and contains the origin, the per-point predicate is monotone in xi and
bisection resolves it exactly to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9     # slack when testing constraint satisfaction
BISECTION_TOL = 1e-4       # deflation-gap resolution, bits per channel use
FRONTIER_SAMPLES = 512     # default Pareto-frontier sampling resolution


@dataclass(frozen=True)
class GridSpec:
    """Sweep resolutions for region construction."""

    rho_points: int = 33
    mu_points: int = 17
    frontier_samples: int = FRONTIER_SAMPLES

    def __post_init__(self) -> None:
        if self.rho_points < 1 or self.mu_points < 1 or self.frontier_samples < 2:
            raise ValueError("grid resolutions must be positive (frontier_samples >= 2)")


@dataclass(frozen=True)
class LinearBound:
    """Half-plane c1*R1 + c2*R2 <= rhs with c1, c2 >= 0 and (c1, c2) != (0, 0)."""

    c1: float
    c2: float
    rhs: float

    def __post_init__(self) -> None:
        if self.c1 < 0 or self.c2 < 0 or (self.c1 == 0 and self.c2 == 0):
            raise ValueError(f"invalid bound coefficients ({self.c1}, {self.c2})")
        if np.isnan(self.rhs):
            raise ValueError("bound rhs must not be NaN")


@dataclass(frozen=True)
class RateRegionPolytope:
    """A finite set of linear upper bounds on (R1, R2), plus nonnegativity."""

    bounds: tuple[LinearBound, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple(self.bounds))

    def feasible(self, r1: float, r2: float, tol: float = FEASIBILITY_TOL) -> bool:
        if r1 < -tol or r2 < -tol:
            return False
        return all(b.c1 * r1 + b.c2 * r2 <= b.rhs + tol for b in self.bounds)

    def is_empty(self, tol: float = FEASIBILITY_TOL) -> bool:
        # coefficients are nonnegative, so the origin is feasible iff all
        # right-hand sides are, and the polytope is nonempty iff the origin is in it
        return any(b.rhs < -tol for b in self.bounds)


@dataclass(frozen=True)
class Region:
    """A downward-closed rate region containing the origin.

    vertices   extreme points; counterclockwise hull order for convex
               regions, descending-R1 frontier order for envelope unions.
    frontier_r1, frontier_r2
               the Pareto frontier R1 -> max R2 sampled on a uniform grid.
    convex     True for hull-based regions (membership uses exact
               half-plane tests), False for envelope unions (membership
               compares against the sampled frontier).
    """

    vertices: np.ndarray
    frontier_r1: np.ndarray
    frontier_r2: np.ndarray
    convex: bool = True

    @property
    def r1_max(self) -> float:
        return float(self.frontier_r1[-1])

    @property
    def r2_max(self) -> float:
        return float(self.frontier_r2[0])

    def frontier_at(self, r1) -> np.ndarray:
        return np.interp(r1, self.frontier_r1, self.frontier_r2)


# ---------------------------------------------------------------------------
# hulls and vertex enumeration
# ---------------------------------------------------------------------------

def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Counterclockwise convex hull with collinear points removed.

    Andrew's monotone chain; handles the degenerate cases (empty input, a
    single point, all points collinear) that the region pipeline produces for
    empty or axis-segment regions.  Ordering is deterministic: the hull starts
    at the lexicographically smallest point.
    """
    pts = np.asarray(list(points), dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return pts
    pts = np.unique(pts, axis=0)  # lexicographic sort + dedupe
    if pts.shape[0] == 1:
        return pts
    scale = max(1.0, float(np.abs(pts).max()))
    eps = 1e-12 * scale * scale

    def chain(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= eps:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    # both chains keep their endpoints, so this has >= 2 entries; fully
    # collinear input reduces to the two extreme points
    return np.array(lower[:-1] + upper[:-1])


def _candidate_vertices(coeffs: np.ndarray, rhs: np.ndarray, tol: float):
    """Feasible pairwise line intersections for a batch of polytopes.

    coeffs is (m, 2) and is shared by the whole batch; rhs is (m, n), one
    column per polytope.  The constraint system is coeffs @ v <= rhs and it
    must already include the axes (as -R1 <= 0, -R2 <= 0).  Returns the
    candidate points, shape (k, n, 2), and their feasibility mask (k, n).

    In 2-D a feasible point where two independent constraints are tight is an
    extreme point, so filtering the pairwise intersections by feasibility
    yields exactly the vertex set.
    """
    m = coeffs.shape[0]
    pair_a, pair_b = [], []
    for a in range(m):
        for b in range(a + 1, m):
            det = coeffs[a, 0] * coeffs[b, 1] - coeffs[a, 1] * coeffs[b, 0]
            if abs(det) > 1e-12:
                pair_a.append(a)
                pair_b.append(b)
    pa = np.array(pair_a, dtype=int)
    pb = np.array(pair_b, dtype=int)
    ca, cb = coeffs[pa], coeffs[pb]
    det = (ca[:, 0] * cb[:, 1] - ca[:, 1] * cb[:, 0])[:, None]

    ra, rb = rhs[pa], rhs[pb]  # (k, n)
    with np.errstate(invalid="ignore"):
        x = (ra * cb[:, 1:2] - rb * ca[:, 1:2]) / det
        y = (ca[:, 0:1] * rb - cb[:, 0:1] * ra) / det
        lhs = coeffs[:, 0][None, :, None] * x[:, None, :] + coeffs[:, 1][None, :, None] * y[:, None, :]
        feasible = np.all(lhs <= rhs[None, :, :] + tol, axis=1)
    feasible &= np.isfinite(x) & np.isfinite(y)
    return np.stack([x, y], axis=-1), feasible


def _with_axes(coeffs: np.ndarray, rhs: np.ndarray):
    axes = np.array([[-1.0, 0.0], [0.0, -1.0]])
    zeros = np.zeros((2, rhs.shape[1]))
    return np.vstack([coeffs, axes]), np.vstack([rhs, zeros])


def batch_vertices(coeffs: np.ndarray, rhs: np.ndarray, tol: float = FEASIBILITY_TOL):
    """Vertices of every polytope in a batch sharing constraint directions.

    Returns (points, poly_index): the stacked feasible vertices and, for each,
    the index of the polytope (column of rhs) it belongs to.
    """
    coeffs_full, rhs_full = _with_axes(np.asarray(coeffs, float), np.asarray(rhs, float))
    pts, mask = _candidate_vertices(coeffs_full, rhs_full, tol)
    k, n, _ = pts.shape
    idx = np.broadcast_to(np.arange(n), (k, n))
    return pts[mask], idx[mask]


def polytope_vertices(poly: RateRegionPolytope, tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """All extreme points of a polytope, deduplicated and hull-ordered.

    Empty polytopes yield an empty array.
    """
    if not poly.bounds:
        raise ValueError("polytope must have at least one bound")
    coeffs = np.array([[b.c1, b.c2] for b in poly.bounds])
    rhs = np.array([[b.rhs] for b in poly.bounds])
    pts, _ = batch_vertices(coeffs, rhs, tol)
    if pts.shape[0] == 0:
        return np.empty((0, 2))
    return convex_hull(np.round(pts, 12))


# ---------------------------------------------------------------------------
# frontiers and regions
# ---------------------------------------------------------------------------

def discard_strictly_dominated(points: np.ndarray) -> np.ndarray:
    """Drop points that another point beats by a clear margin in both coordinates.

    Safe hull prefilter for first-quadrant point clouds: a strictly dominated
    point can maximize no linear functional that any hull vertex of the cloud
    plus the origin must maximize, so no hull vertex is ever discarded.  The
    margin is scale-relative so that coordinates equal up to rounding noise
    count as ties, which are always kept.
    """
    pts = np.asarray(points, float).reshape(-1, 2)
    if pts.shape[0] <= 2:
        return pts
    tol = 1e-9 * max(1.0, float(np.abs(pts).max()))
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    p = pts[order]
    x, y = p[:, 0], p[:, 1]
    suffix_max = np.maximum.accumulate(y[::-1])[::-1]
    first_clearly_greater = np.searchsorted(x, x + tol, side="right")
    best_right = np.full(len(p), -np.inf)
    inside = first_clearly_greater < len(p)
    best_right[inside] = suffix_max[first_clearly_greater[inside]]
    return p[y >= best_right - tol]


def pareto_vertices(points: np.ndarray) -> np.ndarray:
    """Non-dominated points, sorted by ascending R1 (so descending R2)."""
    pts = np.asarray(points, float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return pts
    keep = []
    for i, p in enumerate(pts):
        dominated = np.any(
            (pts[:, 0] >= p[0]) & (pts[:, 1] >= p[1])
            & ((pts[:, 0] > p[0]) | (pts[:, 1] > p[1]))
        )
        if not dominated:
            keep.append(i)
    chain = pts[keep]
    order = np.argsort(chain[:, 0])
    return chain[order]


def region_from_hull(hull: np.ndarray, frontier_samples: int = FRONTIER_SAMPLES) -> Region:
    """Convex Region from counterclockwise hull vertices.

    The Pareto frontier of a convex downward-closed region is the chain of
    non-dominated hull vertices, so sampling it is exact piecewise-linear
    interpolation.
    """
    hull = np.asarray(hull, float).reshape(-1, 2)
    if hull.shape[0] == 0:
        hull = np.zeros((1, 2))
    chain = pareto_vertices(hull)
    r1_max = float(hull[:, 0].max())
    grid = np.linspace(0.0, r1_max, frontier_samples)
    return Region(
        vertices=hull,
        frontier_r1=grid,
        frontier_r2=np.interp(grid, chain[:, 0], chain[:, 1]),
        convex=True,
    )


def region_from_points(points: np.ndarray, frontier_samples: int = FRONTIER_SAMPLES) -> Region:
    """Convex Region from an arbitrary point cloud.

    The origin and the axis projections of the extreme coordinates are always
    included, so the result is downward closed even when the input points all
    lie off the axes.
    """
    pts = np.asarray(points, float).reshape(-1, 2)
    anchors = [[0.0, 0.0]]
    if pts.size:
        anchors += [[float(pts[:, 0].max()), 0.0], [0.0, float(pts[:, 1].max())]]
    pts = np.vstack([pts, anchors])
    return region_from_hull(convex_hull(pts), frontier_samples)


def envelope_union(
    r1_grid: np.ndarray,
    values: np.ndarray,
    vertex_sets: Sequence[np.ndarray] | None = None,
    tol: float = 1e-7,
) -> Region:
    """Pointwise-maximum union of frontiers sampled on one R1 grid.

    values holds one frontier per row, shape (k, len(r1_grid)) with k >= 1.
    Missing coverage is expressed with -inf frontier values; the result is
    clipped at zero so the region always contains the origin.  When the
    contributing polytopes' vertices are supplied, those lying on the envelope
    (within tol, scale-relative) are kept as the region's candidate extreme
    points, ordered by descending R1.
    """
    grid = np.asarray(r1_grid, float)
    values = np.asarray(values, float)
    if values.ndim != 2 or values.shape[0] == 0 or values.shape[1:] != grid.shape:
        raise ValueError(f"envelope_union needs one row of {grid.shape} values per "
                         f"frontier, got a {values.shape} matrix")
    env = np.maximum(values.max(axis=0), 0.0)

    if vertex_sets is not None:
        all_pts = [np.asarray(v, float).reshape(-1, 2) for v in vertex_sets if len(v)]
        pts = np.concatenate(all_pts) if all_pts else np.zeros((1, 2))
        scale = max(1.0, float(env.max()), float(grid[-1]))
        on_env = pts[:, 1] >= np.interp(pts[:, 0], grid, env) - tol * scale
        verts = np.unique(np.round(pts[on_env], 12), axis=0)[::-1]
    else:
        verts = np.column_stack([grid, env])[::-1]
    return Region(vertices=verts, frontier_r1=grid, frontier_r2=env, convex=False)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _points_in_region(r: Region, pts: np.ndarray, tol: float) -> np.ndarray:
    pts = np.asarray(pts, float).reshape(-1, 2)
    if not r.convex:
        inside = (pts >= -tol).all(axis=1)
        inside &= pts[:, 0] <= r.r1_max + tol
        inside &= pts[:, 1] <= r.frontier_at(pts[:, 0]) + tol
        return inside

    hull = r.vertices
    if hull.shape[0] == 1:
        return np.hypot(pts[:, 0] - hull[0, 0], pts[:, 1] - hull[0, 1]) <= tol
    if hull.shape[0] == 2:
        return _segment_distance(pts, hull[0], hull[1]) <= tol
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    # signed distance to each edge line, positive on the interior side (CCW)
    dx = pts[:, None, 0] - hull[None, :, 0]
    dy = pts[:, None, 1] - hull[None, :, 1]
    signed = (edges[None, :, 0] * dy - edges[None, :, 1] * dx) / lengths[None, :]
    return (signed >= -tol).all(axis=1)


def _segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0) if denom > 0 else np.zeros(len(pts))
    proj = a + t[:, None] * ab
    return np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])


def contains(r: Region, pt: Sequence[float], tol: float = FEASIBILITY_TOL) -> bool:
    """Whether pt lies in the region within tolerance.

    Convex regions use an exact half-plane test against the hull; envelope
    regions compare against the sampled frontier.
    """
    return bool(_points_in_region(r, np.asarray(pt, float).reshape(1, 2), tol)[0])


# ---------------------------------------------------------------------------
# deflation gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflationResult:
    """Smallest per-coordinate deflation mapping the outer region into the inner."""

    gap: float
    witness: tuple[float, float]


def _check_downward_closed(r: Region, name: str) -> None:
    diffs = np.diff(r.frontier_r2)
    scale = max(1.0, float(np.abs(r.frontier_r2).max()))
    if np.any(diffs > 1e-7 * scale):
        raise ValueError(f"{name} region is not downward closed (frontier increases)")


def deflation_gap(
    inner: Region,
    outer: Region,
    tol: float = BISECTION_TOL,
    membership_tol: float = FEASIBILITY_TOL,
) -> DeflationResult:
    """Smallest xi (within tol) deflating every outer point into the inner region.

    Candidates are the outer frontier samples plus the outer vertex set; exact
    vertices are included because a polytope corner can dominate all sampled
    frontier points by up to a grid step.  Each candidate's minimal xi is found
    by bisection (the membership predicate is monotone in xi for a
    downward-closed inner region containing the origin), and the gap is the
    maximum over candidates, reported with its witness point.
    """
    _check_downward_closed(inner, "inner")
    _check_downward_closed(outer, "outer")

    cand = np.vstack([
        np.column_stack([outer.frontier_r1, outer.frontier_r2]),
        outer.vertices.reshape(-1, 2),
    ])
    cand = cand[(cand[:, 0] >= 0) & (cand[:, 1] >= 0)]
    if cand.shape[0] == 0:
        cand = np.zeros((1, 2))

    hi_cap = max(float(cand.max()), 0.0)
    lo = np.zeros(cand.shape[0])
    hi = np.full(cand.shape[0], hi_cap)

    # candidates already inside need no deflation
    inside0 = _points_in_region(inner, cand, membership_tol)
    hi[inside0] = 0.0

    while True:
        active = hi - lo > tol
        if not np.any(active):
            break
        mid = 0.5 * (lo + hi)
        deflated = np.maximum(cand[active] - mid[active, None], 0.0)
        ok = _points_in_region(inner, deflated, membership_tol)
        idx = np.flatnonzero(active)
        hi[idx[ok]] = mid[idx[ok]]
        lo[idx[~ok]] = mid[idx[~ok]]

    worst = int(np.argmax(hi))
    return DeflationResult(gap=float(hi[worst]), witness=(float(cand[worst, 0]), float(cand[worst, 1])))
