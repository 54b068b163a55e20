"""Generic 2-D rate-region machinery.

A rate-region polytope is a finite list of half-planes c1*R1 + c2*R2 <= rhs
with nonnegative coefficients, plus the implicit nonnegativity of both rates.
Regions are represented by their extreme points plus a sampled Pareto
frontier; convex regions (hulls of vertex unions) and non-convex envelope
unions (pointwise-maximum frontiers) share the same container.

Every region is downward closed, so one rule decides membership for both
kinds: a point is inside iff both coordinates are nonnegative, R1 is at most
the region's largest R1, and R2 is at most the upper boundary at that R1.
The boundary of a convex region is the Pareto chain of its hull, exact
piecewise-linear; that of an envelope union is its sampled frontier.

The deflation gap between an inner and an outer region is the smallest xi
such that every outer point, pushed down by xi in each coordinate (clamped at
zero), lands inside the inner region.  The inner region C is convex, so its
downward closure D = C + R_-^2 is cut out by half-planes a . p <= b, and the
least xi for a point q is max(0, max over them of (a . q - b) / (a1 + a2)):
a closed form, with one scalar bisection only to quantise the reported gap.

Cost model of a convex region built from n polytopes sharing m constraint
directions (the inner region: m = 5, n = rho x mu x mu grid points):

- batch_vertices tightens every cap to its support value by 2-D LP duality
  into one table, a row per direction and a column per polytope, and walks
  the directions in slope order: a fixed number of passes over rows of
  length n per LP-dual term, then every step's corner at once, over the
  table, O(n (pairs + m)) time and O(n m) memory;
- prune_columns leaves out the polytopes strictly inside an inner chain
  with q knots (for the inner sweep, the extreme points of a coarse
  sub-grid's vertices in a fan of directions) by one test in support space,
  on bounds from the raw caps: O(n (pairs + q)) time, no corner and no
  tightening.  Only the w polytopes it keeps are tightened and walked, so
  the k candidate vertices come from w polytopes, not from n (the argument
  is in prune_columns);
- _convex_hulls is a quickhull on the k candidates with no sort of its
  input, run level-synchronously: each depth of the recursion is one
  vectorized pass of O(k) over the pending edges of every cloud of a batch,
  9 passes for a 67-vertex hull of the inner sweep instead of one Python
  step per hull edge; regions_from_points builds the hulls of a batch of
  clouds (a sweep row) in one call, and convex_hull and region_from_points
  are its one-cloud cases.  discard_strictly_dominated, one O(k log k)
  sort, runs only on inner clouds with a coordinate below zero;
- deflate is one pass of c candidates over the facets of D, one per edge
  of the inner Pareto chain plus two: O(c h), and a scalar bisection;
  deflation_gap takes an outer region's frontier samples and vertices as
  the candidates.

Tolerances are scale-relative: FEASIBILITY_TOL for emptiness and membership,
the dominance margin 1e-9, and HULL_EPS for collinearity, ulp twins and
repeated vertices, and for the single-vertex test of each polytope, relative
to its own largest finite cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9     # slack when testing constraint satisfaction
BISECTION_TOL = 1e-4       # deflation-gap resolution, bits per channel use
FRONTIER_SAMPLES = 512     # default Pareto-frontier sampling resolution


@dataclass(frozen=True)
class GridSpec:
    """Sweep resolutions for region construction.

    The converse reads only rho_points and frontier_samples: it has no
    power splits, so mu_points changes the inner sweep alone."""

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


@dataclass(frozen=True)
class Region:
    """A downward-closed rate region containing the origin.

    vertices   extreme points; counterclockwise hull order for convex
               regions, descending-R1 frontier order for envelope unions.
    frontier_r1, frontier_r2
               the Pareto frontier R1 -> max R2 sampled on a uniform grid.
    convex     True for hull-based regions, whose upper boundary is the
               exact Pareto chain of the vertices; False for envelope
               unions, whose upper boundary is the sampled frontier.
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

    @functools.cached_property
    def boundary(self) -> tuple[float, np.ndarray, np.ndarray]:
        """The largest R1 and the knots (R1, R2) of the upper boundary, by
        ascending R1; built on first use and kept."""
        if self.convex:
            chain = pareto_vertices(self.vertices)
            return self.r1_max, chain[:, 0], chain[:, 1]
        return self.r1_max, self.frontier_r1, self.frontier_r2


# ---------------------------------------------------------------------------
# hulls and vertex enumeration
# ---------------------------------------------------------------------------

HULL_EPS = 1e-12           # scale-relative distance below which points are collinear


def _hull_eps(pts: np.ndarray) -> float:
    return HULL_EPS * max(1.0, float(np.abs(pts).max()))


def _lex_extreme(pts: np.ndarray, sign: float) -> int:
    """Index of the lexicographically smallest point, or the largest for sign -1."""
    x = sign * pts[:, 0]
    idx = np.flatnonzero(x == x.min())
    return int(idx[np.argmin(sign * pts[idx, 1])])


def _split(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray, eps: np.ndarray,
           members: np.ndarray, group: np.ndarray):
    """The candidates of each group that lie beyond one of its two edges.

    Group k owns edges k and k + K (K = a.size // 2), directed a -> b, each
    with its tolerance eps.  A candidate is first measured against edge k
    at the signed distance (ey (x - ax) - ex (y - ay)) / hypot(ex, ey),
    positive on its right, and, when it is not more than eps beyond it,
    against edge k + K.  Returns the candidates beyond an edge, grouped by
    edge and ascending within one, with their edges and distances.
    """
    ax, ay = x[a], y[a]
    ex, ey = x[b] - ax, y[b] - ay
    norm = np.array([math.hypot(u, v) for u, v in zip(ex.tolist(), ey.tolist())])

    def beyond(m, e):
        d, t = x[m], y[m]  # in place: d = (ey (x - ax) - ex (y - ay)) / norm
        d -= ax[e]
        d *= ey[e]
        t -= ay[e]
        t *= ex[e]
        d -= t
        d /= norm[e]
        return d, d > eps[e]

    d1, in1 = beyond(members, group)
    out = ~in1
    rest, edge2 = members[out], group[out] + a.size // 2
    d2, in2 = beyond(rest, edge2)
    return (np.concatenate([members[in1], rest[in2]]),
            np.concatenate([group[in1], edge2[in2]]),
            np.concatenate([d1[in1], d2[in2]]))


def _quickhull_levels(x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray,
                      eps: np.ndarray, owner: np.ndarray, members: np.ndarray,
                      group: np.ndarray):
    """The hull vertices right of directed edges a -> b, by farthest points.

    The edges are sub-problems over the stacked points (x, y), each with a
    tolerance eps and a label owner.  Edges k and k + K (K = a.size // 2)
    share the candidates members[group == k], ascending; of those, each
    edge keeps the ones more than its eps beyond it (_split).  The farthest
    beyond an edge a -> b, the lexicographically smallest of exact ties,
    becomes a vertex f, and the kept candidates are shared by the new edges
    a -> f and f -> b.  Each depth of the recursion is one vectorized pass
    over every pending edge.  Returns (owner, index) of every vertex found.

    A candidate more than eps beyond a -> f is never more than eps beyond
    f -> b, so _split gives it to the first edge alone, and every edge keeps
    the candidates a recursion passing both edges all of them would keep.
    Were it beyond both, it would lie farther than f beyond a -> b: the
    numerators of its distances to a -> f and f -> b sum to |ab| times its
    distance beyond a -> b less f's, and |af| + |fb| >= |ab|, so that excess
    would be more than eps, far above the rounding of the distances.  The
    same holds for the two opposite edges between a cloud's extremes.
    """
    found_owner, found = [], []
    while True:
        members, edge, dist = _split(x, y, a, b, eps, members, group)
        if not members.size:
            break
        new = np.empty(edge.size, bool)
        new[0] = True
        np.not_equal(edge[1:], edge[:-1], out=new[1:])
        starts, group = np.flatnonzero(new), np.cumsum(new) - 1
        live = edge[starts]
        hits = np.flatnonzero(dist == np.maximum.reduceat(dist, starts)[group])
        tied = members[hits]  # of exact ties, each edge takes the lex-smallest
        hits = hits[np.lexsort((y[tied], x[tied], group[hits]))]
        f = members[hits[np.searchsorted(group[hits], np.arange(starts.size))]]
        found_owner.append(owner[live])
        found.append(f)
        a, b = np.concatenate([a[live], f]), np.concatenate([f, b[live]])
        twice = np.concatenate([live, live])
        eps, owner = eps[twice], owner[twice]
    if not found:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    return np.concatenate(found_owner), np.concatenate(found)


def _drop_collinear(hull: np.ndarray, eps: float) -> np.ndarray:
    """Remove, one at a time, the vertex nearest the chord of its neighbours,
    while that vertex lies within eps of it."""
    while len(hull) > 2:
        prev, nxt = np.roll(hull, 1, axis=0), np.roll(hull, -1, axis=0)
        ex, ey = nxt[:, 0] - prev[:, 0], nxt[:, 1] - prev[:, 1]
        turn = (ex * (hull[:, 1] - prev[:, 1]) - ey * (hull[:, 0] - prev[:, 0]))
        dist = -turn / np.maximum(np.hypot(ex, ey), np.finfo(float).tiny)
        k = int(np.argmin(dist))
        if dist[k] > eps:
            break
        hull = np.delete(hull, k, axis=0)
    return hull


def _lex_order(pts: np.ndarray) -> np.ndarray:
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


def _convex_hulls(clouds: Iterable) -> list[np.ndarray]:
    """The counterclockwise convex hull of every cloud, collinear points removed.

    Quickhull, seeded from each cloud's lexicographically smallest and
    largest points, which are always extreme: each side of their chord is
    split at the point farthest beyond it until no point lies more than eps
    beyond an edge, with eps = HULL_EPS * max(1, largest |coordinate| of the
    cloud).  A last pass drops any vertex within eps of the chord of its two
    neighbours.  Distances are measured, not the turn direction of a sorted
    sweep, so points that differ by a few ulps neither split an edge nor
    push a true vertex out of the hull.

    A hull depends only on the set of its cloud's points, never on their
    order or multiplicity, nor on the other clouds: distances decide every
    choice, and of points tied exactly in distance beyond an edge the
    lexicographically smallest is taken.  Points a few ulps apart can tie
    so, and which of them is a vertex then depends on that rule alone.
    Each hull starts at its lexicographically smallest vertex.  Degenerate
    input yields no points, the single distinct point, or, when all points
    are collinear, the two extremes.

    Cost: each depth of the recursion is one vectorized pass over the
    pending edges of every cloud (_quickhull_levels), O(n) per depth for n
    points in all, so a batch takes about as many passes as its deepest
    hull, not one per hull edge.
    """
    clouds = [np.asarray(c if isinstance(c, np.ndarray) else list(c), dtype=float).reshape(-1, 2)
              for c in clouds]
    hulls = list(clouds)
    seeds = []  # (cloud, first, last, eps) of the clouds with two distinct extremes
    for k, pts in enumerate(clouds):
        if pts.shape[0] == 0:
            continue
        first, last = _lex_extreme(pts, 1.0), _lex_extreme(pts, -1.0)
        if np.array_equal(pts[first], pts[last]):
            hulls[k] = pts[[first]]
        else:
            seeds.append((k, first, last, _hull_eps(pts)))
    if not seeds:
        return hulls

    # two edges per cloud: edge j is its lower chain first -> last, edge
    # n + j its upper chain last -> first, and both share its points
    n = len(seeds)
    x, y = (np.concatenate([clouds[k][:, c] for k, *_ in seeds]) for c in (0, 1))
    sizes = np.array([len(clouds[k]) for k, *_ in seeds])
    first = np.r_[0, np.cumsum(sizes)[:-1]] + [f for _, f, _, _ in seeds]
    last = first + [v - f for _, f, v, _ in seeds]
    owner, found = _quickhull_levels(
        x, y, np.r_[first, last], np.r_[last, first],
        np.tile([e for *_, e in seeds], 2), np.arange(2 * n),
        np.arange(x.size), np.repeat(np.arange(n), sizes))
    chains = group_rows(found, owner, 2 * n)

    for j, (k, f, v, eps) in enumerate(seeds):
        pts = clouds[k]
        lower, upper = chains[j], chains[n + j]
        lower = _lex_order(np.column_stack([x[lower], y[lower]]))
        upper = _lex_order(np.column_stack([x[upper], y[upper]]))[::-1]
        hull = _drop_collinear(np.vstack([pts[[f]], lower, pts[[v]], upper]), eps)
        start = int(np.lexsort((hull[:, 1], hull[:, 0]))[0])
        hulls[k] = np.roll(hull, -start, axis=0) + 0.0  # -0.0 and 0.0 tie: report 0.0
    return hulls


def convex_hull(points: Iterable[Sequence[float]]) -> np.ndarray:
    """_convex_hulls of the one cloud points."""
    return _convex_hulls([points])[0]


_AXES = np.array([[-1.0, 0.0], [0.0, -1.0]])  # R1 >= 0 and R2 >= 0 as upper bounds
_LAMBDA_TOL = 1e-12        # multipliers and determinants below this count as zero


@dataclass(frozen=True)
class _VertexWalk:
    """What batch_vertices precomputes once for one set of shared directions.

    dirs     the rows of coeffs, then the two axes
    fold     (row, member, scale) with dirs[row] = scale * dirs[member]: each
             direction is walked once, as its first row, and the caps of
             parallel rows fold into that row's cap
    duals    (k, terms) for each walked row k, with terms (i, lam_i, j, lam_j)
             such that dirs[k] = lam_i dirs[i] + lam_j dirs[j] and both
             multipliers are positive; j is None when the second generator
             is an axis, whose cap is 0.  These are the basic solutions of
             the LP dual of max dirs[k] . v over the polytope.
    steps    (lead, a, b, det), four arrays with one entry per step, a pair
             of rows adjacent in the counterclockwise order of their
             normals, bottom axis first: lead is the earlier row of the
             pair, a < b its rows and det != 0 their determinant
    """

    dirs: np.ndarray
    fold: tuple
    duals: tuple
    steps: tuple


@functools.lru_cache(maxsize=16)
def _vertex_walk(shape: tuple, data: bytes) -> _VertexWalk:
    """The walk for the coeffs array of this shape and these bytes."""
    coeffs = np.frombuffer(data).reshape(shape)
    if coeffs.ndim != 2 or coeffs.shape[1] != 2 or coeffs.shape[0] == 0:
        raise ValueError(f"coeffs must be an (m, 2) array with m >= 1, got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)) or np.any(coeffs < 0) or np.any(coeffs.sum(axis=1) == 0):
        raise ValueError("constraint directions must be finite, nonnegative and nonzero")
    m = coeffs.shape[0]
    dirs = np.vstack([coeffs, _AXES])
    unit = coeffs / coeffs.sum(axis=1, keepdims=True)

    rows, fold = [], []
    for i in range(m):
        rep = next((r for r in rows if np.all(np.abs(unit[r] - unit[i]) <= _LAMBDA_TOL)), None)
        if rep is None:
            rows.append(i)
        else:
            fold.append((rep, i, float(coeffs[rep].sum() / coeffs[i].sum())))

    def cross(a, b):
        return float(dirs[a, 0] * dirs[b, 1] - dirs[a, 1] * dirs[b, 0])

    generators = rows + [m, m + 1]
    duals = []
    for k in rows:
        terms = []
        for gi, i in enumerate(generators):
            for j in generators[gi + 1:]:
                det = cross(i, j)
                if abs(det) <= _LAMBDA_TOL or (i >= m and j >= m):
                    continue
                lam_i, lam_j = cross(k, j) / det, cross(i, k) / det
                if lam_i > _LAMBDA_TOL and lam_j > _LAMBDA_TOL:
                    terms.append((i, lam_i, None, 0.0) if j >= m else (i, lam_i, j, lam_j))
        duals.append((k, tuple(terms)))

    angle = np.arctan2(coeffs[rows, 1], coeffs[rows, 0])
    order = [m + 1] + [rows[t] for t in np.argsort(angle, kind="stable")] + [m]
    steps = []
    for lead, nxt in zip(order, order[1:] + order[:1]):
        a, b = min(lead, nxt), max(lead, nxt)
        det = cross(a, b)
        if abs(det) > _LAMBDA_TOL:
            steps.append((lead, a, b, det))
    return _VertexWalk(dirs, tuple(fold), tuple(duals), tuple(np.array(v) for v in zip(*steps)))


def _live_caps(coeffs: np.ndarray, rhs: np.ndarray):
    """The walk of coeffs, the nonempty columns live of rhs and their caps."""
    coeffs = np.asarray(coeffs, float)
    rhs = np.asarray(rhs, float)
    walk = _vertex_walk(coeffs.shape, coeffs.tobytes())
    if rhs.ndim != 2 or rhs.shape[0] != coeffs.shape[0]:
        raise ValueError(f"rhs must be ({coeffs.shape[0]}, n), got {rhs.shape}")
    live = np.flatnonzero(np.all(rhs >= -FEASIBILITY_TOL, axis=0))  # NaN compares False
    return walk, live, _folded(walk, rhs, live)


def _folded(walk: _VertexWalk, rhs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rhs at the columns cols, parallel rows folded into their walked row."""
    caps = rhs if cols.size == rhs.shape[1] and not walk.fold else rhs[:, cols]
    for row, member, scale in walk.fold:
        np.minimum(caps[row], scale * caps[member], out=caps[row])
    return caps


def _least_dual(caps: np.ndarray, terms, out: np.ndarray, term: np.ndarray,
                part: np.ndarray) -> np.ndarray:
    """out, lowered in place to the least LP-dual term of a row over terms
    (i, lam_i, j, lam_j) of walk.duals: lam_i caps[i] + lam_j caps[j], or
    lam_i caps[i] when j is None.  term and part are scratch rows."""
    for i, lam_i, j, lam_j in terms:  # multiplying by 1 changes nothing
        t = caps[i] if lam_i == 1.0 else np.multiply(caps[i], lam_i, out=term)
        if j is not None:
            t = np.add(t, caps[j] if lam_j == 1.0 else np.multiply(caps[j], lam_j, out=part),
                       out=term)
        np.minimum(out, t, out=out)
    return out


def _tighten(walk: _VertexWalk, caps: np.ndarray):
    """The support table (h, single) of the polytopes of caps, one column
    each; both have one row per row of walk.dirs.  h[k] is the support
    value in dirs[k], the least of caps[k] and the LP-dual terms of row k,
    and single[k] whether that row's line touches the polytope at a single
    vertex: some dual term lies within eps of caps[k] or below it, with
    eps = HULL_EPS * max(1, the column's largest finite cap).  A column's
    table depends on its own caps alone.  The rows that are not walked, the
    axes and the rows folded into a parallel one, hold 0 and False."""
    h = np.zeros((len(walk.dirs), caps.shape[1]))
    single = np.zeros(h.shape, bool)
    eps = HULL_EPS * np.max(caps, axis=0, where=caps < np.inf, initial=1.0)
    term, part = np.empty((2, caps.shape[1]))
    for k, terms in walk.duals:
        h[k] = np.inf
        _least_dual(caps, terms, h[k], term, part)
        np.less_equal(h[k], np.add(caps[k], eps, out=term), out=single[k])
        np.minimum(h[k], caps[k], out=h[k])
    return h, single


def _emit(walk: _VertexWalk, live: np.ndarray, h: np.ndarray, single: np.ndarray):
    """The vertices the walk emits for the support table (h, single) of the
    polytopes live (_tighten), and their polytopes.

    Each step of the walk meets two slope-adjacent lines.  A row that
    touches at a single vertex leads a step whose corner repeats the one
    before, which is skipped; so is a corner at infinity, where a line at
    infinity (a support value of +inf) meets another, and which is never
    computed.  Every step's corner is computed at once, over the table: a
    few array operations per call, a row per step, not a few per step.
    """
    lead, a, b, det = walk.steps
    keep = ~single[lead]
    keep[0] = True
    if not np.isfinite(h).all():
        far = ~np.isfinite(h)  # the lines at infinity of unbounded polytopes
        h = np.where(far, 0.0, h)
        keep &= ~(far[a] | far[b])
    (a0, a1), (b0, b1), det = walk.dirs[a].T[..., None], walk.dirs[b].T[..., None], det[:, None]
    ha, hb = h[a], h[b]  # copies, so the products below reuse them in place
    x = ha * b1
    term = hb * a1
    x -= term
    x /= det
    y = np.multiply(a0, hb, out=hb)
    y -= np.multiply(b0, ha, out=term)
    y /= det
    return np.stack([x[keep], y[keep]], axis=1), np.broadcast_to(live, keep.shape)[keep]


def batch_vertices(coeffs: np.ndarray, rhs: np.ndarray):
    """Vertices of every polytope in a batch sharing constraint directions.

    coeffs is (m, 2), nonnegative, and shared by the batch; rhs is (m, n),
    one column per polytope {v >= 0 : coeffs @ v <= rhs}.  A column with a
    NaN or a cap below -FEASIBILITY_TOL is empty and yields nothing; a +inf
    cap is no constraint.

    Method: 2-D LP duality, then a walk.  Every cap is first tightened to
    its support value h_k = max coeffs[k] . v over the polytope.  By LP
    duality h_k is the least of rhs_k and lam_i rhs_i + lam_j rhs_j over the
    pairs whose cone contains coeffs[k], the axes counting with cap 0.  The
    support values and the single-vertex flags form one table, a row per
    row of the walk's directions (coeffs, then the axes) and a column per
    nonempty polytope (_tighten).  Every tightened line touches the
    polytope, so the vertices are the intersections of lines adjacent in
    the counterclockwise order of their normals (_emit).  A line the
    duality tightens, or meets to within rounding of the polytope's own
    caps, touches at a single vertex, which both of its neighbours already
    pass through, so the walk emits that vertex once.  So each polytope's
    vertices depend on its own caps alone, not on the rest of the batch.
    The pair table and the steps of the walk depend on coeffs alone and are
    computed once per distinct coeffs (_vertex_walk); the per-polytope work
    is a fixed number of array passes, O(pairs + m): a few per dual term,
    row by row, and a few for the corners of every step at once, with no
    array of shape (pairs, constraints, polytopes).

    Returns (points, poly_index): the stacked vertices and, for each, the
    index of its polytope (column of rhs).
    """
    return walk_columns(*_live_caps(coeffs, rhs))


def walk_columns(walk: _VertexWalk, cols: np.ndarray, caps: np.ndarray):
    """batch_vertices of the caps of _folded, each vertex labelled with its
    polytope's entry of cols."""
    return _emit(walk, cols, *_tighten(walk, caps))


def group_rows(values: np.ndarray, group: np.ndarray, n: int) -> list[np.ndarray]:
    """The rows of values split into n arrays by group, one index in 0..n-1
    per row: array g holds the rows of group g in their order in values."""
    order = np.argsort(group, kind="stable")
    return np.split(values[order], np.cumsum(np.bincount(group, minlength=n))[:-1])


def _closure_facets(boundary: tuple, lift: float = 0.0):
    """The facets a . p <= b of the downward closure of an upper boundary
    (r1_max, knot_r1, knot_r2), knots by ascending R1 and descending R2:
    one per pair of consecutive knots, a = (y_k - y_k+1, x_k+1 - x_k), then
    R2 <= the first knot's R2 and R1 <= r1_max, each cap raised by lift.

    Returns (a1, a2, b).  Their intersection lies inside the set of points
    left of r1_max and below the knots' interpolant, and is that set when
    the knots are concave: over each pair of knots, the facet of that pair
    is the interpolant.
    """
    r1_max, x, y = boundary[0], np.asarray(boundary[1], float), np.asarray(boundary[2], float)
    a1 = np.concatenate([y[:-1] - y[1:], [0.0, 1.0]])
    a2 = np.concatenate([x[1:] - x[:-1], [1.0, 0.0]])
    b = np.concatenate([a1[:-2] * x[:-1] + a2[:-2] * (y[:-1] + lift),
                        [y[0] + lift, r1_max + lift]])
    return a1, a2, b


def _cone_terms(walk: _VertexWalk, n1: np.ndarray, n2: np.ndarray) -> list:
    """Each normal (n1, n2) >= 0 as lam_a d_a + lam_c d_c over the two
    slope-adjacent directions of a step of the walk, as its terms
    (k, lam_k) with k a constraint row and lam_k > 0; an axis has cap 0 and
    adds no term.  Of the steps, the one whose lesser multiplier is largest
    is taken, so that rounding at the edge of a cone drops at most a
    multiplier of a few ulps.
    """
    d, m = walk.dirs, len(walk.dirs) - 2
    _, a, c, det = walk.steps
    lam_a = (n1[:, None] * d[c, 1] - n2[:, None] * d[c, 0]) / det
    lam_c = (d[a, 0] * n2[:, None] - d[a, 1] * n1[:, None]) / det
    best = np.argmax(np.minimum(lam_a, lam_c), axis=1)
    rows = np.arange(best.size)
    pairs = zip(a[best].tolist(), lam_a[rows, best].tolist(),
                c[best].tolist(), lam_c[rows, best].tolist())
    return [[(k, lam) for k, lam in ((ka, la), (kc, lc)) if k < m and lam > 0.0]
            for ka, la, kc, lc in pairs]


def _chain_facets(walk: _VertexWalk, inner: tuple) -> list:
    """The facets n . v <= b of the inner chain's downward closure, each as
    (terms, limit): n as terms (k, lam_k) of walked rows (_cone_terms), and
    limit = b - 1e-9 * max(1, largest |knot|) * (n1 + n2)."""
    n1, n2, b = _closure_facets(inner)
    # a repeated knot gives no facet, nor does a pair whose R2 rises (by
    # rounding, in a Pareto chain): the interpolant there lies above the
    # last facet before it
    facet = (n1 >= 0.0) & (n1 + n2 > 0.0)
    limits = (b - _chain_margin(inner) * (n1 + n2))[facet].tolist()
    return list(zip(_cone_terms(walk, n1[facet], n2[facet]), limits))


def _chain_margin(inner: tuple) -> float:
    """The margin by which a point must clear an inner chain to count as
    strictly inside it: 1e-9 * max(1, largest |knot|)."""
    _, knot_r1, knot_r2 = inner
    return 1e-9 * max(1.0, float(np.abs(knot_r1).max()), float(np.abs(knot_r2).max()))


def strictly_inside(points: np.ndarray, inner: tuple) -> np.ndarray:
    """Which of the (n, 2) points lie strictly inside an inner chain, in
    the sense of prune_columns' test: v >= 0, and v + margin * (1, 1)
    left of r1_max and below the knots' interpolant (_chain_margin).

    The chain lies inside the region the points are for, so such a point
    lies strictly inside it: it is no hull vertex of the region, nor the
    farthest point beyond any chord of a quickhull, nor the largest R1 or
    R2, and the region is the same without it.  A point with a coordinate
    below zero is never inside, since it can be a hull vertex.  Cost: one
    pass over the points and a search of the knots for each.
    """
    r1_max, knot_r1, knot_r2 = inner
    margin = _chain_margin(inner)
    x = points[:, 0] + margin
    return ((x < r1_max) & (points[:, 1] + margin < np.interp(x, knot_r1, knot_r2))
            & np.all(points >= 0.0, axis=1))


def _pair_bounds(walk: _VertexWalk, caps: np.ndarray, rows: set) -> list:
    """An upper bound u[k] of the support value of each row k of caps, in
    every column: for a walked row in rows, a new array, the least of
    caps[k] and its LP-dual terms that pair two constraint rows; for any
    other row, caps[k] itself.  By weak duality any of the terms bounds it;
    the ones with an axis are left to the tightening."""
    u = list(caps)
    term, part = np.empty((2, caps.shape[1]))
    for k, dual in walk.duals:
        pairs = [t for t in dual if t[2] is not None]
        if k in rows and pairs:
            u[k] = _least_dual(caps, pairs, caps[k].copy(), term, part)
    return u


def _below(facets: list, u, n: int) -> np.ndarray:
    """Which of n polytopes lie inside every facet: sum of lam_k u[k] over
    its terms below its limit, u[k] an upper bound of the support value in
    row k of walk.dirs, such as _pair_bounds gives (prune_columns)."""
    inside, flag = np.ones((2, n), bool)
    bound, part = np.empty((2, n))
    for ((k, lam), *rest), limit in facets:  # a normal n >= 0 has a row term
        np.multiply(u[k], lam, out=bound)
        for k, lam in rest:
            bound += np.multiply(u[k], lam, out=part)
        inside &= np.less(bound, limit, out=flag)
    return inside


def chain_prune(coeffs: np.ndarray, inner: tuple) -> tuple:
    """The prune of polytopes of directions coeffs strictly inside an inner
    chain, made once per chain: (walk, facets, rows) for prune_columns.

    inner is an upper boundary (r1_max, knot_r1, knot_r2), knots by
    ascending R1 and descending R2, as Region.boundary gives it: the set of
    points (x, y) with x <= r1_max and y <= the knots' interpolant at x.  It
    must lie inside the downward-closed region the vertices are for, as it
    does when every knot is one of those vertices and r1_max the largest
    knot R1.

    The facets are those of the chain's downward closure
    (_closure_facets), all with normals n >= 0, whose intersection lies
    inside that set even when the knots are not concave.  Each n is
    lam_i d_i + lam_j d_j over two slope-adjacent directions of the walk
    (_chain_facets), so a polytope's support in n is at most
    lam_i u_i + lam_j u_j for any upper bounds u of its supports in d.
    """
    coeffs = np.asarray(coeffs, float)
    walk = _vertex_walk(coeffs.shape, coeffs.tobytes())
    facets = _chain_facets(walk, inner)
    return walk, facets, {k for terms, _ in facets for k, _ in terms}


def prune_columns(prune: tuple, rhs: np.ndarray):
    """The nonempty columns of rhs, as batch_vertices reads it, less those
    strictly inside prune's chain (chain_prune), and their caps (_folded).

    One test, on bounds of support values, runs before any polytope is
    tightened.  u is the raw caps, lowered by the LP-dual terms that pair
    two constraint rows (_pair_bounds); by weak duality each term bounds
    the support.  A polytope is left out when its caps are all finite and
    nonnegative and, on every facet n . v <= b, lam_i u_i + lam_j u_j lies
    below b - margin * (n1 + n2), margin = 1e-9 * max(1, largest |knot|).
    Then v + margin * (1, 1) is in the region for each of its points v, so
    none of them is a hull vertex of the region, or the farthest point
    beyond any chord of a quickhull.  One column minimum and maximum tell
    which columns are nonempty and which are tested.

    A test on exact support values would also leave out a
    polytope whose R1 or R2 cap is redundant, since only a dual term with
    an axis bounds those supports; such a polytope lies strictly inside
    too, so its vertices change no hull.  On the inner sweep's caps both
    tests keep the same polytopes.  Cost: a fixed number of array passes
    per dual term and per facet over the n columns, O(n (pairs + q)) for q
    knots.
    """
    walk, facets, rows = prune
    lo, hi = np.min(rhs, axis=0), np.max(rhs, axis=0)
    keep = lo >= -FEASIBILITY_TOL  # NaN compares False
    tested = np.flatnonzero((lo >= 0.0) & (hi < np.inf))
    # the bounds are freed before the kept caps are taken
    keep[tested] = ~_below(facets, _pair_bounds(walk, _folded(walk, rhs, tested), rows),
                           tested.size)
    kept = np.flatnonzero(keep)
    return kept, _folded(walk, rhs, kept)


def polytope_vertices(poly: RateRegionPolytope) -> np.ndarray:
    """All extreme points of a polytope, deduplicated and hull-ordered.

    Empty polytopes yield an empty array.
    """
    if not poly.bounds:
        raise ValueError("polytope must have at least one bound")
    coeffs = np.array([[b.c1, b.c2] for b in poly.bounds])
    rhs = np.array([[b.rhs] for b in poly.bounds])
    pts, _ = batch_vertices(coeffs, rhs)
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
    count as ties, which are always kept.  The survivors come out in
    lexicographic order.  Cost: one sort, O(n log n).
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
    """Non-dominated points, sorted by ascending R1 (so descending R2).

    Coordinates within the hull tolerance (HULL_EPS, scale-relative) of each
    other count as equal.  So of two points a few ulps apart in R1 on a
    vertical edge only the higher is kept, and a frontier sampled up to the
    largest R1 does not fall to the lower of the two at its last sample; of
    twins equal within it in both coordinates, and of repeated points, only
    the lexicographically largest is kept.
    """
    pts = np.asarray(points, float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return pts
    pts = _lex_order(pts)
    eps = _hull_eps(pts)
    x, y = pts[:, 0], pts[:, 1]
    no_worse = (x[None, :] >= x[:, None] - eps) & (y[None, :] >= y[:, None] - eps)
    better = (x[None, :] > x[:, None] + eps) | (y[None, :] > y[:, None] + eps)
    later = np.arange(x.size)[None, :] > np.arange(x.size)[:, None]  # lexicographically larger
    return pts[~np.any(no_worse & (better | later), axis=1)]


def _anchored(points) -> np.ndarray:
    """points, with the origin and the axis projections of their extremes."""
    pts = np.asarray(points, float).reshape(-1, 2)
    anchors = [[0.0, 0.0]]
    if pts.size:
        anchors += [[float(pts[:, 0].max()), 0.0], [0.0, float(pts[:, 1].max())]]
    return np.vstack([pts, anchors])


def regions_from_points(clouds: Iterable[np.ndarray],
                        frontier_samples: int = FRONTIER_SAMPLES) -> list[Region]:
    """A convex Region from each point cloud, their hulls built in one batch.

    The origin and the axis projections of the extreme coordinates are always
    included, so each result is downward closed even when its input points
    all lie off the axes.  The Pareto frontier of a convex downward-closed
    region is the chain of non-dominated hull vertices, so sampling it is
    exact piecewise-linear interpolation.
    """
    regions = []
    for hull in _convex_hulls([_anchored(pts) for pts in clouds]):
        chain = pareto_vertices(hull)
        grid = np.linspace(0.0, float(hull[:, 0].max()), frontier_samples)
        regions.append(Region(
            vertices=hull,
            frontier_r1=grid,
            frontier_r2=np.interp(grid, chain[:, 0], chain[:, 1]),
            convex=True,
        ))
    return regions


def region_from_points(points: np.ndarray, frontier_samples: int = FRONTIER_SAMPLES) -> Region:
    """regions_from_points of the one cloud points."""
    return regions_from_points([points], frontier_samples)[0]


def envelope_union(r1_grid: np.ndarray, values: np.ndarray, vertices: np.ndarray) -> Region:
    """Pointwise-maximum union of frontiers sampled on one R1 grid.

    values holds one frontier per row, shape (k, len(r1_grid)) with k >= 1.
    Missing coverage is expressed with -inf frontier values; the result is
    clipped at zero so the region always contains the origin.  Of the
    contributing polytopes' vertices, those lying on the envelope (within
    1e-7, scale-relative) are kept as the region's candidate extreme points,
    ordered by descending R1.
    """
    grid = np.asarray(r1_grid, float)
    values = np.asarray(values, float)
    if values.ndim != 2 or values.shape[0] == 0 or values.shape[1:] != grid.shape:
        raise ValueError(f"envelope_union needs one row of {grid.shape} values per "
                         f"frontier, got a {values.shape} matrix")
    env = np.maximum(values.max(axis=0), 0.0)

    pts = np.asarray(vertices, float).reshape(-1, 2)
    scale = max(1.0, float(env.max()), float(grid[-1]))
    on_env = pts[:, 1] >= np.interp(pts[:, 0], grid, env) - 1e-7 * scale
    verts = np.unique(np.round(pts[on_env], 12), axis=0)[::-1]
    return Region(vertices=verts, frontier_r1=grid, frontier_r2=env, convex=False)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def contains(r: Region, pt: Sequence[float], tol: float = FEASIBILITY_TOL) -> bool:
    """Whether pt lies in the region within tolerance.

    The region is downward closed, so pt is inside iff pt >= -tol,
    pt[0] <= r1_max + tol and pt[1] lies at most tol above the upper
    boundary at pt[0]: the hull's Pareto chain for a convex region, the
    sampled frontier for an envelope union.
    """
    r1_max, knot_r1, knot_r2 = r.boundary
    x, y = np.asarray(pt, float).reshape(2)
    return bool(x >= -tol and y >= -tol and x <= r1_max + tol
                and y <= np.interp(x, knot_r1, knot_r2) + tol)


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


def deflation_gap(inner: Region, outer: Region, tol: float = BISECTION_TOL) -> DeflationResult:
    """Smallest xi, on the bisection grid of tol, deflating every outer point
    into the inner region, which must be convex (ValueError otherwise).

    Candidates are the outer frontier samples plus the outer vertex set; exact
    vertices are included because a polytope corner can dominate all sampled
    frontier points by up to a grid step.  The bisection starts from
    [0, largest coordinate of a candidate with no negative coordinate], and
    deflate does the rest.
    """
    _check_downward_closed(outer, "outer")
    cand = np.vstack([
        np.column_stack([outer.frontier_r1, outer.frontier_r2]),
        outer.vertices.reshape(-1, 2),
    ])
    start = cand.max(initial=0.0, where=np.all(cand >= 0, axis=1, keepdims=True))
    return deflate(inner, cand, float(start), tol)


def _xi(inner: Region, points: np.ndarray) -> np.ndarray:
    """Per point q, max over the facets a . p <= b of the inner region's
    downward closure D of (a . q - b) / (a1 + a2); its maximum with 0 is the
    least xi that deflates q into D."""
    a1, a2, b = _closure_facets(inner.boundary, FEASIBILITY_TOL)
    return np.max((points[:, :1] * a1 + points[:, 1:] * a2 - b) / (a1 + a2), axis=1)


def deflate(inner: Region, candidates: np.ndarray, start: float,
            tol: float = BISECTION_TOL) -> DeflationResult:
    """Smallest xi, on the bisection grid of tol from [0, start], deflating
    every candidate (n, 2) outer point into the inner region, which must be
    convex (ValueError otherwise).

    Candidates with a negative coordinate are dropped; when none is left,
    the origin stands in.  D, the downward closure of the inner region, has
    one facet a . p <= b per edge (x_k, y_k) -> (x_k+1, y_k+1) of its Pareto
    chain, a = (y_k - y_k+1, x_k+1 - x_k), plus R1 <= r1_max and R2 <= the
    chain's first R2.  Each cap is relaxed by FEASIBILITY_TOL in R2 (in R1
    for the R1 facet), so that by the rule of contains the least xi putting
    a candidate q inside is max(0, max over facets of (a . q - b) / (a1 + a2)):
    one pass over candidates x facets (_xi).

    The largest xi is then quantised as a per-candidate bisection reports
    it: from [0, start], midpoints 0.5 * (lo + hi) until hi - lo <= tol.
    The gap is the final hi, and the witness the first candidate whose xi
    exceeds the final lo; when no candidate needs deflating, 0.0 and the
    first candidate.
    """
    if not inner.convex:
        raise ValueError("inner region must be convex (a hull, not an envelope union)")
    _check_downward_closed(inner, "inner")
    cand = candidates[np.all(candidates >= 0, axis=1)]
    if cand.shape[0] == 0:
        cand = np.zeros((1, 2))

    xi = _xi(inner, cand)
    top = float(xi.max())
    lo, hi = 0.0, start if top > 0.0 else 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if top <= mid:
            hi = mid
        else:
            lo = mid
    worst = int(np.argmax(xi > lo))
    return DeflationResult(gap=hi, witness=(float(cand[worst, 0]), float(cand[worst, 1])))
