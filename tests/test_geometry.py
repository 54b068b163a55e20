import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import one_slab_cloud, random_channels, whole_grid_caps
from gicnof import achievability, geometry
from gicnof.gap import regions
from gicnof.geometry import (
    FEASIBILITY_TOL,
    GridSpec,
    LinearBound,
    RateRegionPolytope,
    Region,
    batch_vertices,
    contains,
    convex_hull,
    deflation_gap,
    discard_strictly_dominated,
    envelope_union,
    pareto_vertices,
    polytope_vertices,
    region_from_points,
    vertices_outside,
)

FAMILIES = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]


def make_polytope(bounds):
    return RateRegionPolytope(tuple(LinearBound(c1, c2, rhs) for c1, c2, rhs in bounds))


def random_polytope(rng, n_extra=5, scale=3.0):
    """Random instance with guaranteed axis caps so the region is bounded."""
    bounds = [(1.0, 0.0, rng.uniform(0.3, scale)), (0.0, 1.0, rng.uniform(0.3, scale))]
    for _ in range(n_extra):
        c1, c2 = FAMILIES[rng.integers(0, len(FAMILIES))]
        bounds.append((c1, c2, rng.uniform(0.3, 2.0 * scale)))
    return make_polytope(bounds)


def grid_frontier(poly, n=2001):
    """Brute-force membership grid, reduced to its per-column frontier."""
    hi = max(b.rhs for b in poly.bounds) + 0.5
    xs = np.linspace(0.0, hi, n)
    ys = np.linspace(0.0, hi, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    feas = np.ones_like(X, dtype=bool)
    for b in poly.bounds:
        feas &= b.c1 * X + b.c2 * Y <= b.rhs + 1e-12
    frontier = np.full(n, -np.inf)
    any_col = feas.any(axis=1)
    frontier[any_col] = ys[feas.shape[1] - 1 - np.argmax(feas[any_col, ::-1], axis=1)]
    return xs, frontier, hi / (n - 1)


def vertex_frontier(verts):
    """Frontier implied by an enumerated vertex set (piecewise linear hull top)."""
    region = region_from_points(verts, frontier_samples=2001)
    return region


# ---------------------------------------------------------------------------
# vertex enumeration
# ---------------------------------------------------------------------------

def all_pairs_vertices(coeffs, rhs, tol=FEASIBILITY_TOL):
    """Reference enumeration: every feasible pairwise line intersection.

    The constraint system coeffs @ v <= rhs plus the two axes; in 2-D a
    feasible point where two independent constraints are tight is an
    extreme point, so the feasible intersections are the vertex set (with
    repeats where more than two lines meet).  Returns one (k, 2) array of
    points per column of rhs.
    """
    coeffs = np.vstack([np.asarray(coeffs, float), [[-1.0, 0.0], [0.0, -1.0]]])
    rhs = np.vstack([np.asarray(rhs, float), np.zeros((2, np.shape(rhs)[1]))])
    m = coeffs.shape[0]
    out = [[] for _ in range(rhs.shape[1])]
    for a in range(m):
        for b in range(a + 1, m):
            det = coeffs[a, 0] * coeffs[b, 1] - coeffs[a, 1] * coeffs[b, 0]
            if abs(det) <= 1e-12:
                continue
            with np.errstate(invalid="ignore"):
                x = (rhs[a] * coeffs[b, 1] - rhs[b] * coeffs[a, 1]) / det
                y = (coeffs[a, 0] * rhs[b] - coeffs[b, 0] * rhs[a]) / det
                lhs = coeffs[:, :1] * x + coeffs[:, 1:] * y
                feasible = np.all(lhs <= rhs + tol, axis=0) & np.isfinite(x) & np.isfinite(y)
            for n in np.flatnonzero(feasible):
                out[n].append((x[n], y[n]))
    return [np.array(v, float).reshape(-1, 2) for v in out]


def assert_same_vertex_sets(coeffs, rhs, atol=1e-9):
    """batch_vertices agrees with the all-pairs reference, column by column."""
    pts, idx = batch_vertices(coeffs, rhs)
    want = all_pairs_vertices(coeffs, rhs)
    for n, ref in enumerate(want):
        got = pts[idx == n]
        assert (len(got) > 0) == (len(ref) > 0), f"column {n}: emptiness differs"
        if len(ref) == 0:
            continue
        # same point sets up to repeats: the Hausdorff distance is ~0
        dist = np.abs(got[:, None, :] - ref[None, :, :]).max(axis=2)
        assert dist.min(axis=1).max() <= atol, f"column {n}: extra vertex"
        assert dist.min(axis=0).max() <= atol, f"column {n}: missed vertex"
        # and each vertex once: no two points closer than rounding noise
        apart = np.abs(got[:, None, :] - got[None, :, :]).max(axis=2) + np.eye(len(got))
        assert apart.min() > 1e-13, f"column {n}: repeated vertex"


class TestBatchVertices:
    def test_random_directions(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            angles = np.sort(rng.uniform(0.0, np.pi / 2, size=m))
            coeffs = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 3.0, (m, 1))
            rhs = rng.uniform(0.0, 4.0, size=(m, 50))
            assert_same_vertex_sets(coeffs, rhs)

    def test_family_directions(self):
        rng = np.random.default_rng(61)
        rhs = rng.uniform(0.0, 5.0, size=(len(FAMILIES), 400))
        assert_same_vertex_sets(np.array(FAMILIES), rhs)

    def test_repeated_and_parallel_directions(self):
        coeffs = np.array([[1.0, 1.0], [1.0, 0.0], [2.0, 2.0], [1.0, 0.0], [0.0, 3.0],
                           [2.0, 1.0], [0.5, 0.5], [4.0, 2.0]])
        rng = np.random.default_rng(67)
        rhs = rng.uniform(0.0, 5.0, size=(len(coeffs), 300))
        rhs[:, :3] = 1.0  # exact ties between parallel rows
        assert_same_vertex_sets(coeffs, rhs)

    def test_slightly_negative_caps(self):
        rng = np.random.default_rng(71)
        rhs = rng.uniform(0.0, 3.0, size=(len(FAMILIES), 200))
        rows = rng.integers(0, len(FAMILIES), size=200)
        rhs[rows, np.arange(200)] = -rng.uniform(0.0, FEASIBILITY_TOL, size=200)
        assert_same_vertex_sets(np.array(FAMILIES), rhs, atol=1e-8)

    def test_nan_and_empty_columns(self):
        coeffs = np.array(FAMILIES)
        rhs = np.full((5, 4), 2.0)
        rhs[2, 1] = np.nan
        rhs[0, 2] = -0.5
        rhs[:, 3] = np.nan
        pts, idx = batch_vertices(coeffs, rhs)
        assert set(idx.tolist()) == {0}
        assert all(len(v) == 0 for v in all_pairs_vertices(coeffs, rhs)[1:])
        assert batch_vertices(coeffs, np.zeros((5, 0)))[0].shape == (0, 2)

    def test_unbounded_and_infinite_caps(self):
        # only an R1 cap: the polytope is a strip, whose finite vertices remain
        pts, _ = batch_vertices(np.array([[1.0, 0.0]]), np.array([[1.5]]))
        assert {tuple(v) for v in pts} == {(0.0, 0.0), (1.5, 0.0)}
        # a +inf cap is no constraint
        rhs = np.array([[np.inf], [1.0], [1.5]])
        pts, _ = batch_vertices(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), rhs)
        assert {tuple(np.round(v, 12)) for v in pts} == {(0.0, 0.0), (1.5, 0.0), (0.5, 1.0),
                                                          (0.0, 1.0)}

    def test_swept_caps_of_random_channels(self):
        # the caps the inner sweep produces, with their exact ties and
        # redundant families
        for p in random_channels(6, 73):
            caps = achievability.sweep_family_caps(p, GridSpec(rho_points=9, mu_points=5))
            assert_same_vertex_sets(achievability.FAMILY_COEFFS, caps, atol=1e-9 * max(1.0, caps.max()))

    def test_a_column_has_the_same_vertices_alone_as_in_any_batch(self):
        # the unit square with a 1e-8 corner cut off, below the tolerance the
        # redundant caps of 1e6 next to it would set, yields the two ends of
        # the cut whatever the batch; so does every column of random batches
        coeffs = np.array(FAMILIES)
        square = np.array([[1.0], [1.0], [2.0 - 1e-8], [3.0], [3.0]])
        alone, _ = batch_vertices(coeffs, square)
        assert len(alone) == 5
        inner = region_from_points(np.array([[0.0, 0.5], [0.5, 0.0]])).boundary
        for other in ([1e6, 1e6, 0.1, 1e6, 1e6], [0.1, 0.1, 1e6, 1e6, 1e6]):
            rhs = np.column_stack([other, square])
            pts, idx = batch_vertices(coeffs, rhs)
            assert pts[idx == 1].tobytes() == alone.tobytes()
            pts, idx = vertices_outside(coeffs, rhs, inner)
            assert pts[idx == 1].tobytes() == alone.tobytes()
        rng = np.random.default_rng(103)
        parallel = np.array([[1.0, 1.0], [1.0, 0.0], [2.0, 2.0], [0.0, 3.0], [4.0, 2.0]])
        for coeffs in (np.array(FAMILIES), parallel):
            for _ in range(10):
                rhs = 10.0 ** rng.uniform(-4.0, 6.0, size=(1, 40)) * rng.uniform(0.2, 3.0, (5, 40))
                rhs[rng.integers(0, 5, 4), rng.integers(0, 40, 4)] = np.inf
                rhs[rng.integers(0, 5, 4), rng.integers(0, 40, 4)] = -0.5 * FEASIBILITY_TOL
                pts, idx = batch_vertices(coeffs, rhs)
                for n in range(rhs.shape[1]):
                    alone, _ = batch_vertices(coeffs, rhs[:, [n]])
                    assert pts[idx == n].tobytes() == alone.tobytes()

    def test_rejects_invalid_directions(self):
        for coeffs in ([[1.0, -0.5]], [[0.0, 0.0]], [[np.nan, 1.0]], np.ones((2, 3))):
            with pytest.raises(ValueError):
                batch_vertices(np.array(coeffs), np.ones((len(coeffs), 1)))
        with pytest.raises(ValueError):
            batch_vertices(np.array(FAMILIES), np.ones((4, 2)))


def reference_emit(walk, live, h, single):
    """_emit one step of the walk at a time, as the reference for its one
    expression over the table."""
    steps = list(zip(*(v.tolist() for v in walk.steps)))
    x, y = np.empty((2, len(steps), live.size))
    keep = ~single[[lead for lead, *_ in steps]]
    keep[0] = True
    far = ~np.isfinite(h)
    h = np.where(far, 0.0, h)
    for s, (_, a, b, det) in enumerate(steps):
        (a0, a1), (b0, b1) = walk.dirs[a], walk.dirs[b]
        x[s] = (h[a] * b1 - h[b] * a1) / det
        y[s] = (a0 * h[b] - b0 * h[a]) / det
        keep[s] &= ~(far[a] | far[b])
    return np.stack([x[keep], y[keep]], axis=1), np.broadcast_to(live, keep.shape)[keep]


# direction sets: the five families; the families with rows parallel to the
# sum and R2 rows, which fold into them; a lone R1 bound, whose row has no
# dual term; and R1 with the sum, whose R1 row has one
KERNEL_DIRECTIONS = (
    FAMILIES,
    FAMILIES + [(2.0, 2.0), (0.0, 3.0)],
    [(1.0, 0.0)],
    [(1.0, 0.0), (1.0, 1.0)],
)


@st.composite
def kernel_inputs(draw):
    """(coeffs, rhs): one of KERNEL_DIRECTIONS and caps for 1 to 30
    polytopes, each in [1e-3, 1e3] or one of a few exact values (signed
    zeros among them), so that dual terms tie with caps and each other, with
    a few caps replaced by +inf, NaN and values in [-FEASIBILITY_TOL, 0)."""
    coeffs = np.array(draw(st.sampled_from(KERNEL_DIRECTIONS)))
    m, n = len(coeffs), draw(st.integers(1, 30))
    ties = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    rhs = draw(arrays(float, (m, n), elements=st.one_of(st.floats(1e-3, 1e3), ties)))
    special = st.one_of(st.floats(-FEASIBILITY_TOL, 0.0, exclude_max=True),
                        st.just(np.inf), st.just(np.nan))
    for _ in range(draw(st.integers(0, 6))):
        rhs[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = draw(special)
    return coeffs, rhs


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kernel_inputs())
def test_the_vertex_kernel_matches_the_reference_walk(inputs):
    coeffs, rhs = inputs
    walk, live, caps = geometry._live_caps(coeffs, rhs.copy())
    want_pts, want_idx = reference_emit(walk, live, *geometry._tighten(walk, caps))
    pts, idx = batch_vertices(coeffs, rhs)
    assert pts.tobytes() == want_pts.tobytes() and idx.tobytes() == want_idx.tobytes()


def batch_columns(coeffs, rhs, cols):
    """The points of batch_vertices that belong to the columns cols."""
    pts, idx = batch_vertices(coeffs, rhs)
    keep = np.isin(idx, cols)
    return pts[keep], idx[keep]


def outside_and_tightened(coeffs, rhs, inner):
    """vertices_outside, and the caps, by column, of each call it makes to
    _tighten."""
    tightened, tighten = [], geometry._tighten

    def spy(walk, caps):
        tightened.append(caps.T.tolist())
        return tighten(walk, caps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_tighten", spy)
        pts, idx = vertices_outside(coeffs, rhs, inner)
    return pts, idx, tightened


class TestVerticesOutside:
    def test_keeps_the_batch_vertices_of_every_other_column(self):
        rng = np.random.default_rng(83)
        coeffs = np.array(FAMILIES)
        for _ in range(20):
            rhs = rng.uniform(0.0, 3.0, size=(5, 300))
            rhs[:, :20] *= rng.uniform(0.0, 1.0, size=(1, 20)) ** 3  # small polytopes
            rhs[rng.integers(0, 5, 10), rng.integers(0, 300, 10)] = np.inf
            rhs[rng.integers(0, 5, 10), rng.integers(0, 300, 10)] = -0.5 * FEASIBILITY_TOL
            all_pts, all_idx = batch_vertices(coeffs, rhs)
            finite = all_pts[np.isfinite(all_pts).all(axis=1)]
            inner = region_from_points(finite * rng.uniform(0.3, 1.0))  # inside the hull
            pts, idx = vertices_outside(coeffs, rhs, inner.boundary)
            kept = np.unique(idx)
            want, want_idx = batch_columns(coeffs, rhs, kept)
            assert pts.tobytes() == want.tobytes() and idx.tobytes() == want_idx.tobytes()
            # what is left out lies below the inner boundary, left of its largest R1
            dropped = ~np.isin(all_idx, kept)
            x, y = all_pts[dropped].T
            r1_max, knot_r1, knot_r2 = inner.boundary
            margin = 1e-9 * max(1.0, np.abs(inner.vertices).max())
            assert np.all(y < np.interp(x, knot_r1, knot_r2) - margin)
            assert np.all(x < r1_max - margin)
            # only columns with finite, nonnegative caps are left out
            gone = np.setdiff1d(np.unique(all_idx), kept)
            assert gone.size > 0
            assert np.all(np.isfinite(rhs[:, gone]) & (rhs[:, gone] >= 0))

    def test_polytopes_touching_the_inner_boundary_are_kept(self):
        # rectangles [0, a] x [0, b] whose corner (a, b) is the double nearest
        # the last edge of the inner boundary; interpolating the boundary
        # rounds to either side of b, and the margin keeps every one of them
        knots = np.array([[0.0, 1.7], [0.7, 1.5], [2.3, 0.0]])
        (x0, y0), (x1, y1) = knots[1:]
        slope = (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0))
        a = np.random.default_rng(89).uniform(x0, x1, 400)
        b = np.array([float(Fraction(y0) + slope * (Fraction(v) - Fraction(x0))) for v in a])
        assert np.any(b < np.interp(a, knots[:, 0], knots[:, 1]))
        rhs = np.vstack([a, b, np.full((3, a.size), 10.0)])
        inner = region_from_points(knots)
        assert np.array_equal(np.column_stack(inner.boundary[1:]), knots)
        _, idx = vertices_outside(np.array(FAMILIES), rhs, inner.boundary)
        assert np.array_equal(np.unique(idx), np.arange(a.size))

    def test_knots_tied_up_to_rounding(self):
        # the second knot is the first moved up and right by less than the
        # hull tolerance, as a chain given by hand can hold them (a Pareto
        # chain keeps only the second); the pair gives no facet, and the
        # polytopes under the top of the chain near the R2 axis are left
        # out.  The line through the pair would cut them.
        coeffs = np.array(FAMILIES)
        x0, y0 = 0.09604826, 2.89749254
        inner = (2.0, np.array([x0, x0 + 2e-14, 2.0]), np.array([y0, y0 + 1e-14, 0.0]))
        assert pareto_vertices(np.column_stack(inner[1:])).shape == (2, 2)
        a = np.linspace(0.001, 0.09, 50)
        rhs = np.vstack([a, np.full(a.size, 2.89), np.full((3, a.size), 10.0)])
        pts, idx = vertices_outside(coeffs, rhs, inner)
        assert idx.size == 0

    def test_reflex_knot(self):
        # the knot (1.0, 1.0) is reflex: the chain's facets cut the notch
        # under the chord of its neighbours out of the interpolated set
        rng = np.random.default_rng(101)
        coeffs = np.array(FAMILIES)
        inner = (3.0, np.array([0.0, 1.0, 2.0, 3.0]), np.array([2.0, 1.0, 0.9, 0.0]))
        rhs = rng.uniform(0.0, 2.5, size=(5, 2000))
        all_pts, all_idx = batch_vertices(coeffs, rhs)
        pts, idx = vertices_outside(coeffs, rhs, inner)
        kept = np.unique(idx)
        want, want_idx = batch_columns(coeffs, rhs, kept)
        assert pts.tobytes() == want.tobytes() and idx.tobytes() == want_idx.tobytes()
        x, y = all_pts[~np.isin(all_idx, kept)].T
        assert x.size > 0
        assert np.all(y < np.interp(x, inner[1], inner[2])) and np.all(x < inner[0])
        # some polytope below the interpolant is kept: it reaches into the notch
        below = [k for k in kept if np.all(all_pts[all_idx == k, 1]
                                           < np.interp(all_pts[all_idx == k, 0], *inner[1:]) - 1e-9)]
        assert below

    def test_one_knot_chain(self):
        # the chain is the box R1 <= 1.5, R2 <= 1.0: the knot is not at r1_max
        coeffs = np.array(FAMILIES)
        inner = (1.5, np.array([0.5]), np.array([1.0]))
        a = np.array([1.4, 1.5, 1.4, 0.2])
        b = np.array([0.9, 0.9, 1.0, 0.3])
        rhs = np.vstack([a, b, np.full((3, a.size), 10.0)])
        _, idx = vertices_outside(coeffs, rhs, inner)
        assert np.unique(idx).tolist() == [1, 2]

    def test_polytope_with_a_redundant_sum_cap(self):
        # the raw sum caps are far above R1 + R2, so only the dual term
        # pairing R1 and R2 bounds the sum; the square [0, 1]^2 lies inside
        # the chain and is left out before any tightening, and the square
        # [0, 1.5]^2, whose corner is a knot, is kept
        coeffs = np.array(FAMILIES)
        knots = np.array([[0.0, 2.0], [1.5, 1.5], [2.0, 0.0]])
        inner = region_from_points(knots).boundary
        rhs = np.array([[1.0, 1.0, 100.0, 100.0, 100.0], [1.5, 1.5, 100.0, 100.0, 100.0]]).T
        pts, idx, tightened = outside_and_tightened(coeffs, rhs, inner)
        assert tightened == [rhs[:, [1]].T.tolist()]
        assert set(idx.tolist()) == {1}
        assert {tuple(v) for v in pts} == {(0.0, 0.0), (1.5, 0.0), (1.5, 1.5), (0.0, 1.5)}

    def test_infinite_nan_and_slightly_negative_caps(self):
        # columns deep inside the chain but for one cap: +inf and [-tol, 0)
        # keep their polytopes, a NaN empties it; the others are left out
        coeffs = np.array(FAMILIES)
        inner = region_from_points(np.array([[0.0, 2.0], [2.0, 0.0]])).boundary
        rhs = np.full((5, 6), 0.5)
        rhs[4, 1] = np.inf
        rhs[0, 2] = np.nan
        rhs[1, 3] = -0.5 * FEASIBILITY_TOL
        rhs[:, 4] = np.inf
        rhs[2, 5] = np.inf  # the sum is still bounded by R1 + R2
        pts, idx = vertices_outside(coeffs, rhs, inner)
        assert np.unique(idx).tolist() == [1, 3, 4, 5]
        want, want_idx = batch_columns(coeffs, rhs, [1, 3, 4, 5])
        assert pts.tobytes() == want.tobytes() and idx.tobytes() == want_idx.tobytes()

    def test_caller_caps_are_left_unchanged(self):
        # every column is nonempty and finite and no row folds, so both
        # calls work on the caller's rhs itself, not on a copy; the sum row
        # has a dual term pairing R1 and R2, so the first pass bounds it
        rng = np.random.default_rng(97)
        coeffs = np.array(FAMILIES)
        rhs = rng.uniform(0.0, 3.0, size=(5, 400))
        before = rhs.copy()
        inner = region_from_points(np.array([[0.0, 0.6], [0.4, 0.4], [0.6, 0.0]])).boundary
        batch_vertices(coeffs, rhs)
        assert rhs.tobytes() == before.tobytes()
        _, idx = vertices_outside(coeffs, rhs, inner)
        assert rhs.tobytes() == before.tobytes()
        assert 0 < np.unique(idx).size < rhs.shape[1]

    def test_dual_bounds_drop_no_polytope_the_tightened_test_keeps(self):
        # on the inner sweep's caps, the test on dual bounds from the raw caps
        # leaves out a subset of what the test on exact support values leaves
        # out, and that a subset of what a test of the walk's corners below
        # the interpolant leaves out; vertices_outside's one test, on dual
        # bounds, walks exactly what the test on support values keeps
        coeffs = achievability.FAMILY_COEFFS
        cases = [(p, achievability.DEFAULT_GRID) for p in random_channels(200, 20260401)]
        cases += [(p, GridSpec(65, 33, 1024)) for p in random_channels(20, 20260405)]
        for p, grid in cases:
            grid_caps = whole_grid_caps(p, grid)[1]
            (coarse,) = achievability._coarse_clouds([(np.arange(grid_caps.shape[1]), grid_caps)],
                                                     [achievability.single_user_anchors(p)])
            chain = achievability._fan_chain(coarse)
            caps = grid_caps.reshape(5, -1)
            walk, live, c = geometry._live_caps(coeffs, caps)
            finite = np.all(np.isfinite(c) & (c >= 0.0), axis=0)
            facets = geometry._chain_facets(walk, chain)
            rows = {k for terms, _ in facets for k, _ in terms}
            dual = finite & geometry._below(facets, geometry._pair_bounds(walk, c, rows), live.size)
            h, single = geometry._tighten(walk, c)
            tight = finite & geometry._below(facets, h, live.size)
            pts, idx = geometry._emit(walk, live, h, single)
            r1_max, knot_r1, knot_r2 = chain
            margin = 1e-9 * max(1.0, np.abs(knot_r1).max(), np.abs(knot_r2).max())
            below = ((pts[:, 0] < r1_max - margin)
                     & (pts[:, 1] < np.interp(pts[:, 0], knot_r1, knot_r2) - margin))
            corner = finite.copy()
            corner[np.searchsorted(live, idx[~below])] = False
            assert not np.any(dual & ~tight) and not np.any(tight & ~corner), p
            assert np.array_equal(np.unique(vertices_outside(coeffs, caps, chain)[1]), live[~tight])

    def test_strictly_inside_a_chain(self):
        # knots (0, 2), (1, 1), (2, 0): a point counts as inside when it is
        # nonnegative and, moved by the margin 2e-9 in both coordinates, lies
        # left of R1 = 2 and below the interpolant, whose slope here is -1
        chain = (2.0, np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0]))
        pts = np.array([[0.5, 1.0], [1.0, 1.0], [1.0, 1.0 - 5e-9], [1.0, 1.0 - 3e-9],
                        [-1e-12, 0.5], [0.5, -1e-12], [0.0, 0.0], [2.0 - 5e-9, 0.0],
                        [2.0 - 3e-9, 0.0]])
        assert geometry.strictly_inside(pts, chain).tolist() == [
            True, False, True, False, False, False, True, True, False]


class TestPolytopeVertices:
    def test_unit_square(self):
        poly = make_polytope([(1, 0, 1.0), (0, 1, 1.0)])
        verts = polytope_vertices(poly)
        expect = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
        assert {tuple(v) for v in np.round(verts, 9)} == expect

    def test_clipped_triangle(self):
        poly = make_polytope([(1, 1, 2.0), (1, 0, 1.0)])
        verts = polytope_vertices(poly)
        expect = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 2.0)}
        assert {tuple(v) for v in np.round(verts, 9)} == expect

    def test_empty_polytope(self):
        poly = make_polytope([(1, 0, -0.5), (0, 1, 1.0)])
        assert polytope_vertices(poly).shape == (0, 2)

    def test_against_membership_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            poly = random_polytope(rng)
            verts = polytope_vertices(poly)
            xs, frontier, h = grid_frontier(poly, n=2001)
            region = vertex_frontier(verts)
            ours = np.where(xs <= region.r1_max + h, region.frontier_at(xs), -np.inf)
            mask = np.isfinite(frontier)
            # grid frontier within one cell of the enumerated hull, both ways
            assert np.all(np.abs(np.where(mask, ours, 0) - np.where(mask, frontier, 0)) <= 3 * h)
            assert abs(region.r1_max - xs[mask].max()) <= 2 * h


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def jarvis_march(points):
    """Gift-wrapping oracle: O(n*h) all-pairs orientation scan, CCW output."""
    pts = np.unique(np.asarray(points, float), axis=0)
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    start = min(range(len(pts)), key=lambda i: (pts[i, 0], pts[i, 1]))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % len(pts)
        for j in range(len(pts)):
            if j == cur:
                continue
            c = cross(pts[cur], pts[cand], pts[j])
            if c < -1e-12 or (abs(c) <= 1e-12
                              and np.linalg.norm(pts[j] - pts[cur])
                              > np.linalg.norm(pts[cand] - pts[cur])):
                cand = j
        if cand == start:
            break
        hull.append(cand)
    return pts[hull]


TWIN_X = 0.8977457824421494
TWIN_X2 = np.nextafter(np.nextafter(TWIN_X, 1.0), 1.0)  # two ulps to the right
TWIN_CLOUD = np.array([
    [0.0, 0.0], [TWIN_X2, 0.0], [TWIN_X2, 3.943100091165287], [TWIN_X, 3.943100091165289],
    [TWIN_X, 4.847496449144856], [0.881713, 4.865027], [0.0, 6.223186],
])


class TestConvexHull:
    def test_triangle_passthrough(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
        hull = convex_hull(pts)
        assert {tuple(v) for v in hull} == {tuple(v) for v in pts}

    def test_square_with_center(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert (0.5, 0.5) not in {tuple(v) for v in hull}

    def test_collinear_points_removed(self):
        pts = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2], [1, 2]], dtype=float)
        hull = convex_hull(pts)
        assert len(hull) == 4

    def test_degenerate_inputs(self):
        assert convex_hull(np.empty((0, 2))).shape == (0, 2)
        assert convex_hull([[1.0, 2.0]]).shape == (1, 2)
        seg = convex_hull([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert {tuple(v) for v in seg} == {(0.0, 0.0), (2.0, 2.0)}

    def test_against_gift_wrapping(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(1000, 2))
        ours = convex_hull(pts)
        oracle = jarvis_march(pts)
        assert len(ours) == len(oracle)
        # same cyclic CCW sequence, possibly different start
        shift = int(np.argmin([np.linalg.norm(v - ours[0]) for v in oracle]))
        assert np.allclose(np.roll(oracle, -shift, axis=0), ours, atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(29)
        pts = rng.uniform(size=(200, 2))
        hull = convex_hull(pts)
        assert np.allclose(convex_hull(hull), hull)

    def test_ulp_twins_keep_the_true_vertex(self):
        # a vertical edge whose points differ in R1 by two ulps: a sorted
        # sweep with an eps-collinear rule used to pop (x, 4.847...)
        hull = convex_hull(TWIN_CLOUD)
        assert (TWIN_X, 4.847496449144856) in {tuple(v) for v in hull}
        assert hull.tolist() == [[0.0, 0.0], [TWIN_X2, 0.0], [TWIN_X, 4.847496449144856],
                                 [0.0, 6.223186]]

    def test_independent_of_input_order(self):
        rng = np.random.default_rng(31)
        # the inner sweep's pruned cloud of this channel, in walk order, holds
        # two ulp twins of a vertex tied exactly in distance beyond an edge
        p = random_channels(200, 20260401)[117]
        caps = whole_grid_caps(p, achievability.DEFAULT_GRID)[1]
        anchors = achievability.single_user_anchors(p)
        chain = achievability._fan_chain(achievability._coarse_clouds(
            [(np.arange(caps.shape[1]), caps)], [anchors])[0])
        walked, _ = vertices_outside(achievability.FAMILY_COEFFS, caps.reshape(5, -1), chain)
        clouds = [TWIN_CLOUD, rng.normal(size=(300, 2)),
                  np.round(rng.uniform(size=(300, 2)), 2),  # many exact ties
                  geometry._anchored(np.vstack([walked, anchors]))]
        for pts in clouds:
            hull = convex_hull(pts)
            for _ in range(5):
                shuffled = np.vstack([pts, pts[:7]])[rng.permutation(len(pts) + 7)]
                assert np.array_equal(convex_hull(shuffled), hull)

    def test_mirror_image(self):
        # swapping the coordinates mirrors the hull: same vertex set
        rng = np.random.default_rng(37)
        for pts in (TWIN_CLOUD, rng.normal(size=(500, 2)), np.abs(rng.normal(size=(500, 2)))):
            mirrored = {tuple(v) for v in convex_hull(pts[:, ::-1])}
            assert mirrored == {tuple(v[::-1]) for v in convex_hull(pts)}


def _outside(pts, a, b):
    """Signed distance of pts beyond the directed line a -> b (positive on its right)."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    return (ey * (pts[:, 0] - a[0]) - ex * (pts[:, 1] - a[1])) / math.hypot(ex, ey)


def _chain_between(pts, a, b, eps):
    """Indices of the hull vertices right of a -> b, by recursive farthest points:
    only points more than eps beyond an edge are candidates for it, the
    farthest one (the lexicographically smallest of exact ties) becomes a
    vertex, and both new edges get every candidate."""
    found = []
    stack = [(a, b, np.arange(len(pts)))]
    while stack:
        a, b, idx = stack.pop()
        dist = _outside(pts[idx], pts[a], pts[b])
        beyond = dist > eps
        if not beyond.any():
            continue
        idx, dist = idx[beyond], dist[beyond]
        tied = idx[dist == dist.max()]
        f = int(tied[np.lexsort((pts[tied, 1], pts[tied, 0]))[0]])
        found.append(f)
        stack += [(a, f, idx), (f, b, idx)]
    return found


def recursive_convex_hull(points):
    """The quickhull with one edge per iteration, as the reference for
    _convex_hulls: the same seeds, tolerance and last pass."""
    pts = np.asarray(points if isinstance(points, np.ndarray) else list(points),
                     dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        return pts
    first, last = geometry._lex_extreme(pts, 1.0), geometry._lex_extreme(pts, -1.0)
    if np.array_equal(pts[first], pts[last]):
        return pts[[first]]
    eps = geometry._hull_eps(pts)
    lower = geometry._lex_order(pts[_chain_between(pts, first, last, eps)])
    upper = geometry._lex_order(pts[_chain_between(pts, last, first, eps)])[::-1]
    hull = geometry._drop_collinear(np.vstack([pts[[first]], lower, pts[[last]], upper]), eps)
    start = int(np.lexsort((hull[:, 1], hull[:, 0]))[0])
    return np.roll(hull, -start, axis=0) + 0.0


def reference_clouds():
    """3,000 seeded clouds: plain random, rounded to 0.1 (collinear runs and
    exact ties), with ulp-perturbed duplicates, and TWIN_CLOUD."""
    rng = np.random.default_rng(20260418)
    clouds = [TWIN_CLOUD]
    for k in range(2999):
        n = int(rng.integers(1, 400))
        kind = k % 4
        if kind == 0:
            pts = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3)
        elif kind == 1:
            pts = np.round(rng.uniform(0.0, 3.0, size=(n, 2)), 1)
        elif kind == 2:
            base = np.abs(rng.normal(size=(n, 2)))
            twins = base[rng.integers(0, n, size=n // 2 + 1)]
            ulps = rng.integers(-3, 4, size=twins.shape)
            pts = np.vstack([base, twins + ulps * np.spacing(twins)])
        else:
            # a staircase hugging a concave frontier, like the inner sweep's clouds
            x = np.sort(rng.uniform(0.0, 4.0, n))
            pts = np.column_stack([x, np.sqrt(16.0 - x ** 2) - rng.exponential(1e-3, n)])
            pts = np.vstack([pts, [[0.0, 0.0], [x.max(), 0.0], [0.0, pts[:, 1].max()]]])
        clouds.append(pts)
    return clouds


class TestBatchedHull:
    """_convex_hulls equals the recursive quickhull bit for bit, cloud by cloud."""

    def test_matches_the_recursive_reference(self):
        clouds = reference_clouds()
        want = [recursive_convex_hull(pts) for pts in clouds]
        for pts, ref in zip(clouds, want):
            got = convex_hull(pts)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        for start in range(0, len(clouds), 97):  # batches of mixed kinds and sizes
            batch = geometry._convex_hulls(clouds[start:start + 97])
            assert [h.tobytes() for h in batch] == [h.tobytes() for h in want[start:start + 97]]

    def test_matches_the_reference_on_inner_sweep_clouds(self):
        clouds = []
        for p in random_channels(20, 20260401):
            caps = whole_grid_caps(p, achievability.DEFAULT_GRID)[1]
            clouds.append(geometry._anchored(one_slab_cloud(p, caps)))
        for pts, got in zip(clouds, geometry._convex_hulls(clouds)):
            assert got.tobytes() == recursive_convex_hull(pts).tobytes()

    def test_mixed_batch_equals_one_cloud_calls(self):
        rng = np.random.default_rng(41)
        clouds = [
            np.empty((0, 2)),
            [[1.0, 2.0]],                                  # one point, as a list
            np.array([[0.5, 0.5]] * 4),                    # one point, repeated
            np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)]),  # all collinear
            rng.normal(size=(300, 2)),
            np.empty((0, 2)),
            TWIN_CLOUD,
            np.round(rng.uniform(size=(200, 2)), 1),
        ]
        batch = geometry._convex_hulls(clouds)
        assert len(batch) == len(clouds)
        for pts, got in zip(clouds, batch):
            want = convex_hull(pts)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.tobytes() == recursive_convex_hull(pts).tobytes()
        assert batch[0].shape == (0, 2) and batch[1].tolist() == [[1.0, 2.0]]
        assert batch[2].tolist() == [[0.5, 0.5]]
        assert batch[3].tolist() == [[0.0, 0.0], [5.0, 10.0]]
        assert geometry._convex_hulls([]) == []


class TestDominanceFilter:
    def test_keeps_all_hull_vertices(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = np.abs(rng.normal(size=(300, 2)))
            pts = np.vstack([pts, [[pts[:, 0].max(), 0.0], [0.0, pts[:, 1].max()]]])
            full = convex_hull(np.vstack([pts, [[0.0, 0.0]]]))
            filtered = convex_hull(np.vstack([discard_strictly_dominated(pts), [[0.0, 0.0]]]))
            assert np.allclose(full, filtered)

    def test_keeps_rounding_noise_ties(self):
        base = np.array([[2.0, 0.0], [2.0 - 1e-13, 0.0], [2.0, 1.0], [0.5, 2.0]])
        kept = discard_strictly_dominated(base)
        assert (np.abs(kept[:, 0] - 2.0) < 1e-9).sum() >= 2

    @staticmethod
    def quadratic_definition(pts):
        """Points no other point beats by more than the margin in both coordinates,
        in lexicographic order."""
        tol = 1e-9 * max(1.0, float(np.abs(pts).max()))
        beaten = ((pts[None, :, 0] > pts[:, None, 0] + tol)
                  & (pts[None, :, 1] > pts[:, None, 1] + tol)).any(axis=1)
        kept = pts[~beaten]
        return kept[np.lexsort((kept[:, 1], kept[:, 0]))]

    def test_matches_quadratic_definition(self):
        rng = np.random.default_rng(43)
        staircase = np.repeat(rng.uniform(0, 3, size=(40, 2)), 5, axis=0)  # exact repeats
        staircase[::3, 1] = np.round(staircase[::3, 1], 1)                 # tied R2 levels
        clouds = [
            np.abs(rng.normal(size=(2000, 2))),
            staircase,
            np.column_stack([rng.uniform(0, 1, 500), 1 - rng.uniform(0, 1, 500) ** 2]),
            # narrower in R1 than twice the margin, then a few margins wide
            np.column_stack([1.0 + rng.uniform(0, 1.5e-9, 300), rng.uniform(0, 1, 300)]),
            np.column_stack([1.0 + rng.uniform(0, 9e-9, 300), rng.uniform(0, 1e-8, 300)]),
            np.column_stack([np.full(50, 0.7), rng.uniform(0, 1, 50)]),
        ]
        for pts in clouds:
            got = discard_strictly_dominated(pts)
            assert np.array_equal(got, self.quadratic_definition(pts))

    def test_region_unchanged_by_the_prefilter(self):
        rng = np.random.default_rng(47)
        clouds = [TWIN_CLOUD, np.abs(rng.normal(size=(3000, 2)))]
        for p in random_channels(4, 79):
            caps = achievability.sweep_family_caps(p, GridSpec(rho_points=9, mu_points=5))
            clouds.append(np.vstack([batch_vertices(achievability.FAMILY_COEFFS, caps)[0],
                                     achievability.single_user_anchors(p)]))
        for pts in clouds:
            full = region_from_points(pts)
            cut = region_from_points(discard_strictly_dominated(pts))
            for field in ("vertices", "frontier_r1", "frontier_r2"):
                assert np.array_equal(getattr(full, field), getattr(cut, field))


class TestRegionFromPoints:
    def test_last_frontier_sample_takes_the_upper_twin(self):
        # R1 max belongs to the lower points, two ulps right of the true
        # vertex (x, 4.847...); the frontier must end at that vertex's height
        region = region_from_points(TWIN_CLOUD)
        assert region.r1_max == TWIN_X2
        assert region.frontier_r2[-1] == 4.847496449144856
        assert np.all(np.diff(region.frontier_r2) <= 0.0)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def segment_distance(pts, a, b):
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0) if denom > 0 else np.zeros(len(pts))
    proj = a + t[:, None] * ab
    return np.hypot(pts[:, 0] - proj[:, 0], pts[:, 1] - proj[:, 1])


def halfplane_signed_distance(hull, pts):
    """Least signed distance of pts to the edge lines of a CCW hull, positive inside."""
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    dx = pts[:, None, 0] - hull[None, :, 0]
    dy = pts[:, None, 1] - hull[None, :, 1]
    return ((edges[None, :, 0] * dy - edges[None, :, 1] * dx) / lengths[None, :]).min(axis=1)


def halfplane_points_in_region(r, pts, tol):
    """Reference membership for a convex region: distance to the hull.

    A single vertex is a point, two vertices a segment, and a polygon is
    tested against every edge's half-plane, a (points x edges) array.
    """
    pts = np.asarray(pts, float).reshape(-1, 2)
    hull = r.vertices
    if hull.shape[0] == 1:
        return np.hypot(pts[:, 0] - hull[0, 0], pts[:, 1] - hull[0, 1]) <= tol
    if hull.shape[0] == 2:
        return segment_distance(pts, hull[0], hull[1]) <= tol
    return halfplane_signed_distance(hull, pts) >= -tol


def chain_points_in_region(r, pts, tol):
    """The rule of contains for many points of a convex region: inside iff
    at most tol outside the quadrant, past r1_max or above the Pareto chain."""
    chain = pareto_vertices(r.vertices)
    inside = (pts >= -tol).all(axis=1) & (pts[:, 0] <= r.r1_max + tol)
    return inside & (pts[:, 1] <= np.interp(pts[:, 0], chain[:, 0], chain[:, 1]) + tol)


def bisection_deflation_gap(inner, outer, tol=1e-4, points_in_region=chain_points_in_region):
    """Reference deflation gap: the same candidates, each bisected for its
    least xi with the membership points_in_region; the gap is the largest
    final hi, the witness the first candidate that reaches it."""
    cand = np.vstack([np.column_stack([outer.frontier_r1, outer.frontier_r2]),
                      outer.vertices.reshape(-1, 2)])
    cand = cand[(cand[:, 0] >= 0) & (cand[:, 1] >= 0)]
    if cand.shape[0] == 0:
        cand = np.zeros((1, 2))
    lo = np.zeros(cand.shape[0])
    hi = np.full(cand.shape[0], max(float(cand.max()), 0.0))
    hi[points_in_region(inner, cand, FEASIBILITY_TOL)] = 0.0
    while True:
        active = hi - lo > tol
        if not np.any(active):
            break
        mid = 0.5 * (lo + hi)
        deflated = np.maximum(cand[active] - mid[active, None], 0.0)
        ok = points_in_region(inner, deflated, FEASIBILITY_TOL)
        idx = np.flatnonzero(active)
        hi[idx[ok]] = mid[idx[ok]]
        lo[idx[~ok]] = mid[idx[~ok]]
    worst = int(np.argmax(hi))
    return float(hi[worst]), (float(cand[worst, 0]), float(cand[worst, 1]))


def halfplane_deflation_gap(inner, outer, tol=1e-4):
    """The reference bisection over the half-plane membership."""
    return bisection_deflation_gap(inner, outer, tol, halfplane_points_in_region)


def convex_test_regions():
    rng = np.random.default_rng(101)
    out = [region_from_points(polytope_vertices(random_polytope(rng))) for _ in range(10)]
    out.append(region_from_points(TWIN_CLOUD))
    grid = GridSpec(rho_points=9, mu_points=5)
    return out + [achievability.achievable_region(p, grid) for p in random_channels(10, 103)]


class TestContains:
    def test_origin_always_inside(self):
        region = region_from_points(np.array([[1.0, 2.0], [2.0, 0.5]]))
        assert contains(region, (0.0, 0.0))

    def test_point_above_frontier(self):
        region = region_from_points(np.array([[1.0, 1.0]]))
        tol = 1e-6
        assert not contains(region, (0.5, 1.0 + 2 * tol), tol)
        assert contains(region, (0.5, 1.0 - 2 * tol), tol)

    def test_against_inequality_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            poly = random_polytope(rng)
            region = region_from_points(polytope_vertices(poly))
            pts = rng.uniform(-0.2, 4.0, size=(50, 2))
            for pt in pts:
                direct = poly.feasible(pt[0], pt[1], tol=0.0)
                # skip points hugging the boundary, where tolerances differ
                slack = min(b.rhs - (b.c1 * pt[0] + b.c2 * pt[1]) for b in poly.bounds)
                if abs(slack) < 1e-6 or abs(pt[0]) < 1e-6 or abs(pt[1]) < 1e-6:
                    continue
                assert contains(region, pt, 1e-9) == direct

    def test_matches_halfplane_reference_off_the_boundary(self):
        rng = np.random.default_rng(109)
        for region in convex_test_regions():
            top = region.vertices.max(axis=0)
            pts = rng.uniform(-0.1, 1.1, size=(300, 2)) * top
            clear = np.abs(halfplane_signed_distance(region.vertices, pts)) > 1e-6
            want = halfplane_points_in_region(region, pts[clear], 1e-9)
            got = [contains(region, pt, 1e-9) for pt in pts[clear]]
            assert got == want.tolist()
            assert want.any() and not want.all()

    def test_hull_vertices_and_edge_midpoints_inside(self):
        for region in convex_test_regions():
            hull = region.vertices
            mids = 0.5 * (hull + np.roll(hull, -1, axis=0))
            for pt in np.vstack([hull, mids]):
                assert contains(region, pt, 1e-9)

    def test_origin_only_region(self):
        region = region_from_points(np.zeros((0, 2)))
        cases = {(0.0, 0.0): True, (5e-10, 5e-10): True, (1e-6, 0.0): False,
                 (0.0, 1e-6): False, (-1e-6, 0.0): False, (1e-6, 1e-6): False}
        for pt, inside in cases.items():
            assert contains(region, pt) == inside
            assert halfplane_points_in_region(region, pt, FEASIBILITY_TOL)[0] == inside

    def test_boundary_built_once(self, monkeypatch):
        region = region_from_points(TWIN_CLOUD)
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return pareto_vertices(pts)

        monkeypatch.setattr(geometry, "pareto_vertices", counting)
        for t in np.linspace(0.0, 1.0, 100):
            contains(region, (t, t))
        assert len(calls) == 1

    def test_segments_along_the_axes(self):
        on = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.7, 1e-10)]
        off = [(1.0, 1e-6), (1.0, -1e-6), (2.0 + 1e-6, 0.0), (-1e-6, 0.0), (2.0, 1e-6)]
        for flip in (False, True):
            region = region_from_points(np.array([[0.0, 2.0] if flip else [2.0, 0.0]]))
            assert len(region.vertices) == 2
            for pts, inside in ((on, True), (off, False)):
                for pt in pts:
                    pt = pt[::-1] if flip else pt
                    assert contains(region, pt) == inside, (flip, pt)
                    assert halfplane_points_in_region(region, pt, FEASIBILITY_TOL)[0] == inside


# ---------------------------------------------------------------------------
# envelope union
# ---------------------------------------------------------------------------

class TestEnvelopeUnion:
    def test_single_frontier_identity(self):
        r1 = np.linspace(0.0, 2.0, 33)
        r2 = 2.0 - r1
        region = envelope_union(r1, r2[None, :], vertices=np.empty((0, 2)))
        assert np.allclose(region.frontier_r2, r2)

    def test_identical_frontiers(self):
        r1 = np.linspace(0.0, 2.0, 33)
        r2 = 2.0 - r1
        region = envelope_union(r1, np.vstack([r2, r2.copy()]), vertices=np.empty((0, 2)))
        assert np.allclose(region.frontier_r2, r2)

    def test_crossing_triangles(self):
        # frontiers 2 - r and 3 - 2r cross at r = 1 exactly
        r1 = np.linspace(0.0, 2.0, 257)
        a = 2.0 - r1
        b = np.maximum(3.0 - 2.0 * r1, -np.inf)
        values = np.vstack([a, np.where(r1 <= 1.5, b, -np.inf)])
        region = envelope_union(r1, values, vertices=np.empty((0, 2)))
        step = r1[1] - r1[0]
        expected = np.where(r1 <= 1.0, 3.0 - 2.0 * r1, 2.0 - r1)
        assert np.max(np.abs(region.frontier_r2 - np.maximum(expected, 0.0))) <= 2 * step

    def test_rejects_mismatched_grids(self):
        r1, no_vertices = np.linspace(0, 1, 10), np.empty((0, 2))
        with pytest.raises(ValueError):
            envelope_union(r1, np.ones((2, 11)), no_vertices)      # rows longer than the grid
        with pytest.raises(ValueError):
            envelope_union(r1, np.ones(10), no_vertices)           # a bare frontier, not a matrix
        with pytest.raises(ValueError):
            envelope_union(r1, np.ones((0, 10)), no_vertices)      # no frontier at all
        with pytest.raises(ValueError):
            envelope_union(np.ones((2, 5)), np.ones((2, 5)), no_vertices)  # grid not 1-D

    def test_envelope_dominates_inputs(self):
        rng = np.random.default_rng(41)
        r1 = np.linspace(0.0, 3.0, 129)
        values = np.array([np.maximum(rng.uniform(1, 3) - rng.uniform(0.5, 2) * r1, -np.inf)
                           for _ in range(5)])
        region = envelope_union(r1, values, vertices=np.empty((0, 2)))
        for r2 in values:
            assert np.all(region.frontier_r2 >= np.minimum(r2, region.frontier_r2.max()) - 1e-12)

    def test_preserves_downward_closure(self):
        rng = np.random.default_rng(43)
        r1 = np.linspace(0.0, 2.0, 65)
        values = np.array([rng.uniform(0.5, 2.5) - rng.uniform(0.2, 1.5) * r1 for _ in range(4)])
        region = envelope_union(r1, values, vertices=np.empty((0, 2)))
        assert np.all(np.diff(region.frontier_r2) <= 1e-12)


# ---------------------------------------------------------------------------
# deflation gap
# ---------------------------------------------------------------------------

def region_of(bounds, samples=512):
    return region_from_points(polytope_vertices(make_polytope(bounds)), samples)


def dense_gap_oracle(inner_bounds, outer, tol=1e-4):
    """Exhaustive 2001-point frontier search with direct-inequality membership."""
    poly = make_polytope(inner_bounds)
    r1 = np.linspace(0.0, outer.r1_max, 2001)
    cand = np.column_stack([r1, outer.frontier_at(r1)])
    cand = np.vstack([cand, outer.vertices.reshape(-1, 2)])
    worst = 0.0
    for t in cand:
        lo, hi = 0.0, max(outer.r1_max, outer.r2_max)
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            q = np.maximum(t - mid, 0.0)
            if poly.feasible(q[0], q[1]):
                hi = mid
            else:
                lo = mid
        worst = max(worst, hi)
    return worst


class TestDeflationGap:
    def test_identical_regions(self):
        region = region_of([(1, 0, 1.5), (0, 1, 1.0), (1, 1, 2.0)])
        assert deflation_gap(region, region).gap <= 1e-4

    def test_triangle_pair(self):
        inner = region_of([(1, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0)])
        outer = region_of([(1, 1, 2.0), (1, 0, 2.0), (0, 1, 2.0)])
        result = deflation_gap(inner, outer)
        # the axis corner (2, 0) dominates the midpoint's 0.5
        assert result.gap == pytest.approx(1.0, abs=2e-4)
        assert result.witness[0] == pytest.approx(2.0, abs=1e-6) or \
            result.witness[1] == pytest.approx(2.0, abs=1e-6)
        # to a fine grid: (2, 0) is inside once its R1 is within the membership slack of 1
        assert deflation_gap(inner, outer, tol=1e-12).gap == \
            pytest.approx(1.0 - FEASIBILITY_TOL, abs=1e-12)

    def test_against_dense_search(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            inner_bounds = [(1, 0, rng.uniform(0.3, 2)), (0, 1, rng.uniform(0.3, 2)),
                            (1, 1, rng.uniform(0.5, 3))]
            outer_bounds = [(1, 0, rng.uniform(0.5, 4)), (0, 1, rng.uniform(0.5, 4)),
                            (2, 1, rng.uniform(1, 6))]
            inner = region_of(inner_bounds)
            outer = region_of(outer_bounds, samples=512)
            got = deflation_gap(inner, outer).gap
            want = dense_gap_oracle(inner_bounds, outer)
            assert abs(got - want) <= 2e-4

    def test_monotone_predicate(self):
        # the deflated-membership predicate flips exactly once along xi
        inner = region_of([(1, 1, 1.2), (1, 0, 1.0), (0, 1, 1.0)])
        t = np.array([1.8, 0.7])
        xis = np.linspace(0.0, 2.0, 401)
        inside = [contains(inner, np.maximum(t - x, 0.0)) for x in xis]
        flips = sum(1 for a, b in zip(inside, inside[1:]) if a != b)
        assert flips == 1 and inside[-1]

    def test_witness_on_pareto_frontier(self):
        # searching the full outer area never beats the frontier+vertex search
        rng = np.random.default_rng(53)
        for _ in range(5):
            inner = region_of([(1, 0, rng.uniform(0.3, 1.5)), (0, 1, rng.uniform(0.3, 1.5)),
                               (1, 1, rng.uniform(0.5, 2.5))])
            outer_bounds = [(1, 0, rng.uniform(1, 3)), (0, 1, rng.uniform(1, 3)),
                            (1, 2, rng.uniform(2, 5))]
            outer = region_of(outer_bounds)
            frontier_gap = deflation_gap(inner, outer).gap
            poly = make_polytope(outer_bounds)
            xs = np.linspace(0, outer.r1_max, 101)
            ys = np.linspace(0, outer.r2_max, 101)
            area_worst = 0.0
            for x in xs:
                for y in ys:
                    if not poly.feasible(x, y):
                        continue
                    lo, hi = 0.0, max(outer.r1_max, outer.r2_max)
                    while hi - lo > 1e-3:
                        mid = 0.5 * (lo + hi)
                        if contains(inner, np.maximum(np.array([x, y]) - mid, 0.0)):
                            hi = mid
                        else:
                            lo = mid
                    area_worst = max(area_worst, hi)
            assert area_worst <= frontier_gap + 2e-3

    def test_matches_halfplane_reference_bit_for_bit(self):
        for p in random_channels(20, 20260401):
            inner, outer = regions(p)
            result = deflation_gap(inner, outer)
            assert (result.gap, result.witness) == halfplane_deflation_gap(inner, outer)

    def test_matches_bisection_reference_bit_for_bit(self):
        pairs = [regions(p) for p in random_channels(20, 20260401)]
        rng = np.random.default_rng(61)

        def draw(scale):
            poly = random_polytope(rng, int(rng.integers(0, 8)), scale)
            return region_from_points(polytope_vertices(poly), int(rng.integers(2, 701)))

        for i in range(200):
            scale = rng.uniform(0.8, 6.0)
            inner = draw(scale)
            pairs.append((inner, inner if i % 10 == 0 else draw(scale * rng.uniform(0.5, 2.0))))
        gaps = []
        for inner, outer in pairs:
            for tol in (1e-4, 1e-6):
                result = deflation_gap(inner, outer, tol)
                assert (result.gap, result.witness) == bisection_deflation_gap(inner, outer, tol)
                gaps.append(result.gap)
        assert 0.0 in gaps and max(gaps) > 0.5  # both the inside and the bisected path

    def test_rejects_envelope_inner_region(self):
        r1 = np.linspace(0.0, 1.0, 16)
        envelope = envelope_union(r1, (1.0 - r1)[None, :], vertices=np.empty((0, 2)))
        with pytest.raises(ValueError, match="convex"):
            deflation_gap(envelope, region_of([(1, 0, 2.0), (0, 1, 2.0)]))

    def test_rejects_non_downward_closed(self):
        r1 = np.linspace(0.0, 1.0, 16)
        bad = Region(vertices=np.array([[0.0, 0.0]]), frontier_r1=r1,
                     frontier_r2=r1.copy(), convex=False)
        good = region_of([(1, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(ValueError):
            deflation_gap(good, bad)
