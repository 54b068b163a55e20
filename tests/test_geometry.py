import numpy as np
import pytest

from gicnof.geometry import (
    LinearBound,
    RateRegionPolytope,
    Region,
    contains,
    convex_hull,
    deflation_gap,
    discard_strictly_dominated,
    envelope_union,
    polytope_vertices,
    region_from_points,
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
        assert poly.is_empty()

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


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# envelope union
# ---------------------------------------------------------------------------

class TestEnvelopeUnion:
    def test_single_frontier_identity(self):
        r1 = np.linspace(0.0, 2.0, 33)
        r2 = 2.0 - r1
        region = envelope_union(r1, r2[None, :])
        assert np.allclose(region.frontier_r2, r2)

    def test_identical_frontiers(self):
        r1 = np.linspace(0.0, 2.0, 33)
        r2 = 2.0 - r1
        region = envelope_union(r1, np.vstack([r2, r2.copy()]))
        assert np.allclose(region.frontier_r2, r2)

    def test_crossing_triangles(self):
        # frontiers 2 - r and 3 - 2r cross at r = 1 exactly
        r1 = np.linspace(0.0, 2.0, 257)
        a = 2.0 - r1
        b = np.maximum(3.0 - 2.0 * r1, -np.inf)
        region = envelope_union(r1, np.vstack([a, np.where(r1 <= 1.5, b, -np.inf)]))
        step = r1[1] - r1[0]
        expected = np.where(r1 <= 1.0, 3.0 - 2.0 * r1, 2.0 - r1)
        assert np.max(np.abs(region.frontier_r2 - np.maximum(expected, 0.0))) <= 2 * step

    def test_rejects_mismatched_grids(self):
        r1 = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            envelope_union(r1, np.ones((2, 11)))      # rows longer than the grid
        with pytest.raises(ValueError):
            envelope_union(r1, np.ones(10))           # a bare frontier, not a matrix
        with pytest.raises(ValueError):
            envelope_union(r1, np.ones((0, 10)))      # no frontier at all
        with pytest.raises(ValueError):
            envelope_union(np.ones((2, 5)), np.ones((2, 5)))  # grid not 1-D

    def test_envelope_dominates_inputs(self):
        rng = np.random.default_rng(41)
        r1 = np.linspace(0.0, 3.0, 129)
        values = np.array([np.maximum(rng.uniform(1, 3) - rng.uniform(0.5, 2) * r1, -np.inf)
                           for _ in range(5)])
        region = envelope_union(r1, values)
        for r2 in values:
            assert np.all(region.frontier_r2 >= np.minimum(r2, region.frontier_r2.max()) - 1e-12)

    def test_preserves_downward_closure(self):
        rng = np.random.default_rng(43)
        r1 = np.linspace(0.0, 2.0, 65)
        values = np.array([rng.uniform(0.5, 2.5) - rng.uniform(0.2, 1.5) * r1 for _ in range(4)])
        region = envelope_union(r1, values)
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

    def test_rejects_non_downward_closed(self):
        r1 = np.linspace(0.0, 1.0, 16)
        bad = Region(vertices=np.array([[0.0, 0.0]]), frontier_r1=r1,
                     frontier_r2=r1.copy(), convex=False)
        good = region_of([(1, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(ValueError):
            deflation_gap(good, bad)
