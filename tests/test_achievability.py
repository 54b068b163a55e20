import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import formula_oracle as oracle
from gicnof import (
    ChannelParameters,
    DegenerateChannelError,
    GapReport,
    GridSpec,
    SymmetricPoint,
    achievable_region,
    analytic_gap_bound,
    b_basic,
    exact_gap,
    polytope_vertices,
    rho_domain_sup,
    symmetric_params,
)
from gicnof import achievability as ach
from gicnof import converse, gap, geometry
from gicnof.geometry import (
    FEASIBILITY_TOL,
    LinearBound,
    RateRegionPolytope,
    batch_vertices,
    discard_strictly_dominated,
    pareto_vertices,
    region_from_points,
)
from conftest import (FAMILIES, as_oracle, channels_with_unit_inr, one_slab_cloud, random_channels,
                      report_hex, whole_grid_bound, whole_grid_caps)


def oracle_polytope(ch, rho, mu1, mu2):
    """The seventeen-bound polytope, built from the formula oracle."""
    rhs = oracle.inner_bound_rhs(ch, rho, mu1, mu2)
    return RateRegionPolytope(tuple(
        LinearBound(float(c1), float(c2), r)
        for (c1, c2), fam in zip(ach.FAMILY_COEFFS, FAMILIES) for r in rhs[fam]))


class TestBBasic:
    def test_zero_correlation(self):
        p = ChannelParameters(4.0, 1.0, 9.0, 1.0, 0.0, 0.0)
        b1, b2 = b_basic(p, 1, 0.0)
        assert (b1, b2) == (13.0, 8.0)

    def test_full_correlation(self):
        p = ChannelParameters(4.0, 1.0, 9.0, 1.0, 0.0, 0.0)
        b1, b2 = b_basic(p, 1, 1.0)
        assert (b1, b2) == (25.0, -1.0)

    def test_at_domain_sup(self):
        p = ChannelParameters(10.0, 10.0, 5.0, 5.0, 0.0, 0.0)
        b1, b2 = b_basic(p, 1, 0.8)
        assert b1 == pytest.approx(15.0 + 1.6 * np.sqrt(50.0), rel=1e-12)
        assert b2 == pytest.approx(0.0, abs=1e-12)


class TestCoefficients:
    def test_reference_values(self, p_star):
        assert ach.a1(p_star, 1) == pytest.approx(0.5, rel=1e-12)
        assert ach.a2(p_star, 1, 0.0) == pytest.approx(1.5, rel=1e-12)
        assert ach.a4(p_star, 1, 0.0, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert ach.a6(p_star, 1, 0.0, 0.5) == pytest.approx(1.0, rel=1e-12)
        assert ach.a3(p_star, 1, 0.0, 1.0) == pytest.approx(0.423089093263864, rel=1e-9)
        assert ach.a5(p_star, 1, 0.0, 0.5) == pytest.approx(0.792481250360578, rel=1e-9)
        assert ach.a7(p_star, 1, 0.0, 0.5, 0.5) == pytest.approx(1.160964047443681, rel=1e-9)

    def test_matches_oracle_on_unit_inr_channels(self):
        rng = np.random.default_rng(61)
        for p in channels_with_unit_inr(30, 67):
            ch = as_oracle(p)
            rho = rng.uniform(0.0, rho_domain_sup(p))
            mu1, mu2 = rng.uniform(size=2)
            for i in (1, 2):
                assert ach.a1(p, i) == pytest.approx(oracle.a1(ch, i), rel=1e-12)
                assert float(ach.a2(p, i, rho)) == pytest.approx(oracle.a2(ch, i, rho), rel=1e-12)
                assert float(ach.a3(p, i, rho, mu1)) == pytest.approx(
                    oracle.a3(ch, i, rho, mu1), rel=1e-9, abs=1e-12)
                assert float(ach.a4(p, i, rho, mu2)) == pytest.approx(
                    oracle.a4(ch, i, rho, mu2), rel=1e-12)
                assert float(ach.a5(p, i, rho, mu1)) == pytest.approx(
                    oracle.a5(ch, i, rho, mu1), rel=1e-12)
                assert float(ach.a6(p, i, rho, mu2)) == pytest.approx(
                    oracle.a6(ch, i, rho, mu2), rel=1e-12)
                assert float(ach.a7(p, i, rho, mu1, mu2)) == pytest.approx(
                    oracle.a7(ch, i, rho, mu1, mu2), rel=1e-12)

    def test_feedback_term_zero_at_zero_split(self):
        for p in random_channels(20, 71):
            for rho in np.linspace(0.0, rho_domain_sup(p), 5):
                assert float(ach.a3(p, 1, rho, 0.0)) == 0.0
                assert float(ach.a3(p, 2, rho, 0.0)) == 0.0

    def test_feedback_term_monotone_in_feedback_snr(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            snr, inr = 10.0 ** rng.uniform(0, 4, size=2)
            fbs = np.sort(10.0 ** rng.uniform(-1, 5, size=6))
            mu = rng.uniform(0.1, 1.0)
            vals = [float(ach.a3(ChannelParameters(snr, snr, inr, inr, fb, fb), 1, 0.0, mu))
                    for fb in fbs]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_monotonicity_in_correlation(self):
        # a2 nondecreasing, a4 nonincreasing along the admissible interval
        for p in random_channels(100, 79):
            rhos = np.linspace(0.0, rho_domain_sup(p), 50)
            a2 = np.asarray(ach.a2(p, 1, rhos))
            a4 = np.asarray(ach.a4(p, 1, rhos, 0.3))
            assert np.all(np.diff(a2) >= -1e-12)
            assert np.all(np.diff(a4) <= 1e-12)

    def test_residual_power_nonneg_on_domain(self):
        # b2 >= 0 on [0, rho_sup] whenever both INRs are at least 1
        for p in channels_with_unit_inr(100, 83):
            rhos = np.linspace(0.0, rho_domain_sup(p), 20)
            _, b2 = b_basic(p, 1, rhos)
            assert np.all(b2 >= -1e-12 * max(1.0, p.inr_12))

    def test_nonneg_on_nominal_domain(self):
        for p in channels_with_unit_inr(50, 89):
            rho = rho_domain_sup(p) * 0.7
            for i in (1, 2):
                assert float(ach.a4(p, i, rho, 0.4)) >= -1e-12
                assert float(ach.a5(p, i, rho, 0.4)) >= -1e-12
                assert float(ach.a6(p, i, rho, 0.4)) >= -1e-12
                assert float(ach.a7(p, i, rho, 0.4, 0.6)) >= -1e-12

    def test_family_caps_split_pairing(self):
        # asymmetric channel with mu1 != mu2: a3/a4/a5 of user i must take the
        # other user's split, a6 its own, so swapping the splits is visible
        p = ChannelParameters(10.0, 20.0, 5.0, 8.0, 10.0, 3.0)
        ch = as_oracle(p)
        want = oracle.inner_bound_rhs(ch, 0.1, 0.25, 0.75)
        got = ach._bound_rhs_arrays(p, 0.1, 0.25, 0.75)
        for fam, members in zip(FAMILIES, got, strict=True):
            assert [float(v) for v in members] == pytest.approx(want[fam], rel=1e-12)
        caps = ach.family_caps(p, 0.1, 0.25, 0.75)
        assert caps.shape == (5,)
        assert caps == pytest.approx([min(want[fam]) for fam in FAMILIES], rel=1e-12)
        swapped = oracle.inner_bound_rhs(ch, 0.1, 0.75, 0.25)
        assert any(abs(min(swapped[fam]) - c) > 1e-3 for fam, c in zip(FAMILIES, caps))

    def test_degenerate_inr_rejected(self):
        p = ChannelParameters(10.0, 10.0, 0.0, 5.0, 1.0, 1.0)
        with pytest.raises(DegenerateChannelError):
            ach.a1(p, 1)

    def test_family_caps_evaluates_each_shared_term_once(self, p_star):
        # b1_i(rho) and b2_i from one b_basic call per user, b1_i(1) from one
        # more, and the inner guard once, for all seventeen bounds
        rho, mu1, mu2 = ach._parameter_grids(p_star, ach.DEFAULT_GRID)
        with mock.patch.object(ach, "b_basic", wraps=ach.b_basic) as b_basic, \
                mock.patch.object(ach, "_require_defined", wraps=ach._require_defined) as guard:
            ach.family_caps(p_star, rho, mu1, mu2)
        assert (b_basic.call_count, guard.call_count) == (4, 1)


class TestRhoDomain:
    def test_symmetric(self):
        p = ChannelParameters(1, 1, 5, 5, 0, 0)
        assert rho_domain_sup(p) == pytest.approx(0.8)

    def test_clamped_at_zero(self):
        p = ChannelParameters(1, 1, 0.5, 5, 0, 0)
        assert rho_domain_sup(p) == 0.0

    def test_asymmetric(self):
        p = ChannelParameters(1, 1, 4, 2, 0, 0)
        assert rho_domain_sup(p) == pytest.approx(0.5)

    def test_zero_inr_rejected(self):
        with pytest.raises(DegenerateChannelError):
            rho_domain_sup(ChannelParameters(1, 1, 0, 2, 0, 0))


class TestAchievablePolytope:
    def test_reference_bounds_at_zero_split(self, p_star):
        r1 = ach._bound_rhs_arrays(p_star, 0.0, 0.0, 0.0)[0]
        r1_caps = sorted(round(float(r), 6) for r in r1)
        # a2 = 1.5; the other two caps coincide since a3 vanishes at mu = 0
        assert 1.5 in r1_caps
        assert r1_caps[0] == r1_caps[1] == pytest.approx(1.292481, abs=1e-6)
        assert ach.family_caps(p_star, 0.0, 0.0, 0.0)[0] == pytest.approx(1.292481, abs=1e-6)

    def test_negative_cap_empties_polytope(self):
        p = ChannelParameters(0.1, 0.1, 0.2, 0.2, 0.0, 0.0)  # snr + inr < 1
        caps = ach.family_caps(p, 0.0, 0.0, 0.0)
        poly = RateRegionPolytope(tuple(
            LinearBound(float(c1), float(c2), float(r))
            for (c1, c2), r in zip(ach.FAMILY_COEFFS, caps)))
        assert polytope_vertices(poly).shape == (0, 2)
        pts, _ = batch_vertices(ach.FAMILY_COEFFS, caps[:, None])
        assert pts.shape == (0, 2)

    def test_seventeen_bounds_match_oracle(self, p_star):
        for p in [p_star] + channels_with_unit_inr(10, 97):
            groups = ach._bound_rhs_arrays(p, 0.0, 0.5, 0.5)
            got = [float(r) for members in groups for r in members]
            assert len(got) == 17
            want = oracle.inner_bound_rhs(as_oracle(p), 0.0, 0.5, 0.5)
            flat = [r for fam in FAMILIES for r in want[fam]]
            assert np.allclose(got, flat, rtol=1e-9)
            caps = ach.family_caps(p, 0.0, 0.5, 0.5)
            assert np.allclose(caps, [min(want[fam]) for fam in FAMILIES], rtol=1e-9)

    def test_family_caps_broadcast_matches_pointwise(self, p_star):
        grid = GridSpec(rho_points=3, mu_points=4)
        rho, mu1, mu2 = ach._parameter_grids(p_star, grid)
        caps = ach.family_caps(p_star, rho, mu1, mu2)
        assert caps.shape == (5, 3, 4, 4)
        for ir, i1, i2 in np.ndindex(3, 4, 4):
            point = ach.family_caps(p_star, rho[ir, 0, 0], mu1[0, i1, 0], mu2[0, 0, i2])
            assert caps[:, ir, i1, i2] == pytest.approx(point, rel=1e-14)
        assert np.array_equal(ach.sweep_family_caps(p_star, grid), caps.reshape(5, -1))


class TestAchievableRegion:
    def test_rho_grid_collapses_at_unit_inr(self):
        p = ChannelParameters(10.0, 10.0, 1.0, 1.0, 5.0, 5.0)
        assert rho_domain_sup(p) == 0.0
        region = achievable_region(p, GridSpec(rho_points=33, mu_points=5))
        assert region.r1_max > 0

    def test_feedback_grows_the_region(self):
        base = ChannelParameters(50.0, 50.0, 10.0, 10.0, 0.0, 0.0)
        strong = ChannelParameters(50.0, 50.0, 10.0, 10.0, 1e4, 1e4)
        grid = GridSpec(rho_points=17, mu_points=9)
        r_none = achievable_region(base, grid)
        r_full = achievable_region(strong, grid)
        xs = np.linspace(0, r_none.r1_max, 200)
        assert np.all(r_full.frontier_at(xs) >= r_none.frontier_at(xs) - 1e-9)
        assert r_full.frontier_at(np.array([0.6 * r_none.r1_max]))[0] > \
            r_none.frontier_at(np.array([0.6 * r_none.r1_max]))[0] + 0.05

    def test_reference_region_regression(self, p_star):
        region = achievable_region(p_star, GridSpec(rho_points=17, mu_points=9))
        expected = np.array([
            [0.0, 0.0],
            [1.729715809318711, 0.0],
            [1.0, 1.0],
            [0.0, 1.729715809318711],
        ])
        assert np.allclose(region.vertices, expected, atol=1e-9)

    def test_downward_closed(self):
        rng = np.random.default_rng(101)
        for p in random_channels(10, 103):
            region = achievable_region(p, GridSpec(rho_points=9, mu_points=5))
            assert np.all(np.diff(region.frontier_r2) <= 1e-9)
            for v in region.vertices:
                q = v * rng.uniform(0.0, 1.0, size=2)
                from gicnof import contains
                assert contains(region, q, 1e-9)

    def test_grid_refinement_grows_region(self):
        # strong-interference channel where the swept polytopes dominate the
        # single-user anchors, so the grid actually matters
        p = ChannelParameters(100.0, 100.0, 1000.0, 1000.0, 100.0, 100.0)
        coarse = achievable_region(p, GridSpec(rho_points=5, mu_points=3))
        fine = achievable_region(p, GridSpec(rho_points=9, mu_points=5))  # 2n - 1: superset
        xs = np.linspace(0, coarse.r1_max, 300)
        assert np.all(fine.frontier_at(xs) >= coarse.frontier_at(xs) - 1e-9)
        assert fine.r1_max >= coarse.r1_max - 1e-12

    def test_frontier_reaches_the_top_of_the_last_edge(self):
        # the largest R1 belongs to a point two ulps right of a vertex 0.9
        # bits higher; the frontier's last sample must not drop to the lower
        p = ChannelParameters(0.4769523552084404, 5580.244681470092, 949696.4448815222,
                              8.067220957642936, 235.3395271332977, 6137.299851511473)
        region = achievable_region(p)
        caps = ach.sweep_family_caps(p, ach.DEFAULT_GRID)
        pts = np.vstack([batch_vertices(ach.FAMILY_COEFFS, caps)[0], ach.single_user_anchors(p)])
        top = pts[pts[:, 0] >= region.r1_max - 1e-12, 1].max()
        assert region.frontier_r2[-1] == top
        assert top > 4.84

    def test_sweep_matches_generic_vertex_enumeration(self, p_star):
        # the vectorized sweep agrees with the generic single-polytope path
        # run on the oracle's seventeen bounds
        grid = GridSpec(rho_points=3, mu_points=3)
        rho, mu1, mu2 = ach._parameter_grids(p_star, grid)
        caps = ach.sweep_family_caps(p_star, grid)
        pts, idx = batch_vertices(ach.FAMILY_COEFFS, caps)
        k = 0
        for ir, r in enumerate(rho[:, 0, 0]):
            for i1, m1 in enumerate(mu1[0, :, 0]):
                for i2, m2 in enumerate(mu2[0, 0, :]):
                    poly = oracle_polytope(oracle.P_STAR, float(r), float(m1), float(m2))
                    want = polytope_vertices(poly)
                    got = np.unique(np.round(pts[idx == k], 9), axis=0)
                    assert len(got) == len(want)
                    assert np.allclose(np.sort(got, axis=0), np.sort(np.round(want, 9), axis=0), atol=1e-8)
                    k += 1


def unpruned_region_from_caps(p, caps, frontier_samples):
    """The inner region of caps before the prune, as the reference: every
    polytope of the flattened caps (5, n) is walked, prefiltered and hulled."""
    pts, _ = batch_vertices(ach.FAMILY_COEFFS, caps)
    pts = pts if pts.size else np.zeros((0, 2))
    pts = np.vstack([pts, ach.single_user_anchors(p)])
    pts = discard_strictly_dominated(pts)  # safe hull prefilter
    return region_from_points(pts, frontier_samples)


def assert_matches_unpruned(p, grid, caps=None):
    """vertices and frontier of the hull of the one-slab cloud equal the
    reference bit for bit."""
    if caps is None:
        caps = whole_grid_caps(p, grid)[1]
    got = region_from_points(one_slab_cloud(p, caps), grid.frontier_samples)
    want = unpruned_region_from_caps(p, caps.reshape(5, -1), grid.frontier_samples)
    for name in ("vertices", "frontier_r1", "frontier_r2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, p)


def probe_sweep(p, grid):
    """The region of p at grid, the number of polytopes its sweep walks, and
    the number of points its hull is given.

    The walk runs once for the coarse chain, and then once per slab of rho
    for the polytopes the prune keeps; their sum is the count returned.
    """
    walked, cloud_sizes = [], []
    emit, run_inner_clouds = geometry._emit, ach.run_inner_clouds

    def emit_spy(walk, live, h, single):
        walked.append(live.size)
        return emit(walk, live, h, single)

    def run_spy(ps, slabs):
        out = run_inner_clouds(ps, slabs)
        cloud_sizes.extend(map(len, out))
        return out

    with mock.patch.object(geometry, "_emit", emit_spy), \
            mock.patch.object(ach, "run_inner_clouds", run_spy):
        region = achievable_region(p, grid)
    assert len(walked) >= 2 and len(cloud_sizes) == 1
    return region, sum(walked[1:]), cloud_sizes[0]


DOUBLED = GridSpec(65, 33, 1024)


class TestPrunedSweep:
    """The prune leaves the region bit for bit as the unpruned sweep gives it."""

    def test_matches_unpruned_on_random_channels(self):
        for p in random_channels(200, 20260401):
            assert_matches_unpruned(p, ach.DEFAULT_GRID)

    def test_matches_unpruned_at_doubled_grids(self):
        for p in random_channels(20, 20260405):
            assert_matches_unpruned(p, DOUBLED)

    @pytest.mark.parametrize("grid", [
        GridSpec(2, 2),           # every index is a coarse one
        GridSpec(7, 5),           # smaller than the stride: the two ends only
        GridSpec(9, 10),          # the last index just past a stride
        ach.DEFAULT_GRID,
    ])
    def test_matches_unpruned_on_edge_grids(self, grid, p_star):
        for p in [p_star] + random_channels(10, 20260406):
            assert_matches_unpruned(p, grid)

    def test_matches_unpruned_on_a_collapsed_rho_grid(self):
        p = ChannelParameters(10.0, 20.0, 0.5, 5.0, 3.0, 3.0)  # sub-unity INR
        assert rho_domain_sup(p) == 0.0
        for grid in (ach.DEFAULT_GRID, DOUBLED, GridSpec(2, 2)):
            assert_matches_unpruned(p, grid)

    def test_nothing_pruned_when_every_polytope_shares_a_boundary_vertex(self):
        # one rho point and 33 x 33 splits: each of the 1,089 polytopes has a
        # corner on the boundary of the region, so none is strictly inside
        p = random_channels(6, 20260401)[0]
        region, walked, _ = probe_sweep(p, DOUBLED)
        assert walked == 1089
        assert_matches_unpruned(p, DOUBLED)

    def test_column_with_caps_just_below_zero_is_kept(self, p_star):
        # a cap in [-FEASIBILITY_TOL, 0) leaves the polytope in the sweep with
        # a vertex left of the R2 axis, just under the top of the region, and
        # that vertex is a hull vertex; all its corners lie more than the
        # margin inside the region, so only the sign test keeps it
        grid = GridSpec(9, 5)
        caps = whole_grid_caps(p_star, grid)[1]
        caps[:, 4, 2, 2] = [-0.5 * FEASIBILITY_TOL, 1.7, 1.7, 1.7, 3.4]
        region = region_from_points(one_slab_cloud(p_star, caps), grid.frontier_samples)
        assert region.vertices[:, 0].min() == -0.5 * FEASIBILITY_TOL
        assert_matches_unpruned(p_star, grid, caps)

    def test_most_polytopes_never_reach_the_walk(self, p_star):
        _, walked, _ = probe_sweep(p_star, ach.DEFAULT_GRID)
        assert walked < 0.1 * 33 * 17 * 17

    def test_flat_staircase_regression(self):
        # at doubled grids this channel's unpruned sweep keeps 48,063
        # prefilter survivors, a flat stretch of the staircase the margin of
        # the prefilter cannot cut; the prune leaves a few dozen polytopes,
        # and their vertices reach the hull unfiltered
        p = random_channels(6, 20260401)[2]
        _, walked, cloud_size = probe_sweep(p, DOUBLED)
        assert walked <= 0.01 * 65 * 33 * 33
        assert cloud_size <= 300
        assert_matches_unpruned(p, DOUBLED)

    def test_narrow_normal_cone_vertex_is_a_knot(self):
        # the coarse vertex (3.879, 5.523) of this channel is extreme only
        # between 44.1 and 45.0 degrees, between two directions of the fan;
        # without it in the chain 8,961 of the 9,537 polytopes were walked
        p = ChannelParameters(305293.56377904624, 7041.285293155534, 1779.0518652043907,
                              1.0098217175632533, 628.2254775094234, 22901.21436540122)
        _, walked, _ = probe_sweep(p, ach.DEFAULT_GRID)
        assert walked <= 4369
        assert_matches_unpruned(p, ach.DEFAULT_GRID)


EDGE_CHANNELS = (
    random_channels(40, 20261018, db_range=(-10.0, 80.0))
    + [ChannelParameters(100.0, 30.0, 1e-9, 4.0, 50.0, 10.0),      # one INR of 1e-9
       ChannelParameters(1e8, 1e8, 1e-9, 1e-9, 1e8, 1e8),          # both, at 80 dB
       ChannelParameters(0.5, 0.2, 3.0, 0.1, 2.0, 0.7),            # sub-unity SNRs
       ChannelParameters(0.1, 0.9, 0.3, 0.2, 0.05, 100.0),
       ChannelParameters(0.3, 0.3, 20.0, 20.0, 1e4, 1e4)]
)


class TestPrunedSweepOnEdgeInputs:
    """The prune on log-uniform channels up to 80 dB, tiny INRs and sub-unity SNRs."""

    @pytest.mark.parametrize("grid", [ach.DEFAULT_GRID, DOUBLED, GridSpec(5, 3)])
    def test_matches_unpruned(self, grid):
        for p in EDGE_CHANNELS:
            assert_matches_unpruned(p, grid)


def whole_grid_gap(p, grid, converse_grid):
    """achievable_region and exact_gap's report as the whole grid's caps give
    them: whole_grid_caps, the cloud of those caps as one slab, and
    whole_grid_bound.  The report is None where the converse raises."""
    rho, caps = whole_grid_caps(p, grid)
    inner = region_from_points(one_slab_cloud(p, caps), grid.frontier_samples)
    try:
        outer, outer_caps = converse._region_and_caps(p, converse_grid, rho)
    except DegenerateChannelError:
        return inner, None
    result = geometry.deflation_gap(inner, outer)
    bound, components = whole_grid_bound(outer_caps, caps)
    return inner, GapReport(result.gap, bound, result.witness, components)


COLLAPSED = ChannelParameters(10.0, 20.0, 0.5, 5.0, 3.0, 3.0)  # sub-unity INR: one rho


def criterion_8_channels():
    """Acceptance criterion 8's twenty channels, drawn as that test draws them."""
    return random_channels(17, seed=20260405) + [
        ChannelParameters(10.0, 10.0, 5.0, 5.0, 10.0, 10.0),
        symmetric_params(SymmetricPoint(1e4, 1.05, 1.2)),
        symmetric_params(SymmetricPoint(1e3, 0.5, 0.8)),
    ]


class TestRun:
    """The inner pass in slabs of rho, and the inner clouds of a run."""

    def test_slab_rows(self):
        # the default grid is one slab; doubled, slab 0 is the 9 coarse rows
        # and the 6 lowest others, and 50 rows follow in slabs of 15
        assert [r.tolist() for r in ach._slab_rows(33, 17)] == [list(range(33))]
        rows = ach._slab_rows(65, 33)
        assert [r.size for r in rows] == [15, 15, 15, 15, 5]
        assert rows[0].tolist() == [0, 1, 2, 3, 4, 5, 6, 8, 16, 24, 32, 40, 48, 56, 64]
        # the coarse rows alone outgrow a slab of 3 rows at 65 splits
        rows = ach._slab_rows(33, 65)
        assert rows[0].tolist() == [0, 8, 16, 24, 32] and {r.size for r in rows[1:]} == {1, 3}
        for n_rho, n_mu in [(1, 17), (2, 2), (65, 33), (33, 65), (129, 9), (17, 129)]:
            rows = ach._slab_rows(n_rho, n_mu)
            assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(n_rho))
            assert all(np.all(np.diff(r) > 0) for r in rows)
            assert set(ach._coarse(n_rho)) <= set(rows[0])

    @pytest.mark.parametrize("grid", [ach.DEFAULT_GRID, DOUBLED, GridSpec(129, 9)])
    def test_slabs_of_rho_give_the_whole_grids_caps(self, grid, monkeypatch):
        calls = []
        family_caps = ach.family_caps

        def spy(*args):
            calls.append(np.ravel(args[1]))
            return family_caps(*args)

        def made(call):
            # each slab's (rho, mu1, mu2) temporary within SLAB_BYTES, and each
            # grid rho made once per call: no second call for the coarse sub-grid
            monkeypatch.setattr(ach, "family_caps", spy)
            out = call()
            monkeypatch.undo()
            assert max(c.size for c in calls) * grid.mu_points ** 2 * 8 <= ach.SLAB_BYTES
            assert np.array_equal(np.sort(np.concatenate(calls)), rho)
            calls.clear()
            return out

        for p in random_channels(20, 20260405):
            rho, whole = whole_grid_caps(p, grid)
            for rows, caps in made(lambda: list(ach._grid_slabs(p, grid)[1])):
                assert np.array_equal(caps, whole[:, rows], equal_nan=True)
            assert np.array_equal(ach.sweep_family_caps(p, grid), whole.reshape(5, -1),
                                  equal_nan=True)
            made(lambda: exact_gap(p, grid))

    def test_default_grid_is_one_slab(self):
        # exact_gap at the default grids: one family_caps call, one coarse
        # batch_vertices call and one vertices_outside call, as with no slabs
        for p in random_channels(5, 20260405):
            with mock.patch.object(ach, "family_caps", wraps=ach.family_caps) as caps, \
                    mock.patch.object(ach, "batch_vertices", wraps=ach.batch_vertices) as walk, \
                    mock.patch.object(ach, "vertices_outside", wraps=ach.vertices_outside) as prune:
                exact_gap(p)
            assert (caps.call_count, walk.call_count, prune.call_count) == (1, 1, 1)

    @pytest.mark.parametrize("grid, converse_grid", [
        (ach.DEFAULT_GRID, converse.DEFAULT_GRID),  # one slab
        (DOUBLED, GridSpec(129, 33, 1024)),          # five slabs, criterion 8's grids
        (GridSpec(129, 9), converse.DEFAULT_GRID),
        (GridSpec(2, 2), converse.DEFAULT_GRID),
    ])
    def test_slab_pass_is_the_whole_grid_pass(self, grid, converse_grid):
        for p in random_channels(20, 20260405) + EDGE_CHANNELS + [COLLAPSED]:
            self.assert_whole_grid_pass(p, grid, converse_grid)

    def test_slab_pass_where_the_coarse_rows_outgrow_a_slab(self):
        # at 65 splits a slab holds 3 rows, and slab 0 the 5 coarse ones
        for p in random_channels(4, 20260405) + [COLLAPSED]:
            self.assert_whole_grid_pass(p, GridSpec(33, 65), converse.DEFAULT_GRID)

    @staticmethod
    def assert_whole_grid_pass(p, grid, converse_grid):
        """achievable_region, exact_gap and analytic_gap_bound equal the whole
        grid pass bit for bit, or exact_gap raises as the converse does."""
        inner, want = whole_grid_gap(p, grid, converse_grid)
        got = achievable_region(p, grid)
        for name in ("vertices", "frontier_r1", "frontier_r2"):
            a, b = getattr(got, name), getattr(inner, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, p)
        rho, caps = whole_grid_caps(p, grid)
        bound, _ = whole_grid_bound(converse.family_caps(p, rho), caps)
        assert float(analytic_gap_bound(p, grid)).hex() == float(bound).hex(), p
        if want is None:
            with pytest.raises(DegenerateChannelError) as want_exc:
                converse._region_and_caps(p, converse_grid, rho)
            with pytest.raises(DegenerateChannelError, match=re.escape(str(want_exc.value))):
                exact_gap(p, grid, converse_grid)
        else:
            assert report_hex(exact_gap(p, grid, converse_grid)) == report_hex(want), p

    def test_one_doubled_gap_call_holds_a_few_slabs(self):
        # the traced peak of one exact_gap call at criterion 8's doubled grids:
        # 2.3 to 3.0 MiB in slabs, most of it the converse frontier (129 rho
        # by 1,024 samples); the whole-grid pass held the (5, 65, 33, 33)
        # caps and the prune's full-width copies, up to 9.5 MiB
        grid, converse_grid = DOUBLED, GridSpec(129, 33, 1024)
        channels = criterion_8_channels()
        exact_gap(channels[0], grid, converse_grid)  # the walk tables, made once
        peaks = []
        for p in channels:
            tracemalloc.start()
            try:
                exact_gap(p, grid, converse_grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2 ** 20, [round(b / 2 ** 20, 2) for b in peaks]

    def test_a_run_has_each_cells_inner_cloud(self):
        rng = np.random.default_rng(23)
        channels = random_channels(20, 20260401) + EDGE_CHANNELS
        cases = [(p, ach.DEFAULT_GRID) for p in channels] + [(p, DOUBLED) for p in channels[::8]]
        for p, grid in cases:
            ps = [dataclasses.replace(p, snr_bwd_1=a, snr_bwd_2=b)
                  for a, b in 10.0 ** rng.uniform(-1.0, 6.0, size=(4, 2))]
            slabs = [ach._grid_slabs(q, grid)[1] for q in ps]
            for q, cloud in zip(ps, ach.run_inner_clouds(ps, slabs)):
                (alone,) = ach.run_inner_clouds([q], [ach._grid_slabs(q, grid)[1]])
                assert cloud.tobytes() == alone.tobytes()
                if grid == ach.DEFAULT_GRID:  # one slab: the whole grid's cloud
                    whole = one_slab_cloud(q, whole_grid_caps(q, grid)[1])
                    assert cloud.tobytes() == whole.tobytes()


class TestFanChain:
    """The pre-region of the prune: extreme points of the coarse cloud in a fan."""

    def test_knots_ascend_and_lie_inside_the_coarse_hull(self, p_star):
        # the last channel's coarse cloud holds two points equal within the
        # hull tolerance, which were both knots
        twins = ChannelParameters(18.386160475109637, 6.177495334424844, 711828.8433716872,
                                  64.5478711466986, 18557.453726792202, 35.30259433233043)
        for p in [p_star] + random_channels(30, 20260407) + [twins]:
            caps = whole_grid_caps(p, ach.DEFAULT_GRID)[1]
            (cloud,) = ach._coarse_clouds([(np.arange(caps.shape[1]), caps)],
                                          [ach.single_user_anchors(p)])
            r1_max, knot_r1, knot_r2 = ach._fan_chain(cloud)
            assert 2 <= knot_r1.size <= 2 * ach.FAN_DIRECTIONS - 1
            assert np.all(np.diff(knot_r1) > 0.0) and np.all(np.diff(knot_r2) < 0.0)
            scale = max(1.0, np.abs(cloud).max())
            assert r1_max == knot_r1[-1]
            assert cloud[:, 0].max() - r1_max <= 1e-12 * scale
            assert cloud[:, 1].max() - knot_r2[0] <= 1e-12 * scale
            # every knot is a point of the cloud, so the chain is inside its hull
            knots = np.column_stack([knot_r1, knot_r2])
            assert all(np.any(np.all(cloud == k, axis=1)) for k in knots)
            _, hull_r1, hull_r2 = region_from_points(cloud).boundary
            xs = np.linspace(0.0, r1_max, 257)
            assert np.all(np.interp(xs, knot_r1, knot_r2)
                          <= np.interp(xs, hull_r1, hull_r2) + 1e-12 * scale)

    def test_knots_are_the_extreme_points_of_the_fan(self):
        # and, between each two adjacent ones, the point farthest beyond
        # their chord, where a point lies beyond it
        rng = np.random.default_rng(97)
        theta = np.linspace(0.0, 0.5 * np.pi, ach.FAN_DIRECTIONS)
        added = 0
        for _ in range(20):
            cloud = rng.uniform(0.0, 3.0, size=(200, 2))
            _, knot_r1, knot_r2 = ach._fan_chain(cloud)
            extreme = cloud[np.argmax(cloud @ np.array([np.cos(theta), np.sin(theta)]), axis=0)]
            fan = pareto_vertices(extreme)
            want = list(fan)
            for a, b in zip(fan[:-1], fan[1:]):
                beyond = (cloud - a) @ np.array([a[1] - b[1], b[0] - a[0]])
                if beyond.max() > 0.0:
                    want.append(cloud[beyond.argmax()])
            added += len(want) - len(fan)
            assert {tuple(v) for v in np.column_stack([knot_r1, knot_r2])} == \
                {tuple(v) for v in pareto_vertices(np.array(want))}
        assert added > 0

    def test_dominated_extreme_points_are_dropped(self):
        # direction 0 finds the first of the points tied at the largest R1,
        # here the lower one; it would pull the chain down to the R1 axis
        cloud = np.array([[2.8, 0.0], [0.0, 7.3], [2.8, 4.0]])
        assert ach._fan_chain(cloud)[0] == 2.8
        assert np.column_stack(ach._fan_chain(cloud)[1:]).tolist() == [[0.0, 7.3], [2.8, 4.0]]
