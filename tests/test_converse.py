import numpy as np
import pytest

import formula_oracle as oracle
from gicnof import (
    ChannelParameters,
    DegenerateChannelError,
    EventPair,
    GridSpec,
    b_conv,
    classify_events,
    contains,
    converse_region,
    kappa,
    polytope_vertices,
)
from gicnof import converse as conv
from gicnof.achievability import FAMILY_COEFFS
from gicnof.geometry import LinearBound, RateRegionPolytope
from conftest import random_channels


def as_oracle(p):
    return {"snr1": p.snr_fwd_1, "snr2": p.snr_fwd_2, "inr12": p.inr_12,
            "inr21": p.inr_21, "fb1": p.snr_bwd_1, "fb2": p.snr_bwd_2}


FAMILIES = ("r1", "r2", "sum", "two_r1", "two_r2")


def oracle_polytope(ch, rho):
    """The eleven-bound converse polytope, built from the formula oracle."""
    rhs = oracle.outer_bound_rhs(ch, rho)
    return RateRegionPolytope(tuple(
        LinearBound(float(c1), float(c2), r)
        for (c1, c2), fam in zip(FAMILY_COEFFS, FAMILIES) for r in rhs[fam]))


# one channel per sum-cap variant; feedback SNRs chosen unequal so every
# term of the cap bodies is exercised
CHANNEL_K6_1 = ChannelParameters(100.0, 100.0, 2.0, 3.0, 7.0, 11.0)     # S5, S5
CHANNEL_K6_2 = ChannelParameters(20.0, 6.0, 4.0, 3.0, 7.0, 11.0)        # S4, S5
CHANNEL_K6_3 = ChannelParameters(6.0, 20.0, 3.0, 4.0, 7.0, 11.0)        # S5, S4
CHANNEL_K6_4 = ChannelParameters(10.0, 10.0, 5.0, 5.0, 10.0, 10.0)      # S4, S4


class TestClassifyEvents:
    def test_weak_cross_links(self):
        p = ChannelParameters(5.0, 1.0, 2.0, 3.0, 0.0, 0.0)
        assert classify_events(p).l_1 == 1  # snr_2 = 1 < min(2, 3)

    def test_reference_channel(self, p_star):
        assert classify_events(p_star) == EventPair(4, 4)

    def test_strong_forward_link(self):
        p = ChannelParameters(5.0, 10.0, 2.0, 3.0, 0.0, 0.0)
        assert classify_events(p).l_1 == 5  # snr_2 = 10 >= max(2, 3, 6)

    def test_partition_on_random_tuples(self):
        rng = np.random.default_rng(107)
        seen = set()
        for _ in range(10_000):
            vals = 10.0 ** (rng.uniform(-10, 60, size=4) / 10.0)
            p = ChannelParameters(vals[0], vals[1], vals[2], vals[3], 1.0, 1.0)
            ev = classify_events(p)  # raises if a forbidden pair occurs
            seen.add((ev.l_1, ev.l_2))
        assert (2, 2) not in seen and (3, 3) not in seen

    def test_forbidden_pairs_rejected(self):
        with pytest.raises(ValueError):
            EventPair(2, 2)
        with pytest.raises(ValueError):
            EventPair(3, 3)

    def test_variant_selectors(self):
        assert conv.k6_variant(classify_events(CHANNEL_K6_1)) == 1
        assert conv.k6_variant(classify_events(CHANNEL_K6_2)) == 2
        assert conv.k6_variant(classify_events(CHANNEL_K6_3)) == 3
        assert conv.k6_variant(classify_events(CHANNEL_K6_4)) == 4
        ev = classify_events(CHANNEL_K6_2)
        assert conv.k7_variant(ev, 1) == 2 and conv.k7_variant(ev, 2) == 1


class TestConverseBlocks:
    def test_reference_values(self, p_star):
        b3, b4, b5, b6 = b_conv(p_star, 1, 0.0)
        assert b3 == pytest.approx(15.0 - 2.0 * np.sqrt(50.0), rel=1e-9)
        assert b4 == 10.0 and b5 == 5.0
        assert b6 == pytest.approx(10.428932188134524, rel=1e-9)

    def test_full_correlation_zeroes_b4_b5(self, p_star):
        _, b4, b5, _ = b_conv(p_star, 1, 1.0)
        assert b4 == 0.0 and b5 == 0.0

    def test_matched_gains_zero_b3(self):
        p = ChannelParameters(7.0, 7.0, 3.0, 7.0, 0.0, 0.0)
        b3, _, _, _ = b_conv(p, 1, 0.0)  # snr_1 == inr_21: perfect square collapses
        assert b3 == pytest.approx(0.0, abs=1e-12)

    def test_zero_snr_rejected(self):
        p = ChannelParameters(0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(DegenerateChannelError):
            b_conv(p, 1, 0.0)

    def test_matches_oracle(self):
        for p in random_channels(50, 109):
            ch = as_oracle(p)
            for i in (1, 2):
                b3, b4, b5, b6 = b_conv(p, i, 0.37)
                assert b3 == pytest.approx(oracle.b3(ch, i), rel=1e-12, abs=1e-12)
                assert b4 == pytest.approx(oracle.b4(ch, i, 0.37), rel=1e-12)
                assert b5 == pytest.approx(oracle.b5(ch, i, 0.37), rel=1e-12)
                assert float(b6) == pytest.approx(oracle.b6(ch, i, 0.37), rel=1e-12, abs=1e-9)


class TestKappa:
    def test_reference_values(self, p_star):
        kv = kappa(p_star, 0.0, classify_events(p_star))
        assert kv.k1 == pytest.approx((2.0, 2.0), rel=1e-12)
        assert kv.k2 == pytest.approx((2.0, 2.0), rel=1e-12)
        assert kv.k3 == pytest.approx((2.013762114192371,) * 2, rel=1e-9)
        assert kv.k4 == pytest.approx(2.707518749639422, rel=1e-9)
        assert kv.k5 == pytest.approx(2.707518749639422, rel=1e-9)
        assert kv.k6_variant == 4 and kv.k7_variants == (2, 2)

    @pytest.mark.parametrize("p, variant", [
        (CHANNEL_K6_1, 1), (CHANNEL_K6_2, 2), (CHANNEL_K6_3, 3), (CHANNEL_K6_4, 4),
    ])
    def test_sum_cap_bodies_match_oracle(self, p, variant):
        ch = as_oracle(p)
        for rho in (0.0, 0.3, 0.8):
            kv = kappa(p, rho, classify_events(p))
            assert kv.k6_variant == variant
            assert kv.k6 == pytest.approx(oracle.k6_body(ch, variant, rho), rel=1e-9)

    @pytest.mark.parametrize("p", [CHANNEL_K6_1, CHANNEL_K6_2, CHANNEL_K6_3, CHANNEL_K6_4])
    def test_weighted_cap_bodies_match_oracle(self, p):
        ch = as_oracle(p)
        ev = classify_events(p)
        for rho in (0.0, 0.55):
            kv = kappa(p, rho, ev)
            for i in (1, 2):
                variant = kv.k7_variants[i - 1]
                assert kv.k7[i - 1] == pytest.approx(
                    oracle.k7_body(ch, i, variant, rho), rel=1e-9)

    def test_single_caps_match_oracle(self):
        for p in random_channels(30, 113):
            ch = as_oracle(p)
            ev = classify_events(p)
            for rho in (0.0, 0.6, 1.0):
                kv = kappa(p, rho, ev)
                for i in (1, 2):
                    assert kv.k1[i - 1] == pytest.approx(oracle.k1(ch, i, rho), rel=1e-12)
                    assert kv.k2[i - 1] == pytest.approx(oracle.k2(ch, i, rho), rel=1e-12, abs=1e-12)
                    assert kv.k3[i - 1] == pytest.approx(oracle.k3(ch, i, rho), rel=1e-12, abs=1e-12)
                assert kv.k4 == pytest.approx(oracle.k4(ch, rho), rel=1e-12, abs=1e-12)
                assert kv.k5 == pytest.approx(oracle.k5(ch, rho), rel=1e-12, abs=1e-12)

    def test_k2_closed_form_identity(self):
        rng = np.random.default_rng(127)
        for p in random_channels(100, 131):
            rho = rng.uniform()
            kv = kappa(p, rho, classify_events(p))
            for i, j in ((1, 2), (2, 1)):
                direct = 0.5 * np.log2(
                    1.0 + (1.0 - rho**2) * (p.snr_fwd(i) + p.inr(j)))
                assert abs(kv.k2[i - 1] - direct) < 1e-12 * max(1.0, direct)

    def test_k1_k2_monotone_in_correlation(self):
        for p in random_channels(30, 137):
            rhos = np.linspace(0.0, 1.0, 40)
            ev = classify_events(p)
            k1 = np.array([kappa(p, float(r), ev).k1[0] for r in rhos])
            k2 = np.array([kappa(p, float(r), ev).k2[0] for r in rhos])
            assert np.all(np.diff(k1) >= -1e-12)
            assert np.all(np.diff(k2) <= 1e-12)

    def test_k3_diverges_with_feedback(self):
        # doubling the other user's feedback SNR from a large base adds ~0.5 bit
        base = 1e8
        p1 = ChannelParameters(10.0, 10.0, 5.0, 5.0, 1.0, base)
        p2 = ChannelParameters(10.0, 10.0, 5.0, 5.0, 1.0, 2.0 * base)
        ev = classify_events(p1)
        k3_1 = kappa(p1, 0.0, ev).k3[0]
        k3_2 = kappa(p2, 0.0, ev).k3[0]
        assert k3_2 - k3_1 == pytest.approx(0.5, abs=1e-3)


class TestConversePolytope:
    def test_reference_single_rate_cap(self, p_star):
        poly = oracle_polytope(oracle.P_STAR, 0.0)
        r1_cap = min(b.rhs for b in poly.bounds if (b.c1, b.c2) == (1.0, 0.0))
        assert r1_cap == pytest.approx(2.0, rel=1e-12)
        assert len(poly.bounds) == 11
        assert conv.family_caps(p_star, 0.0)[0] == pytest.approx(2.0, rel=1e-12)

    def test_full_correlation_collapses(self, p_star):
        assert conv.family_caps(p_star, 1.0)[0] == pytest.approx(0.0, abs=1e-12)  # k2(1) = 0
        assert conv.family_caps(p_star, 1.0)[1] == pytest.approx(0.0, abs=1e-12)

    def test_membership_matches_inequalities(self):
        rng = np.random.default_rng(139)
        for p in random_channels(10, 149):
            rho = rng.uniform()
            poly = oracle_polytope(as_oracle(p), rho)
            verts = polytope_vertices(poly)
            if verts.shape[0] == 0:
                continue
            hi = 1.2 * max(v.max() for v in verts) + 0.1
            pts = rng.uniform(0.0, hi, size=(100, 2))
            for pt in pts:
                slack = min(b.rhs - (b.c1 * pt[0] + b.c2 * pt[1]) for b in poly.bounds)
                if abs(slack) < 1e-7:
                    continue
                assert poly.feasible(pt[0], pt[1]) == (slack > 0)

    @pytest.mark.parametrize("p", [CHANNEL_K6_1, CHANNEL_K6_2, CHANNEL_K6_3, CHANNEL_K6_4])
    def test_family_caps_match_oracle_minima(self, p):
        # the vectorized caps against the oracle's family minima, over a rho
        # array; the four channels cover every sum-cap and weighted-cap variant
        ch = as_oracle(p)
        rhos = np.linspace(0.0, 0.95, 20)
        caps = conv.family_caps(p, rhos)
        assert caps.shape == (5, rhos.size)
        for k, rho in enumerate(rhos):
            want = oracle.outer_bound_rhs(ch, float(rho))
            assert caps[:, k] == pytest.approx([min(want[f]) for f in FAMILIES], rel=1e-12)


class TestConverseRegion:
    def test_envelope_dominates_every_slice(self, p_star):
        region = converse_region(p_star, GridSpec(rho_points=17))
        grid = region.frontier_r1
        for rho in np.linspace(0.0, 1.0, 17):
            poly = oracle_polytope(oracle.P_STAR, float(rho))
            # per-slice frontier, evaluated on the shared grid
            caps = [np.full_like(grid, np.inf)]
            for b in poly.bounds:
                if b.c2 > 0:
                    caps.append((b.rhs - b.c1 * grid) / b.c2)
            reach = min(b.rhs / b.c1 for b in poly.bounds if b.c1 > 0)
            slice_frontier = np.minimum.reduce(caps)
            ok = grid <= reach
            assert np.all(slice_frontier[ok] <= region.frontier_r2[ok] + 1e-9)

    def test_zero_feedback_formula_specialization(self):
        # with zero feedback SNRs the caps reduce to their minimal closed forms
        p = ChannelParameters(10.0, 10.0, 5.0, 5.0, 0.0, 0.0)
        ev = classify_events(p)
        kv = kappa(p, 0.3, ev)
        b4 = (1 - 0.3**2) * 10.0
        assert kv.k3[0] == pytest.approx(0.5 * np.log2(b4 + 1.0), rel=1e-12)
        region = converse_region(p, GridSpec(rho_points=17))
        assert region.r1_max > 0

    def test_reference_frontier_regression(self, p_star):
        region = converse_region(p_star)  # spec'd default: 65 rho points
        assert region.r1_max == pytest.approx(2.0, abs=1e-9)
        expected = np.array([2.0, 2.0, 2.0, 1.995860556, 1.898019796,
                             1.717144903, 1.487757352, 1.207964077])
        assert np.allclose(region.frontier_r2[::64], expected, atol=1e-8)

    def test_vertices_lie_on_envelope(self, p_star):
        region = converse_region(p_star)
        ys = region.frontier_at(region.vertices[:, 0])
        assert np.all(region.vertices[:, 1] >= ys - 1e-6 * 2.0)

    def test_degenerate_snr_propagates(self):
        # scenario (4, x) selects a sum-cap variant dividing by snr_fwd_1
        p = ChannelParameters(0.0, 6.0, 3.0, 4.0, 1.0, 1.0)
        if conv.k6_variant(classify_events(p)) in (3, 4):
            with pytest.raises(DegenerateChannelError):
                converse_region(p)
