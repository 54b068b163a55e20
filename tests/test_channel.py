import math

import numpy as np
import pytest

from gicnof import (
    ChannelCoefficients,
    ChannelParameters,
    SimulationConfig,
    SymmetricPoint,
    estimate_parameters,
    params_from_coefficients,
    simulate_block,
    symmetric_params,
)


def coeffs(h_fwd=0.0, h_cross=0.0, h_bwd=0.0):
    return ChannelCoefficients(h_fwd, h_fwd, h_cross, h_cross, h_bwd, h_bwd)


class TestParamsFromCoefficients:
    def test_unit_gains(self):
        p = params_from_coefficients(coeffs(1.0, 1.0, 1.0))
        assert p.snr_fwd_1 == 1.0
        assert p.inr_12 == 1.0
        assert p.snr_bwd_1 == 5.0  # 1 * (1 + 2 + 1 + 1)

    def test_all_zero(self):
        p = params_from_coefficients(coeffs())
        assert (p.snr_fwd_1, p.snr_fwd_2, p.inr_12, p.inr_21) == (0, 0, 0, 0)
        assert p.snr_bwd_1 == 0.0 and p.snr_bwd_2 == 0.0

    def test_hand_evaluated(self):
        c = ChannelCoefficients(2.0, 0.0, 1.0, 0.0, 3.0, 0.0)
        p = params_from_coefficients(c)
        assert p.snr_fwd_1 == 4.0
        assert p.inr_12 == 1.0
        assert p.snr_bwd_1 == pytest.approx(90.0, rel=1e-12)  # 9 * (4 + 4 + 1 + 1)

    def test_feedback_snr_dominates_feedback_gain(self):
        # the bracket is always >= 1
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = ChannelCoefficients(*rng.uniform(0.0, 30.0, size=6))
            p = params_from_coefficients(c)
            assert p.snr_bwd_1 >= c.h_bwd_11**2 - 1e-12
            assert p.snr_bwd_2 >= c.h_bwd_22**2 - 1e-12


class TestSymmetricParams:
    def test_sqrt_interference(self):
        p = symmetric_params(SymmetricPoint(snr=1000.0, alpha=0.5, beta=1.0))
        assert p.inr_12 == pytest.approx(10**1.5, rel=1e-12)
        assert p.snr_bwd_1 == pytest.approx(1000.0, rel=1e-12)

    def test_unit_exponents(self):
        p = symmetric_params(SymmetricPoint(snr=100.0, alpha=1.0, beta=0.0))
        assert p.inr_12 == pytest.approx(100.0)
        assert p.snr_bwd_1 == pytest.approx(1.0)

    def test_surface_peak_coordinates(self):
        p = symmetric_params(SymmetricPoint(snr=1e4, alpha=1.05, beta=1.2))
        assert p.inr_12 == pytest.approx(10**4.2, rel=1e-12)
        assert p.snr_bwd_1 == pytest.approx(10**4.8, rel=1e-12)

    def test_rejects_snr_at_most_one(self):
        with pytest.raises(ValueError):
            SymmetricPoint(snr=1.0, alpha=0.5, beta=0.5)


class TestSimulateBlock:
    def test_noise_only_variance(self):
        cfg = SimulationConfig(block_length=10**6, seed=1)
        blk = simulate_block(coeffs(), cfg)
        sigma = math.sqrt(2.0 / 10**6)  # stderr of a unit-variance estimate
        assert abs(np.var(blk.y_fwd_1) - 1.0) < 5 * sigma
        assert abs(np.var(blk.y_fwd_2) - 1.0) < 5 * sigma

    def test_max_delay_leaves_pure_noise(self):
        n = 64
        cfg = SimulationConfig(block_length=n, delay=n - 1, seed=2,
                               input_mode="fully-correlated")
        blk = simulate_block(coeffs(1.0, 1.0, 1.0), cfg)
        ref = simulate_block(coeffs(1.0, 1.0, 0.0), cfg)  # same draws, no feedback path
        # only the last sample carries feedback; all earlier ones are the raw noise
        assert np.array_equal(blk.y_bwd_1[: n - 1], ref.y_bwd_1[: n - 1])
        assert blk.y_bwd_1[n - 1] != ref.y_bwd_1[n - 1]

    def test_correlated_feedback_variance(self):
        cfg = SimulationConfig(block_length=10**6, seed=3, input_mode="fully-correlated")
        blk = simulate_block(coeffs(1.0, 1.0, 1.0), cfg)
        # Var(y_bwd) = snr_bwd + 1 = 6 under fully-correlated inputs
        sigma = 6.0 * math.sqrt(2.0 / 10**6)
        assert abs(np.var(blk.y_bwd_1[1:]) - 6.0) < 5 * sigma

    def test_power_constraint_exact(self):
        cfg = SimulationConfig(block_length=4096, seed=4)
        blk = simulate_block(coeffs(1.0, 0.5, 1.0), cfg)
        assert np.mean(blk.x_1**2) <= 1.0 + 1e-9
        assert np.mean(blk.x_2**2) <= 1.0 + 1e-9

    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(block_length=5000, seed=42, input_mode="fully-correlated")
        a = simulate_block(coeffs(1.0, 2.0, 0.5), cfg)
        b = simulate_block(coeffs(1.0, 2.0, 0.5), cfg)
        for name in ("x_1", "x_2", "y_fwd_1", "y_fwd_2", "y_bwd_1", "y_bwd_2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_rejects_delay_at_least_block_length(self):
        with pytest.raises(ValueError):
            SimulationConfig(block_length=10, delay=10)

    def test_fully_correlated_inputs_match(self):
        cfg = SimulationConfig(block_length=100, seed=5, input_mode="fully-correlated")
        blk = simulate_block(coeffs(1.0, 1.0, 1.0), cfg)
        assert np.array_equal(blk.x_1, blk.x_2)


class TestEstimateParameters:
    def test_unit_gain_feedback_snr(self):
        c = coeffs(1.0, 1.0, 1.0)
        cfg = SimulationConfig(block_length=10**6, seed=6, input_mode="fully-correlated")
        est = estimate_parameters([simulate_block(c, cfg)], c)
        assert abs(est.params.snr_bwd_1 - 5.0) < 3 * est.stderr.snr_bwd_1

    def test_zero_feedback_gain(self):
        c = coeffs(1.0, 1.0, 0.0)
        cfg = SimulationConfig(block_length=10**5, seed=7, input_mode="fully-correlated")
        est = estimate_parameters([simulate_block(c, cfg)], c)
        assert est.params.snr_bwd_1 < 3 * est.stderr.snr_bwd_1

    def test_asymmetric_gains(self):
        c = ChannelCoefficients(2.0, 1.0, 1.0, 1.0, 3.0, 1.0)
        cfg = SimulationConfig(block_length=10**6, seed=8, input_mode="fully-correlated")
        est = estimate_parameters([simulate_block(c, cfg)], c)
        assert abs(est.params.snr_bwd_1 - 90.0) < 3 * est.stderr.snr_bwd_1
        assert abs(est.params.snr_fwd_1 - 4.0) < 3 * est.stderr.snr_fwd_1 + 1e-6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_parameters([], coeffs(1.0, 1.0, 1.0))


class TestValidation:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            ChannelCoefficients(-1.0, 1, 1, 1, 1, 1)

    def test_non_finite_parameter_rejected(self):
        with pytest.raises(ValueError):
            ChannelParameters(float("inf"), 1, 1, 1, 1, 1)
