"""Channel model for the two-user Gaussian interference channel with noisy output feedback.

Each transmitter i sends x_i under a unit average power constraint; receiver i
observes the direct signal plus cross interference plus unit-variance noise,
and transmitter i observes a delayed, scaled, noisy copy of its own receiver's
output.  The channel is fully described by six linear power ratios: the two
forward SNRs, the two cross INRs and the two feedback SNRs.  All quantities in
this module are in linear scale; dB conversion happens only at the CLI.

The Monte-Carlo simulator exists to validate the parameter definitions
empirically.  The feedback SNR definition contains the cross term
2*h_fwd*h_cross, which corresponds to unit correlation between the two channel
inputs, so the "fully-correlated" input mode (x_1 = x_2 sample by sample) is
the one under which the feedback-signal variance matches snr_bwd + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

INPUT_MODES = ("independent", "fully-correlated")


class _FiniteNonnegative:
    """Base of the six-field records: every field finite and >= 0."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ChannelCoefficients(_FiniteNonnegative):
    """Amplitude gains of the six links (all dimensionless, >= 0)."""

    h_fwd_11: float  # transmitter 1 -> receiver 1
    h_fwd_22: float  # transmitter 2 -> receiver 2
    h_12: float      # transmitter 2 -> receiver 1
    h_21: float      # transmitter 1 -> receiver 2
    h_bwd_11: float  # receiver 1 output -> transmitter 1
    h_bwd_22: float  # receiver 2 output -> transmitter 2


@dataclass(frozen=True)
class ChannelParameters(_FiniteNonnegative):
    """The six-parameter description of the channel, in linear power ratios.

    inr_12 is the interference-to-noise ratio at receiver 1 (caused by
    transmitter 2), and symmetrically for inr_21.
    """

    snr_fwd_1: float
    snr_fwd_2: float
    inr_12: float
    inr_21: float
    snr_bwd_1: float
    snr_bwd_2: float

    def snr_fwd(self, i: int) -> float:
        return self.snr_fwd_1 if i == 1 else self.snr_fwd_2

    def snr_bwd(self, i: int) -> float:
        return self.snr_bwd_1 if i == 1 else self.snr_bwd_2

    def inr(self, i: int) -> float:
        """Interference-to-noise ratio seen at receiver i."""
        return self.inr_12 if i == 1 else self.inr_21


@dataclass(frozen=True)
class SymmetricPoint:
    """Symmetric channel in exponent coordinates.

    alpha is log(INR)/log(SNR_fwd) and beta is log(SNR_bwd)/log(SNR_fwd);
    snr must exceed 1 so both exponents are well defined.
    """

    snr: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr) or self.snr <= 1.0:
            raise ValueError(f"snr must be finite and > 1, got {self.snr!r}")
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SimulationConfig:
    """Block simulation settings; delay and lengths are in channel uses."""

    block_length: int
    delay: int = 1
    seed: int = 0
    input_mode: str = "independent"

    def __post_init__(self) -> None:
        if self.block_length < 1:
            raise ValueError("block_length must be a positive integer")
        if self.delay < 1:
            raise ValueError("delay must be a positive integer")
        if self.delay >= self.block_length:
            raise ValueError(
                f"delay ({self.delay}) must be smaller than block_length ({self.block_length})"
            )
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}")


@dataclass(frozen=True)
class SignalBlock:
    """One simulated block: channel inputs, receiver outputs, feedback observations."""

    x_1: np.ndarray
    x_2: np.ndarray
    y_fwd_1: np.ndarray
    y_fwd_2: np.ndarray
    y_bwd_1: np.ndarray
    y_bwd_2: np.ndarray


@dataclass(frozen=True)
class ParameterEstimate:
    """Empirical parameter estimates with their standard errors, fieldwise."""

    params: ChannelParameters
    stderr: ChannelParameters


def params_from_coefficients(c: ChannelCoefficients) -> ChannelParameters:
    """Derive the six power ratios from the link gains.

    The feedback SNR of pair i is h_bwd_ii^2 times the power of receiver i's
    output under fully-correlated unit-power inputs:
    h_fwd_ii^2 + 2*h_fwd_ii*h_cross + h_cross^2 + 1.
    """
    bracket_1 = c.h_fwd_11**2 + 2.0 * c.h_fwd_11 * c.h_12 + c.h_12**2 + 1.0
    bracket_2 = c.h_fwd_22**2 + 2.0 * c.h_fwd_22 * c.h_21 + c.h_21**2 + 1.0
    return ChannelParameters(
        snr_fwd_1=c.h_fwd_11**2,
        snr_fwd_2=c.h_fwd_22**2,
        inr_12=c.h_12**2,
        inr_21=c.h_21**2,
        snr_bwd_1=c.h_bwd_11**2 * bracket_1,
        snr_bwd_2=c.h_bwd_22**2 * bracket_2,
    )


def _snr_power(s: SymmetricPoint, name: str) -> float:
    """s.snr to the power of the exponent field name, or a ValueError naming it."""
    try:
        return s.snr ** getattr(s, name)
    except OverflowError:
        raise ValueError(f"snr ** {name} is too large for a float "
                         f"(snr={s.snr}, {name}={getattr(s, name)})") from None


def symmetric_params(s: SymmetricPoint) -> ChannelParameters:
    """Expand a symmetric (snr, alpha, beta) point into the six parameters."""
    inr = _snr_power(s, "alpha")
    snr_bwd = _snr_power(s, "beta")
    return ChannelParameters(
        snr_fwd_1=s.snr,
        snr_fwd_2=s.snr,
        inr_12=inr,
        inr_21=inr,
        snr_bwd_1=snr_bwd,
        snr_bwd_2=snr_bwd,
    )


def _unit_power(x: np.ndarray) -> np.ndarray:
    # scale so the block's average power is exactly 1 (the power constraint
    # is a hard per-block contract here, not just an expectation)
    power = float(np.mean(x * x))
    if power <= 0.0:
        return x
    return x / math.sqrt(power)


def simulate_block(c: ChannelCoefficients, cfg: SimulationConfig) -> SignalBlock:
    """Simulate one block of the channel equations.

    Inputs are zero-mean Gaussian sequences normalized to unit average block
    power; in fully-correlated mode both transmitters send the same sequence.
    Forward outputs add fresh unit-variance noise; feedback observations are
    pure noise for the first `delay` uses and a scaled, noisy, delayed copy of
    the forward output afterwards.  Noise comes from numpy's PCG64 generator,
    so a given (seed, config) reproduces the block bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    n, d = cfg.block_length, cfg.delay

    if cfg.input_mode == "fully-correlated":
        x_1 = _unit_power(rng.standard_normal(n))
        x_2 = x_1.copy()
    else:
        x_1, x_2 = (_unit_power(rng.standard_normal(n)) for _ in range(2))
    z_fwd_1, z_fwd_2, y_bwd_1, y_bwd_2 = (rng.standard_normal(n) for _ in range(4))

    y_fwd_1 = c.h_fwd_11 * x_1 + c.h_12 * x_2 + z_fwd_1
    y_fwd_2 = c.h_fwd_22 * x_2 + c.h_21 * x_1 + z_fwd_2
    y_bwd_1[d:] += c.h_bwd_11 * y_fwd_1[:-d]
    y_bwd_2[d:] += c.h_bwd_22 * y_fwd_2[:-d]

    return SignalBlock(x_1=x_1, x_2=x_2, y_fwd_1=y_fwd_1, y_fwd_2=y_fwd_2,
                       y_bwd_1=y_bwd_1, y_bwd_2=y_bwd_2)


def _var_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    m = samples.size
    if m < 2:
        return 0.0, 0.0
    var = float(np.var(samples, ddof=1))
    return var, var * math.sqrt(2.0 / (m - 1))


def estimate_parameters(
    blocks: list[SignalBlock] | tuple[SignalBlock, ...],
    c: ChannelCoefficients,
    delay: int = 1,
) -> ParameterEstimate:
    """Empirical estimates of the six parameters from simulated blocks.

    Forward SNRs and INRs come from the sample variance of the direct- and
    cross-path components; the feedback SNRs come from the sample variance of
    the feedback observation (active samples only, i.e. past the delay) minus
    the unit noise power.  The feedback estimate targets its defining formula
    only for blocks generated in fully-correlated mode, because that formula's
    cross term corresponds to unit input correlation.  Standard errors use the
    Gaussian sample-variance formula var * sqrt(2/(m-1)).
    """
    if not blocks:
        raise ValueError("estimate_parameters needs at least one block")

    x_1 = np.concatenate([b.x_1 for b in blocks])
    x_2 = np.concatenate([b.x_2 for b in blocks])
    stats = {name: _var_and_stderr(samples) for name, samples in (
        ("snr_fwd_1", c.h_fwd_11 * x_1),
        ("snr_fwd_2", c.h_fwd_22 * x_2),
        ("inr_12", c.h_12 * x_2),
        ("inr_21", c.h_21 * x_1),
        ("snr_bwd_1", np.concatenate([b.y_bwd_1[delay:] for b in blocks])),
        ("snr_bwd_2", np.concatenate([b.y_bwd_2[delay:] for b in blocks])),
    )}
    for name in ("snr_bwd_1", "snr_bwd_2"):
        var, se = stats[name]
        stats[name] = max(var - 1.0, 0.0), se
    return ParameterEstimate(
        params=ChannelParameters(**{name: est for name, (est, _) in stats.items()}),
        stderr=ChannelParameters(**{name: se for name, (_, se) in stats.items()}),
    )
