import numpy as np
import pytest

from gicnof import ChannelParameters


# the formula oracle's family keys, in FAMILY_COEFFS order
FAMILIES = ("r1", "r2", "sum", "two_r1", "two_r2")


def random_channels(n, seed, db_range=(-10.0, 60.0)):
    """Log-uniform six-tuples over the dB range; zero INR cannot occur."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        vals = 10.0 ** (rng.uniform(db_range[0], db_range[1], size=6) / 10.0)
        out.append(ChannelParameters(*vals))
    return out


def channels_with_unit_inr(n, seed):
    """Random channels with both INRs >= 1, where the coefficient formulas
    coincide with their raw closed forms."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        snr = 10.0 ** (rng.uniform(-10, 60, size=2) / 10.0)
        inr = 10.0 ** (rng.uniform(0, 60, size=2) / 10.0)
        fb = 10.0 ** (rng.uniform(-10, 60, size=2) / 10.0)
        out.append(ChannelParameters(snr[0], snr[1], inr[0], inr[1], fb[0], fb[1]))
    return out


def as_oracle(p):
    """The channel as the formula oracle's dict."""
    return {"snr1": p.snr_fwd_1, "snr2": p.snr_fwd_2, "inr12": p.inr_12,
            "inr21": p.inr_21, "fb1": p.snr_bwd_1, "fb2": p.snr_bwd_2}


def swap_users(p):
    """The channel with the two user labels exchanged."""
    return ChannelParameters(p.snr_fwd_2, p.snr_fwd_1, p.inr_21, p.inr_12,
                             p.snr_bwd_2, p.snr_bwd_1)


@pytest.fixture
def p_star():
    """Symmetric reference channel used throughout the suite."""
    return ChannelParameters(10.0, 10.0, 5.0, 5.0, 10.0, 10.0)
