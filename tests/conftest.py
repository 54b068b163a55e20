import numpy as np
import pytest

from gicnof import ChannelParameters


def random_channels(n, seed, db_range=(-10.0, 60.0)):
    """Log-uniform six-tuples over the dB range; zero INR cannot occur."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        vals = 10.0 ** (rng.uniform(db_range[0], db_range[1], size=6) / 10.0)
        out.append(ChannelParameters(*vals))
    return out


def swap_users(p):
    """The channel with the two user labels exchanged."""
    return ChannelParameters(p.snr_fwd_2, p.snr_fwd_1, p.inr_21, p.inr_12,
                             p.snr_bwd_2, p.snr_bwd_1)


@pytest.fixture
def p_star():
    """Symmetric reference channel used throughout the suite."""
    return ChannelParameters(10.0, 10.0, 5.0, 5.0, 10.0, 10.0)
