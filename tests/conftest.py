import numpy as np
import pytest

from gicnof import ChannelParameters, achievability, gap


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


def whole_grid_caps(p, grid):
    """The grid's 1-D rho axis, and family_caps over the whole (rho, mu1,
    mu2) grid in one call, of shape (5, n_rho, n_mu, n_mu): no slab."""
    rho, mu1, mu2 = achievability._parameter_grids(p, grid)
    return rho.ravel(), achievability.family_caps(p, rho, mu1, mu2)


def one_slab_cloud(p, caps):
    """The inner cloud of p from its family caps caps, of shape
    (5, n_rho, n_mu, n_mu), passed to run_inner_clouds as one slab."""
    return achievability.run_inner_clouds([p], [[(np.arange(caps.shape[1]), caps)]])[0]


def whole_grid_bound(outer, caps):
    """The analytic bound and its delta components from the inner caps caps
    over a whole grid and outer, converse.family_caps on its rho axis."""
    return gap._bound(*gap._rho_scores(outer, caps))


def report_hex(report):
    """A GapReport's fields as float.hex strings, for bit-for-bit equality."""
    return [float(v).hex() for v in (report.exact_gap, report.analytic_bound,
                                      *report.witness, *report.delta_components)]


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
