"""Property tests of the vertex kernel on generated batches of family caps."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gicnof import achievability  # noqa: E402
from gicnof.geometry import (  # noqa: E402
    FEASIBILITY_TOL,
    batch_vertices,
    region_from_points,
    vertices_outside,
)

COEFFS = achievability.FAMILY_COEFFS


@st.composite
def family_caps(draw):
    """A (5, n) batch of caps, 1 <= n <= 60: each column a scale from 1e-4
    to 1e6 times factors from 0.2 to 3, with a few caps replaced by values
    in [-FEASIBILITY_TOL, 0), by +inf and by NaN."""
    n = draw(st.integers(1, 60))
    scale = 10.0 ** draw(arrays(float, (1, n), elements=st.floats(-4.0, 6.0)))
    caps = scale * draw(arrays(float, (5, n), elements=st.floats(0.2, 3.0)))
    special = st.one_of(st.floats(-FEASIBILITY_TOL, 0.0, exclude_max=True),
                        st.just(np.inf), st.just(np.nan))
    for _ in range(draw(st.integers(0, 6))):
        caps[draw(st.integers(0, 4)), draw(st.integers(0, n - 1))] = draw(special)
    return caps


def fan_chain(pts):
    """achievability's fan chain over the points and the two axis corners
    of their extremes."""
    corners = [[pts[:, 0].max(), 0.0], [0.0, pts[:, 1].max()]]
    return achievability._fan_chain(np.vstack([pts, corners]))


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@PROPERTY
@given(family_caps())
def test_the_prune_keeps_the_hull(caps):
    pts, _ = batch_vertices(COEFFS, caps)
    if pts.size == 0:
        return
    kept, _ = vertices_outside(COEFFS, caps, fan_chain(pts))
    assert (region_from_points(kept).vertices.tobytes()
            == region_from_points(pts).vertices.tobytes())


@PROPERTY
@given(family_caps())
def test_a_column_has_the_same_vertices_alone_as_in_the_batch(caps):
    pts, idx = batch_vertices(COEFFS, caps)
    for n in range(caps.shape[1]):
        assert pts[idx == n].tobytes() == batch_vertices(COEFFS, caps[:, [n]])[0].tobytes()
    if pts.size:
        kept, kept_idx = vertices_outside(COEFFS, caps, fan_chain(pts))
        for n in np.unique(kept_idx):
            assert kept[kept_idx == n].tobytes() == pts[idx == n].tobytes()
