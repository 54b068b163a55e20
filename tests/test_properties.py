"""Property tests of the vertex kernel on generated batches of family caps,
and of the inner bounds against the formula oracle, the converse
polytopes' vertices, the sandwich, more feedback, the user swap and the
sweep's runs on generated channels."""

import dataclasses

import numpy as np
import pytest

import formula_oracle as oracle

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gicnof import (  # noqa: E402
    ChannelParameters,
    DegenerateChannelError,
    SymmetricPoint,
    achievability,
    converse,
    gap,
    symmetric_params,
)
from gicnof.geometry import (  # noqa: E402
    BISECTION_TOL,
    FEASIBILITY_TOL,
    _xi,
    batch_vertices,
    contains,
    deflation_gap,
    region_from_points,
    strictly_inside,
    vertices_outside,
)
from conftest import (  # noqa: E402
    FAMILIES, as_oracle, report_hex, swap_users, whole_grid_bound, whole_grid_caps)

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
def test_points_strictly_inside_the_chain_change_no_region(caps):
    pts, _ = batch_vertices(COEFFS, caps)
    if pts.size == 0:
        return
    inside = strictly_inside(pts, fan_chain(pts))
    got, want = region_from_points(pts[~inside]), region_from_points(pts)
    for name in ("vertices", "frontier_r1", "frontier_r2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


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


DB = st.floats(-10.0, 80.0)


@settings(PROPERTY, max_examples=200)
@given(st.tuples(DB, DB, st.floats(0.0, 80.0), st.floats(0.0, 80.0), DB, DB),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_every_inner_bound_matches_the_formula_oracle(db, t, mu1, mu2):
    # both INRs >= 1, where the coefficient functions' cap and floor are
    # inactive, and the two splits drawn apart, so that a term paired with
    # the wrong user's split shows.  At rho = rho_domain_sup, 1 - rho is
    # rounded, and the raw b2 of the user with the smaller INR can read
    # -1e-8 at 80 dB, which the code floors and the oracle does not
    p = ChannelParameters(*10.0 ** (np.array(db) / 10.0))
    rho = t * achievability.rho_domain_sup(p)
    assume(all(achievability.b_basic(p, i, rho)[1] >= 0.0 for i in (1, 2)))
    want = oracle.inner_bound_rhs(as_oracle(p), rho, mu1, mu2)
    got = achievability._bound_rhs_arrays(p, rho, mu1, mu2)
    for fam, members in zip(FAMILIES, got, strict=True):
        assert [float(v) for v in members] == pytest.approx(want[fam], rel=1e-9, abs=1e-12)


@settings(PROPERTY, max_examples=200)
@given(st.tuples(DB, DB, st.floats(0.0, 80.0), st.floats(0.0, 80.0), DB, DB),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_the_b2_floor_at_the_domain_sup_moves_no_bound_by_1e_8(db, mu1, mu2):
    # the case the property above leaves out: at rho_domain_sup the floor
    # clips a raw b2 of about -1e-16 * INR, which moves a bound by about
    # 1e-9 bits at 80 dB
    p = ChannelParameters(*10.0 ** (np.array(db) / 10.0))
    rho = achievability.rho_domain_sup(p)
    want = oracle.inner_bound_rhs(as_oracle(p), rho, mu1, mu2)
    got = achievability._bound_rhs_arrays(p, rho, mu1, mu2)
    for fam, members in zip(FAMILIES, got, strict=True):
        assert [float(v) for v in members] == pytest.approx(want[fam], rel=0.0, abs=1e-8)


def largest_xi(inner, points):
    """max(0, largest xi) over the points with no negative coordinate, the
    candidates geometry.deflate keeps."""
    return float(_xi(inner, points[np.all(points >= 0, axis=1)]).max(initial=0.0))


@settings(PROPERTY, max_examples=40)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)))
def test_no_envelope_point_deflates_further_than_a_polytope_vertex(db):
    # xi is convex and nondecreasing, so over the union of the per-rho
    # polytopes it peaks at a vertex of one of them: neither the converse
    # envelope's frontier samples nor its (rounded) vertices exceed that
    p = ChannelParameters(*10.0 ** (db / 10.0))
    inner = achievability.achievable_region(p)
    outer = converse.converse_region(p)
    envelope = np.vstack([np.column_stack([outer.frontier_r1, outer.frontier_r2]),
                          outer.vertices])
    ((vertices, _),) = converse.run_converse_vertices([p])
    assert largest_xi(inner, envelope) <= largest_xi(inner, vertices) + 1e-12


@settings(PROPERTY, max_examples=200)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)))
def test_every_inner_vertex_lies_in_the_converse(db):
    # the sandwich, over the ratios from -10 to 80 dB
    p = ChannelParameters(*10.0 ** (db / 10.0))
    outer = converse.converse_region(p)
    for v in achievability.achievable_region(p).vertices:
        assert contains(outer, v, 1e-9), v


def assert_inside(region, points):
    """Every point lies in region within 1e-12 of its largest coordinate."""
    for v in points:
        assert contains(region, v, 1e-12 * np.abs(v).max()), v


@settings(PROPERTY, max_examples=100)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)),
       st.sampled_from(["snr_bwd_1", "snr_bwd_2"]), st.floats(0.0, 30.0))
def test_more_feedback_never_shrinks_a_region(db, name, more_db):
    # the converse is checked at its caps: its envelope's vertices against
    # the other envelope's sampled frontier, which cannot follow a vertical
    # edge, stick out by up to 0.01 bits
    p = ChannelParameters(*10.0 ** (db / 10.0))
    q = dataclasses.replace(p, **{name: getattr(p, name) * 10.0 ** (more_db / 10.0)})
    rho = np.linspace(0.0, 1.0, converse.DEFAULT_GRID.rho_points)
    less, more = converse.family_caps(p, rho), converse.family_caps(q, rho)
    assert np.all(more >= less)  # a -inf cap may become finite, never the reverse
    less, more = (whole_grid_caps(x, achievability.DEFAULT_GRID)[1] for x in (p, q))
    assert np.all(more >= less - 1e-12 * np.abs(less))
    inner = achievability.achievable_region(p)
    assert_inside(achievability.achievable_region(q),
                  np.vstack([inner.vertices, np.column_stack([inner.frontier_r1,
                                                               inner.frontier_r2])]))


def test_the_converse_raises_where_no_rho_is_feasible():
    # all six ratios at -20 dB: every per-rho polytope excludes the origin
    p = ChannelParameters(*[0.01] * 6)
    with pytest.raises(DegenerateChannelError, match="no rho of the grid"):
        converse.converse_region(p)


# swapping the user labels swaps the R1 and R2 families and the 2R1 + R2 and
# R1 + 2R2 families, and keeps the sum family
SWAPPED_FAMILIES = [1, 0, 2, 4, 3]


def assert_same_caps(swapped, caps):
    finite = np.isfinite(caps)
    assert np.array_equal(np.isfinite(swapped), finite)
    assert np.array_equal(swapped[~finite], caps[~finite], equal_nan=True)
    np.testing.assert_allclose(swapped[finite], caps[finite], rtol=1e-12, atol=0.0)


@settings(PROPERTY, max_examples=100)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)))
def test_swapping_the_users_permutes_both_caps_arrays(db):
    p = ChannelParameters(*10.0 ** (db / 10.0))
    rho = np.linspace(0.0, 1.0, converse.DEFAULT_GRID.rho_points)
    assert_same_caps(converse.family_caps(swap_users(p), rho),
                     converse.family_caps(p, rho)[SWAPPED_FAMILIES])
    # (family, rho, mu1, mu2): the two users' power splits change places too
    inner = whole_grid_caps(p, achievability.DEFAULT_GRID)[1]
    assert_same_caps(whole_grid_caps(swap_users(p), achievability.DEFAULT_GRID)[1],
                     inner[SWAPPED_FAMILIES].transpose(0, 1, 3, 2))


@settings(PROPERTY, max_examples=60)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)))
def test_swapping_the_users_keeps_the_gap_and_mirrors_the_inner_region(db):
    # the converse envelope is sampled along R1, so its mirror is no check
    p = ChannelParameters(*10.0 ** (db / 10.0))
    inner = achievability.achievable_region(p)
    assert_inside(achievability.achievable_region(swap_users(p)), inner.vertices[:, ::-1])
    got, want = gap.exact_gap(swap_users(p)).exact_gap, gap.exact_gap(p).exact_gap
    assert abs(got - want) <= BISECTION_TOL


@settings(PROPERTY, max_examples=30)
@given(st.floats(10.0, 60.0), st.floats(0.1, 1.6),
       st.lists(st.floats(0.1, 3.0), min_size=1, max_size=8))
def test_a_sweep_run_equals_its_cells(snr_db, alpha, betas):
    # a run of one symmetric row shares its forward ratios across the cells
    # and batches its stages: each cell's gap is still its own regions' gap
    # bit for bit, or their DegenerateChannelError, and the run's converse
    # caps are each cell's
    snr = 10.0 ** (snr_db / 10.0)
    got = gap._sweep_chunk(snr, alpha, betas, achievability.DEFAULT_GRID,
                           converse.DEFAULT_GRID)
    ps = [symmetric_params(SymmetricPoint(snr=snr, alpha=alpha, beta=beta)) for beta in betas]
    for p, cell in zip(ps, got):
        try:
            want = deflation_gap(*gap.regions(p)).gap.hex()
        except DegenerateChannelError as exc:
            want = str(exc)
        assert (cell if isinstance(cell, str) else cell.hex()) == want
    rho = np.linspace(0.0, 1.0, converse.DEFAULT_GRID.rho_points)
    run = converse._run_caps(ps, rho)
    for c, p in enumerate(ps):
        assert np.array_equal(run[:, c], converse.family_caps(p, rho), equal_nan=True)


@settings(PROPERTY, max_examples=60)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)))
def test_one_converse_evaluation_serves_the_envelope_and_the_analytic_bound(db):
    # exact_gap evaluates the converse caps once, over the converse grid's
    # rho and the inner grid's rho axis together: the caps are elementwise
    # in rho, so each part is bit for bit the caps of its own call, and the
    # analytic bound and its components are those evaluated on their own
    p = ChannelParameters(*10.0 ** (db / 10.0))
    a = np.linspace(0.0, 1.0, converse.DEFAULT_GRID.rho_points)
    b, inner = whole_grid_caps(p, achievability.DEFAULT_GRID)
    both = converse.family_caps(p, np.r_[a, b])
    assert np.array_equal(both[:, :a.size], converse.family_caps(p, a), equal_nan=True)
    assert np.array_equal(both[:, a.size:], converse.family_caps(p, b), equal_nan=True)
    try:
        report = gap.exact_gap(p)
    except DegenerateChannelError:
        return
    assert report.analytic_bound == gap.analytic_gap_bound(p)
    _, components = whole_grid_bound(converse.family_caps(p, b), inner)
    assert report.delta_components == components


@settings(PROPERTY, max_examples=200)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)),
       arrays(float, 2, elements=st.floats(0.0, 1.0)))
def test_both_regions_are_downward_closed(db, t):
    # each point of a region's own boundary scaled by t: the inner hull's
    # vertices at the default grid and the converse's frontier samples
    p = ChannelParameters(*10.0 ** (db / 10.0))
    inner = achievability.achievable_region(p)
    assert_inside(inner, inner.vertices * t)
    try:
        outer = converse.converse_region(p)
    except DegenerateChannelError:
        event("skipped: the converse raises")
        assume(False)
    assert_inside(outer, np.column_stack([outer.frontier_r1, outer.frontier_r2]) * t)


@settings(PROPERTY, max_examples=100)
@given(arrays(float, 6, elements=st.floats(-10.0, 80.0)))
def test_exact_gap_is_deterministic(db):
    # two calls give the same report to the last bit, or the same error
    p = ChannelParameters(*10.0 ** (db / 10.0))
    reports = []
    for _ in range(2):
        try:
            report = gap.exact_gap(p)
        except DegenerateChannelError as exc:
            reports.append(str(exc))
        else:
            reports.append(report_hex(report))
    assert reports[0] == reports[1]
