import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import formula_oracle as oracle
from gicnof import (
    ChannelParameters,
    DegenerateChannelError,
    GridSpec,
    SymmetricPoint,
    analytic_gap_bound,
    deflation_gap,
    exact_gap,
    sweep_symmetric,
    symmetric_params,
)
from gicnof import achievability, converse, gap
from gicnof.geometry import deflate
from conftest import (DRIFT_CHANNEL, as_oracle, channels_with_unit_inr, criterion_8_channels,
                      random_channels, report_hex, swap_users)


def slack(p, rho, mu1, mu2):
    """The outer caps minus the inner caps at one (rho, mu1, mu2)."""
    outer = converse.family_caps(p, [rho])[:, 0]
    return tuple(float(d) for d in outer - achievability.family_caps(p, rho, mu1, mu2))


class TestAnalyticDeltas:
    def test_reference_term_by_term(self, p_star):
        got = slack(p_star, 0.0, 0.5, 0.5)
        want = oracle.delta_components(as_oracle(p_star), 0.0, 0.5, 0.5)
        assert got == pytest.approx(want, rel=1e-9)
        # first component: min(2, 2, 2.0138) - min(1.5, a6+a3, a1+a3+a4)
        assert got[0] == pytest.approx(2.0 - 1.1809601366438187, rel=1e-9)

    def test_matches_oracle_on_random_channels(self):
        rng = np.random.default_rng(151)
        for p in channels_with_unit_inr(20, 157):
            sup = achievability.rho_domain_sup(p)
            rho = float(rng.uniform(0.0, sup)) if sup > 0 else 0.0
            mu1, mu2 = (float(x) for x in rng.uniform(size=2))
            got = slack(p, rho, mu1, mu2)
            want = oracle.delta_components(as_oracle(p), rho, mu1, mu2)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_finite_on_domain_interior(self):
        rng = np.random.default_rng(163)
        count = 0
        for p in random_channels(100, 167):
            sup = achievability.rho_domain_sup(p)
            for _ in range(10):
                rho = float(rng.uniform(0.0, sup)) if sup > 0 else 0.0
                mu1, mu2 = (float(x) for x in rng.uniform(0.05, 0.95, size=2))
                deltas = slack(p, rho, mu1, mu2)
                assert all(np.isfinite(d) for d in deltas)
                count += 1
        assert count == 1000


class TestAnalyticGapBound:
    def test_reference_value(self, p_star):
        assert analytic_gap_bound(p_star) == pytest.approx(3.558312753486, abs=1e-9)

    def test_richer_mu_grid_never_increases(self, p_star):
        coarse = analytic_gap_bound(p_star, GridSpec(rho_points=9, mu_points=2))
        fine = analytic_gap_bound(p_star, GridSpec(rho_points=9, mu_points=11))
        assert fine <= coarse + 1e-12

    def test_strong_feedback_symmetric_channel(self):
        # the additive 2*pi*e constants in the weighted-sum caps keep the
        # analytic bound well above the exact gap here; only the exact gap
        # carries the constant-gap guarantee
        p = symmetric_params(SymmetricPoint(snr=1e5, alpha=1.0, beta=1.0))
        report = exact_gap(p)
        assert report.exact_gap <= 4.5
        assert report.analytic_bound == pytest.approx(5.9256, abs=1e-3)
        assert report.analytic_bound > report.exact_gap


# criterion 8's doubled grids, whose inner pass runs in five rho slabs, and
# two grids whose slabs differ from them: 9 slabs of up to 45 rows at 9
# splits, and slab 0 of the 5 coarse rows then 28 rows in 1 to 3 at 65 splits
DOUBLED_GRIDS = (GridSpec(65, 33, 1024), GridSpec(129, 33, 1024))
BOUND_GRIDS = (GridSpec(129, 9), GridSpec(33, 65))
DOUBLED_GOLDEN = Path(__file__).parent / "golden" / "gap_doubled_hex.json"


def doubled_hex():
    """The multi-slab pass's bits on criterion 8's channels and
    DRIFT_CHANNEL, in that order: exact_gap's reports at DOUBLED_GRIDS, and
    analytic_gap_bound at each of BOUND_GRIDS, as float.hex strings.
    tests/golden/gap_doubled_hex.json holds them as the rho slabs were
    made before each cell's grid-wide terms were made once."""
    channels = criterion_8_channels() + [DRIFT_CHANNEL]
    out = {"exact_gap": [report_hex(exact_gap(p, *DOUBLED_GRIDS)) for p in channels]}
    for g in BOUND_GRIDS:
        out[f"analytic_gap_bound {g.rho_points}x{g.mu_points}"] = [
            float(analytic_gap_bound(p, g)).hex() for p in channels]
    return out


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="the pinned bits are numpy 2's, as the 40 dB surface golden's are")
def test_multi_slab_gaps_are_the_pinned_bits():
    want, got = json.loads(DOUBLED_GOLDEN.read_text()), doubled_hex()
    assert list(got) == list(want)
    for name in want:
        for k, (a, b) in enumerate(zip(got[name], want[name], strict=True)):
            assert a == b, (name, k)


class TestExactGap:
    def test_identical_regions_zero_gap(self, p_star):
        region = achievability.achievable_region(p_star)
        assert deflation_gap(region, region).gap <= 1e-4

    def test_reference_regression(self, p_star):
        report = exact_gap(p_star)
        assert report.exact_gap == pytest.approx(0.5258789, abs=2e-4)
        assert report.exact_gap <= 4.4
        assert report.analytic_bound == pytest.approx(3.558312753486, abs=1e-9)
        # witness sits on the converse sum-rate face
        assert sum(report.witness) == pytest.approx(2.707518749639422 + 0.24, abs=0.01)

    def test_grid_stability_at_reference(self, p_star):
        base = exact_gap(p_star).exact_gap
        dense = exact_gap(p_star, GridSpec(65, 33, 1024), GridSpec(129, 33, 1024)).exact_gap
        assert abs(base - dense) < 1e-2

    def test_feedback_monotonicity(self):
        grid = GridSpec(rho_points=17, mu_points=9)
        weak = ChannelParameters(100.0, 100.0, 20.0, 20.0, 1.0, 1.0)
        strong = ChannelParameters(100.0, 100.0, 20.0, 20.0, 1e4, 1e4)
        r_weak = achievability.achievable_region(weak, grid)
        r_strong = achievability.achievable_region(strong, grid)
        xs = np.linspace(0.0, r_weak.r1_max, 257)
        assert np.all(r_strong.frontier_at(xs) >= r_weak.frontier_at(xs) - 1e-9)

    def test_sandwich_on_random_channels(self):
        for p in random_channels(25, 173):
            inner, outer = gap.regions(p)
            xs = np.linspace(0.0, inner.r1_max, 257)
            assert np.all(inner.frontier_at(xs) <= outer.frontier_at(xs) + 1e-6)
            assert inner.r1_max <= outer.r1_max + 1e-6


# exact_gap used to jump between 0.43 and 1.09 bits under 1e-6 perturbations
# of this channel, when the inner hull dropped a vertex on ulp twins
JUMP_CHANNEL = ChannelParameters(0.12122018419010573, 25.61399884579352, 170320.30831363454,
                                 7677.2898242997735, 0.3410487701846778, 168.03138976708223)


class TestGapProperties:
    def test_swapping_the_users_keeps_the_gap(self):
        for p in random_channels(150, 11):
            assert exact_gap(swap_users(p)).exact_gap == exact_gap(p).exact_gap

    def test_stable_under_tiny_perturbations(self):
        base = exact_gap(JUMP_CHANNEL).exact_gap
        assert base == pytest.approx(0.4297110, abs=1e-6)
        for field in dataclasses.fields(JUMP_CHANNEL):
            for scale in (1.0 - 1e-6, 1.0 + 1e-6):
                value = getattr(JUMP_CHANNEL, field.name) * scale
                p = dataclasses.replace(JUMP_CHANNEL, **{field.name: value})
                assert abs(exact_gap(p).exact_gap - base) < 1e-6

    def test_doubled_grids_barely_move_the_jump_channel(self):
        base = exact_gap(JUMP_CHANNEL).exact_gap
        dense = exact_gap(JUMP_CHANNEL, GridSpec(65, 33, 1024), GridSpec(129, 33, 1024)).exact_gap
        assert abs(dense - base) < 1e-2

    def test_inner_caps_evaluated_once(self, p_star, monkeypatch):
        # the terms once and the caps of the one slab once, for the region
        # and the analytic bound
        calls = []
        for name in ("_coefficients", "_least_of_each"):
            step = getattr(achievability, name)
            monkeypatch.setattr(achievability, name, lambda *args, name=name, step=step:
                                calls.append(name) or step(*args))
        report = exact_gap(p_star)
        assert calls == ["_coefficients", "_least_of_each"]
        monkeypatch.undo()
        assert report.analytic_bound == analytic_gap_bound(p_star)
        inner = achievability.achievable_region(p_star)
        outer = converse.converse_region(p_star)
        assert report.exact_gap == deflation_gap(inner, outer).gap

    def test_converse_caps_evaluated_once(self, p_star, monkeypatch):
        # one evaluation of the converse caps, over the converse grid and the
        # inner rho axis together, and one converse guard per call
        calls = []
        for name in ("_caps_by_family", "_require_defined"):
            f = getattr(converse, name)
            monkeypatch.setattr(converse, name,
                                lambda *args, f=f, name=name: calls.append(name) or f(*args))
        exact_gap(p_star)
        assert sorted(calls) == ["_caps_by_family", "_require_defined"]


class TestVertexForm:
    """The sweep's gap, from the converse polytopes' vertices
    (converse.run_converse_vertices and geometry.deflate), is deflation_gap's
    over the converse envelope, bit for bit."""

    def test_equals_the_envelope_gap(self):
        for p in random_channels(200, 20260401):
            inner = achievability.achievable_region(p)
            want = deflation_gap(inner, converse.converse_region(p)).gap
            (outer,) = converse.run_converse_vertices([p])
            assert deflate(inner, *outer).gap.hex() == want.hex()
        # with all six ratios at -20 dB no rho of the grid is feasible: the
        # bounds exclude the origin, so neither form has a gap to give
        p = ChannelParameters(*[0.01] * 6)
        (got,) = converse.run_converse_vertices([p])
        for f in (converse.converse_region, exact_gap):
            with pytest.raises(DegenerateChannelError, match="no rho of the grid"):
                f(p)
        with pytest.raises(DegenerateChannelError, match="no rho of the grid"):
            raise got


class TestSweepSymmetric:
    def test_single_cell_equals_exact_gap(self):
        snr = 10.0 ** 2.5
        surface = sweep_symmetric(snr, [1.0], [1.0])
        p = symmetric_params(SymmetricPoint(snr=snr, alpha=1.0, beta=1.0))
        assert surface.gaps.shape == (1, 1)
        assert float(surface.gaps[0, 0]).hex() == exact_gap(p).exact_gap.hex()
        assert surface.missing == {}

    def test_deterministic(self):
        a = sweep_symmetric(100.0, [0.5, 1.0], [0.5, 1.5])
        b = sweep_symmetric(100.0, [0.5, 1.0], [0.5, 1.5])
        assert np.array_equal(a.gaps, b.gaps)

    def test_constant_gap_bound_on_small_grid(self):
        surface = sweep_symmetric(10.0 ** 3, [0.3, 0.9, 1.4], [0.2, 1.0, 2.5])
        assert np.nanmax(surface.gaps) <= 4.5

    def test_batched_rows_equal_the_per_cell_gaps(self):
        # each row's hulls are built in one batch; every cell must still be
        # the gap of its own two regions, bit for bit
        snr = 1e4
        alphas, betas = [0.25, 0.7, 1.05, 1.5], [0.1, 0.6, 1.1, 1.7, 2.3, 2.9]
        surface = sweep_symmetric(snr, alphas, betas)
        assert surface.missing == {}
        for ia, alpha in enumerate(alphas):
            for ib, beta in enumerate(betas):
                p = symmetric_params(SymmetricPoint(snr=snr, alpha=alpha, beta=beta))
                want = deflation_gap(*gap.regions(p)).gap
                assert surface.gaps[ia, ib].tobytes() == np.float64(want).tobytes()

    def test_degenerate_row_is_recorded_cell_by_cell(self):
        # alpha = -400 underflows the INR to 0 at 40 dB: every cell of that row
        # is missing with its reason, and the other row is still computed
        surface = sweep_symmetric(1e4, [-400.0, 0.5], [0.5, 1.0])
        assert list(surface.missing) == [(0, 0), (0, 1)]
        assert all("zero INR" in why for why in surface.missing.values())
        assert np.isnan(surface.gaps[0]).all()
        for ib, beta in enumerate([0.5, 1.0]):
            p = symmetric_params(SymmetricPoint(snr=1e4, alpha=0.5, beta=beta))
            assert surface.gaps[1, ib] == exact_gap(p).exact_gap

    def test_invalid_grid_propagates(self):
        with pytest.raises(ValueError, match="mu grids"):
            sweep_symmetric(1e4, [0.5], [0.5, 1.0], GridSpec(33, 1))

    def test_each_cell_of_a_run_keeps_its_own_reason(self):
        # at 100 dB a feedback SNR of snr ** 2.9 overflows the inner bound's
        # feedback power, and at alpha = 1.6 the INR product overflows the
        # converse of every cell: each cell still has exact_gap's gap or
        # reason, the inner reason before the converse one
        for alpha, betas, kinds in ((1.0, [1.0, 2.9, 1.9], [None, "inner", None]),
                                    (1.6, [0.5, 1.5, 0.9], ["converse", "inner", "converse"])):
            got = gap._sweep_chunk(1e100, alpha, betas, achievability.DEFAULT_GRID,
                                   converse.DEFAULT_GRID)
            for beta, cell, kind in zip(betas, got, kinds):
                p = symmetric_params(SymmetricPoint(snr=1e100, alpha=alpha, beta=beta))
                if kind is None:
                    assert cell.hex() == exact_gap(p).exact_gap.hex()
                    continue
                with pytest.raises(DegenerateChannelError) as excinfo:
                    exact_gap(p)
                assert cell == str(excinfo.value) and cell.startswith(f"{kind} bound")

    def test_a_kappa3_cell_leaves_the_others_of_its_run(self):
        # at snr = 1e200 and alpha = 0.1, beta = 0.6 puts both products of
        # kappa_3 beyond the float range and beta = 1.5 the inner feedback
        # power; the other cells keep their gaps.  kappa_3's denominator
        # alone overflows, to +inf, on every cell of the row, and the
        # overflow warning that gives is silenced here
        snr, alpha, betas = 1e200, 0.1, [0.1, 0.6, 1.5, 0.3]
        with np.errstate(over="ignore"):
            got = gap._sweep_chunk(snr, alpha, betas, achievability.DEFAULT_GRID,
                                   converse.DEFAULT_GRID)
            for beta, cell, kind in zip(betas, got, [None, "converse", "inner", None]):
                p = symmetric_params(SymmetricPoint(snr=snr, alpha=alpha, beta=beta))
                if kind is None:
                    assert cell.hex() == deflation_gap(*gap.regions(p)).gap.hex()
                    continue
                with pytest.raises(DegenerateChannelError) as excinfo:
                    exact_gap(p)
                assert cell == str(excinfo.value) and cell.startswith(f"{kind} bound")
        assert "kappa_3" in got[1]

    def test_a_run_makes_each_batch_once(self, monkeypatch):
        # the cells of a run share their forward ratios: one evaluation of
        # the converse caps, one batch_vertices call over the converse
        # columns and one over the coarse clouds, and one converse guard
        # per cell
        calls = []

        def spy(module, name):
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args: calls.append(name) or f(*args))

        spy(converse, "_caps_by_family")
        spy(converse, "_require_defined")
        spy(converse, "batch_vertices")
        spy(achievability, "batch_vertices")
        got = gap._sweep_chunk(1e4, 0.7, [0.1, 0.6, 1.1, 1.7, 2.3, 2.9],
                               achievability.DEFAULT_GRID, converse.DEFAULT_GRID)
        assert all(isinstance(cell, float) for cell in got)
        assert sorted(calls) == ["_caps_by_family"] + ["_require_defined"] * 6 + [
            "batch_vertices", "batch_vertices"]


def run_script(script):
    """Run a Python script in a new interpreter on this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)


def parallel_cpus():
    if gap._cpus() < 2:
        pytest.skip("the parallel sweep needs two CPUs in the affinity mask")


class TestParallelSweep:
    """sweep_symmetric on a pool of forked workers, against the in-process path."""

    def test_parallel_and_in_process_sweeps_are_identical(self, monkeypatch):
        parallel_cpus()
        cases = [(1e4, [-400.0, 0.5, 1.3], [0.1, 0.5, 0.9, 1.4, 2.2, 3.0]),  # row chunks
                 (1e3, [0.7], [0.2, 0.8, 1.6])]                            # a split row
        got = [sweep_symmetric(*case) for case in cases]
        assert gap._POOL is not None
        monkeypatch.setattr(gap, "_cpus", lambda: 1)
        want = [sweep_symmetric(*case) for case in cases]
        for a, b in zip(got, want):
            assert a.gaps.tobytes() == b.gaps.tobytes()
            assert list(a.missing.items()) == list(b.missing.items())
        assert list(got[0].missing) == [(0, ib) for ib in range(6)]
        assert "zero INR" in got[0].missing[(0, 0)]

    def test_chunks_are_rows_or_even_parts_of_rows(self, monkeypatch):
        runs = []

        def spy(snr, alpha, betas, grid, converse_grid):
            runs.append((alpha, len(betas)))
            return [float(b) for b in betas]

        monkeypatch.setattr(gap, "_sweep_chunk", spy)
        monkeypatch.setattr(gap, "_pool", lambda workers: None)  # run in this process
        monkeypatch.setattr(gap, "_cpus", lambda: 2)
        betas = np.linspace(0.1, 1.0, 10)
        surface = sweep_symmetric(1e4, [0.5], betas)
        assert runs == [(0.5, 5), (0.5, 5)]
        assert surface.gaps.tobytes() == betas[None, :].tobytes()
        runs.clear()
        sweep_symmetric(1e4, [0.5, 0.7, 0.9], betas[:3])
        assert runs == [(0.5, 3), (0.7, 3), (0.9, 3)]
        runs.clear()
        monkeypatch.setattr(gap, "_cpus", lambda: 4)
        sweep_symmetric(1e4, [0.5, 0.7], betas[:3])
        assert runs == [(0.5, 1), (0.5, 2), (0.7, 1), (0.7, 2)]
        runs.clear()
        # a run holds the inner caps of at most 5 cells at the default grid
        monkeypatch.setattr(gap, "_cpus", lambda: 1)
        sweep_symmetric(1e4, [0.5], np.linspace(0.1, 3.0, 12))
        assert runs == [(0.5, 4)] * 3
        runs.clear()
        sweep_symmetric(1e4, [0.5], betas[:3], GridSpec(65, 33))
        assert runs == [(0.5, 1)] * 3

    def test_invalid_grid_raises_through_a_worker(self):
        parallel_cpus()
        with pytest.raises(ValueError, match="mu grids") as excinfo:
            sweep_symmetric(1e4, [0.5, 1.0], [0.5, 1.0], GridSpec(33, 1))
        assert type(excinfo.value.__cause__).__name__ == "_RemoteTraceback"

    def test_one_cell_sweep_creates_no_pool(self, monkeypatch):
        monkeypatch.setattr(gap, "_POOL", None)
        sweep_symmetric(100.0, [1.0], [1.0])
        assert gap._POOL is None

    def test_two_sweeps_reuse_the_worker_processes(self):
        parallel_cpus()
        sweep_symmetric(100.0, [0.5, 1.0], [0.5, 1.5])
        pool = gap._POOL
        pids = set(pool._processes)
        sweep_symmetric(100.0, [0.5, 1.0], [0.5, 1.5])
        assert gap._POOL is pool and set(pool._processes) == pids
        assert len(pids) == gap._cpus()

    def test_a_forked_child_sweeps_and_exits_cleanly(self):
        # the child inherits the parent's pool: it must make its own for its
        # sweep, and must not try to join the parent's workers when it exits
        parallel_cpus()
        done = run_script("""
            import os, sys
            from gicnof import gap, sweep_symmetric
            first = sweep_symmetric(1e3, [0.5, 1.0], [0.5, 1.0])
            assert gap._POOL is not None
            pid = os.fork()
            if pid == 0:
                again = sweep_symmetric(1e3, [0.5, 1.0], [0.5, 1.0])
                workers = list(gap._POOL._processes.values())
                own = workers and all(w._parent_pid == os.getpid() for w in workers)
                sys.exit(0 if own and again.gaps.tobytes() == first.gaps.tobytes() else 3)
            _, status = os.waitpid(pid, 0)
            sys.exit(os.waitstatus_to_exitcode(status))
        """)
        assert done.returncode == 0 and done.stderr == "", done.stderr

    @pytest.mark.parametrize("keep", ["", "sys.keep = gap"])
    def test_no_worker_outlives_the_interpreter(self, keep):
        # a script that sweeps and exits leaves no worker alive and nothing
        # on stderr, also when gap outlives the interpreter's last garbage
        # collection (a test runner keeps such references): the pool is
        # then shut down before concurrent.futures' globals are cleared
        parallel_cpus()
        done = run_script(f"""
            import sys
            from gicnof import gap, sweep_symmetric
            sweep_symmetric(1e3, [0.5, 1.0], [0.5, 1.0])
            print(*gap._POOL._processes)
            {keep}
        """)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == gap._cpus()
        deadline = time.monotonic() + 30
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, f"worker {pid} outlived the interpreter"
                time.sleep(0.05)

    def test_importing_gicnof_loads_no_process_pool_module(self):
        # _pool imports multiprocessing and concurrent.futures on first use,
        # so that importing the package stays cheap
        done = run_script("""
            import sys
            import gicnof
            print(sorted(m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules))
        """)
        assert done.returncode == 0 and done.stdout == "[]\n", done.stderr
