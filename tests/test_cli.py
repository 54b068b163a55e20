import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gicnof import ChannelParameters, DegenerateChannelError, exact_gap
from gicnof.cli import main, _parse_range
from test_converse import CHANNEL_K3_OVERFLOW, CHANNEL_K6_1, CHANNEL_K6_2, CHANNEL_K6_3

GOLDEN = Path(__file__).parent / "golden"

P_STAR = {"snr_fwd_1": 10, "snr_fwd_2": 10, "inr_12": 5, "inr_21": 5,
          "snr_bwd_1": 10, "snr_bwd_2": 10, "units": "linear"}
# the channels of sum-cap variants 1, 2 and 3, whose two halves H_1 and H_2
# take the b1 form, the b1 and the b6 form, and the b6 and the b1 form; P_STAR
# is variant 4
K6_PARAMS = {n: {**dataclasses.asdict(p), "units": "linear"}
             for n, p in ((1, CHANNEL_K6_1), (2, CHANNEL_K6_2), (3, CHANNEL_K6_3))}
# an INR below 1, where rho_domain_sup is 0 and the inner rho axis is [0.0]
P_SUBUNITY = {"snr_fwd_1": 30.0, "snr_fwd_2": 20.0, "inr_12": 0.5, "inr_21": 8.0,
              "snr_bwd_1": 15.0, "snr_bwd_2": 40.0, "units": "linear"}
C_STAR = {"h_fwd_11": 1, "h_fwd_22": 1, "h_12": 1, "h_21": 1, "h_bwd_11": 1, "h_bwd_22": 1}
C_ASYM = {"h_fwd_11": 1.3, "h_fwd_22": 0.7, "h_12": 0.4, "h_21": 1.1,
          "h_bwd_11": 0.9, "h_bwd_22": 0.2}


def run_gicnof(*args):
    """The CLI in a new interpreter that turns numpy RuntimeWarnings into errors."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gicnof", *args],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")})


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(P_STAR))
    return str(path)


@pytest.fixture
def coeffs_file(tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(C_STAR))
    return str(path)


class TestParseRange:
    def test_figure_grid_counts(self):
        assert len(_parse_range("0.1:1.6:0.05", "--alpha")) == 31
        assert len(_parse_range("0.1:3.0:0.05", "--beta")) == 59

    def test_inclusive_endpoints(self):
        vals = _parse_range("0.5:1.5:0.25", "--alpha")
        assert vals[0] == pytest.approx(0.5) and vals[-1] == pytest.approx(1.5)

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_range("0.1:1.6", "--alpha")
        with pytest.raises(ValueError):
            _parse_range("a:b:c", "--alpha")


class TestClassify(object):
    def test_reference_channel(self, params_file, capsys):
        assert main(["classify", "--params", params_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "S4,S4"
        assert out[1] == "kappa6_variant=4"
        assert out[2] == "kappa7_variants=2,2"


class TestGap:
    def test_reference_channel(self, params_file, tmp_path):
        out = tmp_path / "gap.json"
        assert main(["gap", "--params", params_file, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["exact_gap"] <= 4.4
        assert data["event_pair"] == "S4,S4"
        assert len(data["delta_components"]) == 5
        assert data["witness_r1"] >= 0 and data["witness_r2"] >= 0

    def test_db_units_equivalent(self, tmp_path):
        in_db = dict(P_STAR)
        in_db.update({"snr_fwd_1": 10.0, "snr_fwd_2": 10.0,
                      "inr_12": 10 * np.log10(5), "inr_21": 10 * np.log10(5),
                      "snr_bwd_1": 10.0, "snr_bwd_2": 10.0, "units": "db"})
        fa = tmp_path / "a.json"
        fb = tmp_path / "b.json"
        fa.write_text(json.dumps(P_STAR))
        fb.write_text(json.dumps(in_db))
        oa, ob = tmp_path / "a.out", tmp_path / "b.out"
        assert main(["gap", "--params", str(fa), "--out", str(oa)]) == 0
        assert main(["gap", "--params", str(fb), "--out", str(ob)]) == 0
        ra, rb = json.loads(oa.read_text()), json.loads(ob.read_text())
        assert ra["exact_gap"] == pytest.approx(rb["exact_gap"], abs=1e-5)


class TestRegion:
    def test_csv_round_trip(self, params_file, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", "--params", params_file, "--which", "both",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "which,kind,r1,r2"
        kinds = {tuple(l.split(",")[:2]) for l in lines[1:]}
        assert kinds == {("achievable", "vertex"), ("achievable", "frontier"),
                         ("converse", "vertex"), ("converse", "frontier")}
        for line in lines[1:]:
            which, kind, r1, r2 = line.split(",")
            assert float(r1) >= 0.0 and float(r2) >= -1e-9
            # parses back at the emitted precision
            assert f"{float(r1):.6f}" == r1

    def test_byte_identical_reruns(self, params_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["region", "--params", params_file, "--which", "achievable",
                "--rho-steps", "9", "--mu-steps", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweep:
    def test_cell_count_and_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--snr-db", "20", "--alpha", "0.5:0.6:0.05",
                     "--beta", "1.0:2.0:0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,exact_gap,status"
        assert len(lines) == 1 + 3 * 3
        assert all(line.endswith(",ok") for line in lines[1:])


class TestGolden:
    """Byte-for-byte outputs on the reference channel, pinned across commits.

    The files under tests/golden/ were captured before the bound formulas were
    collapsed onto the per-family caps arrays; a change that alters any of
    them changes the numbers the CLI prints.  The *_k6_* files, captured
    before the converse caps were rewritten over shared per-user terms, pin
    the channels whose two halves of the sum cap take different forms.
    gap_subunity.json, captured before exact_gap evaluated the converse caps
    once over both rho grids, pins a channel whose inner rho axis is the one
    point 0.0.  The
    simulate_*.json files, captured before the channel model was rewritten
    over one nonnegativity rule and one estimator map, pin the generator's
    draw order and the estimator's fields on gains no two of which are equal.
    """

    @pytest.mark.parametrize("golden, args", [
        ("gap.json", ["gap"]),
        ("region_both.csv", ["region", "--which", "both"]),
        ("classify.txt", ["classify"]),
    ])
    def test_reference_channel(self, golden, args, params_file, capsysbinary):
        assert main(args + ["--params", params_file]) == 0
        assert capsysbinary.readouterr().out == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("variant", sorted(K6_PARAMS))
    @pytest.mark.parametrize("golden, args", [
        ("gap_k6_{}.json", ["gap"]),
        ("region_converse_k6_{}.csv", ["region", "--which", "converse"]),
    ])
    def test_sum_cap_variant_channel(self, golden, args, variant, tmp_path, capsysbinary):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(K6_PARAMS[variant]))
        assert main(args + ["--params", str(params)]) == 0
        assert capsysbinary.readouterr().out == (GOLDEN / golden.format(variant)).read_bytes()

    def test_sub_unity_inr_channel(self, tmp_path, capsysbinary):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(P_SUBUNITY))
        assert main(["gap", "--params", str(params)]) == 0
        assert capsysbinary.readouterr().out == (GOLDEN / "gap_subunity.json").read_bytes()

    @pytest.mark.parametrize("mode", ["independent", "correlated"])
    def test_simulate_asymmetric_gains(self, mode, tmp_path, capsysbinary):
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(C_ASYM))
        assert main(["simulate", "--coeffs", str(coeffs), "--samples", "2000",
                     "--seed", "9", "--mode", mode]) == 0
        assert capsysbinary.readouterr().out == (GOLDEN / f"simulate_{mode}.json").read_bytes()

    def test_sweep_30db(self, capsysbinary):
        assert main(["sweep", "--snr-db", "30", "--alpha", "0.5:1.0:0.25",
                     "--beta", "0.5:1.5:0.5"]) == 0
        assert capsysbinary.readouterr().out == (GOLDEN / "sweep_30db.csv").read_bytes()


class TestSimulate:
    def test_empirical_matches_derived(self, coeffs_file, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--coeffs", coeffs_file, "--samples", "200000",
                     "--seed", "9", "--mode", "correlated", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["derived"]["snr_bwd_1"] == pytest.approx(5.0)
        err = abs(data["empirical"]["snr_bwd_1"] - 5.0)
        assert err < 4 * data["stderr"]["snr_bwd_1"]


class TestExitCodes:
    def test_missing_field_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        payload = dict(P_STAR)
        del payload["inr_21"]
        bad.write_text(json.dumps(payload))
        assert main(["gap", "--params", str(bad)]) == 1
        assert "inr_21" in capsys.readouterr().err

    def test_bad_units(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(P_STAR, units="watts")))
        assert main(["classify", "--params", str(bad)]) == 1
        assert "units" in capsys.readouterr().err

    def test_degenerate_channel_exit_2(self, tmp_path):
        zero_inr = dict(P_STAR, inr_12=0.0)
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(zero_inr))
        assert main(["gap", "--params", str(path)]) == 2

    def test_unknown_flag(self, params_file, capsys):
        assert main(["gap", "--params", params_file, "--bogus"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_nonexistent_file(self, capsys):
        assert main(["gap", "--params", "/does/not/exist.json"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "mangled.json"
        path.write_text("{not json")
        assert main(["classify", "--params", str(path)]) == 1

    # each input, its one stderr line ({name} is the path of input file name)
    @pytest.mark.parametrize("args, line", [
        (["gap", "--params", "{array}"], "error: {array} must contain a JSON object"),
        (["gap", "--params", "{nan}"], "error: field 'inr_12' must be a finite number, got nan"),
        (["gap", "--params", "{negative}"],
         "error: field 'snr_bwd_2' must be >= 0 in linear scale, got -1.0"),
        (["simulate", "--samples", "100", "--coeffs", "{negative_coeff}"],
         "error: field 'h_21' must be a finite number >= 0, got -0.5"),
        (["simulate", "--samples", "1", "--coeffs", "{coeffs}"],
         "error: delay (1) must be smaller than block_length (1)"),
        (["sweep", "--snr-db", "30", "--alpha", "1:0:1", "--beta", "1:1:1"],
         "error: flag '--alpha': need stop >= start and step > 0 in '1:0:1'"),
        (["gap", "--params", "{params}", "--mu-steps", "1"],
         "error: mu grids need at least 2 points"),
        (["gap", "--params", "{params}", "--frontier-samples", "1"],
         "error: grid resolutions must be positive (frontier_samples >= 2)"),
        (["sweep", "--snr-db", "0", "--alpha", "1:1:1", "--beta", "1:1:1"],
         "error: flag '--snr-db': the symmetric sweep needs snr > 1 (0 dB)"),
        # inputs whose linear value overflows a float
        (["gap", "--params", "{db_overflow}"],
         "error: field 'snr_fwd_1': 4000.0 dB is too large for a float in linear scale"),
        (["sweep", "--snr-db", "4000", "--alpha", "1:1:1", "--beta", "1:1:1"],
         "error: flag '--snr-db': 4000.0 dB is too large for a float in linear scale"),
        (["sweep", "--snr-db", "40", "--alpha", "80:80:1", "--beta", "1:1:1"],
         "error: snr ** alpha is too large for a float (snr=10000.0, alpha=80.0)"),
        (["sweep", "--snr-db", "40", "--alpha", "0.5:0.5:1", "--beta", "90:90:1"],
         "error: snr ** beta is too large for a float (snr=10000.0, beta=90.0)"),
    ])
    def test_input_error_line(self, args, line, tmp_path, capsys):
        files = {
            "array": [1, 2],
            "nan": dict(P_STAR, inr_12=float("nan")),
            "negative": dict(P_STAR, snr_bwd_2=-1),
            "db_overflow": dict(P_STAR, units="db", snr_fwd_1=4000),
            "params": P_STAR,
            "coeffs": C_STAR,
            "negative_coeff": dict(C_STAR, h_21=-0.5),
        }
        paths = {}
        for name, payload in files.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(payload))
        assert main([a.format(**paths) for a in args]) == 1
        assert capsys.readouterr().err == line.format(**paths) + "\n"

    def test_zero_inr_cell_is_missing(self, capsys):
        assert main(["sweep", "--snr-db", "40", "--alpha=-400:-400:1", "--beta", "1:1:1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "-400.000000,1.000000,nan,"
            "missing:inner bound is undefined for zero INR (inr_12=0.0, inr_21=0.0)")

    def test_overflowing_inr_product_cells_are_missing(self, tmp_path):
        # at 40 dB, alpha = 39 and 40 give INRs of 1e156 and 1e160, whose
        # product overflows a float: those cells are missing, with no numpy
        # warning from the (forked) workers, and gap exits 2 on such a channel
        done = run_gicnof("sweep", "--snr-db", "40", "--alpha", "38:40:1", "--beta", "1:1:1")
        assert (done.returncode, done.stderr) == (0, "")
        rows = done.stdout.splitlines()[1:]
        assert rows[0] == "38.000000,1.000000,0.500016,ok"
        for row, (alpha, inr) in zip(rows[1:], ((39, "1e+156"), (40, "1e+160"))):
            assert row == (f"{alpha}.000000,1.000000,nan,missing:converse bound is undefined"
                           f" for an INR product beyond the float range"
                           f" (inr_12={inr}, inr_21={inr})")
        params = tmp_path / "huge.json"
        params.write_text(json.dumps(dict(P_STAR, inr_12=1e156, inr_21=1e156)))
        done = run_gicnof("gap", "--params", str(params))
        assert done.returncode == 2 and len(done.stderr.splitlines()) == 1, done.stderr

    # all six ratios at -20 dB; and a sub-unity channel whose b6-form log
    # argument is zero or negative, with no numpy warning on the way
    @pytest.mark.parametrize("channel", [
        {**{name: -20 for name in P_STAR if name != "units"}, "units": "db"},
        dict(P_STAR, snr_fwd_1=1e-30, snr_fwd_2=1e-30, inr_12=1e-30, inr_21=1e4,
             snr_bwd_1=1e-3, snr_bwd_2=1e-3),
    ])
    @pytest.mark.parametrize("command", [["gap"], ["region", "--which", "converse"]])
    def test_no_feasible_rho_exits_2(self, channel, command, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(channel))
        done = run_gicnof(*command, "--params", str(params))
        assert done.returncode == 2 and done.stdout == "", done.stderr
        assert done.stderr == ("degenerate channel: converse bound is undefined: no rho of"
                               " the grid gives a polytope containing the origin\n")

    # a product the inner caps form beyond the float range: snr_bwd_1 *
    # (inr_12 + 1), and snr_fwd_2 * inr_21
    @pytest.mark.parametrize("channel, reason", [
        (ChannelParameters(1e4, 1e4, 1e150, 1.0, 1e300, 1e300),
         "(snr_fwd_1=10000.0, inr_12=1e+150, snr_bwd_1=1e+300)"),
        (ChannelParameters(1e150, 1e150, 1e-30, 1e200, 1e-3, 1e-3),
         "(snr_fwd_2=1e+150, inr_21=1e+200, snr_bwd_2=0.001)"),
    ], ids=["feedback_power", "cross_term"])
    def test_inner_power_product_overflow_exits_2(self, channel, reason, tmp_path):
        self.assert_refused(
            channel, f"inner bound is undefined for a power product beyond the float range {reason}",
            tmp_path)

    def test_kappa3_overflow_exits_2(self, tmp_path):
        # where it printed "analytic_bound": NaN, which is not JSON, and
        # exited 0
        self.assert_refused(
            CHANNEL_K3_OVERFLOW,
            "converse bound is undefined for a kappa_3 of user 1 whose two products are beyond"
            " the float range (snr_fwd_1=1e+150, snr_fwd_2=1e+200, inr_21=1e-30,"
            " snr_bwd_2=1e+300)", tmp_path)

    @staticmethod
    def assert_refused(channel, line, tmp_path):
        """exact_gap raises line, and gap exits 2 with it as its one
        stderr line, no output and no numpy warning."""
        with pytest.raises(DegenerateChannelError) as exc:
            exact_gap(channel)
        assert str(exc.value) == line
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**dataclasses.asdict(channel), "units": "linear"}))
        done = run_gicnof("gap", "--params", str(params))
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        assert done.stderr == f"degenerate channel: {line}\n"
