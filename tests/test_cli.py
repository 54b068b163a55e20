import json
from pathlib import Path

import numpy as np
import pytest

from gicnof.cli import main, parse_range, CliError

GOLDEN = Path(__file__).parent / "golden"

P_STAR = {"snr_fwd_1": 10, "snr_fwd_2": 10, "inr_12": 5, "inr_21": 5,
          "snr_bwd_1": 10, "snr_bwd_2": 10, "units": "linear"}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(P_STAR))
    return str(path)


@pytest.fixture
def coeffs_file(tmp_path):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({
        "h_fwd_11": 1, "h_fwd_22": 1, "h_12": 1, "h_21": 1,
        "h_bwd_11": 1, "h_bwd_22": 1,
    }))
    return str(path)


class TestParseRange:
    def test_figure_grid_counts(self):
        assert len(parse_range("0.1:1.6:0.05", "--alpha")) == 31
        assert len(parse_range("0.1:3.0:0.05", "--beta")) == 59

    def test_inclusive_endpoints(self):
        vals = parse_range("0.5:1.5:0.25", "--alpha")
        assert vals[0] == pytest.approx(0.5) and vals[-1] == pytest.approx(1.5)

    def test_malformed(self):
        with pytest.raises(CliError):
            parse_range("0.1:1.6", "--alpha")
        with pytest.raises(CliError):
            parse_range("a:b:c", "--alpha")


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
    them changes the numbers the CLI prints.
    """

    @pytest.mark.parametrize("golden, args", [
        ("gap.json", ["gap"]),
        ("region_both.csv", ["region", "--which", "both"]),
        ("classify.txt", ["classify"]),
    ])
    def test_reference_channel(self, golden, args, params_file, capsysbinary):
        assert main(args + ["--params", params_file]) == 0
        assert capsysbinary.readouterr().out == (GOLDEN / golden).read_bytes()

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
