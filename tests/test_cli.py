"""Command-line entry points: artifacts, determinism, and exit codes."""

import json

import pytest

from chronokey import cli


def _run(*args):
    return cli.main(list(args))


def _read(path):
    return path.read_bytes()


class TestAnalyze:
    def test_writes_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("analyze", "--out", str(a)) == 0
        assert _run("analyze", "--out", str(b)) == 0
        assert _read(a / "analyze.json") == _read(b / "analyze.json")

    def test_report_contents(self, tmp_path):
        assert _run("analyze", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "analyze.json").read_text())
        assert report["design"]["mod_depth"] == pytest.approx(60.0)
        assert report["security"]["uncertainty_bound"] == pytest.approx(
            3.9145305353061126, abs=1e-9
        )
        assert report["security"]["binning_deficit"] == pytest.approx(
            0.085469464693887368, abs=1e-9
        )
        assert report["channel"]["error_probability"] == pytest.approx(
            2.9635571374747156e-4, rel=1e-9
        )

    def test_both_uncertainty_bounds_are_one_value(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": {"m": 8, "delta_omega": 1.7}}))
        assert _run("analyze", "--config", str(config), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "analyze.json").read_text())
        assert (
            report["key_rate"]["entropy_route"]["uncertainty_bound"]
            == report["security"]["uncertainty_bound"]
        )


@pytest.mark.filterwarnings("ignore::chronokey.PureNoiseWarning")
@pytest.mark.parametrize(
    "document,expected",
    [({"channel": {"pair_probability": 0.0}}, True), ({}, False)],
    ids=["no-pairs", "defaults"],
)
def test_pure_noise_flag_in_reports(tmp_path, document, expected):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(document))
    assert _run("analyze", "--config", str(config), "--out", str(tmp_path)) == 0
    assert (
        _run("montecarlo", "--config", str(config), "--rounds", "2000", "--out", str(tmp_path))
        == 0
    )
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert report["channel"]["pure_noise"] is expected
    simulated = json.loads((tmp_path / "montecarlo.json").read_text())
    assert simulated["error_probability"]["pure_noise"] is expected


class TestSweep:
    def test_deterministic_csv_and_json(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("sweep", "--out", str(a)) == 0
        assert _run("sweep", "--out", str(b)) == 0
        assert _read(a / "sweep.csv") == _read(b / "sweep.csv")
        assert _read(a / "sweep.json") == _read(b / "sweep.json")
        lines = (a / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 12  # header plus the default 11 sweep points
        assert lines[0].startswith("parameter,value,error_probability")

    def test_empty_sweep_writes_header_only(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"values": []}}))
        out = tmp_path / "out"
        assert _run("sweep", "--config", str(config), "--out", str(out)) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_sweep_rows_track_the_channel(self, tmp_path):
        assert _run("sweep", "--out", str(tmp_path)) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        errors = [row["error_probability"] for row in rows]
        assert all(a < b for a, b in zip(errors, errors[1:]))
        keys = [row["secret_key"] for row in rows]
        assert all(a > b for a, b in zip(keys, keys[1:]))


class TestAlphabetScan:
    def test_summary_marks_peak_decline_and_crossing(self, tmp_path):
        assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", "16") == 0
        payload = json.loads((tmp_path / "alphabet_scan.json").read_text())
        assert payload["summary"]["best_alphabet_bits"] == 11
        assert payload["summary"]["first_declining_bits"] == 12
        assert payload["summary"]["zero_crossing_bits"] == 15
        assert len(payload["rows"]) == 16
        lines = (tmp_path / "alphabet_scan.csv").read_text().strip().splitlines()
        assert len(lines) == 17

    def test_small_scan_grows_monotonically(self, tmp_path):
        assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", "6") == 0
        payload = json.loads((tmp_path / "alphabet_scan.json").read_text())
        keys = [row["secret_key"] for row in payload["rows"]]
        assert len(keys) == 6
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestMonteCarlo:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        base = ("montecarlo", "--rounds", "200000", "--seed", "7")
        assert _run(*base, "--out", str(a)) == 0
        assert _run(*base, "--out", str(b)) == 0
        assert _run(*base, "--out", str(c), "--threads", "4") == 0
        assert _read(a / "montecarlo.json") == _read(b / "montecarlo.json")
        assert _read(a / "montecarlo.json") == _read(c / "montecarlo.json")

    def test_ledger_accounting_in_the_report(self, tmp_path):
        assert (
            _run("montecarlo", "--rounds", "50000", "--seed", "11", "--out", str(tmp_path))
            == 0
        )
        payload = json.loads((tmp_path / "montecarlo.json").read_text())
        counts = payload["counts"]
        assert (
            counts["no_click"]
            + counts["multi_click_discarded"]
            + counts["basis_mismatch"]
            + counts["sifted"]
            == counts["rounds"]
        )
        assert payload["error_probability"]["closed_form"] == pytest.approx(
            2.9635571374747156e-4, rel=1e-9
        )


class TestFeasibilitySubcommand:
    def test_defaults_are_feasible(self, tmp_path):
        assert _run("feasibility", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["feasible"] is True
        assert payload["required_depth"] == pytest.approx(60.0)
        assert set(payload["conventions"]) == {"ordinary", "angular"}


class TestErrorHandling:
    def test_bad_config_exits_with_error_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"channel": {"dark_counts": 1}}))
        assert _run("analyze", "--config", str(config)) == 2
        assert "dark_counts" in capsys.readouterr().err

    def test_missing_config_exits_with_error_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert _run("analyze", "--config", str(missing)) == 2
        assert capsys.readouterr().err.startswith("error:")
