"""Command-line entry points: artifacts, determinism, and exit codes."""

import json

import numpy as np
import pytest

import chronokey as ck
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


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_channel_past_the_signal_underflow(tmp_path, command):
    # 400 attenuation lengths: the transmission is positive, eps*eta**2 is 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"channel": {"length": 400.0}}))
    assert _run(command, "--config", str(config), "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / f"{command}.json").read_text())
    channels = [report["channel"]] if command == "analyze" else report["rows"]
    assert [row["error_probability"] for row in channels] == [15 / 16] * len(channels)


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

    def test_sweep_over_an_integer_key(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"parameter": "protocol.m", "values": [4, 8]}}))
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path)) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [row["value"] for row in rows] == [4, 8]
        expected = [
            ck.simplified_key_rate(row["value"], row["error_probability"]).secret_key
            for row in rows
        ]
        assert [row["secret_key"] for row in rows] == pytest.approx(expected, rel=1e-12)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert [line.split(",")[1] for line in lines[1:]] == ["4", "8"]


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

    def test_key_never_exceeds_the_alphabet(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": {"beta_plus": 0.5, "beta_minus": 0.4}}))
        args = ("alphabet-scan", "--config", str(config), "--out", str(tmp_path))
        assert _run(*args, "--max-bits", "16") == 0
        rows = json.loads((tmp_path / "alphabet_scan.json").read_text())["rows"]
        assert all(row["secret_key"] <= row["alphabet_bits"] for row in rows)

    def test_rows_say_when_the_key_is_clamped(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": {"beta_plus": 0.5, "beta_minus": 0.4}}))
        args = ("alphabet-scan", "--config", str(config), "--out", str(tmp_path))
        assert _run(*args, "--max-bits", "12") == 0
        rows = json.loads((tmp_path / "alphabet_scan.json").read_text())["rows"]
        expected = [
            ck.simplified_key_rate(row["m"], row["error_probability"], 0.5, 0.4).clamped
            for row in rows
        ]
        assert [row["clamped"] for row in rows] == expected
        assert expected[:8] == [True] * 8 and not all(expected)
        lines = (tmp_path / "alphabet_scan.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[-1] == "clamped"
        assert [line.split(",")[-1] for line in lines[1:]] == [str(c).lower() for c in expected]

    def test_scan_past_float_kappa_saturates(self, tmp_path):
        assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", "600") == 0
        rows = json.loads((tmp_path / "alphabet_scan.json").read_text())["rows"]
        assert [row["error_probability"] for row in rows[-80:]] == [1.0] * 80


@pytest.mark.parametrize("bits", [4, 12])
def test_analyze_and_alphabet_scan_share_one_key_chain(tmp_path, bits):
    m = 2**bits
    document = {"protocol": {"m": m}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(document))
    assert _run("analyze", "--config", str(config), "--out", str(tmp_path)) == 0
    assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", str(bits)) == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    row = json.loads((tmp_path / "alphabet_scan.json").read_text())["rows"][-1]
    p = ck.error_probability(ck.RunConfig.from_dict(document).channel_model())
    expected = ck.simplified_key_rate(m, p).secret_key
    assert row["m"] == m
    assert report["key_rate"]["entropy_route"]["secret_key"] == row["secret_key"] == expected


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

    def test_ideal_delta_reports_no_discarded_mass(self, tmp_path):
        assert _run("montecarlo", "--rounds", "1000", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "montecarlo.json").read_text())
        assert payload["frequency"]["out_of_window"] is None
        assert payload["time"]["out_of_window"] is None

    def test_sampled_jsa_reports_discarded_mass(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "protocol": {"m": 8},
            "simulation": {"rounds": 20000, "seed": 3, "correlation_model": "sampled-jsa"},
        }))
        with pytest.warns(ck.CoverageWarning) as caught:
            assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 0
        assert len(caught) == 2
        payload = json.loads((tmp_path / "montecarlo.json").read_text())
        scheme = ck.load_config(config).binning()
        lens = ck.design_time_lens(scheme)
        for basis in ("frequency", "time"):
            with pytest.warns(ck.CoverageWarning):
                expected = ck.gaussian_outcome_distribution(
                    scheme, lens, *scheme.matched_widths(), basis
                )
            assert payload[basis]["out_of_window"] == expected.out_of_window
            assert 0.15 < payload[basis]["out_of_window"] < 0.25

    def test_key_rate_is_null_without_sifted_time_rounds(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulation": {"rounds": 20000, "basis_probability": 1.0}}))
        assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "montecarlo.json").read_text())
        assert payload["key_rate"] is None
        assert np.sum(payload["time"]["counts"]) == 0
        assert np.sum(payload["frequency"]["counts"]) > 0


@pytest.mark.filterwarnings("ignore::chronokey.CoverageWarning")
@pytest.mark.parametrize(
    "document",
    [
        {"simulation": {"rounds": 400000, "seed": 5}},
        {
            "protocol": {"m": 8},
            "channel": {"pair_probability": 1.0, "detector_efficiency": 1.0, "length": 0.0,
                        "dark_probability": 1e-3},
            "simulation": {"rounds": 20000, "seed": 3, "shard_size": 6000, "threads": 2,
                           "correlation_model": "sampled-jsa",
                           "multi_click_policy": "random-assign"},
        },
    ],
    ids=["defaults-m16", "sampled-jsa-m8"],
)
def test_montecarlo_basis_blocks_hold_the_ledger_counts(tmp_path, document):
    """Each basis block is the ledger's joint counts and the discarded window
    mass; the relative frequencies follow from the counts bit for bit."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(document))
    assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "montecarlo.json").read_text())
    run = ck.load_config(config)
    dists = {"frequency": None, "time": None}
    if run.simulation.correlation_model == "sampled-jsa":
        scheme = run.binning()
        lens = ck.design_time_lens(scheme)
        dists = {
            basis: ck.gaussian_outcome_distribution(scheme, lens, *scheme.matched_widths(), basis)
            for basis in dists
        }
    ledger = ck.simulate_rounds(
        run.simulation_config(), run.channel_model(), dists["frequency"], dists["time"]
    )
    joint = {"frequency": ledger.joint_counts_frequency, "time": ledger.joint_counts_time}
    for basis, matrix in joint.items():
        block = payload[basis]
        assert set(block) == {"counts", "out_of_window"}
        counts = np.asarray(block["counts"])
        assert counts.shape == (run.protocol.m, run.protocol.m)
        assert np.array_equal(counts, matrix)
        total = int(counts.sum())
        assert total > 0
        expected = ck.empirical_distribution(ledger, basis)
        assert np.array_equal(counts / total, expected.probabilities)


class TestFeasibilitySubcommand:
    def test_defaults_are_feasible(self, tmp_path):
        assert _run("feasibility", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "feasibility.json").read_text())
        assert payload["feasible"] is True
        assert payload["required_depth"] == pytest.approx(60.0)
        assert set(payload["conventions"]) == {"ordinary", "angular"}


class TestErrorHandling:
    @pytest.mark.parametrize(
        "command,document,key",
        [
            ("analyze", {"channel": {"dark_counts": 1}}, "dark_counts"),
            ("sweep", {"sweep": {"num": 2.5}}, "num"),
            ("sweep", {"sweep": {"values": [1e-6, "x"]}}, "values"),
            ("sweep", {"sweep": {"parameter": 5}}, "parameter"),
            ("sweep", {"sweep": {"parameter": "protocol.m", "values": [4, 4.5]}}, "m"),
        ],
        ids=[
            "unknown-key", "fractional-num", "non-numeric-value", "non-string-parameter",
            "fractional-integer-sweep",
        ],
    )
    def test_bad_config_exits_with_error_code(self, tmp_path, capsys, command, document, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        assert _run(command, "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(key) in err

    @pytest.mark.parametrize("bits", ["0", "-3"])
    def test_alphabet_scan_refuses_max_bits_below_one(self, tmp_path, capsys, bits):
        assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", bits) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "alphabet_scan.json").exists()

    @pytest.mark.parametrize(
        "hardware",
        [
            '{"spectrometer_resolution": 1e-320, "resolution_kind": "frequency"}',
            '{"center_wavelength": Infinity}',
            '{"center_wavelength": 1e200}',
            '{"spectrometer_resolution": 1e-150, "resolution_kind": "frequency"}',
        ],
    )
    def test_unrepresentable_hardware_exits_with_error_code(self, tmp_path, capsys, hardware):
        config = tmp_path / "cfg.json"
        config.write_text('{"hardware": %s}' % hardware)
        assert _run("feasibility", "--config", str(config), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "feasibility.json").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_artifacts_refuse_non_finite_numbers(self, tmp_path, bad):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "artifact.json", {"rows": [{"value": bad}]})

    @pytest.mark.parametrize("threads", ["2.5", "true", "0"])
    def test_bad_thread_count_exits_with_error_code(self, tmp_path, capsys, threads):
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"simulation": {"rounds": 3000, "shard_size": 1000, "threads": %s}}' % threads
        )
        assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "montecarlo.json").exists()

    @pytest.mark.parametrize("delta_omega", [1e200, 1e-200])
    @pytest.mark.parametrize("command", ["analyze", "montecarlo"])
    def test_unrepresentable_lens_exits_with_error_code(self, tmp_path, capsys, command, delta_omega):
        # The modulator frequency squared overflows, or underflows to 0.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": {"delta_omega": delta_omega}}))
        assert _run(command, "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "focusing rate" in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("*.json")) == [config]

    def test_alphabet_scan_past_the_float_range_exits_with_error_code(self, tmp_path, capsys):
        assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", "1030") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alphabet size 2**1024")
        assert "nan" not in err
        assert not (tmp_path / "alphabet_scan.json").exists()

    def test_missing_config_exits_with_error_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert _run("analyze", "--config", str(missing)) == 2
        assert capsys.readouterr().err.startswith("error:")
