"""Command-line entry points: artifacts, determinism, and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import chronokey as ck
from chronokey import cli
from chronokey import config as config_module

# frozen: the artifacts of a sweep over protocol.m at the values [4.0, 8.0]
SWEEP_M_CSV = (
    b"parameter,value,error_probability,mutual_information,secret_key,clamped\r\n"
    b"protocol.m,4,5.924686354775264e-05,1.9989886254384719,1.9125077861830564,false\r\n"
    b"protocol.m,8,0.0001382615731321401,2.997639838672673,2.9098102126514584,false\r\n"
)
SWEEP_M_JSON = (
    b'{"parameter": "protocol.m", "rows": ['
    b'{"clamped": false, "error_probability": 5.924686354775264e-05, '
    b'"mutual_information": 1.9989886254384719, "parameter": "protocol.m", '
    b'"secret_key": 1.9125077861830564, "value": 4}, '
    b'{"clamped": false, "error_probability": 0.0001382615731321401, '
    b'"mutual_information": 2.997639838672673, "parameter": "protocol.m", '
    b'"secret_key": 2.9098102126514584, "value": 8}]}\n'
)
SWEEP_LENGTH_CSV = (
    b"parameter,value,error_probability,mutual_information,secret_key,clamped\r\n"
    b"channel.length,1.0,0.00029635571374747154,3.994941280767153,3.9044130968404183,false\r\n"
    b"channel.length,2.0,0.0008577883109856142,3.986673351547213,3.887877238400538,false\r\n"
)
SWEEP_LENGTH_JSON = (
    b'{"parameter": "channel.length", "rows": ['
    b'{"clamped": false, "error_probability": 0.00029635571374747154, '
    b'"mutual_information": 3.994941280767153, "parameter": "channel.length", '
    b'"secret_key": 3.9044130968404183, "value": 1.0}, '
    b'{"clamped": false, "error_probability": 0.0008577883109856142, '
    b'"mutual_information": 3.986673351547213, "parameter": "channel.length", '
    b'"secret_key": 3.887877238400538, "value": 2.0}]}\n'
)


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

    def test_integral_floats_of_an_integer_key_are_written_as_ints(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"parameter": "protocol.m", "values": [4.0, 8.0]}}))
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path)) == 0
        assert _read(tmp_path / "sweep.csv") == SWEEP_M_CSV
        assert _read(tmp_path / "sweep.json") == SWEEP_M_JSON

    def test_float_key_loaded_as_an_int_is_swept_as_floats(self, tmp_path):
        config = tmp_path / "cfg.json"
        document = {"channel": {"length": 1}, "sweep": {"parameter": "channel.length"}}
        document["sweep"]["values"] = [0.5, 2.0]
        config.write_text(json.dumps(document))
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path / "a")) == 0
        rows = json.loads((tmp_path / "a" / "sweep.json").read_text())["rows"]
        assert [row["value"] for row in rows] == [0.5, 2.0]
        document["sweep"]["values"] = [1.0, 2.0]
        config.write_text(json.dumps(document))
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path / "b")) == 0
        assert _read(tmp_path / "b" / "sweep.csv") == SWEEP_LENGTH_CSV
        assert _read(tmp_path / "b" / "sweep.json") == SWEEP_LENGTH_JSON

    def test_integers_past_2_53_keep_their_value(self, tmp_path, monkeypatch):
        m = 2**53 + 1  # the nearest float is 2**53
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"parameter": "protocol.m", "values": [m]}}))
        evaluated = []
        original = cli._closed_form_key_rates

        def recording(point):
            evaluated.append(point.protocol.m)
            return original(point)

        monkeypatch.setattr(cli, "_closed_form_key_rates", recording)
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path)) == 0
        assert evaluated == [m]
        assert json.loads((tmp_path / "sweep.json").read_text())["rows"][0]["value"] == m
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[1].split(",")[1] == str(m)

    def test_each_point_rebuilds_only_the_swept_section(self, tmp_path, monkeypatch):
        built = []
        original = config_module._build_section

        def recording(name, cls, data):
            built.append(name)
            return original(name, cls, data)

        monkeypatch.setattr(config_module, "_build_section", recording)
        assert _run("sweep", "--out", str(tmp_path)) == 0
        assert built == ["channel"] * 11


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

    def test_overrides_write_what_a_config_file_writes(self, tmp_path):
        base, full = tmp_path / "base.json", tmp_path / "full.json"
        base.write_text(json.dumps({"protocol": {"m": 8}, "simulation": {"rounds": 5000}}))
        full.write_text(json.dumps({"protocol": {"m": 8}, "simulation": {"rounds": 30000, "seed": 21}}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run("montecarlo", "--config", str(base), "--rounds", "30000", "--seed", "21",
                    "--out", str(a)) == 0
        assert _run("montecarlo", "--config", str(full), "--out", str(b)) == 0
        assert _read(a / "montecarlo.json") == _read(b / "montecarlo.json")

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


@pytest.mark.parametrize(
    "argv,names",
    [
        (["analyze"], ["analyze.json"]),
        (["feasibility"], ["feasibility.json"]),
        (["sweep"], ["sweep.csv", "sweep.json"]),
        (["montecarlo", "--rounds", "2000"], ["montecarlo.json"]),
        (["alphabet-scan", "--max-bits", "4"], ["alphabet_scan.csv", "alphabet_scan.json"]),
    ],
    ids=["analyze", "feasibility", "sweep", "montecarlo", "alphabet-scan"],
)
def test_last_line_names_every_artifact_in_writing_order(tmp_path, capsys, argv, names):
    out = tmp_path / "out"
    assert _run(*argv, "--out", str(out)) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "wrote " + " and ".join(str(out / name) for name in names)
    assert sorted(path.name for path in out.iterdir()) == sorted(names)


class TestErrorHandling:
    @pytest.mark.parametrize(
        "command,document,key",
        [
            ("analyze", {"channel": {"dark_counts": 1}}, "dark_counts"),
            ("sweep", {"sweep": {"num": 2.5}}, "num"),
            ("sweep", {"sweep": {"values": [1e-6, "x"]}}, "values"),
            ("sweep", {"sweep": {"parameter": 5}}, "parameter"),
            ("sweep", {"sweep": {"parameter": "protocol.m", "values": [4, 4.5]}}, "m"),
            ("analyze", {"channel": {"length": 10**400}}, "length"),
            ("sweep", {"sweep": {"parameter": "channel.length", "values": [1, 10**400]}}, "length"),
        ],
        ids=[
            "unknown-key", "fractional-num", "non-numeric-value", "non-string-parameter",
            "fractional-integer-sweep", "integer-past-float-range", "sweep-past-float-range",
        ],
    )
    def test_bad_config_exits_with_error_code(self, tmp_path, capsys, command, document, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        assert _run(command, "--config", str(config), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert repr(key) in err

    @pytest.mark.parametrize(
        "parameter,value,message",
        [
            ("protocol.m", 4.5, "key 'm' in section 'protocol' takes integers, got 4.5"),
            ("protocol.mm", 4.0, "unknown key 'mm' in section 'protocol'"),
            ("protocl.m", 4.0, "unknown section 'protocl'"),
            ("protocol", 4.0, "sweep parameter 'protocol' must look like 'section.key'"),
        ],
    )
    def test_bad_sweep_point_exits_with_its_message(self, tmp_path, capsys, parameter, value, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"parameter": parameter, "values": [value]}}))
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize(
        "parameter,message",
        [
            ("bogus", "sweep parameter 'bogus' must look like 'section.key'"),
            ("channel.nosuch", "unknown key 'nosuch' in section 'channel'"),
        ],
    )
    def test_bad_sweep_target_is_refused_with_no_points(self, tmp_path, capsys, parameter, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep": {"parameter": parameter, "values": []}}))
        assert _run("sweep", "--config", str(config), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "argv,document",
        [
            (["sweep"], {"sweep": {"parameter": "channel.nosuch", "values": []}}),
            (["alphabet-scan", "--max-bits", "0"], {}),
            (["sweep"], {"sweep": {"num": 10**14, "spacing": "linear"}}),
            (["sweep"], {"sweep": {"parameter": "channel.length", "values": [1, 10**400]}}),
            (["montecarlo"], {"channel": {"pair_probability": 2.0}}),
        ],
        ids=["bad-target", "max-bits-0", "sweep-too-long", "refused-after-a-point", "bad-channel"],
    )
    def test_refused_command_writes_no_artifact(self, tmp_path, capsys, argv, document):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "out"
        assert _run(*argv, "--config", str(config), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "feasibility", "sweep", "montecarlo"])
    def test_out_that_is_a_file_exits_with_error_code(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert _run(command, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert out.read_text() == "kept\n"

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
            cli._write(tmp_path, {"artifact.json": {"rows": [{"value": bad}]}})

    @pytest.mark.parametrize("threads", ["2.5", "true", "0"])
    def test_bad_thread_count_exits_with_error_code(self, tmp_path, capsys, threads):
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"simulation": {"rounds": 3000, "shard_size": 1000, "threads": %s}}' % threads
        )
        assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "montecarlo.json").exists()

    @pytest.mark.parametrize(
        "document,override",
        [
            ({}, ["--rounds", str(2**70)]),
            ({}, ["--rounds", str(2**63)]),
            ({"simulation": {"shard_size": 2**63}}, []),
        ],
        ids=["rounds-2**70", "rounds-2**63", "shard-size-2**63"],
    )
    def test_round_counts_past_int64_exit_with_error_code(
        self, tmp_path, capsys, document, override
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        assert _run("montecarlo", "--config", str(config), *override, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "up to 2**63 - 1" in err
        assert "Traceback" not in err
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

    @pytest.mark.parametrize("command", ["analyze", "feasibility", "sweep", "montecarlo"])
    def test_alphabet_past_the_float_range_exits_with_error_code(self, tmp_path, capsys, command):
        # analyze used to die in design_time_lens with an OverflowError, and
        # feasibility to blame the hardware figures.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": {"m": 2**1100}}))
        out = tmp_path / "out"
        assert _run(command, "--config", str(config), "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alphabet size 2**1100 exceeds the float range\n"
        assert not out.exists()

    def test_alphabet_scan_past_the_float_range_exits_with_error_code(self, tmp_path, capsys):
        assert _run("alphabet-scan", "--out", str(tmp_path), "--max-bits", "1030") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alphabet size 2**1024")
        assert "nan" not in err
        assert not (tmp_path / "alphabet_scan.json").exists()

    def test_closed_form_past_its_panel_cap_exits_at_once(self, tmp_path, capsys):
        # A 1e-9 narrow width would need about 7e8 panels of the closed-form binning.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "protocol": {"m": 4, "beta_minus": 1e-9},
            "simulation": {"rounds": 1000, "correlation_model": "sampled-jsa"},
        }))
        start = time.perf_counter()
        assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 2
        assert time.perf_counter() - start < 5.0  # the whole run would take hours
        err = capsys.readouterr().err
        assert err.startswith("error: closed-form binning needs about 6.67e+08 panels")
        assert "above the cap of 262,144 panels" in err
        assert not (tmp_path / "montecarlo.json").exists()

    def test_missing_config_exits_with_error_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert _run("analyze", "--config", str(missing)) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestParserCache:
    """One parser serves every call in a process."""

    def test_overrides_do_not_leak_into_the_next_call(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulation": {"rounds": 30000, "seed": 4}}))
        overridden, plain, fresh = tmp_path / "overridden", tmp_path / "plain", tmp_path / "fresh"
        assert _run("montecarlo", "--config", str(config), "--rounds", "20000", "--seed", "9",
                    "--out", str(overridden)) == 0
        assert _run("montecarlo", "--config", str(config), "--out", str(plain)) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(ck.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-m", "chronokey.cli", "montecarlo", "--config", str(config),
             "--out", str(fresh)],
            check=True, env=env, capture_output=True, timeout=120,
        )
        assert _read(plain / "montecarlo.json") == _read(fresh / "montecarlo.json")
        assert _read(overridden / "montecarlo.json") != _read(plain / "montecarlo.json")

    def test_a_call_after_an_argparse_error_succeeds(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            _run("no-such-command")
        assert exit_info.value.code == 2
        assert _run("analyze", "--out", str(tmp_path)) == 0
        assert (tmp_path / "analyze.json").exists()

    def test_handlers_are_looked_up_per_call(self, tmp_path, monkeypatch):
        _run("analyze", "--out", str(tmp_path))
        seen = []

        def stand_in(args):
            seen.append(args.out)
            return 0

        monkeypatch.setattr(cli, "cmd_feasibility", stand_in)
        assert _run("feasibility", "--out", str(tmp_path)) == 0
        assert seen == [str(tmp_path)]


@st.composite
def _count_matrices(draw):
    m = draw(st.integers(1, 64))
    counts = st.integers(1, 2**63 - 1)
    layout = draw(st.sampled_from(["zero", "single", "sparse", "full"]))
    if layout == "full":
        return draw(hnp.arrays(np.int64, (m, m), elements=counts))
    matrix = np.zeros((m, m), np.int64)
    if layout == "single":
        matrix[draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))] = draw(counts)
    elif layout == "sparse":
        matrix = draw(hnp.arrays(np.int64, (m, m), elements=counts, fill=st.just(0)))
    return matrix


def _cells_form(matrix):
    """A square count matrix as the writer takes it: its non-zero cells."""
    cells = np.flatnonzero(matrix)
    return cli._CountMatrix(matrix.shape[0], cells, matrix.ravel()[cells])


def _layout(m, layout):
    matrix = np.zeros((m, m), np.int64)
    if layout == "full":
        matrix[:] = np.arange(1, m * m + 1).reshape(m, m) * 7919
    elif layout == "first":
        matrix[0, 0] = 2**63 - 1
    elif layout == "last":
        matrix[-1, -1] = 10
    return matrix


class TestCountMatrixWriter:
    @pytest.mark.parametrize("layout", ["empty", "first", "last", "full"])
    @pytest.mark.parametrize("m", [2, 17, 256])
    def test_splices_the_cells_into_the_zero_text(self, m, layout):
        matrix = _layout(m, layout)
        form = _cells_form(matrix)
        assert cli._matrix_json(form.m, form.cells, form.counts) == json.dumps(matrix.tolist())

    @given(matrix=_count_matrices())
    @example(matrix=np.full((64, 64), 2**63 - 1, np.int64))
    @example(matrix=np.diag(np.arange(1, 65, dtype=np.int64)))
    def test_writes_what_json_writes(self, matrix):
        form = _cells_form(matrix)
        assert cli._matrix_json(form.m, form.cells, form.counts) == json.dumps(matrix.tolist())
        # Two matrices of different sizes, each where its key sorts.
        larger = np.pad(matrix, (0, 1))
        payload = {
            "b": {"counts": form, "out_of_window": None},
            "a": [1.5, "x"],
            "c": {"counts": _cells_form(larger), "out_of_window": 0.25},
        }
        reference = dict(
            payload,
            b={"counts": matrix.tolist(), "out_of_window": None},
            c={"counts": larger.tolist(), "out_of_window": 0.25},
        )
        assert cli._json_text(payload) == json.dumps(reference, sort_keys=True)

    def test_refuses_what_is_not_a_count_matrix(self):
        for bad in (np.eye(2, dtype=np.int64), np.int64(3), {1, 2}):
            with pytest.raises(TypeError):
                cli._json_text({"frequency": {"counts": bad}})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_refuses_a_non_finite_leaf_beside_a_matrix(self, bad):
        payload = {"frequency": {"counts": _cells_form(np.eye(3, dtype=np.int64))}, "stderr": bad}
        with pytest.raises(ValueError):
            cli._json_text(payload)

    def test_montecarlo_artifact_parses_back_to_the_tally(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"protocol": {"m": 256}, "simulation": {"rounds": 400000, "seed": 23}}
        ))
        assert _run("montecarlo", "--config", str(config), "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "montecarlo.json").read_text())
        run = ck.load_config(config)
        ledger = ck.simulate_rounds(run.simulation_config(), run.channel_model())
        tally = np.concatenate([
            np.ravel(payload["frequency"]["counts"]),
            np.ravel(payload["time"]["counts"]),
            [payload["counts"]["basis_mismatch"], payload["counts"]["multi_click_discarded"]],
        ])
        cells = np.flatnonzero(tally)
        assert ledger.sifted > 0
        assert np.array_equal(cells, ledger.cells) and np.array_equal(tally[cells], ledger.counts)
