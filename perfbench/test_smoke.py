"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the package path above)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, trace, out_root):
    lines = []
    result = run.run_benchmark(
        name,
        seed=5,
        seconds=0.0,
        trace=trace,
        sizes=workloads.TINY,
        setup_samples=1,
        out_root=out_root,
        report=lines.append,
    )
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, metric, value, unit = line.split()
            printed[metric] = (float(value), unit)
    return result, printed


def test_workload_names_agree():
    declared = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    entry_point = workloads.cli.main
    result, printed = run_tiny(name, trace, tmp_path)
    assert workloads.cli.main is entry_point  # tracing leaves the package as it was
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        value, unit = printed[metric["name"]]
        assert unit == metric["unit"]
        assert result["metrics"][metric["name"]] == {"value": value, "unit": unit}
        assert math.isfinite(value)
    assert printed["error_rate"] == (0.0, "fraction")


def test_wrong_expected_value_counts_in_error_rate(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "expected_marginal_bits", lambda m: math.log2(m) + 1.0)
    result, printed = run_tiny("source-analysis", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert printed["error_rate"][0] == result["failed"] / result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "source-analysis", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
