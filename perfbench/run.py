"""Benchmark of the chronokey package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``source-analysis``, ``mc-sparse-clicks`` and
``mc-dense-sampled`` (see ``workloads.py``).  The package is imported from
``src/`` of the checkout.  One run:

1. sets up: imports the package, makes the inputs from the seed and warms up
   with one probe.  An untraced run repeats set-up in fresh child processes
   and ``setup_s`` is the median of all samples;
2. prepares the expected values of the output checks (not timed);
3. repeats the workload for ``S`` seconds and reports medians per iteration;
   each iteration's outputs are checked, and every check counts toward
   ``error_rate``;
4. runs the workload's once-per-run steps, such as the single-thread
   comparison of the dense workload.

With ``--trace 1``, every second iteration runs with span wrappers on the
package's public entry points (see ``spans.py``); the per-layer metrics come
from those iterations and ``trace.overhead_s`` is the median traced minus
the median untraced iteration time.

The human-readable report, with provenance, comes first; the last line of
standard output is the JSON result.  Run records and span files go to
``.bench_out/`` of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("source-analysis", "mc-sparse-clicks", "mc-dense-sampled")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}


def mc_thread_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy has loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "mc_threads": mc_thread_count(),
        "seed": seed,
    }


def setup(name: str, seed: int, sizes, workdir: Path):
    """Import the package, make the inputs and warm up; returns the session
    and the workload."""
    import chronokey
    import workloads

    package_file = Path(chronokey.__file__).resolve()
    if SRC.resolve() not in package_file.parents:
        raise RuntimeError(f"chronokey was imported from {package_file}, not from {SRC}")
    session = workloads.Session(seed, sizes or workloads.FULL, workdir, mc_thread_count())
    workload = workloads.WORKLOADS[name]
    workload.setup(session)
    workloads.probe_setup(session)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        workloads.probe(session)
    return session, workload


def setup_in_child(name: str, seed: int) -> float:
    """One set-up sample taken in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_iteration(session, workload, tracer, index: int) -> dict:
    session.begin_iteration()
    if tracer is not None:
        tracer.iteration = index
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            workload.iterate(session)
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "index": index,
        "traced": tracer is not None,
        "wall_s": wall,
        "mc_rounds": session.mc_rounds,
        "mc_seconds": session.mc_seconds,
        "artifact_bytes": session.artifact_bytes,
        "warnings": dict(Counter(w.category.__name__ for w in caught)),
    }


def run_once_steps(session, workload, tracer) -> None:
    if tracer is not None:
        tracer.iteration = -1
        tracer.install()
    try:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            workload.finish(session)
    finally:
        if tracer is not None:
            tracer.uninstall()


def per_layer_values(tracer, traced: list[dict], untraced_wall_s: float, mc_threads: int) -> dict:
    from spans import layer_metrics

    values = layer_metrics(tracer.spans, [it["index"] for it in traced], mc_threads)
    values["detection.coverage_warnings"] = statistics.median(
        it["warnings"].get("CoverageWarning", 0) for it in traced
    )
    values["cli.artifact_bytes"] = statistics.median(it["artifact_bytes"] for it in traced)
    values["trace.overhead_s"] = (
        statistics.median(it["wall_s"] for it in traced) - untraced_wall_s
    )
    return values


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    setup_samples: int = SETUP_SAMPLES,
    out_root: Path = OUT,
    report=print,
) -> dict:
    """Run one workload and return the result object (see module docstring)."""
    out_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    try:
        start = time.perf_counter()
        session, workload = setup(name, seed, sizes, workdir)
        setup_times = [time.perf_counter() - start]
        if not trace:
            setup_times += [setup_in_child(name, seed) for _ in range(setup_samples - 1)]

        import chronokey
        from spans import Tracer

        tracer = Tracer(chronokey) if trace else None
        session.tracer = tracer
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            workload.prepare(session)

        iterations = []
        loop_start = time.perf_counter()
        # A traced run alternates untraced and traced iterations, so that
        # the difference of their medians is the tracing overhead.
        while not iterations or time.perf_counter() - loop_start < seconds or (
            trace and len(iterations) < 2
        ):
            traced = trace and len(iterations) % 2 == 1
            iterations.append(
                run_iteration(session, workload, tracer if traced else None, len(iterations))
            )
        run_once_steps(session, workload, tracer)

        untraced = [it for it in iterations if not it["traced"]]
        summary = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(it["wall_s"] for it in untraced),
            "mc_rounds_per_s": statistics.median(
                it["mc_rounds"] / it["mc_seconds"] for it in untraced
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared_units(trace)
        if trace:
            traced = [it for it in iterations if it["traced"]]
            values = per_layer_values(tracer, traced, summary["wall_s"], session.mc_threads)
            tracer.write(out_root / f"{name}-seed{seed}-spans.json")
        else:
            values = summary

        checks = session.checks
        record = {
            "workload": name,
            "trace": int(trace),
            "provenance": provenance(seed),
            "setup_samples_s": setup_times,
            "iterations": iterations,
            "summary": summary,
            "error_rate": checks.failed / checks.attempted,
            "failures": checks.failures,
            "metrics": values,
        }
        (out_root / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )
        report_run(record, units, checks, report)
        return {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {
                metric: {"value": value, "unit": units[metric]} for metric, value in values.items()
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_run(record: dict, units: dict, checks, report) -> None:
    """Human-readable lines: provenance, iteration times, every metric with
    its unit, and the output checks."""
    report(f"workload {record['workload']} trace {record['trace']}")
    report("provenance " + " ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    iterations = record["iterations"]
    walls = [it["wall_s"] for it in iterations if not it["traced"]]
    report(
        f"iterations {len(iterations)} ({len(iterations) - len(walls)} traced); untraced wall_s "
        f"median {statistics.median(walls):.4f} min {min(walls):.4f} max {max(walls):.4f} "
        f"over {len(walls)}"
    )
    for metric, value in record["metrics"].items():
        report(f"metric {metric} {value!r} {units[metric]}")
    report(f"metric error_rate {record['error_rate']!r} fraction")
    report(f"checks attempted {checks.attempted} failed {checks.failed}")
    for failure in checks.failures[:20]:
        report(f"check failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "chronokey" / "__init__.py").is_file():
        print(f"error: no chronokey package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        OUT.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            start = time.perf_counter()
            setup(args.workload, args.seed, None, workdir)
            print(repr(time.perf_counter() - start))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
