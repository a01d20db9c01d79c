"""The benchmark's three workloads and the probe every iteration ends with.

Workloads drive the package only through its public functions and
``chronokey.cli.main``; the package receives nothing but the inputs made
here from the seed.

- ``source-analysis``: the numerical chain as library calls, where the
  chronocyclic, detection and security layers do the work.
- ``mc-sparse-clicks``: the README's CLI session at the default config.  At
  the default channel about 1e-3 of rounds can click, so drawing random
  numbers for rounds that cannot click is the whole cost.  Event-driven
  sampling acts on exactly this.
- ``mc-dense-sampled``: CLI ``montecarlo`` on a noiseless channel with
  sampled-JSA correlations.  Every round is a coincidence, so per-round work
  is the cost and skipping idle rounds saves nothing.  It also builds both
  basis distributions on the design's default grid.

Every iteration ends with the same small probe, which calls each entry point
that a per-layer metric times at toy size (about 0.15 s, under a tenth of
any workload's iteration).  It keeps every per-layer span present in every
workload's trace, so no per-layer figure is an unmeasured zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import chronokey as ck
from chronokey import cli

from checks import Checks


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads; FULL is what the benchmark runs."""

    # (m, grid points, grid half-span) of the matched-source chain.
    acceptance_grids: tuple[tuple[int, int, float], ...]
    # (wide, narrow, explicit (points, half-span) or None for the default grid).
    schmidt_cases: tuple[tuple[float, float, tuple[int, float] | None], ...]
    kernel_ms: tuple[int, ...]
    # Alphabet of the design whose default grid carries the probe states.
    uncertainty_m: int
    sparse_rounds: int
    dense_m: int
    dense_rounds: int


# Sized so that one iteration takes about two seconds on two cores and a run
# repeats it a dozen times or more: per-iteration times on a shared machine
# scatter by about 8%, and only the median of many iterations is steady.
# The acceptance suite's own sizes (m=32 on a 4096-point grid, the (12, 0.2)
# source on its 4096-point default grid) take about 30 s per pass.  Here the
# m=16 chain and the (12, 0.2) Schmidt case use 1024-point grids of the same
# span, on which criteria 02 and 04a still hold.  The dense workload runs at
# m=8: at m=16 the CLI builds 4096-point distributions for 4.4 s, which would
# leave per-round work a small share of any iteration short enough to repeat.
FULL = Sizes(
    acceptance_grids=((8, 1024, 24.0), (16, 1024, 48.0)),
    schmidt_cases=((1.0, 1.0, None), (5.2, 1.0, None), (12.0, 0.2, (1024, 48.0))),
    kernel_ms=(16, 64, 256),
    uncertainty_m=8,
    sparse_rounds=2_000_000,
    dense_m=8,
    dense_rounds=10_000_000,
)
TINY = Sizes(
    acceptance_grids=((4, 256, 12.0),),
    schmidt_cases=((1.0, 1.0, None), (5.2, 1.0, None)),
    kernel_ms=(16,),
    uncertainty_m=4,
    sparse_rounds=200_000,
    dense_m=4,
    dense_rounds=100_000,
)
PROBE_ROUNDS = 400_000
NOISELESS_CHANNEL = {
    "pair_probability": 1.0,
    "detector_efficiency": 1.0,
    "length": 0.0,
    "dark_probability": 0.0,
}


def expected_marginal_bits(m: int) -> float:
    """Criterion 04a: the matched source fills the alphabet."""
    return math.log2(m)


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


class Session:
    """What one benchmark run shares across its iterations."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, mc_threads: int):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.mc_threads = mc_threads
        self.checks = Checks()
        self.tracer = None
        self.rng = np.random.default_rng(seed)
        self.inputs: dict = {}
        self.expected: dict = {}
        self.begin_iteration()

    def begin_iteration(self) -> None:
        self.mc_rounds = 0
        self.mc_seconds = 0.0
        self.artifact_bytes = 0

    @contextlib.contextmanager
    def probing(self):
        if self.tracer is None:
            yield
            return
        self.tracer.phase = "probe"
        try:
            yield
        finally:
            self.tracer.phase = "work"

    def write_config(self, name: str, payload: dict) -> Path:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def run_cli(self, *argv: str, out: str) -> tuple[Path, float]:
        """Run one ``chronokey`` command and return its output directory and
        wall time."""
        out_dir = self.workdir / out
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out_dir)])
        elapsed = time.perf_counter() - start
        self.checks.expect(code == 0, f"chronokey {' '.join(argv)} exited with {code}")
        self.artifact_bytes += sum(f.stat().st_size for f in out_dir.iterdir())
        return out_dir, elapsed

    def montecarlo(self, config: Path, threads: int, out: str) -> tuple[dict, bytes]:
        out_dir, elapsed = self.run_cli(
            "montecarlo", "--config", str(config), "--threads", str(threads), out=out
        )
        raw = (out_dir / "montecarlo.json").read_bytes()
        payload = json.loads(raw)
        self.mc_seconds += elapsed
        self.mc_rounds += payload["counts"]["rounds"]
        check_ledger(self.checks, payload, out)
        return payload, raw

    def expect_identical(self, one: bytes, other: bytes, what: str) -> None:
        self.checks.expect(one == other, f"{what}: montecarlo.json differs across thread counts")


def check_ledger(checks: Checks, payload: dict, what: str) -> None:
    """Round classes add up and the count matrices cover the sifted rounds."""
    c = payload["counts"]
    checks.expect(
        c["no_click"] + c["multi_click_discarded"] + c["basis_mismatch"] + c["sifted"]
        == c["rounds"],
        f"{what}: round classes do not add up to {c['rounds']}",
    )
    checks.expect(c["correct"] + c["incorrect"] == c["sifted"], f"{what}: correct + incorrect != sifted")
    checks.expect(
        c["coincidences"] == c["basis_mismatch"] + c["sifted"],
        f"{what}: coincidences != basis_mismatch + sifted",
    )
    counted = sum(int(np.sum(payload[basis]["counts"])) for basis in ("frequency", "time"))
    checks.expect(counted == c["sifted"], f"{what}: count matrices hold {counted} != sifted")


def closed_form_expectations(config: Path) -> dict:
    """Acceptance and error probability per round of a config's channel."""
    model = ck.load_config(config).channel_model()
    p_correct, p_incorrect = ck.pcorrect_pincorrect(model)
    return {"accept": p_correct + p_incorrect, "error": ck.error_probability(model)}


def check_closed_forms(checks: Checks, payload: dict, expected: dict, what: str) -> None:
    c = payload["counts"]
    checks.binomial(c["coincidences"], c["rounds"], expected["accept"], f"{what} acceptance")
    if c["sifted"] > 0:
        checks.binomial(c["incorrect"], c["sifted"], expected["error"], f"{what} error rate")


def matched_chain(session: Session, m: int, n_points: int, span: float) -> None:
    """Matched source, both basis distributions, entropies and key bound,
    checked against criterion 04a."""
    scheme = ck.BinningScheme(m=m, delta_omega=1.0)
    lens = ck.design_time_lens(scheme)
    wide, narrow = scheme.matched_widths()
    source = ck.make_gaussian_jsa(wide, narrow, grid=ck.FrequencyGrid(n_points, span=span))
    freq = ck.joint_outcome_distribution(source, scheme, lens, ck.FREQUENCY_BASIS)
    tim = ck.joint_outcome_distribution(source, scheme, lens, ck.TIME_BASIS)
    freq_report = ck.entropy_report(freq)
    time_report = ck.entropy_report(tim)
    bound = ck.entropic_bound(scheme.delta_omega, ck.time_resolution(scheme, lens))
    key = ck.secret_key_bound(
        freq_report,
        time_report,
        bound,
        deficit=ck.binning_deficit(scheme.beta_plus, scheme.beta_minus),
    )
    session.checks.close(
        freq_report.marginal_bits, expected_marginal_bits(m), f"04a marginal bits m={m}", abs_=5e-2
    )
    session.checks.expect(math.isfinite(key.secret_key), f"secret key bound m={m} not finite")


def schmidt_case(session: Session, wide: float, narrow: float, grid) -> None:
    """Amplitude, Schmidt decomposition and time transform, checked against
    criterion 02."""
    if grid is not None:
        grid = ck.FrequencyGrid(grid[0], span=grid[1])
    jsa = ck.make_gaussian_jsa(wide, narrow, grid=grid)
    decomposition = ck.schmidt_decompose(jsa)
    ck.to_temporal(jsa)
    session.checks.close(
        decomposition.schmidt_number,
        ck.analytic_schmidt_number(wide, narrow),
        f"02 mode count ({wide}, {narrow})",
        rel=1e-2,
    )


def overlap_kernel(session: Session, m: int) -> None:
    """Overlap-kernel magnitude, checked against criterion 03."""
    scheme = ck.BinningScheme(m=m, delta_omega=1.0)
    spectrum = ck.overlap_kernel_sigma_max(scheme, ck.design_time_lens(scheme))
    session.checks.close(
        spectrum.sigma_max, spectrum.analytic, f"03 kernel magnitude m={m}", rel=5e-2
    )


def uncertainty_states(rng: np.random.Generator, m: int) -> dict:
    """Criterion 08's three probe states with seed-drawn shapes, on the
    default grid of the m-bin matched design."""
    scheme = ck.BinningScheme(m=m, delta_omega=1.0)
    grid = ck.default_grid(*scheme.matched_widths())
    w = grid.points
    wide = 0.75 * m * rng.uniform(0.9, 1.1)
    center = rng.uniform(0.0, 1.0)
    narrow = rng.uniform(0.9, 1.1) / 6.0
    chirp_width = 3.0 * rng.uniform(0.9, 1.1)
    chirp = rng.uniform(0.5, 1.0)
    states = {
        "matched-width": np.exp(-(w**2) / (2.0 * wide**2)) + 0j,
        "single-bin": np.exp(-((w - center) ** 2) / (2.0 * narrow**2)) + 0j,
        "chirped": np.exp(-(w**2) / (2.0 * chirp_width**2) + 1j * chirp * w**2),
    }
    for name, state in states.items():
        states[name] = state / math.sqrt(float((np.abs(state) ** 2).sum() * grid.spacing))
    return {"scheme": scheme, "grid": grid, "states": states}


def uncertainty_relation(session: Session, inputs: dict) -> None:
    """Binned single-photon spectra and arrival times, checked against the
    uncertainty bound of criterion 08."""
    scheme, grid = inputs["scheme"], inputs["grid"]
    lens = ck.design_time_lens(scheme)
    bound = ck.entropic_bound(scheme.delta_omega, ck.time_resolution(scheme, lens))
    for name, state in inputs["states"].items():
        spectral, _ = ck.binned_spectrum(state, grid, scheme)
        temporal, _ = ck.binned_arrival_times(state, grid, scheme, lens)
        total = entropy_bits(spectral) + entropy_bits(temporal)
        session.checks.expect(
            total >= bound - 1e-6, f"08 {name}: entropy sum {total!r} below bound {bound!r}"
        )


def probe_setup(session: Session) -> None:
    session.inputs["probe_config"] = session.write_config(
        "probe",
        {
            "simulation": {
                "rounds": PROBE_ROUNDS,
                "seed": session.seed,
                "shard_size": PROBE_ROUNDS // 2,
            }
        },
    )
    session.inputs["probe_states"] = uncertainty_states(session.rng, 4)


def probe(session: Session) -> None:
    """Call each entry point a per-layer metric times, at toy size."""
    with session.probing():
        schmidt_case(session, 1.0, 1.0, None)
        matched_chain(session, 4, 256, 12.0)
        overlap_kernel(session, 16)
        uncertainty_relation(session, session.inputs["probe_states"])
        config = str(session.inputs["probe_config"])
        session.run_cli("analyze", "--config", config, out="probe-analyze")
        session.run_cli("feasibility", "--config", config, out="probe-feasibility")
        _, one = session.montecarlo(config, 1, "probe-mc-1t")
        _, many = session.montecarlo(config, session.mc_threads, "probe-mc-nt")
        session.expect_identical(one, many, "probe")


class Workload:
    """One workload: inputs made at set-up, untimed expected values, the timed
    iteration, and steps run once after the timed loop."""

    name: str

    def setup(self, session: Session) -> None:
        pass

    def prepare(self, session: Session) -> None:
        pass

    def iterate(self, session: Session) -> None:
        raise NotImplementedError

    def finish(self, session: Session) -> None:
        pass


class SourceAnalysis(Workload):
    name = "source-analysis"

    def setup(self, session: Session) -> None:
        session.inputs["states"] = uncertainty_states(session.rng, session.sizes.uncertainty_m)

    def iterate(self, session: Session) -> None:
        for m, n_points, span in session.sizes.acceptance_grids:
            matched_chain(session, m, n_points, span)
        for wide, narrow, grid in session.sizes.schmidt_cases:
            schmidt_case(session, wide, narrow, grid)
        for m in session.sizes.kernel_ms:
            overlap_kernel(session, m)
        uncertainty_relation(session, session.inputs["states"])
        probe(session)


class SparseClicks(Workload):
    name = "mc-sparse-clicks"

    def setup(self, session: Session) -> None:
        simulation = {"rounds": session.sizes.sparse_rounds, "seed": session.seed}
        session.inputs["m16"] = session.write_config("sparse-m16", {"simulation": simulation})
        session.inputs["m256"] = session.write_config(
            "sparse-m256", {"protocol": {"m": 256}, "simulation": simulation}
        )

    def prepare(self, session: Session) -> None:
        for key in ("m16", "m256"):
            session.expected[key] = closed_form_expectations(session.inputs[key])

    def iterate(self, session: Session) -> None:
        checks = session.checks
        config = str(session.inputs["m16"])
        out, _ = session.run_cli("analyze", "--config", config, out="analyze")
        analyze = json.loads((out / "analyze.json").read_text())
        checks.expect(
            math.isfinite(analyze["key_rate"]["entropy_route"]["secret_key"]),
            "analyze: secret key not finite",
        )
        out, _ = session.run_cli("feasibility", "--config", config, out="feasibility")
        checks.expect(
            json.loads((out / "feasibility.json").read_text())["feasible"],
            "09 feasibility: default design not feasible",
        )
        out, _ = session.run_cli("alphabet-scan", "--config", config, out="alphabet-scan")
        summary = json.loads((out / "alphabet_scan.json").read_text())["summary"]
        checks.expect(
            summary["best_alphabet_bits"] == 11 and summary["zero_crossing_bits"] == 15,
            f"05 alphabet scan: peak/zero crossing {summary}",
        )
        out, _ = session.run_cli("sweep", "--config", config, out="sweep")
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        checks.expect(len(rows) == 11, f"sweep: {len(rows)} rows, expected 11")

        one, one_raw = session.montecarlo(config, 1, "mc16-1t")
        many, many_raw = session.montecarlo(config, session.mc_threads, "mc16-nt")
        session.expect_identical(one_raw, many_raw, "m=16")
        big, _ = session.montecarlo(str(session.inputs["m256"]), session.mc_threads, "mc256")
        check_closed_forms(checks, one, session.expected["m16"], "m=16")
        check_closed_forms(checks, big, session.expected["m256"], "m=256")
        probe(session)


class DenseSampled(Workload):
    name = "mc-dense-sampled"

    def setup(self, session: Session) -> None:
        session.inputs["dense"] = session.write_config(
            "dense",
            {
                "protocol": {"m": session.sizes.dense_m},
                "channel": NOISELESS_CHANNEL,
                "simulation": {
                    "rounds": session.sizes.dense_rounds,
                    "seed": session.seed,
                    "correlation_model": "sampled-jsa",
                },
            },
        )

    def prepare(self, session: Session) -> None:
        # The distributions the CLI samples from, rebuilt here to know each
        # basis's off-diagonal (wrong-symbol) mass.
        scheme, source, lens = ck.load_config(session.inputs["dense"]).matched_design()
        session.expected["accept"] = closed_form_expectations(session.inputs["dense"])["accept"]
        for basis in (ck.FREQUENCY_BASIS, ck.TIME_BASIS):
            dist = ck.joint_outcome_distribution(source, scheme, lens, basis)
            session.expected[basis] = 1.0 - float(np.trace(dist.probabilities))

    def _run(self, session: Session, threads: int, out: str) -> bytes:
        payload, raw = session.montecarlo(str(session.inputs["dense"]), threads, out)
        c = payload["counts"]
        session.checks.binomial(
            c["coincidences"], c["rounds"], session.expected["accept"], f"{out} acceptance"
        )
        for basis in (ck.FREQUENCY_BASIS, ck.TIME_BASIS):
            counts = np.asarray(payload[basis]["counts"])
            total = int(counts.sum())
            wrong = total - int(np.trace(counts))
            session.checks.binomial(
                wrong, total, session.expected[basis], f"{out} {basis} off-diagonal"
            )
        return raw

    def iterate(self, session: Session) -> None:
        session.inputs["last_artifact"] = self._run(session, session.mc_threads, "dense-nt")
        probe(session)

    def finish(self, session: Session) -> None:
        # Once per run: the single-thread rate and the thread-count
        # independence of the sampled-JSA artifact.
        one = self._run(session, 1, "dense-1t")
        session.expect_identical(one, session.inputs["last_artifact"], "dense")


WORKLOADS = {w.name: w for w in (SourceAnalysis(), SparseClicks(), DenseSampled())}
