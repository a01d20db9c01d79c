"""Command-line front end.

Five subcommands: ``analyze`` (closed-form design and key-rate summary),
``sweep`` (one parameter swept over the closed-form chain), ``montecarlo``
(round simulation against the closed forms), ``feasibility`` (hardware
check), and ``alphabet-scan`` (closed-form key rate versus alphabet size).
Every command reads one JSON configuration file and writes deterministic
JSON (and CSV where tabular) into the output directory: reruns with the
same inputs produce byte-identical files.  One writer writes them all and
then prints one ``wrote`` line naming them in writing order; a command
refused before its answer writes nothing.

Every JSON artifact is one line of ``json.dumps(payload, sort_keys=True,
allow_nan=False)`` text, made by one such call.  ``montecarlo``'s joint
count matrices go to the writer as the ledger's int64 arrays; each is
encoded as a placeholder string, which is then replaced by the text of
``json.dumps`` of the matrix's list: the all-zero matrix's text with the
digits of its non-zero cells spliced in, so only those cells cost Python
work.  The parser is built on the first call and kept for the process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .chronocyclic import analytic_schmidt_number
from .config import RunConfig, _field_dict, load_config
from .detection import (
    FREQUENCY_BASIS,
    TIME_BASIS,
    design_time_lens,
    gaussian_outcome_distribution,
    resolution_product,
    time_resolution,
)
from .errors import ChronokeyError, ParameterError
from .feasibility import check_feasibility
from .montecarlo import (
    empirical_error_probability,
    estimate_key_rate,
    simulate_rounds,
)
from .noise import error_probability, pure_noise, transmission
from .security import simplified_key_rate


def _matrix_json(counts: np.ndarray) -> str:
    """``json.dumps(counts.tolist())`` of a 2-D integer array, with Python
    work only for its non-zero cells.

    In the all-zero matrix's text ``[[0, 0, ...], [0, ...], ...]`` each row
    takes ``3*n_cols + 2`` characters with its ``", "``, so flat cell ``k``
    starts at character ``2 + 3*k + 2*(k // n_cols)``; the matrix's text is
    that text with each non-zero cell's digits put in place of its ``0``.
    """
    if counts.ndim != 2 or counts.dtype.kind not in "iu":
        raise TypeError(f"cannot write a {counts.ndim}-d {counts.dtype} array as a count matrix")
    n_rows, n_cols = counts.shape
    zero = "[" + ", ".join(["[" + ", ".join(["0"] * n_cols) + "]"] * n_rows) + "]"
    cells = np.flatnonzero(counts)
    starts = 2 + 3 * cells + 2 * (cells // n_cols)
    # The zero text around the cells and their digits between, each list
    # made by ``map`` in C.
    gaps = map(slice, [0, *(starts + 1).tolist()], [*starts.tolist(), None])
    pieces = [None] * (2 * cells.size + 1)
    pieces[::2] = map(zero.__getitem__, gaps)
    pieces[1::2] = map(str, counts.ravel()[cells].tolist())
    return "".join(pieces)


# What stands for a count matrix in the payload's text until the matrix's
# own text replaces it.  Only ``montecarlo`` writes matrices, and its
# payload's strings are validated names, none of them this one.
_MATRIX = "\0count matrix\0"


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, allow_nan=False)``, where the
    payload may hold integer count matrices as arrays (``_matrix_json``)."""
    matrices = []

    def placeholder(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        matrices.append(_matrix_json(value))
        return _MATRIX

    text = json.dumps(payload, sort_keys=True, allow_nan=False, default=placeholder)
    pieces = [None] * (2 * len(matrices) + 1)
    pieces[::2] = text.split(json.dumps(_MATRIX))  # raises unless it appears once per matrix
    pieces[1::2] = matrices
    return "".join(pieces)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _open(args) -> tuple[RunConfig, Path]:
    """The command's configuration and its output directory, made if missing."""
    config = load_config(args.config)
    out = Path(args.out) if args.out else Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _write(out: Path, artifacts: dict) -> None:
    """Write each artifact into ``out`` by its name's suffix, in order, then
    print one ``wrote`` line naming them.  A ``.csv`` artifact is a header
    and the records whose cells it names; any other is a JSON payload."""
    paths = [out / name for name in artifacts]
    for path, content in zip(paths, artifacts.values()):
        if path.suffix == ".csv":
            header, records = content
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows([_cell(record[key]) for key in header] for record in records)
        else:
            path.write_text(_json_text(content) + "\n")  # one line, as json.dumps writes it
    print("wrote " + " and ".join(map(str, paths)))


def _closed_form_key_rates(config: RunConfig) -> dict:
    """The channel's error probability and the uniform-error key bound, as
    one JSON-ready block."""
    scheme = config.binning()
    model = config.channel_model()
    p = error_probability(model)
    rate = simplified_key_rate(scheme.m, p, scheme.beta_plus, scheme.beta_minus)
    return {
        "error_probability": p,
        "pure_noise": pure_noise(model),
        "transmission": transmission(model),
        "entropy_route": _field_dict(rate),
    }


def _scan(config: RunConfig, section: str, key: str, values) -> list[tuple]:
    """``(value, rates)`` with ``section.key`` set to each of ``values`` in
    turn: the value as set (an ``int`` for an integer key) and the closed-form
    key rates there.  Each point is built and evaluated before the next."""
    points = (config.with_section(section, **{key: value}) for value in values)
    return [
        (getattr(getattr(point, section), key), _closed_form_key_rates(point)) for point in points
    ]


def cmd_analyze(args) -> int:
    config, out = _open(args)
    scheme = config.binning()
    lens = design_time_lens(scheme)
    wide, narrow = scheme.matched_widths()
    rates = _closed_form_key_rates(config)
    payload = {
        "design": {
            "m": scheme.m,
            "delta_omega": scheme.delta_omega,
            "beta_plus": scheme.beta_plus,
            "beta_minus": scheme.beta_minus,
            "wide_width": wide,
            "narrow_width": narrow,
            "schmidt_number": analytic_schmidt_number(wide, narrow),
            "mod_frequency": lens.mod_frequency,
            "mod_depth": lens.mod_depth,
            "focusing_rate": lens.focusing_rate,
            "total_gvd": lens.gvd,
            "aperture": lens.aperture,
            "time_resolution": time_resolution(scheme, lens),
            "resolution_product": resolution_product(scheme, lens),
        },
        "security": {
            "alphabet_bits": math.log2(scheme.m),
            "uncertainty_bound": rates["entropy_route"]["uncertainty_bound"],
            "binning_deficit": rates["entropy_route"]["deficit"],
        },
        "channel": {
            "error_probability": rates["error_probability"],
            "pure_noise": rates["pure_noise"],
            "transmission": rates["transmission"],
        },
        "key_rate": {"entropy_route": rates["entropy_route"]},
    }
    print(f"alphabet bits {payload['security']['alphabet_bits']:.1f}, "
          f"error probability {rates['error_probability']:.3e}, "
          f"secret key {rates['entropy_route']['secret_key']:.4f} bits")
    _write(out, {"analyze.json": payload})
    return 0


def cmd_sweep(args) -> int:
    config, out = _open(args)
    sweep = config.sweep
    section, key = sweep.target()  # refuses a bad path before any point, even with no values
    header = ["parameter", "value", "error_probability", "mutual_information",
              "secret_key", "clamped"]
    records = [
        {
            "parameter": sweep.parameter,
            "value": value,
            "error_probability": rates["error_probability"],
            "mutual_information": rates["entropy_route"]["mutual_information"],
            "secret_key": rates["entropy_route"]["secret_key"],
            "clamped": rates["entropy_route"]["clamped"],
        }
        for value, rates in _scan(config, section, key, sweep.resolved_values())
    ]
    print(f"swept {sweep.parameter} over {len(records)} values")
    _write(out, {"sweep.csv": (header, records),
                 "sweep.json": {"parameter": sweep.parameter, "rows": records}})
    return 0


def cmd_montecarlo(args) -> int:
    config, out = _open(args)
    overrides = {"rounds": args.rounds, "seed": args.seed}
    config = config.with_section(
        "simulation", **{key: value for key, value in overrides.items() if value is not None}
    )
    threads = args.threads if args.threads is not None else config.simulation.threads
    sim = config.simulation_config()
    model = config.channel_model()
    scheme = config.binning()
    lens = design_time_lens(scheme)
    freq_dist = time_dist = None
    if sim.correlation_model == "sampled-jsa":
        wide, narrow = scheme.matched_widths()
        freq_dist = gaussian_outcome_distribution(scheme, lens, wide, narrow, FREQUENCY_BASIS)
        time_dist = gaussian_outcome_distribution(scheme, lens, wide, narrow, TIME_BASIS)
    ledger = simulate_rounds(sim, model, freq_dist, time_dist, threads=threads)
    closed_p = error_probability(model)
    payload = {
        "simulation": _field_dict(sim),
        "counts": {
            "rounds": ledger.rounds,
            "no_click": ledger.no_click,
            "multi_click_discarded": ledger.multi_click_discarded,
            "basis_mismatch": ledger.basis_mismatch,
            "coincidences": ledger.coincidences,
            "sifted": ledger.sifted,
            "correct": ledger.correct,
            "incorrect": ledger.incorrect,
        },
    }
    # Joint counts only (rows receiver): probabilities and stderr follow from them.
    for basis, counts, sampled in (
        (FREQUENCY_BASIS, ledger.joint_counts_frequency, freq_dist),
        (TIME_BASIS, ledger.joint_counts_time, time_dist),
    ):
        payload[basis] = {
            "counts": counts,
            "out_of_window": None if sampled is None else sampled.out_of_window,
        }
    error_block = {"closed_form": closed_p, "pure_noise": pure_noise(model),
                   "empirical": None, "stderr": None}
    if ledger.sifted > 0:
        p_hat = empirical_error_probability(ledger)
        error_block["empirical"] = p_hat
        error_block["stderr"] = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / ledger.sifted)
    payload["error_probability"] = error_block
    payload["key_rate"] = None
    if ledger.joint_counts_frequency.any() and ledger.joint_counts_time.any():
        payload["key_rate"] = _field_dict(estimate_key_rate(ledger, scheme, lens))
    print(f"{ledger.sifted} sifted rounds out of {ledger.rounds}")
    if error_block["empirical"] is not None:
        print(f"empirical error probability {error_block['empirical']:.3e} "
              f"(closed form {closed_p:.3e})")
    _write(out, {"montecarlo.json": payload})
    return 0


def cmd_feasibility(args) -> int:
    config, out = _open(args)
    report = check_feasibility(config.binning(), config.hardware_spec())
    payload = {**_field_dict(report), "feasible": report.feasible, "conventions": {}}
    for name in ("ordinary", "angular"):
        figures = _field_dict(payload.pop(name))
        payload["conventions"][figures.pop("convention")] = figures
    verdict = "feasible" if report.feasible else "not feasible"
    print(f"{verdict}: needs {report.required_frequency_hz / 1e9:.2f} GHz modulation "
          f"at depth {report.required_depth:.1f} rad")
    _write(out, {"feasibility.json": payload})
    return 0


def cmd_alphabet_scan(args) -> int:
    if args.max_bits < 1:
        raise ParameterError(f"--max-bits must be at least 1, got {args.max_bits}")
    config, out = _open(args)
    bits = range(1, args.max_bits + 1)
    header = ["alphabet_bits", "m", "error_probability", "secret_key", "clamped"]
    records = [
        {
            "alphabet_bits": b,
            "m": m,
            "error_probability": rates["error_probability"],
            "secret_key": rates["entropy_route"]["secret_key"],
            "clamped": rates["entropy_route"]["clamped"],
        }
        for b, (m, rates) in zip(bits, _scan(config, "protocol", "m", (2**b for b in bits)))
    ]
    keys = [record["secret_key"] for record in records]
    best = records[max(range(len(keys)), key=keys.__getitem__)]
    declining = (b for b, before, key in zip(bits[1:], keys, keys[1:]) if key < before)
    crossing = (record["alphabet_bits"] for record in records if record["secret_key"] < 0.0)
    summary = {
        "best_alphabet_bits": best["alphabet_bits"],
        "best_secret_key": best["secret_key"],
        "first_declining_bits": next(declining, None),
        "zero_crossing_bits": next(crossing, None),
    }
    print(f"best alphabet {best['m']} symbols ({best['alphabet_bits']} bits) at "
          f"{best['secret_key']:.4f} secret bits per pair")
    _write(out, {"alphabet_scan.csv": (header, records),
                 "alphabet_scan.json": {"rows": records, "summary": summary}})
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="chronokey",
        description="Binned time-frequency entanglement: design, key rates, and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        name: sub.add_parser(name, help=text)
        for name, text in (
            ("analyze", "closed-form design and key-rate summary"),
            ("sweep", "sweep one config parameter over the closed forms"),
            ("montecarlo", "simulate rounds and compare with closed forms"),
            ("feasibility", "check the design against hardware limits"),
            ("alphabet-scan", "closed-form key rate versus alphabet size"),
        )
    }
    for p in commands.values():
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON configuration file (defaults apply otherwise)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides the config)")
    p = commands["montecarlo"]
    p.add_argument("--rounds", type=int, default=None, help="override the round count")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument(
        "--threads", type=int, default=None,
        help="worker threads, at most one per core and one per shard, used only when each "
        "shard expects over 2**15 live rounds (no effect on results)",
    )
    commands["alphabet-scan"].add_argument(
        "--max-bits", type=int, default=16, help="largest alphabet, in bits"
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, so a wrapper later installed on a ``cmd_*`` attribute runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ChronokeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
