"""Command-line front end.

Five subcommands: ``analyze`` (closed-form design and key-rate summary),
``sweep`` (one parameter swept over the closed-form chain), ``montecarlo``
(round simulation against the closed forms), ``feasibility`` (hardware
check), and ``alphabet-scan`` (closed-form key rate versus alphabet size).
Every command reads one JSON configuration file and writes deterministic
JSON (and CSV where tabular) into the output directory: reruns with the
same inputs produce byte-identical files.

Every artifact is one line of ``json.dumps(payload, sort_keys=True)``
text.  ``montecarlo``'s joint count matrices go to the writer as the
ledger's int64 arrays and come out as the text of ``json.dumps`` of their
lists: a row with few non-zero cells is the all-zero row's text with
their digits spliced in, so only those cells cost Python work, and a
fuller row goes through ``json``'s C encoder.  The parser is built on the
first call and kept for the process.
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


# A row with at most 1/_SPLICE_FILL of its cells non-zero is spliced into the
# zero row's text; a fuller one costs less through the C encoder.
_SPLICE_FILL = 4


def _matrix_json(counts: np.ndarray) -> str:
    """``json.dumps(counts.tolist())`` of a 2-D integer array, with Python
    work only for the non-zero cells of its sparse rows.

    Cell ``j`` of the all-zero row ``[0, 0, ..., 0]`` starts at character
    ``1 + 3*j``, so a sparse row is that text with each non-zero cell's
    digits put in place of its ``0``.
    """
    if counts.ndim != 2 or counts.dtype.kind not in "iu":
        raise TypeError(f"cannot write a {counts.ndim}-d {counts.dtype} array as a count matrix")
    n_cols = counts.shape[1]
    zero_row = "[" + "0, " * (n_cols - 1) + "0]"
    filled = np.count_nonzero(counts, axis=1)
    spliced = (filled > 0) & (filled * _SPLICE_FILL <= n_cols)
    starts = values = []  # the spliced rows' cells, row by row
    if spliced.any():
        rows, cols = np.nonzero(counts)
        kept = spliced[rows]
        starts = (1 + 3 * cols[kept]).tolist()
        values = counts[rows[kept], cols[kept]].tolist()
    text = []
    cell = 0  # first entry of the row in ``starts`` and ``values``
    for row, (count, splice) in enumerate(zip(filled.tolist(), spliced.tolist())):
        if count == 0:
            text.append(zero_row)
        elif not splice:
            text.append(json.dumps(counts[row].tolist()))
        else:
            pieces = []
            end = 0
            for start, value in zip(starts[cell : cell + count], values[cell : cell + count]):
                pieces += (zero_row[end:start], str(value))
                end = start + 1
            pieces.append(zero_row[end:])
            text.append("".join(pieces))
            cell += count
    return "[" + ", ".join(text) + "]"


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, allow_nan=False)``, where ``value``
    may hold integer count matrices as arrays inside its (string-keyed)
    dicts."""
    if isinstance(value, np.ndarray):
        return _matrix_json(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(key)}: {_json_text(value[key])}" for key in sorted(value))
        return "{" + ", ".join(items) + "}"
    return json.dumps(value, sort_keys=True, allow_nan=False)


def _write_json(path: Path, payload: dict) -> None:
    # One line per artifact, as ``json.dumps`` writes it without ``indent``.
    path.write_text(_json_text(payload) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


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


def _resolve_out(args, config: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_analyze(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args, config)
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
    _write_json(out / "analyze.json", payload)
    print(f"alphabet bits {payload['security']['alphabet_bits']:.1f}, "
          f"error probability {rates['error_probability']:.3e}, "
          f"secret key {rates['entropy_route']['secret_key']:.4f} bits")
    print(f"wrote {out / 'analyze.json'}")
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args, config)
    sweep = config.sweep
    section, key = sweep.target()  # refuses a bad path before any point, even with no values
    values = sweep.resolved_values()
    header = [
        "parameter",
        "value",
        "error_probability",
        "mutual_information",
        "secret_key",
        "clamped",
    ]
    rows = []
    records = []
    for value in values:
        point = config.with_section(section, **{key: value})
        value = getattr(getattr(point, section), key)  # as set: an int for an integer key
        rates = _closed_form_key_rates(point)
        record = {
            "parameter": sweep.parameter,
            "value": value,
            "error_probability": rates["error_probability"],
            "mutual_information": rates["entropy_route"]["mutual_information"],
            "secret_key": rates["entropy_route"]["secret_key"],
            "clamped": rates["entropy_route"]["clamped"],
        }
        records.append(record)
        rows.append([_cell(record[key]) for key in header])
    _write_csv(out / "sweep.csv", header, rows)
    _write_json(out / "sweep.json", {"parameter": sweep.parameter, "rows": records})
    print(f"swept {sweep.parameter} over {len(values)} values")
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep.json'}")
    return 0


def cmd_montecarlo(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args, config)
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
    _write_json(out / "montecarlo.json", payload)
    print(f"{ledger.sifted} sifted rounds out of {ledger.rounds}")
    if error_block["empirical"] is not None:
        print(f"empirical error probability {error_block['empirical']:.3e} "
              f"(closed form {closed_p:.3e})")
    print(f"wrote {out / 'montecarlo.json'}")
    return 0


def cmd_feasibility(args) -> int:
    config = load_config(args.config)
    out = _resolve_out(args, config)
    report = check_feasibility(config.binning(), config.hardware_spec())
    payload = {
        "bin_frequency_hz": report.bin_frequency_hz,
        "required_frequency_hz": report.required_frequency_hz,
        "required_depth": report.required_depth,
        "frequency_ok": report.frequency_ok,
        "depth_ok": report.depth_ok,
        "feasible": report.feasible,
        "selected_convention": report.selected_convention,
        "conventions": {
            figures.convention: {
                "focusing_rate": figures.focusing_rate,
                "total_gvd": figures.total_gvd,
                "fiber_length": figures.fiber_length,
                "aperture": figures.aperture,
            }
            for figures in (report.ordinary, report.angular)
        },
    }
    _write_json(out / "feasibility.json", payload)
    verdict = "feasible" if report.feasible else "not feasible"
    print(f"{verdict}: needs {report.required_frequency_hz / 1e9:.2f} GHz modulation "
          f"at depth {report.required_depth:.1f} rad")
    print(f"wrote {out / 'feasibility.json'}")
    return 0


def cmd_alphabet_scan(args) -> int:
    if args.max_bits < 1:
        raise ParameterError(f"--max-bits must be at least 1, got {args.max_bits}")
    config = load_config(args.config)
    out = _resolve_out(args, config)
    rows = []
    records = []
    header = ["alphabet_bits", "m", "error_probability", "secret_key", "clamped"]
    for bits in range(1, args.max_bits + 1):
        m = 2**bits
        rates = _closed_form_key_rates(config.with_section("protocol", m=m))
        record = {
            "alphabet_bits": bits,
            "m": m,
            "error_probability": rates["error_probability"],
            "secret_key": rates["entropy_route"]["secret_key"],
            "clamped": rates["entropy_route"]["clamped"],
        }
        records.append(record)
        rows.append([_cell(record[key]) for key in header])
    keys = [r["secret_key"] for r in records]
    best = max(range(len(keys)), key=keys.__getitem__)
    first_declining = None
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            first_declining = records[i]["alphabet_bits"]
            break
    zero_crossing = None
    for record in records:
        if record["secret_key"] < 0.0:
            zero_crossing = record["alphabet_bits"]
            break
    payload = {
        "rows": records,
        "summary": {
            "best_alphabet_bits": records[best]["alphabet_bits"],
            "best_secret_key": records[best]["secret_key"],
            "first_declining_bits": first_declining,
            "zero_crossing_bits": zero_crossing,
        },
    }
    _write_csv(out / "alphabet_scan.csv", header, rows)
    _write_json(out / "alphabet_scan.json", payload)
    print(f"best alphabet {records[best]['m']} symbols "
          f"({records[best]['alphabet_bits']} bits) at "
          f"{records[best]['secret_key']:.4f} secret bits per pair")
    print(f"wrote {out / 'alphabet_scan.csv'} and {out / 'alphabet_scan.json'}")
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
