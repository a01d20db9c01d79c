"""Command-line front end.

Five subcommands: ``analyze`` (closed-form design and key-rate summary),
``sweep`` (one parameter swept over the closed-form chain), ``montecarlo``
(round simulation against the closed forms), ``feasibility`` (hardware
check), and ``alphabet-scan`` (closed-form key rate versus alphabet size).
Every command reads one JSON configuration file and writes deterministic
JSON (and CSV where tabular) into the output directory: reruns with the
same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .chronocyclic import analytic_schmidt_number
from .config import RunConfig, load_config, set_by_path
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


def _write_json(path: Path, payload: dict) -> None:
    # Without ``indent``, ``json`` takes its C encoder: one line per artifact.
    path.write_text(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


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
        "entropy_route": dataclasses.asdict(rate),
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
    values = sweep.resolved_values()
    base = config.to_dict()
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
        data = json.loads(json.dumps(base))
        value = set_by_path(data, sweep.parameter, value)
        rates = _closed_form_key_rates(RunConfig.from_dict(data))
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
    sim_dict = {}
    if args.rounds is not None:
        sim_dict["rounds"] = args.rounds
    if args.seed is not None:
        sim_dict["seed"] = args.seed
    if sim_dict:
        data = config.to_dict()
        data["simulation"].update(sim_dict)
        config = RunConfig.from_dict(data)
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
        "simulation": dataclasses.asdict(sim),
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
            "counts": counts.tolist(),
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
        payload["key_rate"] = dataclasses.asdict(estimate_key_rate(ledger, scheme, lens))
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
    base_model = config.channel_model()
    protocol = config.protocol
    rows = []
    records = []
    header = ["alphabet_bits", "m", "error_probability", "secret_key", "clamped"]
    for bits in range(1, args.max_bits + 1):
        m = 2**bits
        p = error_probability(dataclasses.replace(base_model, m=m))
        rate = simplified_key_rate(m, p, protocol.beta_plus, protocol.beta_minus)
        record = {
            "alphabet_bits": bits,
            "m": m,
            "error_probability": p,
            "secret_key": rate.secret_key,
            "clamped": rate.clamped,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronokey",
        description="Binned time-frequency entanglement: design, key rates, and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON configuration file (defaults apply otherwise)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides the config)")

    p = sub.add_parser("analyze", help="closed-form design and key-rate summary")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="sweep one config parameter over the closed forms")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("montecarlo", help="simulate rounds and compare with closed forms")
    common(p)
    p.add_argument("--rounds", type=int, default=None, help="override the round count")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--threads", type=int, default=None, help="worker threads (no effect on results)")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("feasibility", help="check the design against hardware limits")
    common(p)
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("alphabet-scan", help="closed-form key rate versus alphabet size")
    common(p)
    p.add_argument("--max-bits", type=int, default=16, help="largest alphabet, in bits")
    p.set_defaults(func=cmd_alphabet_scan)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChronokeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
