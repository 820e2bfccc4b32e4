"""Command-line harness: one subcommand per headline quantity.

Every run emits CSV or JSON with a header block echoing the subcommand and
all parameters, so a rerun with identical inputs is byte-identical.  CSV
numbers carry 12 significant digits; JSON encodes complex matrices as
row-major arrays of [re, im] pairs.

Subcommands: rabi, hom, zeno-sweep, gate, fermion-report, rate, threshold.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .absorption import load_params_file, two_photon_rate
from .encoding import threshold_sweep
from .fermions import anticommutator_report, compare_to_zeno_photons, device_phased_swap, no_go_demo
from .gate import ZenoProtocol, error_curve, extract_gate, hom_curve, rabi_curve


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _table_document(subcommand: str, params: dict, columns: list[str], rows, fmt: str) -> str:
    if fmt == "json":
        results = {"columns": columns, "rows": [list(row) for row in rows]}
        return _json_document(subcommand, params, results)
    lines = [f"# subcommand: {subcommand}", f"# version: {__version__}"]
    lines += [f"# {key}: {_fmt(val)}" for key, val in params.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_document(subcommand: str, params: dict, results: dict) -> str:
    doc = {
        "subcommand": subcommand,
        "version": __version__,
        "parameters": params,
        "results": results,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m, dtype=complex)]


def cmd_rabi(args) -> str:
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    ts = np.linspace(0.0, args.t_max, args.steps)
    rows = rabi_curve(ts)
    params = {"t_max": args.t_max, "steps": args.steps}
    return _table_document("rabi", params, ["t", "p1"], rows, args.format or "csv")


def cmd_hom(args) -> str:
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    ts = np.linspace(0.0, math.pi / 4, args.steps)
    rows = hom_curve(ts)
    return _table_document("hom", {"steps": args.steps}, ["t", "p11"], rows, args.format or "csv")


def cmd_zeno_sweep(args) -> str:
    rows = error_curve(args.mode, args.n_values)
    return _table_document(
        "zeno-sweep",
        {"mode": args.mode, "n_values": " ".join(str(n) for n in args.n_values)},
        ["n", "p_error"],
        rows,
        args.format or "csv",
    )


def cmd_gate(args) -> str:
    if (args.n is None) == (args.tau_d is None):
        raise ValueError("provide exactly one of --n or --tau-d")
    if args.n is not None:
        protocol = ZenoProtocol.discrete(args.n)
        params = {"protocol": "discrete", "n": args.n}
    else:
        protocol = ZenoProtocol.absorption(args.tau_d)
        params = {"protocol": "absorption", "tau_d": args.tau_d}
    report = extract_gate(protocol)
    results = {
        "conditional_map": _matrix_json(report.conditional_map),
        "success_probability_per_input": {
            label: report.success_probability_per_input[i]
            for i, label in enumerate(("00", "01", "10", "11"))
        },
        "error_probability": report.error_probability,
        "fidelity_to_target": report.fidelity_to_target,
        "leakage": report.leakage,
    }
    return _json_document("gate", params, results)


def cmd_fermion_report(args) -> str:
    report = anticommutator_report(args.tau_d, args.tau)
    deviations = {
        "single_particle_n1": compare_to_zeno_photons(1.0, math.pi / 4, 1, (1, 0)),
        "two_particle_n": compare_to_zeno_photons(1.0, math.pi / 4, args.n, (1, 1)),
    }
    results = {
        "equivalence_deviations": deviations,
        "n_measurements": args.n,
        "anticommutator_deviation": report.anticommutator_deviation,
        "cross_commutator_deviation": report.cross_commutator_deviation,
        "anticommutator": _matrix_json(report.anticommutator),
        "no_go_fermion_product": _matrix_json(no_go_demo("fermion")),
        "no_go_boson_product": _matrix_json(no_go_demo("boson")),
        "device_squared_gate": _matrix_json(device_phased_swap()),
    }
    return _json_document("fermion-report", {"tau_d": args.tau_d, "tau": args.tau, "n": args.n}, results)


def cmd_rate(args) -> str:
    params, p_error_target = load_params_file(args.params)
    report = two_photon_rate(params, p_error_target)
    results = {
        "sigma0_m2": report.sigma0,
        "f_delta": report.f_delta,
        "f_c": report.f_c,
        "f_p": report.f_p,
        "rate_per_s": report.rate,
        "rate_times_tau_r": report.rate * params.tau_r,
        "absorption_length_m": report.absorption_length,
        "device_length_m": report.device_length,
        "p_error_target": report.p_error_target,
        "finesse": report.finesse,
    }
    return _json_document("rate", {"params": args.params}, results)


def cmd_threshold(args) -> str:
    rows = threshold_sweep(args.p_values, args.trials, args.seed)
    columns = ["p", "analytic", "exact_tree", "mc_estimate", "mc_stderr", "mc_low", "mc_high", "trials", "seed"]
    return _table_document(
        "threshold",
        {
            "p_values": " ".join(_fmt(p) for p in args.p_values),
            "trials": args.trials,
            "seed": args.seed,
        },
        columns,
        [[row[c] for c in columns] for row in rows],
        args.format or "csv",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenogate",
        description="Reproducible runs of the Zeno-gate simulator (CSV/JSON out).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("rabi", help="single-photon transfer curve P1(t)")
    p.add_argument("--t-max", type=float, default=2 * math.pi)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=cmd_rabi, fmt="table")

    p = sub.add_parser("hom", help="two-photon coincidence curve P11(t)")
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(func=cmd_hom, fmt="table")

    p = sub.add_parser("zeno-sweep", help="error probability vs measurement count")
    p.add_argument("--mode", choices=("discrete", "absorption"), required=True)
    p.add_argument("--n-values", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_zeno_sweep, fmt="table")

    p = sub.add_parser("gate", help="extract the conditional 4x4 gate map")
    p.add_argument("--n", type=int, help="discrete protocol: number of checks")
    p.add_argument("--tau-d", type=float, help="absorption protocol: decay time")
    p.set_defaults(func=cmd_gate, fmt="report")

    p = sub.add_parser("fermion-report", help="fermion-equivalence and operator-algebra checks")
    p.add_argument("--tau-d", type=float, default=0.01)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(func=cmd_fermion_report, fmt="report")

    p = sub.add_parser("rate", help="two-photon absorption rate from a parameter file")
    p.add_argument("--params", required=True, help="key=value parameter file, SI units")
    p.set_defaults(func=cmd_rate, fmt="report")

    p = sub.add_parser("threshold", help="two-qubit encoding failure sweep")
    p.add_argument("--p-values", type=float, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_threshold, fmt="table")

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default=None, help="override the subcommand default")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fmt == "report" and args.format == "csv":
        print(f"error: {args.subcommand} only emits json", file=sys.stderr)
        return 2
    try:
        _write(args.out, args.func(args))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
