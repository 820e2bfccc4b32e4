"""One fresh interpreter that imports zenogate and serves a workload in process.

Started by run.py.  Prints ``ready`` once zenogate is imported, the plan is
generated and one warm-up request has run (the end of set-up), then runs
the timed closed loop and prints one JSON line of results.  With
``--setup-only`` it exits after ``ready``.  With ``--trace-to`` it then
replays the same requests under the tracer and writes the spans to that
file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def run_request(zenogate, spec: dict):
    """Call zenogate for one request; returns what verify() needs."""
    kind = spec["kind"]
    if kind == "error-discrete":
        return zenogate.error_curve("discrete", [spec["n"]])
    if kind == "error-absorption":
        return zenogate.error_curve("absorption", [spec["n"]])
    if kind == "gate-discrete":
        return zenogate.extract_gate(zenogate.ZenoProtocol.discrete(spec["n"]))
    if kind == "gate-absorption":
        return zenogate.extract_gate(zenogate.ZenoProtocol.absorption((math.pi / 4) / (4 * spec["n"])))
    if kind == "anticommutator":
        return zenogate.anticommutator_report(spec["tau_d"], 1.0)
    if kind == "fermion-gap":
        return zenogate.compare_to_zeno_photons(1.0, math.pi / 4, spec["n"], spec["occ"])
    if kind == "rabi":
        return zenogate.rabi_curve(spec["times"])
    if kind == "hom":
        return zenogate.hom_curve(spec["times"])
    if kind == "monte-carlo":
        return zenogate.monte_carlo_logical_failure(spec["p"], spec["trials"], spec["seed"])
    if kind == "rate":
        import workloads

        params, target = zenogate.load_params_file(CHECKOUT / workloads.PARAMS_FILE)
        return zenogate.two_photon_rate(params, target).rate * params.tau_r
    if kind == "cli":
        return _run_cli_in_process(zenogate, spec["argv"])
    raise ValueError(f"unknown request kind {kind!r}")


def _run_cli_in_process(zenogate, argv):
    """zenogate.cli.main(argv) in this process; returns (exit code, output text)."""
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = zenogate.cli.main(list(argv))
    text = out_path.read_text(encoding="utf-8") if out_path is not None and code == 0 else buffer.getvalue()
    return code, text


def verify(spec: dict, result, first_output: dict) -> None:
    """Raise checks.Mismatch unless the result matches the benchmark's reference."""
    import checks

    kind = spec["kind"]
    if kind == "error-discrete":
        checks.check_discrete_error(spec["n"], result[0][1])
    elif kind == "error-absorption":
        checks.check_absorption_error(spec["n"], result[0][1])
    elif kind == "gate-discrete":
        checks.check_gate(result.conditional_map, result.success_probability_per_input, n=spec["n"])
    elif kind == "gate-absorption":
        tau_d = (math.pi / 4) / (4 * spec["n"])
        checks.check_gate(result.conditional_map, result.success_probability_per_input, tau_d=tau_d)
    elif kind == "anticommutator":
        checks.check_anticommutator(result.anticommutator_deviation, result.cross_commutator_deviation)
    elif kind == "fermion-gap":
        checks.check_fermion_gap(spec["n"], spec["occ"], result)
    elif kind in ("rabi", "hom"):
        checks.check_curve(kind, result, spec["times"])
    elif kind == "monte-carlo":
        checks.check_monte_carlo(spec["p"], spec["trials"], result.mc_estimate)
    elif kind == "rate":
        checks.check_rate(result)
    elif kind == "cli":
        verify_cli(spec, *result, first_output)
    else:
        raise ValueError(f"unknown request kind {kind!r}")


def verify_cli(spec: dict, code: int, text, first_output: dict) -> None:
    """Exit code 0, values parsed back, and byte-identical to the command's first run."""
    import checks

    if code != 0:
        raise checks.Mismatch(f"{spec['name']}: exit code {code}")
    first = first_output.setdefault(spec["name"], text)
    if text != first:
        raise checks.Mismatch(f"{spec['name']}: output differs from its first run in this process")
    checks.check_cli_output(spec["name"], spec["argv"], text if isinstance(text, str) else text.decode())


def with_inputs(spec: dict) -> dict:
    """Attach the time grid of a rabi/hom request: one full period of its curve."""
    if spec["kind"] in ("rabi", "hom"):
        import numpy as np

        t_max = math.pi if spec["kind"] == "rabi" else math.pi / 2
        return {**spec, "times": np.linspace(0.0, t_max, spec["points"])}
    return spec


class Loop:
    """Closed loop with one client: the next request starts when the last one returns."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.first_output: dict = {}

    def serve(self, zenogate, spec: dict) -> None:
        start = time.perf_counter()
        try:
            result = run_request(zenogate, spec)
        except Exception as exc:  # any raise is a failed request, not a benchmark crash
            self.latencies.append(time.perf_counter() - start)
            self._fail(spec, f"{type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            verify(spec, result, self.first_output)
        except Exception as exc:
            self._fail(spec, f"{type(exc).__name__}: {exc}")

    def _fail(self, spec: dict, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            shown = {k: v for k, v in spec.items() if k != "times"}
            self.errors.append(f"{shown}: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-to", default=None, help="replay under the tracer; write the spans here")
    args = parser.parse_args(argv)

    import zenogate

    src = (CHECKOUT / "src").resolve()
    if src not in Path(zenogate.__file__).resolve().parents:
        print(f"error: imported zenogate from {zenogate.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    if args.workload == workloads.CLI_WORKLOAD:
        import zenogate.cli  # noqa: F401  (the README commands enter here)

    specs = [with_inputs(spec) for spec in workloads.requests(args.workload, args.seed, args.seconds)]
    run_request(zenogate, with_inputs(workloads.WARM_UP[args.workload]))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    loop, done = Loop(), []
    started = time.perf_counter()
    for spec in specs:
        if time.perf_counter() - started > workloads.STOP_AFTER * args.seconds:
            break
        loop.serve(zenogate, spec)
        done.append(spec)

    result = {
        "latencies": loop.latencies,
        "attempted": len(done),
        "failed": loop.failed,
        "errors": loop.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace_to:
        import tracer

        traced = Loop()
        with tracer.Tracer().installed() as t:
            for spec in done:
                traced.serve(zenogate, spec)
        t.write(args.trace_to)
        result["trace"] = {
            "untraced_s": sum(loop.latencies),
            "traced_s": sum(traced.latencies),
            "self_times": t.self_times(),
            "counts": t.counts,
        }
        result["attempted"] += len(done)
        result["failed"] += traced.failed
        result["errors"] += traced.errors
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
