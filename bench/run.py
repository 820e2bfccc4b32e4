"""zenogate benchmark: one workload, one seed, closed loop with one client.

    python3 bench/run.py --workload zeno-protocols --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; zenogate is imported from its
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced replay.  Every request is
checked against a reference the benchmark computes itself.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
WORK_DIR = CHECKOUT / ".bench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
TAIL_ABOVE = 10  # the tail percentile keeps at least this many samples above it

# The matrices are at most 9x9 and the cores are shared: one BLAS/OpenMP thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def workload_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(CHECKOUT / "src")
    return env


def git_sha() -> str:
    head = CHECKOUT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (CHECKOUT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "threads_per_process": 1,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def run_process(argv: list[str], env: dict) -> tuple[int, bytes, bytes, float, float]:
    """Run to completion; returns (exit code, stdout, stderr, wall s, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=WORK_DIR, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0


def start_worker(workload: str, seed: int, seconds: float, env: dict, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; returns the process and its set-up time."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *extra],
        cwd=WORK_DIR, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {workload} did not get ready (exit {proc.returncode})")
    return proc, setup


def finish_worker(proc: subprocess.Popen, setup_only: bool = False) -> dict | None:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return None if setup_only else json.loads(out.strip().splitlines()[-1])


def import_times(env: dict) -> dict:
    """import.* from ``-X importtime`` of ``import zenogate`` in fresh interpreters (medians)."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        code, _, err, _, _ = run_process([sys.executable, "-X", "importtime", "-c", "import zenogate"], env)
        if code != 0:
            raise RuntimeError("import zenogate failed")
        total = scipy = own = 0.0
        for line in err.decode().splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cumulative_us, name = (field.strip() for field in line[len("import time:"):].split("|"))
            if name in ("scipy", "zenogate") or name.startswith(("scipy.", "zenogate.")):
                if name.startswith("scipy"):
                    scipy += int(self_us) / 1e6
                else:
                    own += int(self_us) / 1e6
            if name == "zenogate":
                total = int(cumulative_us) / 1e6
        samples.append((total, scipy, own))
    return {
        "import.total_s": statistics.median(s[0] for s in samples),
        "import.scipy_s": statistics.median(s[1] for s in samples),
        "import.zenogate_self_s": statistics.median(s[2] for s in samples),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def prepare_work_dir() -> None:
    """Commands run here, so ``--out rabi.csv`` lands in the work dir and
    the README's relative ``demos/rate_params.txt`` resolves."""
    (WORK_DIR / "demos").mkdir(parents=True, exist_ok=True)
    shutil.copyfile(CHECKOUT / workloads.PARAMS_FILE, WORK_DIR / workloads.PARAMS_FILE)


def cli_loop(seed: int, seconds: float, env: dict) -> dict:
    """The run's README commands, each as a subprocess, one after another."""
    from worker import verify_cli

    python = [sys.executable, "-m", "zenogate.cli"]
    out_file = WORK_DIR / "rabi.csv"
    latencies, peak, failed, errors, first_output = [], 0.0, 0, [], {}
    started = time.perf_counter()
    for spec in workloads.requests(workloads.CLI_WORKLOAD, seed, seconds):
        if time.perf_counter() - started > workloads.STOP_AFTER * seconds:
            break
        out_file.unlink(missing_ok=True)
        code, out, err, wall, rss = run_process(python + spec["argv"], env)
        latencies.append(wall)
        peak = max(peak, rss)
        if "--out" in spec["argv"] and code == 0:
            out = out_file.read_bytes()
        try:
            verify_cli(spec, code, out, first_output)
        except Exception as exc:  # a malformed output is a failed request
            failed += 1
            if len(errors) < 5:
                errors.append(f"{spec['name']}: {type(exc).__name__}: {exc} {err.decode()[-300:]}")
    return {"latencies": latencies, "attempted": len(latencies), "failed": failed, "errors": errors,
            "peak_rss_mb": peak}


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple[dict, dict]:
    """Returns (run result, end-to-end or per-layer metrics)."""
    if trace:
        seconds /= 2  # the untraced run and the traced replay share the run's time
    trace_to = ("--trace-to", str(WORK_DIR / f"spans-{workload}.csv"))
    if workload == workloads.CLI_WORKLOAD and not trace:
        setups = [run_process([sys.executable, "-c", "import zenogate"], env)[3] for _ in range(SETUP_SAMPLES)]
        run = cli_loop(seed, seconds, env)
        return run, end_to_end(run, setups)
    if workload == workloads.CLI_WORKLOAD:
        sub = cli_loop(seed, seconds, env)
        proc, _ = start_worker(workload, seed, seconds, env, *trace_to)
        run = finish_worker(proc)
        overhead = statistics.mean(sub["latencies"]) - statistics.mean(run["latencies"])
        merged = {key: sub[key] + run[key] for key in ("attempted", "failed", "errors")}
        return {**run, **merged}, per_layer(run, env, overhead)
    if trace:
        proc, _ = start_worker(workload, seed, seconds, env, *trace_to)
        run = finish_worker(proc)
        return run, per_layer(run, env, 0.0)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(workload, seed, seconds, env, "--setup-only")
        finish_worker(proc, setup_only=True)
        setups.append(setup)
    proc, setup = start_worker(workload, seed, seconds, env)
    run = finish_worker(proc)
    return run, end_to_end(run, setups + [setup])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of ``samples``.

    The mean of the sorted samples, each weighted by the share of a
    Beta(p(n+1), (1-p)(n+1)) distribution that falls on its rank.  It draws
    on the samples around the quantile instead of a single one, so a request
    that the shared host happened to slow moves it far less than it moves the
    sample quantile.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(samples)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.linspace(0.0, 1.0, n + 1)))
    return float(weights @ np.sort(samples))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_ABOVE samples above it."""
    n = len(latencies)
    if n <= TAIL_ABOVE:
        raise RuntimeError(f"{n} samples are too few for a tail with {TAIL_ABOVE} above it")
    share = (n - TAIL_ABOVE) / n
    return quantile(latencies, share), 100.0 * share


def end_to_end(run: dict, setups: list[float]) -> dict:
    lat = run["latencies"]
    tail_s, _ = tail(lat)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (quantile(lat, 0.5), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
    }


def per_layer(run: dict, env: dict, subprocess_overhead_s: float) -> dict:
    import tracer

    trace = run["trace"]
    metrics = {name: (value, "s") for name, value in import_times(env).items()}
    metrics["cli.subprocess_overhead_s"] = (subprocess_overhead_s, "s")
    for name in tracer.span_names():
        calls, self_s = trace["self_times"].get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["encoding.draws_computed"] = (trace["counts"].get("encoding.draws_computed", 0), "count")
    metrics["trace.overhead_frac"] = ((trace["traced_s"] - trace["untraced_s"]) / trace["untraced_s"], "1")
    return metrics


def trace_consistent(run: dict) -> bool:
    """Self times partition the top-level spans, which lie inside the timed requests."""
    trace = run["trace"]
    return sum(self_s for _, self_s in trace["self_times"].values()) <= trace["traced_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "zenogate" / "__init__.py").is_file():
        print(f"error: no zenogate sources under {CHECKOUT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    prepare_work_dir()
    env = workload_env()
    run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), env)

    correct = run["failed"] == 0 and (not args.trace or trace_consistent(run))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    counts = {"samples": len(run["latencies"])}
    if not args.trace:
        counts["setup_samples"] = SETUP_SAMPLES
    print("env " + json.dumps({**environment(args.seed), **counts}))
    for message in run["errors"]:
        print(f"failed request: {message}")
    if not args.trace:
        _, pct = tail(run["latencies"])
        print(f"failed_frac       {run['failed'] / run['attempted']:.6g} 1  ({run['failed']} of {run['attempted']})")
        print(f"latency_tail at p{pct:.1f} of {len(run['latencies'])} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
