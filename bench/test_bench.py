"""Self-tests of the benchmark (not part of the repository's test suite).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# Request plans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    assert workloads.requests(workload, 7, 15) == workloads.requests(workload, 7, 15)
    assert workloads.requests(workload, 7, 15) != workloads.requests(workload, 8, 15)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_is_whole_cycles(workload):
    block = len(next(workloads.plan(workload, 1)))
    cycle = block * (1 if workload == workloads.CLI_WORKLOAD else workloads.STRATA)
    for seconds in (1, 15, 40):
        specs = workloads.requests(workload, 1, seconds)
        assert len(specs) % cycle == 0 and len(specs) >= workloads.MIN_REQUESTS
    assert len(workloads.requests(workload, 1, 10 * workloads.CYCLE_SECONDS[workload])) == 10 * cycle


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_block_holds_the_same_mix(workload):
    blocks = list(itertools.islice(workloads.plan(workload, 3), 5))
    kinds = [sorted(spec.get("name", spec["kind"]).replace("hom", "rabi") for spec in block) for block in blocks]
    assert all(k == kinds[0] for k in kinds)


def test_strata_cover_the_range_evenly():
    draw = workloads._Quantiles(random.Random(5))
    points = sorted(draw() for _ in range(workloads.STRATA))
    for i, q in enumerate(points):
        assert abs(q * workloads.STRATA - (i + 0.5)) <= 1 / 32


# ---------------------------------------------------------------------------
# Correctness checks: each accepts the reference and rejects a result
# perturbed just beyond its tolerance.
# ---------------------------------------------------------------------------


def rejects(check, *args, **kwargs):
    with pytest.raises(checks.Mismatch):
        check(*args, **kwargs)
    return True


def test_discrete_error_check():
    want = checks.closed_form_error(500)
    checks.check_discrete_error(500, want)
    assert rejects(checks.check_discrete_error, 500, want + 1.5 * checks.TOL_CLOSED_FORM)


def test_absorption_error_check():
    want = 1.0 - checks.absorption_survival((math.pi / 4) / 200)
    checks.check_absorption_error(50, want)
    assert rejects(checks.check_absorption_error, 50, want - 1.5 * checks.TOL_CLOSED_FORM)


def test_absorption_reference_matches_discrete_limit():
    # Strong absorption is the discrete protocol at matched N, to O(1/N^2).
    n = 2000
    assert abs((1.0 - checks.absorption_survival((math.pi / 4) / (4 * n))) - checks.closed_form_error(n)) < 1e-6


def exact_gate(p_error):
    m = np.zeros((4, 4), dtype=complex)
    m[1:3, 1:3] = checks.SINGLE_PHOTON_BLOCK
    return m, [1.0, 1.0, 1.0, 1.0 - p_error]


def test_gate_check():
    m, s = exact_gate(checks.closed_form_error(300))
    checks.check_gate(m, s, n=300)
    bad = m.copy()
    bad[2, 1] += 1.5 * checks.TOL_SINGLE_PHOTON
    assert rejects(checks.check_gate, bad, s, n=300)
    assert rejects(checks.check_gate, m, [1.0, 1.0 - 1.5 * checks.TOL_SINGLE_PHOTON, 1.0, s[3]], n=300)
    assert rejects(checks.check_gate, m, s[:3] + [s[3] + 1.5 * checks.TOL_CLOSED_FORM], n=300)
    tau_d = 1e-3
    m, s = exact_gate(1.0 - checks.absorption_survival(tau_d))
    checks.check_gate(m, s, tau_d=tau_d)
    assert rejects(checks.check_gate, m, s[:3] + [s[3] - 1.5 * checks.TOL_CLOSED_FORM], tau_d=tau_d)


@pytest.mark.parametrize("kind, freq", [("rabi", 1.0), ("hom", 2.0)])
def test_curve_check(kind, freq):
    times = np.linspace(0.0, 1.0, 7)
    rows = [(t, math.cos(freq * t) ** 2) for t in times]
    checks.check_curve(kind, rows, times)
    rows[3] = (rows[3][0], rows[3][1] + 1.5 * checks.TOL_CURVE)
    assert rejects(checks.check_curve, kind, rows, times)
    assert rejects(checks.check_curve, kind, rows[:-1], times)


def test_fermion_checks():
    want = 1.0 - math.cos(math.pi / 200) ** 100
    checks.check_fermion_gap(100, (1, 1), want)
    assert rejects(checks.check_fermion_gap, 100, (1, 1), want + 1.5 * checks.TOL_CLOSED_FORM)
    checks.check_fermion_gap(100, (0, 1), 0.5 * checks.TOL_SINGLE_PHOTON)
    assert rejects(checks.check_fermion_gap, 100, (1, 0), 1.5 * checks.TOL_SINGLE_PHOTON)
    checks.check_anticommutator(0.5 * checks.TOL_ANTICOMMUTATOR, 0.5 * checks.TOL_CROSS_COMMUTATOR)
    assert rejects(checks.check_anticommutator, 1.5 * checks.TOL_ANTICOMMUTATOR, 0.0)
    assert rejects(checks.check_anticommutator, 0.0, 1.5 * checks.TOL_CROSS_COMMUTATOR)


def test_rate_check():
    checks.check_rate(math.sqrt(2 / math.pi))
    assert rejects(checks.check_rate, math.sqrt(2 / math.pi) + 1.5 * checks.TOL_RATE)


def test_monte_carlo_check():
    p, trials = 0.1, 100_000
    want = checks.exact_tree_failure(p)
    sigma = math.sqrt(want * (1 - want) / trials)
    checks.check_monte_carlo(p, trials, want + 4.5 * sigma)
    assert rejects(checks.check_monte_carlo, p, trials, want + 5.5 * sigma)


def test_checks_reject_nan():
    assert rejects(checks.check_discrete_error, 10, float("nan"))
    assert rejects(checks.check_fermion_gap, 10, (0, 1), float("nan"))


# ---------------------------------------------------------------------------
# README commands: real output passes, perturbed output fails
# ---------------------------------------------------------------------------


def cli_output(argv, tmp_path, monkeypatch):
    from zenogate.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "demos").mkdir(exist_ok=True)
    (tmp_path / workloads.PARAMS_FILE).write_bytes((run.CHECKOUT / workloads.PARAMS_FILE).read_bytes())
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return (tmp_path / "rabi.csv").read_text() if "--out" in argv else buffer.getvalue()


@pytest.mark.parametrize("name", workloads.README_COMMANDS)
def test_readme_command_output_passes(name, tmp_path, monkeypatch):
    argv = workloads.README_COMMANDS[name]
    checks.check_cli_output(name, argv, cli_output(argv, tmp_path, monkeypatch))


def test_perturbed_command_output_fails(tmp_path, monkeypatch):
    argv = workloads.README_COMMANDS["gate-discrete"]
    doc = json.loads(cli_output(argv, tmp_path, monkeypatch))
    doc["results"]["success_probability_per_input"]["11"] += 1.5 * checks.TOL_CLOSED_FORM
    assert rejects(checks.check_cli_output, "gate-discrete", argv, json.dumps(doc))

    argv = workloads.README_COMMANDS["hom"]
    lines = cli_output(argv, tmp_path, monkeypatch).splitlines()
    t, p = lines[-5].split(",")
    lines[-5] = f"{t},{float(p) + 1.5 * checks.TOL_CURVE!r}"
    assert rejects(checks.check_cli_output, "hom", argv, "\n".join(lines))


def test_rerun_mismatch_is_a_failure():
    from worker import verify_cli

    spec = {"kind": "cli", "name": "rate", "argv": workloads.README_COMMANDS["rate"]}
    first = {}
    text = json.dumps({"results": {"rate_times_tau_r": math.sqrt(2 / math.pi)}})
    verify_cli(spec, 0, text, first)
    verify_cli(spec, 0, text, first)
    assert rejects(verify_cli, spec, 0, text + " ", first)
    assert rejects(verify_cli, spec, 2, text, {})


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


def test_self_times_of_nested_calls_add_up_to_the_outer_span():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = t.wrap("x.leaf", leaf)

    def outer():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    t.wrap("x.outer", outer)()
    totals = t.self_times()
    assert totals["x.leaf"][0] == 2 and totals["x.outer"][0] == 1
    name, start, end, parent = t.spans[0]
    assert name == "x.outer" and parent == -1
    assert sum(self_s for _, self_s in totals.values()) == pytest.approx(end - start, abs=1e-12)
    assert totals["x.outer"][1] >= 0.001


def test_wrappers_reach_every_namespace_and_are_removed():
    import zenogate
    import zenogate.dynamics
    import zenogate.fermions
    import zenogate.fock
    import zenogate.gate

    original = zenogate.fock.matrix_exponential
    with tracer.Tracer().installed() as t:
        for module in (zenogate, zenogate.fock, zenogate.gate, zenogate.dynamics, zenogate.fermions):
            assert module.matrix_exponential is not original
        zenogate.rabi_curve([0.1, 0.2])
    for module in (zenogate, zenogate.fock, zenogate.gate, zenogate.dynamics, zenogate.fermions):
        assert module.matrix_exponential is original
    totals = t.self_times()
    assert totals["gate.rabi_curve"][0] == 1
    assert totals["dynamics.evolve_state"][0] == 2
    assert totals["fock.matrix_exponential"][0] == 2
    parents = {t.spans[parent][0] for name, _, _, parent in t.spans if name == "fock.matrix_exponential"}
    assert parents == {"dynamics.evolve_state"}


def test_draws_are_counted_from_arguments():
    import zenogate

    with tracer.Tracer().installed() as t:
        zenogate.monte_carlo_logical_failure(0.1, trials=1000, seed=1)
    assert t.counts == {"encoding.draws_computed": 6000}


# ---------------------------------------------------------------------------
# Metrics and BENCHMARK.json
# ---------------------------------------------------------------------------


def test_tail_keeps_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(30)])
    assert pct == pytest.approx(100 * 20 / 30) and 19.0 < value < 20.0
    with pytest.raises(RuntimeError):
        run.tail([1.0] * 10)


def test_quantile_estimate():
    assert run.quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    assert run.quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == pytest.approx(3.0)
    # Stratified requests whose latencies span two decades, each slowed or sped
    # up at random by the host: the estimate spreads less from run to run than
    # the sample median.
    rng = np.random.default_rng(0)
    runs = np.geomspace(0.01, 1.0, 96) * np.exp(rng.normal(0.0, 0.2, (200, 96)))
    estimates = [run.quantile(list(r), 0.5) for r in runs]
    assert np.std(estimates) < 0.8 * np.std(np.median(runs, axis=1))


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = json.loads(BENCHMARK_JSON.read_text())
    fake_run = {
        "latencies": [0.1 + 0.01 * i for i in range(40)],
        "peak_rss_mb": 60.0,
        "trace": {"untraced_s": 1.0, "traced_s": 1.1, "self_times": {}, "counts": {}},
    }
    e2e = run.end_to_end(fake_run, [0.5, 0.6])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    monkeypatch.setattr(run, "import_times", lambda env: dict.fromkeys(
        ("import.total_s", "import.scipy_s", "import.zenogate_self_s"), 0.5))
    layers = run.per_layer(fake_run, {}, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layers.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
