import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zenogate.cli import main

CANONICAL_PARAMS = """\
wavelength = 500e-9
tau_r = 16.7e-9
tau_c = 1.67e-9
delta = 1.0
m21 = 0.1
packet_length = {lp}
core_diameter = {d}
n_atoms = 100
finesse = 100
"""


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_rabi_csv_contents(capsys):
    code, out, err = run(["rabi", "--t-max", "3.141592653589793", "--steps", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# subcommand: rabi"
    assert lines[1].startswith("# version:")
    assert "# t_max: 3.14159265359" in out
    assert lines[4] == "t,p1"
    first = lines[5].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(np.cos(np.pi) ** 2, abs=1e-9)


def test_rabi_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["rabi", "--steps", "50", "--out", str(out1)]) == 0
    assert main(["rabi", "--steps", "50", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rabi_json_format_override(capsys):
    code, out, _ = run(["rabi", "--steps", "4", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["subcommand"] == "rabi"
    assert doc["results"]["columns"] == ["t", "p1"]
    assert len(doc["results"]["rows"]) == 4


def test_hom_endpoint_values(capsys):
    code, out, _ = run(["hom", "--steps", "3"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines() if not line.startswith("#")][1:]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[-1][1]) < 1e-12


def test_zeno_sweep_discrete(capsys):
    code, out, _ = run(["zeno-sweep", "--mode", "discrete", "--n-values", "1", "2"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines() if not line.startswith("#")][1:]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.75, abs=1e-12)


def test_zeno_sweep_absorption_matches_discrete(capsys):
    code, out, _ = run(["zeno-sweep", "--mode", "absorption", "--n-values", "50"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines() if not line.startswith("#")][1:]
    discrete = 1 - math.cos(math.pi / 100) ** 100
    assert float(rows[0][1]) == pytest.approx(discrete, rel=0.03)


@pytest.mark.parametrize("mode,n", [("discrete", "2.5"), ("absorption", "0")])
def test_zeno_sweep_rejects_bad_n(mode, n, capsys):
    code, out, err = run(["zeno-sweep", "--mode", mode, "--n-values", "10", n], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and n in err


def test_gate_json_report(capsys):
    code, out, _ = run(["gate", "--n", "1000"], capsys)
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["fidelity_to_target"] > 0.999
    assert results["success_probability_per_input"]["01"] == pytest.approx(1.0, abs=1e-9)
    # matrices serialize as row-major [re, im] pairs
    entry = results["conditional_map"][3][3]
    assert entry[0] == pytest.approx(0.0, abs=1e-6)
    assert entry[1] == pytest.approx(1.0, abs=1e-6)


def test_gate_single_measurement_leakage(capsys):
    code, out, _ = run(["gate", "--n", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["leakage"] == pytest.approx(1.0, abs=1e-12)


def test_gate_requires_exactly_one_mode(capsys):
    code, _, err = run(["gate"], capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run(["gate", "--n", "5", "--tau-d", "0.1"], capsys)
    assert code == 2


def test_gate_at_vanishing_tau_d(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["gate", "--tau-d", "1e-300"], capsys)
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    matrix = np.array(results["conditional_map"])
    assert np.all(np.isfinite(matrix))
    assert list(results["success_probability_per_input"].values()) == [1.0, 1.0, 1.0, 1.0]
    # the absorbed probability is 4 pi tau_d to leading order, a normal double
    absorbed = 4 * mpmath.pi * mpmath.mpf(1e-300)
    assert abs(results["error_probability"] - absorbed) <= 1e-13 * absorbed
    assert matrix[3, 3].tolist() == pytest.approx([0.0, 1.0], abs=1e-15)


def test_unwritable_out_is_an_error_line(tmp_path, capsys):
    code, out, err = run(["rabi", "--steps", "3", "--out", str(tmp_path / "missing" / "rabi.csv")], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_hom_rejects_a_single_step(capsys):
    code, _, err = run(["hom", "--steps", "1"], capsys)
    assert code == 2
    assert "steps" in err


def test_readme_commands_leave_scipy_unimported():
    # scipy is needed only by the full-space propagator route, which no
    # README command takes; importing it costs most of a CLI start-up.
    script = """
import contextlib, io, sys
import zenogate
from zenogate import cli
commands = [
    ["gate", "--n", "1000"],
    ["gate", "--tau-d", "0.000196"],
    ["zeno-sweep", "--mode", "absorption", "--n-values", "10", "20", "50"],
    ["fermion-report", "--tau-d", "0.01", "--tau", "1.0", "--n", "1000"],
    ["hom", "--steps", "200"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_gate_rejects_csv_format(capsys):
    code, _, err = run(["gate", "--n", "5", "--format", "csv"], capsys)
    assert code == 2
    assert "json" in err


def test_fermion_report(capsys):
    code, out, _ = run(["fermion-report", "--tau-d", "0.01", "--tau", "1.0", "--n", "200"], capsys)
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["anticommutator_deviation"] < 2e-3
    assert results["cross_commutator_deviation"] < 1e-6
    assert results["equivalence_deviations"]["single_particle_n1"] < 1e-12
    identity = np.array(results["no_go_fermion_product"])
    assert np.allclose(identity[:, :, 0], np.eye(4)) and np.allclose(identity[:, :, 1], 0)


def test_fermion_report_at_vanishing_tau_d(capsys):
    code, out, _ = run(["fermion-report", "--tau-d", "1e-300", "--tau", "1.0", "--n", "10"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["anticommutator_deviation"] == 0.0
    assert results["cross_commutator_deviation"] == 0.0


def test_rate_canonical_point(tmp_path, capsys):
    from scipy.constants import c

    path = tmp_path / "params.txt"
    path.write_text(
        CANONICAL_PARAMS.format(lp=c * 1.67e-9, d=500e-9 * math.sqrt(6.0) / math.pi),
        encoding="utf-8",
    )
    code, out, _ = run(["rate", "--params", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    results = doc["results"]
    assert results["rate_times_tau_r"] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-9)
    assert results["device_length_m"] < 1e-3  # finesse 100 shrinks ~5 m to sub-mm


def test_rate_malformed_file_points_at_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("wavelength = 500e-9\ntau_r = 1e-9\nwhat is this\n", encoding="utf-8")
    code, _, err = run(["rate", "--params", str(path)], capsys)
    assert code == 2
    assert "line 3" in err


def test_rate_missing_file(capsys):
    code, _, err = run(["rate", "--params", "/nonexistent/params.txt"], capsys)
    assert code == 2
    assert "error:" in err


def test_threshold_csv(capsys):
    code, out, _ = run(
        ["threshold", "--p-values", "0.1", "0.25", "--trials", "20000", "--seed", "11"], capsys
    )
    assert code == 0
    lines = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert lines[0] == "p,analytic,exact_tree,mc_estimate,mc_stderr,mc_low,mc_high,trials,seed"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(0.04, abs=1e-12)
    assert float(row[2]) == pytest.approx(0.037639, abs=1e-6)
    row25 = lines[2].split(",")
    assert float(row25[1]) == pytest.approx(0.25, abs=1e-12)


def test_threshold_rejects_trials_beyond_the_binomial_range(capsys):
    for trials in ("10000000000000000000", "0"):
        code, out, err = run(["threshold", "--p-values", "0.1", "--trials", trials], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: trials") and err.count("\n") == 1


def test_threshold_zero_count_reports_a_nonzero_upper_bound(capsys):
    code, out, _ = run(["threshold", "--p-values", "0", "--trials", "100000", "--format", "json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    row = dict(zip(results["columns"], results["rows"][0]))
    assert row["mc_estimate"] == 0 and row["mc_stderr"] == 0
    assert row["mc_low"] == 0 and row["mc_high"] > 0


def test_threshold_deterministic_across_runs(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["threshold", "--p-values", "0.1", "--trials", "5000", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threshold_rows_are_independent_across_seeds(tmp_path):
    def rows(seed, name):
        path = tmp_path / name
        argv = ["threshold", "--p-values", "0.3", "0.3", "--trials", "5000", "--seed", str(seed)]
        assert main(argv + ["--out", str(path)]) == 0
        text = path.read_bytes()
        return text, [line.split(",") for line in text.decode().splitlines() if line[0] != "#"][1:]

    first, seed1 = rows(1, "a.csv")
    again, _ = rows(1, "b.csv")
    _, seed2 = rows(2, "c.csv")
    assert first == again
    assert seed1[1][3] != seed2[0][3]  # mc_estimate of row 1, seed 1 vs row 0, seed 2


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
