"""Reference values and pass/fail checks, computed without zenogate.

Every request the benchmark sends is checked here against a value the
benchmark derives itself: closed forms where the paper gives one, and an
independent ``scipy.linalg.expm`` of the absorption generator otherwise.
A check raises :class:`Mismatch`; the caller counts the request as failed.
Residuals are never reported as metrics, only as pass/fail.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
import scipy.linalg

HALF_TRANSFER_TIME = math.pi / 4

# Two modes, at most two photons, in lexicographic order of the occupations.
BASIS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))

# Single-photon block of the phased square root of swap, on inputs |01>, |10>:
# exp(i pi/4) times the half-transfer beam splitter.
SINGLE_PHOTON_BLOCK = np.exp(1j * math.pi / 4) * np.array(
    [[math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)],
     [-1j * math.sin(math.pi / 4), math.cos(math.pi / 4)]]
)

TOL_CLOSED_FORM = 1e-10
TOL_SINGLE_PHOTON = 1e-12
TOL_CURVE = 1e-9
TOL_ANTICOMMUTATOR = 2e-3
TOL_CROSS_COMMUTATOR = 1e-6
TOL_RATE = 1e-12
MC_SIGMAS = 5.0


class Mismatch(Exception):
    """A result missed its reference check."""


def _close(label: str, got, want: float, tol: float) -> None:
    if not abs(float(got) - want) <= tol:  # written this way so NaN fails
        raise Mismatch(f"{label}: got {got!r}, want {want!r} within {tol:g}")


def _below(label: str, got, tol: float) -> None:
    if not abs(float(got)) < tol:
        raise Mismatch(f"{label}: got {got!r}, want below {tol:g}")


def _hamiltonian() -> np.ndarray:
    """a1^dag a2 + a2^dag a1 on BASIS."""
    h = np.zeros((len(BASIS), len(BASIS)), dtype=complex)
    for j, (n1, n2) in enumerate(BASIS):
        if n2 > 0:
            h[BASIS.index((n1 + 1, n2 - 1)), j] = math.sqrt((n1 + 1) * n2)
    return h + h.conj().T


def closed_form_error(n: int) -> float:
    """P_E(N) = 1 - cos^(2N)(pi/2N)."""
    return 1.0 - math.cos(math.pi / (2 * n)) ** (2 * n)


def absorption_survival(tau_d: float, t: float = HALF_TRANSFER_TIME) -> float:
    """Survival of |1,1> under exp(-i (H - i Gamma/2) t), Gamma = 1/tau_d on |2,0>, |0,2>."""
    gamma = np.diag([1.0 / tau_d if max(occ) >= 2 else 0.0 for occ in BASIS])
    v = scipy.linalg.expm(-1j * (_hamiltonian() - 0.5j * gamma) * t)
    amps = v[:, BASIS.index((1, 1))]
    return float(np.vdot(amps, amps).real)


def exact_tree_failure(p: float) -> float:
    f = p * (1.0 - (1.0 - p) ** 2)
    return 1.0 - (1.0 - f) ** 2


# ---------------------------------------------------------------------------
# Checks on library results
# ---------------------------------------------------------------------------


def check_discrete_error(n: int, p_error: float) -> None:
    _close(f"discrete P_E(N={n})", p_error, closed_form_error(n), TOL_CLOSED_FORM)


def check_absorption_error(n: float, p_error: float) -> None:
    tau_d = HALF_TRANSFER_TIME / (4.0 * n)
    want = 1.0 - absorption_survival(tau_d)
    _close(f"absorption P_E(N={n})", p_error, want, TOL_CLOSED_FORM)


def check_gate(conditional_map, successes, *, n: int | None = None, tau_d: float | None = None) -> None:
    """Single-photon block and its success exact; success of |11> against the reference."""
    block = np.asarray(conditional_map, dtype=complex)[1:3, 1:3]
    _below("gate single-photon block", np.max(np.abs(block - SINGLE_PHOTON_BLOCK)), TOL_SINGLE_PHOTON)
    for i in (1, 2):
        _close(f"gate success[{i}]", successes[i], 1.0, TOL_SINGLE_PHOTON)
    want = 1.0 - closed_form_error(n) if tau_d is None else absorption_survival(tau_d)
    _close("gate success[3]", successes[3], want, TOL_CLOSED_FORM)


def check_curve(kind: str, rows, times) -> None:
    """rabi: P_1 = cos^2 t; hom: P_11 = cos^2 2t, on exactly the requested grid."""
    freq = {"rabi": 1.0, "hom": 2.0}[kind]
    if len(rows) != len(times):
        raise Mismatch(f"{kind}: {len(rows)} rows for {len(times)} times")
    for (t, p), want_t in zip(rows, times):
        _close(f"{kind} t", t, want_t, TOL_CURVE)
        _close(f"{kind} p(t={want_t})", p, math.cos(freq * want_t) ** 2, TOL_CURVE)


def check_fermion_gap(n: int, occupations, gap: float) -> None:
    if tuple(occupations) == (1, 1):
        want = 1.0 - math.cos(math.pi / (2 * n)) ** n
        _close(f"fermion gap (1,1) n={n}", gap, want, TOL_CLOSED_FORM)
    else:
        _below(f"fermion gap {tuple(occupations)} n={n}", gap, TOL_SINGLE_PHOTON)


def check_anticommutator(deviation: float, cross_deviation: float) -> None:
    _below("anticommutator deviation", deviation, TOL_ANTICOMMUTATOR)
    _below("cross-commutator deviation", cross_deviation, TOL_CROSS_COMMUTATOR)


def check_rate(rate_times_tau_r: float) -> None:
    _close("rate * tau_r", rate_times_tau_r, math.sqrt(2.0 / math.pi), TOL_RATE)


def check_monte_carlo(p: float, trials: int, estimate: float) -> None:
    want = exact_tree_failure(p)
    sigma = math.sqrt(want * (1.0 - want) / trials)
    _close(f"Monte Carlo p={p} trials={trials}", estimate, want, MC_SIGMAS * sigma)


# ---------------------------------------------------------------------------
# Checks on README command output (CSV or JSON text)
# ---------------------------------------------------------------------------


def _csv_rows(text: str) -> list[dict]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _complex_matrix(pairs) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _values_after(argv: list[str], flag: str) -> list[float]:
    rest = argv[argv.index(flag) + 1:]
    end = next((i for i, a in enumerate(rest) if a.startswith("--")), len(rest))
    return [float(v) for v in rest[:end]]


def check_cli_output(name: str, argv: list[str], text: str) -> None:
    """Parse one README command's output back and apply the library checks."""
    opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    if name in ("rabi", "hom"):
        rows = [(float(r["t"]), float(r["p1" if name == "rabi" else "p11"])) for r in _csv_rows(text)]
        t_max = float(opt["--t-max"]) if name == "rabi" else math.pi / 4
        check_curve(name, rows, np.linspace(0.0, t_max, int(opt["--steps"])))
    elif name.startswith("zeno-sweep"):
        rows = _csv_rows(text)
        wanted = _values_after(argv, "--n-values")
        if [float(r["n"]) for r in rows] != wanted:
            raise Mismatch(f"{name}: rows for N={[r['n'] for r in rows]}, asked {wanted}")
        for r in rows:
            n = float(r["n"])
            if opt["--mode"] == "discrete":
                check_discrete_error(int(n), float(r["p_error"]))
            else:
                check_absorption_error(n, float(r["p_error"]))
    elif name.startswith("gate"):
        res = json.loads(text)["results"]
        successes = [res["success_probability_per_input"][k] for k in ("00", "01", "10", "11")]
        matrix = _complex_matrix(res["conditional_map"])
        if "--n" in opt:
            check_gate(matrix, successes, n=int(opt["--n"]))
        else:
            check_gate(matrix, successes, tau_d=float(opt["--tau-d"]))
    elif name == "fermion-report":
        res = json.loads(text)["results"]
        dev = res["equivalence_deviations"]
        check_fermion_gap(1, (1, 0), dev["single_particle_n1"])
        check_fermion_gap(int(opt["--n"]), (1, 1), dev["two_particle_n"])
        check_anticommutator(res["anticommutator_deviation"], res["cross_commutator_deviation"])
    elif name == "rate":
        check_rate(json.loads(text)["results"]["rate_times_tau_r"])
    elif name == "threshold":
        rows = _csv_rows(text)
        if [float(r["p"]) for r in rows] != _values_after(argv, "--p-values"):
            raise Mismatch(f"threshold: rows for p={[r['p'] for r in rows]}")
        for r in rows:
            check_monte_carlo(float(r["p"]), int(r["trials"]), float(r["mc_estimate"]))
    else:
        raise ValueError(f"no check for command {name!r}")
