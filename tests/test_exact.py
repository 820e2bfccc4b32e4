"""The closed-form kernel: its import surface, its precision, and its agreement with the propagator route."""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

import zenogate.exact as exact
import zenogate.gate as gate
from zenogate.dynamics import StateVector
from zenogate.fock import FockState
from zenogate.gate import (
    COMPUTATIONAL_OCCUPATIONS,
    ZenoProtocol,
    apply_output_phase,
    closed_form_error,
    error_curve,
    extract_gate,
    gate_basis,
    run_absorption_protocol,
    run_discrete_protocol,
)

T = math.pi / 4  # the half-transfer time, in double; every oracle starts from this value


def _mpmath_absorption(tau_d):
    """(kept, bright, absorbed) for |1,1> from the 3x3 exp(-i (H - i Gamma/2) t), Gamma = 1/tau_d.

    The precision grows with |log10 tau_d| so that 1 - survival keeps about
    50 digits where it is as small as 1e-300.
    """
    with mpmath.workdps(60 + int(abs(math.log10(tau_d)))):
        t, g = mpmath.mpf(T), 1 / (2 * mpmath.mpf(tau_d))
        r2 = mpmath.sqrt(2)
        # sector order |0,2>, |1,1>, |2,0>
        v = mpmath.expm(-1j * t * mpmath.matrix([[-1j * g, r2, 0], [r2, 0, r2], [0, r2, -1j * g]]))
        col = [v[i, 1] for i in range(3)]
        return col[1], (col[0] + col[2]) / r2, 1 - sum(abs(c) ** 2 for c in col)


def _propagator_map(protocol):
    """The 4x4 map from the runners' survivors, renormalized and phased as a state vector."""
    basis = gate_basis()
    comp = [basis.index_of(occ) for occ in COMPUTATIONAL_OCCUPATIONS]
    m = np.zeros((4, 4), dtype=complex)
    for col, occ in enumerate(COMPUTATIONAL_OCCUPATIONS):
        if protocol.kind == "discrete":
            psi, p = run_discrete_protocol(protocol.n_measurements, FockState(occ))
        else:
            psi, p = run_absorption_protocol(protocol.tau_d, FockState(occ))
        if p:
            m[:, col] = apply_output_phase(StateVector(basis, psi.amplitudes / math.sqrt(p))).amplitudes[comp]
    return m


def test_kernel_imports_only_math_and_cmath():
    tree = ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module if node.level == 0 else "." * node.level + (node.module or ""))
    assert imported <= {"math", "cmath", "__future__"}, imported


def test_gate_requests_never_reach_the_propagator(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the propagator route was taken")

    for name in ("_evolve", "_locate", "StateVector"):
        monkeypatch.setattr(gate, name, forbidden)
    for protocol in (ZenoProtocol.discrete(1000), ZenoProtocol.absorption(1.96e-4)):
        assert extract_gate(protocol).leakage > 0.0
    assert error_curve("discrete", [1, 20])[1][1] > 0.0
    assert error_curve("absorption", [20])[0][1] > 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 100, 1000, 12345, 10**5, 10**7, 10**9, 10**12, 10**15])
def test_discrete_loss_matches_mpmath(n):
    with mpmath.workdps(50):
        want = 1 - mpmath.cos(2 * mpmath.mpf(T) / n) ** (2 * n)
    for got in (closed_form_error(n), error_curve("discrete", [n])[0][1]):
        assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("log_n", range(-300, 301, 50))
def test_matched_absorption_loss_matches_mpmath(log_n):
    n = 10.0**log_n
    (_, got), = error_curve("absorption", [n])
    _, _, want = _mpmath_absorption(T / (4.0 * n))
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "tau_d", [1e-300, 1e-200, 1e-100, 1e-30, 1e-10, 1e-4, 1.96e-4, 0.01, 0.1, 0.125, 0.2, 1.0, 10.0]
)
def test_absorption_gate_report_matches_mpmath(tau_d):
    report = extract_gate(ZenoProtocol.absorption(tau_d))
    kept, bright, absorbed = _mpmath_absorption(tau_d)
    survival = abs(kept) ** 2 + abs(bright) ** 2
    pairs = [
        (report.error_probability, absorbed),
        (report.leakage, absorbed + abs(bright) ** 2),
        (report.success_probability_per_input[3], survival),
        (report.conditional_map[3, 3], 1j * kept / mpmath.sqrt(survival)),
    ]
    for got, want in pairs:
        assert abs(mpmath.mpc(got) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize(
    "protocol",
    [ZenoProtocol.discrete(n) for n in (1, 2, 5, 20, 100, 1000, 10**5)]
    + [ZenoProtocol.absorption(t) for t in (1e-300, 1e-40, 1e-8, 1.96e-4, 0.05, 0.125, 0.3, 10.0)],
    ids=repr,
)
def test_map_matches_the_propagator_route(protocol):
    assert np.max(np.abs(extract_gate(protocol).conditional_map - _propagator_map(protocol))) <= 1e-15


def test_survivor_just_above_roundoff_is_kept_on_both_routes():
    # cos(2t)^2 = 1e-14 lies between eps and 1e3 eps: a real, if faint, survivor.
    t = (math.pi / 2 - 1e-7) / 2
    weight = math.cos(2 * t) ** 2
    assert 2.0**-52 < weight < 1e3 * 2.0**-52
    kept, _, lost = exact.discrete_survivor(1, t)
    assert kept**2 == pytest.approx(weight, rel=1e-12)
    assert lost == pytest.approx(1.0 - weight, abs=1e-16)
    survivor, success = run_discrete_protocol(1, FockState((1, 1)), t)
    assert success == pytest.approx(weight, rel=1e-6)
    assert np.any(survivor.amplitudes)
    # below the roundoff of a unit-norm state there is no survivor
    assert exact.discrete_survivor(1)[:2] == (0.0, 0j)
    assert run_discrete_protocol(1, FockState((1, 1)))[1] == 0.0


def test_odd_check_count_keeps_the_sign_of_a_negative_step():
    # 2t/n in (pi/2, pi): each check keeps cos(2t/n) < 0
    t = 3 * math.pi / 8
    kept, _, lost = exact.discrete_survivor(1, t)
    assert kept == pytest.approx(math.cos(2 * t), rel=1e-14)
    assert lost == pytest.approx(1 - math.cos(2 * t) ** 2, rel=1e-14)
    assert exact.discrete_survivor(2, 2 * t)[0] == pytest.approx(math.cos(2 * t) ** 2, rel=1e-14)

