import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenogate.dynamics import StateVector
from zenogate.fock import FockState, enumerate_basis
from zenogate.gate import (
    COMPUTATIONAL_OCCUPATIONS,
    GateReport,
    ZenoProtocol,
    apply_output_phase,
    closed_form_error,
    compose_controlled_z,
    controlled_z_matrix,
    error_curve,
    extract_gate,
    hom_curve,
    phased_sqrt_swap_matrix,
    phased_swap_matrix,
    rabi_curve,
    run_absorption_protocol,
    run_discrete_protocol,
    swap_matrix,
)

BASIS = enumerate_basis(2, 2)


# ---------------------------------------------------------------------------
# closed-form failure probability
# ---------------------------------------------------------------------------


def test_closed_form_single_measurement_always_fails():
    assert closed_form_error(1) == pytest.approx(1.0, abs=1e-15)


def test_closed_form_two_measurements():
    # Brute force: two survival factors of cos^2(pi/4) each.
    assert closed_form_error(2) == pytest.approx(0.75, abs=1e-15)
    _, success = run_discrete_protocol(2, FockState((1, 1)))
    assert 1 - success == pytest.approx(0.75, abs=1e-12)


def test_closed_form_large_n_scaling():
    for n in (500, 1000, 5000):
        assert n * closed_form_error(n) == pytest.approx(np.pi**2 / 4, rel=3e-3)


def test_scaled_error_converges_monotonically():
    values = [n * closed_form_error(n) for n in (1, 2, 5, 10, 50, 100, 200, 1000)]
    assert all(a < b for a, b in zip(values, values[1:]))
    for n in (100, 200, 1000):
        assert abs(n * closed_form_error(n) - np.pi**2 / 4) < 0.02 * np.pi**2 / 4


# ---------------------------------------------------------------------------
# discrete protocol
# ---------------------------------------------------------------------------


def test_discrete_single_measurement_destroys_two_photon_input():
    survivor, success = run_discrete_protocol(1, FockState((1, 1)))
    assert success == 0.0
    assert not np.any(survivor.amplitudes)


def test_discrete_single_photon_passes_untouched():
    for n in (1, 3, 17):
        survivor, success = run_discrete_protocol(n, FockState((1, 0)))
        assert success == 1.0
        amps = survivor.amplitudes
        assert amps[BASIS.index_of((1, 0))] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert amps[BASIS.index_of((0, 1))] == pytest.approx(-1j / np.sqrt(2), abs=1e-12)


def test_discrete_success_matches_closed_form_over_full_range():
    for n in range(1, 201):
        sim = 1 - run_discrete_protocol(n, FockState((1, 1)))[1]
        assert abs(sim - closed_form_error(n)) < 1e-10


def test_discrete_rejects_non_computational_input():
    with pytest.raises(ValueError):
        run_discrete_protocol(5, FockState((2, 0)))


# ---------------------------------------------------------------------------
# absorption protocol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tau_d,occupations",
    [(-1.0, (1, 0)), (np.nan, (0, 0)), (0.0, (1, 1)), (0.1, (2, 0)), (0.1, (1, 1, 0))],
)
def test_absorption_rejects_bad_inputs(tau_d, occupations):
    with pytest.raises(ValueError):
        run_absorption_protocol(tau_d, FockState(occupations))


def _mpmath_two_photon_column(tau_d, dps=60):
    """|1,1> column of exp(-i (H - i Gamma/2) t) on the two-photon sector at dps digits; t = pi/4 in double."""
    with mpmath.workdps(dps):
        t, g = mpmath.mpf(math.pi) / 4, mpmath.mpf(1) / (2 * mpmath.mpf(tau_d))
        r2 = mpmath.sqrt(2)
        # sector order |0,2>, |1,1>, |2,0>
        h_eff = mpmath.matrix([[-1j * g, r2, 0], [r2, 0, r2], [0, r2, -1j * g]])
        v = mpmath.expm(-1j * t * h_eff)
        return [v[i, 1] for i in range(3)]


@pytest.mark.parametrize(
    "tau_d", [1e-12, 1e-9, 1e-6, 1.96e-4, 1e-3, 0.01, 0.1, 0.124, 0.125, 0.125 + 1e-9, 0.126, 0.5, 1.0, 10.0]
)
def test_absorption_block_matches_mpmath(tau_d):
    psi, survival = run_absorption_protocol(tau_d, FockState((1, 1)))
    got = [psi.amplitudes[BASIS.index_of(occ)] for occ in ((0, 2), (1, 1), (2, 0))]
    want = _mpmath_two_photon_column(tau_d)
    for g, w in zip(got, want):
        assert abs(mpmath.mpc(g) - w) <= 1e-13 * abs(w)
    exact_survival = sum(abs(w) ** 2 for w in want)
    assert abs(survival - exact_survival) <= 1e-13 * exact_survival


def test_absorption_single_photon_never_decays():
    for tau_d in (0.01, 1.0):
        _, survival = run_absorption_protocol(tau_d, FockState((1, 0)))
        assert survival == pytest.approx(1.0, abs=1e-12)


def test_absorption_weak_limit_reproduces_hom_loss():
    psi, survival = run_absorption_protocol(np.inf, FockState((1, 1)))
    assert survival == pytest.approx(1.0, abs=1e-10)
    assert psi.probability((1, 1)) < 1e-12  # the coincidence dip at t = pi/4


def test_absorption_error_tracks_discrete_closed_form():
    n = 50
    tau_d = (np.pi / 4) / (4 * n)
    _, survival = run_absorption_protocol(tau_d, FockState((1, 1)))
    assert 1 - survival == pytest.approx(closed_form_error(n), rel=0.10)


@pytest.mark.parametrize("n,rel", [(10, 0.10), (20, 0.10), (50, 0.03), (100, 0.03)])
def test_matched_absorption_error_within_bounds(n, rel):
    (_, p_abs), = error_curve("absorption", [n])
    assert p_abs == pytest.approx(closed_form_error(n), rel=rel)


def test_error_curve_discrete_values():
    rows = error_curve("discrete", [1, 2, 20])
    assert rows[0] == (1.0, pytest.approx(1.0, abs=1e-12))
    assert rows[1][1] == pytest.approx(0.75, abs=1e-12)
    assert rows[2][1] == pytest.approx(closed_form_error(20), abs=1e-12)


def test_error_curve_rejects_empty_grid():
    with pytest.raises(ValueError):
        error_curve("discrete", [])
    with pytest.raises(ValueError):
        error_curve("nope", [1])


@pytest.mark.parametrize("kind,n", [("discrete", 2.5), ("discrete", 0), ("discrete", np.inf),
                                    ("absorption", 0), ("absorption", -3.0), ("absorption", np.inf)])
def test_error_curve_rejects_bad_n(kind, n):
    with pytest.raises(ValueError, match="N"):
        error_curve(kind, [n])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10**5), step=st.integers(1, 1000))
def test_discrete_error_is_monotone_in_n(n, step):
    (_, fewer), (_, more) = error_curve("discrete", [n, n + step])
    assert more < fewer


# ---------------------------------------------------------------------------
# output phases and gate extraction
# ---------------------------------------------------------------------------


def test_output_phase_examples():
    vac = apply_output_phase(StateVector.basis_state(BASIS, (0, 0)))
    assert vac.amplitudes[BASIS.index_of((0, 0))] == 1.0
    one = apply_output_phase(StateVector.basis_state(BASIS, (1, 0)))
    assert one.amplitudes[BASIS.index_of((1, 0))] == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-15)
    two = apply_output_phase(StateVector.basis_state(BASIS, (1, 1)))
    assert two.amplitudes[BASIS.index_of((1, 1))] == pytest.approx(1j, abs=1e-15)


def test_extract_gate_converges_to_target():
    report = extract_gate(ZenoProtocol.discrete(1000))
    assert np.max(np.abs(report.conditional_map - phased_sqrt_swap_matrix())) < 5e-3
    assert report.fidelity_to_target > 0.999
    assert report.error_probability == pytest.approx(closed_form_error(1000), abs=1e-10)


def test_extract_gate_single_measurement_leaks_everything():
    report = extract_gate(ZenoProtocol.discrete(1))
    assert report.conditional_map[3, 3] == 0.0
    assert report.error_probability == pytest.approx(1.0, abs=1e-12)
    assert report.leakage == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
def test_single_photon_block_is_exact_at_any_n(n):
    report = extract_gate(ZenoProtocol.discrete(n))
    target = phased_sqrt_swap_matrix()
    assert np.max(np.abs(report.conditional_map[1:3, 1:3] - target[1:3, 1:3])) < 1e-12
    assert report.conditional_map[0, 0] == pytest.approx(1.0, abs=1e-12)
    for p in report.success_probability_per_input[:3]:
        assert p == pytest.approx(1.0, abs=1e-9)


def test_fidelity_monotone_in_n():
    fidelities = [
        extract_gate(ZenoProtocol.discrete(n)).fidelity_to_target
        for n in (1, 2, 5, 10, 50, 100, 1000)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(fidelities, fidelities[1:]))


def test_extract_gate_absorption_route():
    n = 1000
    tau_d = (np.pi / 4) / (4 * n)
    report = extract_gate(ZenoProtocol.absorption(tau_d))
    assert np.max(np.abs(report.conditional_map - phased_sqrt_swap_matrix())) < 5e-3
    assert report.fidelity_to_target > 0.999
    # leakage = absorbed + residual double occupancy; the residual on top of
    # the absorbed error is O((4 tau_d)^2)
    assert report.leakage < 5e-3
    assert 0.0 <= report.leakage - report.error_probability < 1e-5


@pytest.mark.parametrize("protocol", [ZenoProtocol.discrete(5000), ZenoProtocol.absorption(1e-6)])
def test_single_photon_success_is_exactly_one(protocol):
    report = extract_gate(protocol)
    assert report.success_probability_per_input[:3] == (1.0, 1.0, 1.0)


def test_absorption_is_finite_as_tau_d_vanishes():
    # The |1,1> input freezes (survival 1) and the map is the target.
    for tau_d in (1e-40, 1e-300, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = extract_gate(ZenoProtocol.absorption(tau_d))
        assert report.success_probability_per_input == (1.0, 1.0, 1.0, 1.0)
        assert np.max(np.abs(report.conditional_map - phased_sqrt_swap_matrix())) < 1e-15


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10**5), tau_d=st.floats(1e-6, 1e3))
def test_conditional_map_columns_are_normalised(n, tau_d):
    # Discrete survivors sit on computational states only; absorption
    # survivors keep a residual double occupancy outside the 4x4 map.
    for protocol in (ZenoProtocol.discrete(n), ZenoProtocol.absorption(tau_d)):
        report = extract_gate(protocol)
        norms = np.linalg.norm(report.conditional_map, axis=0)
        assert np.all(norms <= 1.0 + 1e-12)
        if protocol.kind == "discrete":
            alive = np.array(report.success_probability_per_input) > 0.0
            assert np.allclose(norms[alive], 1.0, atol=1e-12, rtol=0.0)


def test_protocol_validation():
    with pytest.raises(ValueError):
        ZenoProtocol.discrete(0)
    with pytest.raises(ValueError):
        ZenoProtocol.discrete(2.5)
    with pytest.raises(ValueError):
        ZenoProtocol.absorption(0.0)
    with pytest.raises(ValueError):
        ZenoProtocol(kind="other")


# ---------------------------------------------------------------------------
# controlled-Z composition
# ---------------------------------------------------------------------------


def test_squared_gate_matches_phased_swap():
    m = phased_sqrt_swap_matrix()
    assert np.max(np.abs(m @ m - phased_swap_matrix())) < 1e-12


def test_compose_controlled_z_is_exact():
    assert np.array_equal(compose_controlled_z(), controlled_z_matrix())


def hadamard_on_target() -> np.ndarray:
    """I (x) H on the two-qubit computational basis."""
    return np.kron(np.eye(2), np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))


def cnot_matrix() -> np.ndarray:
    return np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def test_controlled_z_with_hadamards_gives_cnot():
    h = hadamard_on_target()
    assert np.max(np.abs(h @ compose_controlled_z() @ h - cnot_matrix())) < 1e-12


def test_swap_composition_sanity():
    assert np.array_equal(swap_matrix() @ swap_matrix(), np.eye(4, dtype=complex))


# ---------------------------------------------------------------------------
# reference curves
# ---------------------------------------------------------------------------


def test_rabi_curve_is_cos_squared():
    ts = np.linspace(0, 2 * np.pi, 257)
    rows = rabi_curve(ts)
    err = max(abs(p - np.cos(t) ** 2) for t, p in rows)
    assert err < 1e-9


def test_hom_curve_is_cos_squared_double_angle():
    ts = np.linspace(0, np.pi / 4, 101)
    rows = hom_curve(ts)
    err = max(abs(p - np.cos(2 * t) ** 2) for t, p in rows)
    assert err < 1e-9
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
    assert rows[-1][1] < 1e-12
    mid = hom_curve([np.pi / 8])[0][1]
    assert mid == pytest.approx(0.5, abs=1e-9)


def test_computational_occupation_order_is_fixed():
    assert COMPUTATIONAL_OCCUPATIONS == ((0, 0), (0, 1), (1, 0), (1, 1))
