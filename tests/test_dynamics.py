import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from zenogate.dynamics import (
    AbsorptionChannel,
    DensityMatrix,
    StateVector,
    absorption_propagator,
    evolve_density_matrix,
    evolve_state,
    project_no_double_occupancy,
)
from zenogate.fock import coupling_hamiltonian, enumerate_basis

BASIS = enumerate_basis(2, 2)
H = coupling_hamiltonian(1.0, BASIS)


def ket(occ):
    return StateVector.basis_state(BASIS, occ)


# ---------------------------------------------------------------------------
# unitary evolution
# ---------------------------------------------------------------------------


def test_single_photon_full_transfer():
    psi = evolve_state(H, ket((1, 0)), np.pi / 2)
    expected = np.zeros(6, dtype=complex)
    expected[BASIS.index_of((0, 1))] = -1j
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12


def test_zero_time_is_identity():
    psi0 = ket((1, 1))
    psi = evolve_state(H, psi0, 0.0)
    assert np.max(np.abs(psi.amplitudes - psi0.amplitudes)) < 1e-15


def test_two_photon_state_at_quarter_transfer():
    psi = evolve_state(H, ket((1, 1)), np.pi / 4)
    expected = np.zeros(6, dtype=complex)
    expected[BASIS.index_of((2, 0))] = -1j / np.sqrt(2)
    expected[BASIS.index_of((0, 2))] = -1j / np.sqrt(2)
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12


def test_norm_preserved_along_trajectory():
    for t in np.linspace(0.0, 4 * np.pi, 41):
        psi = evolve_state(H, ket((1, 1)), t)
        assert abs(psi.norm() - 1.0) < 1e-9


def test_rejects_non_hermitian_hamiltonian():
    bad = H.copy()
    bad[0, 1] = 5.0
    with pytest.raises(ValueError):
        evolve_state(bad, ket((1, 0)), 0.1)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_pure_allowed_state_is_noop():
    state, p = project_no_double_occupancy(ket((1, 1)))
    assert p == 1.0
    assert np.array_equal(state.amplitudes, ket((1, 1)).amplitudes)


def test_project_survival_matches_cos_squared():
    for t in (0.05, 0.2, 0.6):
        psi = evolve_state(H, ket((1, 1)), t)
        _, p = project_no_double_occupancy(psi)
        assert p == pytest.approx(np.cos(2 * t) ** 2, abs=1e-12)


def test_project_fully_forbidden_state():
    state, p = project_no_double_occupancy(ket((2, 0)))
    assert state is None
    assert p == 0.0


# ---------------------------------------------------------------------------
# density-matrix evolution with absorption
# ---------------------------------------------------------------------------


def test_channel_marks_exactly_the_double_occupancy_states():
    channel = AbsorptionChannel.for_basis(BASIS, 0.1)
    marked = {BASIS.states[i].occupations for i in channel.absorbed_indices}
    assert marked == {(2, 0), (0, 2)}


def test_unitary_limit_matches_pure_evolution():
    channel = AbsorptionChannel.for_basis(BASIS, np.inf)
    rho0 = DensityMatrix.pure(ket((1, 1)))
    t = np.pi / 4
    rho = evolve_density_matrix(H, rho0, t, channel)
    psi = evolve_state(H, ket((1, 1)), t)
    assert np.max(np.abs(rho.matrix - np.outer(psi.amplitudes, psi.amplitudes.conj()))) < 1e-8
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)


def test_pure_exponential_decay_without_coupling():
    h0 = np.zeros((6, 6), dtype=complex)
    tau_d = 0.2
    channel = AbsorptionChannel.for_basis(BASIS, tau_d)
    rho0 = DensityMatrix.pure(ket((2, 0)))
    t = 0.5
    rho = evolve_density_matrix(h0, rho0, t, channel)
    assert rho.population((2, 0)) == pytest.approx(np.exp(-t / tau_d), rel=1e-9)


@pytest.mark.parametrize(
    "tau_d,rtol",
    [(0.01, 1e-2), (0.005, 2.5e-3), (0.002, 5e-4)],
)
def test_strong_absorption_matches_adiabatic_elimination(tau_d, rtol):
    # Eliminating the fast-decaying doubly-occupied states leaves the
    # surviving population decaying at 2 * (2 eps)^2 * (2 tau_d) = 16 tau_d,
    # so P11(t) ~ exp(-16 tau_d t); at the matched count N = t/(4 tau_d)
    # that is 1 - pi^2/(4 N) to leading order.
    t = np.pi / 4
    channel = AbsorptionChannel.for_basis(BASIS, tau_d)
    rho = evolve_density_matrix(H, DensityMatrix.pure(ket((1, 1))), t, channel)
    p11 = rho.population((1, 1))
    assert p11 == pytest.approx(np.exp(-16 * tau_d * t), rel=rtol)
    n_matched = t / (4 * tau_d)
    assert abs(p11 - (1 - np.pi**2 / (4 * n_matched))) < 0.02


def random_mixed_state(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = a @ a.conj().T
    return DensityMatrix(BASIS, m / np.trace(m).real)


def integrate_master_equation(h, rho0, t, channel):
    """Independent oracle: drho/dt = -i (H_eff rho - rho H_eff^dag) with an
    absorbed-probability tally d(absorbed)/dt = sum_i Gamma_i rho_ii,
    integrated by an adaptive Runge-Kutta method.  Returns (rho, absorbed)."""
    rates = channel.rate_vector(6)
    h_eff = h - 0.5j * np.diag(rates)

    def rhs(_, y):
        rho = y[:36].reshape(6, 6)
        drho = -1j * (h_eff @ rho - rho @ h_eff.conj().T)
        return np.append(drho.ravel(), np.sum(rates * np.diag(rho)))

    y0 = np.append(rho0.matrix.ravel(), 0.0).astype(complex)
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-12, atol=1e-13)
    assert sol.success
    y = sol.y[:, -1]
    return y[:36].reshape(6, 6), float(y[36].real)


def test_integrator_agrees_with_nonhermitian_propagator():
    # V rho0 V^dag with V = exp(-i (H - i Gamma/2) t) is exact for mixed
    # states too; an adaptive integrator of the same equation must land on it.
    channel = AbsorptionChannel.for_basis(BASIS, 0.05)
    rho0 = random_mixed_state(7)
    rho = evolve_density_matrix(H, rho0, np.pi / 4, channel)
    oracle, _ = integrate_master_equation(H, rho0, np.pi / 4, channel)
    assert np.max(np.abs(rho.matrix - oracle)) < 1e-10


def test_trace_plus_absorbed_is_one():
    channel = AbsorptionChannel.for_basis(BASIS, 0.02)
    rho0 = random_mixed_state(11)
    rho = evolve_density_matrix(H, rho0, np.pi / 4, channel)
    _, absorbed = integrate_master_equation(H, rho0, np.pi / 4, channel)
    assert abs(rho.trace() + absorbed - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tau_d=st.floats(1e-3, 1e3),
    t1=st.floats(0.0, 3.0),
    dt=st.floats(0.0, 3.0),
)
def test_trace_never_increases(seed, tau_d, t1, dt):
    channel = AbsorptionChannel.for_basis(BASIS, tau_d)
    rho0 = random_mixed_state(seed)
    early = evolve_density_matrix(H, rho0, t1, channel).trace()
    late = evolve_density_matrix(H, rho0, t1 + dt, channel).trace()
    assert late <= early + 1e-12
    assert early <= rho0.trace() + 1e-12


def test_hermiticity_preserved():
    channel = AbsorptionChannel.for_basis(BASIS, 0.05)
    rho = evolve_density_matrix(H, DensityMatrix.pure(ket((1, 1))), np.pi / 4, channel)
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-9


def test_split_interaction_composes():
    # An exact propagator is a semigroup: two halves make the whole.
    channel = AbsorptionChannel.for_basis(BASIS, 0.01)
    rho0 = random_mixed_state(3)
    half = evolve_density_matrix(H, rho0, np.pi / 8, channel)
    twice = evolve_density_matrix(H, half, np.pi / 8, channel)
    whole = evolve_density_matrix(H, rho0, np.pi / 4, channel)
    assert np.max(np.abs(twice.matrix - whole.matrix)) < 1e-12


def test_number_sector_coherences_stay_exactly_zero():
    channel = AbsorptionChannel.for_basis(BASIS, 0.05)
    mixed = 0.5 * DensityMatrix.pure(ket((1, 1))).matrix + 0.5 * DensityMatrix.pure(ket((1, 0))).matrix
    rho = evolve_density_matrix(H, DensityMatrix(BASIS, mixed), 0.3, channel)
    totals = np.array([s.total for s in BASIS.states])
    cross_sector = totals[:, None] != totals[None, :]
    assert np.all(rho.matrix[cross_sector] == 0.0)


def test_negative_duration_is_rejected():
    channel = AbsorptionChannel.for_basis(BASIS, 0.05)
    rho0 = DensityMatrix.pure(ket((1, 1)))
    with pytest.raises(ValueError):
        evolve_density_matrix(H, rho0, -0.5, channel)


def test_propagator_names_tau_d_when_not_finite():
    channel = AbsorptionChannel.for_basis(BASIS, 1e-300)
    with pytest.raises(ValueError, match="tau_d"):
        absorption_propagator(H, channel, np.pi / 4)


def test_channel_requires_positive_tau():
    with pytest.raises(ValueError):
        AbsorptionChannel.for_basis(BASIS, 0.0)


def test_density_matrix_validation_catches_bad_states():
    not_hermitian = np.zeros((6, 6), dtype=complex)
    not_hermitian[0, 1] = 1.0
    with pytest.raises(ValueError):
        DensityMatrix(BASIS, not_hermitian).validate()
