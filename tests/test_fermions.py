import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenogate.dynamics import StateVector
from zenogate.fock import coupling_hamiltonian, enumerate_basis, matrix_exponential
from zenogate.fermions import (
    DressedOperatorSpec,
    _exp_divided_difference,
    _product_triples,
    anticommutator_report,
    compare_to_zeno_photons,
    device_phased_swap,
    dressed_operator,
    evolve_fermions,
    fermion_hamiltonian,
    fermion_operator_matrices,
    heisenberg_dress,
    interchange_matrix,
    mode_interchange,
    no_go_demo,
    time_averaged_product,
)
from zenogate.gate import COMPUTATIONAL_OCCUPATIONS, controlled_z_matrix, phased_swap_matrix

INDEX = COMPUTATIONAL_OCCUPATIONS.index


def revival_coefficient(tau_d, tau):
    """Closed-form ordered double integral of 2 exp(-(t'+t'')/(2 tau_d)).

    (2/tau^2) int_0^tau dt' int_0^t' dt'' 2 e^{-(t'+t'')/(2 tau_d)}
        = 2 (1 - e^{-tau/(2 tau_d)})^2 (2 tau_d / tau)^2
    which is the independent oracle for the averaged A A^dag on |1>.
    """
    beta = 1.0 / (2.0 * tau_d)
    return 2.0 * (1.0 - math.exp(-beta * tau)) ** 2 / (beta * tau) ** 2


def _dressed_grid(spec, two_mode, gen, times):
    op = spec.schroedinger_matrix()
    if two_mode:
        eye = np.eye(3)
        op = np.kron(op, eye) if spec.mode == 1 else np.kron(eye, op)
    left = np.exp(1j * np.conj(gen)[None, :] * times[:, None])
    right = np.exp(-1j * gen[None, :] * times[:, None])
    return left[:, :, None] * op[None, :, :] * right[:, None, :]


def trapezoid_product(a, b, tau, num_points):
    """Independent oracle: the ordered double average on a uniform trapezoid grid.

    (2/tau^2) int_0^tau dt' A(t') int_0^t' dt'' B(t''), with the dressed
    operators tabulated as exp(i H0^dag t) op exp(-i H0 t) at every grid
    time; cross-fiber products are dressed by the full two-fiber generator.
    The error is O(h^2) with an even expansion in h.
    """
    two_mode = a.mode != b.mode
    if two_mode:
        gens = {s.mode: s.generator_diagonal() for s in (a, b)}
        gen = np.kron(gens[1], np.ones(3)) + np.kron(np.ones(3), gens[2])
    else:
        gen = a.generator_diagonal()
    times = np.linspace(0.0, tau, num_points)
    h = times[1]
    a_grid = _dressed_grid(a, two_mode, gen, times)
    b_grid = _dressed_grid(b, two_mode, gen, times)
    inner = np.zeros_like(b_grid)
    np.cumsum(0.5 * h * (b_grid[1:] + b_grid[:-1]), axis=0, out=inner[1:])
    integrand = a_grid @ inner
    outer = h * (0.5 * integrand[0] + integrand[1:-1].sum(axis=0) + 0.5 * integrand[-1])
    return (2.0 / tau**2) * outer


def richardson_product(a, b, tau, num_points):
    """Trapezoid oracle at h and h/2, Richardson-extrapolated to O(h^4)."""
    fine = trapezoid_product(a, b, tau, 2 * num_points - 1)
    return (4.0 * fine - trapezoid_product(a, b, tau, num_points)) / 3.0


ALL_SPEC_PAIRS = list(
    itertools.product(itertools.product(("annihilation", "creation"), (1, 2)), repeat=2)
)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------


def test_anticommutation_relations_hold_exactly():
    ops = fermion_operator_matrices()
    eye = np.eye(4)
    for i in (1, 2):
        for j in (1, 2):
            bd_j, _ = ops[j]
            _, b_i = ops[i]
            anti = b_i @ bd_j + bd_j @ b_i
            expected = eye if i == j else np.zeros((4, 4))
            assert np.array_equal(anti, expected)


def test_double_creation_vanishes():
    for mode in (1, 2):
        bd, _ = fermion_operator_matrices()[mode]
        assert np.all(bd @ bd == 0.0)


def test_creation_anticommutator_across_modes():
    b1d, _ = fermion_operator_matrices()[1]
    b2d, _ = fermion_operator_matrices()[2]
    assert np.all(b1d @ b2d + b2d @ b1d == 0.0)


def test_single_particle_block_matches_bosons():
    eps = 1.3
    hf = fermion_hamiltonian(eps)
    single = [INDEX((0, 1)), INDEX((1, 0))]
    block = hf[np.ix_(single, single)]
    assert np.allclose(block, eps * np.array([[0, 1], [1, 0]]), atol=1e-15)

    basis = enumerate_basis(2, 2)
    hb = coupling_hamiltonian(eps, basis)
    bos = [basis.index_of((0, 1)), basis.index_of((1, 0))]
    assert np.array_equal(block, hb[np.ix_(bos, bos)])


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def test_single_fermion_transfers_like_a_photon():
    vec = evolve_fermions(1.0, np.pi / 2, (1, 0))
    expected = np.zeros(4, dtype=complex)
    expected[INDEX((0, 1))] = -1j
    assert np.max(np.abs(vec - expected)) < 1e-12


def test_double_occupied_pair_is_frozen():
    for t in (0.1, 1.0, np.pi):
        vec = evolve_fermions(1.0, t, (1, 1))
        assert abs(vec[INDEX((1, 1))] - 1.0) < 1e-12


def test_zero_time_identity():
    vec = evolve_fermions(1.0, 0.0, (0, 1))
    assert np.array_equal(vec, np.eye(4)[INDEX((0, 1))])


@pytest.mark.parametrize("eps,t", [(1.0, 0.3), (1.0, np.pi / 4), (2.5, 1.7), (0.7, -4.0)])
def test_written_out_propagator_matches_hamiltonian_exponential(eps, t):
    u = matrix_exponential(fermion_hamiltonian(eps), scale=-1j * t)
    for col, occ in enumerate(COMPUTATIONAL_OCCUPATIONS):
        assert np.max(np.abs(evolve_fermions(eps, t, occ) - u[:, col])) < 1e-14


def test_single_particle_agreement_at_any_measurement_count():
    for n in (1, 7):
        assert compare_to_zeno_photons(1.0, np.pi / 4, n, (1, 0)) < 1e-12
        assert compare_to_zeno_photons(1.0, np.pi / 4, n, (0, 1)) < 1e-12


def test_two_particle_agreement_improves_with_zeno_strength():
    t = np.pi / 4
    dev_1000 = compare_to_zeno_photons(1.0, t, 1000, (1, 1))
    assert dev_1000 < 5e-3
    # Survivor amplitude is cos^n(2t/n); the gap is its distance from 1.
    assert dev_1000 == pytest.approx(1 - math.cos(math.pi / 2000) ** 1000, abs=1e-10)
    devs = [compare_to_zeno_photons(1.0, t, n, (1, 1)) for n in (1, 2, 5, 10, 50, 100, 1000)]
    assert devs[0] == pytest.approx(1.0, abs=1e-12)  # no Zeno effect: full dip
    assert all(b < a for a, b in zip(devs, devs[1:]))


# ---------------------------------------------------------------------------
# exchange bookkeeping and the no-go composition
# ---------------------------------------------------------------------------


def test_fermionic_interchange_flips_double_occupancy():
    out = mode_interchange(np.eye(4)[INDEX((1, 1))], "fermion")
    assert out[INDEX((1, 1))] == -1.0


def test_bosonic_interchange_keeps_sign():
    basis = enumerate_basis(2, 2)
    out = mode_interchange(StateVector.basis_state(basis, (1, 1)), "boson")
    assert out.amplitudes[basis.index_of((1, 1))] == 1.0
    relabeled = mode_interchange(StateVector.basis_state(basis, (2, 0)), "boson")
    assert relabeled.amplitudes[basis.index_of((0, 2))] == 1.0


def test_single_particle_interchange_is_statistics_blind():
    for stats in ("boson", "fermion"):
        out = mode_interchange(np.eye(4)[INDEX((1, 0))], stats)
        assert out[INDEX((0, 1))] == 1.0


def test_no_go_fermionic_composition_is_identity():
    assert np.array_equal(no_go_demo("fermion"), np.eye(4, dtype=complex))


def test_no_go_bosonic_composition_is_controlled_z():
    assert np.array_equal(no_go_demo("boson"), controlled_z_matrix())


def test_no_go_single_particle_sector_is_statistics_blind():
    f = no_go_demo("fermion")
    b = no_go_demo("boson")
    assert np.array_equal(f[:3, :3], b[:3, :3])


def test_device_evolution_realizes_the_phased_swap():
    assert np.max(np.abs(device_phased_swap() - phased_swap_matrix())) < 1e-12


def test_interchange_matrix_squares_to_identity():
    for stats in ("boson", "fermion"):
        m = interchange_matrix(stats)
        assert np.array_equal(m @ m, np.eye(4, dtype=complex))


# ---------------------------------------------------------------------------
# dressed operators and time averages
# ---------------------------------------------------------------------------


def test_equal_time_commutator_invariant_under_unitary_dressing():
    # With a Hermitian generator the dressed equal-time commutator equals
    # the bare one (including the truncation artifact -2 on the top level).
    adag = DressedOperatorSpec("creation", 1, np.inf).schroedinger_matrix()
    a = adag.conj().T
    bare = a @ adag - adag @ a
    h0 = np.array([0.0, 0.7, 1.4], dtype=complex)
    for t in (0.0, 0.3, 2.1):
        at = heisenberg_dress(a, h0, t)
        adt = heisenberg_dress(adag, h0, t)
        assert np.max(np.abs(at @ adt - adt @ at - bare)) < 1e-12


def test_dressed_reemission_amplitude_decays():
    spec = DressedOperatorSpec("creation", 1, 0.01)
    m = dressed_operator(spec, 0.1)
    assert abs(m[2, 1]) == pytest.approx(math.sqrt(2) * math.exp(-0.1 / 0.02), rel=1e-12)
    assert m[1, 0] == 1.0  # the allowed emission is untouched


@pytest.mark.parametrize("tau_d", [1e-300, 5e-324])
def test_dressed_operator_is_finite_as_tau_d_vanishes(tau_d):
    # At 5e-324 the decay rate 1/(2 tau_d) overflows to inf.
    spec = DressedOperatorSpec("creation", 1, tau_d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bare = dressed_operator(spec, 0.0)
        later = [dressed_operator(spec, t) for t in (0.1, 10.0)]
    assert bare[2, 1] == math.sqrt(2.0)
    assert bare[1, 0] == 1.0
    for m in later:
        assert m[2, 1] == 0.0
        assert m[1, 0] == 1.0


def test_time_averaged_number_identities():
    ann = DressedOperatorSpec("annihilation", 1, 0.01)
    cre = DressedOperatorSpec("creation", 1, 0.01)
    ada = time_averaged_product(cre, ann, 1.0)
    aad = time_averaged_product(ann, cre, 1.0)
    assert ada[1, 1].real == pytest.approx(1.0, abs=1e-9)
    assert aad[0, 0].real == pytest.approx(1.0, abs=1e-9)
    assert abs(ada[0, 0]) < 1e-12  # annihilating the vacuum


def test_time_averaged_reemission_matches_closed_form():
    tau = 1.0
    for tau_d in (0.01, 0.005):
        ann = DressedOperatorSpec("annihilation", 1, tau_d)
        cre = DressedOperatorSpec("creation", 1, tau_d)
        aad = time_averaged_product(ann, cre, tau)
        assert aad[1, 1].real == pytest.approx(revival_coefficient(tau_d, tau), rel=1e-4)
        assert aad[1, 1].real <= 2e-3


@pytest.mark.parametrize("tau_d", [1.0, 2.0])
def test_anticommutator_report_needs_tau_d_below_tau(tau_d):
    with pytest.raises(ValueError, match="tau_d < tau"):
        anticommutator_report(tau_d, 1.0)


def test_anticommutator_report_bounds_and_scaling():
    tau = 1.0
    rep = anticommutator_report(0.01, tau)
    assert rep.anticommutator_deviation < 2e-3
    assert rep.anticommutator_deviation == pytest.approx(revival_coefficient(0.01, tau), rel=1e-4)
    half = anticommutator_report(0.005, tau)
    ratio = rep.anticommutator_deviation / half.anticommutator_deviation
    assert 3.5 < ratio < 4.5
    quarter = anticommutator_report(0.0025, tau)
    ratio2 = half.anticommutator_deviation / quarter.anticommutator_deviation
    assert 3.5 < ratio2 < 4.5


def test_cross_fiber_commutator_vanishes_on_allowed_subspace():
    rep = anticommutator_report(0.01, 1.0)
    assert rep.cross_commutator_deviation < 1e-6


@pytest.mark.parametrize("tau_d, num_points", [(0.5, 201), (1e-2, 2001), (1e-3, 8001)])
def test_closed_form_matches_trapezoid_oracle(tau_d, num_points):
    # Every same- and cross-fiber ordered product; the extrapolated grid is
    # fine enough that its own error sits near 3e-11.
    for (wa, ma), (wb, mb) in ALL_SPEC_PAIRS:
        a = DressedOperatorSpec(wa, ma, tau_d)
        b = DressedOperatorSpec(wb, mb, tau_d)
        exact = time_averaged_product(a, b, 1.0)
        assert np.max(np.abs(exact - richardson_product(a, b, 1.0, num_points))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from(ALL_SPEC_PAIRS),
    log_tau_d=st.floats(-2.0, 2.0),
    tau=st.floats(0.1, 1.0),
)
def test_closed_form_matches_oracle_property(pair, log_tau_d, tau):
    # tau_d ranges past tau, where the nodes crowd the origin.
    (wa, ma), (wb, mb) = pair
    a = DressedOperatorSpec(wa, ma, 10.0**log_tau_d)
    b = DressedOperatorSpec(wb, mb, 10.0**log_tau_d)
    exact = time_averaged_product(a, b, tau)
    assert np.max(np.abs(exact - richardson_product(a, b, tau, 1001))) < 1e-9


def gauss_divided_difference(x1, x2, order=48):
    """Independent oracle for exp[0, x1, x2] by tensor Gauss-Legendre.

    exp[0, x1, x2] = int_0^1 ds s e^(x1 s) int_0^1 dv e^((x2 - x1) s v);
    every term is positive, and for nodes down to -80 the rule of order 48
    is exact to rounding.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    s, w = (nodes + 1.0) / 2.0, weights / 2.0
    inner = np.exp((x2 - x1) * np.outer(s, s)) @ w
    return float(np.sum(w * s * np.exp(x1 * s) * inner))


@settings(max_examples=200, deadline=None)
@given(
    x1=st.floats(-40.0, 0.0),
    gap=st.one_of(st.just(0.0), st.floats(-40.0, 0.0), st.floats(-1e-6, 0.0)),
)
def test_divided_difference_matches_gauss_oracle(x1, gap):
    # Equal, near-equal and distant nodes, and nodes on both sides of -1
    # (the switch between the Taylor series and the closed form).
    x2 = x1 + gap
    got = _exp_divided_difference(np.array([x1]), np.array([x2]))[0]
    assert got == pytest.approx(gauss_divided_difference(x1, x2), rel=1e-13)


@pytest.mark.parametrize("tau_d", [1e-6, 1e-12, 1e-300, 3e-309, 5e-324])
def test_report_is_finite_as_tau_d_vanishes(tau_d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = anticommutator_report(tau_d, 1.0)
    assert np.all(np.isfinite(rep.anticommutator))
    assert np.all(np.isfinite(rep.cross_commutator))
    # The re-emission revival is 8 (tau_d/tau)^2 here (e^(-tau/2 tau_d)
    # underflows); below ~1e-8 it drops under the resolution of 1 + deviation.
    assert rep.anticommutator_deviation == pytest.approx(8.0 * tau_d**2, abs=1e-15)
    assert rep.cross_commutator_deviation == 0.0
    if tau_d < 1e-12:
        assert rep.anticommutator_deviation == 0.0


@pytest.mark.parametrize("tau_d", [1e-2, 1e-6, 1e-300, 5e-324])
def test_report_matches_per_product_averages_bit_for_bit(tau_d):
    # The report averages its four products in one batch; each must be
    # exactly what time_averaged_product gives on its own.
    tau = 1.0
    ann, cre = DressedOperatorSpec("annihilation", 1, tau_d), DressedOperatorSpec("creation", 1, tau_d)
    cre2 = DressedOperatorSpec("creation", 2, tau_d)
    anti = time_averaged_product(ann, cre, tau) + time_averaged_product(cre, ann, tau)
    cross = time_averaged_product(ann, cre2, tau) - time_averaged_product(cre2, ann, tau)
    idx = [0, 1, 3, 4]
    rep = anticommutator_report(tau_d, tau)
    assert np.array_equal(rep.anticommutator, anti)
    assert np.array_equal(rep.cross_commutator, cross[np.ix_(idx, idx)])


def test_product_triples_are_shared_across_tau_d():
    # The nonzero triples of each ordered pair are tabled once, read-only;
    # a product must not depend on which tau_d was averaged before it.
    specs = [
        (DressedOperatorSpec("annihilation", 1, tau_d), DressedOperatorSpec("creation", 2, tau_d))
        for tau_d in (1e-2, 0.3, 1e-2)
    ]
    first, other, again = (time_averaged_product(a, b, 1.0) for a, b in specs)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)
    for arr in _product_triples(("annihilation", 1), ("creation", 2)):
        assert not arr.flags.writeable


def test_report_memory_is_bounded():
    anticommutator_report(1e-6, 1.0)  # first call pays any lazy set-up
    tracemalloc.start()
    try:
        anticommutator_report(1e-6, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_time_average_rejects_bad_window():
    ann = DressedOperatorSpec("annihilation", 1, 0.01)
    cre = DressedOperatorSpec("creation", 1, 0.01)
    for tau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            time_averaged_product(ann, cre, tau)
    with pytest.raises(ValueError):
        time_averaged_product(ann, DressedOperatorSpec("creation", 1, 0.02), 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        DressedOperatorSpec("both", 1, 0.1)
    with pytest.raises(ValueError):
        DressedOperatorSpec("creation", 3, 0.1)
    with pytest.raises(ValueError):
        DressedOperatorSpec("creation", 1, 0.0)
    with pytest.raises(ValueError):
        anticommutator_report(1.0, 0.5)
