"""Acceptance suite: every headline quantity at its pinned tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so ``pytest -v`` reads as a
checklist.
"""

import math
import time

import numpy as np
import pytest
from scipy.constants import c as SPEED_OF_LIGHT

from zenogate.absorption import device_length, two_photon_rate
from zenogate.dynamics import AbsorptionChannel, DensityMatrix, StateVector, evolve_density_matrix
from zenogate.encoding import concatenate, exact_tree_failure, monte_carlo_logical_failure
from zenogate.fermions import anticommutator_report, compare_to_zeno_photons, no_go_demo
from zenogate.fock import FockState, coupling_hamiltonian
from zenogate.gate import (
    ZenoProtocol,
    closed_form_error,
    compose_controlled_z,
    controlled_z_matrix,
    error_curve,
    extract_gate,
    gate_basis,
    hom_curve,
    phased_sqrt_swap_matrix,
    phased_swap_matrix,
    rabi_curve,
    run_absorption_protocol,
    run_discrete_protocol,
)

from test_absorption import canonical_params


def report(number, ok, label):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_rabi_curve():
    start = time.perf_counter()
    ts = np.linspace(0.0, 2 * np.pi, 1000)
    rows = rabi_curve(ts)
    elapsed = time.perf_counter() - start
    err = max(abs(p - math.cos(t) ** 2) for t, p in rows)
    report(1, err < 1e-9 and elapsed < 1.0, f"single-photon transfer max|P1 - cos^2 t| = {err:.2e}, {elapsed:.2f} s")


def test_criterion_02_hom_dip():
    ts = np.linspace(0.0, np.pi / 4, 1000)
    rows = hom_curve(ts)
    err = max(abs(p - math.cos(2 * t) ** 2) for t, p in rows)
    dip = hom_curve([np.pi / 4])[0][1]
    report(2, err < 1e-9 and dip < 1e-12, f"coincidence dip max err = {err:.2e}, P11(pi/4) = {dip:.2e}")


def test_criterion_03_discrete_zeno_curve():
    worst = 0.0
    for n in range(1, 201):
        sim = 1 - run_discrete_protocol(n, FockState((1, 1)))[1]
        worst = max(worst, abs(sim - closed_form_error(n)))
    n_big = 1000
    sim_big = 1 - run_discrete_protocol(n_big, FockState((1, 1)))[1]
    scaled = n_big * sim_big
    scaled_ok = abs(scaled - np.pi**2 / 4) < 0.02 * np.pi**2 / 4
    report(3, worst < 1e-10 and scaled_ok, f"max closed-form gap = {worst:.2e}, N*P_E(1000) = {scaled:.4f}")


def test_criterion_04_absorption_curve():
    start = time.perf_counter()
    grid = [10, 20, 50, 100, 200]
    rows = error_curve("absorption", grid)
    rel = {n: abs(p - closed_form_error(n)) / closed_form_error(n) for (n, p) in rows}
    bounds_ok = all(rel[n] < 0.10 for n in grid) and all(rel[n] < 0.03 for n in grid if n >= 50)

    # the photon-number-sector route against the full-space density-matrix
    # route at the matched N = 50 point
    n = 50
    tau_d = (np.pi / 4) / (4 * n)
    _, s1 = run_absorption_protocol(tau_d, FockState((1, 1)))
    basis = gate_basis()
    rho = evolve_density_matrix(
        coupling_hamiltonian(1.0, basis),
        DensityMatrix.pure(StateVector.basis_state(basis, (1, 1))),
        np.pi / 4,
        AbsorptionChannel.for_basis(basis, tau_d),
    )
    s2 = rho.trace()
    elapsed = time.perf_counter() - start
    grid_ok = abs(s1 - s2) < 1e-8
    report(
        4,
        bounds_ok and grid_ok and elapsed < 30.0,
        f"matched-N gaps {max(rel.values()):.3f} worst, route gap = {abs(s1 - s2):.1e}, {elapsed:.1f} s",
    )


def test_criterion_05_gate_extraction():
    gate = extract_gate(ZenoProtocol.discrete(1000))
    dist = float(np.max(np.abs(gate.conditional_map - phased_sqrt_swap_matrix())))
    blocks_ok = True
    target = phased_sqrt_swap_matrix()
    for n in (1, 2, 5, 20, 100, 1000):
        block = extract_gate(ZenoProtocol.discrete(n)).conditional_map[1:3, 1:3]
        blocks_ok &= float(np.max(np.abs(block - target[1:3, 1:3]))) < 1e-12
    report(
        5,
        dist < 5e-3 and gate.fidelity_to_target > 0.999 and blocks_ok,
        f"entrywise distance = {dist:.1e}, fidelity = {gate.fidelity_to_target:.6f}, 1-photon block exact",
    )


def test_criterion_06_controlled_z_composition():
    cz_exact = np.array_equal(compose_controlled_z(), controlled_z_matrix())
    m = phased_sqrt_swap_matrix()
    square_gap = float(np.max(np.abs(m @ m - phased_swap_matrix())))
    report(6, cz_exact and square_gap < 1e-12, f"swap-composition exact, squared-gate gap = {square_gap:.1e}")


def test_criterion_07_fermion_equivalence():
    single = max(
        compare_to_zeno_photons(1.0, np.pi / 4, n, occ)
        for n in (1, 10)
        for occ in ((1, 0), (0, 1))
    )
    devs = [compare_to_zeno_photons(1.0, np.pi / 4, n, (1, 1)) for n in (1, 2, 5, 10, 50, 100, 1000)]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    report(
        7,
        single < 1e-12 and devs[-1] < 5e-3 and monotone,
        f"single-particle gap = {single:.1e}, two-particle gap(N=1000) = {devs[-1]:.2e}, monotone",
    )


def test_criterion_08_anticommutator():
    rep = anticommutator_report(0.01, 1.0)
    half = anticommutator_report(0.005, 1.0)
    ratio = rep.anticommutator_deviation / half.anticommutator_deviation
    ok = (
        rep.anticommutator_deviation < 2e-3
        and 3.5 < ratio < 4.5
        and rep.cross_commutator_deviation < 1e-6
    )
    report(
        8,
        ok,
        f"deviation = {rep.anticommutator_deviation:.2e}, halving ratio = {ratio:.3f}, "
        f"cross-fiber = {rep.cross_commutator_deviation:.1e}",
    )


def test_criterion_09_no_go_demo():
    fermion_ok = np.array_equal(no_go_demo("fermion"), np.eye(4, dtype=complex))
    boson_ok = np.array_equal(no_go_demo("boson"), controlled_z_matrix())
    report(9, fermion_ok and boson_ok, "fermionic composition = identity, bosonic = controlled-Z")


def test_criterion_10_rate_model():
    tau_r = 16.7e-9
    cancel = two_photon_rate(canonical_params(tau_r=tau_r))
    prefactor_ok = abs(cancel.rate * tau_r - math.sqrt(2 / math.pi)) < 1e-12

    bare = two_photon_rate(canonical_params(tau_r=tau_r, n_scale=math.sqrt(math.pi / 2)))
    length_ok = (
        abs(bare.absorption_length - SPEED_OF_LIGHT * tau_r) < 1e-9
        and abs(bare.absorption_length - 5.0) < 0.05
    )
    dev, _ = device_length(1.0, 5.0, 100.0)
    finesse_ok = abs(dev - 5e-4) < 1e-15 and dev < 1e-3
    report(
        10,
        prefactor_ok and length_ok and finesse_ok,
        f"R2*tau_R = {cancel.rate * tau_r:.12f}, l2 = {bare.absorption_length:.3f} m, "
        f"finesse-100 length = {dev * 1e3:.2f} mm",
    )


def test_criterion_11_threshold():
    start = time.perf_counter()
    p = 0.1
    mc = monte_carlo_logical_failure(p, trials=10**6, seed=20240817)
    tree = exact_tree_failure(p)
    mc_ok = abs(mc.mc_estimate - tree) < 4 * mc.mc_stderr
    fixed_point_ok = 4 * 0.25**2 == 0.25
    falling = concatenate(0.2, 5)
    rising = concatenate(0.3, 5)
    flat = concatenate(0.25, 5)
    concat_ok = (
        all(b < a for a, b in zip([0.2] + falling, falling))
        and all(b > a for a, b in zip([0.3] + rising, rising))
        and all(x == 0.25 for x in flat)
    )
    elapsed = time.perf_counter() - start
    report(
        11,
        mc_ok and fixed_point_ok and concat_ok and elapsed < 10.0,
        f"MC gap = {abs(mc.mc_estimate - tree):.2e} ({mc.mc_stderr:.1e} stderr), "
        f"fixed point at 1/4, concatenation monotone, {elapsed:.1f} s",
    )
