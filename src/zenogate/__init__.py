"""Desk-scale simulator for Zeno-stabilized photonic swap gates.

Coupled optical-fiber cores give a photon a beam-splitter interaction
stretched out in time; repeatedly checking for (or nonlinearly absorbing)
double occupancy suppresses the two-photon failure channel and turns the
half-transfer device into a deterministic entangling gate.  The subpackages
cover the bosonic Fock machinery, state and density-matrix propagation, the
gate protocols and their error curves, the fermionic twin system, the
physical absorption-rate model, and the two-qubit failure encoding.
"""

__version__ = "0.1.0"

from .absorption import (
    AbsorptionParams,
    RateReport,
    device_length,
    factor_breakdown,
    load_params_file,
    resonant_cross_section,
    two_photon_rate,
    unity_mode_check,
)
from .dynamics import (
    AbsorptionChannel,
    DensityMatrix,
    StateVector,
    absorption_propagator,
    evolve_density_matrix,
    evolve_state,
    project_no_double_occupancy,
)
from .encoding import (
    ThresholdReport,
    analytic_logical_failure,
    concatenate,
    exact_tree_failure,
    monte_carlo_logical_failure,
    threshold_sweep,
)
from .fermions import (
    AnticommutatorReport,
    DressedOperatorSpec,
    anticommutator_report,
    compare_to_zeno_photons,
    dressed_operator,
    evolve_fermions,
    fermion_hamiltonian,
    fermion_operator_matrices,
    mode_interchange,
    no_go_demo,
    time_averaged_product,
)
from .fock import (
    FockBasis,
    FockState,
    coupling_hamiltonian,
    creation_matrix,
    annihilation_matrix,
    enumerate_basis,
    matrix_exponential,
)
from .gate import (
    GateReport,
    ZenoProtocol,
    apply_output_phase,
    closed_form_error,
    compose_controlled_z,
    error_curve,
    extract_gate,
    hom_curve,
    rabi_curve,
    run_absorption_protocol,
    run_discrete_protocol,
)
