"""State propagation for the coupled-core system.

Three layers, all in hbar/eps time units:

* unitary Schroedinger evolution under a (time-independent) Hermitian
  Hamiltonian, exp(-i H t) |psi>;
* projective "no two photons in one core" measurements, which zero the
  doubly-occupied amplitudes and report the survival probability;
* density-matrix evolution with two-photon absorption, where the states
  holding two photons in one core lose population at 1/tau_d into an
  unmodeled quasi-continuum of excited atomic states, solved exactly by
  the non-Hermitian propagator.

The absorption channel decays each doubly-occupied *amplitude* at
1/(2 tau_d).  Matrix elements therefore decay at the sum of the amplitude
rates of their two indices: populations of absorbed states at 1/tau_d,
coherences between an absorbed and a surviving state at 1/(2 tau_d), and
the coherence between the two absorbed states at 1/tau_d.  That is the
unique local choice whose strong-absorption limit reproduces the discrete
measurement protocol with the matched measurement count N = t / (4 tau_d);
equivalently the equation of motion is

    drho/dt = -i (H_eff rho - rho H_eff^dag),   H_eff = H - (i/2) Gamma

with Gamma diagonal.  Absorbed population leaves the simulated space; it
is the trace that rho loses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockBasis, is_hermitian, matrix_exponential


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a :class:`FockBasis`."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"expected {self.basis.dim} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis_state(cls, basis: FockBasis, occupations: tuple[int, ...]) -> "StateVector":
        return cls(basis, basis.unit_vector(occupations))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability(self, occupations: tuple[int, ...]) -> float:
        return float(abs(self.amplitudes[self.basis.index_of(occupations)]) ** 2)


def double_occupancy_indices(basis: FockBasis) -> tuple[int, ...]:
    """Indices of basis states with two or more photons in a single mode."""
    return tuple(i for i, s in enumerate(basis.states) if max(s.occupations) >= 2)


def evolve_state(h: np.ndarray, psi0: StateVector, t: float) -> StateVector:
    """exp(-i H t) |psi0> for Hermitian H (hbar = 1 in hbar/eps units)."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("evolve_state requires a Hermitian Hamiltonian")
    u = matrix_exponential(h, scale=-1j * t)
    return StateVector(psi0.basis, u @ psi0.amplitudes)


def project_no_double_occupancy(psi: StateVector) -> tuple[StateVector | None, float]:
    """Measure "no core holds two photons" and keep the negative outcome.

    Returns ``(survivor, success_probability)`` where the survivor is
    renormalized and the success probability is the squared norm of the raw
    survivor, so callers can reconstruct the unnormalized post-measurement
    state (needed for unconditional quantities) as sqrt(p) * survivor.
    Computed as 1 minus the leaked weight, which keeps the success exactly
    1.0 when no amplitude sits on a checked state.  A zero survivor is
    reported as ``(None, 0.0)`` rather than raising.
    """
    norm_sq = float(np.linalg.norm(psi.amplitudes) ** 2)
    if abs(norm_sq - 1.0) > 1e-6:
        raise ValueError("projection expects a normalized state")
    forbidden = list(double_occupancy_indices(psi.basis))
    p_fail = float(np.sum(np.abs(psi.amplitudes[forbidden]) ** 2))
    p_success = 1.0 - p_fail
    survivor_norm_sq = norm_sq - p_fail
    if p_success <= 0.0 or survivor_norm_sq <= 0.0:
        return None, 0.0
    survivor = psi.amplitudes.copy()
    survivor[forbidden] = 0.0
    return StateVector(psi.basis, survivor / np.sqrt(survivor_norm_sq)), p_success


@dataclass(frozen=True)
class AbsorptionChannel:
    """Two-photon absorption sink acting on the doubly-occupied states."""

    tau_d: float
    absorbed_indices: tuple[int, ...]

    def __post_init__(self):
        if not self.tau_d > 0:
            raise ValueError("tau_d must be positive")

    @classmethod
    def for_basis(cls, basis: FockBasis, tau_d: float) -> "AbsorptionChannel":
        return cls(tau_d=tau_d, absorbed_indices=double_occupancy_indices(basis))

    def rate_vector(self, dim: int) -> np.ndarray:
        """Per-state population decay rates (1/tau_d on absorbed states, 0 at tau_d = inf)."""
        rates = np.zeros(dim)
        rates[list(self.absorbed_indices)] = 1.0 / self.tau_d
        return rates


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-tracked state; trace decreases only via absorption."""

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.basis.dim, self.basis.dim):
            raise ValueError(f"expected a {self.basis.dim}x{self.basis.dim} matrix")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, psi: StateVector) -> "DensityMatrix":
        return cls(psi.basis, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def population(self, occupations: tuple[int, ...]) -> float:
        i = self.basis.index_of(occupations)
        return float(np.real(self.matrix[i, i]))

    def validate(self) -> None:
        """Hermitian to 1e-10, eigenvalues and trace within 1e-9 of [0, 1]."""
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) < -1e-9:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        if not -1e-9 <= self.trace() <= 1.0 + 1e-9:
            raise ValueError(f"trace {self.trace()} outside [0, 1]")


def evolve_density_matrix(
    h: np.ndarray, rho0: DensityMatrix, t: float, channel: AbsorptionChannel
) -> DensityMatrix:
    """Solve drho/dt = -i (H_eff rho - rho H_eff^dag) exactly: V rho0 V^dag.

    The equation has no jump term, so its solution for any rho0, pure or
    mixed, is conjugation by V = :func:`absorption_propagator`.  The
    absorbed probability is trace(rho0) - trace(rho).
    """
    rho0.validate()
    if t < 0:
        raise ValueError("duration must be nonnegative")
    v = absorption_propagator(h, channel, t)
    return DensityMatrix(rho0.basis, v @ rho0.matrix @ v.conj().T)


def absorption_propagator(h: np.ndarray, channel: AbsorptionChannel, t: float) -> np.ndarray:
    """V = exp(-i (H - i Gamma/2) t), the propagator of the master equation.

    A pure state stays pure: the not-yet-absorbed amplitudes are V |psi0>.
    This is the full-space route: any H and channel, with the non-Hermitian
    exponential taken by ``scipy.linalg.expm`` (through
    :func:`~zenogate.fock.matrix_exponential`).  The gate runs its own
    closed-form two-photon block instead, so the two stay independent
    checks of each other.  Raises ValueError when tau_d is so short that
    the exponential is not finite in double precision (below about
    tau_d = 1e-39 at t = pi/4).
    """
    h = np.asarray(h, dtype=complex)
    gamma = channel.rate_vector(h.shape[0])
    h_eff = h - 0.5j * np.diag(gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        v = matrix_exponential(h_eff, scale=-1j * t)
    if not np.all(np.isfinite(v)):
        raise ValueError(
            f"absorption propagator is not finite at tau_d={channel.tau_d:g}: too short for double precision"
        )
    return v
