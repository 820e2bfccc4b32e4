"""Bosonic Fock space for a pair of coupled optical-fiber modes.

Two single-transverse-mode fiber cores running in parallel exchange a photon
through their overlapping evanescent fields.  In the narrowband limit the
free photon energies drop out (interaction picture) and the only surviving
term is the hopping Hamiltonian

    H = eps * (a1^dag a2 + a2^dag a1)

so every matrix built here lives in a small truncated occupation-number
basis.  Throughout the dynamics modules, time is dimensionless in units of
hbar/eps; the longitudinal wave vector and the photon frequency are absorbed
by that reduction and never appear explicitly.

Truncation is exact for this Hamiltonian: it commutes with the total photon
number, so within each number sector (0, 1 or 2 photons are the only ones
used) no amplitude ever reaches the cutoff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class FockState:
    """Occupation-number label, one entry per fiber mode."""

    occupations: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.occupations):
            raise ValueError(f"occupations must be nonnegative, got {self.occupations}")

    @property
    def total(self) -> int:
        return sum(self.occupations)

    def __str__(self) -> str:
        return "|" + ",".join(str(n) for n in self.occupations) + ">"


@dataclass(frozen=True)
class FockBasis:
    """All occupation vectors with total photon number <= ``max_total``.

    States are enumerated in lexicographic order of the occupation vector,
    which makes every operator matrix (and every golden file derived from
    one) reproducible across runs.
    """

    num_modes: int
    max_total: int
    states: tuple[FockState, ...] = field(init=False)
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        if self.max_total < 0:
            raise ValueError("max_total must be >= 0")
        occs = sorted(
            occ
            for occ in itertools.product(range(self.max_total + 1), repeat=self.num_modes)
            if sum(occ) <= self.max_total
        )
        object.__setattr__(self, "states", tuple(FockState(o) for o in occs))
        object.__setattr__(self, "_index", {occ: i for i, occ in enumerate(occs)})

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, occupations: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(occupations)]
        except KeyError:
            raise KeyError(f"{occupations} not in basis (max_total={self.max_total})") from None

    def unit_vector(self, occupations: tuple[int, ...]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.index_of(occupations)] = 1.0
        return vec


def enumerate_basis(num_modes: int, max_total: int) -> FockBasis:
    """Canonical truncated Fock basis; see :class:`FockBasis` for ordering."""
    return FockBasis(num_modes=num_modes, max_total=max_total)


def creation_matrix(mode: int, basis: FockBasis) -> np.ndarray:
    """Matrix of a^dag for the given mode (1-based index).

    <n+1| a^dag |n> = sqrt(n+1); transitions that would exceed the basis
    cutoff map to zero.  The zero columns are exact rather than approximate
    here because the hopping Hamiltonian conserves total photon number.
    """
    if not 1 <= mode <= basis.num_modes:
        raise ValueError(f"mode must be in 1..{basis.num_modes}, got {mode}")
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, state in enumerate(basis.states):
        occ = list(state.occupations)
        occ[mode - 1] += 1
        if sum(occ) <= basis.max_total:
            m[basis.index_of(tuple(occ)), i] = np.sqrt(occ[mode - 1])
    return m


def annihilation_matrix(mode: int, basis: FockBasis) -> np.ndarray:
    """Matrix of a for the given mode; adjoint of :func:`creation_matrix`."""
    return creation_matrix(mode, basis).conj().T


def number_operator(basis: FockBasis) -> np.ndarray:
    """Total photon number operator (diagonal in the occupation basis)."""
    return np.diag(np.array([s.total for s in basis.states], dtype=complex))


def coupling_hamiltonian(epsilon: float, basis: FockBasis) -> np.ndarray:
    """Evanescent-coupling Hamiltonian eps * (a1^dag a2 + a2^dag a1).

    Hermitian and block diagonal in total photon number.  In the
    single-photon sector it reduces to eps * sigma_x; in the two-photon
    sector, ordered (|1,1>, |2,0>, |0,2>), it is

        sqrt(2) * eps * [[0, 1, 1],
                         [1, 0, 0],
                         [1, 0, 0]]
    """
    if basis.num_modes != 2:
        raise ValueError("coupling_hamiltonian is defined for 2-mode bases")
    a1d = creation_matrix(1, basis)
    a2d = creation_matrix(2, basis)
    h = epsilon * (a1d @ a2d.conj().T + a2d @ a1d.conj().T)
    return h


def matrix_exponential(m: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) for a square matrix, by ``scipy.linalg.expm``.

    Scaling and squaring with a Pade approximant; accurate far beyond 1e-12
    relative for the <= 6-dimensional matrices used in this package.
    scipy is imported here, on first use, so that importing zenogate does
    not load it: the gate and the fermion routines never call this.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    import scipy.linalg

    return scipy.linalg.expm(scale * m)


def is_hermitian(m: np.ndarray) -> bool:
    """Hermitian to 1e-10 relative to the largest entry (absolute below 1)."""
    return bool(np.max(np.abs(m - m.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(m))))
