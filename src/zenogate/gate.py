"""The Zeno-stabilized square-root-of-swap gate and its error curves.

A coupled-core region of half the full transfer length (interaction time
pi/4 in hbar/eps units) acts as a square root of swap on 0- and 1-photon
inputs, but the doubly-occupied input |1,1> leaks into |2,0> and |0,2> --
the same interference that empties the coincidence channel of a 50/50 beam
splitter.  Watching for double occupancy suppresses that leak:

* discrete protocol: N equally spaced projective checks during the
  interaction, failure probability P_E(N) = 1 - cos^(2N)(pi/2N), which
  falls off as pi^2/(4N);
* absorption protocol: continuous two-photon absorption with decay time
  tau_d, equivalent to the discrete curve at the matched count
  N = t / (4 tau_d).

With a pi/4 phase shifter per photon on each output port, the surviving
(post-selected) evolution converges to a square-root-of-swap that carries
an extra factor i on |1,1>.  Squaring it gives a swap with a sign flip on
|1,1>, which composed with a plain mode interchange is a controlled-Z.

:func:`extract_gate` and :func:`error_curve` read the closed forms of
:mod:`zenogate.exact` and build no state vector; the runners are the
propagator route, which the tests compare with the closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import StateVector
from .exact import HALF_TRANSFER_TIME, OUTPUT_PHASE_PER_PHOTON, _ROUNDOFF_WEIGHT
from .exact import absorption_survivor, discrete_survivor, one_photon_column
from .fock import FockBasis, FockState, coupling_hamiltonian, enumerate_basis

# Computational basis |q1 q2> <-> photon occupations (q1, q2), in the fixed
# order used by every 4x4 matrix in this module.
COMPUTATIONAL_OCCUPATIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


@functools.cache
def gate_basis() -> FockBasis:
    """Two modes, up to two photons: the full space the gate explores."""
    return enumerate_basis(2, 2)


@dataclass(frozen=True)
class _Sector:
    """One photon-number sector of H (eps = 1): H_s = V diag(energies) V^dag.

    ``indices`` are its positions in :func:`gate_basis`; ``kept`` marks the
    states no check removes.  Arrays are read-only.
    """

    indices: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    kept: np.ndarray


@functools.cache
def _sector(total: int) -> _Sector:
    """The sector of ``total`` photons, diagonalised once per process."""
    basis = gate_basis()
    indices = np.array([i for i, s in enumerate(basis.states) if s.total == total])
    h = coupling_hamiltonian(1.0, basis)[np.ix_(indices, indices)]
    energies, vectors = np.linalg.eigh(h)
    kept = np.array([max(basis.states[i].occupations) < 2 for i in indices])
    for a in (indices, energies, vectors, kept):
        a.setflags(write=False)
    return _Sector(indices, energies, vectors, kept)


def _locate(occupations: tuple[int, ...]) -> tuple[_Sector, int]:
    """The sector holding a basis state, and the state's position in it."""
    sector = _sector(sum(occupations))
    return sector, list(sector.indices).index(gate_basis().index_of(occupations))


@dataclass(frozen=True)
class ZenoProtocol:
    """Configuration of one gate run over the half-transfer time.

    ``kind`` selects discrete projective checks (``n_measurements``) or
    continuous two-photon absorption (``tau_d``).
    """

    kind: str
    n_measurements: int | None = None
    tau_d: float | None = None

    def __post_init__(self):
        if self.kind == "discrete":
            _check_count(self.n_measurements)
        elif self.kind != "absorption":
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        elif self.tau_d is None or not self.tau_d > 0:
            raise ValueError("absorption protocol needs tau_d > 0")

    @classmethod
    def discrete(cls, n: int) -> "ZenoProtocol":
        return cls(kind="discrete", n_measurements=n)

    @classmethod
    def absorption(cls, tau_d: float) -> "ZenoProtocol":
        return cls(kind="absorption", tau_d=tau_d)


def _check_count(n) -> None:
    if n is None or not 1 <= n < math.inf or n != int(n):
        raise ValueError(f"the discrete protocol needs an integer number of checks N >= 1, got {n}")


@dataclass(frozen=True)
class GateReport:
    """Extracted gate: post-selected map plus per-input success bookkeeping.

    ``conditional_map`` columns are the renormalized survivors of the inputs
    |00>, |01>, |10>, |11> on the computational basis.  ``error_probability``
    is the weight |11> loses; ``leakage`` the largest per-input probability
    of ending outside the computational basis (absorbed plus residual double
    occupancy).  ``fidelity_to_target`` is computed after post-selection, on
    the renormalized map, so it cannot see the Zeno error: it is 1 for every
    N >= 2, where the |11> survivor is pure |11>, and 0.75 at N = 1.
    """

    conditional_map: np.ndarray
    success_probability_per_input: tuple[float, float, float, float]
    error_probability: float
    fidelity_to_target: float
    leakage: float


def closed_form_error(n: int) -> float:
    """P_E(N) = 1 - cos^(2N)(pi/2N) for N checks, from :func:`~zenogate.exact.discrete_survivor`."""
    _check_count(n)
    return discrete_survivor(n)[2]


def apply_output_phase(psi: StateVector) -> StateVector:
    """pi/4 phase shifter on each output port: amplitude *= exp(i pi/4 n_total)."""
    totals = np.array([s.total for s in psi.basis.states])
    return StateVector(psi.basis, psi.amplitudes * np.exp(1j * OUTPUT_PHASE_PER_PHOTON * totals))


def _evolve(
    occupations: tuple[int, ...],
    interaction_time: float,
    n: int | None = None,
    tau_d: float | None = None,
) -> tuple[np.ndarray, float]:
    """Unnormalized amplitudes after the whole interaction, and the success.

    The one place where runner inputs are checked: a computational input,
    and either an integer ``n >= 1`` or ``tau_d > 0``.  Works in the
    photon-number sector of the input alone, from its cached spectrum.  A
    sector with no checked state is the column V diag(exp(-i t w)) V^dag[:, k]
    and succeeds with probability exactly 1.0.  In the two-photon sector the
    only kept state is |1,1>, so ``n`` checks give (P U_step)^n |1,1> =
    U_kk^n |1,1> with U_kk = <1,1| V diag(exp(-i t w / n)) V^dag |1,1>, and
    absorption of decay time ``tau_d`` is the closed-form block of
    :func:`~zenogate.exact.absorption_survivor`.  A survivor lighter than
    ``_ROUNDOFF_WEIGHT`` counts as none.
    """
    occupations = tuple(occupations)
    if occupations not in COMPUTATIONAL_OCCUPATIONS:
        raise ValueError("input must be a computational-basis state")
    if n is not None:
        _check_count(n)
    elif not tau_d > 0:
        raise ValueError(f"the absorption protocol needs tau_d > 0, got {tau_d}")
    sector, k = _locate(occupations)
    amps = np.zeros(gate_basis().dim, dtype=complex)
    if sector.kept.all():
        phases = np.exp(-1j * interaction_time * sector.energies)
        amps[sector.indices] = sector.vectors @ (phases * sector.vectors[k].conj())
        return amps, 1.0
    if n is not None:
        weights = np.abs(sector.vectors[k]) ** 2
        step = 1.0 + complex(weights @ np.expm1(-1j * (interaction_time / n) * sector.energies))
        amps[sector.indices[k]] = step ** int(n)
    else:
        kept, bright, _ = absorption_survivor(tau_d, interaction_time)
        amps[sector.indices] = np.where(sector.kept, kept, bright / math.sqrt(2.0))
    success = float(np.vdot(amps, amps).real)
    if success < _ROUNDOFF_WEIGHT:
        return np.zeros_like(amps), 0.0
    return amps, success


def run_discrete_protocol(
    n: int,
    input_state: FockState,
    interaction_time: float = HALF_TRANSFER_TIME,
) -> tuple[StateVector, float]:
    """N equally spaced double-occupancy checks over the interaction: (P U_step)^N.

    Returns the unnormalized post-selected survivor and its success
    probability; a fully failed run is an all-zero survivor with success
    0.0.  Single-photon inputs never reach a checked state, so their
    success is exactly 1; the |1,1> input survives each check with
    cos^2(pi/2N) and the product reproduces the closed form.
    """
    amps, p = _evolve(input_state.occupations, interaction_time, n=n)
    return StateVector(gate_basis(), amps), p


def run_absorption_protocol(tau_d: float, input_state: FockState) -> tuple[StateVector, float]:
    """Two-photon absorption of decay time tau_d over the half-transfer time.

    Returns the unnormalized not-yet-absorbed survivor and its survival
    probability, in the same shape as :func:`run_discrete_protocol`.
    """
    amps, survival = _evolve(input_state.occupations, HALF_TRANSFER_TIME, tau_d=tau_d)
    return StateVector(gate_basis(), amps), survival


def error_curve(kind: str, n_values) -> list[tuple[float, float]]:
    """(N, P_E) rows for either protocol family over t = pi/4, from the closed forms.

    For the absorption family the abscissa is the matched measurement count
    N = t / (4 tau_d), and the error is the absorbed probability at
    tau_d = t / (4 N).  Discrete N must be an integer >= 1, absorption N
    positive and finite.
    """
    values = list(n_values)
    if not values:
        raise ValueError("grid must be nonempty")
    if kind not in ("discrete", "absorption"):
        raise ValueError(f"unknown protocol family {kind!r}")
    rows = []
    for n in values:
        if kind == "discrete":
            error = closed_form_error(n)
        else:
            if not 0 < n < math.inf:
                raise ValueError(f"the absorption protocol needs a positive finite matched N, got {n}")
            error = absorption_survivor(HALF_TRANSFER_TIME / (4.0 * float(n)))[2]
        rows.append((float(n), error))
    return rows


def extract_gate(protocol: ZenoProtocol) -> GateReport:
    """The protocol's map on the four computational inputs, output phases applied.

    |00> is untouched, a single photon stays or hops (:mod:`zenogate.exact`
    gives each amplitude), and |11> keeps the protocol's kept amplitude times
    the two-photon output phase i.  Fidelity is the phase-insensitive trace
    overlap |tr(M^dag T)| / 4 against the phased square-root-of-swap T.
    """
    stay, hop = one_photon_column()
    if protocol.kind == "discrete":
        kept, bright, lost = discrete_survivor(protocol.n_measurements)
    else:
        kept, bright, lost = absorption_survivor(protocol.tau_d)
    survival, leakage = kept * kept + abs(bright) ** 2, lost + abs(bright) ** 2
    frozen = 1j * kept / math.sqrt(survival) if survival else 0.0
    m = np.array([[1, 0, 0, 0], [0, stay, hop, 0], [0, hop, stay, 0], [0, 0, 0, frozen]], dtype=complex)
    fidelity = float(abs(np.vdot(m, phased_sqrt_swap_matrix()))) / 4.0
    return GateReport(m, (1.0, 1.0, 1.0, survival), lost, fidelity, leakage)


# Ideal 4x4 matrices on the computational basis |00>, |01>, |10>, |11>


def phased_sqrt_swap_matrix() -> np.ndarray:
    """The gate the device converges to: sqrt(swap) with an extra i on |11>.

    The i is the residue of the pi/4-per-photon output phase acting on the
    Zeno-frozen two-photon input.
    """
    a, b = (1 + 1j) / 2, (1 - 1j) / 2
    return np.array([[1, 0, 0, 0], [0, a, b, 0], [0, b, a, 0], [0, 0, 0, 1j]], dtype=complex)


def phased_swap_matrix() -> np.ndarray:
    """Square of the device gate: swap with a -1 on |11>."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)[[0, 2, 1, 3]]


def swap_matrix() -> np.ndarray:
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def controlled_z_matrix() -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def compose_controlled_z() -> np.ndarray:
    """Mode interchange after the squared device gate: exactly diag(1,1,1,-1).

    The squared gate is a swap with a sign flip on |11>; undoing the swap by
    physically crossing the fibers leaves only the sign flip.
    """
    return swap_matrix() @ phased_swap_matrix()


# Reference curves


def _return_probability_curve(times, occupations) -> list[tuple[float, float]]:
    """(t, |<occ| exp(-i H t) |occ>|^2) on the whole grid from the cached sector spectrum."""
    sector, k = _locate(occupations)
    weights = np.abs(sector.vectors[k]) ** 2
    ts = np.fromiter(times, dtype=float)
    probs = np.abs(np.exp(-1j * np.outer(ts, sector.energies)) @ weights) ** 2
    return list(zip(ts.tolist(), probs.tolist()))


def rabi_curve(times) -> list[tuple[float, float]]:
    """(t, P_1) for a single photon launched into core 1.

    The hopping Hamiltonian makes the photon oscillate between cores like a
    driven two-level atom: P_1(t) = cos^2(t).
    """
    return _return_probability_curve(times, (1, 0))


def hom_curve(times) -> list[tuple[float, float]]:
    """(t, P_11) for one photon in each core, no Zeno effect.

    P_11(t) = cos^2(2t): at the half-transfer time pi/4 the photons always
    pair up in one core, the coupled-core version of the Hong-Ou-Mandel dip.
    """
    return _return_probability_curve(times, (1, 1))
