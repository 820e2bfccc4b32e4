"""Fermionic twin of the coupled-core system.

A strong Zeno effect forbids double occupancy, so the photons inherit the
Pauli exclusion principle.  This module makes that statement quantitative
three ways:

* dynamics: two anti-commuting modes evolved under the same hopping
  Hamiltonian eps * (b1^dag b2 + b2^dag b1) reproduce single-particle
  transfer exactly, and the doubly-occupied state is frozen -- the limit
  the Zeno'd photons approach as the measurement count grows;
* exchange bookkeeping: interchanging the two guides flips the sign of the
  doubly-occupied fermion pair, so a crossed-fiber "swap" composed with the
  squared device gate yields the identity for fermions (consistent with the
  no-go theorems) but a controlled-Z for bosons;
* operator algebra: creation/annihilation operators dressed by the
  dissipative free generator (two-photon absorption as a -i/(2 tau_d) term
  on the doubly-occupied level) obey anti-commutation relations on the
  allowed subspace once they are time averaged over a window tau >> tau_d.
  Each dressed element decays as a single exponential, so every time
  average is an exact divided difference of exp, finite down to tau_d -> 0.

The dressing uses the bi-orthogonal form O(t) = exp(i H0^dag t) O exp(-i H0 t);
with the naive same-generator form a non-Hermitian H0 would grow one side
exponentially instead of switching the re-emission amplitude off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import StateVector
from .fock import FockState
from .gate import COMPUTATIONAL_OCCUPATIONS, phased_swap_matrix, run_discrete_protocol, swap_matrix


def fermion_operator_matrices() -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Jordan-Wigner creation/annihilation pairs {mode: (b_dag, b)}.

    The fermion states are the gate's computational basis
    (:data:`~zenogate.gate.COMPUTATIONAL_OCCUPATIONS`), Pauli exclusion
    built in.  Mode 1 is ordered before mode 2:
    |n1, n2> = (b1^dag)^n1 (b2^dag)^n2 |0>, so b2^dag acting past an
    occupied mode 1 picks up the exchange sign.
    """
    index = COMPUTATIONAL_OCCUPATIONS.index
    b1d = np.zeros((4, 4), dtype=complex)
    b2d = np.zeros((4, 4), dtype=complex)
    for n2 in (0, 1):
        b1d[index((1, n2)), index((0, n2))] = 1.0
    for n1 in (0, 1):
        b2d[index((n1, 1)), index((n1, 0))] = (-1.0) ** n1
    return {1: (b1d, b1d.conj().T), 2: (b2d, b2d.conj().T)}


def fermion_hamiltonian(epsilon: float) -> np.ndarray:
    """eps * (b1^dag b2 + b2^dag b1) on the 4-state computational basis.

    The single-particle block is identical to the bosonic one; the
    doubly-occupied state is annihilated by every term, so it never moves.
    """
    ops = fermion_operator_matrices()
    b1d, b1 = ops[1]
    b2d, b2 = ops[2]
    return epsilon * (b1d @ b2 + b2d @ b1)


def _fermion_propagator(theta: float) -> np.ndarray:
    """exp(-i theta H / eps) on the computational basis, written out.

    |0,0> and |1,1> are fixed; the single-particle pair (|0,1>, |1,0>)
    turns by cos(theta) I - i sin(theta) sigma_x.  At theta = 0 it is
    exactly the identity.
    """
    u = np.eye(4, dtype=complex)
    pair = [COMPUTATIONAL_OCCUPATIONS.index(occ) for occ in ((0, 1), (1, 0))]
    u[np.ix_(pair, pair)] = [[math.cos(theta), -1j * math.sin(theta)], [-1j * math.sin(theta), math.cos(theta)]]
    return u


def evolve_fermions(epsilon: float, t: float, input_occupations) -> np.ndarray:
    """exp(-i H t) applied to a computational basis state (hbar = 1)."""
    return _fermion_propagator(epsilon * t)[:, COMPUTATIONAL_OCCUPATIONS.index(tuple(input_occupations))]


def compare_to_zeno_photons(epsilon: float, t: float, n: int, input_occupations) -> float:
    """Max amplitude gap between free fermions and Zeno'd photons.

    The photon side runs n equally spaced double-occupancy checks
    (:func:`~zenogate.gate.run_discrete_protocol` over the interaction
    eps * t) and keeps the unnormalized post-selected survivor, so the gap
    includes the amplitude lost to failed checks.  Single-particle inputs
    match to machine precision at any n; for the doubly-occupied input the
    gap is 1 - cos^n(2 eps t / n), which vanishes as n grows.
    """
    occ = tuple(input_occupations)
    if any(q not in (0, 1) for q in occ):
        raise ValueError("input must have at most one particle per mode")

    fermion_vec = evolve_fermions(epsilon, t, occ)
    survivor, _ = run_discrete_protocol(n, FockState(occ), epsilon * t)
    boson_vec = survivor.amplitudes[[survivor.basis.index_of(o) for o in COMPUTATIONAL_OCCUPATIONS]]
    return float(np.max(np.abs(fermion_vec - boson_vec)))


def interchange_matrix(statistics: str) -> np.ndarray:
    """Relabeling of the two guides on the 4-state computational space.

    Bosons: a plain swap.  Fermions: the doubly-occupied pair picks up -1
    from anti-commuting the two creation operators, so the interchange is
    itself the phased swap.
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")
    return swap_matrix() if statistics == "boson" else phased_swap_matrix()


def mode_interchange(state, statistics: str):
    """Relabel the two modes of a state vector.

    Accepts a bosonic :class:`~zenogate.dynamics.StateVector` (any total
    photon number; amplitudes move (n1,n2) -> (n2,n1) with no sign) or a
    plain length-4 array on the computational basis, relabeled by
    :func:`interchange_matrix`.
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")
    if isinstance(state, StateVector):
        basis = state.basis
        out = np.zeros_like(state.amplitudes)
        for i, s in enumerate(basis.states):
            n1, n2 = s.occupations
            sign = -1.0 if statistics == "fermion" and (n1, n2) == (1, 1) else 1.0
            out[basis.index_of((n2, n1))] = sign * state.amplitudes[i]
        return StateVector(basis, out)
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("expected a StateVector or a length-4 computational amplitude vector")
    return interchange_matrix(statistics) @ vec


def device_phased_swap() -> np.ndarray:
    """The squared gate realized by direct fermion evolution, on the 4-state space.

    Full-transfer evolution (t = pi/2) plus the accumulated pi/2-per-particle
    output phase.  For fermions this is the phased swap without any Zeno
    effect; for Zeno'd photons it is the same matrix in the strong-
    measurement limit (the conditional-map tests cover that route).
    """
    u = _fermion_propagator(math.pi / 2)
    totals = np.array([sum(occ) for occ in COMPUTATIONAL_OCCUPATIONS])
    phases = np.exp(1j * (math.pi / 2) * totals)
    return phases[:, None] * u


def no_go_demo(statistics: str = "fermion") -> np.ndarray:
    """Compose the squared device gate with a guide interchange.

    For fermions the interchange is itself the phased swap, so the
    composition collapses to the identity: crossing the guides undoes the
    gate and no entangling operation survives, consistent with the no-go
    theorems for non-interacting fermions.  With a bosonic interchange the
    composition is the controlled-Z instead.  The algebraic phased-swap
    matrix is used here so the identities are exact; its realization by the
    coupled-guide evolution is checked separately against
    :func:`device_phased_swap`.
    """
    return interchange_matrix(statistics) @ phased_swap_matrix()


# ---------------------------------------------------------------------------
# Dressed operators and time-averaged products
# ---------------------------------------------------------------------------


def _ladder(which: str) -> np.ndarray:
    """Creation or annihilation matrix on the truncated ladder {|0>, |1>, |2>}."""
    m = np.zeros((3, 3), dtype=complex)
    m[1, 0] = 1.0
    m[2, 1] = math.sqrt(2.0)
    return m if which == "creation" else m.conj().T


@dataclass(frozen=True)
class DressedOperatorSpec:
    """One dressed ladder operator on the truncated basis {|0>, |1>, |2>}.

    ``which`` is "annihilation" or "creation"; ``mode`` picks the fiber
    (1 or 2).  The free generator carries the two-photon absorption as a
    -i/(2 tau_d) diagonal term on the doubly-occupied level; photon
    energies are taken on resonance and drop out.
    """

    which: str
    mode: int
    tau_d: float

    def __post_init__(self):
        if self.which not in ("annihilation", "creation"):
            raise ValueError(f"which must be 'annihilation' or 'creation', got {self.which!r}")
        if self.mode not in (1, 2):
            raise ValueError("mode must be 1 or 2")
        if not self.tau_d > 0:
            raise ValueError("tau_d must be positive")

    def schroedinger_matrix(self) -> np.ndarray:
        return _ladder(self.which)

    def generator_diagonal(self) -> np.ndarray:
        g = np.zeros(3, dtype=complex)
        g[2] = -0.5j / self.tau_d
        return g


def _exponents(generator_diagonal: np.ndarray) -> np.ndarray:
    """Table alpha_ij = i conj(g_i) - i g_j of a diagonal generator g.

    The dressed element ij is op_ij exp(alpha_ij t).  Written out in real
    and imaginary parts so that a decay rate that overflows to inf (tau_d
    below about 1e-308) gives -inf rather than NaN.
    """
    g = np.asarray(generator_diagonal, dtype=complex)
    return (g.imag[:, None] + g.imag[None, :]) + 1j * (g.real[:, None] - g.real[None, :])


def heisenberg_dress(op: np.ndarray, generator_diagonal: np.ndarray, t: float) -> np.ndarray:
    """Bi-orthogonal dressing exp(i H0^dag t) op exp(-i H0 t), diagonal H0.

    The exponent is formed from the real and imaginary parts of the table
    separately, with decay rates floored at -max / max(|t|, 1): a rate that
    overflowed to -inf then gives exp(rate t) = 0 for t > 0 and the bare
    operator at t = 0, rather than NaN.
    """
    alpha = _exponents(generator_diagonal)
    rate = np.maximum(alpha.real, -np.finfo(float).max / max(abs(t), 1.0))
    return np.asarray(op, dtype=complex) * np.exp(rate * t + 1j * alpha.imag * t)


def dressed_operator(spec: DressedOperatorSpec, t: float) -> np.ndarray:
    return heisenberg_dress(spec.schroedinger_matrix(), spec.generator_diagonal(), t)


def _embed_generator(spec: DressedOperatorSpec, two_mode: bool) -> np.ndarray:
    """Generator diagonal of spec on the working space (9 levels at 3*n1+n2 when two_mode)."""
    g = spec.generator_diagonal()
    if not two_mode:
        return g
    return np.repeat(g, 3) if spec.mode == 1 else np.tile(g, 3)


@functools.cache
def _product_triples(a_key: tuple[str, int], b_key: tuple[str, int]) -> tuple[np.ndarray, ...]:
    """(i, j, k, 2 a_ij b_jk) over the triples with a_ij b_jk != 0, read-only.

    Keys are (which, mode).  The Schroedinger matrices do not depend on
    tau_d, so each ordered pair is tabled once; only these triples
    contribute to the product.
    """
    two_mode = a_key[1] != b_key[1]
    ops = []
    for which, mode in (a_key, b_key):
        op = _ladder(which)
        if two_mode:
            eye = np.eye(3, dtype=complex)
            op = np.kron(op, eye) if mode == 1 else np.kron(eye, op)
        ops.append(op)
    op_a, op_b = ops
    i, j, k = np.nonzero(op_a[:, :, None] * op_b[None, :, :])
    table = (i, j, k, 2.0 * op_a[i, j] * op_b[j, k])
    for a in table:
        a.setflags(write=False)
    return table


def _phi1(x: np.ndarray) -> np.ndarray:
    """(e^x - 1) / x, and 1 at x = 0."""
    zero = x == 0
    return np.where(zero, 1.0, np.expm1(x) / np.where(zero, 1.0, x))


# 1/(k + l + 2)!: the Taylor coefficient of y1^k y2^l in exp[0, y1, y2].
_TAYLOR = np.array([[1.0 / math.factorial(k + l + 2) for l in range(19)] for k in range(19)])


def _exp_divided_difference(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """exp[0, x1, x2] = int_0^1 ds e^(x1 s) int_0^s du e^((x2 - x1) u), elementwise.

    For real nodes x1, x2 <= 0.  With m = min(x1, x2) and q = max(x1, x2)
    it is (e^q phi1(m - q) - phi1(q)) / m: the divisor is the widest gap
    between the three nodes, so the difference above it loses at most a
    factor of about 4 once m < -1, and equal nodes need no branch of their
    own.  For m >= -1 the Taylor series sum_(k,l) y1^k y2^l / (k + l + 2)!
    is used; 19 powers of each node reach double precision.
    """
    m, q = np.minimum(x1, x2), np.maximum(x1, x2)
    near = m >= -1.0
    m_far, q_far = np.where(near, -1.0, m), np.where(near, -1.0, q)
    far = (np.exp(q_far) * _phi1(m_far - q_far) - _phi1(q_far)) / m_far
    powers = np.arange(19)
    y1 = np.where(near, x1, 0.0)[:, None] ** powers
    y2 = np.where(near, x2, 0.0)[:, None] ** powers
    return np.where(near, ((y1 @ _TAYLOR) * y2).sum(axis=1), far)


def time_averaged_product(a: DressedOperatorSpec, b: DressedOperatorSpec, tau: float) -> np.ndarray:
    """Time-averaged ordered product of two dressed operators over [0, tau].

    (2/tau^2) int_0^tau dt' A(t') int_0^t' dt'' B(t''), in closed form.
    The dressed elements are A_ij(t) = a_ij exp(alpha_ij t) and
    B_jk(t) = b_jk exp(beta_jk t) with real alpha, beta <= 0 (pure decay),
    so element ik is 2 sum_j a_ij b_jk exp[0, alpha_ij tau, (alpha_ij +
    beta_jk) tau], a divided difference of exp (the (0, 2) entry of the
    exponential of a 3x3 bidiagonal matrix; C. F. Van Loan, IEEE TAC 23,
    395 (1978)).  Same-fiber products act on the 3-level ladder,
    cross-fiber products on the 9-dimensional two-mode space.
    """
    (out,) = _time_averaged_products([(a, b)], tau)
    return out


def _time_averaged_products(pairs, tau: float) -> list[np.ndarray]:
    """:func:`time_averaged_product` of each (a, b) in pairs.

    The divided differences of all pairs are taken in one call, so a batch
    costs little more than a single product.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    terms = []
    for a, b in pairs:
        two_mode = a.mode != b.mode
        if not two_mode and a.tau_d != b.tau_d:
            raise ValueError("same-fiber operators must share tau_d")
        i, j, k, coef = _product_triples((a.which, a.mode), (b.which, b.mode))
        decay_a, decay_b = _embed_generator(a, two_mode).imag, _embed_generator(b, two_mode).imag
        with np.errstate(over="ignore"):  # a rate that overflows to -inf is floored below
            if two_mode:
                decay_a = decay_b = decay_a + decay_b  # full two-fiber generator dresses both operators
            # alpha_ij and beta_jk, the real parts of the _exponents tables, at the triples only.
            terms.append((decay_a.size, i, k, coef, decay_a[i] + decay_a[j], decay_b[j] + decay_b[k]))
    sizes, i, k, coef, alpha, beta = zip(*terms)
    # Nodes are floored at -max/4 so that no sum of two overflows; e^x and
    # phi1(x) are both below 1e-307 there.
    floor = -np.finfo(float).max / 4 / max(tau, 1.0)
    x1 = tau * np.maximum(np.concatenate(alpha), floor)
    x2 = x1 + tau * np.maximum(np.concatenate(beta), floor)
    values = np.concatenate(coef) * _exp_divided_difference(x1, x2)
    outs = []
    for size, ii, kk, v in zip(sizes, i, k, np.split(values, np.cumsum([c.size for c in coef])[:-1])):
        out = np.zeros((size, size), dtype=complex)
        np.add.at(out, (ii, kk), v)
        outs.append(out)
    return outs


ALLOWED_TWO_MODE_INDICES = (0, 1, 3, 4)  # (0,0), (0,1), (1,0), (1,1) at 3*n1+n2


@dataclass(frozen=True)
class AnticommutatorReport:
    """Deviations of the time-averaged algebra from fermionic relations."""

    anticommutator: np.ndarray  # averaged {A, A^dag} on one fiber, 3x3
    anticommutator_deviation: float  # max |{A,A^dag} - 1| on span{|0>, |1>}
    cross_commutator: np.ndarray  # averaged [A_1, A_2^dag] on the allowed subspace
    cross_commutator_deviation: float
    tau_d: float
    tau: float


def anticommutator_report(tau_d: float, tau: float) -> AnticommutatorReport:
    """Check the fermionic algebra of the time-averaged dressed operators.

    On one fiber, {A, A^dag} averaged over tau deviates from the identity on
    the allowed span {|0>, |1>} only through the re-emission amplitude on
    |1>, which shrinks quadratically in tau_d/tau.  Across fibers the
    averaged commutator [A_1, A_2^dag] vanishes on the allowed (at most
    singly occupied) subspace: different guides host distinct fermion
    species, so interchanging them brings no exchange sign.  Every average
    is exact (see :func:`time_averaged_product`), down to tau_d -> 0.
    """
    if not tau_d < tau:
        raise ValueError("requires tau_d < tau")
    ann = DressedOperatorSpec("annihilation", 1, tau_d)
    cre = DressedOperatorSpec("creation", 1, tau_d)
    cre2 = DressedOperatorSpec("creation", 2, tau_d)
    ann_cre, cre_ann, ann_cre2, cre2_ann = _time_averaged_products(
        [(ann, cre), (cre, ann), (ann, cre2), (cre2, ann)], tau
    )
    anti = ann_cre + cre_ann
    deviation = float(np.max(np.abs(anti[:2, :2] - np.eye(2))))
    idx = list(ALLOWED_TWO_MODE_INDICES)
    cross = (ann_cre2 - cre2_ann)[np.ix_(idx, idx)]
    return AnticommutatorReport(
        anticommutator=anti,
        anticommutator_deviation=deviation,
        cross_commutator=cross,
        cross_commutator_deviation=float(np.max(np.abs(cross))),
        tau_d=tau_d,
        tau=tau,
    )
