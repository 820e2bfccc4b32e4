"""Two-qubit encoding against measurement-type gate failures.

A logical qubit spread over two photons survives the measurement of either
physical qubit: the measured qubit is replaced with a known superposition
and a corrective CNOT restores the pair.  A logical CNOT therefore uses two
physical CNOTs (control halves q1, q2 against the shared target half q1').
If a physical CNOT fails with probability p, each failure measures two
qubits and triggers two corrective CNOTs, each failing with probability p;
a failed correction is terminal within the encoding level.  To leading
order the logical failure probability is 4 p^2, so the scheme improves
things exactly when p < 1/4, and concatenating levels squares the gain.

Only the classical failure/success event algebra is tracked here -- no
quantum state, since the threshold argument is purely combinatorial.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThresholdReport:
    analytic_p_logical: float
    exact_tree_p_logical: float
    mc_estimate: float
    mc_stderr: float
    trials: int
    seed: int | tuple[int, ...]


def analytic_logical_failure(p: float) -> float:
    """Leading-order logical failure 4 p^2; fixed point at p = 1/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p > 0.25:
        warnings.warn("4p^2 is a small-p expansion; p > 1/4 is above threshold", stacklevel=2)
    return 4.0 * p * p


def exact_tree_failure(p: float) -> float:
    """Exhaustive event-tree probability, keeping every (1-p) factor.

    Each physical CNOT is one stage: it fails with p, and a failed stage
    causes a logical failure unless both corrective CNOTs succeed, so a
    stage is fatal with f = p (1 - (1-p)^2).  Two independent stages give
    1 - (1 - f)^2.  Agrees with 4 p^2 up to O(p^3).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    f = p * (1.0 - (1.0 - p) ** 2)
    return 1.0 - (1.0 - f) ** 2


# Rows of draws per chunk: the stream is the same as one (trials, 6) array,
# but memory stays bounded whatever the trial count.
CHUNK_ROWS = 2**16


def monte_carlo_logical_failure(p: float, trials: int, seed: int | tuple[int, ...]) -> ThresholdReport:
    """Sample the event tree with a PCG64 generator seeded by ``seed``.

    Stage 1: the first physical CNOT fails with probability p; on failure
    the two corrective CNOTs each fail with probability p and either one is
    a terminal logical failure.  Stage 2 repeats the structure for the
    second physical CNOT.  Draws come in chunks of ``CHUNK_ROWS`` trials.
    ``seed`` is an int or a tuple of ints (the entropy of
    ``np.random.default_rng``).  Same seed, same report, bit for bit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    failures = 0
    for start in range(0, trials, CHUNK_ROWS):
        draws = rng.random((min(CHUNK_ROWS, trials - start), 6))
        fail1 = draws[:, 0] < p
        stage1_fatal = fail1 & ((draws[:, 1] < p) | (draws[:, 2] < p))
        fail2 = draws[:, 3] < p
        stage2_fatal = fail2 & ((draws[:, 4] < p) | (draws[:, 5] < p))
        failures += int(np.count_nonzero(stage1_fatal | stage2_fatal))
    estimate = failures / trials
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    return ThresholdReport(
        analytic_p_logical=4.0 * p * p,
        exact_tree_p_logical=exact_tree_failure(p),
        mc_estimate=estimate,
        mc_stderr=stderr,
        trials=trials,
        seed=seed,
    )


def concatenate(p0: float, levels: int) -> list[float]:
    """Iterate p -> 4 p^2; decreasing iff p0 < 1/4, frozen at exactly 1/4."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out = []
    p = p0
    for _ in range(levels):
        p = 4.0 * p * p
        out.append(p)
    return out


def threshold_sweep(p_values, trials: int, seed: int) -> list[dict]:
    """Rows of analytic / exact-tree / Monte Carlo failure per grid point.

    ``below_threshold`` records the sign of P_logical - P_physical for the
    analytic column, which flips at p = 1/4.  Row i draws from its own
    generator seeded by the pair (seed, i), so rows are independent of one
    another and of every other seed's rows, and a rerun is identical.  The
    ``seed`` column holds the base seed.
    """
    values = list(p_values)
    if not values:
        raise ValueError("grid must be nonempty")
    rows = []
    for i, p in enumerate(values):
        report = monte_carlo_logical_failure(p, trials, (seed, i))
        analytic = report.analytic_p_logical
        rows.append(
            {
                "p": float(p),
                "analytic": analytic,
                "exact_tree": report.exact_tree_p_logical,
                "mc_estimate": report.mc_estimate,
                "mc_stderr": report.mc_stderr,
                "trials": trials,
                "seed": seed,
                "below_threshold": analytic < p,
            }
        )
    return rows
