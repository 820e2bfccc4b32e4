"""Two-qubit encoding against measurement-type gate failures.

A logical qubit spread over two photons survives the measurement of either
physical qubit: the measured qubit is replaced with a known superposition
and a corrective CNOT restores the pair.  A logical CNOT therefore uses two
physical CNOTs (control halves q1, q2 against the shared target half q1').
If a physical CNOT fails with probability p, each failure measures two
qubits and triggers two corrective CNOTs, each failing with probability p;
a failed correction is terminal within the encoding level.  To leading
order the logical failure probability is 4 p^2, below p when p < 1/4, and
concatenating levels squares the gain.  Two thresholds follow:

* 1/4 for the leading-order map p -> 4 p^2 (``analytic_logical_failure``,
  ``concatenate`` and the ``below_threshold`` flag of ``threshold_sweep``);
* p* = 0.328956393296 for the exact event tree P(p) = f (2 - f),
  f = p^2 (2 - p) (``exact_tree_failure``), the root of P(p) = p in (1/4, 1/2).

Between the two the models disagree about whether the encoding helps: at
p = 0.3 the leading order gives 0.36 and the exact tree 0.2826.  The
paper's abstract alone cannot tell whether its 1/4 is meant to leading
order.

Only the classical failure/success event algebra is tracked here -- no
quantum state, since the threshold argument is purely combinatorial.  The
Monte Carlo check draws event counts, not trials: at each stage the number
of failed physical CNOTs among the trials still alive, then the number of
those whose first and second corrections fail, each a binomial draw with
probability p.  Its cost does not depend on the trial count, and it never
uses the closed-form tree probability it is checked against.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

# Largest trial count: the int64 limit of ``Generator.binomial``.
MAX_TRIALS = 2**63 - 1

# Two-sided 95% normal quantile of the Wilson score interval.
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class ThresholdReport:
    analytic_p_logical: float
    exact_tree_p_logical: float
    mc_estimate: float
    mc_stderr: float
    mc_low: float
    mc_high: float
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
    stage is fatal with f = p (1 - (1-p)^2) = p^2 (2 - p).  Two independent
    stages give 1 - (1 - f)^2 = f (2 - f).  The product forms keep full
    relative precision at small p, where the differences from 1 cancel.
    Agrees with 4 p^2 up to O(p^3).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    f = p * p * (2.0 - p)
    return f * (2.0 - f)


def _check_trials(trials) -> int:
    if isinstance(trials, bool):
        raise ValueError("trials must be an integer, not a bool")
    try:
        trials = operator.index(trials)
    except TypeError:
        raise ValueError(f"trials must be an integer, got {trials!r}") from None
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in [1, 2**63 - 1], got {trials}")
    return trials


def _wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for ``failures`` out of ``trials``.

    Computed for the smaller of the two counts m and reflected, with the
    lower end written as m^2 / (n (m + z^2/2 + z s)) so that it has no
    cancellation: a count of 0 gives a lower end of exactly 0 (and a count
    of n an upper end of exactly 1) with a nonzero width.
    """
    m = min(failures, trials - failures)
    z = WILSON_Z
    spread = z * math.sqrt(m * (trials - m) / trials + z * z / 4.0)
    low = m * m / (trials * (m + z * z / 2.0 + spread))
    high = (m + z * z / 2.0 + spread) / (trials + z * z)
    return (low, high) if m == failures else (1.0 - high, 1.0 - low)


def monte_carlo_logical_failure(p: float, trials: int, seed: int | tuple[int, ...]) -> ThresholdReport:
    """Sample the event tree's failure count with a PCG64 generator seeded by ``seed``.

    Stage 1 draws the number of failed first physical CNOTs among the
    ``trials``, f1 ~ Binomial(trials, p); of those, c1 ~ Binomial(f1, p)
    have a failed first correction and c2 ~ Binomial(f1 - c1, p) a failed
    second one, and c1 + c2 trials fail.  Stage 2 repeats this for the
    second physical CNOT on the trials still alive.  The total is
    Binomial(trials, P_tree) in distribution, drawn with six binomial draws
    whatever ``trials`` is.  ``trials`` is an integer in [1, 2**63 - 1].
    ``mc_low`` and ``mc_high`` bound the estimate by the 95% Wilson score
    interval, which stays nonzero in width at a count of 0 or ``trials``.
    ``seed`` is an int or a tuple of ints (the entropy of
    ``np.random.default_rng``).  Same seed, same report, bit for bit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    trials = _check_trials(trials)
    rng = np.random.default_rng(seed)
    failures = 0
    for _stage in range(2):
        failed = rng.binomial(trials - failures, p)
        first = rng.binomial(failed, p)
        second = rng.binomial(failed - first, p)
        failures += first + second
    estimate = failures / trials
    stderr = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    low, high = _wilson_interval(failures, trials)
    return ThresholdReport(
        analytic_p_logical=4.0 * p * p,
        exact_tree_p_logical=exact_tree_failure(p),
        mc_estimate=estimate,
        mc_stderr=stderr,
        mc_low=low,
        mc_high=high,
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
    analytic column, the leading-order 4 p^2, which flips at p = 1/4; the
    ``exact_tree`` column stays below p up to p* = 0.328956393296 (see the
    module docstring), so the flag is the leading-order verdict on every
    row.  ``mc_estimate`` samples the exact tree.  Row i draws from its own
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
                "mc_low": report.mc_low,
                "mc_high": report.mc_high,
                "trials": report.trials,
                "seed": seed,
                "below_threshold": analytic < p,
            }
        )
    return rows
