import math

import mpmath
import numpy as np
import pytest

from zenogate.encoding import (
    MAX_TRIALS,
    analytic_logical_failure,
    concatenate,
    exact_tree_failure,
    monte_carlo_logical_failure,
    threshold_sweep,
)


def brute_force_tree(p):
    """Independent oracle: enumerate every branch of the failure tree.

    Outcomes per stage: the physical CNOT succeeds, or it fails and each of
    the two corrective CNOTs independently succeeds/fails (any corrective
    failure is terminal).  Sum the probability of every leaf labelled as a
    logical failure.
    """
    stage_fail = 0.0
    for c1 in (False, True):
        for c2 in (False, True):
            prob = (p if c1 else 1 - p) * (p if c2 else 1 - p)
            if c1 or c2:
                stage_fail += p * prob
    total = 0.0
    total += stage_fail  # stage 1 fatal
    total += (1 - stage_fail) * stage_fail  # stage 1 survived, stage 2 fatal
    return total


def test_analytic_examples():
    assert analytic_logical_failure(0.1) == pytest.approx(0.04, abs=1e-15)
    assert analytic_logical_failure(0.25) == pytest.approx(0.25, abs=1e-15)
    assert analytic_logical_failure(0.0) == 0.0


def test_analytic_warns_above_threshold():
    with pytest.warns(UserWarning):
        analytic_logical_failure(0.3)


def test_exact_tree_matches_brute_force_enumeration():
    for p in np.linspace(0.0, 1.0, 21):
        assert exact_tree_failure(p) == pytest.approx(brute_force_tree(p), abs=1e-14)


def test_exact_tree_leading_order_is_4p_squared():
    # |tree - 4 p^2| = 2 p^3 + (2 p^2 - p^3)^2 <= (2 + 4 p) p^3; report the
    # fitted constant alongside.
    worst = 0.0
    for p in np.linspace(1e-3, 0.5, 40):
        diff = abs(exact_tree_failure(p) - 4 * p * p)
        assert diff <= (2 + 4 * p) * p**3 + 1e-15
        worst = max(worst, diff / p**3)
    print(f"fitted cubic-coefficient bound C = {worst:.3f}")
    assert worst < 4.0


def test_exact_tree_endpoints():
    assert exact_tree_failure(0.0) == 0.0
    assert exact_tree_failure(1.0) == 1.0


def test_monte_carlo_matches_tree_probability():
    p = 0.1
    report = monte_carlo_logical_failure(p, trials=10**6, seed=20240817)
    expected = exact_tree_failure(p)
    assert abs(report.mc_estimate - expected) < 3 * report.mc_stderr
    assert report.analytic_p_logical == pytest.approx(0.04, abs=1e-15)


def test_monte_carlo_within_four_stderr_across_grid():
    for i, p in enumerate((0.05, 0.1, 0.2, 0.3)):
        report = monte_carlo_logical_failure(p, trials=10**5, seed=99 + i)
        assert abs(report.mc_estimate - exact_tree_failure(p)) < 4 * report.mc_stderr


def test_monte_carlo_degenerate_probabilities():
    zero = monte_carlo_logical_failure(0.0, trials=10**4, seed=1)
    assert zero.mc_estimate == 0.0
    one = monte_carlo_logical_failure(1.0, trials=10**4, seed=1)
    assert one.mc_estimate == 1.0


def test_monte_carlo_is_reproducible():
    a = monte_carlo_logical_failure(0.15, trials=10**5, seed=4242)
    b = monte_carlo_logical_failure(0.15, trials=10**5, seed=4242)
    assert a == b
    c = monte_carlo_logical_failure(0.15, trials=10**5, seed=4243)
    assert c.mc_estimate != a.mc_estimate


def test_stderr_formula():
    report = monte_carlo_logical_failure(0.1, trials=10**5, seed=7)
    expected = math.sqrt(report.mc_estimate * (1 - report.mc_estimate) / report.trials)
    assert report.mc_stderr == pytest.approx(expected, rel=1e-12)


def test_concatenate_examples():
    assert concatenate(0.1, 2) == pytest.approx([0.04, 0.0064], abs=1e-15)
    assert concatenate(0.25, 4) == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-12)
    rising = concatenate(0.3, 4)
    assert all(b > a for a, b in zip([0.3] + rising, rising))
    falling = concatenate(0.2, 4)
    assert all(b < a for a, b in zip([0.2] + falling, falling))


def test_threshold_sweep_sign_structure():
    rows = threshold_sweep([0.2, 0.25, 0.3], trials=1000, seed=3)
    assert rows[0]["analytic"] == pytest.approx(0.16, abs=1e-15)
    assert rows[0]["below_threshold"] is True
    assert rows[1]["analytic"] == pytest.approx(0.25, abs=1e-15)
    assert rows[1]["below_threshold"] is False  # exact fixed point
    assert rows[2]["analytic"] == pytest.approx(0.36, abs=1e-15)
    assert rows[2]["below_threshold"] is False


def test_threshold_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        threshold_sweep([], trials=10, seed=0)


def test_encoding_model_validation():
    # The per-CNOT failure probability must lie in [0, 1] in every entry point.
    for fn in (analytic_logical_failure, exact_tree_failure):
        fn(0.25)
        with pytest.raises(ValueError):
            fn(1.5)
    monte_carlo_logical_failure(0.25, 10, 0)
    with pytest.raises(ValueError):
        monte_carlo_logical_failure(1.5, 10, 0)


def test_threshold_rows_draw_independent_streams():
    # Row i draws from (seed, i): row 1 of seed 1 is not row 0 of seed 2,
    # as it was with seed + i, and a rerun repeats every row exactly.
    p = 0.3
    seed1 = threshold_sweep([p, p], trials=10**4, seed=1)
    seed2 = threshold_sweep([p, p], trials=10**4, seed=2)
    assert seed1[1]["mc_estimate"] != seed2[0]["mc_estimate"]
    assert seed1[0]["mc_estimate"] != seed1[1]["mc_estimate"]
    assert threshold_sweep([p, p], trials=10**4, seed=1) == seed1
    assert seed1[1]["mc_estimate"] == monte_carlo_logical_failure(p, 10**4, (1, 1)).mc_estimate
    assert [row["seed"] for row in seed1] == [1, 1]


def per_trial_failures(p, trials, seed):
    """Oracle sampler: six uniforms per trial, one row per trial of the tree.

    Columns 0-2 are stage 1 (physical CNOT, two corrections) and 3-5 are
    stage 2; a trial fails when a stage's CNOT and either correction fail.
    """
    draws = np.random.default_rng(seed).random((trials, 6))
    stage1 = (draws[:, 0] < p) & ((draws[:, 1] < p) | (draws[:, 2] < p))
    stage2 = (draws[:, 3] < p) & ((draws[:, 4] < p) | (draws[:, 5] < p))
    return int(np.count_nonzero(stage1 | stage2))


def test_event_counts_agree_with_per_trial_oracle():
    # Two independent estimates of the same probability: their difference
    # has variance 2 P (1 - P) / trials.
    trials = 2 * 10**5
    for i, p in enumerate((0.01, 0.1, 0.2, 0.25, 0.5, 0.9)):
        tree = exact_tree_failure(p)
        oracle = per_trial_failures(p, trials, 500 + i) / trials
        report = monte_carlo_logical_failure(p, trials, 600 + i)
        sigma = math.sqrt(2 * tree * (1 - tree) / trials)
        assert abs(report.mc_estimate - oracle) < 4 * sigma, (p, report.mc_estimate, oracle)


def test_event_counts_z_scores_over_seed_ensemble():
    trials, seeds = 10**5, 2000
    for p in (0.001, 0.05, 0.25):
        tree = exact_tree_failure(p)
        sigma = math.sqrt(tree * (1 - tree) / trials)
        estimates = np.array([monte_carlo_logical_failure(p, trials, (31, s)).mc_estimate for s in range(seeds)])
        z = (estimates - tree) / sigma
        assert abs(z.mean()) < 0.1, (p, z.mean())
        assert 0.9 <= z.std() <= 1.1, (p, z.std())


def test_largest_trial_count_gives_a_finite_estimate_near_the_tree():
    p = 0.1
    report = monte_carlo_logical_failure(p, MAX_TRIALS, 17)
    tree = exact_tree_failure(p)
    assert report.trials == 2**63 - 1
    assert math.isfinite(report.mc_estimate)
    assert abs(report.mc_estimate - tree) < 5 * math.sqrt(tree * (1 - tree) / MAX_TRIALS)
    assert report.mc_low <= report.mc_estimate <= report.mc_high


def test_trials_must_be_an_int_in_the_binomial_range():
    for bad in (1e5, 100000.5, True, False, "10", None, 0, -1, 2**63):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_logical_failure(0.1, bad, 0)
    assert monte_carlo_logical_failure(0.1, np.int64(1000), 0).trials == 1000
    with pytest.raises(ValueError, match="trials"):
        threshold_sweep([0.1], trials=2**63, seed=0)


def test_wilson_interval_ends():
    zero = monte_carlo_logical_failure(0.0, trials=10**4, seed=1)
    assert zero.mc_estimate == 0.0 and zero.mc_stderr == 0.0
    assert zero.mc_low == 0.0 and zero.mc_high > 0.0
    one = monte_carlo_logical_failure(1.0, trials=10**4, seed=1)
    assert one.mc_estimate == 1.0
    assert one.mc_high == 1.0 and one.mc_low < 1.0
    # Every end inside (0, 1) solves (k/n - q)^2 = z^2 q (1 - q) / n, for
    # counts below and above n/2 (P_tree(0.9) = 0.98).
    z = 1.959963984540054
    middle = [monte_carlo_logical_failure(p, trials=10**4, seed=2) for p in (0.1, 0.9)]
    for report in [zero, one] + middle:
        for q in (report.mc_low, report.mc_high):
            if 0.0 < q < 1.0:
                lhs = (report.mc_estimate - q) ** 2
                assert lhs == pytest.approx(z * z * q * (1 - q) / report.trials, rel=1e-9)


def test_wilson_interval_contains_estimate_on_readme_grid():
    for row in threshold_sweep((0.05, 0.1, 0.2, 0.25, 0.3), trials=10**5, seed=1):
        assert 0.0 <= row["mc_low"] < row["mc_estimate"] < row["mc_high"] <= 1.0


def test_exact_tree_against_mpmath_oracle():
    # The literal 1 - (1 - f)^2 loses about |log10 f| digits to cancellation,
    # 200 at p = 1e-100, so the oracle works at 450 digits.
    with mpmath.workdps(450):
        for p in np.logspace(-100, 0, 201):
            q = mpmath.mpf(float(p))
            f = q * (1 - (1 - q) ** 2)
            want = 1 - (1 - f) ** 2
            got = exact_tree_failure(float(p))
            assert abs(mpmath.mpf(got) - want) <= 1e-13 * want, (p, got, want)


def test_exact_tree_threshold_is_p_star_not_a_quarter():
    # exact_tree_failure(p) - p changes sign once on [0.3289, 0.3290]; bisect it in double.
    lo, hi = 0.3289, 0.3290
    assert exact_tree_failure(lo) < lo and exact_tree_failure(hi) > hi
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if exact_tree_failure(mid) < mid else (lo, mid)
    with mpmath.workdps(50):
        def gap(p):
            f = p * p * (2 - p)
            return f * (2 - f) - p

        root = mpmath.findroot(gap, mpmath.mpf("0.329"))
    assert abs(lo - root) <= 1e-15 * root
    assert f"{lo:.12f}" == "0.328956393296"  # the value the docstrings and demo 07 quote
    assert exact_tree_failure(0.3) < 0.3 < 4 * 0.3**2  # between 1/4 and p* the two models disagree
