"""Living with imperfect Zeno gates: the two-qubit encoding threshold.

A weak Zeno effect occasionally lets a photon pair get absorbed, which
measures both qubits involved.  Spreading each logical qubit over two
photons makes that recoverable: the measured qubit is replaced and fixed
with a corrective CNOT.  A logical CNOT then fails with ~4 p^2 instead of
p, so to leading order the encoding pays off for p < 1/4 and concatenating
levels squares the gain.  The exhaustive event tree and a seeded Monte
Carlo agree on the exact failure probability, which stays below p up to
p* = 0.328956393296: between 1/4 and p* the two thresholds disagree.
"""

from zenogate import analytic_logical_failure, concatenate, exact_tree_failure, threshold_sweep

P_STAR = 0.328956393296  # root of exact_tree_failure(p) = p in (1/4, 1/2)

# Row i draws from its own generator, seeded by the pair (1234, i).
print("     p     4p^2      exact tree   MC (10^5 trials)  stderr")
for row in threshold_sweep((0.05, 0.1, 0.2, 0.25, 0.3), trials=10**5, seed=1234):
    print(
        f"  {row['p']:5.2f}   {row['analytic']:8.5f}   {row['exact_tree']:9.6f}   "
        f"{row['mc_estimate']:9.6f}       {row['mc_stderr']:.1e}"
    )

print("  (4p^2 is below p for p < 1/4; the exact tree, which MC samples, for p < p* = 0.328956393296)")


def show_levels(levels, p0):
    trend = "falls" if levels[-1] < p0 else ("flat" if levels[-1] == p0 else "grows")
    pretty = ", ".join(f"{p:.4g}" for p in levels)
    print(f"  p0 = {p0}: [{pretty}]  -> {trend}")


print()
print("threshold behavior of the analytic recursion p -> 4p^2 (threshold 1/4):")
for p0 in (0.2, 0.25, 0.3):
    show_levels(concatenate(p0, 4), p0)

print()
print(f"the exact event tree iterated the same way (threshold p* = {P_STAR}):")
for p0 in (0.25, 0.3, 0.33):
    levels, p = [], p0
    for _ in range(4):
        p = exact_tree_failure(p)
        levels.append(p)
    show_levels(levels, p0)

print()
print(f"fixed points: 4 * (1/4)^2 = {analytic_logical_failure(0.25)}, "
      f"exact_tree_failure(p*) = {exact_tree_failure(P_STAR):.12f}")
