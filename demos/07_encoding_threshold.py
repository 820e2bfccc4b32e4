"""Living with imperfect Zeno gates: the two-qubit encoding threshold.

A weak Zeno effect occasionally lets a photon pair get absorbed, which
measures both qubits involved.  Spreading each logical qubit over two
photons makes that recoverable: the measured qubit is replaced and fixed
with a corrective CNOT.  A logical CNOT then fails with ~4 p^2 instead of
p, so the encoding pays off for p < 1/4 and concatenating levels squares
the gain.  The exhaustive event tree and a seeded Monte Carlo agree on the
exact failure probability.
"""

from zenogate import analytic_logical_failure, concatenate, threshold_sweep

# Row i draws from its own generator, seeded by the pair (1234, i).
print("     p     4p^2      exact tree   MC (10^5 trials)  stderr")
for row in threshold_sweep((0.05, 0.1, 0.2, 0.25, 0.3), trials=10**5, seed=1234):
    print(
        f"  {row['p']:5.2f}   {row['analytic']:8.5f}   {row['exact_tree']:9.6f}   "
        f"{row['mc_estimate']:9.6f}       {row['mc_stderr']:.1e}"
    )

print()
print("threshold behavior of the analytic recursion p -> 4p^2:")
for p0 in (0.2, 0.25, 0.3):
    levels = concatenate(p0, 4)
    trend = "falls" if levels[-1] < p0 else ("flat" if levels[-1] == p0 else "grows")
    pretty = ", ".join(f"{p:.4g}" for p in levels)
    print(f"  p0 = {p0}: [{pretty}]  -> {trend}")

print()
print(f"fixed point: 4 * (1/4)^2 = {analytic_logical_failure(0.25)}")
