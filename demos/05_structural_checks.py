"""The structural check suite on a strong-gap instance.

Every inequality behind the clustering guarantees is measured and reported:
indicator-versus-projection closeness (always applicable), eigenvector
closeness, near-orthonormality of the inverse coefficient rows, predicted
center cost, and the cost floor for merging below k clusters. Bounds whose
gap precondition fails are reported as not applicable rather than failures.
"""

from spectralpart import gen_ring_of_cliques, run_theorem_checks

g, planted = gen_ring_of_cliques(3, 50, 1, seed=2)
# The suite solves the exact embedding itself and returns its spectrum.
eig, gap, records = run_theorem_checks(g, planted, seed=0)
print("instance: 3 cliques of 50 in a ring, n=%d m=%d" % (g.n, g.m))
print("gap summary: lambda_4=%.4f avg-phi=%.2e psi=%.0f (reference partition)"
      % (eig.values[3], gap.rho_avr_proxy, gap.psi))

print("\n%-34s %12s %12s  %-6s %s" % ("check", "lhs", "rhs", "applies", "pass"))
for r in records:
    print("%-34s %12.3e %12.3e  %-6s %s" % (
        r.name, r.lhs, r.rhs, "yes" if r.hypothesis_met else "no",
        "ok" if r.passed else "FAIL"))

applicable = [r for r in records if r.hypothesis_met]
print("\n%d records, %d applicable, all applicable pass: %s" % (
    len(records), len(applicable), all(r.passed for r in applicable)))
