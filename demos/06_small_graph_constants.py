"""Exact small-graph constants from tables over all vertex subsets.

For n <= 14 the order-k constants are computed exactly: the best max
conductance over disjoint k-tuples (sets may be omitted), over full k-way
partitions, and the minimal average conductance among optimal partitions.
When the tuple optimum beats every partition, the inter-connection constant
measures how much completing the tuple must cost, with an explicit witness.
"""

from fractions import Fraction

from spectralpart import (Graph, bruteforce_partition_constants, conductance,
                          inter_connection)

# Two triangles + bridge: tuples and partitions agree (degenerate case).
g1 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
c1 = bruteforce_partition_constants(g1, 2)
print("two triangles + bridge, k=2:")
print("  rho=%s rho_hat=%s rho_avr=%s" % (c1.rho_exact, c1.rho_hat_exact,
                                          c1.rho_avr_exact))
print("  inter-connection degenerate:", inter_connection(c1).degenerate)

# Three triangles + a hub vertex: the best 3 disjoint sets are the triangles
# (1/7 each), but any 3-way partition must absorb the hub and pays 1/5.
tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)]
g2 = Graph(10, tri + [(0, 9), (3, 9), (6, 9)])
c2 = bruteforce_partition_constants(g2, 3)
print("\nthree triangles + hub, k=3:")
print("  rho=%s < rho_hat=%s  (completion is forced to pay)"
      % (c2.rho_exact, c2.rho_hat_exact))

inter = inter_connection(c2)
print("  rho_p=%s kappa=%s" % (inter.rho_p_exact, Fraction(inter.kappa)))
print("  witness partition:", inter.witness_partition.labels.tolist())
print("  witness tuple:    ", inter.witness_tuple.tolist(),
      "(-1 marks the uncovered hub)")
kappa = 1 / (1 - inter.rho_p_exact)
for i in range(3):
    phi_p = conductance(g2, inter.witness_partition.labels == i)
    phi_z = conductance(g2, inter.witness_tuple == i)
    print("  block %d: phi(partition)=%s <= kappa * phi(tuple)=%s"
          % (i, phi_p, kappa * phi_z))
