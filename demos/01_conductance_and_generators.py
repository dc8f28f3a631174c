"""Graphs, conductance arithmetic, and the synthetic generators.

A cluster is a vertex set with few outside connections relative to its total
degree; conductance(S) = cut(S) / volume(S) makes that precise and is exact
rational here. This walkthrough builds the classic two-triangles-and-a-bridge
graph by hand, reproduces it with the ring-of-cliques generator, samples a
planted-partition random graph, and shows how partition matching recovers a
relabelling.
"""

import numpy as np

from spectralpart import (Graph, Partition, block_conductances, conductance, cut,
                          gen_ring_of_cliques, gen_sbm, match_partitions,
                          sym_diff_volume, volume)

# Two triangles joined by one bridge edge.
g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
left = [0, 1, 2]
print("two triangles + bridge: n=%d m=%d" % (g.n, g.m))
print("  volume(left)      =", volume(g, left))
print("  cut(left)         =", cut(g, left))
print("  conductance(left) =", conductance(g, left), "(exact rational)")

planted = Partition(2, [0, 0, 0, 1, 1, 1])
phis = block_conductances(g, planted)
print("  max block conductance :", float(max(phis)))
print("  mean block conductance:", float(sum(phis) / planted.k))

# The same instance from the generator (k cliques in a ring, seeded bridges).
rg, rp = gen_ring_of_cliques(2, 3, 1, seed=0)
print("\nring_of_cliques(2, 3, 1): n=%d m=%d, phi per block = %s" % (
    rg.n, rg.m, [str(conductance(rg, rp.labels == i)) for i in range(2)]))

# A planted-partition random graph; the partition survives as ground truth.
sg, sp = gen_sbm([30, 30, 30], p_in=0.5, p_out=0.02, seed=7)
print("\nsbm([30,30,30], 0.5, 0.02): n=%d m=%d, Phi(planted)=%.4f" % (
    sg.n, sg.m, max(block_conductances(sg, sp))))

# Relabel the blocks and let the matcher recover the permutation.
relabel = np.array([2, 0, 1])
shuffled = Partition(3, relabel[sp.labels])
pi = match_partitions(sg, shuffled, sp)
residual = sum(sym_diff_volume(sg, shuffled.labels == i, sp.labels == pi[i])
               for i in range(3))
print("matching a relabelled copy: permutation=%s, residual volume=%d"
      % (pi.tolist(), residual))
