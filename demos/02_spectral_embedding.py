"""The degree-normalized spectral embedding and its invariants.

Vertex u maps to the first k eigenvector coordinates of the normalized
Laplacian divided by sqrt(d_u). Treating that image as n points weighted by
degree gives a k-means instance whose degree-weighted Gram matrix is exactly
the identity, and whose geometry mirrors the cluster structure: well-separated
cliques land on well-separated points. The Embedding object is that instance:
it goes straight into the k-means routines.
"""

import numpy as np

from spectralpart import (LaplacianOps, best_of_orss, exact_embedding,
                          gen_ring_of_cliques)

g, planted = gen_ring_of_cliques(3, 20, 1, seed=1)
ops = LaplacianOps(g)

x = np.random.default_rng(0).standard_normal(g.n)
print("operator identity: |laplacian(x) + shifted(x) - 2x| =",
      float(np.abs(ops.apply_laplacian(x) + ops.apply_shifted(x) - 2 * x).max()))

# One sparse eigensolve yields the k+1 = 4 lowest eigenpairs; the embedding
# uses the first k, and lambda_{k+1} measures the gap.
emb, eig = exact_embedding(g, 3)
print("\nfour lowest eigenvalues:", np.round(eig.values, 6))
print("spectral gap lambda_4 / lambda_3 = %.1f" % (eig.values[3] / eig.values[2]))

gram = (emb.weights[:, None] * emb.coords).T @ emb.coords
print("degree-weighted Gram deviation from identity: %.2e"
      % np.abs(gram - np.eye(3)).max())

print("weighted point set: %d points, total weight %d (= 2m = %d)"
      % (emb.n, int(emb.weights.sum()), 2 * g.m))

# Each planted block collapses to a tight clump in embedding space.
for i in range(3):
    block = emb.coords[planted.labels == i]
    center = block.mean(axis=0)
    print("block %d: coordinate spread %.2e around its center" % (
        i, np.abs(block - center).max()))

clustering = best_of_orss(emb, 3, seed=0)
pairs = set(zip(planted.labels.tolist(), clustering.labels.tolist()))
print("\nk-means on the embedding: cost %.2e, planted blocks recovered: %s"
      % (clustering.cost, len(pairs) == 3))
