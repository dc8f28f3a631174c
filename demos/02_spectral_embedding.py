"""The degree-normalized spectral embedding and its invariants.

Vertex u maps to the first k eigenvector coordinates of the normalized
Laplacian divided by sqrt(d_u). Treating that image as n points weighted by
degree gives a k-means instance whose degree-weighted Gram matrix is exactly
the identity, and whose geometry mirrors the cluster structure: well-separated
cliques land on well-separated points.
"""

import os
import tempfile

import numpy as np

from spectralpart import (LaplacianOps, exact_embedding, gen_ring_of_cliques,
                          normalized_weighted_pointset, write_embedding)

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

pts = normalized_weighted_pointset(emb)
print("weighted point set: %d points, total weight %d (= 2m = %d)"
      % (pts.n, int(pts.weights.sum()), 2 * g.m))

# Each planted block collapses to a tight clump in embedding space.
for i in range(3):
    block = emb.coords[planted.labels == i]
    center = block.mean(axis=0)
    print("block %d: coordinate spread %.2e around its center" % (
        i, np.abs(block - center).max()))

path = os.path.join(tempfile.gettempdir(), "ring_embedding.txt")
write_embedding(emb, path)
print("\nembedding exported to", path,
      "(header + one 'u d_u coords...' line per vertex)")
