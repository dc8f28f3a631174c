"""Approximating the embedding with sparse matvecs only.

Repeatedly applying I + D^{-1/2} A D^{-1/2} to a random Gaussian block and
re-orthonormalizing it (a QR per step) converges to the span of the k lowest
Laplacian eigenvectors at rate (2 - lambda_{k+1}) / (2 - lambda_k) per step.
The step formula picks p so the projector error is below a requested eps with
high probability; the demo traces the actual error as p grows.
"""

import numpy as np

from spectralpart import (exact_embedding, gen_ring_of_cliques,
                          power_embedding, projection_distance,
                          required_power_steps)

g, _ = gen_ring_of_cliques(3, 20, 1, seed=3)
exact, eig = exact_embedding(g, 3)
lam_k, lam_k1 = float(eig.values[2]), float(eig.values[3])
gamma = (2 - lam_k1) / (2 - lam_k)
print("n=%d, lambda_3=%.4f lambda_4=%.4f, convergence ratio gamma=%.3f"
      % (g.n, lam_k, lam_k1, gamma))

eps, delta = 0.01, 0.1
p_needed = required_power_steps(g.n, 3, eps, delta, lam_k, lam_k1)
print("steps for eps=%.2g, delta=%.2g: p = %d" % (eps, delta, p_needed))

print("\n p   mean projector error over 10 seeds")
for p in (1, 2, 4, 8, 16, p_needed, 32):
    errs = [projection_distance(exact, power_embedding(eig, 3, p, s))
            for s in range(10)]
    marker = "  <- required p" if p == p_needed else ""
    print("%3d  %.3e%s" % (p, np.mean(errs), marker))

a = power_embedding(eig, 3, p_needed, 0)
b = power_embedding(eig, 3, p_needed, 0)
print("\nsame seed, same result, bit for bit:",
      np.array_equal(a.coords, b.coords))
