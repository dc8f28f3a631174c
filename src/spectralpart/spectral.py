"""Normalized-Laplacian operators and spectral embeddings.

The embedding maps vertex u to the first k eigenvector coordinates divided by
sqrt(d_u); an Embedding is the k-means instance of those n points weighted by
degree (weights stand in for the usual "d_u duplicated copies" view, which
costs the same under weighted k-means and O(n) instead of O(m) memory).

One spectrum stage, ``spectrum``, computes the k+1 lowest eigenpairs of the
normalized Laplacian with the sparse Lanczos solver (ARPACK) on
I + D^{-1/2} A D^{-1/2}; every eigen-consumer reads it. Two embedding routes
are built on top: the exact embedding takes the k lowest of those
eigenvectors, and the power iteration on I + D^{-1/2} A D^{-1/2}, with a QR
after every matvec, approximates the same subspace using only matvecs.
scipy is imported only for graphs above BRUTEFORCE_MAX_N vertices (at or below
it both run on a dense adjacency and spectrum solves densely), and only inside
the code that uses it, so importing the package loads only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapError, InputError, NumericError
from .graph import Graph
from .kmeans import WeightedPoints
from .linalg import (BRUTEFORCE_MAX_N, ORTHONORMALITY_TOL, RESIDUAL_RTOL,
                     EigenSystem, _fix_signs, gaussian_matrix, rng_stream, sym_eig)

#: A power-iteration block whose QR diagonal falls below this fraction of its
#: largest entry has lost rank.
_RANK_COLLAPSE_RTOL = 1e-12


class LaplacianOps:
    """Matvec access to I - N and I + N for N = D^{-1/2} A D^{-1/2}.

    The two operators are exchangeable through apply_laplacian(x) +
    apply_shifted(x) = 2x and are both symmetric. The adjacency is a dense
    array for n <= BRUTEFORCE_MAX_N (no scipy import) and scipy CSR above.
    """

    def __init__(self, graph: Graph):
        n = graph.n
        self.graph = graph
        self._inv_sqrt_d = 1.0 / np.sqrt(graph.degrees.astype(float))
        if n <= BRUTEFORCE_MAX_N:
            self._adj = np.zeros((n, n))
            self._adj[np.repeat(np.arange(n), graph.degrees), graph.indices] = 1.0
        else:
            from scipy.sparse import csr_array

            self._adj = csr_array(
                (np.ones(len(graph.indices)), graph.indices, graph.indptr), shape=(n, n))

    def _norm_adj(self, x: np.ndarray) -> np.ndarray:
        scale = self._inv_sqrt_d if x.ndim == 1 else self._inv_sqrt_d[:, None]
        return scale * (self._adj @ (scale * x))

    def apply_laplacian(self, x: np.ndarray) -> np.ndarray:
        """(I - N) x; positive semidefinite with spectrum in [0, 2]."""
        x = np.asarray(x, dtype=float)
        return x - self._norm_adj(x)

    def apply_shifted(self, x: np.ndarray) -> np.ndarray:
        """(I + N) x = (2I - laplacian) x; the power-iteration operator."""
        x = np.asarray(x, dtype=float)
        return x + self._norm_adj(x)


@dataclass(frozen=True)
class Embedding(WeightedPoints):
    """Per-vertex spectral coordinates as a degree-weighted k-means instance.

    ``basis`` holds the orthonormal columns (exact eigenvectors or the power
    method's final QR factor); ``coords`` is basis with row u divided by
    sqrt(d_u) (row u of coords is F(u)), and ``weights`` holds d_u; the Gram
    identity sum_u d_u F(u) F(u)^T = I_k holds for both routes.
    """

    basis: np.ndarray

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def _freeze_embedding(basis: np.ndarray, g: Graph) -> Embedding:
    inv_sqrt_d = 1.0 / np.sqrt(g.degrees.astype(float))
    coords = basis * inv_sqrt_d[:, None]
    weights = g.degrees.astype(float)
    for arr in (basis, coords, weights):
        arr.flags.writeable = False
    return Embedding(coords=coords, weights=weights, basis=basis)


def spectrum(g: Graph, k: int) -> EigenSystem:
    """The min(k+1, n) lowest eigenpairs of the normalized Laplacian I - N.

    ARPACK's Lanczos solver (``eigsh``, ``which="LA"``, ``tol=0``) finds the
    largest eigenvalues theta of I + N through LaplacianOps matvecs, and
    lambda = 2 - theta; the start vector comes from the fixed stream
    ``rng_stream(0, "spectral", "spectrum")``, so the result is deterministic
    per graph. Where ARPACK cannot run (k+1 >= n-1), and at n <=
    BRUTEFORCE_MAX_N (so small graphs load no scipy), sym_eig solves the dense
    I - N instead. Either way values are ascending, vectors follow the sym_eig
    sign rule, and every pair must pass ||(I - N)v - lambda v|| <= RESIDUAL_RTOL
    with columns orthonormal to ORTHONORMALITY_TOL, else NumericError.
    """
    if k < 1 or k > g.n:
        raise InputError("k must be in [1, n]")
    n = g.n
    pairs = min(k + 1, n)
    ops = LaplacianOps(g)
    if pairs >= n - 1 or n <= BRUTEFORCE_MAX_N:
        full = sym_eig(ops.apply_laplacian(np.eye(n)))
        values = full.values[:pairs].copy()
        vectors = full.vectors[:, :pairs].copy()
    else:
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

        shifted = LinearOperator((n, n), matvec=ops.apply_shifted,
                                 matmat=ops.apply_shifted, dtype=float)
        v0 = rng_stream(0, "spectral", "spectrum").standard_normal(n)
        try:
            theta, vectors = eigsh(shifted, k=pairs, which="LA", tol=0, v0=v0)
        except ArpackError as exc:
            raise NumericError("sparse eigensolve failed: %s" % exc) from exc
        order = np.argsort(-theta, kind="stable")
        values = 2.0 - theta[order]
        vectors = np.ascontiguousarray(vectors[:, order])
        _fix_signs(vectors)
    residual = np.linalg.norm(ops.apply_laplacian(vectors) - vectors * values, axis=0)
    if residual.max() > RESIDUAL_RTOL:
        raise NumericError("eigenpair residual %.3e exceeds %.3e"
                           % (residual.max(), RESIDUAL_RTOL))
    drift = np.abs(vectors.T @ vectors - np.eye(pairs)).max()
    if drift > ORTHONORMALITY_TOL:
        raise NumericError("eigenvectors off orthonormal by %.3e (tolerance %.3e)"
                           % (drift, ORTHONORMALITY_TOL))
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values=values, vectors=vectors)


def exact_embedding(g: Graph, k: int) -> tuple[Embedding, EigenSystem]:
    """Embedding from the k lowest eigenvectors, plus the spectrum() it came from.

    Within-eigenspace bases are fixed by spectrum's deterministic start vector
    and sign rule; downstream consumers compare projectors or costs, which
    are invariant to that choice.
    """
    eig = spectrum(g, k)
    basis = eig.vectors[:, :k].copy()
    return _freeze_embedding(basis, g), eig


def required_power_steps(n: int, k: int, eps: float, delta: float,
                         lambda_k: float, lambda_k1: float) -> int:
    """Step count guaranteeing a Frobenius projector error <= eps w.h.p.

    Evaluates ceil(ln(8nk / (eps delta)) / ln(1/gamma)) for the convergence
    ratio gamma = (2 - lambda_{k+1}) / (2 - lambda_k), clamped below at 1.
    spectrum certifies each eigenvalue only to within RESIDUAL_RTOL, so a gap
    lambda_{k+1} - lambda_k of at most 2 RESIDUAL_RTOL raises GapError.
    """
    if n < 1 or k < 1:
        raise InputError("n and k must be positive")
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise InputError("eps and delta must lie in (0, 1)")
    if lambda_k1 - lambda_k <= 2 * RESIDUAL_RTOL:
        raise GapError("no spectral gap: lambda_{k+1} - lambda_k = %.3g is within "
                       "eigensolver accuracy (%.3g)" % (lambda_k1 - lambda_k, 2 * RESIDUAL_RTOL))
    gamma = (2.0 - lambda_k1) / (2.0 - lambda_k)
    if gamma <= 0.0:
        return 1
    p = math.ceil(math.log(8.0 * n * k / (eps * delta)) / math.log(1.0 / gamma))
    return max(int(p), 1)


def power_embedding(g: Graph, k: int, steps: int, seed: int) -> Embedding:
    """Approximate embedding: p = steps matvecs of I + N on a Gaussian block.

    Subspace iteration: the operator power is never materialized, and the
    block is re-orthonormalized by a QR after every application, so its
    columns cannot all drift toward the top eigenvector. A diagonal entry of
    R below _RANK_COLLAPSE_RTOL times the largest one means the block lost
    rank, and raises NumericError. Runtime O(m k p + n k^2 p). Deterministic
    for fixed (graph, k, steps, seed).
    """
    if k < 1 or k > g.n:
        raise InputError("k must be in [1, n]")
    if steps < 1:
        raise InputError("power iteration needs at least 1 step")
    ops = LaplacianOps(g)
    block = gaussian_matrix(g.n, k, seed)
    for _ in range(steps):
        block, r = np.linalg.qr(ops.apply_shifted(block))
        diag = np.abs(np.diag(r))
        if diag.min() <= _RANK_COLLAPSE_RTOL * diag.max():
            raise NumericError(
                "rank collapse in power iteration (|R_jj| from %.3e to %.3e); "
                "rerun with a new seed" % (diag.min(), diag.max()))
    return _freeze_embedding(block, g)


def projection_distance(a, b) -> float:
    """Frobenius distance between the projectors of two orthonormal bases.

    Accepts Embeddings (their ``basis``) or plain orthonormal matrices. The
    distance equals sqrt(2k - 2 ||A^T B||_F^2); it is evaluated through the
    residual identity ||A - B B^T A||_F^2 + ||B - A A^T B||_F^2, which avoids
    both n-by-n intermediates and the catastrophic cancellation of the direct
    form when the subspaces (nearly) coincide.
    """
    mat_a = a.basis if isinstance(a, Embedding) else np.asarray(a, dtype=float)
    mat_b = b.basis if isinstance(b, Embedding) else np.asarray(b, dtype=float)
    if mat_a.shape != mat_b.shape:
        raise InputError("shape mismatch %s vs %s" % (mat_a.shape, mat_b.shape))
    resid_a = mat_a - mat_b @ (mat_b.T @ mat_a)
    resid_b = mat_b - mat_a @ (mat_a.T @ mat_b)
    return math.sqrt(float(np.sum(resid_a ** 2)) + float(np.sum(resid_b ** 2)))
