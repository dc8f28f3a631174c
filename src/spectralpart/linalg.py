"""Dense symmetric eigendecomposition, thin SVD, and seeded Gaussian sampling.

Numerics are delegated to LAPACK through numpy; this module pins down the
deterministic conventions everything downstream relies on: ascending
eigenvalue order, a fixed eigenvector sign rule, descending singular values,
and counter-based random streams that are replayable per (module, purpose).

Tolerances used across the package live here as constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

#: Absolute tolerance for accepting a matrix as symmetric.
SYMMETRY_TOL = 1e-12
#: Column orthonormality tolerance for eigenvector/singular-vector matrices.
ORTHONORMALITY_TOL = 1e-9
#: Relative residual tolerance (scaled by the Frobenius norm of the input).
RESIDUAL_RTOL = 1e-8


def rng_stream(seed: int, *labels: str) -> np.random.Generator:
    """Return the dedicated random sub-stream for ``(seed, labels)``.

    The stream is a counter-based Philox generator keyed by hashing the seed
    together with the label path (e.g. ``rng_stream(7, "kmeans", "seeding")``),
    so each (module, purpose) pair owns an independent stream and every draw
    is replayable from the run seed alone.
    """
    tag = "%d/%s" % (seed, "/".join(labels))
    digest = hashlib.sha256(tag.encode()).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def gaussian_matrix(n: int, k: int, seed: int) -> np.ndarray:
    """n-by-k matrix of i.i.d. standard normal entries, deterministic per seed.

    Entries come from numpy's ziggurat transform applied to the counter-based
    uniform stream ``rng_stream(seed, "linalg", "gaussian")``; the result is
    bit-identical across runs for a fixed seed.
    """
    if n < 1 or k < 1:
        raise InputError("gaussian_matrix requires n >= 1 and k >= 1")
    return rng_stream(seed, "linalg", "gaussian").standard_normal((n, k))


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a symmetric matrix: all of them from sym_eig, the lowest
    min(k+1, n) of the normalized Laplacian from spectral.spectrum.

    ``values`` is ascending; column ``j`` of ``vectors`` is the unit
    eigenvector paired with ``values[j]``, sign-fixed so its largest-magnitude
    entry (lowest index on ties) is positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)


def _fix_signs(vectors: np.ndarray, companions: np.ndarray | None = None):
    """Flip columns so the largest-|entry| (first on ties) is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    if companions is not None:
        companions *= signs


def sym_eig(m: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix with fixed conventions.

    Raises InputError if ``m`` is not square/symmetric (to SYMMETRY_TOL) or
    contains non-finite entries, and NumericError if LAPACK fails to converge
    or the residual check ||m v - lambda v|| <= RESIDUAL_RTOL * ||m||_F fails.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("sym_eig requires a square matrix")
    if not np.isfinite(m).all():
        raise InputError("sym_eig requires finite entries")
    if m.size and np.abs(m - m.T).max() > SYMMETRY_TOL:
        raise InputError("matrix is not symmetric to %g" % SYMMETRY_TOL)
    sym = (m + m.T) / 2.0
    try:
        values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigendecomposition did not converge: %s" % exc) from exc
    _fix_signs(vectors)
    scale = np.linalg.norm(sym, "fro")
    residual = np.linalg.norm(sym @ vectors - vectors * values, axis=0)
    if scale > 0 and residual.max() > RESIDUAL_RTOL * scale:
        raise NumericError(
            "eigenpair residual %.3e exceeds %.3e" % (residual.max(), RESIDUAL_RTOL * scale)
        )
    values = values.copy()
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values=values, vectors=vectors)


def thin_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``m = U diag(s) V^T`` of an n-by-k matrix with n >= k.

    Singular values are descending (trailing zeros allowed for rank-deficient
    input); U columns follow the sym_eig sign convention, with V flipped to
    match so the product is preserved.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InputError("thin_svd requires a matrix")
    n, k = m.shape
    if n < k:
        raise InputError("thin_svd requires n >= k (got %d x %d)" % (n, k))
    if not np.isfinite(m).all():
        raise InputError("thin_svd requires finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("SVD did not converge: %s" % exc) from exc
    v = vh.T.copy()
    _fix_signs(u, companions=v)
    return u, s, v
