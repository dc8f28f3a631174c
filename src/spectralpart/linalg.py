"""Dense symmetric eigendecomposition, seeded Gaussian sampling, and the
split tables of the subset dynamic program.

Numerics are delegated to LAPACK through numpy; this module pins down the
deterministic conventions everything downstream relies on: ascending
eigenvalue order, a fixed eigenvector sign rule, and counter-based random
streams that are replayable per (module, purpose). Every exact oracle
reads its layered partition DP over all 2^n subsets.

Tolerances used across the package live here as constants.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

#: Absolute tolerance for accepting a matrix as symmetric.
SYMMETRY_TOL = 1e-12
#: Column orthonormality tolerance for eigenvector matrices.
ORTHONORMALITY_TOL = 1e-9
#: Relative residual tolerance (scaled by the Frobenius norm of the input).
RESIDUAL_RTOL = 1e-8
#: Largest ground set (vertices or points) the subset-DP brute force accepts.
BRUTEFORCE_MAX_N = 14


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
    entry (lowest index on ties) is positive. ``ops`` is the LaplacianOps
    that spectrum ended on, for power_embedding to reuse; None from sym_eig.
    """

    values: np.ndarray
    vectors: np.ndarray
    ops: object = None

    @property
    def n(self) -> int:
        return len(self.values)


def _fix_signs(vectors: np.ndarray):
    """Flip columns so the largest-|entry| (first on ties) is positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs


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


@functools.lru_cache(maxsize=1)
def _splits(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every split of a nonempty subset S of n elements (vertices or points)
    into the block T that holds S's lowest element and the rest S - T,
    grouped by the size c of S.

    Entry c - 1 is ``(s, t)``: the subsets of size c in ascending order, and
    an int32 matrix whose row i lists the 2^(c-1) blocks T of s[i], the
    lowest element joined by each subset of the other c - 1 (a bit j of the
    column index takes the j-th of them). (3^n - 1) / 2 splits in all.
    Cached read-only for the last n, so the exact oracles share one build.
    """
    masks = np.arange(1 << n, dtype=np.int32)
    size = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    out = []
    for c in range(1, n + 1):
        s = masks[size == c]
        low = s & -s
        others = np.nonzero(((s ^ low)[:, None] >> np.arange(n)) & 1)[1]
        others = others.astype(np.int32).reshape(len(s), c - 1)
        col = np.arange(1 << (c - 1), dtype=np.int32)
        t = np.repeat(low[:, None], len(col), axis=1)
        for j in range(c - 1):
            t |= ((col >> j) & 1) << others[:, j:j + 1]
        s.flags.writeable = t.flags.writeable = False
        out.append((s, t))
    return tuple(out)


def _min_over_splits(splits, value) -> np.ndarray:
    """Per subset S, the minimum of ``value(t, r)`` over S's splits (t, r);
    infinity for the empty set."""
    out = np.full(1 << len(splits), np.inf)
    for s, t in splits:
        out[s] = value(t, s[:, None] ^ t).min(axis=1)
    return out


def _partition_layers(splits, block: np.ndarray, k: int, empty: float,
                      combine) -> list[np.ndarray]:
    """``layers[j][S]``, j = 0..k: the least fold by the ufunc ``combine``
    (np.add, np.maximum) of the ``block`` scores (infinite at the empty set)
    over the partitions of subset S into j nonempty blocks. Layer 0 is
    ``empty`` at the empty set, layer 1 is ``block`` itself, and each further
    layer is one min-over-splits pass: k - 1 passes for k >= 1."""
    def fold(t, r):
        out = block[t]  # a fresh gather, so combine writes into it
        return combine(out, prev[r], out=out)

    layers = [np.full(len(block), np.inf), block]
    layers[0][0] = empty
    for _ in range(2, k + 1):
        prev = layers[-1]
        layers.append(_min_over_splits(splits, fold))
    return layers


def _split_blocks(splits, s: int) -> np.ndarray:
    """The blocks T of subset s's splits: its row of ``splits``."""
    subsets, blocks = splits[s.bit_count() - 1]
    return blocks[np.searchsorted(subsets, s)]
