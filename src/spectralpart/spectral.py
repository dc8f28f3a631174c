"""Normalized-Laplacian operators and spectral embeddings.

The embedding maps vertex u to the first k eigenvector coordinates divided by
sqrt(d_u); an Embedding is the k-means instance of those n points weighted by
degree (weights stand in for the usual "d_u duplicated copies" view, which
costs the same under weighted k-means and O(n) instead of O(m) memory).

One spectrum stage, ``spectrum``, computes the k+1 lowest eigenpairs of the
normalized Laplacian from the largest ones of I + D^{-1/2} A D^{-1/2}; every
eigen-consumer reads it. Two embedding routes are built on top: the exact
embedding takes the k lowest of those eigenvectors, and the power iteration
on I + D^{-1/2} A D^{-1/2}, with a QR after every matvec, approximates the
same subspace using only matvecs. Both run on one LaplacianOps, which builds
the graph's CSR, in numpy while their work stays within NUMPY_MAX_WORK (about
a scipy import's cost): spectrum tries a numpy block Krylov-Schur solver (or,
for tiny graphs, a dense solve) and past the budget runs ARPACK on the
operator's scipy form; the power iteration continues on spectrum's operator,
on its scipy form once its known matvec count exceeds the budget. scipy is
imported only there, so importing the package loads only numpy.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, GapError, InputError, NumericError
from .graph import Graph
from .kmeans import WeightedPoints
from .linalg import (BRUTEFORCE_MAX_N, ORTHONORMALITY_TOL, RESIDUAL_RTOL,
                     EigenSystem, _fix_signs, gaussian_matrix, rng_stream, sym_eig)

#: A QR diagonal entry below this fraction of the column scale means lost
#: rank: a collapsed power-iteration block, or a block Krylov expansion column
#: that adds no new direction.
_RANK_COLLAPSE_RTOL = 1e-12
#: Work given to the numpy operators before scipy takes over, in adjacency
#: entries gathered by the numpy matvec (about 2.4 ns each on a 2-core Xeon),
#: plus _SWEEP_WEIGHT per basis entry a block Krylov step sweeps: measured to
#: take about as long as importing scipy, whose CSR matvec is about 3x faster.
NUMPY_MAX_WORK = 10**8
#: Most power-iteration steps power_embedding runs: about 60 s at the 0.57 ms
#: a k = 8 step takes on a 1200-vertex SBM with 31,560 adjacency entries, and
#: about 5 s on a 10-vertex graph (50 us a step; 2-core x86).
POWER_MAX_STEPS = 100_000
#: Column cap of the block Krylov basis; a thick restart keeps the top half.
_KRYLOV_BASIS = 64
#: Cost of one basis entry in a block Krylov step (cross products, Ritz
#: vectors, residuals, Gram-Schmidt), in gathered adjacency entries.
_SWEEP_WEIGHT = 8


class LaplacianOps:
    """Matvec access to I - N and I + N for N = D^{-1/2} A D^{-1/2}.

    The two operators are exchangeable through apply_laplacian(x) +
    apply_shifted(x) = 2x and are both symmetric. The operator builds the
    graph's CSR adjacency, kept writeable: u's sorted neighbors fill
    ``_indices`` from ``_starts[u]`` on, d_u of them. Products run in numpy,
    a column at a time by a gather (several times slower through a read-only
    index array) and a segment sum, or on scipy after ``on_scipy()``.
    """

    def __init__(self, graph: Graph):
        n, edges = graph.n, graph.edges
        self.graph = graph
        self._inv_sqrt_d = 1.0 / np.sqrt(graph.degrees.astype(float))
        self._adj = None
        # Arc keys src * n + dst of both directions, sorted: the CSR order.
        arcs = np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])
        arcs.sort()
        self._indices = np.remainder(arcs, n, out=arcs)
        self._starts = np.cumsum(graph.degrees) - graph.degrees

    def on_scipy(self) -> LaplacianOps:
        """This operator on a scipy CSR over the same index array, or self if
        on one: a matvec about 3x faster, after a 0.35 s import (2-core Xeon)."""
        if self._adj is not None:
            return self
        from scipy.sparse import csr_array

        ops = copy.copy(self)
        n, nnz = self.graph.n, len(self._indices)
        ops._adj = csr_array((np.ones(nnz), self._indices, np.append(self._starts, nnz)),
                             shape=(n, n))
        return ops

    def _adj_times(self, y: np.ndarray) -> np.ndarray:
        if self._adj is not None:
            return self._adj @ y
        if y.ndim == 1:
            # Every row is nonempty (minimum degree 1), as reduceat needs.
            return np.add.reduceat(np.take(y, self._indices), self._starts)
        return np.stack([self._adj_times(col) for col in np.ascontiguousarray(y.T)], axis=1)

    def _norm_adj(self, x: np.ndarray) -> np.ndarray:
        scale = self._inv_sqrt_d if x.ndim == 1 else self._inv_sqrt_d[:, None]
        return scale * self._adj_times(scale * x)

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


def _freeze_embedding(basis: np.ndarray, ops: LaplacianOps) -> Embedding:
    coords = basis * ops._inv_sqrt_d[:, None]
    weights = ops.graph.degrees.astype(float)
    for arr in (basis, coords, weights):
        arr.flags.writeable = False
    return Embedding(coords=coords, weights=weights, basis=basis)


def _expansion(basis: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Orthonormal columns for what ``block`` adds to span(basis): two passes
    of classical Gram-Schmidt against the basis, each followed by a QR; a
    column left with no reliable new direction after the first is dropped."""
    block = block / np.linalg.norm(block, axis=0)
    for drop in (True, False):
        block = block - basis @ (basis.T @ block)
        block, r = np.linalg.qr(block)
        if drop:
            block = block[:, np.abs(np.diag(r)) > _RANK_COLLAPSE_RTOL]
    return block


def _block_krylov(ops: LaplacianOps, pairs: int):
    """The ``pairs`` largest eigenpairs of I + N on the numpy ``ops``: (ops,
    theta ascending, vectors), or None when filling one basis, a column per
    step, would not fit NUMPY_MAX_WORK, when the budget is spent, or when the
    basis stops growing.

    Block Krylov-Schur, i.e. block Davidson with no preconditioner. The start
    block holds ``pairs`` Gaussian columns from ``rng_stream(0, "spectral",
    "spectrum")``, so a multiple eigenvalue is seen up to multiplicity
    ``pairs``. Each step adds the orthonormalized residuals of the Ritz pairs
    not yet converged, at most the n - size that R^n has room for, and extends
    the projected matrix by their products; a basis at its column cap restarts
    to its top half of Ritz vectors. Done when every residual is at most
    RESIDUAL_RTOL / 100. Small eigengaps (long paths and cycles) can take tens
    of thousands of columns; the budget hands those to ARPACK after about a
    scipy import's worth of work.
    """
    n, nnz = ops.graph.n, 2 * ops.graph.m
    cap = min(n, max(_KRYLOV_BASIS, 2 * pairs))
    if cap * (nnz + _SWEEP_WEIGHT * n * cap) > NUMPY_MAX_WORK:
        return None
    # The basis V and its image (I + N)V fill the leading columns of two
    # preallocated arrays; a restart may leave them up to pairs over the cap.
    basis, image = (np.empty((n, cap + pairs), order="F") for _ in range(2))
    proj = np.empty((cap + pairs, cap + pairs))
    new = _expansion(basis[:, :0], rng_stream(0, "spectral", "spectrum")
                     .standard_normal((n, pairs)))
    size = work = 0
    while True:
        new_image = ops.apply_shifted(new)
        grown = size + new.shape[1]
        work += new.shape[1] * nnz + _SWEEP_WEIGHT * n * grown
        proj[:size, size:grown] = basis[:, :size].T @ new_image
        proj[size:grown, size:grown] = new.T @ new_image
        basis[:, size:grown], image[:, size:grown], size = new, new_image, grown
        theta, rot = np.linalg.eigh(proj[:size, :size], UPLO="U")
        ritz = basis[:, :size] @ rot[:, -pairs:]
        resid = image[:, :size] @ rot[:, -pairs:] - ritz * theta[-pairs:]
        open_ = np.linalg.norm(resid, axis=0) > RESIDUAL_RTOL / 100
        if not open_.any():
            return ops, theta[-pairs:], ritz
        if work > NUMPY_MAX_WORK:
            return None
        if size + open_.sum() > cap:
            keep = rot[:, -max(cap // 2, pairs):]
            basis[:, :keep.shape[1]] = basis[:, :size] @ keep
            image[:, :keep.shape[1]] = image[:, :size] @ keep
            size = keep.shape[1]
            proj[:size, :size] = np.diag(theta[-size:])
        new = _expansion(basis[:, :size], resid[:, open_])[:, :n - size]
        if new.shape[1] == 0:
            return None


def _arpack(ops: LaplacianOps, pairs: int):
    """The ``pairs`` largest eigenpairs of I + N on ``ops.on_scipy()`` from
    ARPACK's Lanczos solver (``eigsh``, ``which="LA"``, ``tol=0``), started
    from ``rng_stream(0, "spectral", "spectrum")``: (ops, theta, vectors)."""
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    ops, n = ops.on_scipy(), ops.graph.n
    shifted = LinearOperator((n, n), matvec=ops.apply_shifted,
                             matmat=ops.apply_shifted, dtype=float)
    v0 = rng_stream(0, "spectral", "spectrum").standard_normal(n)
    try:
        return (ops,) + eigsh(shifted, k=pairs, which="LA", tol=0, v0=v0)
    except ArpackError as exc:
        raise NumericError("sparse eigensolve failed: %s" % exc) from exc


def spectrum(g: Graph, k: int) -> EigenSystem:
    """The min(k+1, n) lowest eigenpairs of the normalized Laplacian I - N.

    An iterative solver finds the largest eigenvalues theta of I + N through
    LaplacianOps matvecs, and lambda = 2 - theta: _block_krylov on numpy
    while its work stays within NUMPY_MAX_WORK (so these graphs load no
    scipy), else ARPACK on its scipy form. Both start from the fixed stream
    ``rng_stream(0, "spectral", "spectrum")``, so the result is deterministic
    per graph. Where ARPACK cannot run (k+1 >= n-1), and at n <=
    BRUTEFORCE_MAX_N, sym_eig solves the dense I - N instead. Either way
    values are ascending, vectors follow the sym_eig sign rule, and every
    pair must pass ||(I - N)v - lambda v|| <= RESIDUAL_RTOL with columns
    orthonormal to ORTHONORMALITY_TOL, else NumericError. ``ops`` is the
    operator the solve ended on: the numpy one or its scipy form, ARPACK's.
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
        ops, theta, vectors = _block_krylov(ops, pairs) or _arpack(ops, pairs)
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
    return EigenSystem(values=values, vectors=vectors, ops=ops)


def exact_embedding(g: Graph, k: int) -> tuple[Embedding, EigenSystem]:
    """Embedding from the k lowest eigenvectors, plus the spectrum() it came from.

    Within-eigenspace bases are fixed by spectrum's deterministic start vector
    and sign rule; downstream consumers compare projectors or costs, which
    are invariant to that choice.
    """
    eig = spectrum(g, k)
    basis = eig.vectors[:, :k].copy()
    return _freeze_embedding(basis, eig.ops), eig


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
    # Logs summed: eps * delta can underflow to 0, and 8nk / (eps delta) overflow.
    p = math.ceil((math.log(8.0 * n * k) - math.log(eps) - math.log(delta))
                  / math.log(1.0 / gamma))
    return max(int(p), 1)


def power_embedding(eig: EigenSystem, k: int, steps: int, seed: int) -> Embedding:
    """Approximate embedding: p = steps matvecs of I + N on a Gaussian block.

    Subspace iteration: the operator power is never materialized, and the
    block is re-orthonormalized by a QR after every application, so its
    columns cannot all drift toward the top eigenvector. A diagonal entry of
    R below _RANK_COLLAPSE_RTOL times the largest one means the block lost
    rank, and raises NumericError; more than POWER_MAX_STEPS steps raise
    CapacityError before the first matvec. ``eig`` is the graph's spectrum():
    the matvecs run on its operator, eig.ops, or on eig.ops.on_scipy() when
    their steps * k * 2m gathered entries exceed NUMPY_MAX_WORK. Runtime
    O(m k p + n k^2 p). Deterministic for fixed (graph, k, steps, seed).
    """
    if eig.ops is None:
        raise InputError("power_embedding needs a spectrum() result, with its operator")
    ops, g = eig.ops, eig.ops.graph
    if k < 1 or k > g.n:
        raise InputError("k must be in [1, n]")
    if steps < 1:
        raise InputError("power iteration needs at least 1 step")
    if steps > POWER_MAX_STEPS:
        raise CapacityError("power iteration needs %d steps, more than the %d allowed"
                            % (steps, POWER_MAX_STEPS))
    if steps * k * 2 * g.m > NUMPY_MAX_WORK:
        ops = ops.on_scipy()
    block = gaussian_matrix(g.n, k, seed)
    for _ in range(steps):
        block, r = np.linalg.qr(ops.apply_shifted(block))
        diag = np.abs(np.diag(r))
        if diag.min() <= _RANK_COLLAPSE_RTOL * diag.max():
            raise NumericError(
                "rank collapse in power iteration (|R_jj| from %.3e to %.3e); "
                "rerun with a new seed" % (diag.min(), diag.max()))
    return _freeze_embedding(block, ops)


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
