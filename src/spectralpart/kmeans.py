"""Degree-weighted k-means: cost, an exact subset-DP oracle, and a seeded
separation-aware heuristic (pairwise-cost seeding, a ball-restricted center
refinement, then Lloyd assignment to a fixed point).

Weighted points everywhere: a point of weight w is cost-equivalent to w
duplicated unit-weight copies, which is how degree-weighted graph embeddings
enter. Ties in assignment always go to the lowest center index, and every
random draw comes from a labelled sub-stream, so all routines are
deterministic functions of (input, seed).

Distances are defined by the per-center expression np.sum((x - c) ** 2,
axis=1); the restarts compute them with whole-array numpy calls (one GEMM
per assignment, with an exact recheck of near ties, and bincount means)
and reproduce that definition bit for bit. The point set holds the arrays
those calls read, made once when it is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateError, InputError, NumericError
from .linalg import BRUTEFORCE_MAX_N, _partition_layers, _split_blocks, _splits, rng_stream

#: Radius factor of the ball-restricted center refinement step.
BALL_RADIUS_FACTOR = 1.0 / 3.0
#: Default restarts of best_of_orss, cluster and verify --restarts, and estimates past brute force.
DEFAULT_RESTARTS = 20

_LLOYD_MAX_ITER = 100


@dataclass(frozen=True)
class WeightedPoints:
    """Finite coordinates with strictly positive weights, held read-only (a
    writeable input is copied). The point set also holds, made once, what
    every restart and Lloyd step reads: x^T for the distance GEMM (``xt``),
    _assign's rounding margin (``slack``, ``tie_rtol``), the rows [w; w x^T]
    the means sum (``wx``) and the seeding's first-center distribution."""

    coords: np.ndarray   # n x dim
    weights: np.ndarray  # n

    def __post_init__(self):
        for name in ("coords", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        coords, weights = self.coords, self.weights
        if coords.ndim != 2 or weights.ndim != 1 or coords.shape[0] != weights.shape[0]:
            raise InputError("coords must be n x dim and weights length n")
        if coords.shape[0] == 0:
            raise InputError("empty point set")
        if not np.isfinite(coords).all():
            raise InputError("coordinates must be finite")
        if not np.isfinite(weights).all() or np.any(weights <= 0):
            raise InputError("weights must be positive and finite")
        object.__setattr__(self, "xt", np.ascontiguousarray(coords.T))
        object.__setattr__(self, "tie_rtol", 16 * (coords.shape[1] + 2) * np.finfo(float).eps)
        object.__setattr__(self, "slack", self.tie_rtol * np.einsum("ij,ij->i", coords, coords)
                           + np.finfo(float).tiny)
        object.__setattr__(self, "wx", np.vstack([weights, weights * self.xt]))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @functools.cached_property
    def first_center(self) -> tuple[float, np.ndarray | None]:
        """(total, cdf) of the weights w_x (W ||x - mean||^2 + total spread)."""
        x, w = self.coords, self.weights
        total_w = w.sum()
        mean = (w[:, None] * x).sum(axis=0) / total_w
        d2_mean = _sq_dists(x, mean)
        spread = float((w * d2_mean).sum())
        probs = w * (total_w * d2_mean + spread)
        total = probs.sum()
        return total, (_cdf(probs, total) if total > 0 else None)


@dataclass(frozen=True)
class Clustering:
    """Assignment, centers, and the weighted cost they achieve.

    After a Lloyd step every center is the weighted mean of its cluster and
    the stored cost matches a recomputation to 1e-9.
    """

    labels: np.ndarray   # n, values in [0, k)
    centers: np.ndarray  # k x dim
    cost: float

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _cost(pts: WeightedPoints, labels: np.ndarray, centers: np.ndarray) -> float:
    diffs = pts.coords - centers.take(labels, axis=0)
    return float(np.sum(pts.weights * np.einsum("ij,ij->i", diffs, diffs)))


def cost(pts: WeightedPoints, clustering: Clustering) -> float:
    """Recompute sum_i sum_{x in cluster i} w_x ||x - c_i||^2."""
    return _cost(pts, clustering.labels, clustering.centers)


def _sq_dists(coords: np.ndarray, center: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """Exact squared distances np.sum((coords - center) ** 2, axis=1): the
    expression every label and seeding draw is defined by. ``buf``, shaped
    like coords, saves the allocation of the differences."""
    diff = np.subtract(coords, center, out=buf)
    return np.sum(np.square(diff, out=diff), axis=1)


def _cdf(probs: np.ndarray, total: float) -> np.ndarray:
    """The cumulative distribution Generator.choice(len(probs), p=probs /
    total) builds; drawing from it with _draw repeats choice's draw."""
    if not total < math.inf:
        raise NumericError("seeding weights overflow")
    cdf = np.cumsum(probs / total)
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray) -> int:
    return int(cdf.searchsorted(rng.random(), side="right"))


def _assign(pts: WeightedPoints, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels in O(n (k + d)) memory, equal to the argmin over
    centers c of the exact _sq_dists(x, c), exact ties to the lowest index.

    One GEMM estimates e_c(x) = |c|^2 - 2 c.x = |x - c|^2 - |x|^2 for every
    center at once. With u = 2^-53, g = (d + 2) u / (1 - (d + 2) u) and
    M = |x|^2 + max_c |c|^2, an estimate is off by at most 2 g M (a dot
    product in any summation order errs by at most g_d |a|.|b|; Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.5), and
    the exact expression by at most g |x - c|^2 <= 2 g M. So a point whose
    runner-up estimate trails its best by more than 8 g M has that same
    nearest center, alone, under the exact expression. The margin used,
    16 (d + 2) eps M + tiny (eps = 2u; the smallest normal covers
    underflow), is four times that; a point with a second center within the
    margin of its best, or with a non-finite estimate, is recomputed exactly.
    """
    k = centers.shape[0]
    est = (-2.0 * centers) @ pts.xt
    norms = np.einsum("ij,ij->i", centers, centers)
    est += norms[:, None]
    cutoff = est.min(axis=0) + pts.slack
    cutoff += pts.tie_rtol * norms.max()
    # Row 0 counts the centers within the margin, row 1 sums their indices:
    # for a point with one such center, that center's label.
    count, index = np.stack([np.ones(k), np.arange(k, dtype=float)]) @ (est <= cutoff)
    labels = index.astype(np.int64)
    recheck = np.flatnonzero((count != 1) | ~np.isfinite(cutoff))
    if recheck.size:
        near = pts.coords[recheck]
        labels[recheck] = np.argmin(np.column_stack([_sq_dists(near, c) for c in centers]),
                                    axis=1)
    return labels


def _weighted_means(wx: np.ndarray, labels: np.ndarray, k: int,
                    fallback: np.ndarray) -> np.ndarray:
    """Weighted cluster means from the rows of wx = [w; w x[:, 0]; ...]; an
    empty cluster keeps its fallback center.

    np.bincount adds each cluster's terms in index order, as a masked
    (w x)[mask].sum(axis=0) does for d >= 2. A masked w.sum() adds pairwise,
    so for non-integer weights (degree weights are integers, summed exactly)
    and for one-dimensional points a mean may differ from it in the last bit.
    """
    sums = np.column_stack([np.bincount(labels, weights=row, minlength=k) for row in wx])
    full = sums[:, 0] > 0
    centers = fallback.copy()
    centers[full] = sums[full, 1:] / sums[full, :1]
    return centers


def _recenter(pts: WeightedPoints, clustering: Clustering, labels: np.ndarray) -> Clustering:
    """The rest of a Lloyd step from its assignment ``labels``: empty-cluster
    repair, weighted means and cost."""
    k = clustering.k
    # Repairs never empty a cluster, so the empty ones are known up front.
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if empty.size:
        contrib = pts.weights * _sq_dists(pts.coords, clustering.centers[labels])
    for i in empty:
        counts = np.bincount(labels, minlength=k)
        candidates = np.flatnonzero((counts[labels] > 1) & (contrib > -np.inf))
        if candidates.size == 0:
            raise DegenerateError("cannot repair empty cluster %d" % i)
        j = candidates[np.argmax(contrib[candidates])]
        labels[j] = i
        contrib[j] = -np.inf
    centers = _weighted_means(pts.wx, labels, k, clustering.centers)
    return Clustering(labels=labels, centers=centers, cost=_cost(pts, labels, centers))


def lloyd_step(pts: WeightedPoints, clustering: Clustering) -> Clustering:
    """One assignment + recenter pass; cost never increases.

    Each point goes to its exactly nearest center (ties to the lowest index)
    and each center moves to its cluster's weighted mean. An emptied cluster
    is re-seeded at the point with the largest weighted distance contribution
    (next-largest for further empties, never draining a cluster to empty),
    keeping the step deterministic.
    """
    return _recenter(pts, clustering, _assign(pts, clustering.centers))


def _lloyd_to_fixpoint(pts: WeightedPoints, centers: np.ndarray) -> Clustering:
    # No labels and no cost yet: NaN compares false, so the first step is
    # always taken, and at most _LLOYD_MAX_ITER more follow it.
    current = Clustering(labels=np.full(pts.n, -1), centers=centers, cost=math.nan)
    for _ in range(_LLOYD_MAX_ITER + 1):
        labels = _assign(pts, current.centers)
        # Same labels, no empty cluster: the step would rebuild current exactly.
        if np.array_equal(labels, current.labels):
            return current
        nxt = _recenter(pts, current, labels)
        if nxt.cost >= current.cost - 1e-15:
            return current if current.cost <= nxt.cost else nxt
        current = nxt
    return current


def orss_kmeans(pts: WeightedPoints, k: int, seed: int) -> Clustering:
    """Seeded clustering for well-separated inputs.

    Seeding: the first center is drawn with probability proportional to
    w_x (W ||x - mean||^2 + total spread), i.e. the pairwise-cost rule that
    mixes distance-squared mass with a spread-proportional floor; each further
    center is drawn proportional to w_x times squared distance to the chosen
    set. Each draw is Generator.choice's, from the cumulative distribution.
    One ball-restricted refinement then recenters each seed on the points
    within a third of the distance to its nearest other seed, and a full
    Lloyd pass runs to a fixed point (it stops as soon as a step reassigns
    no point). Deterministic given seed. Raises DegenerateError when fewer
    than k points carry seeding weight, NumericError when that weight
    overflows.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if pts.n < k:
        raise InputError("need at least k points")
    rng = rng_stream(seed, "kmeans", "seeding")
    x, w = pts.coords, pts.weights

    total, cdf = pts.first_center
    if total <= 0:  # only on failure is it worth counting distinct points
        few = len(np.unique(x, axis=0)) < k
        raise DegenerateError("fewer than k distinct points" if few else "all points coincide")
    buf = np.empty_like(x)
    centers = [x[_draw(rng, cdf)]]
    cols = [_sq_dists(x, centers[0], buf)]  # reused by the ball refinement
    d2_near = cols[0]
    for _ in range(1, k):
        probs = w * d2_near
        total = probs.sum()
        if total <= 0:  # each point is on, or underflows to, a chosen center
            raise DegenerateError("fewer than k distinct points")
        centers.append(x[_draw(rng, _cdf(probs, total))])
        cols.append(_sq_dists(x, centers[-1], buf))
        d2_near = np.minimum(d2_near, cols[-1])
    centers = np.array(centers)

    if k > 1:
        gaps = np.sum((centers[:, None, :] - centers) ** 2, axis=2)
        np.fill_diagonal(gaps, np.inf)
        radius2 = (BALL_RADIUS_FACTOR ** 2) * gaps.min(axis=1)
        refined = centers.copy()
        for i in range(k):
            ball = np.flatnonzero(cols[i] <= radius2[i])
            if ball.size:
                bw = w.take(ball)
                refined[i] = (bw[:, None] * x.take(ball, axis=0)).sum(axis=0) / bw.sum()
        centers = refined

    return _lloyd_to_fixpoint(pts, centers)


def best_of_orss(pts: WeightedPoints, k: int, seed: int,
                 restarts: int = DEFAULT_RESTARTS) -> Clustering:
    """Lowest-cost clustering over seeded restarts (earliest wins ties).

    Restart i is orss_kmeans(pts, k, s_i) for the i-th sub-seed s_i of
    (seed, k); the restarts run one after another on the arrays the point
    set holds (x^T, the squared norms, w x, the first-center distribution),
    so memory stays O(n (k + d)).
    """
    if restarts < 1:
        raise InputError("restarts must be >= 1")
    sub = rng_stream(seed, "kmeans", "restarts", str(k)).integers(2 ** 62, size=restarts)
    best = None
    for s in sub:
        candidate = orss_kmeans(pts, k, int(s))
        if best is None or candidate.cost < best.cost:
            best = candidate
    return best


def optimal_cost_bruteforce(pts: WeightedPoints, k: int) -> tuple[float, Clustering]:
    """Exact optimal k-means cost by dynamic programming over point subsets.

    Supports n <= BRUTEFORCE_MAX_N (or k = 1 / k >= n in closed form). The
    constants' partition DP, k - 2 passes over the (3^n - 1) / 2 splits,
    scores a subset as one cluster by sq - |sum|^2 / w from its weight,
    weighted-sum and weighted-square-norm tables. The first minimizing split
    of each backtracking step gives the clusters in canonical first-use
    order; centers and cost are recomputed from them.
    """
    return _optimal_clusterings(pts, (k,))[0]


def _optimal_clusterings(pts: WeightedPoints, ks) -> list[tuple[float, Clustering]]:
    """optimal_cost_bruteforce(pts, k) for each k of ``ks``, backtracked
    from one set of DP layers."""
    n, dim, w, x = pts.n, pts.dim, pts.weights, pts.coords
    if min(ks) < 1:
        raise InputError("k must be >= 1")
    top = max((k for k in ks if k < n), default=1)
    if top > 1:
        if n > BRUTEFORCE_MAX_N:
            raise CapacityError("brute force supports n <= %d (got %d)"
                                % (BRUTEFORCE_MAX_N, n))
        # Columns w, w x, w |x|^2 summed over each subset, one point at a time.
        point_rows = np.column_stack([w, w[:, None] * x, w * np.einsum("ij,ij->i", x, x)])
        tab = np.zeros((1 << n, dim + 2))
        for v in range(n):
            tab[1 << v:2 << v] = tab[:1 << v] + point_rows[v]
        sums = tab[1:, 1:-1]
        block = np.full(1 << n, np.inf)
        block[1:] = tab[1:, -1] - np.einsum("ij,ij->i", sums, sums) / tab[1:, 0]
        splits = _splits(n)
        part = _partition_layers(splits, block, top - 1, 0.0, np.add)

    out = []
    for k in ks:
        labels = np.zeros(n, dtype=np.int64)
        if k >= n:
            labels, centers = np.arange(n, dtype=np.int64), x.copy()
        elif k == 1:
            centers = ((w[:, None] * x).sum(axis=0) / w.sum())[None, :]
        else:
            rest = (1 << n) - 1
            for b in range(k):
                t = _split_blocks(splits, rest)
                t = int(t[np.argmin(block[t] + part[k - 1 - b][rest ^ t])])
                labels[((t >> np.arange(n)) & 1).astype(bool)] = b
                rest ^= t
            centers = _weighted_means(pts.wx, labels, k, np.zeros((k, dim)))
        c = _cost(pts, labels, centers)
        out.append((c, Clustering(labels=labels, centers=centers, cost=c)))
    return out


@dataclass(frozen=True)
class SeparationEstimate:
    """Estimated optimal-cost drop from k-1 to k clusters.

    ``method`` is "bruteforce" (exact, n <= BRUTEFORCE_MAX_N) or "restarts"
    (best of DEFAULT_RESTARTS heuristic upper bounds for both costs, so the
    ratio is only an estimate). A 0/0 ratio (delta_km1 <= 0) reads 0.
    """

    ratio: float
    delta_k: float
    delta_km1: float
    method: str


def separation_ratio(pts: WeightedPoints, k: int, seed: int) -> SeparationEstimate:
    """Estimate Delta_k / Delta_{k-1} with the method recorded alongside."""
    if k < 2:
        raise InputError("separation needs k >= 2")
    if pts.n <= BRUTEFORCE_MAX_N:
        method = "bruteforce"
        (delta_k, _), (delta_km1, _) = _optimal_clusterings(pts, (k, k - 1))
    else:
        method = "restarts"
        delta_k = best_of_orss(pts, k, seed).cost
        if k - 1 == 1:
            delta_km1, _ = optimal_cost_bruteforce(pts, 1)
        else:
            delta_km1 = best_of_orss(pts, k - 1, seed).cost
    ratio = delta_k / delta_km1 if delta_km1 > 0.0 else 0.0
    return SeparationEstimate(ratio=ratio, delta_k=delta_k, delta_km1=delta_km1, method=method)
