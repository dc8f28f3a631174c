"""Degree-weighted k-means: cost, an exact subset-DP oracle, and a seeded
separation-aware heuristic (pairwise-cost seeding, a ball-restricted center
refinement, then Lloyd assignment to a fixed point).

Weighted points everywhere: a point of weight w is cost-equivalent to w
duplicated unit-weight copies, which is how degree-weighted graph embeddings
enter. Ties in assignment always go to the lowest center index, and every
random draw comes from a labelled sub-stream, so all routines are
deterministic functions of (input, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateError, InputError
from .linalg import BRUTEFORCE_MAX_N, _partition_layers, _split_blocks, _splits, rng_stream

#: Radius factor of the ball-restricted center refinement step.
BALL_RADIUS_FACTOR = 1.0 / 3.0
#: Restart count used by estimate routines when brute force is unavailable.
DEFAULT_RESTARTS = 20

_LLOYD_MAX_ITER = 100


@dataclass(frozen=True)
class WeightedPoints:
    """Finite coordinates with strictly positive weights."""

    coords: np.ndarray   # n x dim
    weights: np.ndarray  # n

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if coords.ndim != 2 or weights.ndim != 1 or coords.shape[0] != weights.shape[0]:
            raise InputError("coords must be n x dim and weights length n")
        if coords.shape[0] == 0:
            raise InputError("empty point set")
        if not np.isfinite(coords).all():
            raise InputError("coordinates must be finite")
        if not np.isfinite(weights).all() or np.any(weights <= 0):
            raise InputError("weights must be positive and finite")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


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
    diffs = pts.coords - centers[labels]
    return float(np.sum(pts.weights * np.einsum("ij,ij->i", diffs, diffs)))


def cost(pts: WeightedPoints, clustering: Clustering) -> float:
    """Recompute sum_i sum_{x in cluster i} w_x ||x - c_i||^2."""
    return _cost(pts, clustering.labels, clustering.centers)


def _assign(pts: WeightedPoints, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels; exact ties go to the lowest center index."""
    d2 = np.sum((pts.coords[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def _weighted_means(pts: WeightedPoints, labels: np.ndarray, k: int,
                    fallback: np.ndarray) -> np.ndarray:
    centers = fallback.copy()
    for i in range(k):
        mask = labels == i
        if mask.any():
            w = pts.weights[mask]
            centers[i] = (w[:, None] * pts.coords[mask]).sum(axis=0) / w.sum()
    return centers


def lloyd_step(pts: WeightedPoints, clustering: Clustering) -> Clustering:
    """One assignment + recenter pass; cost never increases.

    An emptied cluster is re-seeded at the point with the largest weighted
    distance contribution (next-largest for further empties, never draining a
    cluster to empty), keeping the step deterministic.
    """
    k = clustering.k
    labels = _assign(pts, clustering.centers)
    d2 = np.sum((pts.coords - clustering.centers[labels]) ** 2, axis=1)
    contrib = pts.weights * d2
    for i in range(k):
        if np.any(labels == i):
            continue
        counts = np.bincount(labels, minlength=k)
        candidates = np.flatnonzero((counts[labels] > 1) & (contrib > -np.inf))
        if candidates.size == 0:
            raise DegenerateError("cannot repair empty cluster %d" % i)
        j = candidates[np.argmax(contrib[candidates])]
        labels[j] = i
        contrib[j] = -np.inf
    centers = _weighted_means(pts, labels, k, clustering.centers)
    return Clustering(labels=labels, centers=centers, cost=_cost(pts, labels, centers))


def _lloyd_to_fixpoint(pts: WeightedPoints, centers: np.ndarray, k: int) -> Clustering:
    current = lloyd_step(pts, Clustering(labels=np.zeros(pts.n, dtype=np.int64),
                                         centers=centers, cost=math.inf))
    for _ in range(_LLOYD_MAX_ITER):
        nxt = lloyd_step(pts, current)
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
    set. One ball-restricted refinement then recenters each seed on the
    points within a third of the distance to its nearest other seed, and a
    full Lloyd pass runs to a fixed point. Deterministic given seed.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if pts.n < k:
        raise InputError("need at least k points")
    if len(np.unique(pts.coords, axis=0)) < k:
        raise DegenerateError("fewer than k distinct points")
    rng = rng_stream(seed, "kmeans", "seeding")

    w = pts.weights
    total_w = w.sum()
    mean = (w[:, None] * pts.coords).sum(axis=0) / total_w
    d2_mean = np.sum((pts.coords - mean) ** 2, axis=1)
    spread = float((w * d2_mean).sum())

    probs = w * (total_w * d2_mean + spread)
    if probs.sum() <= 0:
        raise DegenerateError("all points coincide")
    centers = [pts.coords[rng.choice(pts.n, p=probs / probs.sum())]]
    d2_near = np.sum((pts.coords - centers[0]) ** 2, axis=1)
    for _ in range(1, k):
        probs = w * d2_near
        centers.append(pts.coords[rng.choice(pts.n, p=probs / probs.sum())])
        d2_near = np.minimum(d2_near, np.sum((pts.coords - centers[-1]) ** 2, axis=1))
    centers = np.array(centers)

    if k > 1:
        refined = centers.copy()
        for i in range(k):
            gaps = np.sum((np.delete(centers, i, axis=0) - centers[i]) ** 2, axis=1)
            radius2 = (BALL_RADIUS_FACTOR ** 2) * gaps.min()
            ball = np.sum((pts.coords - centers[i]) ** 2, axis=1) <= radius2
            if ball.any():
                bw = w[ball]
                refined[i] = (bw[:, None] * pts.coords[ball]).sum(axis=0) / bw.sum()
        centers = refined

    return _lloyd_to_fixpoint(pts, centers, k)


def best_of_orss(pts: WeightedPoints, k: int, seed: int,
                 restarts: int = DEFAULT_RESTARTS) -> Clustering:
    """Lowest-cost clustering over seeded restarts (earliest wins ties)."""
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
            centers = _weighted_means(pts, labels, k, np.zeros((k, dim)))
        c = _cost(pts, labels, centers)
        out.append((c, Clustering(labels=labels, centers=centers, cost=c)))
    return out


@dataclass(frozen=True)
class SeparationEstimate:
    """Estimated optimal-cost drop from k-1 to k clusters.

    ``method`` is "bruteforce" (exact, n <= BRUTEFORCE_MAX_N) or "restarts"
    (best of DEFAULT_RESTARTS heuristic upper bounds for both costs, so the
    ratio is only an estimate). ``degenerate`` flags a 0/0 ratio.
    """

    ratio: float
    delta_k: float
    delta_km1: float
    method: str
    degenerate: bool


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
    if delta_km1 <= 0.0:
        return SeparationEstimate(ratio=0.0, delta_k=delta_k, delta_km1=delta_km1,
                                  method=method, degenerate=True)
    return SeparationEstimate(ratio=delta_k / delta_km1, delta_k=delta_k,
                              delta_km1=delta_km1, method=method, degenerate=False)
