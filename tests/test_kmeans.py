import dataclasses
import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralpart import kmeans
from spectralpart import (CapacityError, Clustering, DegenerateError,
                          InputError, NumericError, WeightedPoints, best_of_orss, cost,
                          lloyd_step, optimal_cost_bruteforce, orss_kmeans,
                          rng_stream, separation_ratio)


def pts_1d(values, weights=None):
    values = np.asarray(values, dtype=float)[:, None]
    if weights is None:
        weights = np.ones(len(values))
    return WeightedPoints(coords=values, weights=np.asarray(weights, dtype=float))


def clumps(rng, k, per_clump, spread=0.01, gap=10.0, dim=2, weights=None):
    """k tight clusters with centers gap apart; returns (points, labels)."""
    centers = rng.standard_normal((k, dim)) * 0.1
    centers += np.arange(k)[:, None] * gap
    coords = np.vstack([centers[i] + spread * rng.standard_normal((per_clump, dim))
                        for i in range(k)])
    labels = np.repeat(np.arange(k), per_clump)
    w = np.ones(len(coords)) if weights is None else weights
    return WeightedPoints(coords=coords, weights=w), labels


class TestWeightedPoints:
    def test_validation(self):
        with pytest.raises(InputError):
            WeightedPoints(coords=np.zeros((2, 1)), weights=np.array([1.0, 0.0]))
        with pytest.raises(InputError):
            WeightedPoints(coords=np.array([[np.inf]]), weights=np.array([1.0]))


class TestCost:
    def test_single_location(self):
        p = pts_1d([2.0, 2.0, 2.0])
        c = Clustering(labels=np.zeros(3, dtype=np.int64),
                       centers=np.array([[2.0]]), cost=0.0)
        assert cost(p, c) == 0.0

    def test_two_points_at_centers(self):
        p = pts_1d([0.0, 1.0])
        c = Clustering(labels=np.array([0, 1]),
                       centers=np.array([[0.0], [1.0]]), cost=0.0)
        assert cost(p, c) == 0.0

    def test_hand_computed(self):
        p = pts_1d([0.0, 2.0, 3.0])
        c = Clustering(labels=np.array([0, 1, 1]),
                       centers=np.array([[0.0], [2.5]]), cost=0.5)
        assert cost(p, c) == pytest.approx(0.5)  # (2-2.5)^2 + (3-2.5)^2


class TestBruteForce:
    def test_k_equals_n(self):
        p = pts_1d([0.0, 1.0, 5.0])
        c, clus = optimal_cost_bruteforce(p, 3)
        assert c == 0.0
        assert clus.cost == 0.0

    def test_three_points_two_clusters(self):
        p = pts_1d([0.0, 2.0, 3.0])
        c, clus = optimal_cost_bruteforce(p, 2)
        assert c == pytest.approx(0.5)
        assert sorted(np.bincount(clus.labels).tolist()) == [1, 2]

    def test_weighted_single_cluster(self):
        p = pts_1d([0.0, 1.0], weights=[1.0, 3.0])
        c, clus = optimal_cost_bruteforce(p, 1)
        assert clus.centers[0, 0] == pytest.approx(0.75)
        assert c == pytest.approx(1 * 0.5625 + 3 * 0.0625)

    def test_monotone_in_k_and_zero_at_n(self):
        rng = np.random.default_rng(0)
        p = WeightedPoints(coords=rng.standard_normal((7, 2)),
                           weights=1 + rng.random(7))
        costs = [optimal_cost_bruteforce(p, k)[0] for k in range(1, 8)]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-12
        assert costs[-1] == pytest.approx(0.0, abs=1e-12)

    def test_capacity(self):
        p = pts_1d(np.arange(15.0))
        with pytest.raises(CapacityError):
            optimal_cost_bruteforce(p, 2)

    def test_duplicated_copy_equivalence(self):
        # integer weights match literal duplication exactly
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((5, 2))
        weights = np.array([1, 2, 3, 1, 2], dtype=float)
        weighted = WeightedPoints(coords=coords, weights=weights)
        dup_coords = np.repeat(coords, weights.astype(int), axis=0)
        duplicated = WeightedPoints(coords=dup_coords,
                                    weights=np.ones(len(dup_coords)))
        for k in (1, 2, 3):
            cw, _ = optimal_cost_bruteforce(weighted, k)
            cd, _ = optimal_cost_bruteforce(duplicated, k)
            assert cw == pytest.approx(cd, abs=1e-9)

    def test_matches_labelling_oracle(self):
        for name, p in oracle_point_sets():
            for k in range(2, p.n):
                got, clus = optimal_cost_bruteforce(p, k)
                want, best = oracle_cost(p, k)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (name, k)
                labels = clus.labels.tolist()
                assert labels in best, (name, k)
                assert cost(p, clus) == clus.cost == got

    def test_coincident_points(self):
        p = WeightedPoints(coords=np.zeros((12, 2)), weights=np.ones(12))
        c, clus = optimal_cost_bruteforce(p, 4)
        assert c == 0.0
        assert clus.labels.tolist() == [0, 1, 2] + [3] * 9

    def test_k_nonempty_clusters_under_rounding(self):
        # Coincident points at non-dyadic coordinates: splitting a location
        # costs 0 up to rounding, so an empty cluster scored 0 rather than
        # +inf could look cheaper than a real split.
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(4, 10))
            k = int(rng.integers(2, n))
            coords = 0.1 + 0.3 * rng.integers(0, 2, size=(n, 2))
            p = WeightedPoints(coords=coords, weights=0.5 + rng.random(n))
            _, clus = optimal_cost_bruteforce(p, k)
            assert sorted(set(clus.labels.tolist())) == list(range(k))


@functools.lru_cache(maxsize=None)
def canonical_labellings(n, k):
    """Every labelling of n points into k nonempty clusters numbered in order
    of first use, as an array with one labelling per row."""
    rows = []
    for labels in itertools.product(*(range(min(i + 1, k)) for i in range(n))):
        try:
            firsts = [labels.index(b) for b in range(k)]
        except ValueError:  # an empty cluster
            continue
        if firsts == sorted(firsts):
            rows.append(labels)
    return np.array(rows)


def oracle_cost(p, k):
    """(least cost, labellings within 1e-12 relative of it) over every
    canonical labelling, each scored at its weighted cluster means."""
    labels = canonical_labellings(p.n, k)
    onehot = (labels[:, :, None] == np.arange(k)).astype(float)  # labellings x n x k
    mass = np.einsum("lnk,n->lk", onehot, p.weights)
    centers = np.einsum("lnk,n,nd->lkd", onehot, p.weights, p.coords) / mass[:, :, None]
    diffs = p.coords - np.take_along_axis(centers, labels[:, :, None], axis=1)
    costs = np.einsum("n,lnd->l", p.weights, diffs ** 2)
    best = costs.min()
    return best, labels[costs <= best * (1 + 1e-12)].tolist()


def oracle_point_sets():
    """Seeded weighted point sets with n <= 9: generic ones, and ones with
    coincident points, duplicated points and exactly tied partitions."""
    rng = np.random.default_rng(11)
    for n in range(3, 10):
        yield "generic%d" % n, WeightedPoints(coords=rng.standard_normal((n, 2)),
                                              weights=0.5 + rng.random(n))
    # Integer coordinates and weights keep the weighted mean of coincident
    # points exact, so a zero optimum is 0.0 however the labelling ties break.
    coords = rng.integers(-3, 4, size=(3, 2)).astype(float)
    yield "coincident", WeightedPoints(coords=coords[rng.integers(0, 3, size=8)],
                                       weights=rng.integers(1, 4, size=8).astype(float))
    base = rng.integers(-5, 6, size=(4, 3)).astype(float)
    yield "duplicate", WeightedPoints(coords=np.vstack([base, base[:3]]),
                                      weights=np.array([1, 2, 1, 3, 2, 1, 1], dtype=float))
    # Corners of a square and of a unit cube: many partitions tie exactly.
    square = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    yield "square", WeightedPoints(coords=np.vstack([square, square + [3, 0]]),
                                   weights=np.ones(8))
    cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
    yield "cube", WeightedPoints(coords=np.vstack([cube, [[0.5, 0.5, 0.5]]]),
                                 weights=np.ones(9))


class TestLloydStep:
    def fixed_point(self):
        p = pts_1d([0.0, 2.0, 3.0])
        return Clustering(labels=np.array([0, 1, 1]),
                          centers=np.array([[0.0], [2.5]]), cost=0.5)

    def test_fixed_point_unchanged(self):
        p = pts_1d([0.0, 2.0, 3.0])
        c = self.fixed_point()
        after = lloyd_step(p, c)
        assert np.array_equal(after.labels, c.labels)
        assert np.allclose(after.centers, c.centers)
        assert after.cost == pytest.approx(c.cost)

    def test_hand_iteration(self):
        p = pts_1d([0.0, 2.0, 3.0])
        start = Clustering(labels=np.zeros(3, dtype=np.int64),
                           centers=np.array([[0.0], [2.0]]), cost=np.inf)
        after = lloyd_step(p, start)
        assert after.labels.tolist() == [0, 1, 1]
        assert np.allclose(after.centers, [[0.0], [2.5]])
        assert after.cost == pytest.approx(0.5)

    def test_monotone_many_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n, k, d = 8, 3, 2
            p = WeightedPoints(coords=rng.standard_normal((n, d)),
                               weights=0.5 + rng.random(n))
            centers = rng.standard_normal((k, d))
            first = lloyd_step(p, Clustering(labels=np.zeros(n, dtype=np.int64),
                                             centers=centers, cost=np.inf))
            second = lloyd_step(p, first)
            assert second.cost <= first.cost + 1e-12

    def test_center_is_weighted_mean(self):
        rng = np.random.default_rng(3)
        p = WeightedPoints(coords=rng.standard_normal((10, 2)),
                           weights=1 + rng.random(10))
        out = lloyd_step(p, Clustering(labels=np.zeros(10, dtype=np.int64),
                                       centers=rng.standard_normal((3, 2)),
                                       cost=np.inf))
        for i in range(3):
            mask = out.labels == i
            w = p.weights[mask]
            mean = (w[:, None] * p.coords[mask]).sum(0) / w.sum()
            assert np.allclose(out.centers[i], mean, atol=1e-9)
        assert cost(p, out) == pytest.approx(out.cost, abs=1e-9)


class TestOrss:
    def test_recovers_separated_clumps_every_seed(self):
        rng = np.random.default_rng(4)
        p, labels = clumps(rng, 3, 6)
        for seed in range(50):
            out = orss_kmeans(p, 3, seed=seed)
            # same-clump points share a cluster, different clumps differ
            mapping = {}
            ok = True
            for lab, out_lab in zip(labels, out.labels):
                if lab in mapping:
                    ok &= mapping[lab] == out_lab
                else:
                    ok &= out_lab not in mapping.values()
                    mapping[lab] = out_lab
            assert ok

    def test_near_oracle_on_separated_instances(self):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            p, _ = clumps(rng, 3, 4, spread=0.02)
            oracle, _ = optimal_cost_bruteforce(p, 3)
            out = orss_kmeans(p, 3, seed=seed)
            hits += out.cost <= 1.1 * oracle + 1e-12
        assert hits >= 36  # >= 90%

    def test_never_beats_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            p = WeightedPoints(coords=rng.standard_normal((9, 2)),
                               weights=1 + rng.random(9))
            oracle, _ = optimal_cost_bruteforce(p, 3)
            out = orss_kmeans(p, 3, seed=trial)
            assert out.cost >= oracle - 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        p, _ = clumps(rng, 2, 5)
        a = orss_kmeans(p, 2, seed=3)
        b = orss_kmeans(p, 2, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)

    def test_degenerate_distinct_points(self):
        p = pts_1d([1.0, 1.0, 1.0])
        with pytest.raises(DegenerateError):
            orss_kmeans(p, 2, seed=0)

    def test_degenerate_messages(self):
        with pytest.raises(DegenerateError, match="fewer than k distinct points"):
            orss_kmeans(pts_1d([1.0, 1.0, 2.0, 2.0]), 3, seed=0)
        with pytest.raises(DegenerateError, match="all points coincide"):
            orss_kmeans(pts_1d([1.0, 1.0]), 1, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_underflowing_gap_is_degenerate(self, seed):
        # The points are distinct, but the squared gap 1e-340 underflows to 0,
        # which leaves no seeding weight for the third center.
        with pytest.raises(DegenerateError):
            orss_kmeans(pts_1d([0.0, 1e-170, 1.0]), 3, seed=seed)

    def test_best_of_orss_not_worse_than_single(self):
        rng = np.random.default_rng(7)
        p, _ = clumps(rng, 3, 5, spread=1.0, gap=3.0)  # mildly separated
        single = orss_kmeans(p, 3, seed=0)
        best = best_of_orss(p, 3, seed=0, restarts=10)
        assert best.cost <= single.cost + 1e-12


class TestInvariances:
    def test_rotation_invariance_and_scale_equivariance(self):
        rng = np.random.default_rng(8)
        p = WeightedPoints(coords=rng.standard_normal((8, 3)),
                           weights=1 + rng.random(8))
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = WeightedPoints(coords=p.coords @ rot, weights=p.weights)
        scaled = WeightedPoints(coords=2.5 * p.coords, weights=p.weights)
        base, base_c = optimal_cost_bruteforce(p, 3)
        rot_cost, rot_c = optimal_cost_bruteforce(rotated, 3)
        scl_cost, scl_c = optimal_cost_bruteforce(scaled, 3)
        assert rot_cost == pytest.approx(base, rel=1e-9, abs=1e-12)
        assert scl_cost == pytest.approx(2.5 ** 2 * base, rel=1e-9)
        # argmin clustering invariant (up to label order)
        assert (np.bincount(base_c.labels).tolist() ==
                np.bincount(rot_c.labels).tolist() ==
                np.bincount(scl_c.labels).tolist())


class TestSeparationRatio:
    def test_degenerate_single_location(self):
        p = pts_1d([3.0] * 5)
        est = separation_ratio(p, 2, seed=0)
        assert est.delta_km1 == 0.0 and est.ratio == 0.0

    def test_two_tight_clumps(self):
        rng = np.random.default_rng(9)
        p, _ = clumps(rng, 2, 5, spread=0.001, gap=100.0)
        est = separation_ratio(p, 2, seed=0)
        assert est.method == "bruteforce"
        assert est.ratio < 1e-4

    def test_unstructured_points(self):
        rng = np.random.default_rng(10)
        p = WeightedPoints(coords=rng.random((10, 2)), weights=np.ones(10))
        est = separation_ratio(p, 2, seed=0)
        assert est.ratio > 0.3

    def test_restart_path_flagged(self):
        rng = np.random.default_rng(11)
        p, _ = clumps(rng, 3, 6)  # n = 18 > BRUTEFORCE_MAX_N
        est = separation_ratio(p, 3, seed=0)
        assert est.method == "restarts"
        assert est.ratio < 1e-4

    def test_requires_k_at_least_two(self):
        with pytest.raises(InputError):
            separation_ratio(pts_1d([0.0, 1.0]), 1, seed=0)

    def test_exact_path_equals_two_oracle_calls(self):
        for name, p in oracle_point_sets():
            for k in range(2, p.n + 1):  # k - 1 = 1 at k = 2; k >= n at k = n
                est = separation_ratio(p, k, seed=0)
                assert est.method == "bruteforce"
                assert (est.delta_k, est.delta_km1) == \
                    (optimal_cost_bruteforce(p, k)[0],
                     optimal_cost_bruteforce(p, k - 1)[0]), (name, k)
                both = kmeans._optimal_clusterings(p, (k, k - 1))
                for j, (c, clus) in zip((k, k - 1), both):
                    c1, clus1 = optimal_cost_bruteforce(p, j)
                    assert c == c1 == clus.cost == clus1.cost, (name, j)
                    assert np.array_equal(clus.labels, clus1.labels), (name, j)
                    assert np.array_equal(clus.centers, clus1.centers), (name, j)

    @pytest.mark.parametrize("n", [13, 14])
    def test_exact_up_to_bruteforce_cap(self, n):
        rng = np.random.default_rng(n)
        p = WeightedPoints(coords=rng.random((n, 2)), weights=1 + rng.random(n))
        est = separation_ratio(p, 3, seed=0)
        assert est.method == "bruteforce"
        assert est.delta_k == optimal_cost_bruteforce(p, 3)[0]
        assert est.delta_km1 == optimal_cost_bruteforce(p, 2)[0]


class TestOrssVsBruteProperty:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_oracle_lower_bound(self, seed):
        rng = rng_stream(seed, "test", "oracle")
        n = int(rng.integers(4, 11))
        p = WeightedPoints(coords=rng.standard_normal((n, 2)),
                           weights=1 + rng.random(n))
        k = int(rng.integers(2, min(n, 4) + 1))
        oracle, _ = optimal_cost_bruteforce(p, k)
        out = orss_kmeans(p, k, seed=seed)
        assert out.cost >= oracle - 1e-9


# A per-center loop kernel, the reference the numpy kernel must match bit for
# bit: one np.sum column per center, Generator.choice draws, masked weighted
# means and a Lloyd loop that always runs one more step.

def reference_assign(p, centers):
    return np.argmin(np.column_stack([np.sum((p.coords - c) ** 2, axis=1)
                                      for c in centers]), axis=1)


def reference_step(p, clustering):
    k = clustering.k
    labels = reference_assign(p, clustering.centers)
    empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
    if empty.size:
        contrib = p.weights * np.sum((p.coords - clustering.centers[labels]) ** 2, axis=1)
    for i in empty:
        counts = np.bincount(labels, minlength=k)
        candidates = np.flatnonzero((counts[labels] > 1) & (contrib > -np.inf))
        j = candidates[np.argmax(contrib[candidates])]
        labels[j] = i
        contrib[j] = -np.inf
    centers = clustering.centers.copy()
    for i in range(k):
        mask = labels == i
        w = p.weights[mask]
        centers[i] = (w[:, None] * p.coords[mask]).sum(axis=0) / w.sum()
    return Clustering(labels=labels, centers=centers, cost=kmeans._cost(p, labels, centers))


def reference_fixpoint(p, centers):
    current = reference_step(p, Clustering(labels=np.zeros(p.n, dtype=np.int64),
                                           centers=centers, cost=math.inf))
    for _ in range(kmeans._LLOYD_MAX_ITER):
        nxt = reference_step(p, current)
        if nxt.cost >= current.cost - 1e-15:
            return current if current.cost <= nxt.cost else nxt
        current = nxt
    return current


def reference_orss(p, k, seed):
    rng = rng_stream(seed, "kmeans", "seeding")
    w, x = p.weights, p.coords
    mean = (w[:, None] * x).sum(axis=0) / w.sum()
    d2_mean = np.sum((x - mean) ** 2, axis=1)
    probs = w * (w.sum() * d2_mean + float((w * d2_mean).sum()))
    centers = [x[rng.choice(p.n, p=probs / probs.sum())]]
    cols = [np.sum((x - centers[0]) ** 2, axis=1)]
    d2_near = cols[0]
    for _ in range(1, k):
        probs = w * d2_near
        centers.append(x[rng.choice(p.n, p=probs / probs.sum())])
        cols.append(np.sum((x - centers[-1]) ** 2, axis=1))
        d2_near = np.minimum(d2_near, cols[-1])
    centers = np.array(centers)
    refined = centers.copy()
    for i in range(k if k > 1 else 0):
        gaps = np.sum((np.delete(centers, i, axis=0) - centers[i]) ** 2, axis=1)
        ball = cols[i] <= (kmeans.BALL_RADIUS_FACTOR ** 2) * gaps.min()
        if ball.any():
            bw = w[ball]
            refined[i] = (bw[:, None] * x[ball]).sum(axis=0) / bw.sum()
    return reference_fixpoint(p, refined)


def assert_same(a, b):
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)
    assert a.cost == b.cost


def kernel_point_sets(count, seed):
    """Integer-weighted point sets of dimension >= 2: Gaussian clouds, a small
    integer grid (exact ties and duplicates), and separated clumps."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n, dim = int(rng.integers(3, 150)), int(rng.integers(2, 10))
        k = int(rng.integers(1, min(n, 9) + 1))
        if t % 3 == 0:
            x = rng.standard_normal((n, dim))
        elif t % 3 == 1:
            x = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            x = (5 * rng.standard_normal((k, dim)))[rng.integers(0, k, n)]
            x += 0.01 * rng.standard_normal((n, dim))
        yield k, WeightedPoints(coords=x, weights=rng.integers(1, 20, n).astype(float))


class TestNumpyKernel:
    def test_restarts_equal_the_loop_reference(self):
        for k, p in kernel_point_sets(90, 21):
            for seed in range(2):
                try:
                    want = reference_orss(p, k, seed)
                except ValueError:  # choice refuses a zero distribution
                    with pytest.raises(DegenerateError):
                        orss_kmeans(p, k, seed)
                    continue
                assert_same(orss_kmeans(p, k, seed), want)

    def test_fixpoint_equals_stepping_on(self):
        """The loop stops without a step once a step reassigns nothing; that
        step would have rebuilt the same centers and cost."""
        for k, p in kernel_point_sets(60, 22):
            centers = p.coords[np.random.default_rng(k).choice(p.n, k, replace=False)]
            assert_same(kmeans._lloyd_to_fixpoint(p, centers),
                        reference_fixpoint(p, centers))

    def test_settled_step_is_unchanged(self):
        rng = np.random.default_rng(23)
        p = WeightedPoints(coords=rng.standard_normal((200, 5)),
                           weights=rng.integers(1, 9, 200).astype(float))
        current = lloyd_step(p, Clustering(labels=np.zeros(200, dtype=np.int64),
                                           centers=p.coords[:4].copy(), cost=math.inf))
        for _ in range(100):
            nxt = lloyd_step(p, current)
            if np.array_equal(nxt.labels, current.labels):
                assert_same(nxt, current)
                return
            current = nxt
        pytest.fail("no fixed point in 100 steps")

    def test_bisector_labels_match_the_exact_expression(self):
        """Points on the bisector of two centers, and one ulp to either side
        of it, get the exact np.sum argmin's labels, ties to the lower index.
        Far from the origin the GEMM estimate loses digits to cancellation
        and misorders many of them; the recheck must catch each one."""
        rng = np.random.default_rng(24)
        for dim, offset in itertools.product((2, 3, 8), (0.0, 1e3)):
            for _ in range(10):
                pair = rng.standard_normal((2, dim)) + offset
                normal = pair[1] - pair[0]
                along = rng.standard_normal((300, dim))
                along -= np.outer(along @ normal / (normal @ normal), normal)
                on = (pair[0] + pair[1]) / 2 + along
                x = np.vstack([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)])
                p = WeightedPoints(coords=x, weights=np.ones(len(x)))
                extra = rng.standard_normal((2, dim)) + offset
                for centers in (pair, pair[::-1], np.vstack([pair, extra]),
                                np.vstack([pair, pair[::-1]])):
                    labels = kmeans._assign(p, centers)
                    assert np.array_equal(labels, reference_assign(p, centers))
        # exact ties in one dimension go to the lower index whatever the order
        p = pts_1d([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
        for centers, want in (([[0.0], [2.0]], [0, 0, 1]), ([[2.0], [0.0]], [0, 1, 0])):
            assert kmeans._assign(p, np.array(centers)).tolist() == want

    def test_best_of_restarts_are_orss_per_sub_seed(self, monkeypatch):
        rng = np.random.default_rng(25)
        p, _ = clumps(rng, 4, 30, spread=1.0, gap=3.0, dim=3,
                      weights=rng.integers(1, 9, 120).astype(float))
        seen = []
        orss = kmeans.orss_kmeans

        def recorded(*args):
            seen.append(orss(*args))
            return seen[-1]

        monkeypatch.setattr(kmeans, "orss_kmeans", recorded)
        best = best_of_orss(p, 4, seed=5, restarts=7)
        sub = rng_stream(5, "kmeans", "restarts", "4").integers(2 ** 62, size=7)
        assert len(seen) == 7
        for got, s in zip(seen, sub):
            assert_same(got, orss_kmeans(p, 4, int(s)))
        costs = [c.cost for c in seen]
        assert best is seen[costs.index(min(costs))]

    def test_points_keep_read_only_copies(self):
        rng = np.random.default_rng(27)
        coords = rng.standard_normal((60, 3))
        weights = rng.integers(1, 9, 60).astype(float)
        want = best_of_orss(WeightedPoints(coords=coords.copy(), weights=weights.copy()),
                            3, seed=4, restarts=5)
        p = WeightedPoints(coords=coords, weights=weights)
        kept = p.coords.copy()
        coords[:30] += 10.0
        weights[:5] = 100.0
        assert np.array_equal(p.coords, kept)
        assert not p.coords.flags.writeable and not p.weights.flags.writeable
        assert_same(best_of_orss(p, 3, seed=4, restarts=5), want)
        # A read-only input is kept as it is, not copied again.
        again = WeightedPoints(coords=p.coords, weights=p.weights)
        assert again.coords is p.coords and again.weights is p.weights

    def test_seeding_overflow_is_a_numeric_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="overflow"):
            orss_kmeans(pts_1d([-1e200, 0.0, 1e200]), 2, seed=0)

    def test_memory_linear_in_points_and_centers(self):
        rng = np.random.default_rng(26)
        n, k, dim = 50_000, 4, 6
        p, _ = clumps(rng, k, n // k, spread=1.0, dim=dim,
                      weights=rng.integers(1, 30, n).astype(float))
        tracemalloc.start()
        try:
            best_of_orss(p, k, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n * (k + dim), peak / (n * (k + dim))


def recenter_spy(monkeypatch, adjust=lambda step, clustering: clustering):
    """Patch kmeans._recenter to pass each step's result through ``adjust``
    and record what it returns; returns the record."""
    steps = []
    real = kmeans._recenter

    def spy(pts, clustering, labels):
        steps.append(adjust(len(steps), real(pts, clustering, labels)))
        return steps[-1]

    monkeypatch.setattr(kmeans, "_recenter", spy)
    return steps


class TestLloydExits:
    """The exits of _lloyd_to_fixpoint that seeded runs do not reach: the
    iteration cap, and a step whose cost does not fall. On these points the
    unpatched loop takes more than one step."""

    POINTS = pts_1d(np.arange(10) / 100)
    CENTERS = np.array([[0.0], [0.01]])

    def test_unpatched_run_takes_several_steps(self, monkeypatch):
        steps = recenter_spy(monkeypatch)
        kmeans._lloyd_to_fixpoint(self.POINTS, self.CENTERS)
        assert len(steps) > 2

    def test_iteration_cap_returns_the_last_step(self, monkeypatch):
        monkeypatch.setattr(kmeans, "_LLOYD_MAX_ITER", 0)
        steps = recenter_spy(monkeypatch)
        got = kmeans._lloyd_to_fixpoint(self.POINTS, self.CENTERS)
        assert len(steps) == 1 and got is steps[0]
        assert_same(got, lloyd_step(self.POINTS, Clustering(
            labels=np.full(10, -1), centers=self.CENTERS, cost=math.nan)))

    @pytest.mark.parametrize("change, kept", [(1.0, 0), (0.0, 0), (-5e-16, 1)])
    def test_cost_that_does_not_fall_keeps_the_lower(self, monkeypatch, change, kept):
        """A second step whose cost does not fall by more than 1e-15 ends the
        loop, which keeps the lower-cost of the two (the first on a tie)."""
        def adjust(step, clustering):
            if step != 1:
                return clustering
            return dataclasses.replace(clustering, cost=steps[0].cost + change)

        steps = recenter_spy(monkeypatch, adjust)
        got = kmeans._lloyd_to_fixpoint(self.POINTS, self.CENTERS)
        assert len(steps) == 2 and got is steps[kept]


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: WeightedPoints(coords=np.zeros((3, 2)), weights=np.ones(2)),
                 "coords must be n x dim and weights length n", id="points-shape"),
    pytest.param(lambda: WeightedPoints(coords=np.zeros((0, 2)), weights=np.ones(0)),
                 "empty point set", id="points-empty"),
    pytest.param(lambda: orss_kmeans(pts_1d([0.0, 1.0, 2.0]), 0, 0), "k must be >= 1",
                 id="orss-k"),
    pytest.param(lambda: orss_kmeans(pts_1d([0.0, 1.0, 2.0]), 4, 0), "need at least k points",
                 id="orss-k-above-n"),
    pytest.param(lambda: best_of_orss(pts_1d([0.0, 1.0, 2.0]), 2, 0, restarts=0),
                 "restarts must be >= 1", id="best-of-orss-restarts"),
    pytest.param(lambda: optimal_cost_bruteforce(pts_1d([0.0, 1.0, 2.0]), 0),
                 "k must be >= 1", id="bruteforce-k"),
])
def test_input_checks(call, message):
    """Public-API input checks that no other test reaches."""
    with pytest.raises(InputError, match=re.escape(message)):
        call()
