import re

import numpy as np
import pytest

from spectralpart import (InputError, WeightedPoints, bruteforce_partition_constants,
                          gaussian_matrix, optimal_cost_bruteforce, rng_stream,
                          separation_ratio, sym_eig)
from spectralpart import linalg
from spectralpart.linalg import _partition_layers, _splits
from conftest import complete_graph, cycle_graph, dense_laplacian, path_graph


class TestSymEig:
    def test_identity_matrix(self):
        eig = sym_eig(np.eye(2))
        assert np.allclose(eig.values, [1.0, 1.0])

    def test_k2_laplacian(self):
        eig = sym_eig(dense_laplacian(complete_graph(2)))
        assert np.allclose(eig.values, [0.0, 2.0], atol=1e-12)

    def test_k4_laplacian(self):
        eig = sym_eig(dense_laplacian(complete_graph(4)))
        assert np.allclose(eig.values, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-9)

    def test_diagonal_matrix(self):
        eig = sym_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(eig.values, [-1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_path_closed_form(self, n):
        # normalized Laplacian spectrum of a path: 1 - cos(pi j / (n-1))
        eig = sym_eig(dense_laplacian(path_graph(n)))
        expected = np.sort(1 - np.cos(np.pi * np.arange(n) / (n - 1)))
        assert np.allclose(eig.values, expected, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_cycle_closed_form(self, n):
        eig = sym_eig(dense_laplacian(cycle_graph(n)))
        expected = np.sort(1 - np.cos(2 * np.pi * np.arange(n) / n))
        assert np.allclose(eig.values, expected, atol=1e-9)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12))
        eig = sym_eig(m + m.T)
        gram = eig.vectors.T @ eig.vectors
        assert np.abs(gram - np.eye(12)).max() < 1e-9

    def test_eigen_residual(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((10, 10))
        m = (m + m.T) / 2
        eig = sym_eig(m)
        resid = np.linalg.norm(m @ eig.vectors - eig.vectors * eig.values, axis=0)
        assert resid.max() <= 1e-8 * np.linalg.norm(m, "fro")

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 7))
        eig = sym_eig(m + m.T)
        for j in range(7):
            col = eig.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            sym_eig(np.zeros((2, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((9, 9))
        m = m + m.T
        a = sym_eig(m)
        b = sym_eig(m.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_zero_multiplicity_counts_components(self):
        # block-diagonal Laplacian of 3 disjoint triangles
        from conftest import disjoint_cliques
        g, _ = disjoint_cliques(3, 3)
        eig = sym_eig(dense_laplacian(g))
        assert int(np.sum(np.abs(eig.values) < 1e-8)) == 3


class TestGaussianMatrix:
    def test_deterministic_per_seed(self):
        a = gaussian_matrix(20, 3, seed=9)
        b = gaussian_matrix(20, 3, seed=9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gaussian_matrix(20, 3, seed=10))

    def test_moments(self):
        s = gaussian_matrix(10000, 1, seed=0).ravel()
        assert abs(s.mean()) < 0.05
        assert abs(s.var() - 1.0) < 0.1

    def test_full_rank_against_orthonormal(self):
        # 200-trial slice of the 1000-trial acceptance property
        n, rho, k = 40, 10, 4
        q, _ = np.linalg.qr(rng_stream(123, "test", "basis").standard_normal((n, rho)))
        for seed in range(200):
            s = gaussian_matrix(n, k, seed=seed)
            assert np.linalg.matrix_rank(q.T @ s) == k

    def test_singular_value_upper_bound(self):
        n = 40
        hits = 0
        trials = 300
        for seed in range(trials):
            s = np.linalg.svd(gaussian_matrix(n, 4, seed=seed), compute_uv=False)
            hits += s[0] <= 4 * np.sqrt(n)
        assert hits / trials >= 0.99

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError):
            gaussian_matrix(0, 3, seed=0)


class TestRngStream:
    def test_label_separation(self):
        a = rng_stream(0, "kmeans", "seeding").random(4)
        b = rng_stream(0, "kmeans", "restarts").random(4)
        c = rng_stream(0, "kmeans", "seeding").random(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_seed_separation(self):
        a = rng_stream(1, "x").random(4)
        b = rng_stream(2, "x").random(4)
        assert not np.array_equal(a, b)


class TestSplits:
    def test_built_once_and_read_only(self):
        splits = _splits(6)
        assert splits is _splits(6)
        assert len(splits) == 6
        assert sum(t.size for _, t in splits) == (3 ** 6 - 1) // 2
        for s, t in splits:
            for arr in (s, t):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0


def set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


class TestPartitionLayers:
    @pytest.mark.parametrize("empty, combine, fold", [(0.0, np.add, sum),
                                                       (-np.inf, np.maximum, max)])
    def test_matches_enumeration(self, empty, combine, fold):
        n, k = 6, 4
        block = np.random.default_rng(3).random(1 << n)
        block[0] = np.inf
        layers = _partition_layers(_splits(n), block, k, empty, combine)
        assert len(layers) == k + 1 and layers[1] is block
        assert layers[0][0] == empty and np.all(layers[0][1:] == np.inf)
        for s in range(1 << n):
            want = [np.inf] * (k + 1)
            for part in set_partitions([v for v in range(n) if s >> v & 1]):
                if 1 < len(part) <= k:
                    score = fold(block[sum(1 << v for v in b)] for b in part)
                    want[len(part)] = min(want[len(part)], score)
            for j in range(2, k + 1):
                assert layers[j][s] == pytest.approx(want[j], rel=1e-12), (s, j)

    @pytest.fixture
    def passes(self, monkeypatch):
        """Count the min-over-splits passes made over the split tables."""
        calls = []
        real = linalg._min_over_splits
        monkeypatch.setattr(linalg, "_min_over_splits",
                            lambda *args: calls.append(1) or real(*args))
        return calls

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_constants_make_two_passes_per_layer(self, passes, k):
        bruteforce_partition_constants(cycle_graph(9), k)
        assert len(passes) == 2 * (k - 1)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_separation_builds_one_dp(self, passes, k):
        rng = np.random.default_rng(k)
        pts = WeightedPoints(coords=rng.random((9, 2)), weights=1 + rng.random(9))
        separation_ratio(pts, k, seed=0)
        assert len(passes) == k - 2
        del passes[:]
        optimal_cost_bruteforce(pts, k)
        assert len(passes) == k - 2


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]])),
                 "sym_eig requires finite entries", id="sym-eig-nan"),
    pytest.param(lambda: sym_eig(np.array([[np.inf]])), "sym_eig requires finite entries",
                 id="sym-eig-inf"),
])
def test_input_checks(call, message):
    """Public-API input checks that no other test reaches."""
    with pytest.raises(InputError, match=re.escape(message)):
        call()
