import re
import time
import tracemalloc

import numpy as np
import pytest

from spectralpart import (CapacityError, Embedding, GapError, Graph, InputError, LaplacianOps,
                          NumericError, WeightedPoints, best_of_orss,
                          exact_embedding, gen_ring_of_cliques, gen_sbm,
                          optimal_cost_bruteforce, power_embedding,
                          projection_distance, required_power_steps,
                          separation_ratio, spectral, spectrum, sym_eig)
from spectralpart.linalg import RESIDUAL_RTOL
from conftest import complete_graph, dense_laplacian, disjoint_cliques


class TestLaplacianOps:
    def test_k2_dense(self):
        ops = LaplacianOps(complete_graph(2))
        assert np.allclose(ops.apply_laplacian(np.eye(2)), [[1, -1], [-1, 1]])
        assert np.allclose(dense_laplacian(complete_graph(2)), [[1, -1], [-1, 1]])

    def test_kernel_vector(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        ops = LaplacianOps(g)
        x = np.sqrt(g.degrees.astype(float))
        assert np.abs(ops.apply_laplacian(x)).max() < 1e-12

    def test_psd_quadratic_form(self):
        g, _ = gen_sbm([10, 10], 0.5, 0.1, seed=2)
        ops = LaplacianOps(g)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(g.n)
            assert x @ ops.apply_laplacian(x) >= -1e-10

    def test_operators_sum_to_twice_identity(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        ops = LaplacianOps(g)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(g.n)
        assert np.allclose(ops.apply_laplacian(x) + ops.apply_shifted(x), 2 * x)

    def test_operator_symmetry(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        ops = LaplacianOps(g)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, g.n))
        assert abs(ops.apply_laplacian(x) @ y - x @ ops.apply_laplacian(y)) < 1e-10

    def test_on_scipy_shares_the_index_array(self):
        g, _ = gen_sbm([10, 10], 0.5, 0.1, seed=2)
        ops = LaplacianOps(g)
        fast = ops.on_scipy()
        assert fast is not ops and ops._adj is None and fast.on_scipy() is fast
        assert np.shares_memory(fast._adj.indices, ops._indices)
        x = np.random.default_rng(3).standard_normal((g.n, 2))
        assert np.abs(fast.apply_laplacian(x) - ops.apply_laplacian(x)).max() <= 1e-12

    def test_graph_and_operator_keep_one_csr(self):
        """Graph keeps its edges (16 bytes an edge) and degrees (8 a vertex),
        the operator its CSR indices (16 an edge), row starts and degree
        scales (8 a vertex each): no second 2m-entry index array."""
        g0, _ = gen_sbm([300] * 4, 0.1, 0.005, seed=0)
        tracemalloc.start()
        try:
            g = Graph(g0.n, g0.edges)
            ops = LaplacianOps(g)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ops.graph is g
        assert kept <= 32 * (g.n + g.m), kept / (g.n + g.m)


class TestExactEmbedding:
    def test_k2_single_coordinate(self):
        emb, _ = exact_embedding(complete_graph(2), 1)
        assert np.allclose(np.abs(emb.coords), 1 / np.sqrt(2))

    def test_disjoint_cliques_constant_per_component(self):
        g, p = disjoint_cliques(3, 4)
        emb, eig = exact_embedding(g, 3)
        assert np.allclose(eig.values[:3], 0.0, atol=1e-10)
        rows = emb.coords
        for i in range(3):
            block = rows[p.labels == i]
            assert np.abs(block - block[0]).max() < 1e-8
        reps = np.array([rows[p.labels == i][0] for i in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(reps[i] - reps[j]) > 1e-3

    def test_weighted_gram_identity(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        emb, _ = exact_embedding(g, 2)
        gram = (emb.weights[:, None] * emb.coords).T @ emb.coords
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_k_out_of_range(self, k4):
        with pytest.raises(InputError):
            exact_embedding(k4, 5)

    def test_k_plus_one_pairs_returned(self, k4):
        _, eig = exact_embedding(k4, 2)
        assert eig.n == 3


class TestRequiredPowerSteps:
    def test_formula_value(self):
        # gamma = 1/2 from lambda_k = 0, lambda_{k+1} = 1
        assert required_power_steps(1000, 3, 0.1, 0.1, 0.0, 1.0) == 22

    def test_lower_clamp(self):
        # lambda_{k+1} = 2 makes gamma = 0: converged after one step
        assert required_power_steps(10, 2, 0.5, 0.5, 0.0, 2.0) == 1

    def test_monotone_in_inverse_eps(self):
        prev = 0
        for eps in (0.4, 0.2, 0.1, 0.05, 0.025):
            p = required_power_steps(100, 3, eps, 0.1, 0.1, 1.0)
            assert p >= prev
            prev = p

    def test_gap_error(self):
        with pytest.raises(GapError):
            required_power_steps(10, 2, 0.1, 0.1, 1.0, 1.0)

    def test_gap_within_solver_accuracy(self):
        # hub10's lambda_2 = lambda_3 as spectrum returns them, 3.5e-16 apart
        with pytest.raises(GapError, match="eigensolver accuracy"):
            required_power_steps(10, 2, 0.01, 0.1, 0.12084713039410418, 0.12084713039410452)
        with pytest.raises(GapError):
            required_power_steps(10, 2, 0.01, 0.1, 0.5, 0.5 + 2 * RESIDUAL_RTOL)
        assert required_power_steps(10, 2, 0.01, 0.1, 0.5, 0.5 + 4 * RESIDUAL_RTOL) > 1

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            required_power_steps(10, 2, 0.0, 0.1, 0.0, 1.0)


class TestPowerEmbedding:
    def test_disconnected_converges_to_kernel(self):
        g, _ = disjoint_cliques(3, 4)
        exact, eig = exact_embedding(g, 3)
        approx = power_embedding(eig, 3, 50, 0)
        assert projection_distance(exact, approx) <= 1e-6

    def test_requested_accuracy_on_ring(self):
        g, _ = gen_ring_of_cliques(3, 20, 1, seed=3)
        exact, eig = exact_embedding(g, 3)
        p = required_power_steps(g.n, 3, 0.01, 0.1,
                                 float(eig.values[2]), float(eig.values[3]))
        approx = power_embedding(eig, 3, p, 1)
        assert projection_distance(exact, approx) <= 0.01

    def test_deterministic(self):
        g, _ = gen_ring_of_cliques(3, 8, 1, seed=0)
        eig = spectrum(g, 3)
        a = power_embedding(eig, 3, 12, 7)
        b = power_embedding(eig, 3, 12, 7)
        assert np.array_equal(a.coords, b.coords)

    def test_gram_identity_approximate(self):
        g, _ = gen_ring_of_cliques(3, 8, 1, seed=0)
        emb = power_embedding(spectrum(g, 3), 3, 20, 4)
        gram = (emb.weights[:, None] * emb.coords).T @ emb.coords
        assert np.abs(gram - np.eye(3)).max() < 1e-8

    def test_convergence_is_monotone_on_average(self):
        g, _ = gen_ring_of_cliques(3, 8, 1, seed=5)
        exact, eig = exact_embedding(g, 3)
        averages = []
        for steps in (1, 2, 4, 8, 16, 32, 64):
            dists = [projection_distance(
                exact, power_embedding(eig, 3, steps, s))
                for s in range(20)]
            averages.append(np.mean(dists))
        for a, b in zip(averages, averages[1:]):
            assert b <= a + 1e-9

    @pytest.mark.parametrize("eps", [1e-4, 1e-6])
    def test_subspace_kept_at_small_eps(self, eps):
        # Without re-orthonormalization every column drifts toward the top
        # eigenvector: projector distance 8.8e-2 at eps=1e-4 and 2.1 at 1e-6.
        g, _ = gen_sbm([300] * 4, 0.1, 0.02, seed=3)
        exact, eig = exact_embedding(g, 4)
        p = required_power_steps(g.n, 4, eps, 0.1,
                                 float(eig.values[3]), float(eig.values[4]))
        approx = power_embedding(eig, 4, p, 0)
        assert projection_distance(exact, approx) <= eps

    def test_rank_collapse_raises(self):
        # K2 with k = 2: I + N has eigenvalues 2 and 0, so one column dies
        with pytest.raises(NumericError, match="rank collapse"):
            power_embedding(spectrum(complete_graph(2), 2), 2, 3, 0)

    def test_params_validation(self):
        with pytest.raises(InputError, match="at least 1 step"):
            power_embedding(spectrum(complete_graph(4), 2), 2, 0, 0)

    def test_needs_the_spectrum_operator(self):
        with pytest.raises(InputError, match="spectrum"):
            power_embedding(sym_eig(dense_laplacian(complete_graph(4))), 2, 3, 0)

    def test_step_cap_raises_before_any_matvec(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a matvec ran")
        eig = spectrum(complete_graph(4), 2)
        monkeypatch.setattr(LaplacianOps, "apply_shifted", refuse)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="1000000000 steps"):
            power_embedding(eig, 2, steps=10**9, seed=0)
        assert time.perf_counter() - start < 1.0

    def test_matvec_route_follows_the_budget(self, monkeypatch):
        """The steps continue on a numpy spectrum operator while steps * k
        columns fit NUMPY_MAX_WORK and on its on_scipy() form past it; a
        scipy spectrum operator (ARPACK ran) is kept at any budget; the same
        subspace every way."""
        g, _ = gen_ring_of_cliques(3, 20, 1, seed=3)
        numpy_eig = spectrum(g, 3)
        monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", 0)
        scipy_eig = spectrum(g, 3)
        assert numpy_eig.ops._adj is None and scipy_eig.ops._adj is not None
        routes = []
        real_on_scipy = LaplacianOps.on_scipy

        def spy(self):
            routes.append(self)
            return real_on_scipy(self)

        monkeypatch.setattr(LaplacianOps, "on_scipy", spy)
        work = 30 * 3 * 2 * g.m
        embeddings = []
        for eig, budget in ((numpy_eig, work), (numpy_eig, work - 1), (scipy_eig, 10 ** 12)):
            monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", budget)
            embeddings.append(power_embedding(eig, 3, 30, 1))
        assert routes == [numpy_eig.ops]
        for emb in embeddings[1:]:
            assert projection_distance(embeddings[0], emb) <= 1e-10

    def test_steps_past_the_budget_reuse_the_spectrum_csr(self, monkeypatch):
        """Past the budget the steps run on eig.ops' scipy form, over its
        index array, and build no operator; eig.ops stays on numpy, so a
        later run within the budget is the same as on a fresh spectrum."""
        g, _ = gen_ring_of_cliques(3, 20, 1, seed=3)
        eig = spectrum(g, 3)
        numpy_ops = eig.ops
        built, applied = [], []
        real_init, real_shifted = LaplacianOps.__init__, LaplacianOps.apply_shifted

        def init_spy(self, graph):
            built.append(graph)
            real_init(self, graph)

        def shifted_spy(self, x):
            applied.append(self)
            return real_shifted(self, x)

        monkeypatch.setattr(LaplacianOps, "__init__", init_spy)
        monkeypatch.setattr(LaplacianOps, "apply_shifted", shifted_spy)
        monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", 0)
        power_embedding(eig, 3, 30, 1)
        assert built == [] and len(applied) == 30
        assert applied[0]._adj is not None and all(ops is applied[0] for ops in applied)
        assert np.shares_memory(applied[0]._adj.indices, numpy_ops._indices)
        assert eig.ops is numpy_ops and numpy_ops._adj is None
        monkeypatch.undo()
        again = power_embedding(eig, 3, 30, 1)
        fresh = power_embedding(spectrum(g, 3), 3, 30, 1)
        assert np.array_equal(again.basis, fresh.basis)
        assert np.array_equal(again.coords, fresh.coords)


class TestProjectionDistance:
    def test_equal_bases(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 3)))
        assert projection_distance(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_spans(self):
        eye = np.eye(8)
        a, b = eye[:, :3], eye[:, 3:6]
        assert projection_distance(a, b) == pytest.approx(np.sqrt(6))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert projection_distance(q, q @ rot) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            projection_distance(np.eye(4)[:, :2], np.eye(5)[:, :2])

    def test_projector_difference_identity(self):
        # ||UU^T - AA^T UU^T||_F == ||U - AA^T U||_F for orthonormal U, A
        rng = np.random.default_rng(2)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((12, 3)))
            a, _ = np.linalg.qr(rng.standard_normal((12, 5)))
            proj = a @ a.T
            lhs = np.linalg.norm(u @ u.T - proj @ u @ u.T)
            rhs = np.linalg.norm(u - proj @ u)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestWeightedPointset:
    def test_k2(self):
        emb, _ = exact_embedding(complete_graph(2), 1)
        assert isinstance(emb, WeightedPoints)
        assert emb.n == 2 and emb.dim == emb.k == 1
        assert emb.weights.tolist() == [1.0, 1.0]

    def test_k4_total_weight(self):
        emb, _ = exact_embedding(complete_graph(4), 2)
        assert emb.weights.tolist() == [3.0] * 4
        assert emb.weights.sum() == 12  # 2m

    def test_ring_total_weight(self):
        g, _ = gen_ring_of_cliques(2, 3, 1, seed=0)
        emb, _ = exact_embedding(g, 2)
        assert emb.weights.sum() == 14  # 2m with m = 7

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(InputError, match="weights"):
            Embedding(coords=np.zeros((2, 1)), weights=np.array([1.0, 0.0]),
                      basis=np.zeros((2, 1)))

    @pytest.mark.parametrize("graph", ["ring", "sbm"])
    @pytest.mark.parametrize("route", ["exact", "power"])
    def test_kmeans_routines_match_plain_points(self, graph, route):
        if graph == "ring":
            g, _ = gen_ring_of_cliques(3, 4, 1, seed=2)
        else:
            g, _ = gen_sbm([4, 4, 5], 0.9, 0.15, seed=6)
        if route == "exact":
            emb, _ = exact_embedding(g, 3)
        else:
            emb = power_embedding(spectrum(g, 3), 3, 15, 1)
        plain = WeightedPoints(emb.coords, emb.weights)
        for fn in (lambda p: best_of_orss(p, 3, 5, restarts=4),
                   lambda p: optimal_cost_bruteforce(p, 3)[1]):
            got, want = fn(emb), fn(plain)
            assert got.cost == want.cost
            assert np.array_equal(got.labels, want.labels)
        assert separation_ratio(emb, 3, 0) == separation_ratio(plain, 3, 0)


class TestDuplicatedCopyEquivalence:
    def test_frobenius_transfer_identity(self):
        # materialize the degree-duplicated row matrices on a small graph and
        # compare projector distances in both representations
        g, _ = gen_ring_of_cliques(2, 3, 1, seed=0)
        exact, eig = exact_embedding(g, 2)
        approx = power_embedding(eig, 2, 6, 3)

        def duplicated(emb):
            rows = [np.repeat(emb.coords[[u]], int(emb.weights[u]), axis=0)
                    for u in range(emb.n)]
            return np.vstack(rows)

        yp, wyp = duplicated(exact), duplicated(approx)
        lhs = np.linalg.norm(yp @ yp.T - wyp @ wyp.T)
        rhs = np.linalg.norm(exact.basis @ exact.basis.T -
                             approx.basis @ approx.basis.T)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestSpectrumInvariants:
    def test_eigenvalue_range_and_kernel(self):
        g, _ = gen_sbm([8, 8, 8], 0.6, 0.1, seed=4)
        _, eig = exact_embedding(g, 3)
        assert eig.values[0] == pytest.approx(0.0, abs=1e-10)
        assert eig.values.min() >= -1e-10
        assert eig.values.max() <= 2.0 + 1e-10

    def test_zero_multiplicity_equals_components(self):
        g, _ = disjoint_cliques(4, 3)
        _, eig = exact_embedding(g, 4)
        assert int(np.sum(np.abs(eig.values) < 1e-8)) == 4



@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: required_power_steps(0, 2, 0.1, 0.1, 0.1, 0.5),
                 "n and k must be positive", id="steps-n"),
    pytest.param(lambda: required_power_steps(10, 0, 0.1, 0.1, 0.1, 0.5),
                 "n and k must be positive", id="steps-k"),
    pytest.param(lambda: power_embedding(spectrum(complete_graph(4), 2), 0, 1, 0),
                 "k must be in [1, n]", id="power-k"),
    pytest.param(lambda: power_embedding(spectrum(complete_graph(4), 2), 5, 1, 0),
                 "k must be in [1, n]", id="power-k-above-n"),
])
def test_input_checks(call, message):
    """Public-API input checks that no other test reaches."""
    with pytest.raises(InputError, match=re.escape(message)):
        call()
