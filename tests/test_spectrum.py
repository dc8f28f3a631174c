"""The spectrum stage against the dense sym_eig oracle on both iterative
routes (the numpy block Krylov solver within NUMPY_MAX_WORK, ARPACK past
it), and its dense path (n <= BRUTEFORCE_MAX_N) against ARPACK."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from spectralpart import (EigenSystem, Graph, InputError, NumericError, gen_ring_of_cliques,
                          gen_sbm, projection_distance, spectral, spectrum, sym_eig)
from spectralpart.linalg import BRUTEFORCE_MAX_N, ORTHONORMALITY_TOL
from spectralpart.spectral import NUMPY_MAX_WORK, _KRYLOV_BASIS, _SWEEP_WEIGHT
from conftest import (complete_graph, cycle_graph, dense_laplacian, disjoint_cliques,
                      path_graph, planted_ten, random_connected_graph, ring_of_cliques,
                      triangles_with_center)

VALUE_TOL = 1e-10
PROJECTOR_TOL = 1e-8
GAP_FOR_PROJECTOR = 1e-6

LADDER = {
    "ring-100": lambda: (gen_ring_of_cliques(4, 25, 1, seed=1)[0], 4),
    "ring-500": lambda: (gen_ring_of_cliques(5, 100, 2, seed=2)[0], 5),
    "ring-1200": lambda: (gen_ring_of_cliques(6, 200, 2, seed=3)[0], 6),
    "sbm-100": lambda: (gen_sbm([25] * 4, 0.4, 0.03, seed=1)[0], 4),
    "sbm-500": lambda: (gen_sbm([125] * 4, 0.15, 0.02, seed=2)[0], 4),
    "sbm-1200": lambda: (gen_sbm([150] * 8, 0.12, 0.008, seed=1)[0], 8),
    "cliques-4x5": lambda: (disjoint_cliques(4, 5)[0], 4),
    "cliques-6x3": lambda: (disjoint_cliques(6, 3)[0], 3),
    # Double eigenvalues, and a zero of multiplicity 10 at k + 1 = 11 pairs.
    "cycle-50": lambda: (cycle_graph(50), 4),
    "cycle-200": lambda: (cycle_graph(200), 4),
    "cliques-10x30": lambda: (disjoint_cliques(10, 30)[0], 10),
}


@pytest.fixture
def arpack_route(monkeypatch):
    """Give numpy no work, so every graph above the dense rule takes the
    scipy CSR and ARPACK."""
    monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", 0)


def assert_matches_oracle(g, k):
    eig = spectrum(g, k)
    oracle = sym_eig(dense_laplacian(g))
    pairs = min(k + 1, g.n)
    assert eig.n == pairs
    assert eig.vectors.shape == (g.n, pairs)
    assert np.abs(eig.values - oracle.values[:pairs]).max() <= VALUE_TOL
    # Every eigenspace the k+1 pairs cover completely is pinned down: compare
    # projectors up to each cut that falls in a gap.
    for cut in range(1, pairs + 1):
        if cut < g.n and oracle.values[cut] - oracle.values[cut - 1] > GAP_FOR_PROJECTOR:
            assert projection_distance(eig.vectors[:, :cut],
                                       oracle.vectors[:, :cut]) <= PROJECTOR_TOL
    return eig


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_matches_dense_oracle(monkeypatch, name):
    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK called within NUMPY_MAX_WORK")

    monkeypatch.setattr(sparse_linalg, "eigsh", no_arpack)
    assert_matches_oracle(*LADDER[name]())


@pytest.mark.parametrize("name", sorted(LADDER))
def test_arpack_ladder_matches_dense_oracle(arpack_route, name):
    g, k = LADDER[name]()
    assert_matches_oracle(g, k)


def counting_eigsh(monkeypatch):
    """Patch eigsh to record the k of every call; returns the record."""
    calls = []
    real = sparse_linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(sparse_linalg, "eigsh", counting)
    return calls


def test_graph_past_the_budget_uses_arpack(monkeypatch):
    """A graph whose first Krylov basis alone costs more than NUMPY_MAX_WORK
    goes straight to ARPACK; the block Krylov solver (with the budget raised)
    is the independent check, since a dense oracle at this size is too slow
    for a unit test."""
    size = NUMPY_MAX_WORK // (4 * _SWEEP_WEIGHT * _KRYLOV_BASIS ** 2) + 1
    g, _ = gen_sbm([size] * 4, 24.0 / size, 1.0 / size, seed=4)
    calls = counting_eigsh(monkeypatch)
    eig = spectrum(g, 4)
    assert calls == [5]
    monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", 10 * NUMPY_MAX_WORK)
    krylov = spectrum(g, 4)
    assert calls == [5]
    assert np.abs(eig.values - krylov.values).max() <= VALUE_TOL
    assert projection_distance(eig.vectors, krylov.vectors) <= PROJECTOR_TOL


def test_krylov_handles_pairs_near_n():
    """k + 1 = n - 2: the expansion runs out of new directions and drops them."""
    assert_matches_oracle(path_graph(BRUTEFORCE_MAX_N + 2), BRUTEFORCE_MAX_N - 2)


#: K_24 minus these 27 edges, at k = 15: a restart keeps 16 of the 24
#: columns R^24 holds, and the residuals once offered 9 more.
K24_MISSING = [(0, 2), (0, 3), (0, 11), (0, 13), (0, 19), (2, 3), (2, 8), (2, 16), (3, 20),
               (4, 7), (4, 10), (4, 11), (5, 9), (5, 20), (6, 14), (7, 13), (7, 15), (7, 16),
               (8, 10), (8, 23), (9, 15), (9, 16), (11, 14), (11, 21), (12, 14), (15, 18),
               (15, 23)]


def test_krylov_basis_stays_within_n(monkeypatch):
    """The expansion adds no more columns than R^n has room for. With one
    more, the basis lost orthogonality, its residuals grew, and the solve
    spent the whole budget before ARPACK took over."""
    g = Graph(24, [e for e in itertools.combinations(range(24), 2) if e not in K24_MISSING])
    drifts = []
    real_expansion = spectral._expansion

    def expansion_spy(basis, block):
        drifts.append(np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0))
        return real_expansion(basis, block)

    monkeypatch.setattr(spectral, "_expansion", expansion_spy)
    calls = counting_eigsh(monkeypatch)
    assert_matches_oracle(g, 15)
    assert calls == []
    assert len(drifts) <= 3 and max(drifts) <= ORTHONORMALITY_TOL


def test_stalled_basis_hands_over_to_arpack(monkeypatch):
    """An expansion that adds no column ends the block Krylov solve; ARPACK
    solves once instead."""
    g, k = LADDER["sbm-100"]()
    real_expansion = spectral._expansion

    def stall_after_start(basis, block):
        new = real_expansion(basis, block)
        return new if basis.shape[1] == 0 else new[:, :0]

    monkeypatch.setattr(spectral, "_expansion", stall_after_start)
    calls = counting_eigsh(monkeypatch)
    assert_matches_oracle(g, k)
    assert calls == [k + 1]


def test_small_eigengap_spends_the_budget_then_uses_arpack(monkeypatch):
    """A long cycle (double eigenvalues, eigengaps ~ 1/n^2) needs far more
    Krylov work than NUMPY_MAX_WORK: the solve moves to ARPACK and returns
    exactly what ARPACK alone returns."""
    g = cycle_graph(800)
    calls = counting_eigsh(monkeypatch)
    real_krylov = spectral._block_krylov

    def krylov_spy(ops, pairs):
        found = real_krylov(ops, pairs)
        calls.append("block Krylov gave up" if found is None else "block Krylov solved")
        return found

    monkeypatch.setattr(spectral, "_block_krylov", krylov_spy)
    eig = spectrum(g, 4)
    assert calls == ["block Krylov gave up", 5]
    monkeypatch.setattr(spectral, "_block_krylov", real_krylov)
    monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", 0)
    alone = spectrum(g, 4)
    assert calls == ["block Krylov gave up", 5, 5]
    assert np.array_equal(eig.values, alone.values)
    assert np.array_equal(eig.vectors, alone.vectors)


def test_power_steps_continue_on_the_arpack_operator(monkeypatch):
    """After a solve that spends the budget and runs ARPACK, the power steps
    run on the spectrum's scipy CSR and build no operator of their own."""
    eig = spectrum(cycle_graph(800), 4)
    assert eig.ops._adj is not None
    built, applied = [], []
    real_shifted = spectral.LaplacianOps.apply_shifted

    def shifted_spy(ops, x):
        applied.append(ops)
        return real_shifted(ops, x)

    monkeypatch.setattr(spectral.LaplacianOps, "__init__", lambda *args: built.append(args))
    monkeypatch.setattr(spectral.LaplacianOps, "apply_shifted", shifted_spy)
    emb = spectral.power_embedding(eig, 4, 30, 0)
    assert built == []
    assert len(applied) == 30 and all(ops is eig.ops for ops in applied)
    assert emb.k == 4


def test_arpack_route_builds_one_csr(arpack_route, monkeypatch):
    """ARPACK runs on the scipy form of the operator spectrum built, over
    the same index array; no second operator is built."""
    built = []
    real_init = spectral.LaplacianOps.__init__

    def init_spy(ops, graph):
        built.append(ops)
        real_init(ops, graph)

    monkeypatch.setattr(spectral.LaplacianOps, "__init__", init_spy)
    eig = spectrum(cycle_graph(200), 4)
    assert len(built) == 1 and eig.ops is not built[0] and eig.ops._adj is not None
    assert np.shares_memory(eig.ops._adj.indices, built[0]._indices)


def test_arpack_failure_raises(arpack_route, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise sparse_linalg.ArpackNoConvergence("no convergence", np.empty(0),
                                                np.empty((0, 0)))

    monkeypatch.setattr(sparse_linalg, "eigsh", no_convergence)
    with pytest.raises(NumericError, match="sparse eigensolve failed"):
        spectrum(cycle_graph(200), 4)


def test_zero_multiplicity_of_disjoint_cliques():
    g, _ = disjoint_cliques(5, 4)
    eig = assert_matches_oracle(g, 5)
    assert np.abs(eig.values[:5]).max() <= VALUE_TOL
    assert eig.values[5] == pytest.approx(4 / 3)


@pytest.mark.parametrize("make, k", [
    (lambda: complete_graph(4), 2),
    (lambda: path_graph(5), 3),
    (lambda: complete_graph(3), 3),
    # n <= BRUTEFORCE_MAX_N with k+1 < n-1: dense by the size rule alone.
    pytest.param(lambda: path_graph(BRUTEFORCE_MAX_N), 2, id="path14-2"),
    pytest.param(triangles_with_center, 3, id="hub10-3"),
])
def test_tiny_graphs_take_the_dense_branch(monkeypatch, make, k):
    def no_iterative(*args, **kwargs):
        raise AssertionError("iterative solve at n <= BRUTEFORCE_MAX_N or k+1 >= n-1")

    monkeypatch.setattr(sparse_linalg, "eigsh", no_iterative)
    monkeypatch.setattr(spectral, "_block_krylov", no_iterative)
    assert_matches_oracle(make(), k)


def test_small_graph_above_the_rule_uses_arpack(arpack_route, monkeypatch):
    calls = counting_eigsh(monkeypatch)
    assert_matches_oracle(path_graph(BRUTEFORCE_MAX_N + 2), 2)
    assert calls == [3]


def arpack_reference(g, pairs):
    """Lowest eigenpairs of the sparse normalized Laplacian straight from
    ARPACK: one more than ``pairs`` where n allows, so a cut at ``pairs`` can
    be tested for a gap."""
    u, v = g.edges[:, 0], g.edges[:, 1]
    adj = sparse.csr_array((np.ones(2 * g.m), (np.r_[u, v], np.r_[v, u])), shape=(g.n, g.n))
    inv_sqrt_d = sparse.diags_array(1.0 / np.sqrt(adj.sum(axis=1)))
    lap = sparse.eye_array(g.n) - inv_sqrt_d @ adj @ inv_sqrt_d
    want = min(pairs + 1, g.n - 1)
    values, vectors = sparse_linalg.eigsh(lap, k=want, which="SA", tol=0,
                                          v0=np.linspace(1.0, 2.0, g.n))
    order = np.argsort(values)
    return values[order], vectors[:, order]


def _random_small_graphs(count, seed):
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        g = random_connected_graph(int(rng.integers(8, BRUTEFORCE_MAX_N + 1)), 0.35, rng)
        if g is not None:
            graphs.append((g, int(rng.integers(2, 5))))
    return graphs


@pytest.mark.parametrize("g, k", [
    (triangles_with_center(), 3),
    (ring_of_cliques([3, 3, 3]), 3),
    (ring_of_cliques([4, 4, 3]), 3),
    (planted_ten(), 4),
] + _random_small_graphs(20, seed=11))
def test_dense_path_matches_arpack(g, k):
    """At n <= BRUTEFORCE_MAX_N spectrum and the oracle both run sym_eig, so
    ARPACK on the sparse matrix is the independent check."""
    eig = spectrum(g, k)
    values, vectors = arpack_reference(g, eig.n)
    assert np.abs(eig.values - values[:eig.n]).max() <= VALUE_TOL
    for cut in range(1, eig.n + 1):
        if cut < len(values) and values[cut] - values[cut - 1] > GAP_FOR_PROJECTOR:
            assert projection_distance(eig.vectors[:, :cut], vectors[:, :cut]) <= PROJECTOR_TOL


def test_dense_path_keeps_the_gates(monkeypatch):
    real = spectral.sym_eig

    def shifted_values(matrix):
        full = real(matrix)
        return EigenSystem(values=full.values + 1e-3, vectors=full.vectors)

    def repeated_vector(matrix):
        full = real(matrix)
        values, vectors = full.values.copy(), full.vectors.copy()
        values[1], vectors[:, 1] = values[0], vectors[:, 0]
        return EigenSystem(values=values, vectors=vectors)

    g = triangles_with_center()
    monkeypatch.setattr(spectral, "sym_eig", shifted_values)
    with pytest.raises(NumericError, match="residual"):
        spectrum(g, 3)
    monkeypatch.setattr(spectral, "sym_eig", repeated_vector)
    with pytest.raises(NumericError, match="orthonormal"):
        spectrum(g, 3)


def test_two_calls_bit_identical(monkeypatch):
    def assert_repeats(g, k):
        a, b = spectrum(g, k), spectrum(g, k)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    for g, k in (LADDER["sbm-500"](), LADDER["cycle-200"](), (complete_graph(9), 3)):
        assert_repeats(g, k)
    monkeypatch.setattr(spectral, "NUMPY_MAX_WORK", 0)
    assert_repeats(*LADDER["sbm-500"]())


def test_output_contract():
    g, k = LADDER["ring-100"]()
    eig = spectrum(g, k)
    assert np.all(np.diff(eig.values) >= 0)
    assert not eig.values.flags.writeable
    assert not eig.vectors.flags.writeable
    idx = np.argmax(np.abs(eig.vectors), axis=0)
    assert np.all(eig.vectors[idx, np.arange(eig.n)] > 0)


def test_k_out_of_range():
    with pytest.raises(InputError):
        spectrum(complete_graph(4), 5)
    with pytest.raises(InputError):
        spectrum(complete_graph(4), 0)


def test_numpy_route_keeps_the_gates(monkeypatch):
    real = spectral._block_krylov

    def shifted_values(g, pairs):
        ops, theta, vectors = real(g, pairs)
        return ops, theta + 1e-3, vectors

    def repeated_vector(g, pairs):
        ops, theta, vectors = real(g, pairs)
        vectors[:, 1], theta[1] = vectors[:, 0], theta[0]
        return ops, theta, vectors

    g = LADDER["ring-100"]()[0]
    monkeypatch.setattr(spectral, "_block_krylov", shifted_values)
    with pytest.raises(NumericError, match="residual"):
        spectrum(g, 4)
    monkeypatch.setattr(spectral, "_block_krylov", repeated_vector)
    with pytest.raises(NumericError, match="orthonormal"):
        spectrum(g, 4)


def test_residual_check_raises(arpack_route, monkeypatch):
    def wrong_pairs(op, k, **kwargs):
        n = op.shape[0]
        return np.linspace(1.0, 2.0, k), np.eye(n)[:, :k]

    monkeypatch.setattr(sparse_linalg, "eigsh", wrong_pairs)
    with pytest.raises(NumericError, match="residual"):
        spectrum(LADDER["ring-100"]()[0], 4)


def test_orthonormality_check_raises(arpack_route, monkeypatch):
    real = sparse_linalg.eigsh

    def repeated_vector(*args, **kwargs):
        theta, vectors = real(*args, **kwargs)
        vectors[:, 1] = vectors[:, 0]
        theta[1] = theta[0]
        return theta, vectors

    monkeypatch.setattr(sparse_linalg, "eigsh", repeated_vector)
    g, _ = disjoint_cliques(4, 5)
    with pytest.raises(NumericError, match="orthonormal"):
        spectrum(g, 4)
