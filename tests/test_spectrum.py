"""The sparse spectrum stage against the dense sym_eig oracle."""

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg

from spectralpart import (InputError, NumericError, gen_ring_of_cliques,
                          gen_sbm, projection_distance, spectrum, sym_eig)
from conftest import complete_graph, dense_laplacian, disjoint_cliques, path_graph

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
}


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
def test_ladder_matches_dense_oracle(name):
    g, k = LADDER[name]()
    assert_matches_oracle(g, k)


def test_zero_multiplicity_of_disjoint_cliques():
    g, _ = disjoint_cliques(5, 4)
    eig = assert_matches_oracle(g, 5)
    assert np.abs(eig.values[:5]).max() <= VALUE_TOL
    assert eig.values[5] == pytest.approx(4 / 3)


@pytest.mark.parametrize("make, k", [(lambda: complete_graph(4), 2),
                                     (lambda: path_graph(5), 3),
                                     (lambda: complete_graph(3), 3)])
def test_tiny_graphs_take_the_dense_branch(monkeypatch, make, k):
    def no_arpack(*args, **kwargs):
        raise AssertionError("ARPACK called where k+1 >= n-1")

    monkeypatch.setattr(sparse_linalg, "eigsh", no_arpack)
    assert_matches_oracle(make(), k)


def test_small_graph_above_the_rule_uses_arpack(monkeypatch):
    calls = []
    real = sparse_linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(sparse_linalg, "eigsh", counting)
    assert_matches_oracle(path_graph(6), 2)
    assert calls == [3]


def test_two_calls_bit_identical():
    for g, k in (LADDER["sbm-500"](), (complete_graph(9), 3)):
        a, b = spectrum(g, k), spectrum(g, k)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


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


def test_residual_check_raises(monkeypatch):
    def wrong_pairs(op, k, **kwargs):
        n = op.shape[0]
        return np.linspace(1.0, 2.0, k), np.eye(n)[:, :k]

    monkeypatch.setattr(sparse_linalg, "eigsh", wrong_pairs)
    with pytest.raises(NumericError, match="residual"):
        spectrum(LADDER["ring-100"]()[0], 4)


def test_orthonormality_check_raises(monkeypatch):
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
