"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and pins its tolerances inline. The heavy strong-gap instance (three cliques
of 800 in a ring, n = 2400) is built once per module and shared by the
criteria that measure it.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spectralpart import (Graph, best_of_orss, block_conductances,
                          bruteforce_partition_constants,
                          characteristic_vectors, coeff_matrices, conductance,
                          estimation_centers, exact_embedding, gap_report,
                          gaussian_matrix, gen_ring_of_cliques, gen_sbm,
                          inter_connection, optimal_cost_bruteforce,
                          orss_kmeans, power_embedding, projection_distance,
                          required_power_steps, rng_stream, separation_ratio,
                          volume)
from spectralpart.cli import main as cli_main
from conftest import random_connected_graph

TOL = 1e-9


def announce(num, ok, detail):
    print("ACCEPTANCE %d: %s — %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


@pytest.fixture(scope="module")
def big_ring():
    """Strong-gap instance shared by criteria 3-5: ring_of_cliques(3, 800, 1)."""
    t0 = time.time()
    g, p = gen_ring_of_cliques(3, 800, 1, seed=7)
    emb, eig = exact_embedding(g, 3)
    gbar = characteristic_vectors(g, p)
    cm = coeff_matrices(eig, gbar)
    gap = gap_report(g, p, eig)
    sep = separation_ratio(emb, 3, seed=0)
    return {"g": g, "p": p, "emb": emb, "eig": eig, "gbar": gbar, "cm": cm,
            "gap": gap, "sep": sep, "build_seconds": time.time() - t0}


def test_01_unconditional_projection_bound():
    """100 seeded SBM instances: ||gbar_i - proj_i||^2 <= phi_i / lambda_{k+1}."""
    t0 = time.time()
    checked = 0
    for seed in range(100):
        rng = rng_stream(seed, "acceptance", "sbm-params")
        k = [2, 3, 4][seed % 3]
        sizes = rng.integers(15, 200 // k + 1, size=k).tolist()
        g, p = gen_sbm(sizes, 0.5, 0.05, seed=seed)
        assert g.n <= 200
        _, eig = exact_embedding(g, k)
        gbar = characteristic_vectors(g, p)
        lam_k1 = float(eig.values[k])
        fwd = eig.vectors[:, :k].T @ gbar
        proj = eig.vectors[:, :k] @ fwd
        phis = [float(f) for f in block_conductances(g, p)]
        for i in range(k):
            lhs = float(np.sum((gbar[:, i] - proj[:, i]) ** 2))
            rhs = phis[i] / lam_k1 if lam_k1 > 0 else math.inf
            assert lhs <= rhs + TOL, (seed, i, lhs, rhs)
            checked += 1
    announce(1, True, "%d block inequalities over 100 SBM instances (%.1fs)"
             % (checked, time.time() - t0))


def test_02_eigenvector_indicator_closeness():
    """Rings with mild measured gap: ||f_i - mix_i||^2 <= (1 + 3k/psi) k/psi."""
    t0 = time.time()
    k = 3
    worst = 0.0
    for size in (20, 50, 200):
        g, p = gen_ring_of_cliques(k, size, 1, seed=size)
        _, eig = exact_embedding(g, k)
        gbar = characteristic_vectors(g, p)
        gap = gap_report(g, p, eig)
        psi = gap.psi
        assert psi > 4 * k ** 1.5, "gap hypothesis not met at size %d" % size
        cm = coeff_matrices(eig, gbar)
        mix = gbar @ cm.inverse_coeffs
        rhs = (1 + 3 * k / psi) * k / psi
        for i in range(k):
            lhs = float(np.sum((eig.vectors[:, i] - mix[:, i]) ** 2))
            assert lhs <= rhs + TOL, (size, i, lhs, rhs)
            worst = max(worst, lhs / rhs)
    announce(2, True, "3 ring sizes, worst lhs/rhs = %.2e (%.1fs)"
             % (worst, time.time() - t0))


def test_03_row_gram_near_identity(big_ring):
    """Strong gap: rows of the inverse coefficients are near-orthonormal."""
    k = 3
    gap = big_ring["gap"]
    assert gap.psi >= 1e4 * k ** 3, "measured psi %.0f below 10^4 k^3" % gap.psi
    eps = math.sqrt(1e4 * k ** 3 / gap.psi)
    assert 0 < eps < 1
    gram = big_ring["cm"].inverse_coeffs @ big_ring["cm"].inverse_coeffs.T
    diag_dev = max(abs(gram[i, i] - 1) for i in range(k))
    off_dev = max(abs(gram[i, j]) for i in range(k) for j in range(k) if i != j)
    ok = diag_dev <= eps + TOL and off_dev <= math.sqrt(eps) + TOL
    announce(3, ok, "psi=%.0f eps=%.3f diag_dev=%.2e offdiag=%.2e (build %.1fs)"
             % (gap.psi, eps, diag_dev, off_dev, big_ring["build_seconds"]))


def test_04_kmeans_cost_upper_bound(big_ring):
    """Best-of-20 heuristic cost obeys the predicted-center bound."""
    k = 3
    psi = big_ring["gap"].psi
    rhs = (1 + 3 * k / psi) * k ** 2 / psi
    estimate = big_ring["sep"].delta_k  # best-of-20 restarts (n > 12)
    assert big_ring["sep"].method == "restarts"
    ok = estimate <= rhs + TOL
    announce(4, ok, "delta_k estimate %.3e <= bound %.3e" % (estimate, rhs))


def test_05_separation_trend(big_ring):
    """Optimal-cost ratio collapses; merge floor applies when delta is unclamped."""
    sep = big_ring["sep"]
    gap = big_ring["gap"]
    ok = sep.ratio <= 1e-3
    extra = ""
    if not gap.delta_clamped:
        floor = 1 / 12 - (2 * gap.delta / 20 ** 4) / 3
        ok = ok and sep.delta_km1 >= floor - TOL
        extra = "; merge floor %.4f <= delta_2 %.4f" % (floor, sep.delta_km1)
    else:
        extra = "; delta clamp binding at desk scale, floor check n/a (delta_2=%.3f)" \
            % sep.delta_km1
    announce(5, ok, "ratio %.2e <= 1e-3%s" % (sep.ratio, extra))


def test_06_power_method_guarantee():
    """Projector error <= eps for the prescribed step count, >= 90% of seeds."""
    t0 = time.time()
    g, _ = gen_ring_of_cliques(3, 20, 1, seed=3)
    exact, eig = exact_embedding(g, 3)
    eps, delta = 0.01, 0.1
    steps = required_power_steps(g.n, 3, eps, delta,
                                 float(eig.values[2]), float(eig.values[3]))
    hits = 0
    for seed in range(50):
        approx = power_embedding(eig, 3, steps, seed)
        hits += projection_distance(exact, approx) <= eps
    announce(6, hits >= 45, "p=%d, %d/50 seeds within eps=%.2f (%.1fs)"
             % (steps, hits, eps, time.time() - t0))


def test_07_end_to_end_recovery(tmp_path):
    """Power-mode CLI clustering recovers the planted ring partition."""
    t0 = time.time()
    hits = 0
    for seed in range(50):
        out = tmp_path / ("rep_%d.json" % seed)
        code = cli_main(["cluster", "--gen", "ring:k=3,size=50,b=1", "--k", "3",
                         "--mode", "power", "--eps", "0.01", "--delta", "0.1",
                         "--seed", str(seed), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        rel = rep["planted_match"]["relative_sym_diff_volume"]
        pi = rep["planted_match"]["permutation"]
        _, planted = gen_ring_of_cliques(3, 50, 1, seed=seed)
        g, _ = gen_ring_of_cliques(3, 50, 1, seed=seed)
        planted_phis = [float(f) for f in block_conductances(g, planted)]
        phi_ok = all(
            blk["conductance"] <= 1.01 * planted_phis[pi[i]] + 0.01
            for i, blk in enumerate(rep["clustering"]["blocks"]))
        hits += (max(rel) <= 0.01) and phi_ok
    announce(7, hits >= 45, "%d/50 seeds recovered within 1%% (%.1fs)"
             % (hits, time.time() - t0))


def test_08a_orss_vs_oracle():
    """Heuristic cost within 1.1x of brute force on separated instances."""
    t0 = time.time()
    hits = 0
    for seed in range(100):
        rng = rng_stream(seed, "acceptance", "clumps")
        k, n = 3, int(rng.integers(9, 13))
        centers = rng.standard_normal((k, 2)) * 0.1 + np.arange(k)[:, None] * 5.0
        labels = np.sort(np.concatenate([np.arange(k),
                                         rng.integers(0, k, size=n - k)]))
        coords = centers[labels] + 0.02 * rng.standard_normal((n, 2))
        weights = rng.integers(1, 4, size=n).astype(float)
        from spectralpart import WeightedPoints
        pts = WeightedPoints(coords=coords, weights=weights)
        oracle, _ = optimal_cost_bruteforce(pts, k)
        heur = orss_kmeans(pts, k, seed=seed)
        hits += heur.cost <= 1.1 * oracle + TOL
    announce(8, hits >= 90, "(a) %d/100 instances within 1.1x of oracle (%.1fs)"
             % (hits, time.time() - t0))


def _random_small_graphs(count, rng):
    produced = 0
    while produced < count:
        n = int(rng.integers(6, 11))
        g = random_connected_graph(n, 0.4, rng)
        if g is not None:
            yield g
            produced += 1


def test_08b_partition_constant_sandwich():
    """rho <= rho_hat <= k rho and lambda_k / 2 <= rho on random small graphs."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    count = 0
    for idx, g in enumerate(_random_small_graphs(50, rng)):
        k = 2 if idx % 2 == 0 else 3
        consts = bruteforce_partition_constants(g, k)
        assert consts.rho_exact <= consts.rho_hat_exact <= k * consts.rho_exact, idx
        _, eig = exact_embedding(g, k)
        assert float(eig.values[k - 1]) / 2 <= consts.rho + TOL, idx
        count += 1
    announce(8, count == 50, "(b) sandwich + eigenvalue bound on %d graphs (%.1fs)"
             % (count, time.time() - t0))


def _applicable_instances():
    tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)]
    yield Graph(10, tri + [(0, 9), (3, 9), (6, 9)])
    yield Graph(10, tri + [(2, 9), (5, 9), (8, 9)])
    rng = np.random.default_rng(515)
    for g in _random_small_graphs(50, rng):
        yield g


def test_08c_interconnection_bounds():
    """rho_p in (0, 1 - 1/(k-1)] and witness inequalities on every applicable
    instance; the two structured hub graphs guarantee applicability."""
    t0 = time.time()
    k = 3
    applicable = 0
    for g in _applicable_instances():
        inter = inter_connection(bruteforce_partition_constants(g, k))
        if inter.degenerate:
            continue
        applicable += 1
        upper = Fraction(1) - Fraction(1, k - 1)
        assert Fraction(0) < inter.rho_p_exact <= upper
        kappa = 1 / (1 - inter.rho_p_exact)
        phi_z = [conductance(g, inter.witness_tuple == i) for i in range(k)]
        phi_p = [conductance(g, inter.witness_partition.labels == i) for i in range(k)]
        for i in range(k):
            assert phi_p[i] <= kappa * phi_z[i]
        assert sum(phi_p) / k <= kappa / k * sum(phi_z)
    announce(8, applicable >= 2,
             "(c) witness bounds held on all %d applicable instances (%.1fs)"
             % (applicable, time.time() - t0))


def test_09_gaussian_block_properties():
    """rank(V^T S) = k in 1000/1000 trials; sigma_max(S) <= 4 sqrt(n) in >= 99%."""
    t0 = time.time()
    n, rho, k = 40, 10, 4
    basis, _ = np.linalg.qr(rng_stream(99, "acceptance", "basis")
                            .standard_normal((n, rho)))
    full_rank = 0
    norm_ok = 0
    for seed in range(1000):
        s = gaussian_matrix(n, k, seed=seed)
        full_rank += np.linalg.matrix_rank(basis.T @ s) == k
        norm_ok += np.linalg.norm(s, 2) <= 4 * math.sqrt(n)
    ok = full_rank == 1000 and norm_ok >= 990
    announce(9, ok, "rank %d/1000, norm bound %d/1000 (%.1fs)"
             % (full_rank, norm_ok, time.time() - t0))


def test_10_determinism(tmp_path):
    """Identical seeds reproduce every report byte-for-byte except timings."""
    t0 = time.time()
    configs = [
        ["cluster", "--gen", "ring:k=3,size=12,b=1", "--k", "3",
         "--mode", "power", "--seed", "7"],
        ["cluster", "--gen", "sbm:sizes=12+12,pin=0.7,pout=0.05", "--k", "2",
         "--mode", "exact", "--seed", "11"],
        ["diagnose", "--gen", "ring:k=3,size=12,b=1", "--k", "3", "--seed", "3"],
        ["verify", "--gen", "ring:k=2,size=3,b=1", "--k", "2", "--seed", "0"],
    ]
    for idx, base in enumerate(configs):
        texts = []
        for run in ("x", "y"):
            out = tmp_path / ("det_%d_%s.json" % (idx, run))
            assert cli_main(base + ["--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            rep.pop("timings", None)
            rep["config"].pop("out")
            texts.append(json.dumps(rep, sort_keys=False))
        assert texts[0] == texts[1], base
    # generator files are byte-identical too
    a, b = tmp_path / "gen_a.txt", tmp_path / "gen_b.txt"
    for out in (a, b):
        assert cli_main(["generate", "--gen", "sbm:sizes=10+10,pin=0.6,pout=0.1",
                         "--k", "2", "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    announce(10, True, "4 report configs + generator files reproduce (%.1fs)"
             % (time.time() - t0))
