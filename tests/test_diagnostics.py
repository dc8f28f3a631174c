import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from spectralpart import diagnostics
from spectralpart import (CapacityError, EigenSystem, GapError, Graph,
                          InputError, Partition, SpanCollapseError,
                          block_conductances, bruteforce_partition_constants,
                          characteristic_vectors, coeff_matrices, conductance,
                          estimation_centers, exact_embedding, gap_report,
                          gen_ring_of_cliques, gen_sbm, inter_connection,
                          run_theorem_checks, volume)
from conftest import (complete_graph, cycle_graph, dense_laplacian,
                      disjoint_cliques, path_graph, random_connected_graph,
                      ring_of_cliques, triangles_with_hub13)


def triangles_with_center():
    """Three triangles plus a hub vertex attached to one vertex of each.

    The best 3 disjoint sets are the triangles (max conductance 1/7), but any
    3-way partition must absorb the hub and pays 1/5.
    """
    tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8)]
    g = Graph(10, tri + [(0, 9), (3, 9), (6, 9)])
    return g


def oracle_constants(g, k):
    """(rho, rho_hat, rho_avr, set of optimal tuples) from every labelling in
    range(-1, k)^n, with exact Fractions. Relabelling blocks changes no
    conductance, so only canonical labellings (blocks first used in order
    0, 1, ..., k-1; -1 = uncovered) are scored."""
    edges = g.edges.tolist()
    deg = g.degrees.tolist()
    rho = rho_hat = rho_avr = None
    tuples = set()
    for labels in itertools.product(range(-1, k), repeat=g.n):
        try:
            firsts = [labels.index(b) for b in range(k)]
        except ValueError:  # an empty block
            continue
        if firsts != sorted(firsts):
            continue
        cut = [0] * k
        vol = [0] * k
        for v, b in enumerate(labels):
            if b >= 0:
                vol[b] += deg[v]
        for u, v in edges:
            a, b = labels[u], labels[v]
            if a != b:
                if a >= 0:
                    cut[a] += 1
                if b >= 0:
                    cut[b] += 1
        phis = [Fraction(c, w) for c, w in zip(cut, vol)]
        worst = max(phis)
        if rho is None or worst < rho:
            rho, tuples = worst, set()
        if worst == rho:
            tuples.add(labels)
        if -1 not in labels:
            avg = sum(phis) / k
            if rho_hat is None or (worst, avg) < (rho_hat, rho_avr):
                rho_hat, rho_avr = worst, avg
    return rho, rho_hat, rho_avr, tuples


class TestCharacteristicVectors:
    def test_orthonormal(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        gbar = characteristic_vectors(g, p)
        assert np.abs(gbar.T @ gbar - np.eye(2)).max() < 1e-12

    def test_rayleigh_matches_conductance(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        gbar = characteristic_vectors(g, p)
        ops_quad = []
        lap = dense_laplacian(g)
        for i in range(2):
            ops_quad.append(gbar[:, i] @ lap @ gbar[:, i])
        assert ops_quad == pytest.approx([1 / 7, 1 / 7], abs=1e-9)

    def test_disjoint_cliques_zero_quadratic(self):
        g, p = disjoint_cliques(2, 4)
        gbar = characteristic_vectors(g, p)
        lap = dense_laplacian(g)
        for i in range(2):
            assert gbar[:, i] @ lap @ gbar[:, i] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_tuple_mode(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        p = Partition(2, [0, 0, 0, 1, 1, -1], allow_uncovered=True)
        with pytest.raises(InputError):
            characteristic_vectors(g, p)


class TestCoeffMatrices:
    def test_inverse_identity(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        _, eig = exact_embedding(g, 2)
        cm = coeff_matrices(eig, characteristic_vectors(g, p), 2)
        assert np.abs(cm.inverse_coeffs @ cm.indicator_coeffs - np.eye(2)).max() < 1e-6
        assert np.abs(cm.indicator_coeffs @ cm.inverse_coeffs - np.eye(2)).max() < 1e-6

    def test_disjoint_cliques_orthogonal(self):
        g, p = disjoint_cliques(3, 4)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p), 3)
        # indicator span equals the kernel eigenspace, so the coefficient
        # matrix is orthogonal and its inverse is its transpose
        assert np.abs(cm.indicator_coeffs.T @ cm.indicator_coeffs - np.eye(3)).max() < 1e-9
        assert np.abs(cm.inverse_coeffs - cm.indicator_coeffs.T).max() < 1e-9

    def test_unconditional_projection_bound(self):
        g, p = gen_ring_of_cliques(3, 20, 1, seed=0)
        emb, eig = exact_embedding(g, 3)
        gbar = characteristic_vectors(g, p)
        cm = coeff_matrices(eig, gbar, 3)
        proj = eig.vectors[:, :3] @ cm.indicator_coeffs
        lam4 = float(eig.values[3])
        for i in range(3):
            lhs = np.sum((gbar[:, i] - proj[:, i]) ** 2)
            phi = float(conductance(g, p.labels == i))
            assert lhs <= phi / lam4 + 1e-9

    def test_span_collapse(self):
        vectors = np.eye(4)
        values = np.array([0.0, 0.1, 1.0, 1.5])
        eig = EigenSystem(values=values, vectors=vectors)
        gbar = np.zeros((4, 2))
        gbar[:, 0] = [1.0, 0.0, 0.0, 0.0]
        gbar[:, 1] = [0.0, 0.0, 0.0, 1.0]  # projects to ~0 in the first 2 coords
        with pytest.raises(SpanCollapseError):
            coeff_matrices(eig, gbar, 2)


class TestEstimationCenters:
    def test_disjoint_cliques_norm(self):
        g, p = disjoint_cliques(3, 4)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p), 3)
        vols = [volume(g, p.labels == i) for i in range(3)]
        centers = estimation_centers(cm, vols)
        for i in range(3):
            assert np.sum(centers[i] ** 2) == pytest.approx(1 / vols[i], abs=1e-12)

    def test_disjoint_cliques_pairwise_distance(self):
        g, p = disjoint_cliques(3, 5)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p), 3)
        vols = [volume(g, p.labels == i) for i in range(3)]
        centers = estimation_centers(cm, vols)
        for i in range(3):
            for j in range(i + 1, 3):
                dist2 = np.sum((centers[i] - centers[j]) ** 2)
                assert dist2 >= 1 / (2 * min(vols[i], vols[j]))

    def test_ring_instance_measured_bounds(self):
        # strong-but-finite gap: norms stay within 5% of 1/volume and the
        # pairwise separation floor holds with margin
        g, p = gen_ring_of_cliques(3, 50, 1, seed=2)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p), 3)
        vols = [volume(g, p.labels == i) for i in range(3)]
        centers = estimation_centers(cm, vols)
        for i in range(3):
            assert abs(np.sum(centers[i] ** 2) * vols[i] - 1) < 0.05
            for j in range(i + 1, 3):
                dist2 = np.sum((centers[i] - centers[j]) ** 2)
                assert dist2 >= 1 / (2 * min(vols[i], vols[j]))

    def test_volume_validation(self):
        from spectralpart import CoeffMatrices
        cm = CoeffMatrices(indicator_coeffs=np.eye(2), inverse_coeffs=np.eye(2),
                           condition=1.0)
        with pytest.raises(InputError):
            estimation_centers(cm, [4.0, 0.0])


class TestGapReport:
    def test_disjoint_cliques_infinite_sentinel(self):
        g, p = disjoint_cliques(2, 4)
        _, eig = exact_embedding(g, 2)
        rep = gap_report(g, 2, p, eig)
        assert rep.psi == math.inf and rep.upsilon == math.inf
        assert rep.delta == 0.0 and not rep.delta_clamped

    def test_small_graph_uses_reference(self):
        # an unbalanced split of a path: its proxies are its own conductances,
        # not the optimal partition's
        g = path_graph(8)
        p = Partition(2, [0] * 3 + [1] * 5)
        _, eig = exact_embedding(g, 2)
        rep = gap_report(g, 2, p, eig)
        phis = block_conductances(g, p)
        assert rep.rho_avr_proxy == float(sum(phis) / 2)
        assert rep.phi_proxy == float(max(phis))
        assert rep.phi_proxy > bruteforce_partition_constants(g, 2).rho_hat

    def test_consistency_identity(self):
        g, p = gen_ring_of_cliques(3, 20, 1, seed=1)
        _, eig = exact_embedding(g, 3)
        rep = gap_report(g, 3, p, eig)
        lam = float(eig.values[3])
        assert rep.psi * rep.rho_avr_proxy == pytest.approx(lam, abs=1e-9)
        assert rep.upsilon * rep.phi_proxy == pytest.approx(lam, abs=1e-9)

    def test_no_gap_error(self):
        g, _ = disjoint_cliques(3, 3)
        p = Partition(2, [0] * 3 + [1] * 6)
        _, eig = exact_embedding(g, 2)
        with pytest.raises(GapError):
            gap_report(g, 2, p, eig)  # lambda_3 = 0: three components
        with pytest.raises(GapError):
            run_theorem_checks(g, 2, p)

    def test_block_count_mismatch(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        _, eig = exact_embedding(g, 2)
        with pytest.raises(InputError):
            gap_report(g, 3, p, eig)


class TestBruteforceConstants:
    def test_two_triangles_bridge(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        consts = bruteforce_partition_constants(g, 2)
        assert consts.rho_exact == Fraction(1, 7)
        assert consts.rho_hat_exact == Fraction(1, 7)
        assert consts.rho_avr_exact == Fraction(1, 7)

    def test_sandwich_and_eigenvalue_bounds(self):
        rng = np.random.default_rng(20)
        done = 0
        while done < 8:
            g = random_connected_graph(int(rng.integers(6, 10)), 0.45, rng)
            if g is None:
                continue
            for k in (2, 3):
                consts = bruteforce_partition_constants(g, k)
                assert consts.rho_exact <= consts.rho_hat_exact <= k * consts.rho_exact
                _, eig = exact_embedding(g, k)
                assert float(eig.values[k - 1]) / 2 <= consts.rho + 1e-9
            done += 1

    def test_capacity(self):
        g = path_graph(15)
        with pytest.raises(CapacityError):
            bruteforce_partition_constants(g, 2)

    def test_optimal_tuples_capacity(self):
        # On K14 at k = 4 every partition into blocks of at least 3 vertices
        # ties: 5.8M optimal tuples, which took 110 s and 1.1 GB uncapped.
        with pytest.raises(CapacityError, match="optimal k-tuples"):
            bruteforce_partition_constants(complete_graph(14), 4)

    def test_matches_labelling_oracle(self):
        rng = np.random.default_rng(7)
        cases = [(triangles_with_center(), 3)]  # the only one with rho < rho_hat
        while len(cases) < 21:
            g = random_connected_graph(int(rng.integers(5, 9)), 0.5, rng)
            if g is not None:
                cases += [(g, 2), (g, 3)]
        for g, k in cases:
            consts = bruteforce_partition_constants(g, k)
            got = (consts.rho_exact, consts.rho_hat_exact, consts.rho_avr_exact,
                   set(consts.optimal_tuples))
            assert got == oracle_constants(g, k)
            assert len(set(consts.optimal_tuples)) == len(consts.optimal_tuples)


def planted_ten():
    """Blocks {0,1,2}, {3,4,5}, {6,7}, {8,9}, one edge between consecutive
    blocks and one chord."""
    return Graph(10, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (8, 9),
                      (2, 3), (5, 6), (7, 8), (9, 0), (1, 4)])


#: (graph, k, (rho, rho_hat, rho_avr), optimal_tuples, inter-connection) as
#: computed by the recursive labelling scan (hub13 by the subset DP); the
#: inter-connection entry is None where it is not pinned, else (degenerate,
#: rho_p, kappa, witness partition, witness tuple).
PARITY_PINS = {
    "hub10": (triangles_with_center, 3,
              (Fraction(1, 7), Fraction(1, 5), Fraction(17, 105)),
              ((0, 0, 0, 1, 1, 1, 2, 2, 2, -1),),
              (False, Fraction(1, 2), 2.0, [0, 0, 0, 1, 1, 1, 2, 2, 2, 0],
               [0, 0, 0, 1, 1, 1, 2, 2, 2, -1])),
    "hub13": (triangles_with_hub13, 4,
              (Fraction(1, 7), Fraction(3, 11), Fraction(27, 154)),
              ((0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, -1),),
              (False, Fraction(2, 3), 3.0, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0],
               [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, -1])),
    "planted10": (planted_ten, 4,
                  (Fraction(1, 2), Fraction(1, 2), Fraction(5, 12)),
                  ((0, 0, 0, 1, 1, 1, 2, 2, 3, 3),),
                  (True, None, None, None, None)),
    "ring11": (lambda: ring_of_cliques([4, 4, 3]), 3,
               (Fraction(1, 4), Fraction(1, 4), Fraction(5, 28)),
               ((0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2),), None),
    "ring9": (lambda: ring_of_cliques([3, 3, 3]), 3,
              (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
              ((0, 0, 0, 1, 1, 1, 2, 2, 2),),
              (True, None, None, None, None)),
    "ring12": (lambda: ring_of_cliques([3, 3, 3, 3]), 4,
               (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
               ((0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3),), None),
}


@pytest.mark.parametrize("name", sorted(PARITY_PINS))
def test_constants_parity_pins(name):
    make, k, exact, tuples, inter = PARITY_PINS[name]
    g = make()
    consts = bruteforce_partition_constants(g, k)
    assert (consts.rho_exact, consts.rho_hat_exact, consts.rho_avr_exact) == exact
    assert (consts.rho, consts.rho_hat, consts.rho_avr) == tuple(map(float, exact))
    assert consts.optimal_tuples == tuples
    if inter is None:
        return
    got = inter_connection(g, k, constants=consts)
    witnesses = [None if w is None else w.labels.tolist()
                 for w in (got.witness_partition, got.witness_tuple)]
    assert (got.degenerate, got.rho_p_exact, got.kappa, *witnesses) == inter


@pytest.mark.parametrize("g, k", [(path_graph(9), 3), (cycle_graph(8), 2),
                                  (complete_graph(6), 3)])
def test_optimal_tuples_in_labelling_order(g, k):
    """Tuples come out in lexicographic labelling order with -1 first, the
    order inter_connection's first-best witness depends on."""
    consts = bruteforce_partition_constants(g, k)
    assert len(consts.optimal_tuples) > 1
    assert list(consts.optimal_tuples) == sorted(oracle_constants(g, k)[3])


class TestInterConnection:
    def test_triangles_with_center(self):
        g = triangles_with_center()
        inter = inter_connection(g, 3)
        assert not inter.degenerate
        assert inter.rho == pytest.approx(1 / 7)
        assert inter.rho_hat == pytest.approx(1 / 5)
        assert inter.rho_p_exact == Fraction(1, 2)
        assert inter.kappa == pytest.approx(2.0)
        # range bound: 0 < rho_p <= 1 - 1/(k-1)
        assert 0 < inter.rho_p <= 1 - 1 / 2
        # witness inequalities, exact arithmetic
        kappa = Fraction(1, 1) / (1 - inter.rho_p_exact)
        phi_z = [conductance(g, inter.witness_tuple.labels == i) for i in range(3)]
        phi_p = [conductance(g, inter.witness_partition.labels == i) for i in range(3)]
        for i in range(3):
            assert phi_p[i] <= kappa * phi_z[i]
        assert sum(phi_p) / 3 <= kappa / 3 * sum(phi_z)
        assert inter.rho_avr_tilde == pytest.approx(float(sum(phi_p) / 3))

    def test_objective_rules(self, two_triangles_bridge):
        """The has-S rule and the zero-denominator rule of the objective."""
        def score(g, blocks, cores):
            def mask(vs):
                return sum(1 << v for v in vs)
            cut, vol = (t.tolist() for t in diagnostics._subset_tables(g))
            return diagnostics._phi_ic_exact(cut, vol, [mask(b) for b in blocks],
                                             [mask(z) for z in cores])

        g, _ = two_triangles_bridge
        # No block gains a vertex: the pair carries no constraint.
        assert score(g, [[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3, 4, 5]]) is None
        # Only blocks with a nonempty S count: block 1's (1 - 3) / 1, not block 0's 0.
        assert score(g, [[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3, 4]])[0] == -2
        cliques, _ = disjoint_cliques(3, 3)
        # cut(P) = 0: ratio 0 when cut(Z) = 0 too, else -inf (no ratio at all).
        assert score(cliques, [range(6), range(6, 9)], [range(3), range(6, 9)]) == (0, 0)
        assert score(cliques, [range(3), range(3, 9)], [range(3), [3, 4, 6, 7, 8]])[0] \
            == Fraction(-10 ** 9)

    def test_degenerate_marker(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        inter = inter_connection(g, 2)
        assert inter.degenerate
        assert inter.rho_p is None

    def test_capacity(self):
        g = path_graph(15)
        with pytest.raises(CapacityError):
            inter_connection(g, 3)

    def test_work_capacity(self, monkeypatch):
        # hub10's one optimal tuple leaves the hub free: 3 completions.
        monkeypatch.setattr(diagnostics, "INTERCONNECT_MAX_WORK", 2)
        with pytest.raises(CapacityError, match="3 assignments"):
            inter_connection(triangles_with_center(), 3)

    def test_precomputed_constants_give_same_result(self):
        g = triangles_with_center()
        consts = bruteforce_partition_constants(g, 3)
        assert (consts.rho_exact, consts.rho_hat_exact, consts.rho_avr_exact) == \
            (Fraction(1, 7), Fraction(1, 5), Fraction(17, 105))
        assert consts.optimal_tuples == ((0, 0, 0, 1, 1, 1, 2, 2, 2, -1),)
        for inter in (inter_connection(g, 3), inter_connection(g, 3, constants=consts)):
            assert (inter.rho, inter.rho_hat) == (consts.rho, consts.rho_hat)
            assert inter.rho_p_exact == Fraction(1, 2)
            assert inter.kappa == 2.0
            assert inter.rho_avr_tilde == float(Fraction(17, 105))
            assert inter.witness_partition.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 0]
            assert inter.witness_tuple.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, -1]


class TestRunTheoremChecks:
    def test_disjoint_cliques_all_applicable_pass(self):
        g, p = disjoint_cliques(3, 4)
        records = run_theorem_checks(g, 3, p, seed=0)
        assert all(r.passed for r in records if r.hypothesis_met)
        by_name = {r.name: r for r in records}
        # infinite gap: closeness bounds collapse to ~0 and still hold
        assert by_name["indicator_vs_projection[0]"].lhs <= 1e-9
        assert by_name["eigenvector_vs_indicator_mix[0]"].hypothesis_met
        assert by_name["merge_cost_floor"].hypothesis_met
        assert by_name["merge_cost_floor"].rhs >= 1 / 12

    def test_ring_instance_all_applicable_pass(self):
        g, p = gen_ring_of_cliques(3, 50, 1, seed=3)
        records = run_theorem_checks(g, 3, p, seed=0)
        assert all(r.passed for r in records if r.hypothesis_met)
        names = [r.name for r in records]
        assert names[:3] == ["indicator_vs_projection[%d]" % i for i in range(3)]
        assert "planted_center_cost" in names and "merge_cost_floor" in names

    def test_low_gap_clique_not_applicable(self):
        g = complete_graph(12)
        p = Partition(3, [0] * 4 + [1] * 4 + [2] * 4)
        records = run_theorem_checks(g, 3, p, seed=0)
        by_name = {r.name: r for r in records}
        assert not by_name["eigenvector_vs_indicator_mix[0]"].hypothesis_met
        assert not by_name["center_row_norm[0]"].hypothesis_met
        # the projection bound holds with no hypothesis
        for i in range(3):
            rec = by_name["indicator_vs_projection[%d]" % i]
            assert rec.hypothesis_met and rec.passed

    def test_clustered_records(self):
        g, p = gen_ring_of_cliques(3, 20, 1, seed=4)
        records = run_theorem_checks(g, 3, p, clustered=p, alpha=1.0, seed=0)
        by_name = {r.name: r for r in records}
        for i in range(3):
            vol_rec = by_name["recovered_volume_diff[%d]" % i]
            assert vol_rec.lhs == 0.0 and vol_rec.passed
            phi_rec = by_name["recovered_conductance[%d]" % i]
            assert phi_rec.passed

    def test_deterministic(self):
        g, p = gen_ring_of_cliques(3, 12, 1, seed=5)
        a = run_theorem_checks(g, 3, p, seed=9)
        b = run_theorem_checks(g, 3, p, seed=9)
        assert a == b

    def test_precomputed_embedding_gives_same_records(self):
        g, p = gen_ring_of_cliques(3, 12, 1, seed=5)
        assert run_theorem_checks(g, 3, p, seed=9, exact=exact_embedding(g, 3)) == \
            run_theorem_checks(g, 3, p, seed=9)

    def test_unconditional_bound_random_sbm_sample(self):
        # a slice of the acceptance criterion: 10 seeded SBM instances
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            k = int(rng.integers(2, 5))
            sizes = rng.integers(8, 20, size=k).tolist()
            g, p = gen_sbm(sizes, 0.6, 0.05, seed=seed)
            records = run_theorem_checks(g, k, p, seed=seed)
            for r in records:
                if r.name.startswith("indicator_vs_projection"):
                    assert r.passed
