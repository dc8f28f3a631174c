import dataclasses
import itertools
import math
import re
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
                          run_theorem_checks, sym_eig, volume)
from conftest import (complete_graph, cycle_graph, dense_laplacian,
                      disjoint_cliques, path_graph, planted_ten, random_connected_graph,
                      ring_of_cliques, triangles_with_center, triangles_with_hub13)


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


class TestCoeffMatrices:
    def test_inverse_identity(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        _, eig = exact_embedding(g, 2)
        cm = coeff_matrices(eig, characteristic_vectors(g, p))
        assert np.abs(cm.inverse_coeffs @ cm.indicator_coeffs - np.eye(2)).max() < 1e-6
        assert np.abs(cm.indicator_coeffs @ cm.inverse_coeffs - np.eye(2)).max() < 1e-6

    def test_disjoint_cliques_orthogonal(self):
        g, p = disjoint_cliques(3, 4)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p))
        # indicator span equals the kernel eigenspace, so the coefficient
        # matrix is orthogonal and its inverse is its transpose
        assert np.abs(cm.indicator_coeffs.T @ cm.indicator_coeffs - np.eye(3)).max() < 1e-9
        assert np.abs(cm.inverse_coeffs - cm.indicator_coeffs.T).max() < 1e-9

    def test_unconditional_projection_bound(self):
        g, p = gen_ring_of_cliques(3, 20, 1, seed=0)
        emb, eig = exact_embedding(g, 3)
        gbar = characteristic_vectors(g, p)
        cm = coeff_matrices(eig, gbar)
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
            coeff_matrices(eig, gbar)


class TestEstimationCenters:
    def test_disjoint_cliques_norm(self):
        g, p = disjoint_cliques(3, 4)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p))
        vols = [volume(g, p.labels == i) for i in range(3)]
        centers = estimation_centers(cm, vols)
        for i in range(3):
            assert np.sum(centers[i] ** 2) == pytest.approx(1 / vols[i], abs=1e-12)

    def test_disjoint_cliques_pairwise_distance(self):
        g, p = disjoint_cliques(3, 5)
        _, eig = exact_embedding(g, 3)
        cm = coeff_matrices(eig, characteristic_vectors(g, p))
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
        cm = coeff_matrices(eig, characteristic_vectors(g, p))
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
        rep = gap_report(g, p, eig)
        assert rep.psi == math.inf and rep.upsilon == math.inf
        assert rep.delta == 0.0 and not rep.delta_clamped

    def test_small_graph_uses_reference(self):
        # an unbalanced split of a path: its proxies are its own conductances,
        # not the optimal partition's
        g = path_graph(8)
        p = Partition(2, [0] * 3 + [1] * 5)
        _, eig = exact_embedding(g, 2)
        rep = gap_report(g, p, eig)
        phis = block_conductances(g, p)
        assert rep.rho_avr_proxy == float(sum(phis) / 2)
        assert rep.phi_proxy == float(max(phis))
        assert rep.phi_proxy > bruteforce_partition_constants(g, 2).rho_hat

    def test_consistency_identity(self):
        g, p = gen_ring_of_cliques(3, 20, 1, seed=1)
        _, eig = exact_embedding(g, 3)
        rep = gap_report(g, p, eig)
        lam = float(eig.values[3])
        assert rep.psi * rep.rho_avr_proxy == pytest.approx(lam, abs=1e-9)
        assert rep.upsilon * rep.phi_proxy == pytest.approx(lam, abs=1e-9)

    def test_no_gap_error(self):
        g, _ = disjoint_cliques(3, 3)
        p = Partition(2, [0] * 3 + [1] * 6)
        _, eig = exact_embedding(g, 2)
        with pytest.raises(GapError):
            gap_report(g, p, eig)  # lambda_3 = 0: three components
        with pytest.raises(GapError):
            run_theorem_checks(g, p, seed=0)

    def test_block_count_mismatch(self, two_triangles_bridge):
        """A 2-block reference needs 3 eigenpairs; exact_embedding(g, 1) has 2."""
        g, p = two_triangles_bridge
        _, eig = exact_embedding(g, 1)
        with pytest.raises(InputError, match="need at least k\\+1 eigenvalues"):
            gap_report(g, p, eig)


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

    def test_tables_not_compared_or_shown(self):
        """The tables ride along for inter_connection, outside equality and repr."""
        consts = bruteforce_partition_constants(triangles_with_center(), 3)
        cut, vol, phi, part = consts.tables
        assert (len(cut), len(vol), len(phi), len(part)) == (1 << 10, 1 << 10, 1 << 10, 4)
        assert dataclasses.replace(consts, tables=None) == consts
        assert "tables" not in repr(consts)

    def test_matches_labelling_oracle(self):
        """The constants, and the optimal tuples inter_connection lists, equal
        the labelling scan's."""
        rng = np.random.default_rng(7)
        cases = [(triangles_with_center(), 3)]  # the only one with rho < rho_hat
        while len(cases) < 21:
            g = random_connected_graph(int(rng.integers(5, 9)), 0.5, rng)
            if g is not None:
                cases += [(g, 2), (g, 3)]
        for g, k in cases:
            consts = bruteforce_partition_constants(g, k)
            rho, rho_hat, rho_avr, tuples = oracle_constants(g, k)
            assert (consts.rho_exact, consts.rho_hat_exact, consts.rho_avr_exact) == \
                (rho, rho_hat, rho_avr)
            assert optimal_tuples(g, k, consts) == sorted(tuples)


def optimal_tuples(g, k, consts):
    """The labellings diagnostics._optimal_tuples lists for ``consts`` =
    bruteforce_partition_constants(g, k), sorted, after checking that each
    comes with its blocks' bitmasks and its uncovered vertices."""
    rows = diagnostics._optimal_tuples(g.n, k, consts.rho, *consts.tables[2:])
    for labels, cores, free in rows:
        assert cores == [sum(1 << v for v, b in enumerate(labels) if b == i)
                         for i in range(k)]
        assert free == [v for v, b in enumerate(labels) if b < 0]
    return sorted(labels for labels, _, _ in rows)


@pytest.mark.parametrize("g, k", [(path_graph(9), 3), (cycle_graph(8), 2),
                                  (complete_graph(6), 3)])
def test_optimal_tuples_in_labelling_order(g, k):
    """Graphs with several optimal tuples: the canonical labellings listed,
    put in lexicographic order with -1 first, are the labelling scan's."""
    consts = bruteforce_partition_constants(g, k)
    tuples = optimal_tuples(g, k, consts)
    assert len(tuples) > 1
    assert tuples == sorted(oracle_constants(g, k)[3])


#: (graph, k, (rho, rho_hat, rho_avr), optimal tuples, inter-connection) as
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
    assert optimal_tuples(g, k, consts) == list(tuples)
    if inter is None:
        return
    got = inter_connection(consts)
    witnesses = [None, None] if got.degenerate else [
        got.witness_partition.labels.tolist(), got.witness_tuple.tolist()]
    assert (got.degenerate, got.rho_p_exact, got.kappa, *witnesses) == inter


class TestInterConnection:
    def test_triangles_with_center(self):
        g = triangles_with_center()
        inter = inter_connection(bruteforce_partition_constants(g, 3))
        assert not inter.degenerate
        assert inter.rho_p_exact == Fraction(1, 2)
        assert inter.kappa == pytest.approx(2.0)
        # range bound: 0 < rho_p <= 1 - 1/(k-1)
        assert 0 < inter.rho_p <= 1 - 1 / 2
        # witness inequalities, exact arithmetic
        kappa = Fraction(1, 1) / (1 - inter.rho_p_exact)
        phi_z = [conductance(g, inter.witness_tuple == i) for i in range(3)]
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
            cut, vol, _ = (t.tolist() for t in diagnostics._subset_tables(g))
            return diagnostics._phi_ic_exact(cut, vol, [mask(b) for b in blocks],
                                             [mask(z) for z in cores])

        g, _ = two_triangles_bridge
        # Only blocks with a nonempty S count: block 1's (1 - 3) / 1, not block 0's 0.
        assert score(g, [[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3, 4]])[0] == -2
        cliques, _ = disjoint_cliques(3, 3)
        # cut(P) = 0: ratio 0 when cut(Z) = 0 too, else -inf (no ratio at all).
        assert score(cliques, [range(6), range(6, 9)], [range(3), range(6, 9)]) == (0, 0)
        assert score(cliques, [range(3), range(3, 9)], [range(3), [3, 4, 6, 7, 8]])[0] \
            == Fraction(-10 ** 9)

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(6), triangles_with_center()],
                             ids=["path5", "cycle6", "hub10"])
    def test_k1_is_degenerate(self, g):
        """At k = 1, phi(V) = 0 makes rho = rho_hat = 0."""
        consts = bruteforce_partition_constants(g, 1)
        assert consts.rho_exact == consts.rho_hat_exact == 0
        inter = inter_connection(consts)
        assert inter.degenerate and inter.rho_p is None

    def test_reads_the_constants_tables(self, monkeypatch):
        """inter_connection builds neither the subset tables nor a DP layer."""
        g = triangles_with_hub13()
        consts = bruteforce_partition_constants(g, 4)

        def refuse(*args):
            raise AssertionError("inter_connection rebuilt a table")

        monkeypatch.setattr(diagnostics, "_subset_tables", refuse)
        monkeypatch.setattr(diagnostics, "_partition_layers", refuse)
        inter = inter_connection(consts)
        assert (inter.rho_p_exact, inter.kappa) == (Fraction(2, 3), 3.0)
        assert inter.witness_tuple.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, -1]

    def test_degenerate_marker(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        inter = inter_connection(bruteforce_partition_constants(g, 2))
        assert inter.degenerate
        assert inter.rho_p is None

    def test_work_capacity(self, monkeypatch):
        # hub10's one optimal tuple leaves the hub free: 3 completions.
        g = triangles_with_center()
        monkeypatch.setattr(diagnostics, "INTERCONNECT_MAX_WORK", 2)
        with pytest.raises(CapacityError, match="3 assignments"):
            inter_connection(bruteforce_partition_constants(g, 3))

    def test_precomputed_constants_give_same_result(self):
        g = triangles_with_center()
        consts = bruteforce_partition_constants(g, 3)
        assert (consts.rho_exact, consts.rho_hat_exact, consts.rho_avr_exact) == \
            (Fraction(1, 7), Fraction(1, 5), Fraction(17, 105))
        assert optimal_tuples(g, 3, consts) == [(0, 0, 0, 1, 1, 1, 2, 2, 2, -1)]
        inter = inter_connection(consts)
        assert inter.rho_p_exact == Fraction(1, 2)
        assert inter.kappa == 2.0
        assert inter.rho_avr_tilde == float(Fraction(17, 105))
        assert inter.witness_partition.labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 0]
        assert inter.witness_tuple.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, -1]

    def test_nondegenerate_tuples_leave_a_vertex_free(self, nondegenerate_hub_graphs):
        """The premise that lets inter_connection always find a witness: where
        rho_hat != rho, every optimal tuple leaves a vertex uncovered. Checked
        on cliques joined through hubs, the shape of hub10 and hub13 (random
        G(n, p) graphs are almost never non-degenerate)."""
        assert len(nondegenerate_hub_graphs) >= 4
        for g, k, consts in nondegenerate_hub_graphs:
            tuples = optimal_tuples(g, k, consts)
            assert tuples
            assert all(-1 in row for row in tuples)
            inter = inter_connection(consts)
            assert not inter.degenerate
            assert tuple(inter.witness_tuple.tolist()) in tuples
            assert inter.witness_tuple.dtype == np.int64
            assert not inter.witness_tuple.flags.writeable

    def test_witness_ignores_tuple_order(self, nondegenerate_hub_graphs, monkeypatch):
        """The witness is the least (phi_ic, avg, labelling, completion), so
        listing the tuples in reverse changes no field of the result."""
        assert any(len(optimal_tuples(g, k, consts)) > 1
                   for g, k, consts in nondegenerate_hub_graphs)

        def fields(inter):
            return (inter.rho_p_exact, inter.kappa, inter.rho_avr_tilde,
                    inter.witness_partition.labels.tolist(), inter.witness_tuple.tolist())

        listed = diagnostics._optimal_tuples
        want = [fields(inter_connection(consts))
                for g, k, consts in nondegenerate_hub_graphs]
        monkeypatch.setattr(diagnostics, "_optimal_tuples",
                            lambda *args: listed(*args)[::-1])
        got = [fields(inter_connection(consts))
               for g, k, consts in nondegenerate_hub_graphs]
        assert got == want

    def test_degenerate_lists_no_tuples(self, monkeypatch):
        """Four 2-cliques and two hubs at k = 5 have rho = rho_hat = 1 and
        179,487 optimal tuples; neither the constants nor inter_connection
        lists them."""
        def refuse(*args):
            raise AssertionError("optimal tuples listed on a degenerate instance")

        monkeypatch.setattr(diagnostics, "_optimal_tuples", refuse)
        g = hub_graph([2, 2, 2, 2], (1, 1), False)
        consts = bruteforce_partition_constants(g, 5)
        assert consts.rho_exact == consts.rho_hat_exact == 1
        assert consts.rho_avr_exact == Fraction(3, 5)
        inter = inter_connection(consts)
        assert inter.degenerate and inter.rho_p is None


@pytest.fixture(scope="module")
def nondegenerate_hub_graphs():
    """(graph, k, constants) of every member of hub_graph_family at k and k +
    1 clusters whose rho_hat differs from its rho, and of one hub graph with
    two optimal tuples."""
    cases = []
    for sizes, links, hub_edge in hub_graph_family():
        g = hub_graph(sizes, links, hub_edge)
        for k in (len(sizes), len(sizes) + 1):
            consts = bruteforce_partition_constants(g, k)
            if consts.rho_hat_exact != consts.rho_exact:
                cases.append((g, k, consts))
    # Three triangles; hub 10 is joined to vertices 1 and 4, and to vertex 8
    # through vertex 9. Its two optimal 3-tuples, with 9 uncovered or in the
    # third block, tie on their best (phi_ic, avg): the labelling picks one.
    g = Graph(11, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8),
                   (7, 8), (8, 9), (9, 10), (1, 10), (4, 10)])
    return cases + [(g, 3, bruteforce_partition_constants(g, 3))]


def hub_graph(sizes, links, hub_edge):
    """Cliques of the given sizes and one hub per entry of ``links``, joined
    to the first ``links[h]`` vertices of every clique; ``hub_edge`` joins
    the last two hubs."""
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    edges = [(a + i, a + j) for a, s in zip(starts, sizes)
             for i in range(s) for j in range(i + 1, s)]
    hubs = range(starts[-1], starts[-1] + len(links))
    edges += [(a + i, h) for h, t in zip(hubs, links) for a in starts[:-1] for i in range(t)]
    if hub_edge:
        edges.append((hubs[-2], hubs[-1]))
    return Graph(starts[-1] + len(links), edges)


def hub_graph_family():
    """(sizes, links, hub_edge) of two to four cliques, all of one size or
    with the last one larger, joined through one or two hubs, n <= 12."""
    for c, size, extra in itertools.product((2, 3, 4), (2, 3, 4), (0, 1)):
        sizes = [size] * (c - 1) + [size + extra]
        for links in [(1,), (2,), (1, 1), (1, 2), (2, 2)]:
            if sum(sizes) + len(links) > 12 or max(links) > size:
                continue
            for hub_edge in ((False, True) if len(links) == 2 else (False,)):
                yield sizes, links, hub_edge


def _checks(g, p, seed):
    """run_theorem_checks's gap report and records."""
    return run_theorem_checks(g, p, seed)[1:]


class TestRunTheoremChecks:
    def test_disjoint_cliques_all_applicable_pass(self):
        g, p = disjoint_cliques(3, 4)
        _, records = _checks(g, p, 0)
        assert all(r.passed for r in records if r.hypothesis_met)
        by_name = {r.name: r for r in records}
        # infinite gap: closeness bounds collapse to ~0 and still hold
        assert by_name["indicator_vs_projection[0]"].lhs <= 1e-9
        assert by_name["eigenvector_vs_indicator_mix[0]"].hypothesis_met
        assert by_name["merge_cost_floor"].hypothesis_met
        assert by_name["merge_cost_floor"].rhs >= 1 / 12

    def test_ring_instance_all_applicable_pass(self):
        g, p = gen_ring_of_cliques(3, 50, 1, seed=3)
        _, records = _checks(g, p, 0)
        assert all(r.passed for r in records if r.hypothesis_met)
        names = [r.name for r in records]
        assert names[:3] == ["indicator_vs_projection[%d]" % i for i in range(3)]
        assert "planted_center_cost" in names and "merge_cost_floor" in names

    def test_low_gap_clique_not_applicable(self):
        g = complete_graph(12)
        p = Partition(3, [0] * 4 + [1] * 4 + [2] * 4)
        _, records = _checks(g, p, 0)
        by_name = {r.name: r for r in records}
        assert not by_name["eigenvector_vs_indicator_mix[0]"].hypothesis_met
        assert not by_name["center_row_norm[0]"].hypothesis_met
        # the projection bound holds with no hypothesis
        for i in range(3):
            rec = by_name["indicator_vs_projection[%d]" % i]
            assert rec.hypothesis_met and rec.passed

    @pytest.mark.parametrize("size, not_applicable", [(300, {"merge_cost_floor"}),
                                                      (1700, set())])
    def test_gated_families_bind_on_two_cliques(self, size, not_applicable):
        """Two cliques of ``size`` joined by one edge: psi is 8.97e4 at 300
        and 2.89e6 at 1700, so the row-Gram, merge-floor and surrogate
        families apply (the floor only at 1700, where delta is not clamped).
        Every applicable rhs is at least 100 CHECK_TOL, so the absolute
        slack cannot carry a pass."""
        g, p = gen_ring_of_cliques(2, size, 1, 1)
        _, records = _checks(g, p, 0)
        applicable = [r for r in records if r.hypothesis_met]
        families = {r.name.split("[")[0] for r in records}
        assert len(families) == 8
        assert families - {r.name.split("[")[0] for r in applicable} == not_applicable
        assert all(r.passed for r in applicable)
        assert min(r.rhs for r in applicable) >= 100 * diagnostics.CHECK_TOL

    def test_deterministic(self):
        g, p = gen_ring_of_cliques(3, 12, 1, seed=5)
        assert _checks(g, p, 9) == _checks(g, p, 9)

    def test_returns_the_gap_report(self):
        g, p = gen_ring_of_cliques(3, 12, 1, seed=5)
        eig, gap, _ = run_theorem_checks(g, p, 9)
        assert gap == gap_report(g, p, eig)

    def test_solves_the_exact_embedding(self):
        g, p = gen_ring_of_cliques(3, 12, 1, seed=5)
        eig, _, _ = run_theorem_checks(g, p, 9)
        _, want = exact_embedding(g, 3)
        assert np.array_equal(eig.values, want.values)
        assert np.array_equal(eig.vectors, want.vectors)

    def test_unconditional_bound_random_sbm_sample(self):
        # a slice of the acceptance criterion: 10 seeded SBM instances
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            k = int(rng.integers(2, 5))
            sizes = rng.integers(8, 20, size=k).tolist()
            g, p = gen_sbm(sizes, 0.6, 0.05, seed=seed)
            _, records = _checks(g, p, seed)
            for r in records:
                if r.name.startswith("indicator_vs_projection"):
                    assert r.passed


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: characteristic_vectors(path_graph(5), Partition(2, [0, 0, 1, 1])),
                 "partition does not cover this graph", id="indicators-n"),
    pytest.param(lambda: coeff_matrices(sym_eig(np.eye(3)), np.zeros((3, 4))),
                 "need at most n indicator columns (got 4, n=3)", id="coeffs-k-above-n"),
    pytest.param(lambda: bruteforce_partition_constants(path_graph(5), 0),
                 "k must be in [1, n]", id="constants-k"),
    pytest.param(lambda: bruteforce_partition_constants(path_graph(5), 6),
                 "k must be in [1, n]", id="constants-k-above-n"),
])
def test_input_checks(call, message):
    """Public-API input checks that no other test reaches."""
    with pytest.raises(InputError, match=re.escape(message)):
        call()
