import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralpart import graph
from spectralpart import (Graph, InputError, LaplacianOps, Partition, block_conductances,
                          conductance, cut, gen_ring_of_cliques, gen_sbm,
                          match_partitions, read_edge_list, read_partition,
                          sym_diff_volume, volume, write_edge_list,
                          write_partition)
from conftest import complete_graph, disjoint_cliques, random_connected_graph


class TestGraphConstruction:
    def test_degrees_and_counts(self, k4):
        assert k4.n == 4 and k4.m == 6
        assert k4.degrees.tolist() == [3, 3, 3, 3]
        assert k4.degrees.sum() == 12
        assert k4.degrees.sum() == 2 * k4.m

    def test_neighbors_sorted(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        ops = LaplacianOps(g)
        assert ops._indices[ops._starts[2]:ops._starts[3]].tolist() == [0, 1, 3]
        assert ops._indices[ops._starts[3]:ops._starts[4]].tolist() == [2, 4, 5]

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 1), (1, 2)])

    def test_rejects_duplicate_and_reversed(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0), (1, 2)])
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (0, 1), (1, 2)])

    def test_rejects_isolated_vertex(self):
        with pytest.raises(InputError):
            Graph(4, [(0, 1), (1, 2)])  # vertex 3 isolated

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 3)])

    def test_huge_n_rejected_before_allocating(self):
        # bincount(minlength=n) or zeros(n + 1) at these n fails at once, so
        # reaching either would raise something other than InputError.
        with pytest.raises(InputError, match=r"isolated vertices are not allowed \(vertex 2\)"):
            Graph(2 ** 62, [(0, 1)])
        with pytest.raises(InputError, match=r"isolated vertices are not allowed \(vertex 1\)"):
            Graph(2 ** 62, [(0, 2), (2, 2 ** 62 - 1)])

    def test_duplicate_found_before_isolated_when_n_is_huge(self):
        with pytest.raises(InputError, match="duplicate"):
            Graph(2 ** 62, [(0, 2 ** 61), (2 ** 61, 0)])

    def test_edges_canonical_sorted(self):
        g = Graph(3, [(2, 1), (1, 0), (2, 0)])
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


class TestPartition:
    def test_blocks(self):
        p = Partition(2, [0, 1, 0, 1])
        assert np.flatnonzero(p.labels == 0).tolist() == [0, 2]
        assert np.flatnonzero(p.labels == 1).tolist() == [1, 3]

    def test_rejects_empty_block(self):
        with pytest.raises(InputError):
            Partition(3, [0, 0, 1, 1])

    def test_rejects_uncovered_without_flag(self):
        with pytest.raises(InputError):
            Partition(2, [0, -1, 1])

    def test_huge_k_rejected_before_allocating(self):
        with pytest.raises(InputError, match="nonempty"):
            Partition(2 ** 62, [0, 1])


class TestVolume:
    def test_k4_single_vertex(self, k4):
        assert volume(k4, [0]) == 3

    def test_empty_set(self, k4):
        assert volume(k4, []) == 0

    def test_bridge_triangle(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        # degrees 2, 2, 3 on the side holding a bridge endpoint
        assert volume(g, [0, 1, 2]) == 7

    def test_out_of_range(self, k4):
        with pytest.raises(InputError):
            volume(k4, [7])


class TestCut:
    def test_whole_vertex_set(self, k4):
        assert cut(k4, range(4)) == 0

    def test_k4_single_vertex(self, k4):
        assert cut(k4, [2]) == 3

    def test_bridge(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        assert cut(g, [0, 1, 2]) == 1


class TestConductance:
    def test_k4_single_vertex(self, k4):
        assert conductance(k4, [0]) == 1

    def test_bridge_triangle_exact(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        assert conductance(g, [0, 1, 2]) == Fraction(1, 7)

    def test_whole_set_zero(self, k4):
        assert conductance(k4, range(4)) == 0

    def test_empty_set_error(self, k4):
        with pytest.raises(InputError):
            conductance(k4, [])


class TestPartitionPhi:
    def test_disjoint_triangles(self):
        g, p = disjoint_cliques(2, 3)
        assert block_conductances(g, p) == [0, 0]

    def test_two_triangles_bridge(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        assert block_conductances(g, p) == [Fraction(1, 7), Fraction(1, 7)]

    def test_k4_singleton_split(self, k4):
        p = Partition(2, [0, 1, 1, 1])
        assert block_conductances(k4, p) == [1, Fraction(3, 9)]


class TestSymDiffVolume:
    def test_equal_sets(self, k4):
        assert sym_diff_volume(k4, [0, 1], [0, 1]) == 0

    def test_disjoint_cover(self, k4):
        # {v} vs its complement: symmetric difference is everything
        assert sym_diff_volume(k4, [0], [1, 2, 3]) == 12

    def test_one_extra_vertex(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        # vertex 4 has degree 2
        assert sym_diff_volume(g, [0, 1, 2], [0, 1, 2, 4]) == 2

    def test_inclusion_exclusion_identity(self, two_triangles_bridge):
        g, _ = two_triangles_bridge
        a, b = [0, 1, 3], [1, 3, 4, 5]
        both = set(a) & set(b)
        assert sym_diff_volume(g, a, b) == (
            volume(g, a) + volume(g, b) - 2 * volume(g, both))


def exhaustive_match(g, a, b):
    """Reference matcher: every permutation pi scored by the defining
    objective sum_i volume(A_i symdiff B_pi(i)), as (minimum, optimal pis)."""
    k = a.k
    sym = np.array([[sym_diff_volume(g, a.labels == i, b.labels == j) for j in range(k)]
                    for i in range(k)])
    perms = np.array(list(itertools.permutations(range(k))))
    objective = sym[np.arange(k), perms].sum(axis=1)
    best = int(objective.min())
    return best, {tuple(pi) for pi in perms[objective == best].tolist()}


def random_pair(k, rng, one_vertex=False):
    """Two seeded random full labellings of one random connected graph, every
    block nonempty. With ``one_vertex`` and k > 1, block 0 of the first is
    vertex 0 alone, so that row of the overlap matrix has one nonzero entry."""
    n = k + int(rng.integers(2, 7))
    g = None
    while g is None:
        g = random_connected_graph(n, 0.5, rng)
    pair = []
    for side in range(2):
        if one_vertex and side == 0 and k > 1:
            labels = rng.integers(1, k, size=n)
            labels[0] = 0
            labels[rng.permutation(n - 1)[:k - 1] + 1] = np.arange(1, k)
        else:
            labels = rng.integers(0, k, size=n)
            labels[rng.permutation(n)[:k]] = np.arange(k)
        pair.append(Partition(k, labels))
    return g, pair[0], pair[1]


class TestMatchPartitions:
    def test_identity(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        assert match_partitions(g, p, p).tolist() == [0, 1]

    def test_label_swap(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        swapped = Partition(2, 1 - p.labels)
        assert match_partitions(g, swapped, p).tolist() == [1, 0]

    def test_random_relabeling_recovered(self):
        g, p = gen_sbm([8, 8, 8], 0.9, 0.05, seed=3)
        relabel = np.array([2, 0, 1])
        q = Partition(3, relabel[p.labels])
        pi = match_partitions(g, q, p)
        best, optimal = exhaustive_match(g, q, p)
        assert optimal == {tuple(pi)}
        assert best == 0  # exact relabeling

    @pytest.mark.parametrize("k", range(1, 9))
    def test_random_pairs_reach_exhaustive_minimum(self, k):
        rng = np.random.default_rng(100 + k)
        cases = [random_pair(k, rng) for _ in range(6)]
        cases += [random_pair(k, rng, one_vertex=True) for _ in range(2)]
        if k >= 2:
            # every block of a meets every block of b in one vertex: all k! tie
            g, b = disjoint_cliques(k, k)
            a = Partition(k, np.tile(np.arange(k), k))
            assert len(exhaustive_match(g, a, b)[1]) == math.factorial(k)
            cases.append((g, a, b))
        for g, a, b in cases:
            pi = match_partitions(g, a, b)
            assert sorted(pi.tolist()) == list(range(k))
            assert tuple(pi.tolist()) in exhaustive_match(g, a, b)[1]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_assignment_matches_scipy(self, k):
        """Total overlap equals scipy's optimum; on continuous weights, where
        the optimum is unique, so does the permutation."""
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(200 + k)
        for trial in range(40):
            weight = (rng.random((k, k)) if trial % 2
                      else rng.integers(0, 4, (k, k)).astype(float))  # many ties
            pi = graph._max_assignment(weight)
            rows, cols = linear_sum_assignment(weight, maximize=True)
            assert sorted(pi.tolist()) == list(range(k))
            assert weight[np.arange(k), pi].sum() == weight[rows, cols].sum()
            if trial % 2:
                assert pi.tolist() == cols.tolist()

    def test_k_mismatch(self, two_triangles_bridge):
        g, p = two_triangles_bridge
        with pytest.raises(InputError):
            match_partitions(g, p, Partition(3, [0, 0, 1, 1, 2, 2]))

    def test_large_k_assignment_path(self):
        # k = 9: a rotated relabelling of nine blocks is matched back at zero cost
        g, p = disjoint_cliques(9, 3)
        relabel = np.roll(np.arange(9), 4)
        q = Partition(9, relabel[p.labels])
        pi = match_partitions(g, q, p)
        assert sorted(pi.tolist()) == list(range(9))
        total = sum(sym_diff_volume(g, q.labels == i, p.labels == pi[i])
                    for i in range(9))
        assert total == 0


class TestRingOfCliques:
    def test_two_triangles_instance(self):
        g, p = gen_ring_of_cliques(2, 3, 1, seed=0)
        assert (g.n, g.m) == (6, 7)
        phis = [conductance(g, p.labels == i) for i in range(2)]
        assert phis == [Fraction(1, 7), Fraction(1, 7)]

    def test_three_k4s(self):
        g, p = gen_ring_of_cliques(3, 4, 1, seed=1)
        phis = [conductance(g, p.labels == i) for i in range(3)]
        assert phis == [Fraction(1, 7)] * 3  # 2 cut edges over volume 14

    def test_invariants_many_seeds(self):
        for seed in range(1000):
            g, p = gen_ring_of_cliques(3, 4, 2, seed=seed)
            assert g.degrees.min() >= 1
            assert int(g.degrees.sum()) == 2 * g.m
            assert p.n == g.n and p.k == 3
            assert all(np.any(p.labels == i) for i in range(3))

    def test_determinism(self):
        a, _ = gen_ring_of_cliques(3, 5, 2, seed=42)
        b, _ = gen_ring_of_cliques(3, 5, 2, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            gen_ring_of_cliques(1, 3, 1, seed=0)
        with pytest.raises(InputError):
            gen_ring_of_cliques(2, 2, 1, seed=0)


class TestSBM:
    def test_disjoint_cliques_case(self):
        g, p = gen_sbm([4, 4], 1.0, 0.0, seed=0)
        assert max(block_conductances(g, p)) == 0
        assert g.m == 12

    def test_complete_graph_case(self):
        g, _ = gen_sbm([3, 3], 1.0, 1.0, seed=0)
        assert g.m == 15

    def test_tiny_p_out_draws_no_cross_edge(self):
        # Geometric gaps at p = 1e-300 exceed the int64 range.
        g, p = gen_sbm([5, 5], 1.0, 1e-300, seed=0)
        assert g.m == 20 and max(block_conductances(g, p)) == 0

    def test_planted_quality(self):
        g, p = gen_sbm([50, 50], 0.5, 0.01, seed=7)
        assert max(block_conductances(g, p)) < 0.1

    def test_no_isolated_vertices_many_seeds(self):
        for seed in range(1000):
            g, p = gen_sbm([5, 6], 0.7, 0.2, seed=seed)
            assert g.degrees.min() >= 1
            assert int(g.degrees.sum()) == 2 * g.m
            assert p.n == g.n

    def test_determinism(self):
        a, _ = gen_sbm([10, 10], 0.4, 0.1, seed=5)
        b, _ = gen_sbm([10, 10], 0.4, 0.1, seed=5)
        assert np.array_equal(a.edges, b.edges)

    def test_rejects_zero_p_in(self):
        with pytest.raises(InputError):
            gen_sbm([4, 4], 0.0, 0.0, seed=0)

    def test_rejects_fewer_than_two_vertices(self):
        with pytest.raises(InputError, match="at least 2 vertices"):
            gen_sbm([1], 0.5, 0.1, seed=0)

    def test_pair_inclusion_frequencies(self):
        # Every pair is its own Bernoulli trial; the repair almost never
        # fires at these densities, so each frequency is within 5 sigma of p.
        runs, sizes = 400, [6, 6]
        counts = np.zeros((12, 12))
        for seed in range(runs):
            g, _ = gen_sbm(sizes, 0.7, 0.2, seed=seed)
            counts[g.edges[:, 0], g.edges[:, 1]] += 1
        labels = np.repeat([0, 1], sizes)
        for u, v in itertools.combinations(range(12), 2):
            p = 0.7 if labels[u] == labels[v] else 0.2
            sigma = math.sqrt(p * (1 - p) / runs)
            assert abs(counts[u, v] / runs - p) <= 5 * sigma, (u, v)

    def test_memory_linear_in_edges(self):
        tracemalloc.start()
        try:
            g, _ = gen_sbm([1500] * 4, 0.006, 0.0003, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * (g.n + g.m), peak / (g.n + g.m)


class TestEdgeListFormat:
    def test_roundtrip(self, tmp_path, two_triangles_bridge):
        g, _ = two_triangles_bridge
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert np.array_equal(g.edges, h.edges)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n0 1\n\n1 2  # trailing comment\n")
        g = read_edge_list(path)
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_duplicate_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n1 0\n")
        with pytest.raises(InputError, match=":3"):
            read_edge_list(path)

    def test_self_loop_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(InputError, match=":2"):
            read_edge_list(path)

    def test_id_beyond_int64_reports_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 99999999999999999999\n")
        with pytest.raises(InputError, match=":2: vertex id out of range"):
            read_edge_list(path)

    def test_huge_id_is_isolated_vertex_not_allocation(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1000000000000\n")
        with pytest.raises(InputError, match=r"isolated vertices are not allowed \(vertex 1\)"):
            read_edge_list(path)

    def test_writer_canonical(self, tmp_path):
        g = Graph(3, [(2, 0), (1, 0), (2, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_text() == "0 1\n0 2\n1 2\n"


class TestPartitionFormat:
    def test_roundtrip(self, tmp_path, two_triangles_bridge):
        _, p = two_triangles_bridge
        path = tmp_path / "p.txt"
        write_partition(p, path)
        q = read_partition(path, 6)
        assert np.array_equal(p.labels, q.labels)

    def test_overlap_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0\n1 1\n0 1\n")
        with pytest.raises(InputError, match=":3"):
            read_partition(path, 2)

    def test_huge_block_ids(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 99999999999999999999\n1 0\n")
        with pytest.raises(InputError, match=":1: block id out of range"):
            read_partition(path, 2)
        path.write_text("0 1000000000000\n1 0\n")
        with pytest.raises(InputError, match="nonempty"):
            read_partition(path, 2)

    def test_missing_vertex_rejected(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0 0\n2 1\n")
        with pytest.raises(InputError):
            read_partition(path, 3)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    # patch isolated vertices deterministically to keep the graph valid
    for v in range(n):
        if deg[v] == 0:
            u = (v + 1) % n
            if (min(u, v), max(u, v)) not in edges:
                edges.append((min(u, v), max(u, v)))
                deg[u] += 1
                deg[v] += 1
    return Graph(n, edges)


class TestGraphProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=200))
    def test_conductance_range_and_complement(self, g, pick):
        rng = np.random.default_rng(pick)
        mask = rng.random(g.n) < 0.5
        if not mask.any() or mask.all():
            mask[pick % g.n] = not mask[pick % g.n]
        if not mask.any() or mask.all():
            return
        phi = conductance(g, mask)
        assert 0 <= phi <= 1
        assert cut(g, mask) == cut(g, ~mask)
        assert volume(g, mask) + volume(g, ~mask) == g.degrees.sum()

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.integers(min_value=0, max_value=200))
    def test_sym_diff_identity(self, g, pick):
        rng = np.random.default_rng(pick)
        a = rng.random(g.n) < 0.5
        b = rng.random(g.n) < 0.5
        assert sym_diff_volume(g, a, b) == (
            volume(g, a) + volume(g, b) - 2 * volume(g, a & b))

    def test_match_never_worse_than_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = None
            while g is None:
                g = random_connected_graph(8, 0.4, rng)
            labels_a = rng.integers(0, 3, size=8)
            labels_b = rng.integers(0, 3, size=8)
            for lab in (labels_a, labels_b):
                for blk in range(3):
                    if not np.any(lab == blk):
                        lab[rng.integers(0, 8)] = blk
            a, b = Partition(3, labels_a), Partition(3, labels_b)
            pi = match_partitions(g, a, b)
            assert sorted(pi.tolist()) == [0, 1, 2]
            matched = sum(sym_diff_volume(g, a.labels == i, b.labels == pi[i])
                          for i in range(3))
            identity = sum(sym_diff_volume(g, a.labels == i, b.labels == i)
                           for i in range(3))
            assert matched <= identity


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Graph(0, [(0, 1)]), "vertex count must be positive", id="graph-n"),
    pytest.param(lambda: Graph(3, []), "at least one edge", id="graph-no-edges"),
    pytest.param(lambda: Graph(3, [(0, 1, 2)]), "(u, v) pairs", id="graph-triples"),
    pytest.param(lambda: Partition(0, [0]), "block count must be at least 1", id="partition-k"),
    pytest.param(lambda: Partition(1, []), "nonempty 1-d sequence", id="partition-empty"),
    pytest.param(lambda: Partition(1, [[0]]), "nonempty 1-d sequence", id="partition-2d"),
    pytest.param(lambda: volume(complete_graph(4), np.ones(3, dtype=bool)),
                 "boolean mask must have length n", id="mask-length"),
    pytest.param(lambda: block_conductances(complete_graph(4), Partition(2, [0, 1])),
                 "partition labels length 2 != vertex count 4", id="partition-length"),
    pytest.param(lambda: gen_ring_of_cliques(3, 4, 17, seed=0),
                 "bridges_per_gap must be in [0, clique_size^2]", id="ring-bridges"),
    pytest.param(lambda: gen_ring_of_cliques(3, 4, -1, seed=0),
                 "bridges_per_gap must be in [0, clique_size^2]", id="ring-negative-bridges"),
    pytest.param(lambda: gen_sbm([3, 0], 0.5, 0.1, seed=0), "sizes must be positive",
                 id="sbm-empty-block"),
    pytest.param(lambda: gen_sbm([], 0.5, 0.1, seed=0), "sizes must be positive",
                 id="sbm-no-blocks"),
    pytest.param(lambda: gen_sbm([3, 3], 0.2, 0.5, seed=0), "require p_out <= p_in",
                 id="sbm-p-out-above-p-in"),
])
def test_input_checks(call, message):
    """Public-API input checks that no other test reaches."""
    with pytest.raises(InputError, match=re.escape(message)):
        call()
