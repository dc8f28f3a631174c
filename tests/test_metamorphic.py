"""Metamorphic relations: renaming the vertices of a graph, or reordering the
lines of its edge-list file, changes none of the quantities computed from it.
No oracle is needed; each relation compares two runs of the same code."""

import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralpart import (Graph, bruteforce_partition_constants, inter_connection,
                          read_edge_list, spectrum)
from conftest import triangles_with_center


@st.composite
def relabelled_graphs(draw):
    """``(g, h, k)``: a graph on at most 12 vertices without isolated ones,
    the same graph with its vertices renamed by a random permutation, and a
    block count k. Random graphs, at k = 2 or 3, almost never have a
    non-degenerate inter-connection constant, so half the draws are the
    10-vertex hub graph at k = 3, which has one."""
    if draw(st.booleans()):
        g, k = triangles_with_center(), 3
    else:
        n = draw(st.integers(min_value=4, max_value=12))
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, kept in zip(pairs, keep) if kept]
        touched = {v for e in edges for v in e}
        # Join each isolated vertex to its successor so the graph is valid.
        edges += [(v, (v + 1) % n) for v in range(n) if v not in touched]
        g, k = Graph(n, edges), draw(st.integers(min_value=2, max_value=3))
    perm = np.array(draw(st.permutations(range(g.n))))
    return g, Graph(g.n, perm[g.edges]), k


class TestRelabelling:
    @settings(max_examples=40, deadline=None)
    @given(relabelled_graphs())
    def test_vertex_renaming_changes_no_constant(self, case):
        g, h, k = case
        assert np.abs(spectrum(g, k).values - spectrum(h, k).values).max() <= 1e-12
        cg, ch = bruteforce_partition_constants(g, k), bruteforce_partition_constants(h, k)
        assert ((cg.rho_exact, cg.rho_hat_exact, cg.rho_avr_exact)
                == (ch.rho_exact, ch.rho_hat_exact, ch.rho_avr_exact))
        ig, ih = inter_connection(cg), inter_connection(ch)
        assert (ig.degenerate, ig.rho_p_exact) == (ih.degenerate, ih.rho_p_exact)

    @settings(max_examples=30, deadline=None)
    @given(relabelled_graphs(), st.randoms(use_true_random=False))
    def test_edge_line_order_changes_no_edge(self, case, rnd):
        g = case[0]
        lines = ["%d %d\n" % (u, v) if rnd.random() < 0.5 else "%d %d\n" % (v, u)
                 for u, v in g.edges.tolist()]
        rnd.shuffle(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_text("".join(lines), encoding="utf-8")
            assert read_edge_list(path).edges.tobytes() == g.edges.tobytes()
