import itertools

import numpy as np
import pytest

from spectralpart import Graph, Partition


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def ring_of_cliques(sizes):
    """Cliques of the given sizes in a ring, one bridge per gap from the last
    vertex of each clique to the first vertex of the next."""
    starts = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    edges = [(a + i, a + j) for a, s in zip(starts, sizes)
             for i in range(s) for j in range(i + 1, s)]
    edges += [(starts[c + 1] - 1, starts[(c + 1) % len(sizes)]) for c in range(len(sizes))]
    return Graph(starts[-1], edges)


def triangles_with_hub13() -> Graph:
    """Four triangles, each joined by one vertex to a hub vertex (k = 4)."""
    tri = [(a + i, a + j) for a in range(0, 12, 3) for i, j in ((0, 1), (0, 2), (1, 2))]
    return Graph(13, tri + [(0, 12), (3, 12), (6, 12), (9, 12)])


def dense_laplacian(g: Graph) -> np.ndarray:
    """Dense normalized Laplacian I - D^{-1/2} A D^{-1/2}, built from the edge
    list alone so it can serve as an independent oracle."""
    a = np.zeros((g.n, g.n))
    u, v = g.edges[:, 0], g.edges[:, 1]
    a[u, v] = 1.0
    a[v, u] = 1.0
    inv_sqrt_d = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(g.n) - inv_sqrt_d[:, None] * a * inv_sqrt_d[None, :]


def disjoint_cliques(k: int, size: int) -> tuple[Graph, Partition]:
    edges = []
    for c in range(k):
        base = c * size
        edges.extend((base + i, base + j)
                     for i in range(size) for j in range(i + 1, size))
    return Graph(k * size, edges), Partition(k, np.repeat(np.arange(k), size))


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def two_triangles_bridge() -> tuple[Graph, Partition]:
    """Two triangles {0,1,2} and {3,4,5} joined by the bridge edge (2,3)."""
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    return g, Partition(2, [0, 0, 0, 1, 1, 1])


def random_connected_graph(n: int, p: float, rng: np.random.Generator) -> Graph | None:
    """One attempt at a connected min-degree-1 random graph; None on failure."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if np.any(deg == 0):
        return None
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != n:
        return None
    return Graph(n, edges)
