"""Undirected simple graphs, conductance/volume arithmetic, and partitions.

Graphs are unweighted, have no self-loops or multi-edges, and reject isolated
vertices (degree 0 breaks the degree-normalized embedding downstream). Cut and
volume are exact integers; conductance is returned as an exact Fraction.

The text readers parse with numpy's C parser (``np.loadtxt``) and check the
rows with array operations. Only a file that numpy refuses, or one that fails
a check, goes through the line-by-line reader, which reports the first bad
line by number and also reads what numpy does not (``1_0``, non-ASCII
digits). The writers format rows in fixed-size chunks. Ids must lie below
2^63, and ``Graph`` rejects n > 2m before allocating anything of size n,
so a huge id in a small file costs no memory.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .linalg import rng_stream


class Graph:
    """Immutable undirected simple graph with minimum degree 1.

    Stores the canonical sorted edge array (u < v, lexicographic) plus the
    read-only CSR adjacency ``indices``/``indptr``: the sorted neighbor ids of
    u are ``indices[indptr[u]:indptr[u + 1]]``.
    """

    __slots__ = ("n", "m", "edges", "degrees", "indices", "indptr")

    def __init__(self, n: int, edges):
        if n <= 0:
            raise InputError("vertex count must be positive")
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if e.size == 0:
            raise InputError("graph must have at least one edge (no isolated vertices)")
        if e.ndim != 2 or e.shape[1] != 2:
            raise InputError("edges must be an iterable of (u, v) pairs")
        if e.min() < 0 or e.max() >= n:
            raise InputError("vertex id out of range [0, %d)" % n)
        lo = e.min(axis=1)
        hi = e.max(axis=1)
        if np.any(lo == hi):
            raise InputError("self-loops are not allowed")
        m = len(e)
        base = n
        if n > 2 * m:
            # Some vertex is isolated. Rank the ids so that neither the keys
            # below nor any array is sized by n, which the file does not bound.
            ids = np.unique(e)
            base, lo, hi = len(ids), np.searchsorted(ids, lo), np.searchsorted(ids, hi)
        # One int64 key per edge: sorting it orders the edges and puts
        # duplicates side by side.
        key = np.sort(lo * base + hi)
        if np.any(key[1:] == key[:-1]):
            raise InputError("duplicate edges are not allowed")
        if base < n:
            # ids[i] == i holds on a prefix, whose length is the lowest missing id.
            bad = int(np.count_nonzero(ids == np.arange(base)))
            raise InputError("isolated vertices are not allowed (vertex %d)" % bad)
        canon = np.stack(np.divmod(key, n), axis=1)
        degrees = np.bincount(canon.ravel(), minlength=n)
        if np.any(degrees == 0):
            bad = int(np.flatnonzero(degrees == 0)[0])
            raise InputError("isolated vertices are not allowed (vertex %d)" % bad)

        # Arc keys src * n + dst of both directions, sorted: the CSR order.
        arcs = np.sort(np.concatenate([key, canon[:, 1] * n + canon[:, 0]]))
        indices = arcs % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        for arr in (canon, degrees, indices, indptr):
            arr.flags.writeable = False
        self.n = int(n)
        self.m = m
        self.edges = canon
        self.degrees = degrees
        self.indices = indices
        self.indptr = indptr

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


class Partition:
    """Block labelling of the vertices 0..n-1 into blocks 0..k-1.

    In the default mode the labelling is total and every block is nonempty.
    With ``allow_uncovered=True`` ("tuple mode") a label of -1 marks vertices
    that belong to no block, which models disjoint k-tuples of subsets; blocks
    must still be nonempty.
    """

    __slots__ = ("k", "labels", "allow_uncovered")

    def __init__(self, k: int, labels, *, allow_uncovered: bool = False):
        if k < 1:
            raise InputError("block count must be at least 1")
        lab = np.asarray(labels, dtype=np.int64)
        if lab.ndim != 1 or lab.size == 0:
            raise InputError("labels must be a nonempty 1-d sequence")
        floor = -1 if allow_uncovered else 0
        if lab.min() < floor or lab.max() >= k:
            raise InputError("block index out of range")
        covered = lab[lab >= 0]
        # More blocks than covered labels leaves one empty; checked before a
        # bincount of length k, which the input does not bound.
        if k > len(covered) or np.any(np.bincount(covered, minlength=k) == 0):
            raise InputError("every block must be nonempty")
        lab = lab.copy()
        lab.flags.writeable = False
        self.k = int(k)
        self.labels = lab
        self.allow_uncovered = bool(allow_uncovered)

    @property
    def n(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return "Partition(k=%d, n=%d%s)" % (
            self.k, self.n, ", tuple-mode" if self.allow_uncovered else "")


def _as_mask(g: Graph, s) -> np.ndarray:
    """Normalize a vertex set (bool mask or id iterable) to a bool mask."""
    if isinstance(s, np.ndarray) and s.dtype == bool:
        if s.shape != (g.n,):
            raise InputError("boolean mask must have length n")
        return s
    ids = np.asarray(list(s) if not isinstance(s, np.ndarray) else s, dtype=np.int64)
    mask = np.zeros(g.n, dtype=bool)
    if ids.size:
        if ids.min() < 0 or ids.max() >= g.n:
            raise InputError("vertex id out of range [0, %d)" % g.n)
        mask[ids] = True
    return mask


def volume(g: Graph, s) -> int:
    """Total degree of the vertex set s."""
    return int(g.degrees[_as_mask(g, s)].sum())


def cut(g: Graph, s) -> int:
    """Number of edges with exactly one endpoint in s."""
    mask = _as_mask(g, s)
    return int(np.count_nonzero(mask[g.edges[:, 0]] != mask[g.edges[:, 1]]))


def conductance(g: Graph, s) -> Fraction:
    """Exact cut(s) / volume(s); s must be nonempty."""
    mask = _as_mask(g, s)
    vol = volume(g, mask)
    if vol == 0:
        raise InputError("conductance of an empty set is undefined")
    return Fraction(cut(g, mask), vol)


def _check_partition(g: Graph, p: Partition):
    if p.n != g.n:
        raise InputError("partition labels length %d != vertex count %d" % (p.n, g.n))


def block_conductances(g: Graph, p: Partition) -> list[Fraction]:
    """Exact conductance of each block of p."""
    _check_partition(g, p)
    return [conductance(g, p.labels == i) for i in range(p.k)]


def sym_diff_volume(g: Graph, a, b) -> int:
    """Volume of the symmetric difference of two vertex sets."""
    return int(g.degrees[_as_mask(g, a) ^ _as_mask(g, b)].sum())


def match_partitions(g: Graph, a: Partition, b: Partition) -> np.ndarray:
    """Permutation pi minimizing sum_i volume(A_i symdiff B_pi(i)).

    The per-block volumes are permutation invariant, so this is the
    assignment maximizing the total overlap volume; it is solved exactly by
    a full bipartite matching on the k-by-k overlap matrix. Adding 1 to every
    entry stores all k^2 pairs as edges (zero overlaps included) and adds
    exactly k to every full matching, so the optimum is unchanged. Returns pi
    as an array with pi[i] = matched block of b for block i of a.
    """
    # Imported here so that this module needs only numpy at import time.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    _check_partition(g, a)
    _check_partition(g, b)
    if a.k != b.k:
        raise InputError("partitions have different block counts (%d vs %d)" % (a.k, b.k))
    k = a.k
    covered = (a.labels >= 0) & (b.labels >= 0)
    overlap = np.zeros((k, k))
    np.add.at(overlap, (a.labels[covered], b.labels[covered]), g.degrees[covered])
    _, cols = min_weight_full_bipartite_matching(csr_array(overlap + 1.0), maximize=True)
    return cols.astype(np.int64)


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def gen_ring_of_cliques(k: int, clique_size: int, bridges_per_gap: int,
                        seed: int) -> tuple[Graph, Partition]:
    """k cliques in a ring, connected by seeded random bridge edges.

    Consecutive cliques share ``bridges_per_gap`` bridge edges whose endpoints
    are drawn from the seeded stream; a draw that repeats an existing bridge
    in the same gap is redrawn from the stream. For k = 2 the two gaps
    coincide, so a single gap is used. Returns the graph and the planted
    one-block-per-clique partition.
    """
    if k < 2:
        raise InputError("ring_of_cliques requires k >= 2")
    if clique_size < 3:
        raise InputError("ring_of_cliques requires clique_size >= 3")
    if bridges_per_gap < 0 or bridges_per_gap > clique_size * clique_size:
        raise InputError("bridges_per_gap must be in [0, clique_size^2]")
    rng = rng_stream(seed, "graph", "ring_of_cliques")
    s = clique_size
    clique = np.stack(np.triu_indices(s, k=1), axis=1)
    edges = [clique + c * s for c in range(k)]
    gaps = [(0, 1)] if k == 2 else [(i, (i + 1) % k) for i in range(k)]
    for ca, cb in gaps:
        chosen = set()
        while len(chosen) < bridges_per_gap:
            u = int(rng.integers(0, s))
            v = int(rng.integers(0, s))
            if (u, v) not in chosen:
                chosen.add((u, v))
        edges.append(np.array(list(chosen), dtype=np.int64).reshape(-1, 2) + (ca * s, cb * s))
    labels = np.repeat(np.arange(k), s)
    return Graph(k * s, np.concatenate(edges)), Partition(k, labels)


def gen_sbm(sizes: Sequence[int], p_in: float, p_out: float,
            seed: int) -> tuple[Graph, Partition]:
    """Stochastic block model with a minimum-degree repair pass.

    Each within-block pair is an edge with probability p_in, each cross-block
    pair with probability p_out. Vertices left isolated have their block-
    internal pair row resampled (cross-block row for singleton blocks) until
    every degree is >= 1; the repair draws from the same seeded stream so the
    result is deterministic. Returns the graph and the planted partition.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise InputError("sizes must be positive")
    if not (0.0 <= p_out <= 1.0 and 0.0 < p_in <= 1.0):
        raise InputError("require 0 <= p_out <= 1 and 0 < p_in <= 1")
    if p_out > p_in:
        raise InputError("require p_out <= p_in")
    n = sum(sizes)
    k = len(sizes)
    labels = np.repeat(np.arange(k), sizes)
    rng = rng_stream(seed, "graph", "sbm")

    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    iu, ju = np.triu_indices(n, k=1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu, ju] = rng.random(len(iu)) < prob[iu, ju]
    adj |= adj.T

    for _ in range(10000):
        deg = adj.sum(axis=0)
        isolated = np.flatnonzero(deg == 0)
        if isolated.size == 0:
            break
        v = int(isolated[0])
        mates = np.flatnonzero((labels == labels[v]) if (labels == labels[v]).sum() > 1
                               else (labels != labels[v]))
        mates = mates[mates != v]
        p = p_in if labels[mates[0]] == labels[v] else p_out
        if p <= 0.0:
            raise InputError("cannot repair isolated vertex %d with p_out = 0" % v)
        hit = rng.random(len(mates)) < p
        adj[v, mates[hit]] = True
        adj[mates[hit], v] = True
    else:
        raise NumericError("isolated-vertex repair did not terminate")

    eu, ev = np.nonzero(np.triu(adj, k=1))
    return Graph(n, np.stack([eu, ev], axis=1)), Partition(k, labels)


# ---------------------------------------------------------------------------
# Edge-list and partition file formats
# ---------------------------------------------------------------------------

#: Ids at or above 2^63 do not fit the int64 arrays they are stored in.
_ID_LIMIT = 2 ** 63
#: Rows formatted per string by the writers, which bounds their memory.
_WRITE_CHUNK = 65536


def _load_int_pairs(path) -> np.ndarray | None:
    """The file's rows as an (r, 2) int64 array, parsed by numpy's C parser.

    Returns None where numpy refuses the file or it has no row or not two
    columns; the callers' line loops then report the error with its line
    number, or parse what numpy does not (``1_0``, non-ASCII digits).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            rows = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    except (OSError, ValueError):  # the line loop's open() raises the usual OSError
        return None
    return rows if rows.shape[1] == 2 and len(rows) else None


def _write_pairs(path, rows: np.ndarray):
    """Write the rows of an (r, 2) integer array as ``a b`` lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(rows), _WRITE_CHUNK):
            chunk = rows[start:start + _WRITE_CHUNK]
            fh.write(("%d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


def _int_pair_lines(path, fields: str, ids: str):
    """``(lineno, a, b)`` per line of ``path`` not blank without its ``#``
    comment; InputError where it is not two integers, named by the strings."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError("%s:%d: expected '%s'" % (path, lineno, fields))
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError("%s:%d: %s must be integers" % (path, lineno, ids))
            yield lineno, a, b


def read_edge_list(path) -> Graph:
    """Parse the text edge-list format: one ``u v`` pair per line.

    Vertex ids are 0-based integers below 2^63; ``#`` starts a comment; blank
    lines are skipped. Duplicate or reversed-duplicate pairs and self-loops
    are rejected with the offending line number. n is the largest id + 1.
    """
    rows = _load_int_pairs(path)
    if rows is not None:
        try:
            return Graph(int(rows.max()) + 1, rows)
        except InputError:
            pass  # the line loop names the offending line
    return _read_edge_lines(path)


def _read_edge_lines(path) -> Graph:
    """read_edge_list one line at a time, with line-numbered errors."""
    edges = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, u, v in _int_pair_lines(path, "u v", "vertex ids"):
        if u < 0 or v < 0:
            raise InputError("%s:%d: negative vertex id" % (path, lineno))
        if u >= _ID_LIMIT or v >= _ID_LIMIT:
            raise InputError("%s:%d: vertex id out of range" % (path, lineno))
        if u == v:
            raise InputError("%s:%d: self-loop" % (path, lineno))
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError("%s:%d: duplicate of line %d" % (path, lineno, seen[key]))
        seen[key] = lineno
        edges.append(key)
    if not edges:
        raise InputError("%s: no edges" % path)
    n = max(max(e) for e in edges) + 1
    return Graph(n, edges)


def write_edge_list(g: Graph, path):
    """Write the canonical sorted edge list (u < v per line)."""
    _write_pairs(path, g.edges)


def read_partition(path, n: int) -> Partition:
    """Parse the partition format: one ``vertex block`` pair per line.

    Both ids 0-based; every vertex of the graph must appear exactly once, and
    k is the largest block id + 1. Overlapping assignments (a vertex listed
    twice) are rejected with the line number.
    """
    rows = _load_int_pairs(path)
    if rows is not None and len(rows) == n:
        v, b = rows[:, 0], rows[:, 1]
        if v.min() >= 0 and v.max() < n and b.min() >= 0:
            labels = np.full(n, -1, dtype=np.int64)
            labels[v] = b
            if labels.min() >= 0:  # n rows cover all n vertices: each once
                return Partition(int(b.max()) + 1, labels)
    return _read_partition_lines(path, n)


def _read_partition_lines(path, n: int) -> Partition:
    """read_partition one line at a time, with line-numbered errors."""
    labels = np.full(n, -1, dtype=np.int64)
    for lineno, v, b in _int_pair_lines(path, "vertex block", "ids"):
        if v < 0 or v >= n:
            raise InputError("%s:%d: vertex %d out of range" % (path, lineno, v))
        if b < 0:
            raise InputError("%s:%d: negative block id" % (path, lineno))
        if b >= _ID_LIMIT:
            raise InputError("%s:%d: block id out of range" % (path, lineno))
        if labels[v] != -1:
            raise InputError("%s:%d: vertex %d assigned twice (overlapping blocks)"
                             % (path, lineno, v))
        labels[v] = b
    if np.any(labels < 0):
        missing = int(np.flatnonzero(labels < 0)[0])
        raise InputError("%s: vertex %d has no block" % (path, missing))
    return Partition(int(labels.max()) + 1, labels)


def write_partition(p: Partition, path):
    """Write one ``vertex block`` pair per line (uncovered vertices skipped)."""
    covered = np.flatnonzero(p.labels >= 0)
    _write_pairs(path, np.stack([covered, p.labels[covered]], axis=1))
