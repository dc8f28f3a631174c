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

import math
import warnings
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .linalg import rng_stream


class Graph:
    """Immutable undirected simple graph with minimum degree 1.

    Stores the canonical sorted edge array (u < v, lexicographic) and the
    degrees, both read-only. The adjacency in CSR form is built by the one
    reader of it, ``spectral.LaplacianOps``.
    """

    __slots__ = ("n", "m", "edges", "degrees")

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
        for arr in (canon, degrees):
            arr.flags.writeable = False
        self.n = int(n)
        self.m = m
        self.edges = canon
        self.degrees = degrees

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)


class Partition:
    """Total labelling of the vertices 0..n-1 with nonempty blocks 0..k-1."""

    __slots__ = ("k", "labels")

    def __init__(self, k: int, labels):
        if k < 1:
            raise InputError("block count must be at least 1")
        lab = np.asarray(labels, dtype=np.int64)
        if lab.ndim != 1 or lab.size == 0:
            raise InputError("labels must be a nonempty 1-d sequence")
        if lab.min() < 0 or lab.max() >= k:
            raise InputError("block index out of range")
        # More blocks than labels leaves one empty; checked before a bincount
        # of length k, which the input does not bound.
        if k > len(lab) or np.any(np.bincount(lab, minlength=k) == 0):
            raise InputError("every block must be nonempty")
        lab = lab.copy()
        lab.flags.writeable = False
        self.k = int(k)
        self.labels = lab

    @property
    def n(self) -> int:
        return len(self.labels)

    def __repr__(self):
        return "Partition(k=%d, n=%d)" % (self.k, self.n)


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
    assignment maximizing the total overlap volume, solved exactly on the
    k-by-k overlap matrix by _max_assignment. Returns pi as an array with
    pi[i] = matched block of b for block i of a.
    """
    _check_partition(g, a)
    _check_partition(g, b)
    if a.k != b.k:
        raise InputError("partitions have different block counts (%d vs %d)" % (a.k, b.k))
    k = a.k
    overlap = np.zeros((k, k))
    np.add.at(overlap, (a.labels, b.labels), g.degrees)
    return _max_assignment(overlap)


def _max_assignment(weight: np.ndarray) -> np.ndarray:
    """Column of each row in an assignment of maximum total weight: the
    Hungarian method (Kuhn 1955, Munkres 1957) with row and column
    potentials, one shortest augmenting path per row, O(k^3).

    Index 0 of the column arrays is a virtual column that holds the row being
    added; ``match[j]`` is the row (1-based, 0 for none) of column j.
    """
    k = weight.shape[0]
    cost = -weight
    row_pot, col_pot = np.zeros(k + 1), np.zeros(k + 1)
    match, via = np.zeros(k + 1, dtype=np.int64), np.zeros(k + 1, dtype=np.int64)
    for row in range(1, k + 1):
        match[0], col = row, 0
        slack, done = np.full(k + 1, np.inf), np.zeros(k + 1, dtype=bool)
        while match[col]:
            done[col] = True
            reduced = cost[match[col] - 1] - row_pot[match[col]] - col_pot[1:]
            closer = ~done[1:] & (reduced < slack[1:])
            slack[1:][closer] = reduced[closer]
            via[1:][closer] = col
            nxt = int(np.argmin(np.where(done, np.inf, slack)))
            step = slack[nxt]
            row_pot[match[done]] += step
            col_pot[done] -= step
            slack[~done] -= step
            col = nxt
        while col:  # flip the augmenting path back to the virtual column
            match[col] = match[via[col]]
            col = via[col]
    pi = np.empty(k, dtype=np.int64)
    pi[match[1:] - 1] = np.arange(k)
    return pi


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


def _bernoulli_cells(rng, count: int, p: float) -> np.ndarray:
    """Sorted indices kept by ``count`` independent Bernoulli(p) trials, drawn
    as geometric gaps (Batagelj & Brandes, Phys. Rev. E 71, 2005) in chunks
    sized to the expected count: O(1 + count * p) time and memory. p >= 1
    keeps every cell and p <= 0 none."""
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    if p <= 0.0 or count <= 0:
        return np.empty(0, dtype=np.int64)
    chunk = int(count * p + 4.0 * math.sqrt(count * p)) + 16
    parts, last = [], -1
    while last < count:
        # Tiny p draws gaps near 2^63; capping them at count + 1 keeps cumsum from wrapping.
        parts.append(last + np.cumsum(np.minimum(rng.geometric(p, size=chunk), count + 1)))
        last = int(parts[-1][-1])
    cells = np.concatenate(parts)
    return cells[:np.searchsorted(cells, count)]


def gen_sbm(sizes: Sequence[int], p_in: float, p_out: float,
            seed: int) -> tuple[Graph, Partition]:
    """Stochastic block model with a minimum-degree repair pass, in O(n + m).

    Each within-block pair is an edge with probability p_in, each cross-block
    pair with probability p_out, all independently: block by block, the kept
    cells of its s x s grid (those with i < j) and of its s x (later vertices)
    grid are drawn as geometric skips. The lowest isolated vertex then has its
    block-internal pair row (cross-block row for singleton blocks) resampled
    until every degree is >= 1. All draws come from one seeded stream, so the
    result is deterministic. Returns the graph and the planted partition.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise InputError("sizes must be positive")
    if sum(sizes) < 2:
        raise InputError("sizes must add up to at least 2 vertices")
    if not (0.0 <= p_out <= 1.0 and 0.0 < p_in <= 1.0):
        raise InputError("require 0 <= p_out <= 1 and 0 < p_in <= 1")
    if p_out > p_in:
        raise InputError("require p_out <= p_in")
    n = sum(sizes)
    k = len(sizes)
    labels = np.repeat(np.arange(k), sizes)
    starts = np.cumsum([0] + sizes).tolist()
    rng = rng_stream(seed, "graph", "sbm")

    edges = []
    for a, s in enumerate(sizes):
        lo, hi = starts[a], starts[a + 1]
        i, j = np.divmod(_bernoulli_cells(rng, s * s, p_in), s)
        edges.append(np.stack([i, j], axis=1)[i < j] + lo)
        if hi < n:
            i, j = np.divmod(_bernoulli_cells(rng, s * (n - hi), p_out), n - hi)
            edges.append(np.stack([i + lo, j + hi], axis=1))
    deg = np.bincount(np.concatenate(edges).ravel(), minlength=n)

    rounds = 0
    for v in np.flatnonzero(deg == 0).tolist():
        # Repairs only add edges, so this order repairs the lowest isolated
        # vertex first. Its row is [base, base + width) without v.
        a = labels[v]
        base, width, p = ((starts[a], sizes[a], p_in) if sizes[a] > 1 else (0, n, p_out))
        if p <= 0.0:
            raise InputError("cannot repair isolated vertex %d with p_out = 0" % v)
        while deg[v] == 0:
            rounds += 1
            if rounds >= 10000:
                raise NumericError("isolated-vertex repair did not terminate")
            c = _bernoulli_cells(rng, width - 1, p)
            hit = base + c + (c >= v - base)
            deg[v] += len(hit)
            deg[hit] += 1
            edges.append(np.stack([hit, np.full(len(hit), v)], axis=1))
    return Graph(n, np.concatenate(edges)), Partition(k, labels)


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


def _write_pairs(dest, rows: np.ndarray):
    """Write the rows of an (r, 2) integer array as ``a b`` lines to a path
    or an open text file."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8") as fh:
            return _write_pairs(fh, rows)
    for start in range(0, len(rows), _WRITE_CHUNK):
        chunk = rows[start:start + _WRITE_CHUNK]
        dest.write(("%d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


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
    """Write the canonical sorted edge list (u < v per line) to a path or an
    open text file."""
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
    """Write a ``vertex block`` line per vertex to a path or an open text file."""
    _write_pairs(path, np.stack([np.arange(p.n), p.labels], axis=1))
