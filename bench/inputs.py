"""Seeded benchmark inputs, made with the benchmark's own numpy code.

The benchmark never calls spectralpart's generators to make its inputs: a
change to those generators must not change the workload it is judged on.
Every graph is simple, has no isolated vertex and at most MAX_VERTICES
vertices. Files use the CLI's text formats: ``u v`` per edge line and
``vertex block`` per partition line.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

MAX_VERTICES = 4096

#: Three triangles plus a hub joined to one vertex of each (k = 3). The best
#: three disjoint sets are the triangles, but every 3-way partition must
#: absorb the hub, so its inter-connection constant is non-degenerate.
HUB10 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (6, 8), (7, 8),
         (0, 9), (3, 9), (6, 9)]
HUB10_LABELS = [0, 0, 0, 1, 1, 1, 2, 2, 2, 0]

#: Four planted blocks {0,1,2}, {3,4,5}, {6,7}, {8,9} (k = 4) with one edge
#: between consecutive blocks and one chord.
PLANTED10 = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (6, 7), (8, 9),
             (2, 3), (5, 6), (7, 8), (9, 0), (1, 4)]
PLANTED10_LABELS = [0, 0, 0, 1, 1, 1, 2, 2, 3, 3]


def rng_for(seed: int, *labels: str) -> np.random.Generator:
    """Independent stream per (workload seed, purpose)."""
    tag = int.from_bytes(hashlib.sha256("/".join(labels).encode()).digest()[:8], "little")
    return np.random.default_rng([seed, tag])


def ring_of_cliques(rng, k: int, size: int, bridges: int):
    """k cliques of ``size`` vertices in a ring; ``bridges`` distinct random
    edges join each pair of consecutive cliques."""
    iu, ju = np.triu_indices(size, k=1)
    parts = [np.stack([iu + c * size, ju + c * size], axis=1) for c in range(k)]
    for c in range(k):
        nxt = (c + 1) % k
        pairs = rng.choice(size * size, size=bridges, replace=False)
        parts.append(np.stack([c * size + pairs // size, nxt * size + pairs % size], axis=1))
    return k * size, np.concatenate(parts), np.repeat(np.arange(k), size)


def planted_partition(rng, sizes, p_in: float, p_out: float):
    """Each pair is an edge with probability p_in inside a block and p_out
    across blocks; a vertex left isolated is joined to a random block mate."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = len(labels)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(len(iu)) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    deg = np.bincount(edges.ravel(), minlength=n)
    extra = []
    for v in np.flatnonzero(deg == 0):
        mates = np.flatnonzero((labels == labels[v]) & (np.arange(n) != v))
        extra.append((v, int(rng.choice(mates))))
    if extra:
        edges = np.concatenate([edges, np.array(extra, dtype=edges.dtype)])
    return n, edges, labels


def fixed_ring(sizes):
    """Ring of cliques of the given sizes with one bridge per gap, from the
    last vertex of each clique to the first vertex of the next."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    parts = [np.stack(np.triu_indices(s, k=1), axis=1) + offsets[c] for c, s in enumerate(sizes)]
    k = len(sizes)
    bridges = np.array([(offsets[c + 1] - 1, offsets[(c + 1) % k]) for c in range(k)])
    return int(offsets[-1]), np.concatenate(parts + [bridges]), np.repeat(np.arange(k), sizes)


def relabel(rng, n: int, edges, labels):
    """Same graph under a random vertex permutation, with edge lines shuffled
    and each pair's orientation drawn at random. Every structural constant is
    unchanged, so results pinned for the unlabelled graph still hold."""
    perm = rng.permutation(n)
    edges = perm[np.asarray(edges)]
    edges = edges[rng.permutation(len(edges))]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    new_labels = np.empty(n, dtype=np.int64)
    new_labels[perm] = labels
    return n, edges, new_labels


def check_simple(n: int, edges) -> None:
    """Raise ValueError unless the graph is simple, has no isolated vertex
    and n <= MAX_VERTICES."""
    e = np.asarray(edges)
    if n > MAX_VERTICES:
        raise ValueError("n=%d exceeds %d" % (n, MAX_VERTICES))
    lo, hi = e.min(axis=1), e.max(axis=1)
    if np.any(lo == hi):
        raise ValueError("self-loop")
    if len(np.unique(lo * n + hi)) != len(e):
        raise ValueError("duplicate edge")
    if np.any(np.bincount(e.ravel(), minlength=n) == 0):
        raise ValueError("isolated vertex")


def write_graph(path: Path, n: int, edges, labels=None) -> list[Path]:
    """Write the edge list (and the partition next to it, as ``.part``)."""
    check_simple(n, edges)
    path.write_text("".join("%d %d\n" % (u, v) for u, v in np.asarray(edges).tolist()))
    written = [path]
    if labels is not None:
        part = path.with_suffix(".part")
        part.write_text("".join("%d %d\n" % (v, b)
                                for v, b in enumerate(np.asarray(labels).tolist())))
        written.append(part)
    return written


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def normalized_laplacian_low(n: int, edges, count: int) -> list[float]:
    """The ``count`` lowest eigenvalues of I - D^-1/2 A D^-1/2 (dense numpy
    reference, independent of spectralpart)."""
    e = np.asarray(edges)
    a = np.zeros((n, n))
    a[e[:, 0], e[:, 1]] = 1.0
    a[e[:, 1], e[:, 0]] = 1.0
    s = 1.0 / np.sqrt(a.sum(axis=1))
    lap = np.eye(n) - s[:, None] * a * s[None, :]
    return np.linalg.eigvalsh(lap)[:count].tolist()


def read_back(edge_path: Path, part_path: Path):
    """Parse a generated edge list and partition: (n, block sizes)."""
    edges = np.loadtxt(edge_path, dtype=np.int64, ndmin=2)
    parts = np.loadtxt(part_path, dtype=np.int64, ndmin=2)
    n = int(edges.max()) + 1
    check_simple(n, edges)
    labels = np.full(n, -1)
    labels[parts[:, 0]] = parts[:, 1]
    if np.any(labels < 0) or len(parts) != n:
        raise ValueError("partition does not cover every vertex once")
    return n, np.bincount(labels).tolist()
