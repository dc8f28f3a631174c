"""Parity of the vectorized file layer with the line-by-line code it replaced.

The readers parse with numpy and check the rows with array operations; the
writers format chunks of rows; ``gen_ring_of_cliques`` builds its cliques
from ``np.triu_indices``; ``Graph`` sorts one int64 key per edge. The loop
versions below are the references: every reader case must give the same
graph or the same exception text, every file the same bytes, and every
generator call the same graph.
"""

import itertools
import re

import numpy as np
import pytest

from spectralpart import (Graph, InputError, Partition, gen_ring_of_cliques,
                          read_edge_list, read_partition, write_edge_list,
                          write_partition)
from spectralpart import graph as G
from spectralpart.linalg import rng_stream

ID_LIMIT = 2 ** 63


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def reference_read_edge_list(path) -> Graph:
    """The per-line reader, with ids at or above 2^63 rejected."""
    edges = []
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError("%s:%d: expected 'u v'" % (path, lineno))
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError("%s:%d: vertex ids must be integers" % (path, lineno))
            if u < 0 or v < 0:
                raise InputError("%s:%d: negative vertex id" % (path, lineno))
            if u >= ID_LIMIT or v >= ID_LIMIT:
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


def reference_read_partition(path, n: int) -> Partition:
    """The per-line partition reader, with block ids at or above 2^63 rejected."""
    labels = np.full(n, -1, dtype=np.int64)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError("%s:%d: expected 'vertex block'" % (path, lineno))
            try:
                v, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError("%s:%d: ids must be integers" % (path, lineno))
            if v < 0 or v >= n:
                raise InputError("%s:%d: vertex %d out of range" % (path, lineno, v))
            if b < 0:
                raise InputError("%s:%d: negative block id" % (path, lineno))
            if b >= ID_LIMIT:
                raise InputError("%s:%d: block id out of range" % (path, lineno))
            if labels[v] != -1:
                raise InputError("%s:%d: vertex %d assigned twice (overlapping blocks)"
                                 % (path, lineno, v))
            labels[v] = b
    if np.any(labels < 0):
        missing = int(np.flatnonzero(labels < 0)[0])
        raise InputError("%s: vertex %d has no block" % (path, missing))
    return Partition(int(labels.max()) + 1, labels)


def reference_write_edge_list(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write("%d %d\n" % (u, v))


def reference_write_partition(p: Partition, path):
    with open(path, "w", encoding="utf-8") as fh:
        for v, b in enumerate(p.labels):
            if b >= 0:
                fh.write("%d %d\n" % (v, b))


def reference_ring_edges(k: int, s: int, bridges: int, seed: int) -> list:
    """gen_ring_of_cliques' edge list, built one pair at a time."""
    rng = rng_stream(seed, "graph", "ring_of_cliques")
    edges = []
    for c in range(k):
        base = c * s
        edges.extend((base + i, base + j) for i in range(s) for j in range(i + 1, s))
    gaps = [(0, 1)] if k == 2 else [(i, (i + 1) % k) for i in range(k)]
    for ca, cb in gaps:
        chosen = set()
        while len(chosen) < bridges:
            u = int(rng.integers(0, s))
            v = int(rng.integers(0, s))
            if (u, v) not in chosen:
                chosen.add((u, v))
        edges.extend((ca * s + u, cb * s + v) for u, v in sorted(chosen))
    return edges


def reference_graph_arrays(n: int, edges):
    """Graph's canonical edges, degrees and CSR arrays by two lexsorts."""
    e = np.asarray(edges, dtype=np.int64)
    canon = np.stack([e.min(axis=1), e.max(axis=1)], axis=1)
    canon = canon[np.lexsort((canon[:, 1], canon[:, 0]))]
    degrees = np.bincount(canon.ravel(), minlength=n)
    src = np.concatenate([canon[:, 0], canon[:, 1]])
    dst = np.concatenate([canon[:, 1], canon[:, 0]])
    indices = dst[np.lexsort((dst, src))]
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    return canon, degrees, indices, indptr


# ---------------------------------------------------------------------------
# Seeded fuzz files
# ---------------------------------------------------------------------------

SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
BAD_TOKENS = ["1.0", "1e3", "a", "0x1", "1_0", "\u0661", "\u0663", "+", "-", "--1",
              "-1", "-7", "99999999999999999999", "9223372036854775807",
              "9223372036854775808", "-9223372036854775809", "1#2", "\ufeff1"]


def _id_token(rng, v: int) -> str:
    form = rng.integers(8)
    if form == 0:
        return "+%d" % v
    if form == 1:
        return "0%d" % v
    if form == 2 and v == 0:
        return "-0"
    return "%d" % v


def _fuzz_text(rng, rows: list) -> str:
    """Write integer rows with varied whitespace, signs, leading zeros,
    comments, blank lines and line ends; now and then a row loses or gains a
    token or has one replaced by a bad token."""
    lines = []
    for row in rows:
        tokens = [_id_token(rng, v) for v in row]
        if rng.random() < 0.05:
            tokens.pop()  # one token
        elif rng.random() < 0.05:
            tokens.append(_id_token(rng, int(rng.integers(6))))  # three tokens
        if rng.random() < 0.05:
            tokens[int(rng.integers(len(tokens)))] = str(rng.choice(BAD_TOKENS))
        sep = [str(rng.choice(SEPARATORS)) for _ in tokens]
        line = "".join(t + s for t, s in zip(tokens, sep))[:-len(sep[-1])]
        if rng.random() < 0.2:
            line = str(rng.choice(["", " ", "\t", "\x0c"])) + line + str(rng.choice(["", " ", "\t"]))
        if rng.random() < 0.1:
            line += str(rng.choice([" # note", "#x", "\t# 1 2 3"]))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "   ", "# comment", "\t#", "\x0b"])))
    text = "".join(line + str(rng.choice(LINE_ENDS)) for line in lines)
    if rng.random() < 0.05:
        text = text.rstrip("\r\n")  # no final newline
    if rng.random() < 0.03:
        text = "\ufeff" + text
    return text


def _outcome(fn, *args):
    """A comparable summary of fn(*args): its arrays, or its exception."""
    try:
        result = fn(*args)
    except Exception as exc:  # compared by type and text
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, Graph):
        return ("graph", result.n, result.edges.tolist(), result.indices.tolist())
    return ("partition", result.k, result.labels.tolist())


def _edge_rows(rng) -> list:
    n = int(rng.integers(2, 9))
    pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    if not pairs:
        pairs = [(0, 1)]
    rows = [list(p) if rng.random() < 0.5 else [p[1], p[0]] for p in pairs]
    rng.shuffle(rows)
    if rng.random() < 0.1:
        rows.append(list(rows[int(rng.integers(len(rows)))])[::-1])  # reversed duplicate
    if rng.random() < 0.05:
        rows.append([3, 3])  # self-loop
    if rng.random() < 0.03:
        rows.append([0, int(rng.choice([10 ** 12, 2 ** 63 - 1]))])  # isolated ids
    return rows


def _partition_rows(rng, n: int) -> list:
    k = int(rng.integers(1, n + 1))
    labels = rng.integers(0, k, size=n)
    labels[:k] = rng.permutation(k)
    rows = [[v, int(labels[v])] for v in rng.permutation(n)]
    if rng.random() < 0.1:
        rows.pop(int(rng.integers(len(rows))))  # a vertex with no block
    if rng.random() < 0.1:
        rows.append([int(rng.integers(n)), 0])  # a vertex listed twice
    if rng.random() < 0.05:
        rows.append([n + int(rng.integers(3)), 0])  # vertex out of range
    if rows and rng.random() < 0.05:
        rows[0][1] = int(rng.choice([k + 2, 2 ** 62, 2 ** 63 - 1]))  # empty blocks
    return rows


FUZZ_FILES = 400
FIXED_TEXTS = ["", "\n\n", "# only a comment\n", "  \t\n# x\n", "\ufeff0 1\n",
               "0 1\n1 2\n0 1\n", "0 1_0\n", "0 \u0661\n", "0 99999999999999999999\n",
               "0 1000000000000\n", "0 1 2\n", "0\n", "1 0\r\n2 1\r\n", "0 1\r1 2\r",
               "0\x0b1\n1\x852\n"]
NUMPY_REFUSED = ("1_0", "\u0661", "\u0663")  # tokens that Python's int reads


def _check_parity(tmp_path, monkeypatch, loop_name, read, reference, cases) -> set:
    """Compare read with reference on each (text, *args) case. Returns the
    outcomes seen: 'ok by numpy', 'ok by loop', and each error message with
    its path removed and its numbers replaced by N."""
    loop = getattr(G, loop_name)
    loop_runs = []
    monkeypatch.setattr(G, loop_name, lambda *a: loop_runs.append(a) or loop(*a))
    path = tmp_path / "input.txt"
    seen = set()
    for text, *args in cases:
        path.write_bytes(text.encode("utf-8"))
        del loop_runs[:]
        got = _outcome(read, path, *args)
        assert got == _outcome(reference, path, *args), (repr(text), args)
        if got[0] == "error":
            seen.add(re.sub(r"\d+", "N", got[2].replace(str(path), "")))
        else:
            # The line loop runs for a valid file only where numpy refuses it.
            assert bool(loop_runs) == any(t in text for t in NUMPY_REFUSED), repr(text)
            seen.add("ok by loop" if loop_runs else "ok by numpy")
    return seen


def test_read_edge_list_matches_line_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    cases = [(text,) for text in FIXED_TEXTS]
    cases += [(_fuzz_text(rng, _edge_rows(rng)),) for _ in range(FUZZ_FILES)]
    seen = _check_parity(tmp_path, monkeypatch, "_read_edge_lines", read_edge_list,
                         reference_read_edge_list, cases)
    assert seen == {"ok by numpy", "ok by loop", ": no edges", ":N: expected 'u v'",
                    ":N: vertex ids must be integers", ":N: negative vertex id",
                    ":N: vertex id out of range", ":N: self-loop", ":N: duplicate of line N",
                    "isolated vertices are not allowed (vertex N)"}


def test_read_partition_matches_line_reference(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    cases = [(text, 2) for text in FIXED_TEXTS]
    for _ in range(FUZZ_FILES):
        n = int(rng.integers(1, 8))
        cases.append((_fuzz_text(rng, _partition_rows(rng, n)), n))
    seen = _check_parity(tmp_path, monkeypatch, "_read_partition_lines", read_partition,
                         reference_read_partition, cases)
    assert seen == {"ok by numpy", "ok by loop", ": vertex N has no block",
                    ":N: expected 'vertex block'", ":N: ids must be integers",
                    ":N: vertex N out of range", ":N: vertex -N out of range",
                    ":N: negative block id", ":N: block id out of range",
                    ":N: vertex N assigned twice (overlapping blocks)",
                    "every block must be nonempty"}


def _random_graph(rng) -> Graph:
    n = int(rng.integers(2, 40))
    pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3]
    pairs += [(v, v + 1) for v in range(n - 1)]  # no isolated vertex
    return Graph(n, sorted(set(pairs)))


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_writers_match_line_reference_bytes(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(G, "_WRITE_CHUNK", chunk_rows)
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = _random_graph(rng)
        write_edge_list(g, tmp_path / "a.txt")
        reference_write_edge_list(g, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        k = int(rng.integers(1, 5))
        labels = rng.integers(-1, k, size=g.n)
        labels[:k] = np.arange(k)
        p = Partition(k, labels, allow_uncovered=True)
        write_partition(p, tmp_path / "a.part")
        reference_write_partition(p, tmp_path / "b.part")
        assert (tmp_path / "a.part").read_bytes() == (tmp_path / "b.part").read_bytes()


def test_ring_generator_matches_loop_reference():
    for k, s, seed in itertools.product([2, 3, 5], [3, 4, 6], [0, 1, 42]):
        for b in sorted({0, 1, 2, s, s * s}):
            g, p = gen_ring_of_cliques(k, s, b, seed)
            ref = Graph(k * s, reference_ring_edges(k, s, b, seed))
            assert np.array_equal(g.edges, ref.edges), (k, s, b, seed)
            assert p.labels.tolist() == np.repeat(np.arange(k), s).tolist()


def test_graph_arrays_match_lexsort_reference():
    rng = np.random.default_rng(13)
    for _ in range(50):
        g = _random_graph(rng)
        edges = rng.permutation(g.edges)
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        h = Graph(g.n, edges)
        for got, want in zip((h.edges, h.degrees, h.indices, h.indptr),
                             reference_graph_arrays(g.n, edges)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
