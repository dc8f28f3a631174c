"""Tests of the benchmark itself: ``python3 -m pytest bench/test_job.py``."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402


def _job(tmp_path, argv, spans=None):
    cmd = [sys.executable, str(BENCH / "job.py")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--job-id", "7"]
    proc = subprocess.run(cmd + ["--"] + argv, env=run.child_env(), cwd=run.ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ["cluster", "--mode", "power", "--k", "3", "--seed", "4"],
    ["diagnose", "--k", "3", "--seed", "4"],
    ["verify", "--k", "3", "--seed", "4"],
    ["generate", "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--seed", "4"],
])
def test_traced_report_matches_untraced(tmp_path, argv):
    n, edges, labels = inputs.fixed_ring([3, 3, 3])
    edge_path, part_path = inputs.write_graph(tmp_path / "g.txt", n, edges, labels)
    if argv[0] == "generate":
        argv = argv + ["--out", str(tmp_path / "gen.txt")]
    else:
        argv = argv + ["--input", str(edge_path)]
    if argv[0] == "diagnose":
        argv += ["--partition", str(part_path)]
    spans_path = tmp_path / "spans.json"
    reports = []
    for spans in (None, spans_path):
        if argv[0] == "generate":
            text = _job(tmp_path, argv, spans)
        else:
            out = tmp_path / "report.json"
            _job(tmp_path, argv + ["--out", str(out)], spans)
            text = out.read_text()
        report = json.loads(text)
        report.pop("timings", None)
        reports.append(report)
    assert reports[0] == reports[1]

    spans = json.loads(spans_path.read_text())
    assert spans and all(s[4] == 7 and s[2] >= s[1] for s in spans)
    assert {s[0].split(".")[0] for s in spans} <= set(run.LAYERS)
    layers = run.layer_metrics(spans, wall=10.0)
    total = sum(layers[layer + ".self_s"] for layer in run.LAYERS) + layers["cli.self_s"]
    assert total == pytest.approx(10.0, abs=1e-9)


def test_self_time_excludes_children():
    spans = [["graph.read_edge_list", 0.0, 3.0, -1, 0, None],
             ["graph.Graph.__init__", 1.0, 2.0, 0, 0, None],
             ["linalg.sym_eig", 4.0, 8.0, -1, 0, {"eig_calls": 1, "eig_pairs": 5, "eig_n3": 125}]]
    layers = run.layer_metrics(spans, wall=10.0)
    assert layers["graph.read_s"] == 2.0
    assert layers["graph.build_s"] == 1.0
    assert layers["graph.self_s"] == 3.0
    assert layers["linalg.self_s"] == 4.0
    assert layers["linalg.eig_n3"] == 125 and layers["spectral.eig_pairs"] == 5
    assert layers["cli.self_s"] == 3.0


def _hashes(tmp_path, seed):
    rng = inputs.rng_for(seed, "test")
    graphs = {"ring": inputs.ring_of_cliques(rng, 3, 20, 2),
              "sbm": inputs.planted_partition(rng, [20, 20], 0.5, 0.05),
              "hub": (10, np.array(inputs.HUB10), np.array(inputs.HUB10_LABELS))}
    tmp_path.mkdir()
    out = {}
    for name, graph in graphs.items():
        n, edges, labels = inputs.relabel(rng, *graph)
        for path in inputs.write_graph(tmp_path / ("%s.txt" % name), n, edges, labels):
            out[path.name] = inputs.sha256(path)
    return out


def test_inputs_follow_the_seed(tmp_path):
    first, again, other = (_hashes(tmp_path / "a", 1), _hashes(tmp_path / "b", 1),
                           _hashes(tmp_path / "c", 2))
    assert first == again
    assert all(first[name] != other[name] for name in first)
