"""End-to-end benchmark of the spectral-part CLI, with an outside-in trace.

    python3 bench/run.py --workload ring_dense --seed 1 --seconds 60 --trace 0

Each job runs the CLI the way its users do: one child process per job, one
job at a time (a closed loop with a single client). A pass runs every job of
the workload once; passes repeat until ``--seconds`` is used up. Every job's
output is checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the input file hashes and the machine.

The traced run wraps the layer modules from ``bench/job.py``; see
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

#: One BLAS thread per job, one job at a time: the figures then depend on
#: neither the core count nor the other jobs on the machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The benchmark's own numpy (inputs, reference eigenvalues) uses one thread
# too; BLAS reads these when numpy loads.
os.environ.update(dict.fromkeys(THREAD_VARS, str(THREADS)))

import numpy as np  # noqa: E402
from scipy.optimize import linear_sum_assignment  # noqa: E402

import inputs  # noqa: E402
from job import LAYERS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / ".work"

#: Fresh interpreters started to measure set-up time before the first pass;
#: one more starts before every pass.
SETUP_SAMPLES = 2
#: Absolute tolerance of reported eigenvalues against the numpy reference.
EIG_TOL = 1e-8
#: Largest accepted relative symmetric-difference volume of a cluster job.
RECOVERY_BOUND = 0.05

SUBCOMMAND_METRICS = ("cluster_exact_s", "cluster_power_s", "diagnose_s",
                      "generate_s", "verify_s")
END_TO_END = {"setup_s": "s", "wall_s": "s", **{m: "s" for m in SUBCOMMAND_METRICS},
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "graph.read_s": "s", "graph.build_s": "s", "graph.generate_s": "s",
    "graph.self_s": "s",
    "linalg.self_s": "s", "linalg.eig_calls": "count", "linalg.eig_n3": "flop",
    "spectral.self_s": "s", "spectral.matvec_cols": "count",
    "spectral.matvec_nnz": "count", "spectral.power_steps": "count",
    "spectral.eig_pairs": "count", "spectral.eig_pairs_useful": "ratio",
    "kmeans.self_s": "s", "kmeans.restarts": "count", "kmeans.lloyd_steps": "count",
    "kmeans.bruteforce_s": "s",
    "diagnostics.self_s": "s", "diagnostics.constants_s": "s",
    "diagnostics.constants_calls": "count", "diagnostics.interconnect_s": "s",
    "diagnostics.checks_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s", "recovery_err": "frac",
}


# ---------------------------------------------------------------------------
# Jobs and their output checks
# ---------------------------------------------------------------------------

@dataclass
class Input:
    """A graph on disk plus what the checks compare with."""

    name: str
    n: int
    k: int
    edges: object
    labels: object
    files: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # k+1 lowest eigenvalues

    @property
    def path(self) -> str:
        return str(self.files[0])

    @property
    def partition(self) -> str:
        return str(self.files[1])


@dataclass
class Job:
    metric: str                     # the end-to-end metric its wall time adds to
    argv: list
    check: Callable                 # (report, Result) -> list of problems
    report: Path | None             # None: the report is on standard output
    k: int


@dataclass
class Result:
    job: Job
    code: int
    wall: float
    rss: float
    report: dict | None = None
    problems: list = field(default_factory=list)
    recovery: float | None = None
    layers: dict | None = None


def _eigen_problems(rep, g: Input) -> list:
    vals = rep.get("eigenvalues")
    if not isinstance(vals, list) or not vals:
        return ["%s: no eigenvalues" % g.name]
    if not all(abs(float(a) - b) <= EIG_TOL for a, b in zip(vals, g.reference)):
        return ["%s: eigenvalues %s, reference %s" % (g.name, vals, g.reference)]
    return []


def _failed_checks(rep) -> list:
    return ["check %s failed" % c["name"] for c in rep.get("checks", [])
            if c["hypothesis_met"] and not c["passed"]]


def recovery_error(g: Input, assignment) -> float:
    """Largest vol(A_i sym-diff B_pi(i)) / vol(B_pi(i)) after the matching pi
    that minimises the total symmetric-difference volume."""
    a = np.asarray(assignment, dtype=np.int64)
    b = np.asarray(g.labels, dtype=np.int64)
    if a.shape != b.shape or a.min() < 0 or a.max() >= g.k:
        return float("inf")
    deg = np.bincount(np.asarray(g.edges).ravel(), minlength=g.n).astype(float)
    overlap = np.zeros((g.k, g.k))
    np.add.at(overlap, (a, b), deg)
    vol_a, vol_b = overlap.sum(axis=1), overlap.sum(axis=0)
    sym = vol_a[:, None] + vol_b[None, :] - 2.0 * overlap
    rows, cols = linear_sum_assignment(sym)
    return float(max(sym[r, c] / vol_b[c] for r, c in zip(rows, cols)))


def cluster_job(g: Input, mode: str, seed: int, tag: str) -> Job:
    report = WORK / ("%s.json" % tag)

    def check(rep, result):
        problems = _eigen_problems(rep, g) if "eigenvalues" in rep or mode == "exact" else []
        result.recovery = recovery_error(g, rep["clustering"]["assignment"])
        if not result.recovery <= RECOVERY_BOUND:
            problems.append("%s: recovery error %.4g > %g"
                            % (g.name, result.recovery, RECOVERY_BOUND))
        return problems

    return Job("cluster_%s_s" % mode,
               ["cluster", "--input", g.path, "--k", str(g.k), "--mode", mode,
                "--seed", str(seed), "--out", str(report)], check, report, g.k)


def diagnose_job(g: Input, seed: int, tag: str) -> Job:
    report = WORK / ("%s.json" % tag)
    return Job("diagnose_s",
               ["diagnose", "--input", g.path, "--partition", g.partition,
                "--k", str(g.k), "--seed", str(seed), "--out", str(report)],
               lambda rep, _: _eigen_problems(rep, g) + _failed_checks(rep), report, g.k)


def verify_job(g: Input, constants, seed: int, tag: str) -> Job:
    """``constants`` = (rho, rho_hat, rho_avr), pinned as exact fractions."""
    report = WORK / ("%s.json" % tag)

    def check(rep, _):
        got = rep.get("constants", {})
        want = dict(zip(("rho", "rho_hat", "rho_avr"), constants))
        bad = [key for key, val in want.items() if got.get(key) != float(val)]
        problems = ["%s: constant %s is %r, pinned %s" % (g.name, key, got.get(key), want[key])
                    for key in bad]
        return problems + _eigen_problems(rep, g) + _failed_checks(rep)

    return Job("verify_s",
               ["verify", "--input", g.path, "--k", str(g.k), "--seed", str(seed),
                "--out", str(report)], check, report, g.k)


def generate_job(spec: str, n: int, sizes: list, seed: int, tag: str) -> Job:
    out = WORK / ("%s.txt" % tag)

    def check(rep, _):
        try:
            got = inputs.read_back(out, Path(str(out) + ".part"))
        except (OSError, ValueError) as exc:
            return ["generate: %s" % exc]
        return [] if got == (n, sizes) else ["generate: got n, sizes %r, asked %r"
                                             % (got, (n, sizes))]

    return Job("generate_s", ["generate", "--gen", spec, "--k", str(len(sizes)),
                              "--seed", str(seed), "--out", str(out)], check, None, len(sizes))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

#: Pinned from the current code: (rho, rho_hat, rho_avr) of each small graph.
#: They are invariant under the seeded relabelling.
RING9_CONSTANTS = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
HUB10_CONSTANTS = (Fraction(1, 7), Fraction(1, 5), Fraction(17, 105))
RING11_CONSTANTS = (Fraction(1, 4), Fraction(1, 4), Fraction(5, 28))
PLANTED10_CONSTANTS = (Fraction(1, 2), Fraction(1, 2), Fraction(5, 12))


def _materialise(name: str, seed: int, graph, k: int) -> Input:
    """Write ``graph`` = (n, edges, planted labels) under a seeded vertex
    relabelling, and compute its reference eigenvalues."""
    n, edges, labels = inputs.relabel(inputs.rng_for(seed, name, "relabel"), *graph)
    g = Input(name, n, k, edges, labels)
    g.files = inputs.write_graph(WORK / ("%s.txt" % name), n, edges, labels)
    g.reference = inputs.normalized_laplacian_low(n, edges, k + 1)
    return g


def _workload(g: Input, spec: str, sizes: list, seed: int, verify: list):
    """The jobs of a workload: generate, both cluster modes and diagnose on
    ``g``, then verify on each small (Input, pinned constants) pair."""
    jobs = [generate_job(spec, g.n, sizes, seed, "gen"),
            cluster_job(g, "exact", seed, "exact"),
            cluster_job(g, "power", seed, "power"),
            diagnose_job(g, seed, "diagnose")]
    jobs += [verify_job(small, constants, seed, "verify_" + small.name)
             for small, constants in verify]
    return jobs, [g] + [small for small, _ in verify]


def ring_dense(seed: int):
    """Verify runs only on a 9-vertex ring, where brute force is negligible:
    the bypass for brute-force changes."""
    k, size, bridges = 3, 350, 2
    graph = inputs.ring_of_cliques(inputs.rng_for(seed, "ring_dense"), k, size, bridges)
    g = _materialise("ring", seed, graph, k)
    ring9 = _materialise("ring9", seed, inputs.fixed_ring([3, 3, 3]), 3)
    return _workload(g, "ring:k=%d,size=%d,b=%d" % (k, size, bridges), [size] * k, seed,
                     [(ring9, RING9_CONSTANTS)])


def sbm_sparse(seed: int):
    """Verify runs on three 10- and 11-vertex graphs, where brute force is
    nearly all of the job and the spectrum is negligible."""
    sizes, p_in, p_out = [150] * 8, 0.12, 0.008
    graph = inputs.planted_partition(inputs.rng_for(seed, "sbm_sparse"), sizes, p_in, p_out)
    g = _materialise("sbm", seed, graph, len(sizes))
    spec = "sbm:sizes=%s,pin=%g,pout=%g" % ("+".join(map(str, sizes)), p_in, p_out)
    hub = _materialise("hub10", seed, (10, np.array(inputs.HUB10),
                                       np.array(inputs.HUB10_LABELS)), 3)
    ring11 = _materialise("ring11", seed, inputs.fixed_ring([4, 4, 3]), 3)
    planted = _materialise("planted10", seed, (10, np.array(inputs.PLANTED10),
                                               np.array(inputs.PLANTED10_LABELS)), 4)
    return _workload(g, spec, sizes, seed, [(hub, HUB10_CONSTANTS), (ring11, RING11_CONSTANTS),
                                             (planted, PLANTED10_CONSTANTS)])


WORKLOADS = {"ring_dense": ring_dense, "sbm_sparse": sbm_sparse}


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), SPECTRAL_PART_THREADS=str(THREADS))
    # The package imports numpy before the CLI applies SPECTRAL_PART_THREADS,
    # so the cap is also set where BLAS reads it.
    env.update(dict.fromkeys(THREAD_VARS, str(THREADS)))
    return env


def spawn(cmd: list, stdout: Path) -> tuple[int, float, float]:
    """Run cmd to completion: (exit code, wall seconds, peak RSS in MB).
    Standard error goes next to ``stdout``, with suffix ``.stderr``."""
    with open(stdout, "w", encoding="utf-8") as out, \
            open(stdout.with_suffix(".stderr"), "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_job(job: Job, spans: Path | None = None, job_id: int = 0) -> Result:
    cmd = [sys.executable, str(BENCH / "job.py")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--job-id", str(job_id)]
    stdout = WORK / "job.stdout"
    result = Result(job, *spawn(cmd + ["--"] + job.argv, stdout))
    try:
        result.report = json.loads((job.report or stdout).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        result.problems.append("unreadable report: %s" % exc)
    if result.code != 0:
        result.problems.append("exit code %d" % result.code)
    if result.report is not None:
        try:
            result.problems += job.check(result.report, result)
        except (KeyError, TypeError, ValueError) as exc:
            result.problems.append("malformed report: %r" % exc)
    if job.report is not None:
        job.report.unlink(missing_ok=True)
    return result


def setup_time() -> float:
    imports = "import spectralpart.cli, " + ", ".join("spectralpart." + m for m in LAYERS)
    code, wall, _ = spawn([sys.executable, "-c", imports], WORK / "setup.stdout")
    if code != 0:
        raise SystemExit("spectralpart does not import; see %s" % (WORK / "setup.stdout"))
    return wall


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

#: Counter name in the spans -> per-layer metric.
COUNTERS = {"eig_calls": "linalg.eig_calls", "eig_n3": "linalg.eig_n3",
            "eig_pairs": "spectral.eig_pairs", "matvec_cols": "spectral.matvec_cols",
            "matvec_nnz": "spectral.matvec_nnz"}


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer figures of one traced job whose wall time is ``wall``.

    Self time is a span's duration minus that of its direct children, so the
    layer self times plus ``cli.self_s`` add up to ``wall``.
    """
    out = {name: 0.0 for name in PER_LAYER}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total_self = 0.0
    for (name, start, end, _parent, _job, counts), children in zip(spans, child_time):
        layer, _, func = name.partition(".")
        dur = end - start
        self_s = dur - children
        total_self += self_s
        out[layer + ".self_s"] += self_s
        if layer == "graph":
            if func.startswith("read_"):
                out["graph.read_s"] += self_s
            elif func.startswith(("gen_", "write_")):
                out["graph.generate_s"] += self_s
            elif func == "Graph.__init__":
                out["graph.build_s"] += self_s
        elif func == "orss_kmeans":
            out["kmeans.restarts"] += 1
        elif func == "lloyd_step":
            out["kmeans.lloyd_steps"] += 1
        elif func == "optimal_cost_bruteforce":
            out["kmeans.bruteforce_s"] += dur
        elif func == "bruteforce_partition_constants":
            out["diagnostics.constants_s"] += dur
            out["diagnostics.constants_calls"] += 1
        elif func == "inter_connection":
            out["diagnostics.interconnect_s"] += self_s
        elif func == "run_theorem_checks":
            out["diagnostics.checks_s"] += self_s
        for key, value in (counts or {}).items():
            out[COUNTERS[key]] += value
    out["cli.self_s"] = wall - total_self
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_config": blas.get("openblas configuration"),
            "SPECTRAL_PART_THREADS": THREADS}


def _strip_timings(report: dict | None) -> dict | None:
    return None if report is None else {k: v for k, v in report.items() if k != "timings"}


def run_traced(job: Job, job_id: int, plain: Result) -> Result:
    """Run ``job`` again under the tracer, right after its untraced run."""
    spans_path = WORK / "spans.json"
    spans_path.unlink(missing_ok=True)
    traced = run_job(job, spans_path, job_id)
    try:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        traced.problems.append("no spans: %s" % exc)
        spans = []
    traced.layers = layer_metrics(spans, traced.wall)
    traced.layers["trace.overhead_s"] = traced.wall - plain.wall
    if _strip_timings(traced.report) != _strip_timings(plain.report):
        traced.problems.append("traced report differs from the untraced one")
    return traced


def measure(jobs: list, seconds: float, trace: bool) -> tuple[list, list]:
    """Closed loop over passes until ``seconds`` are used; at least one pass.
    A pass starts only if the previous one would still fit."""
    passes, setups = [], []
    start = time.perf_counter()
    if not trace:
        setups = [setup_time() for _ in range(SETUP_SAMPLES)]
    while True:
        t0 = time.perf_counter()
        if not trace:
            setups.append(setup_time())
        results = []
        for i, job in enumerate(jobs):
            results.append(run_job(job))
            if trace:
                results.append(run_traced(job, i, results[-1]))
        for r in results:
            for problem in r.problems:
                print("FAILED %s %s: %s" % (r.job.argv[0], r.job.argv[2], problem),
                      file=sys.stderr)
        passes.append(results)
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return passes, setups


def end_to_end(passes: list, setups: list) -> dict:
    per_pass = []
    for results in passes:
        row = {m: 0.0 for m in SUBCOMMAND_METRICS}
        for r in results:
            row[r.job.metric] += r.wall
        row["wall_s"] = sum(r.wall for r in results)
        per_pass.append(row)
    values = {"setup_s": statistics.median(setups)}
    for name in ("wall_s",) + SUBCOMMAND_METRICS:
        values[name] = statistics.median(row[name] for row in per_pass)
    values["peak_rss_mb"] = max(r.rss for results in passes for r in results)
    return values


def per_layer(passes: list) -> dict:
    per_pass = []
    for results in passes:
        row = {name: 0.0 for name in PER_LAYER}
        useful = 0
        for r in results:
            if r.layers is None:
                continue
            for name, value in r.layers.items():
                row[name] += value
            if r.layers["spectral.eig_pairs"]:
                useful += r.job.k + 1
            power = (r.report or {}).get("power") or {}
            row["spectral.power_steps"] += power.get("steps", 0)
            if r.recovery is not None:
                row["recovery_err"] = max(row["recovery_err"], r.recovery)
        row["spectral.eig_pairs_useful"] = (useful / row["spectral.eig_pairs"]
                                            if row["spectral.eig_pairs"] else 0.0)
        per_pass.append(row)
    return {name: statistics.median(row[name] for row in per_pass) for name in PER_LAYER}


def _number(value: float, unit: str):
    return int(value) if unit in ("count", "flop") else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectralpart" / "cli.py").is_file():
        print("no spectralpart sources under %s" % SRC, file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    jobs, graphs = WORKLOADS[args.workload](args.seed)
    setup_time()  # warm the file cache and compiled bytecode; not measured
    passes, setups = measure(jobs, args.seconds, bool(args.trace))

    results = [r for results in passes for r in results]
    failed = sum(1 for r in results if r.problems)
    if args.trace:
        values, names = per_layer(passes), PER_LAYER
    else:
        values, names = end_to_end(passes, setups), END_TO_END
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "inputs": {p.name: inputs.sha256(p) for g in graphs for p in g.files},
        "machine": machine_facts()}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": _number(values[name], names[name]), "unit": names[name]}
                    for name in names}}))
    if not failed:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
