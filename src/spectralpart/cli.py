"""Command-line interface: cluster, diagnose, generate, verify.

Reports are JSON with a fixed field order and schema tag "spectral-part/7";
rerunning a subcommand with the same inputs and seed reproduces its report
byte for byte, "timings" aside. "config" echoes the subcommand and its parsed
flags in flag order, and no section repeats a "config" or "constants" value;
"checks" and "gap" are CheckRecord and GapReport, field for field; cluster
adds "gap.reference", the partition "gap" is computed from at every n
("planted", else "recovered"). Only verify gives the exact small-graph
constants. Only cluster takes --mode/--eps/--delta, and only cluster and
verify take --restarts; every subcommand refuses a --k other than the block
count of the partition that comes with the graph (--gen or --partition). Exit
codes: 0 success or all applicable checks passed, 1 an applicable check
failed, 2 input error, 3 numeric or capacity error (out of memory included).

The environment variable SPECTRAL_PART_THREADS caps internal (BLAS) thread
parallelism; the package applies it when it is imported, before numpy loads.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import stat
import sys
import time

from . import diagnostics as D
from . import graph as G
from . import spectral as S
from .diagnostics import CHECK_TOL, _record
from .errors import CapacityError, InputError, NumericError
from .kmeans import DEFAULT_RESTARTS, best_of_orss, optimal_cost_bruteforce

SCHEMA = "spectral-part/7"

_EXIT_CHECK_FAILED = 1
_EXIT_INPUT = 2
_EXIT_NUMERIC = 3


def _jsonable(value):
    """Recursively convert report values to JSON-safe types.

    Non-finite floats become the strings "inf" / "-inf" / "nan" so reports
    stay strictly parseable.
    """
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def _emit(report: dict, out):
    out.write(json.dumps(_jsonable(report), indent=2) + "\n")


def parse_gen_spec(spec: str):
    """Parse a generator spec string.

    Grammar:
      ring:k=<int>,size=<int>,b=<int>
      sbm:sizes=<int>+<int>[+...],pin=<float>,pout=<float>
    """
    usage = parse_gen_spec.__doc__.split("Grammar:")[1].strip()
    head, _, rest = spec.partition(":")
    known = {"ring": {"k", "size", "b"}, "sbm": {"sizes", "pin", "pout"}}
    if head not in known:
        raise InputError("unknown generator %r; grammar:\n%s" % (head, usage))
    fields = {}
    for item in rest.split(","):
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or key not in known[head] or key in fields:
            raise InputError("bad generator spec %r; grammar:\n%s" % (spec, usage))
        fields[key] = val.strip()
    try:
        if head == "ring":
            return ("ring", int(fields["k"]), int(fields["size"]), int(fields["b"]))
        if head == "sbm":
            sizes = [int(s) for s in fields["sizes"].split("+")]
            return ("sbm", sizes, float(fields["pin"]), float(fields["pout"]))
    except (KeyError, ValueError):
        raise InputError("bad generator spec %r; grammar:\n%s" % (spec, usage))


def _read_file(read, path, *args):
    """``read(path, *args)``, with an unreadable or non-UTF-8 file an InputError."""
    try:
        return read(path, *args)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("%s: cannot read: %s" % (path, exc)) from exc


@contextlib.contextmanager
def _output(path):
    """``path`` opened for writing from its start, or stdout for None.

    Opened before the work that fills it, so an unwritable path fails fast,
    but not truncated there: a file the run still reads (an ``--input`` also
    given as ``--out``) stays intact until the block writes, and the tail of
    an older, longer regular file is cut when the block ends (a device, pipe
    or FIFO such as /dev/null has no tail to cut). When the block raises,
    a file this call created is removed and an existing one is left as the
    block left it. An OSError from opening, writing or closing the file
    becomes an InputError."""
    if path is None:
        yield sys.stdout
        return
    existed = os.path.exists(path)
    try:
        fh = os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")
    except OSError as exc:
        raise InputError("%s: cannot write: %s" % (path, exc)) from exc
    try:
        with fh:
            yield fh
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except BaseException as exc:
        if not existed:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise InputError("%s: cannot write: %s" % (path, exc)) from exc
        raise


@contextlib.contextmanager
def _timed(timings, key):
    """Store the seconds the block takes as ``timings[key]``."""
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0


def _load_graph(args, report):
    """The graph, its partition or None, and the graph's size in ``report``."""
    if args.gen:
        if getattr(args, "partition", None):
            raise InputError("--partition is only read with --input, not with --gen")
        spec = parse_gen_spec(args.gen)
        generate = G.gen_ring_of_cliques if spec[0] == "ring" else G.gen_sbm
        g, part = generate(*spec[1:], args.seed)
    else:
        g = _read_file(G.read_edge_list, args.input)
        path = getattr(args, "partition", None)
        part = _read_file(G.read_partition, path, g.n) if path else None
    if part is not None and part.k != args.k:
        raise InputError("partition has %d blocks, --k is %d" % (part.k, args.k))
    if args.command in ("cluster", "diagnose") and args.k >= g.n:
        raise InputError("%s needs k < n (got k=%d, n=%d)" % (args.command, args.k, g.n))
    report["graph"] = {"n": g.n, "m": g.m}
    return g, part


def _clustering_section(g, part, cost):
    blocks = []
    for i in range(part.k):
        mask = part.labels == i
        cut, vol = G.cut(g, mask), G.volume(g, mask)
        # int / int is correctly rounded, as float(Fraction(cut, vol)) is.
        blocks.append({"size": int(mask.sum()), "volume": vol, "cut": cut,
                       "conductance": cut / vol})
    return {"assignment": part.labels.tolist(), "blocks": blocks, "cost": cost}


def cmd_cluster(args, report, timings):
    with _timed(timings, "load"):
        g, planted = _load_graph(args, report)
    with _timed(timings, "embedding"):
        if args.mode == "exact":
            emb, eig = S.exact_embedding(g, args.k)
            power_info = None
        else:
            eig = S.spectrum(g, args.k)
            lam_k = float(eig.values[args.k - 1])
            lam_k1 = float(eig.values[args.k])
            steps = S.required_power_steps(g.n, args.k, args.eps, args.delta, lam_k, lam_k1)
            emb = S.power_embedding(eig, args.k, steps, args.seed)
            power_info = {"steps": steps}
    with _timed(timings, "kmeans"):
        clustering = best_of_orss(emb, args.k, args.seed, args.restarts)
        result = G.Partition(args.k, clustering.labels)
    report["eigenvalues"] = [float(v) for v in eig.values]
    report["power"] = power_info
    with _timed(timings, "gap"):
        reference = planted if planted is not None else result
        report["gap"] = dataclasses.asdict(D.gap_report(g, reference, eig))
        report["gap"]["reference"] = "planted" if planted is not None else "recovered"
    report["clustering"] = _clustering_section(g, result, clustering.cost)
    if planted is not None:
        pi = G.match_partitions(g, result, planted)
        targets = [planted.labels == pi[i] for i in range(args.k)]
        rel = [G.sym_diff_volume(g, result.labels == i, target) / G.volume(g, target)
               for i, target in enumerate(targets)]
        report["planted_match"] = {"permutation": pi.tolist(),
                                   "relative_sym_diff_volume": rel}


def cmd_diagnose(args, report, timings):
    if not (args.gen or args.partition):
        raise InputError("diagnose needs a reference partition (--gen or --partition)")
    with _timed(timings, "load"):
        g, planted = _load_graph(args, report)
    with _timed(timings, "checks"):
        eig, gap, records = D.run_theorem_checks(g, planted, args.seed)
    report["eigenvalues"] = [float(v) for v in eig.values]
    report["gap"] = dataclasses.asdict(gap)
    return records


def cmd_generate(args, report, timings):
    if not args.out:
        raise InputError("generate requires --out (edge list path; partition gets .part)")
    if not args.gen:
        raise InputError("generate requires --gen")
    part_path = args.out + ".part"
    with _output(args.out) as edges_fh, _output(part_path) as part_fh:
        g, planted = _load_graph(args, report)
        G.write_edge_list(g, edges_fh)
        G.write_partition(planted, part_fh)
        # Flushed while both files are open, so a failure removes both.
        edges_fh.flush()
    report["files"] = {"edges": args.out, "partition": part_path}


def cmd_verify(args, report, timings):
    k = args.k
    records = []
    with _timed(timings, "constants"):
        g, _ = _load_graph(args, report)
        consts = D.bruteforce_partition_constants(g, k)
        records.append(_record("tuple_constant_vs_partition_constant",
                               consts.rho, consts.rho_hat, True))
        records.append(_record("partition_constant_upper",
                               consts.rho_hat, k * consts.rho, True))
        emb, eig = S.exact_embedding(g, k)
        records.append(_record("eigenvalue_halved_lower",
                               float(eig.values[k - 1]) / 2.0, consts.rho, True))
    with _timed(timings, "interconnection"):
        inter = D.inter_connection(consts)
        inter_section = {"degenerate": inter.degenerate}
        if not inter.degenerate:
            inter_section.update(
                rho_p=inter.rho_p, kappa=inter.kappa, rho_avr_tilde=inter.rho_avr_tilde,
                witness_partition=inter.witness_partition.labels.tolist(),
                witness_tuple=inter.witness_tuple.tolist())
            records.append(_record("interconnection_in_range", inter.rho_p,
                                   1.0 - 1.0 / (k - 1), True,
                                   "positivity checked separately"))
            records.append(_record("interconnection_positive", 2 * CHECK_TOL, inter.rho_p,
                                   True, "asserts rho_p > 0"))
            phi_z = [float(G.conductance(g, inter.witness_tuple == i)) for i in range(k)]
            phi_p = [float(f) for f in G.block_conductances(g, inter.witness_partition)]
            for i in range(k):
                records.append(_record("interconnection_witness_phi[%d]" % i,
                                       phi_p[i], inter.kappa * phi_z[i], True))
            records.append(_record("interconnection_witness_avg",
                                   inter.rho_avr_tilde,
                                   inter.kappa / k * sum(phi_z), True))
    with _timed(timings, "kmeans"):
        oracle, _ = optimal_cost_bruteforce(emb, k)
        heur = best_of_orss(emb, k, args.seed, args.restarts)
        records.append(_record("kmeans_oracle_lower", oracle, heur.cost, True))
        records.append(_record("kmeans_heuristic_factor", heur.cost, 1.1 * oracle, True))
    report["eigenvalues"] = [float(v) for v in eig.values]
    report["constants"] = {"rho": consts.rho, "rho_hat": consts.rho_hat, "rho_avr": consts.rho_avr}
    report["interconnection"] = inter_section
    return records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-part",
        description="Spectral graph clustering with structural diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=False, restarts=False):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", help="edge-list file (one 'u v' per line)")
        src.add_argument("--gen", help="generator spec, e.g. ring:k=3,size=20,b=1")
        p.add_argument("--k", type=int, required=True, help="number of clusters (>= 2)")
        if mode:
            p.add_argument("--mode", choices=("exact", "power"), default="exact")
            p.add_argument("--eps", type=float, default=0.01,
                           help="power-iteration projector error target")
            p.add_argument("--delta", type=float, default=0.1,
                           help="power-iteration failure budget")
        p.add_argument("--seed", type=int, default=0)
        if restarts:
            p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                           help="k-means restarts (best kept)")
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p_cluster = sub.add_parser("cluster", help="embed and cluster a graph")
    common(p_cluster, mode=True, restarts=True)
    p_cluster.set_defaults(func=cmd_cluster)

    p_diag = sub.add_parser("diagnose", help="run the structural check suite")
    common(p_diag)
    p_diag.add_argument("--partition", default=None,
                        help="reference partition file for --input ('vertex block' per line)")
    p_diag.set_defaults(func=cmd_diagnose)

    p_gen = sub.add_parser("generate", help="write edge-list and planted partition files")
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="small-n brute-force verification suite")
    common(p_verify, restarts=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Build the report head and open the report file (generate's report goes
    to stdout); ``args.func(args, report, timings)`` fills its sections and
    returns its check records or None; then append "checks" and "timings",
    write the report and return the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {"schema": SCHEMA, "command": args.command,
              "config": {key: value for key, value in vars(args).items() if key != "func"}}
    timings = {}
    try:
        if args.k < 2:
            raise InputError("--k must be at least 2")
        if hasattr(args, "eps") and not (0.0 < args.eps < 1.0 and 0.0 < args.delta < 1.0):
            raise InputError("--eps and --delta must lie in (0, 1)")
        if getattr(args, "restarts", 1) < 1:
            raise InputError("--restarts must be at least 1")
        with _output(None if args.command == "generate" else args.out) as out:
            records = args.func(args, report, timings)
            if records is not None:
                report["checks"] = [dataclasses.asdict(r) for r in records]
            if timings:
                report["timings"] = timings
            _emit(report, out)
    except InputError as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "input", "message": str(exc)}}, sys.stdout)
        return _EXIT_INPUT
    except (CapacityError, NumericError, MemoryError) as exc:
        kind = "numeric" if isinstance(exc, NumericError) else "capacity"
        message = str(exc) or "out of memory"
        _emit({"schema": SCHEMA, "error": {"kind": kind, "message": message}}, sys.stdout)
        return _EXIT_NUMERIC
    failed = any(r.hypothesis_met and not r.passed for r in records or ())
    return _EXIT_CHECK_FAILED if failed else 0


if __name__ == "__main__":
    sys.exit(main())
