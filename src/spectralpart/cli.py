"""Command-line interface: cluster, diagnose, generate, verify.

Reports are JSON with a fixed field order and schema tag "spectral-part/4";
rerunning a subcommand with the same inputs and seed reproduces the report
byte for byte except for the "timings" section. The "config" section echoes
the subcommand and its parsed flags in flag order; "gap" and "checks" are the
GapReport and CheckRecord dataclasses, field for field. "gap" is computed
from the reference partition (planted, else recovered) at every n; the exact
small-graph constants come only from verify. Only cluster takes
--mode/--eps/--delta, and only cluster and verify take --restarts; generate
refuses a --k that differs from the generator's block count. Exit
codes: 0 success or all applicable checks passed, 1 an applicable check
failed, 2 input error, 3 numeric or capacity error.

The environment variable SPECTRAL_PART_THREADS caps internal (BLAS) thread
parallelism; the package applies it when it is imported, before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import diagnostics as D
from . import graph as G
from . import spectral as S
from .diagnostics import CHECK_TOL, _record
from .errors import CapacityError, InputError, NumericError
from .kmeans import DEFAULT_RESTARTS, best_of_orss, optimal_cost_bruteforce

SCHEMA = "spectral-part/4"

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
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def _emit(report: dict, out_path):
    text = json.dumps(_jsonable(report), indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _load_graph(args):
    if args.gen:
        spec = parse_gen_spec(args.gen)
        generate = G.gen_ring_of_cliques if spec[0] == "ring" else G.gen_sbm
        return generate(*spec[1:], args.seed)
    g = _read_file(G.read_edge_list, args.input)
    partition = getattr(args, "partition", None)
    return g, (_read_file(G.read_partition, partition, g.n) if partition else None)


def _config_echo(args):
    return {key: value for key, value in vars(args).items() if key != "func"}


def _graph_stats(g):
    return {"n": g.n, "m": g.m}


def _clustering_section(g, part):
    blocks = []
    for i in range(part.k):
        mask = part.labels == i
        blocks.append({
            "size": int(mask.sum()),
            "volume": G.volume(g, mask),
            "cut": G.cut(g, mask),
            "conductance": float(G.conductance(g, mask)),
        })
    return {"k": part.k, "assignment": part.labels.tolist(), "blocks": blocks}


def _failed_applicable(records) -> bool:
    return any(r.hypothesis_met and not r.passed for r in records)


def cmd_cluster(args) -> int:
    timings = {}
    t0 = time.perf_counter()
    g, planted = _load_graph(args)
    timings["load"] = time.perf_counter() - t0

    report = {"schema": SCHEMA, "command": "cluster",
              "config": _config_echo(args), "graph": _graph_stats(g)}

    t0 = time.perf_counter()
    if args.mode == "exact":
        emb, eig = S.exact_embedding(g, args.k)
        power_info = None
    else:
        eig = S.spectrum(g, args.k)
        if eig.n <= args.k:
            raise InputError("power mode needs k < n (got k=%d, n=%d)" % (args.k, g.n))
        lam_k = float(eig.values[args.k - 1])
        lam_k1 = float(eig.values[args.k])
        steps = S.required_power_steps(g.n, args.k, args.eps, args.delta, lam_k, lam_k1)
        emb = S.power_embedding(g, args.k, steps, args.seed)
        power_info = {"steps": steps, "seed": args.seed, "eps": args.eps,
                      "delta": args.delta, "lambda_source": "sparse-eigensolve"}
    timings["embedding"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    clustering = best_of_orss(emb, args.k, args.seed, args.restarts)
    result = G.Partition(args.k, clustering.labels)
    timings["kmeans"] = time.perf_counter() - t0

    report["eigenvalues"] = [float(v) for v in eig.values]
    report["power"] = power_info
    t0 = time.perf_counter()
    reference = planted if planted is not None else result
    report["gap"] = dataclasses.asdict(D.gap_report(g, args.k, reference, eig))
    report["gap"]["reference"] = "planted" if planted is not None else "recovered"
    timings["gap"] = time.perf_counter() - t0

    section = _clustering_section(g, result)
    section["cost"] = clustering.cost
    report["clustering"] = section

    if planted is not None:
        pi = G.match_partitions(g, result, planted)
        rel = []
        for i in range(args.k):
            target = planted.labels == pi[i]
            dv = G.sym_diff_volume(g, result.labels == i, target)
            rel.append(dv / G.volume(g, target))
        report["planted_match"] = {"permutation": pi.tolist(),
                                   "relative_sym_diff_volume": rel}

    report["timings"] = timings
    _emit(report, args.out)
    return 0


def cmd_diagnose(args) -> int:
    timings = {}
    t0 = time.perf_counter()
    g, planted = _load_graph(args)
    if planted is None:
        raise InputError("diagnose needs a reference partition (--gen or --partition)")
    if planted.k != args.k:
        raise InputError("reference partition has %d blocks, --k is %d"
                         % (planted.k, args.k))
    timings["load"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    emb, eig = S.exact_embedding(g, args.k)
    records = D.run_theorem_checks(g, args.k, planted, seed=args.seed, exact=(emb, eig))
    gap = D.gap_report(g, args.k, planted, eig)
    timings["checks"] = time.perf_counter() - t0

    report = {
        "schema": SCHEMA, "command": "diagnose",
        "config": _config_echo(args), "graph": _graph_stats(g),
        "eigenvalues": [float(v) for v in eig.values],
        "gap": dataclasses.asdict(gap),
        "checks": [dataclasses.asdict(r) for r in records],
        "timings": timings,
    }
    _emit(report, args.out)
    return _EXIT_CHECK_FAILED if _failed_applicable(records) else 0


def cmd_generate(args) -> int:
    if not args.out:
        raise InputError("generate requires --out (edge list path; partition gets .part)")
    g, planted = _load_graph(args)
    if planted is None:
        raise InputError("generate requires --gen")
    if planted.k != args.k:
        raise InputError("generator makes %d blocks, --k is %d" % (planted.k, args.k))
    G.write_edge_list(g, args.out)
    part_path = args.out + ".part"
    G.write_partition(planted, part_path)
    report = {"schema": SCHEMA, "command": "generate",
              "config": _config_echo(args),
              "graph": _graph_stats(g),
              "files": {"edges": args.out, "partition": part_path}}
    _emit(report, None)
    return 0


def cmd_verify(args) -> int:
    timings = {}
    t0 = time.perf_counter()
    g, _ = _load_graph(args)
    k = args.k
    records = []

    consts = D.bruteforce_partition_constants(g, k)
    records.append(_record("tuple_constant_vs_partition_constant",
                           consts.rho, consts.rho_hat, True))
    records.append(_record("partition_constant_upper",
                           consts.rho_hat, k * consts.rho, True))
    emb, eig = S.exact_embedding(g, k)
    records.append(_record("eigenvalue_halved_lower",
                           float(eig.values[k - 1]) / 2.0, consts.rho, True))
    timings["constants"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    inter = D.inter_connection(g, k, constants=consts)
    inter_section = {"degenerate": inter.degenerate, "rho": inter.rho,
                     "rho_hat": inter.rho_hat}
    if not inter.degenerate:
        inter_section.update(
            rho_p=inter.rho_p, kappa=inter.kappa, rho_avr_tilde=inter.rho_avr_tilde,
            witness_partition=inter.witness_partition.labels.tolist(),
            witness_tuple=inter.witness_tuple.labels.tolist())
        records.append(_record("interconnection_in_range", inter.rho_p,
                               1.0 - 1.0 / (k - 1), True,
                               "positivity checked separately"))
        records.append(_record("interconnection_positive", 2 * CHECK_TOL, inter.rho_p,
                               True, "asserts rho_p > 0"))
        phi_z = [float(f) for f in G.block_conductances(g, inter.witness_tuple)]
        phi_p = [float(f) for f in G.block_conductances(g, inter.witness_partition)]
        for i in range(k):
            records.append(_record("interconnection_witness_phi[%d]" % i,
                                   phi_p[i], inter.kappa * phi_z[i], True))
        records.append(_record("interconnection_witness_avg",
                               inter.rho_avr_tilde,
                               inter.kappa / k * sum(phi_z), True))
    timings["interconnection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle, _ = optimal_cost_bruteforce(emb, k)
    heur = best_of_orss(emb, k, args.seed, args.restarts)
    records.append(_record("kmeans_oracle_lower", oracle, heur.cost, True))
    records.append(_record("kmeans_heuristic_factor", heur.cost, 1.1 * oracle, True))
    timings["kmeans"] = time.perf_counter() - t0

    report = {
        "schema": SCHEMA, "command": "verify",
        "config": _config_echo(args), "graph": _graph_stats(g),
        "eigenvalues": [float(v) for v in eig.values],
        "constants": {"rho": consts.rho, "rho_hat": consts.rho_hat,
                      "rho_avr": consts.rho_avr},
        "interconnection": inter_section,
        "checks": [dataclasses.asdict(r) for r in records],
        "timings": timings,
    }
    _emit(report, args.out)
    return _EXIT_CHECK_FAILED if _failed_applicable(records) else 0


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
                        help="reference partition file ('vertex block' per line)")
    p_diag.set_defaults(func=cmd_diagnose)

    p_gen = sub.add_parser("generate", help="write edge-list and planted partition files")
    common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="small-n brute-force verification suite")
    common(p_verify, restarts=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.k < 2:
            raise InputError("--k must be at least 2")
        if hasattr(args, "eps") and not (0.0 < args.eps < 1.0 and 0.0 < args.delta < 1.0):
            raise InputError("--eps and --delta must lie in (0, 1)")
        return args.func(args)
    except InputError as exc:
        _emit({"schema": SCHEMA, "error": {"kind": "input", "message": str(exc)}}, None)
        return _EXIT_INPUT
    except (CapacityError, NumericError) as exc:
        kind = "capacity" if isinstance(exc, CapacityError) else "numeric"
        _emit({"schema": SCHEMA, "error": {"kind": kind, "message": str(exc)}}, None)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
