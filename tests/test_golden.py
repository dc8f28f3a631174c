"""Golden reports: a fixed corpus of CLI runs, each compared with its
committed report in tests/golden/<run>.json.

A run's report is compared after dropping "timings" and writing the run's
temporary directory as "<tmp>". Any difference fails, with every differing
key path listed: the largest |delta| for floats and the number of changed
labels for integer lists. The key paths of each command's reports (list
indices written "[]") are the report contract of the schema tag, kept in
tests/golden/keys.json; a changed set fails unless cli.SCHEMA changes too.

After a deliberate change, re-bless with

    PYTHONPATH=src python tests/bless_golden.py

and list each changed file and its largest changes in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from spectralpart import write_edge_list
from spectralpart.cli import SCHEMA, main
from conftest import triangles_with_center, triangles_with_hub13

GOLDEN = Path(__file__).resolve().parent / "golden"


def _sbm(blocks, size, pin, pout):
    return "sbm:sizes=%s,pin=%s,pout=%s" % ("+".join([str(size)] * blocks), pin, pout)


RING = "ring:k=3,size=20,b=1"
SBM = _sbm(3, 30, 0.5, 0.02)
#: 8 x 375 vertices: the spectrum's first Krylov basis is past the numpy
#: work budget, so it runs ARPACK.
ARPACK = _sbm(8, 375, 0.05, 0.003)
#: 8 x 180 vertices: a numpy spectrum, then power steps past the budget.
PAST_BUDGET = _sbm(8, 180, 0.1, 0.03)


def _runs():
    """Run name -> argv; "{tmp}" is the directory holding the input files."""
    runs = {}
    for gen_name, gen in (("ring", RING), ("sbm", SBM)):
        for seed in ("1", "2"):
            tail = ["--gen", gen, "--k", "3", "--seed", seed]
            runs["cluster-exact-%s-s%s" % (gen_name, seed)] = ["cluster", "--mode", "exact"] + tail
            runs["cluster-power-%s-s%s" % (gen_name, seed)] = ["cluster", "--mode", "power"] + tail
            runs["diagnose-%s-s%s" % (gen_name, seed)] = ["diagnose"] + tail
    runs["verify-ring9"] = ["verify", "--gen", "ring:k=3,size=3,b=1", "--k", "3"]
    runs["verify-hub10"] = ["verify", "--input", "{tmp}/hub10.txt", "--k", "3"]
    runs["verify-hub13-k4"] = ["verify", "--input", "{tmp}/hub13.txt", "--k", "4"]
    for mode in ("exact", "power"):
        runs["cluster-%s-arpack" % mode] = ["cluster", "--mode", mode, "--gen", ARPACK, "--k", "8"]
    runs["diagnose-arpack"] = ["diagnose", "--gen", ARPACK, "--k", "8"]
    runs["cluster-power-past-budget"] = ["cluster", "--mode", "power", "--gen", PAST_BUDGET,
                                         "--k", "8"]
    runs["error-input-k-mismatch"] = ["cluster", "--gen", "ring:k=3,size=3,b=1", "--k", "9"]
    runs["error-capacity-verify-n15"] = ["verify", "--gen", "ring:k=3,size=5,b=1", "--k", "3"]
    return runs


RUNS = _runs()


def run_corpus(tmp: Path) -> dict:
    """Run name -> {"argv", "exit", "report"}, each report read from stdout
    with "timings" dropped and ``tmp`` written as "<tmp>"."""
    write_edge_list(triangles_with_center(), tmp / "hub10.txt")
    write_edge_list(triangles_with_hub13(), tmp / "hub13.txt")
    results = {}
    for name, argv in RUNS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([arg.format(tmp=tmp) for arg in argv])
        report = json.loads(out.getvalue().replace(str(tmp), "<tmp>"))
        report.pop("timings", None)
        results[name] = {"argv": argv, "exit": code, "report": report}
    return results


def key_paths(value, prefix="") -> set:
    """Every dict key's path in ``value``, list indices written "[]"."""
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            paths |= {prefix + "." + key} | key_paths(item, prefix + "." + key)
        return paths
    if isinstance(value, list):
        return set().union(*(key_paths(item, prefix + "[]") for item in value))
    return set()


def contract(results: dict) -> dict:
    """Command ("error" for an error report) -> sorted key paths of its reports."""
    keys = {}
    for result in results.values():
        report = result["report"]
        keys.setdefault(report.get("command", "error"), set()).update(key_paths(report))
    return {command: sorted(paths) for command, paths in sorted(keys.items())}


def contract_changes(old: dict, new: dict) -> list[str]:
    """One line per key path added ("+") or removed ("-"), per command."""
    lines = []
    for command in sorted(set(old) | set(new)):
        was, now = set(old.get(command, ())), set(new.get(command, ()))
        lines += ["%s: + %s" % (command, path) for path in sorted(now - was)]
        lines += ["%s: - %s" % (command, path) for path in sorted(was - now)]
    return lines


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff(golden, got, path="") -> list[str]:
    """One line per key path where ``got`` differs from ``golden``."""
    if isinstance(golden, dict) and isinstance(got, dict):
        lines = []
        for key in [*golden, *(key for key in got if key not in golden)]:
            where = path + "." + key
            if key not in got:
                lines.append("%s: missing" % where)
            elif key not in golden:
                lines.append("%s: unexpected" % where)
            else:
                lines += diff(golden[key], got[key], where)
        if not lines and list(golden) != list(got):
            lines.append("%s: key order %s, was %s" % (path, list(got), list(golden)))
        return lines
    if isinstance(golden, list) and isinstance(got, list) and len(golden) == len(got):
        if golden != got and all(map(_number, golden + got)):
            if all(isinstance(x, int) for x in golden + got):
                changed = sum(a != b for a, b in zip(golden, got))
                return ["%s: %d of %d labels changed" % (path, changed, len(got))]
            delta = max(abs(a - b) for a, b in zip(golden, got))
            return ["%s: largest |delta| %.3g" % (path, delta)]
        return [line for i, (a, b) in enumerate(zip(golden, got))
                for line in diff(a, b, "%s[%d]" % (path, i))]
    if golden == got and type(golden) is type(got):
        return []
    if _number(golden) and _number(got):
        return ["%s: |delta| %.3g (%r, was %r)" % (path, abs(got - golden), got, golden)]
    return ["%s: %r, was %r" % (path, got, golden)]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_corpus_files_match_runs():
    names = {path.stem for path in GOLDEN.glob("*.json")} - {"keys", "machine"}
    assert sorted(names) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(corpus, name):
    golden = json.loads((GOLDEN / (name + ".json")).read_text(encoding="utf-8"))
    got = corpus[name]
    lines = diff(golden, got)
    assert not lines, "%s differs from its golden report:\n  %s" % (name, "\n  ".join(lines))


def test_key_paths_follow_the_schema_tag(corpus):
    blessed = json.loads((GOLDEN / "keys.json").read_text(encoding="utf-8"))
    assert SCHEMA in blessed, "schema tag %s has no blessed key paths; re-bless" % SCHEMA
    lines = contract_changes(blessed[SCHEMA], contract(corpus))
    assert not lines, ("report key paths changed under the unchanged schema tag %s; bump "
                       "cli.SCHEMA and re-bless:\n  %s" % (SCHEMA, "\n  ".join(lines)))
