"""Rewrite the golden reports of tests/test_golden.py.

    PYTHONPATH=src python tests/bless_golden.py

Reruns the corpus, prints each changed report's differing key paths, and
rewrites tests/golden/: one <run>.json per run, keys.json (the key paths
per command, under the current schema tag) and machine.json (the machine,
Python, numpy, scipy and BLAS build the reports were made on). It refuses,
with exit status 1 and nothing written, when the key paths of a schema tag
that is already blessed would change: bump cli.SCHEMA first. Blessing a new
tag prints its key paths added ("+") and removed ("-") against the newest
blessed tag, the last in keys.json.
"""

import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from spectralpart.cli import SCHEMA
from test_golden import GOLDEN, contract, contract_changes, diff, run_corpus


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def machine() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"machine": platform.machine(), "cpu": _cpu(), "system": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def _write(path: Path, value):
    path.write_text(json.dumps(value, indent=2) + "\n", encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = run_corpus(Path(tmp))
    keys_path = GOLDEN / "keys.json"
    blessed = json.loads(keys_path.read_text(encoding="utf-8")) if keys_path.exists() else {}
    keys = contract(results)
    if SCHEMA in blessed:
        changes = contract_changes(blessed[SCHEMA], keys)
        if changes:
            print("key paths changed under schema tag %s; bump cli.SCHEMA:\n  %s"
                  % (SCHEMA, "\n  ".join(changes)))
            return 1
    elif blessed:
        newest = list(blessed)[-1]
        print("key paths of %s against %s:\n  %s"
              % (SCHEMA, newest, "\n  ".join(contract_changes(blessed[newest], keys))))
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.glob("*.json"):
        if path.stem not in results and path.stem not in ("keys", "machine"):
            print("removed %s" % path.name)
            path.unlink()
    for name, result in results.items():
        path = GOLDEN / (name + ".json")
        if path.exists():
            lines = diff(json.loads(path.read_text(encoding="utf-8")), result)
            if lines:
                print("changed %s:\n  %s" % (path.name, "\n  ".join(lines)))
        else:
            print("new %s" % path.name)
        _write(path, result)
    _write(keys_path, {**blessed, SCHEMA: keys})
    _write(GOLDEN / "machine.json", machine())
    return 0


if __name__ == "__main__":
    sys.exit(main())
