"""Run one spectral-part CLI job in this process, optionally traced.

    python3 bench/job.py [--spans FILE --job-id N] -- <spectral-part arguments>

Without ``--spans`` this is the ``spectral-part`` console script: it calls
``spectralpart.cli.main(argv)`` and exits with its return code. With
``--spans`` it first wraps every public function and method of the layer
modules in a timing span, runs the same call, and writes the spans to FILE
as JSON when the job ends. Nothing under ``src/`` is changed: the wrappers
are installed from here, at run time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
import weakref

LAYERS = ("graph", "linalg", "spectral", "kmeans", "diagnostics")


class Tracer:
    """In-memory spans: [name, start, end, parent index, job id, counts].

    ``counts`` holds work counters read at the span boundary: dense
    eigensolve sizes, operator applications, and eigenpairs produced.
    """

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._eigensystems: dict[int, weakref.ref] = {}

    def wrap(self, name: str, fn):
        counter = self._counter_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.job_id, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = counter(args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _counter_for(self, name: str):
        layer, _, attr = name.partition(".")
        if layer == "spectral" and attr.rsplit(".", 1)[-1].startswith("apply_"):
            return self._count_matvec
        if layer in ("linalg", "spectral"):
            return self._count_eigensystems
        return lambda args, result: None

    @staticmethod
    def _count_matvec(args, result):
        if len(args) < 2:
            return None
        ops, x = args[0], args[1]
        cols = x.shape[1] if getattr(x, "ndim", 1) == 2 else 1
        edges = getattr(getattr(ops, "graph", None), "m", 0)
        return {"matvec_cols": cols, "matvec_nnz": 2 * edges * cols}

    def _count_eigensystems(self, args, result):
        """Count each EigenSystem object once, where it first appears; a
        dense solve (square matrix argument) also counts n^3."""
        found = [r for r in (result if isinstance(result, tuple) else (result,))
                 if type(r).__name__ == "EigenSystem"]
        new = [r for r in found
               if self._eigensystems.get(id(r), lambda: None)() is not r]
        if not new:
            return None
        counts = {"eig_calls": len(new),
                  "eig_pairs": sum(len(getattr(r, "values", ())) for r in new)}
        first = args[0] if args else None
        shape = getattr(first, "shape", ())
        if len(shape) == 2 and shape[0] == shape[1]:
            counts["eig_n3"] = int(shape[0]) ** 3
        for r in new:
            self._eigensystems[id(r)] = weakref.ref(r)
        return counts

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _is_public_method(cls, attr: str, fn) -> bool:
    if not inspect.isfunction(fn):
        return False
    if attr == "__init__":
        # Generated dataclass initialisers are record construction, not work.
        return not dataclasses.is_dataclass(cls)
    return not attr.startswith("_")


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods found in the layer modules now,
    and rebind every spectralpart module-level name that refers to a wrapped
    function."""
    importlib.import_module("spectralpart.cli")
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module("spectralpart." + layer)
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap("%s.%s" % (layer, name), obj))
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if _is_public_method(obj, attr, fn):
                        setattr(obj, attr, tracer.wrap("%s.%s.%s" % (layer, name, attr), fn))
    for modname, mod in list(sys.modules.items()):
        if modname != "spectralpart" and not modname.startswith("spectralpart."):
            continue
        for name, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, name, entry[1])


def main(argv: list[str]) -> int:
    spans_path, job_id = None, 0
    if "--" not in argv:
        raise SystemExit("usage: job.py [--spans FILE --job-id N] -- <cli args>")
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    if opts:
        if len(opts) != 4 or opts[0] != "--spans" or opts[2] != "--job-id":
            raise SystemExit("usage: job.py [--spans FILE --job-id N] -- <cli args>")
        spans_path, job_id = opts[1], int(opts[3])
    if spans_path is None:
        from spectralpart.cli import main as cli_main
        return cli_main(cli_args)
    tracer = Tracer(job_id)
    install(tracer)
    from spectralpart.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
