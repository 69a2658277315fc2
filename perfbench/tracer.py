"""Run one dirichletlab CLI command with a span at every layer boundary.

    python3 perfbench/tracer.py SPANS_OUT JOB_ID -- <cli arguments>

The layers are the package's modules.  Before `dirichletlab.cli` is imported,
a meta-path hook times the execution of each layer module (a span named
`<layer>.<import>`).  After the import, every cross-module reference to a
layer -- `from . import weights as W`, `from .accum import compensated_sum`,
`from .zeta import _envelope_constant`, later `from .zeta import ...` inside
functions -- is pointed at a wrapper that records a span around the call.
Calls inside one module keep their direct references and record nothing, so
a layer's time covers its own helpers.  Classes are not wrapped: time in a
constructor or method counts for the layer that calls it.

Spans stay in memory and are written as JSON to SPANS_OUT when the command
returns, together with the work counters below.  No program file changes.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import os
import sys
import time
import types

LAYERS = ("cli", "arithmetic", "weights", "accum", "zeta", "hspace",
          "embedding", "sampling", "tauberian", "reporting")
PKG = "dirichletlab"


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []  # [span_id, parent_id, name, start, end, raised]
        self.stack = [None]
        self.counters = {}

    def call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        rec = [sid, self.stack[-1], name, time.perf_counter(), None, False]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "spans": self.spans,
                       "counters": self.counters}, fh)


# --- work counters, taken at the layer boundary ------------------------------


def _size(a) -> int:
    size = getattr(a, "size", None)
    if size is None:
        size = len(a) if hasattr(a, "__len__") else 0
    return int(size)


def _count_arithmetic(fname, args, kwargs, result, tr):
    # table slots built: returned arrays and sieve tables
    if hasattr(result, "spf"):
        tr.count("arithmetic.entries", result.spf.size)
    elif hasattr(result, "dtype") and getattr(result, "ndim", 0) >= 1:
        tr.count("arithmetic.entries", result.size)


def _count_accum(fname, args, kwargs, result, tr):
    if args:
        tr.count("accum.elements", _size(args[0]))


def _count_tauberian(fname, args, kwargs, result, tr):
    if fname == "mellin_profile":
        w, grid = args[0], args[1]
        limit = args[2] if len(args) > 2 else kwargs.get("limit")
        n = w.limit if limit is None else min(int(limit), w.limit)
        tr.count("tauberian.terms", n * len(grid))


def _count_embedding(fname, args, kwargs, result, tr):
    if fname == "embedding_constant":
        family = args[3] if len(args) > 3 else kwargs["family"]
        tr.count("embedding.members", len(family))


def _count_sampling(fname, args, kwargs, result, tr):
    if fname in ("measure_from_weights", "kadec_atoms"):
        tr.count("sampling.atoms", result.positions.size)


def _count_reporting(fname, args, kwargs, result, tr):
    if fname in ("write_csv", "write_json", "curve_svg", "atomic_write_text"):
        tr.count("reporting.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


COUNTERS = {
    "arithmetic": _count_arithmetic,
    "accum": _count_accum,
    "tauberian": _count_tauberian,
    "embedding": _count_embedding,
    "sampling": _count_sampling,
    "reporting": _count_reporting,
}


# --- import spans --------------------------------------------------------------


class _ImportSpans:
    """Meta-path finder that wraps each layer module's execution in a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        layer = name[len(PKG) + 1:] if name.startswith(PKG + ".") else None
        if layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            tracer.call(f"{layer}.<import>", exec_module, (module,), {})

        spec.loader.exec_module = timed_exec
        return spec


# --- call spans ----------------------------------------------------------------


def _wrap(tracer: Tracer, layer: str, fname: str, fn):
    name = f"{layer}.{fname}"
    counter = COUNTERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if counter is not None:
            counter(fname, args, kwargs, result, tracer)
        return result

    return wrapper


class _LayerProxy(types.ModuleType):
    """What other modules see of a layer: its functions wrapped, the rest as is."""

    def __init__(self, real: types.ModuleType, wrapped: dict):
        super().__init__(real.__name__, real.__doc__)
        for key in ("__spec__", "__loader__", "__package__", "__file__"):
            self.__dict__[key] = getattr(real, key, None)
        self.__dict__.update(wrapped)
        self.__dict__["_real"] = real

    def __getattr__(self, attr):
        return getattr(self.__dict__["_real"], attr)


def install(tracer: Tracer) -> dict:
    """Point every cross-module reference to a layer at its traced proxy."""
    real = {L: sys.modules[f"{PKG}.{L}"] for L in LAYERS}
    wrapped = {}  # id(original function) -> wrapper
    proxies = {}
    for L, mod in real.items():
        fns = {}
        for fname, obj in vars(mod).items():
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                fns[fname] = wrapped[id(obj)] = _wrap(tracer, L, fname, obj)
        proxies[L] = _LayerProxy(mod, fns)
    by_module = {id(m): proxies[L] for L, m in real.items()}
    for L, mod in real.items():
        ns = vars(mod)
        for key, obj in list(ns.items()):
            if isinstance(obj, types.ModuleType) and id(obj) in by_module and obj is not mod:
                ns[key] = by_module[id(obj)]
            elif (id(obj) in wrapped and callable(obj)
                  and getattr(obj, "__module__", None) != mod.__name__):
                ns[key] = wrapped[id(obj)]
    pkg = sys.modules[PKG]
    for L, mod in real.items():
        sys.modules[mod.__name__] = proxies[L]
        if getattr(pkg, L, None) is mod:
            setattr(pkg, L, proxies[L])
    return real


def main(argv: list) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT JOB_ID -- <cli arguments>", file=sys.stderr)
        return 2
    spans_out, job_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(job_id)
    sys.meta_path.insert(0, _ImportSpans(tracer))
    import dirichletlab.cli as cli

    install(tracer)
    try:
        return tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
