"""In-memory span tracing installed from outside the program.

The benchmark's traced runs import this module inside the child
process (``child.py --trace``) and call :func:`install`, which wraps
the public entry points of each layer listed in :data:`TARGETS`.  A
wrapper records one span per call: name, start, end, parent span (the
innermost open span on the same thread) and a few byte counts.  Spans
stay in memory until :func:`Tracer.dump` writes them out at exit.

Nothing under ``src/`` knows about this: the wrappers replace the
functions by identity in every loaded ``repro`` module namespace, so
``from x import f`` bindings are wrapped too.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: (span name, layer, module, attribute path).  The layer is what the
#: self-time table aggregates; several entry points may feed one layer.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("cache.get", "cache.get", "repro.cache", "DiskCache.get"),
    ("cache.artifact_path", "cache.get", "repro.cache",
     "DiskCache.artifact_path"),
    ("cache.put", "cache.put", "repro.cache", "DiskCache.put"),
    ("cache.put_artifact", "cache.put", "repro.cache",
     "DiskCache.put_artifact"),
    ("cache.put_artifact_file", "cache.put", "repro.cache",
     "DiskCache.put_artifact_file"),
    ("synth.synthesize", "synth", "repro.bench.synth", "synthesize"),
    ("runner.cached_simdize", "simdize.memo", "repro.bench.runner",
     "_cached_simdize"),
    ("simdize.simdize", "simdize.driver", "repro.simdize.driver",
     "simdize"),
    ("simdize.build", "simdize.build", "repro.reorg.build",
     "build_loop_graph"),
    ("simdize.reassoc", "simdize.reassoc", "repro.reorg.reassoc",
     "reassociate"),
    ("simdize.policy", "simdize.policy", "repro.reorg.policies",
     "apply_policy"),
    ("simdize.default_policy", "simdize.policy", "repro.reorg.policies",
     "default_policy"),
    ("simdize.validate", "simdize.validate", "repro.reorg.validate",
     "validate_graph"),
    ("simdize.loopgen", "simdize.loopgen", "repro.codegen.loopgen",
     "generate_program"),
    ("simdize.passes", "simdize.passes", "repro.codegen.passes.pipeline",
     "run_passes"),
    ("figures.figure", "figures.figure", "repro.bench.figures", "figure"),
    ("runner.measure_many", "runner.sweep", "repro.bench.runner",
     "measure_many"),
    ("runner.measure_loop", "runner.sweep", "repro.bench.runner",
     "measure_loop"),
    ("runner.measure_batch", "runner.sweep", "repro.bench.runner",
     "measure_batch"),
    ("runner.prewarm", "runner.prewarm", "repro.bench.runner",
     "_prewarm_pending"),
    ("runner.score", "runner.score", "repro.bench.runner",
     "_finish_measurement"),
    ("figures.format", "figures.format", "repro.bench.figures",
     "FigureResult.format"),
    ("jit.get_kernel", "jit.get_kernel", "repro.machine.jit", "get_kernel"),
    ("jit.materialize", "jit.get_kernel", "repro.machine.jit",
     "_materialize"),
    ("native.get_kernel", "native.get_kernel", "repro.machine.native",
     "get_native_kernel"),
    ("native.so_load", "native.so_load", "repro.machine.native", "_load_so"),
    ("native.precompile", "native.precompile",
     "repro.machine.compilequeue", "precompile"),
    ("native.cc", "native.cc", "repro.machine.compilequeue", "_run_cc"),
    ("execute.vector", "execute.vector", "repro.machine.backend",
     "ResilientBackend.run"),
    ("execute.vector_batch", "execute.vector", "repro.machine.backend",
     "run_vector_batch"),
    ("execute.scalar_ref", "execute.scalar_ref", "repro.machine.backend",
     "ResilientScalarBackend.run"),
    ("execute.degradation", "execute.vector", "repro.machine.backend",
     "_degradation"),
    ("verify.make_space", "verify.data_setup", "repro.simdize.verify",
     "make_space"),
    ("verify.fill_random", "verify.data_setup", "repro.simdize.verify",
     "fill_random"),
    ("verify.clone", "verify.data_setup", "repro.machine.memory",
     "Memory.clone"),
    ("verify.snapshot", "verify.compare", "repro.machine.memory",
     "Memory.snapshot"),
    ("verify.first_mismatch", "verify.compare", "repro.simdize.verify",
     "_first_mismatch"),
)

#: Serve-only entry points (the request path inside ``repro serve``).
SERVE_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("serve.verify_prepare", "serve.prepare", "repro.serve.app",
     "ServeApp._verify_prepare"),
    ("serve.simdize_work", "serve.prepare", "repro.serve.app",
     "ServeApp._simdize_work"),
    ("serve.warm_native", "serve.warm_native", "repro.serve.app",
     "ServeApp._warm_native"),
    ("serve.execute_batch", "serve.execute", "repro.serve.app",
     "ServeApp._execute_batch"),
    # The event loop blocked waiting for sockets or worker threads.
    ("serve.idle", "serve.idle", "selectors", "DefaultSelector.select"),
)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _bytes_of(name: str, args: tuple, result) -> dict | None:
    """Byte counts for the cache and compiler spans (outside the timing)."""
    if name == "cache.get" and result is not None:
        return {"read_bytes": _size(args[0]._path(args[1]))}
    if name == "cache.artifact_path" and result is not None:
        return {"read_bytes": _size(result)}
    if name == "cache.put":
        return {"write_bytes": _size(args[0]._path(args[1]))}
    if name == "cache.put_artifact":
        return {"write_bytes": len(args[3])}
    if name == "cache.put_artifact_file":
        return {"write_bytes": _size(args[3])}
    if name == "native.cc":
        argv = list(args[0])
        if "-o" in argv:
            return {"so_bytes": _size(argv[argv.index("-o") + 1])}
    return None


class Tracer:
    """Spans kept in memory; one open-span stack per thread."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []   # [name, start, end, parent, tid, args]
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else None, threading.get_ident(), None]
        self.spans.append(record)
        stack.append(record)
        return record

    def end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(record)
                record[5] = _bytes_of(name, args, result)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans (parent as an index) plus ``extra`` as JSON.

        Also written: ``origin`` (this process's span clock zero on the
        system-wide monotonic clock, so the parent can place its spawn
        and exit times), and when and how long the dump itself ran.
        """
        begin = time.perf_counter()
        # Spans still open at exit (daemon threads) are dropped.
        closed = [rec for rec in self.spans if rec[2] is not None]
        index = {id(rec): i for i, rec in enumerate(closed)}
        threads: dict[int, int] = {}
        rows = []
        for name, start, end, parent, tid, args in closed:
            rows.append([name, start - self.origin, end - self.origin,
                         index.get(id(parent)) if parent else None,
                         threads.setdefault(tid, len(threads)), args])
        text = json.dumps({"spans": rows, **extra, "origin": self.origin,
                           "dump_begin": begin - self.origin})
        dump_s = time.perf_counter() - begin
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f'{text[:-1]}, "dump_s": {dump_s!r}}}')


def _resolve(module_name: str, attr_path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer, serve: bool = False) -> None:
    """Wrap every target; rebind ``from``-imported aliases by identity."""
    targets = TARGETS + (SERVE_TARGETS if serve else ())
    replaced = {}
    for name, _, module_name, attr_path in targets:
        owner, attr = _resolve(module_name, attr_path)
        # Inherited methods (the selector's select) are wrapped on the
        # class named; everything else is replaced where it is defined.
        original = owner.__dict__.get(attr) or getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type(sys)):
            replaced[id(original)] = (original, wrapped)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def layer_of() -> dict[str, str]:
    return {name: layer for name, layer, _, _ in TARGETS + SERVE_TARGETS}


def self_times(rows: list, layers: dict[str, str]) -> dict[str, float]:
    """Per-layer self time: each span minus what its children cover.

    Children run nested on their parent's thread, so the parts they
    cover never overlap and subtracting their durations is exact.
    """
    child_time = [0.0] * len(rows)
    for name, start, end, parent, tid, args in rows:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, parent, tid, args) in enumerate(rows):
        layer = layers.get(name, name)
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[i]
    return totals


def chrome_events(rows: list, pid: int, label: str) -> list[dict]:
    """Chrome trace-event ("X" complete) records for one process."""
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for name, start, end, parent, tid, args in rows:
        event = {"name": name, "ph": "X", "pid": pid, "tid": tid,
                 "ts": round(start * 1e6, 3),
                 "dur": round((end - start) * 1e6, 3)}
        if args:
            event["args"] = args
        events.append(event)
    return events
