"""One program process of the benchmark (run as a fresh interpreter).

Modes::

    child.py probe   --backend B           import repro, resolve the backend
                                           and run the native compiler probes
    child.py sweep   --figure 11|12 ...    one figure sweep, as `repro bench`
    child.py serve   -- SERVE-ARGS         `repro serve` with the tracer on
    child.py precompile --sources FILE     batch-compile native kernels

``--trace PATH`` (sweep, serve) installs the span wrappers of
:mod:`spans` after the imports and writes the spans plus the layers'
own counters to PATH when the work is done.  The sweep prints exactly
the figure text ``repro bench`` prints; its config tally goes to
stderr on a line starting with :data:`TALLY`.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

TALLY = "PERFBENCH-TALLY "


def _import_program(serve: bool) -> None:
    import repro.bench.figures  # noqa: F401
    import repro.bench.runner  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.machine.backend  # noqa: F401
    import repro.machine.compilequeue  # noqa: F401
    import repro.machine.native  # noqa: F401
    if serve:
        import repro.serve.app  # noqa: F401


def _probe(backend: str) -> dict:
    """Resolve the backend and run the compiler probes; host facts."""
    from repro.machine import native
    from repro.machine.backend import get_resilient_backend

    get_resilient_backend(backend)
    cc, identity = native._compiler_identity()
    return {"cc": cc, "cc_identity": identity,
            "flags": list(native.compiler_flags()) if cc else [],
            "emitter": native.emitter_mode() if cc else "none"}


def _counters() -> dict:
    from repro.cache import get_cache
    from repro.machine import jit, native

    cache = get_cache()
    return {"native": {k: v for k, v in native.STATS.items()
                       if isinstance(v, (int, float))},
            "jit": dict(jit.STATS),
            "disk": cache.stats() if cache is not None else {}}


def _start_trace(args, serve: bool):
    """Import (and probe) under startup spans, then wrap the layers."""
    tracer = spans.Tracer()
    tracer.origin = STARTED
    record = tracer.begin("startup.import")
    record[1] = STARTED
    _import_program(serve)
    tracer.end(record)
    record = tracer.begin("startup.probe")
    _probe(args.backend)
    tracer.end(record)
    spans.install(tracer, serve=serve)
    return tracer


def _sweep(args) -> int:
    tracer = None
    if args.trace:
        tracer = _start_trace(args, serve=False)
    from repro import cli
    from repro.bench import figures
    from repro.bench.runner import FailedMeasurement, RunPolicy

    tally = {"configs": 0, "failed": 0}
    measure_many = figures.measure_many

    def counting(configs, **kwargs):
        results = measure_many(configs, **kwargs)
        tally["configs"] += len(results)
        tally["failed"] += sum(isinstance(m, FailedMeasurement)
                               for m in results)
        return results

    figures.measure_many = counting
    build = figures.figure11 if args.figure == 11 else figures.figure12
    result = build(count=args.count, trip=args.trip, jobs=1,
                   backend=args.backend, scalar_backend="auto", profile=None,
                   sweep_mode=args.sweep_mode, run_policy=RunPolicy(),
                   base_seed=args.seed)
    print(result.format())
    sys.stdout.flush()
    cli._drain_async_compiles()
    if tracer is not None:
        tracer.dump(args.trace, {"counters": _counters()})
    print(TALLY + json.dumps(tally), file=sys.stderr)
    return 0


def _serve(args) -> int:
    tracer = None
    if args.trace:
        tracer = _start_trace(args, serve=True)
    from repro import cli

    code = cli.main(["serve"] + args.serve_args)
    if tracer is not None:
        tracer.dump(args.trace, {"counters": _counters()})
    return code


def _probe_mode(args) -> int:
    _import_program(serve=False)
    print(json.dumps(_probe(args.backend)), flush=True)
    return 0


def _precompile(args) -> int:
    """Compile, simdize and batch-compile every source in one process."""
    from repro.bench.runner import _cached_simdize
    from repro.lang import compile_source
    from repro.machine import compilequeue
    from repro.simdize.options import SimdOptions

    with open(args.sources, encoding="utf-8") as handle:
        sources = json.load(handle)
    programs = [_cached_simdize(compile_source(src), 16, SimdOptions()).program
                for src in sources]
    print(compilequeue.precompile(programs), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--backend", default="native")
    p = sub.add_parser("sweep")
    p.add_argument("--figure", type=int, choices=(11, 12), required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--trip", type=int, required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--sweep-mode", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", default=None)
    p = sub.add_parser("serve")
    p.add_argument("--backend", default="native")
    p.add_argument("--trace", default=None)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("precompile")
    p.add_argument("--sources", required=True)
    args = parser.parse_args(argv)
    if args.mode == "serve" and args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    run = {"probe": _probe_mode, "sweep": _sweep, "serve": _serve,
           "precompile": _precompile}[args.mode]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
