"""Per-layer metrics from the span dumps of traced program processes."""

from __future__ import annotations

import bisect
import json
from pathlib import Path

import spans
from common import median

#: Counts that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = ("native.cc_invocations", "native.so_bytes", "jit.kernels",
                "native.jit_materialized", "cache.hits", "cache.misses")

#: Span layers whose self time is a ``<layer>_s`` metric.
_TIMED_LAYERS = {
    "startup.import": "startup.import_s", "startup.probe": "startup.probe_s",
    "cache.get": "cache.get_s", "cache.put": "cache.put_s",
    "jit.get_kernel": "jit.get_kernel_s",
    "native.get_kernel": "native.get_kernel_s",
    "native.so_load": "native.so_load_s", "runner.prewarm": "runner.prewarm_s",
    "native.precompile": "native.precompile_s", "native.cc": "native.cc_s",
    "synth": "synth.s", "simdize.build": "simdize.build_s",
    "simdize.reassoc": "simdize.reassoc_s",
    "simdize.policy": "simdize.policy_s",
    "simdize.validate": "simdize.validate_s",
    "simdize.loopgen": "simdize.loopgen_s",
    "simdize.passes": "simdize.passes_s",
    "execute.vector": "execute.vector_s",
    "execute.scalar_ref": "execute.scalar_ref_s",
    "verify.data_setup": "verify.data_setup_s",
    "verify.compare": "verify.compare_s",
    "runner.score": "runner.score_s", "figures.format": "figures.format_s",
}


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def analyse(dump: dict, wall_s: float, spawned_at: float,
            exited_at: float | None = None) -> dict:
    """Layer metrics of one traced process.

    ``wall_s`` is the time the layers should account for; it starts at
    ``spawned_at`` (parent's monotonic clock, as is ``exited_at``).
    Three process-level rows join the span layers: ``process.start``
    (interpreter start-up before the child's first line),
    ``trace.dump`` (writing the spans) and, when the process exit falls
    inside the wall, ``process.exit`` (from the dump to the reap:
    atexit handlers and interpreter teardown).  ``unattributed_s`` is
    what all of them leave of the wall.
    """
    rows = dump["spans"]
    layers = spans.layer_of()
    selfs = spans.self_times(rows, layers)
    if "serve.idle" in selfs:
        selfs["serve.idle"] = _idle_alone(rows)
    selfs["process.start"] = dump["origin"] - spawned_at
    if exited_at is not None:
        selfs["trace.dump"] = dump["dump_s"]
        selfs["process.exit"] = exited_at - (
            dump["origin"] + dump["dump_begin"] + dump["dump_s"])
    counts: dict[str, int] = {}
    sums: dict[str, int] = {}
    for name, _, _, _, _, args in rows:
        counts[name] = counts.get(name, 0) + 1
        for key, value in (args or {}).items():
            sums[key] = sums.get(key, 0) + value

    def under_native(index: int) -> bool:
        parent = rows[index][3]
        while parent is not None:
            if rows[parent][0].startswith("native."):
                return True
            parent = rows[parent][3]
        return False

    out = {metric: selfs.get(layer, 0.0)
           for layer, metric in _TIMED_LAYERS.items()}
    disk = dump["counters"]["disk"]
    native = dump["counters"]["native"]
    memo_calls = counts.get("runner.cached_simdize", 0)
    out.update({
        "cache.hits": disk.get("hits", 0),
        "cache.misses": disk.get("misses", 0),
        "cache.read_bytes": sums.get("read_bytes", 0),
        "cache.write_bytes": sums.get("write_bytes", 0),
        "jit.kernels": counts.get("jit.materialize", 0),
        "native.jit_materialized": sum(
            1 for i, row in enumerate(rows)
            if row[0] == "jit.materialize" and under_native(i)),
        "native.cc_invocations": native.get("cc_invocations", 0),
        "native.so_bytes": sums.get("so_bytes", 0),
        "simdize.memo_hit_ratio": (
            1.0 - counts.get("simdize.simdize", 0) / memo_calls
            if memo_calls else 0.0),
        "execute.batch_class_calls": counts.get("execute.vector_batch", 0),
        "execute.degraded": counts.get("execute.degradation", 0),
        "unattributed_s": wall_s - sum(selfs.values()),
    })
    out["_self"] = selfs
    out["_wall"] = wall_s
    return out


def _idle_alone(rows: list) -> float:
    """Time the server's event loop (the thread that imported the
    program) sat in ``select`` while no worker thread ran a span.

    While a worker computes, the loop waits for it; the worker's spans
    already account for that stretch, so it is not idle.
    """
    main = rows[0][4]
    busy = sorted((start, end) for _, start, end, parent, tid, _ in rows
                  if tid != main and parent is None)
    merged: list[list[float]] = []
    for start, end in busy:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [start for start, _ in merged]
    idle = 0.0
    for name, start, end, _, tid, _ in rows:
        if name != "serve.idle" or tid != main:
            continue
        idle += end - start
        k = max(0, bisect.bisect_right(starts, start) - 1)
        while k < len(merged) and merged[k][0] < end:
            idle -= max(0.0, min(end, merged[k][1]) - max(start, merged[k][0]))
            k += 1
    return idle


def problems(runs: list[dict], warm: bool) -> list[str]:
    """Exact counts that differ across traced runs; cc on a warm cache."""
    found = [f"exact count {key} differs across traced runs: "
             f"{[run[key] for run in runs]}"
             for key in EXACT_COUNTS if len({run[key] for run in runs}) > 1]
    if warm and any(run["native.cc_invocations"] for run in runs):
        found.append("the compiler ran on a warm cache: native.cc_invocations"
                     f" {[run['native.cc_invocations'] for run in runs]}")
    return found


def combine(runs: list[dict]) -> dict:
    """Median of each metric over traced runs."""
    return {key: median([run[key] for run in runs])
            for key in runs[0] if not key.startswith("_")}


def self_time_table(runs: list[dict]) -> str:
    """The self-time table of the traced run with the median wall.

    One run's rows sum exactly to its wall with the unattributed gap;
    medians taken row by row would not.
    """
    run = sorted(runs, key=lambda r: r["_wall"])[(len(runs) - 1) // 2]
    self_s, wall_s = run["_self"], run["_wall"]
    lines = [f"{'layer':24s} {'self_s':>9s} {'share':>7s}"]
    for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:24s} {value:9.4f} {value / wall_s:7.1%}")
    gap = wall_s - sum(self_s.values())
    lines.append(f"{'unattributed':24s} {gap:9.4f} {gap / wall_s:7.1%}")
    lines.append(f"{'wall':24s} {wall_s:9.4f} {1:7.1%}")
    return "\n".join(lines)
