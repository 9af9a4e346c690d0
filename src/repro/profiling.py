"""Lightweight phase-timing profile for the measurement pipeline.

A :class:`PhaseProfile` accumulates wall-clock seconds per pipeline
phase — ``synthesize`` / ``simdize`` / ``compile`` / ``execute`` /
``verify`` — plus event counters (cache hits and misses), so a sweep
can report *where* its time went and how well the compile-side caches
worked instead of asserting it.  Everything is optional: every
pipeline entry point takes ``profile=None`` and skips all bookkeeping
when no profile is passed, so the hot path pays nothing by default.

Profiles merge, which is how ``measure_many`` aggregates the profiles
its worker processes send back with their measurements.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Pipeline phases in reporting order.  ``cc``, ``native_load`` and
#: ``kernel_load`` only appear when the native tier runs: C-compiler
#: wall time and shared-object load/validate time, re-attributed out
#: of ``execute`` the same way lazy jit codegen is, and the rest of the
#: kernel acquisition done ahead of a sweep (jit spec loads, disk
#: entry hits, ``.so`` verify + ``dlopen``).
PHASES = ("synthesize", "simdize", "compile", "cc", "native_load",
          "kernel_load", "execute", "verify")


@dataclass
class PhaseProfile:
    """Accumulated seconds per phase and event counters."""

    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, phase: str, dt: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def merge(self, other: "PhaseProfile | None") -> None:
        if other is None:
            return
        for phase, dt in other.seconds.items():
            self.add(phase, dt)
        for name, k in other.counts.items():
            self.count(name, k)

    def hit_rate(self, name: str) -> float | None:
        """Hits over lookups for counter pair ``{name}_hits``/``{name}_misses``."""
        hits = self.counts.get(f"{name}_hits", 0)
        misses = self.counts.get(f"{name}_misses", 0)
        total = hits + misses
        return hits / total if total else None

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``BENCH_interp.json``)."""
        return {
            "seconds": {k: round(v, 4) for k, v in self.seconds.items()},
            "counts": dict(self.counts),
        }

    def format(self) -> str:
        """A human-readable phase table with cache hit rates."""
        lines = ["phase timings:"]
        known = [p for p in PHASES if p in self.seconds]
        extra = sorted(set(self.seconds) - set(known))
        total = self.total_seconds
        for phase in known + extra:
            dt = self.seconds[phase]
            share = f"{dt / total * 100:5.1f}%" if total else "     -"
            lines.append(f"  {phase:<12s} {dt:9.4f} s  {share}")
        lines.append(f"  {'total':<12s} {total:9.4f} s")
        cache_lines = []
        for name in ("simdize_memo", "simdize_disk", "kernel_memory",
                     "kernel_disk", "native_memory", "native_disk"):
            rate = self.hit_rate(name)
            if rate is not None:
                hits = self.counts.get(f"{name}_hits", 0)
                misses = self.counts.get(f"{name}_misses", 0)
                cache_lines.append(
                    f"  {name:<14s} {hits}/{hits + misses} hits "
                    f"({rate * 100:.0f}%)"
                )
        if cache_lines:
            lines.append("cache hit rates:")
            lines.extend(cache_lines)
        evictions = self.counts.get("disk_evictions", 0)
        if evictions:
            lines.append(f"  disk cache     {evictions} evictions "
                         f"(REPRO_CACHE_MAX_BYTES)")
        mode_simd = self.counts.get("native_mode_simd", 0)
        mode_scalar = self.counts.get("native_mode_scalar", 0)
        if mode_simd or mode_scalar:
            # Kernel acquisitions per emitter mode (disk-key
            # resolutions, so warm loads count too) plus the probe
            # outcomes that picked the mode.
            mode = "vector-ext" if mode_simd >= mode_scalar else "scalar-lane"
            line = (f"native emitter: {mode} "
                    f"({mode_simd} vector-ext / {mode_scalar} scalar-lane "
                    f"kernel acquisitions)")
            probes = self.counts.get("native_simd_probes", 0)
            failures = self.counts.get("native_simd_probe_failures", 0)
            if probes:
                line += f", {probes} simd probe{'s' if probes != 1 else ''}"
                if failures:
                    line += f" ({failures} failed)"
            flag_probes = self.counts.get("native_flag_probes", 0)
            if flag_probes:
                line += f", {flag_probes} flag probe{'s' if flag_probes != 1 else ''}"
            lines.append(line)
        if "kernel_load" in self.seconds:
            # Warm acquisition ahead of the sweep: entries found on
            # disk, distinct shared objects verified and mapped, and
            # how many jit kernels were built at all (native runs
            # whole accepted runs in C without them).
            hits = self.counts.get("native_disk_hits", 0)
            loads = self.counts.get("native_so_loads", 0)
            built = self.counts.get("kernel_materialized", 0)
            lines.append(
                f"native kernel load: {hits} disk hits, {loads} .so "
                f"load{'s' if loads != 1 else ''}, {built} jit "
                f"materialization{'s' if built != 1 else ''}")
        invocations = self.counts.get("native_cc_invocations", 0)
        if invocations:
            kernels = self.counts.get("native_tu_kernels", 0)
            tus = self.counts.get("native_tus", 0)
            shards = self.counts.get("native_cc_shards", 0)
            line = (f"native pipeline: {kernels} kernels in {tus} "
                    f"translation units via {invocations} cc "
                    f"invocation{'s' if invocations != 1 else ''}, "
                    f"{shards} parallel shard{'s' if shards != 1 else ''}")
            lines.append(line)
            detail = []
            for name, label in (("native_precompiled", "precompiled"),
                                ("native_hot_swaps", "hot swaps"),
                                ("native_async_compiles", "async compiles"),
                                ("native_async_failures", "async failures"),
                                ("native_queue_depth_max", "queue depth max")):
                k = self.counts.get(name, 0)
                if k:
                    detail.append(f"  {label:<16s} {k}")
            lines.extend(detail)
        classes = self.counts.get("batch_classes", 0)
        if classes:
            configs = self.counts.get("batch_configs", 0)
            fallbacks = self.counts.get("batch_fallbacks", 0)
            avg = configs / classes if classes else 0.0
            line = (f"batched sweep: {configs} configs in {classes} "
                    f"signature classes ({avg:.1f} configs/class)")
            if fallbacks:
                line += f", {fallbacks} fallbacks"
            lines.append(line)
            batch_calls = self.counts.get("native_batch_calls", 0)
            whole_runs = self.counts.get("native_whole_runs", 0)
            if batch_calls or whole_runs:
                batch_rows = self.counts.get("native_batch_rows", 0)
                lines.append(
                    f"  native batch driver: {batch_calls} class "
                    f"call{'s' if batch_calls != 1 else ''} covering "
                    f"{batch_rows} configs, {whole_runs} whole-run calls"
                )
                marshal_us = self.counts.get("native_batch_marshal_us", 0)
                copy_us = self.counts.get("native_batch_copy_us", 0)
                c_us = self.counts.get("native_batch_c_us", 0)
                if marshal_us or copy_us or c_us:
                    # Attribution of where batched-class wall time goes:
                    # Python-side marshalling, the O(total-mem) flat
                    # gather/scatter copies, and the C driver itself —
                    # the copy share explains why small-memory classes
                    # can run slower batched than per-iter.
                    lines.append(
                        f"    marshal {marshal_us / 1e3:.1f} ms, "
                        f"gather/scatter {copy_us / 1e3:.1f} ms, "
                        f"C driver {c_us / 1e3:.1f} ms"
                    )
        resilience = []
        degraded_to = sorted(
            k for k in self.counts if k.startswith("degraded_to_")
        )
        batch_degraded_from = sorted(
            k for k in self.counts if k.startswith("batch_degraded_from_")
        )
        for name in ("degraded", *degraded_to,
                     "batch_degraded", *batch_degraded_from,
                     "scalar_degraded", "retries",
                     "task_splits", "pool_restarts", "serial_fallbacks",
                     "failed_configs", "checkpoint_hits",
                     "disk_corrupt_quarantined"):
            k = self.counts.get(name, 0)
            if k:
                resilience.append(f"  {name:<24s} {k}")
        if resilience:
            lines.append("resilience:")
            lines.extend(resilience)
        return "\n".join(lines)


@contextmanager
def timed(profile: PhaseProfile | None, phase: str):
    """Time a block into ``profile``; no-op when ``profile`` is None."""
    if profile is None:
        yield
        return
    with profile.phase(phase):
        yield
