"""Measurement runner: simdize, execute, verify, and score one loop.

Every measurement in the reproduction flows through
:func:`measure_loop`: it simdizes with the requested scheme, runs both
the scalar reference and the vector program on identical random
memories, *verifies byte equality*, and reports the paper's metrics
(operations per datum, dynamic-instruction speedup, and the Figure 11
three-component breakdown: LB / shift overhead / remaining overhead).

Three throughput levers sit on top:

* :func:`simdize` results are memoized per process in a bounded LRU,
  keyed on the loop's structural
  :meth:`~repro.ir.expr.Loop.signature` plus the ``(V, SimdOptions)``
  pair — policy ablations re-lowering the same front end hit the memo;
* memo misses consult the shared disk cache (:mod:`repro.cache`), so
  ``measure_many`` workers and repeated CLI invocations skip the
  lowering entirely once any process has done it;
* :func:`measure_many` fans :class:`SweepConfig` descriptions out over
  a ``ProcessPoolExecutor``.  Configs carry synthesis parameters and
  seeds rather than loop objects, so every worker re-synthesizes its
  loops deterministically and results are independent of worker count.

Every entry point takes an optional
:class:`~repro.profiling.PhaseProfile` that accumulates per-phase
wall-clock seconds and cache hit counters; workers ship their profiles
back with their measurements and the parent merges them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import sys
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro import faults
from repro.bench.lowerbound import LowerBound, lower_bound, seq_opd
from repro.bench.synth import SynthParams, SynthesizedLoop, synthesize
from repro.cache import current_cache_dir, get_cache, set_cache_dir
from repro.errors import BenchError, SweepInterrupted, WorkerError
from repro.machine.backend import numpy_available
from repro.machine.scalar import RunBindings
from repro.profiling import PhaseProfile, timed
from repro.simdize.driver import SimdizeResult, simdize
from repro.simdize.options import SimdOptions
from repro.simdize.verify import (
    fill_random,
    make_space,
    verify_equivalence,
    verify_equivalence_batch,
)

#: Accepted ``sweep_mode`` values: ``periter`` measures configs one at
#: a time (the historical path); ``batched`` groups configs by program
#: signature and executes each class as one batched kernel call.
SWEEP_MODES = ("periter", "batched")

#: Bump when SimdizeResult's shape (or anything it transitively pickles)
#: changes: stale disk entries must miss, not deserialize wrongly.
SIMDIZE_CACHE_VERSION = 1

#: Per-process simdize memo: (loop signature, V, options) -> result.
#: Bounded LRU — a hit moves the entry to the back, eviction takes the
#: front — so unbounded sweeps cannot grow it without limit and hot
#: schemes survive scans over many distinct loops.
_SIMDIZE_CACHE: OrderedDict[
    tuple[str, int, SimdOptions], SimdizeResult
] = OrderedDict()
_SIMDIZE_CACHE_MAX = 512


def _simdize_disk_key(signature: str, V: int, options: SimdOptions) -> str:
    from repro import __version__

    return (f"simdize:{__version__}:{SIMDIZE_CACHE_VERSION}:"
            f"V{V}:{options!r}:{signature}")


def _cached_simdize(
    loop,
    V: int,
    options: SimdOptions,
    profile: PhaseProfile | None = None,
) -> SimdizeResult:
    signature = loop.signature()
    key = (signature, V, options)
    result = _SIMDIZE_CACHE.get(key)
    if result is not None:
        _SIMDIZE_CACHE.move_to_end(key)  # LRU: refresh on hit
        if profile is not None:
            profile.count("simdize_memo_hits")
        return result
    if profile is not None:
        profile.count("simdize_memo_misses")
    disk = get_cache()
    if disk is not None:
        entry = disk.get(_simdize_disk_key(signature, V, options))
        if isinstance(entry, SimdizeResult):
            result = entry
            if profile is not None:
                profile.count("simdize_disk_hits")
        elif profile is not None:
            profile.count("simdize_disk_misses")
    if result is None:
        result = simdize(loop, V, options)
        if disk is not None:
            disk.put(_simdize_disk_key(signature, V, options), result)
    if len(_SIMDIZE_CACHE) >= _SIMDIZE_CACHE_MAX:
        _SIMDIZE_CACHE.popitem(last=False)
    _SIMDIZE_CACHE[key] = result
    return result


@dataclass
class Measurement:
    """One (loop, scheme) data point."""

    scheme: str
    policy: str
    opd: float
    seq_opd: float
    lb: LowerBound
    reorg_opd: float
    scalar_ops: int
    vector_ops: int
    data_count: int
    static_shifts: int

    @property
    def speedup(self) -> float:
        return self.scalar_ops / self.vector_ops

    @property
    def lb_speedup(self) -> float:
        """Upper-bound speedup implied by the OPD lower bound."""
        return self.seq_opd / self.lb.opd

    @property
    def shift_overhead(self) -> float:
        """Figure 11's middle bar: measured reorg OPD above the LB's."""
        return max(0.0, self.reorg_opd - self.lb.reorg_opd)

    @property
    def other_overhead(self) -> float:
        """Figure 11's top bar: everything above LB + shift overhead."""
        return max(0.0, self.opd - self.lb.opd - self.shift_overhead)


def measure_loop(
    syn: SynthesizedLoop,
    options: SimdOptions,
    V: int = 16,
    seed: int = 0,
    scheme: str | None = None,
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile: PhaseProfile | None = None,
) -> Measurement:
    """Simdize + run + verify one synthesized loop under one scheme."""
    loop = syn.loop
    rng = random.Random(seed ^ 0x5EED)
    with timed(profile, "simdize"):
        result = _cached_simdize(loop, V, options, profile)

    space = make_space(loop, V, rng, syn.base_residues)
    mem = space.make_memory()
    fill_random(space, mem, rng)
    bindings = RunBindings(trip=syn.params.trip if loop.runtime_upper else None)
    report = verify_equivalence(result.program, space, mem, bindings,
                                backend=backend, scalar_backend=scalar_backend,
                                profile=profile)
    return _finish_measurement(syn, options, V, scheme, result, report)


def _finish_measurement(
    syn: SynthesizedLoop,
    options: SimdOptions,
    V: int,
    scheme: str | None,
    result: SimdizeResult,
    report,
) -> Measurement:
    """Score one verified run — shared by the per-config and batched
    paths so both produce field-identical Measurements."""
    loop = syn.loop
    lb = lower_bound(
        loop,
        V,
        zero_shift=(result.policy == "zero"),
        runtime_alignment=syn.params.runtime_alignment,
        residues=syn.base_residues,
    )
    reorg_opd = report.vector_ops.reorg_total / report.data_count
    if scheme is None:
        scheme = result.policy.upper()
        if options.reuse != "none":
            scheme += f"-{options.reuse}"
    return Measurement(
        scheme=scheme,
        policy=result.policy,
        opd=report.vector_opd,
        seq_opd=seq_opd(loop),
        lb=lb,
        reorg_opd=reorg_opd,
        scalar_ops=report.scalar_total,
        vector_ops=report.vector_total,
        data_count=report.data_count,
        static_shifts=result.shift_count,
    )


@dataclass
class SuiteResult:
    """Aggregated measurements over a suite of loops (one scheme)."""

    scheme: str
    measurements: list[Measurement]

    @property
    def opd(self) -> float:
        """Suite OPD: total operations over total data (ratio of sums,
        the paper's footnote-7 aggregation)."""
        ops = sum(m.vector_ops for m in self.measurements)
        data = sum(m.data_count for m in self.measurements)
        return ops / data

    @property
    def speedup(self) -> float:
        scalar = sum(m.scalar_ops for m in self.measurements)
        vector = sum(m.vector_ops for m in self.measurements)
        return scalar / vector

    @property
    def lb_opd(self) -> float:
        lb_ops = sum(m.lb.opd * m.data_count for m in self.measurements)
        data = sum(m.data_count for m in self.measurements)
        return lb_ops / data

    @property
    def lb_speedup(self) -> float:
        seq = sum(m.seq_opd * m.data_count for m in self.measurements)
        lb = sum(m.lb.opd * m.data_count for m in self.measurements)
        return seq / lb

    @property
    def seq_opd(self) -> float:
        seq = sum(m.seq_opd * m.data_count for m in self.measurements)
        data = sum(m.data_count for m in self.measurements)
        return seq / data

    @property
    def shift_overhead(self) -> float:
        extra = sum(m.shift_overhead * m.data_count for m in self.measurements)
        data = sum(m.data_count for m in self.measurements)
        return extra / data

    @property
    def other_overhead(self) -> float:
        return max(0.0, self.opd - self.lb_opd - self.shift_overhead)


def measure_suite(
    suite: list[SynthesizedLoop],
    options: SimdOptions,
    V: int = 16,
    scheme: str | None = None,
    jobs: int = 1,
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile: PhaseProfile | None = None,
    sweep_mode: str = "periter",
    run_policy: "RunPolicy | None" = None,
) -> SuiteResult:
    """Measure every loop of a suite under one scheme.

    Configs that fail after the run policy's retries are dropped from the
    aggregate (with a stderr summary from :func:`measure_many`); if
    *every* config failed there is nothing to aggregate and a
    :class:`~repro.errors.BenchError` is raised.
    """
    if jobs > 1 or sweep_mode != "periter" or run_policy is not None:
        configs = [
            SweepConfig(syn.params, syn.seed, options, V, scheme) for syn in suite
        ]
        rows = measure_many(configs, jobs=jobs, backend=backend,
                            scalar_backend=scalar_backend,
                            profile=profile, sweep_mode=sweep_mode,
                            run_policy=run_policy)
        measurements = [m for m in rows if isinstance(m, Measurement)]
        if not measurements:
            raise BenchError(
                f"all {len(rows)} sweep configs failed after retries "
                f"(scheme {scheme!r}); see the failure summary above"
            )
    else:
        measurements = [
            measure_loop(syn, options, V, seed=syn.seed, scheme=scheme,
                         backend=backend, scalar_backend=scalar_backend,
                         profile=profile)
            for syn in suite
        ]
    return SuiteResult(scheme=measurements[0].scheme, measurements=measurements)


# ---------------------------------------------------------------------------
# Parallel sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """One self-contained measurement job.

    Carries synthesis parameters and the seed instead of the loop
    object: :func:`~repro.bench.synth.synthesize` is deterministic in
    ``(params, seed, V)``, so any worker process reconstructs exactly
    the loop — and the random data seeds derive from ``seed`` — making
    sweep results identical for any worker count, one or many.
    """

    params: SynthParams
    seed: int
    options: SimdOptions
    V: int = 16
    scheme: str | None = None


# ---------------------------------------------------------------------------
# Fault-tolerant supervision
# ---------------------------------------------------------------------------

#: Exponential-backoff schedule for per-config retries (seconds).
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
#: Pool deaths tolerated before degrading to in-process execution.
_POOL_DEATH_LIMIT = 2


@dataclass(frozen=True)
class RunPolicy:
    """How a sweep survives failing configs, workers, and restarts.

    ``max_retries`` bounds re-attempts of a single failing config (a
    failing multi-config task is first split back to per-config tasks,
    which does not consume a retry).  ``timeout`` is the per-chunk
    wall-clock budget when running on a pool; a chunk that exceeds it
    is treated like a worker death.  ``checkpoint`` names a JSONL
    journal appended to as configs complete; ``resume`` replays it,
    skipping journaled configs.
    """

    max_retries: int = 2
    timeout: float | None = None
    checkpoint: Path | str | None = None
    resume: bool = False


@dataclass
class FailedMeasurement:
    """A config that still failed after every retry.

    Sweeps return these in-place of :class:`Measurement` rows (same
    input order) instead of aborting; aggregation layers filter them
    and report the loss.
    """

    config: SweepConfig
    error: str
    message: str
    attempts: int

    @property
    def scheme(self) -> str:
        return self.config.scheme or "?"

    def describe(self) -> str:
        return (f"{self.scheme} seed={self.config.seed}: {self.error}: "
                f"{self.message} (after {self.attempts} attempts)")


def _config_key(config: SweepConfig) -> str:
    """Stable identity of a sweep config for checkpoint journals.

    Dataclass reprs of the carried params/options are deterministic, so
    the digest is stable across processes and runs.
    """
    material = repr((config.params, config.seed, config.options,
                     config.V, config.scheme))
    return hashlib.sha256(material.encode()).hexdigest()


def _measurement_to_json(m: Measurement) -> dict:
    return asdict(m)


def _measurement_from_json(data: dict) -> Measurement:
    data = dict(data)
    data["lb"] = LowerBound(**data["lb"])
    return Measurement(**data)


def _load_checkpoint(path: Path) -> dict[str, Measurement]:
    """Journaled measurements by config key; tolerates torn tail lines.

    A run killed mid-append can leave a truncated final line — those
    (and any other undecodable lines) are skipped, so resume replays
    every intact entry and simply re-measures the rest.
    """
    done: dict[str, Measurement] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return done
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            done[entry["key"]] = _measurement_from_json(entry["measurement"])
        except Exception:
            continue
    return done


@dataclass
class _Task:
    """One unit of supervised work: config indices + attempt count."""

    indices: list[int]
    attempt: int = 0


# ---------------------------------------------------------------------------
# Graceful sweep interruption (checkpointed sweeps only)
# ---------------------------------------------------------------------------

#: Set by the SIGTERM/SIGINT handler armed around checkpointed sweeps.
#: The handler only flips this flag — it never raises — so a signal can
#: never tear a journal line mid-write; _supervise polls it at task
#: boundaries and raises SweepInterrupted at the next journal-safe
#: point.
_STOP_SIGNAL: int | None = None


def _request_stop(signum, frame) -> None:
    global _STOP_SIGNAL
    _STOP_SIGNAL = signum


def _interrupted() -> int | None:
    return _STOP_SIGNAL


def _arm_stop_signals() -> list[tuple[int, object]]:
    """Install flag-setting SIGTERM/SIGINT handlers; return the
    previous handlers for restoration (empty off the main thread,
    where ``signal.signal`` is unavailable)."""
    global _STOP_SIGNAL
    _STOP_SIGNAL = None
    installed: list[tuple[int, object]] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous = signal.signal(sig, _request_stop)
        except ValueError:
            continue
        installed.append((sig, previous))
    return installed


def _disarm_stop_signals(installed: list[tuple[int, object]]) -> None:
    for sig, previous in installed:
        try:
            signal.signal(sig, previous)
        except ValueError:
            pass


def _supervise(tasks, worker, make_job, jobs, policy, profile,
               on_done, on_failed) -> None:
    """Run tasks to completion under the fault policy.

    ``jobs > 1`` dispatches rounds of tasks onto a
    ``ProcessPoolExecutor`` and waits per-future with the policy
    timeout.  A worker death (``BrokenProcessPool``) or chunk timeout
    tears the pool down, requeues the unfinished tasks, and counts a
    ``pool_restart``; after :data:`_POOL_DEATH_LIMIT` deaths the
    remaining work degrades to in-process serial execution
    (``serial_fallbacks``) — worker faults cannot take the sweep down
    with them.  A task-level exception splits a multi-config task back
    to per-config tasks (``task_splits``); a single config retries
    with exponential backoff up to ``policy.max_retries`` and then
    reports through ``on_failed``.
    """
    pending = deque(tasks)
    pool_deaths = 0
    serial = jobs <= 1

    def task_failed(task: _Task, exc: BaseException) -> None:
        if len(task.indices) > 1:
            if profile is not None:
                profile.count("task_splits")
            for idx in task.indices:
                pending.append(_Task([idx], task.attempt + 1))
        elif task.attempt < policy.max_retries:
            if profile is not None:
                profile.count("retries")
            time.sleep(min(_BACKOFF_CAP, _BACKOFF_BASE * (2 ** task.attempt)))
            pending.append(_Task(task.indices, task.attempt + 1))
        else:
            on_failed(task.indices[0], exc, task.attempt + 1)

    while pending:
        signum = _interrupted()
        if signum is not None:
            raise SweepInterrupted(
                f"sweep stopped by signal {signum} with "
                f"{sum(len(t.indices) for t in pending)} configs pending "
                f"(journal intact; resume with --resume)"
            )
        if serial:
            task = pending.popleft()
            try:
                out, chunk_profile = worker(make_job(task.indices))
            except Exception as exc:
                task_failed(task, exc)
                continue
            if profile is not None:
                profile.merge(chunk_profile)
            on_done(task.indices, out)
            continue
        round_tasks = list(pending)
        pending.clear()
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(round_tasks)))
        futures = []
        for t in round_tasks:
            try:
                futures.append((pool.submit(worker, make_job(t.indices)), t))
            except BrokenProcessPool:
                # A worker died while the round was still being
                # submitted; the futures already out report the death,
                # and this task waits for the next round untouched.
                pending.append(t)
        broken = False
        for fut, task in futures:
            if broken or _interrupted() is not None:
                # The pool is gone (or a stop signal arrived); harvest
                # whatever already finished and requeue the rest
                # untouched (no attempt charged).
                harvested = None
                if fut.done():
                    try:
                        harvested = fut.result(timeout=0)
                    except Exception:
                        harvested = None
                if harvested is not None:
                    out, chunk_profile = harvested
                    if profile is not None:
                        profile.merge(chunk_profile)
                    on_done(task.indices, out)
                else:
                    pending.append(task)
                continue
            try:
                out, chunk_profile = fut.result(timeout=policy.timeout)
            except (BrokenProcessPool, FuturesTimeoutError, OSError) as exc:
                pool_deaths += 1
                if profile is not None:
                    profile.count("pool_restarts")
                broken = True
                task_failed(task, WorkerError(
                    f"worker pool failure: {type(exc).__name__}: {exc}"
                ))
                continue
            except Exception as exc:
                task_failed(task, exc)
                continue
            if profile is not None:
                profile.merge(chunk_profile)
            on_done(task.indices, out)
        pool.shutdown(wait=False, cancel_futures=True)
        if pool_deaths >= _POOL_DEATH_LIMIT and not serial:
            serial = True
            if profile is not None:
                profile.count("serial_fallbacks")


# ---------------------------------------------------------------------------
# Structure-batched sweeps
# ---------------------------------------------------------------------------

def _program_class_key(config: SweepConfig, result: SimdizeResult):
    """The signature-class grouping key for one simdized config.

    With NumPy present this is the jit engine's structural program
    signature — the exact key its kernel cache uses, so every config
    in a class shares one compiled kernel and one batched call.
    Without NumPy, batching degrades to per-run execution anyway
    (:func:`~repro.machine.backend.run_vector_batch`), so the loop
    signature tuple is key enough.
    """
    if numpy_available():
        from repro.machine.jit import _cached_signature

        return _cached_signature(result.program)
    return result.class_key()


def measure_batch(
    configs: list[SweepConfig],
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile: PhaseProfile | None = None,
) -> list[Measurement]:
    """Measure sweep configs grouped into program-signature classes.

    Element-wise identical to :func:`measure_loop` per config — same
    synthesis, same seeded random memories, same verification oracle,
    same Measurement fields — but the vector executions of each
    signature class happen as ONE batched backend call
    (:func:`~repro.simdize.verify.verify_equivalence_batch`) instead
    of one per config.  Because batching is the whole point here,
    ``backend="auto"`` resolves to the jit engine (the only one with
    a native config-batch axis) when NumPy is available; its results
    are bit-identical to the bytes oracle, so the only observable
    difference is wall clock.  Results come back in input order.

    With a ``profile``, per-class stats accumulate under
    ``batch_classes`` / ``batch_configs`` / ``batch_fallbacks``.
    """
    if backend == "auto" and numpy_available():
        backend = "jit"
    syns: list[SynthesizedLoop] = []
    for config in configs:
        with timed(profile, "synthesize"):
            syns.append(synthesize(config.params, config.seed, config.V))
    simdized: list[SimdizeResult] = []
    classes: "OrderedDict[object, list[int]]" = OrderedDict()
    for idx, (config, syn) in enumerate(zip(configs, syns)):
        with timed(profile, "simdize"):
            result = _cached_simdize(syn.loop, config.V, config.options,
                                     profile)
        simdized.append(result)
        classes.setdefault(_program_class_key(config, result), []).append(idx)
    if backend == "native" and numpy_available():
        # Precompile-ahead: the signature classes are known before any
        # config runs, so every cold native kernel compiles in one (or
        # few) batched translation units instead of one cc per class.
        from repro.machine import compilequeue

        compilequeue.precompile(
            [simdized[indices[0]].program for indices in classes.values()],
            profile,
        )
    measurements: list[Measurement | None] = [None] * len(configs)
    for indices in classes.values():
        items = []
        for idx in indices:
            config, syn = configs[idx], syns[idx]
            # Exactly measure_loop's derivation: the data rng seeds
            # from the config seed, so batch composition cannot change
            # any config's memory image.
            rng = random.Random(config.seed ^ 0x5EED)
            space = make_space(syn.loop, config.V, rng, syn.base_residues)
            mem = space.make_memory()
            fill_random(space, mem, rng)
            bindings = RunBindings(
                trip=syn.params.trip if syn.loop.runtime_upper else None
            )
            items.append((simdized[idx].program, space, mem, bindings))
        reports = verify_equivalence_batch(
            items, backend=backend, scalar_backend=scalar_backend,
            profile=profile,
        )
        if profile is not None:
            profile.count("batch_classes")
            profile.count("batch_configs", len(indices))
            fallbacks = sum(1 for r in reports if r.used_fallback)
            if fallbacks:
                profile.count("batch_fallbacks", fallbacks)
        for idx, report in zip(indices, reports):
            measurements[idx] = _finish_measurement(
                syns[idx], configs[idx].options, configs[idx].V,
                configs[idx].scheme, simdized[idx], report,
            )
    return measurements


def _disk_stats_snapshot() -> dict:
    cache = get_cache()
    return cache.stats() if cache is not None else {}


def _fold_disk_stats(profile: PhaseProfile | None, before: dict) -> None:
    """Fold disk-tier stat *deltas* into a profile.

    :class:`~repro.cache.DiskCache` counters are cumulative per
    process, and pool workers are reused across chunks — shipping raw
    totals with every chunk profile would double-count them when the
    parent merges.  Snapshot before the chunk, fold the delta after.
    """
    if profile is None:
        return
    after = _disk_stats_snapshot()
    if not after:
        return
    for stat in after:
        delta = after.get(stat, 0) - before.get(stat, 0)
        if delta > 0:
            profile.count(f"disk_{stat}", delta)


def _measure_batch_chunk(
    job: tuple[list[SweepConfig], str, str, str | None, bool]
) -> tuple[list[Measurement], PhaseProfile | None]:
    """Worker entry point for batched sweeps: one or more whole
    signature classes per task (same job tuple as
    :func:`_measure_sweep_chunk`)."""
    faults.fault("worker")
    chunk, backend, scalar_backend, cache_dir, want_profile = job
    if cache_dir is not None:
        set_cache_dir(Path(cache_dir) if cache_dir else None)
    profile = PhaseProfile() if want_profile else None
    before = _disk_stats_snapshot() if want_profile else {}
    out = measure_batch(chunk, backend=backend,
                        scalar_backend=scalar_backend, profile=profile)
    _fold_disk_stats(profile, before)
    return out, profile


def _batched_bins(configs: list[SweepConfig], jobs: int) -> list[list[int]]:
    """Partition config indices into worker bins, whole families at a
    time.

    Families group by ``(params, V)`` — computable without synthesizing
    and coarser than any program-signature class (configs lowered from
    different param sets can't share a program; different *schemes* of
    one param set sometimes can) — so no class is ever split across
    processes and every worker batches maximally.  Runtime-trip params
    normalize ``trip`` out of the key: the trip count is a run-time
    binding there, so configs differing only in trip share program
    signatures.  Greedy largest-family-first balancing keeps bins even.
    """
    families: "OrderedDict[object, list[int]]" = OrderedDict()
    for idx, config in enumerate(configs):
        params = config.params
        if params.runtime_trip:
            params = replace(params, trip=0)
        families.setdefault((params, config.V), []).append(idx)
    bins: list[list[int]] = [[] for _ in range(min(jobs, len(families)))]
    loads = [0] * len(bins)
    for indices in sorted(families.values(), key=len, reverse=True):
        target = loads.index(min(loads))
        bins[target].extend(indices)
        loads[target] += len(indices)
    return [b for b in bins if b]


#: Most pending configs a parent will prewarm ahead of its workers:
#: past this, serial lowering in the parent would dominate the very
#: fan-out it is meant to accelerate.
_PREWARM_LIMIT = 4096


def _right_sized_jobs(jobs: int, policy: RunPolicy) -> int:
    """Cap worker fan-out at the host's real parallelism.

    Forking more workers than CPUs only adds dispatch and pickling
    overhead — the measured jobs=2 sweep on a 1-CPU host was *slower*
    than serial.  The cap stays out of the way whenever the pool is
    load-bearing rather than a throughput lever: with a per-chunk
    ``timeout`` or armed fault injection the caller wants process
    isolation (kill-ability, blast-radius control), so the requested
    fan-out passes through untouched.
    """
    if jobs <= 1 or policy.timeout is not None or faults.active():
        return jobs
    return max(1, min(jobs, os.cpu_count() or 1))


def _prewarm_pending(configs: list[SweepConfig], backend: str,
                     profile: PhaseProfile | None) -> None:
    """Lower every pending config once in the parent before forking.

    Workers fork from this process (and share its disk cache), so one
    parent pass over synthesize+simdize turns every per-worker
    lowering into a memo or disk hit instead of duplicated work — the
    fix for the jobs=2 "parallel slower than serial" regression.  For
    the native backend it then batch-precompiles all signature kernels
    through the compile pipeline: one ``cc`` invocation ahead of the
    sweep instead of one per signature per worker.

    The simdize calls deliberately pass no profile: prewarming is not
    a cache *lookup* made by any measurement, so it must not inflate
    the memo hit/miss counters the profile reports (its wall clock
    still lands in the synthesize/simdize phases via ``timed``).
    """
    programs = []
    for config in configs:
        with timed(profile, "synthesize"):
            syn = synthesize(config.params, config.seed, config.V)
        with timed(profile, "simdize"):
            result = _cached_simdize(syn.loop, config.V, config.options)
        programs.append(result.program)
    if backend == "native" and numpy_available():
        from repro.machine import compilequeue

        compilequeue.precompile(programs, profile)


def _measure_sweep_chunk(
    job: tuple[list[SweepConfig], str, str, str | None, bool]
) -> tuple[list[Measurement], PhaseProfile | None]:
    """Worker entry point: re-synthesize and measure a whole chunk.

    Module-level (picklable); taking a *list* of configs per task
    amortizes the executor's per-task pickling/dispatch overhead and
    lets consecutive configs share the worker's simdize memo.  The job
    carries the parent's cache directory (None = leave this process's
    setting alone, "" = disabled) so all workers share one disk cache,
    and a flag asking for a phase profile to ship back.
    """
    faults.fault("worker")
    chunk, backend, scalar_backend, cache_dir, want_profile = job
    if cache_dir is not None:
        set_cache_dir(Path(cache_dir) if cache_dir else None)
    profile = PhaseProfile() if want_profile else None
    before = _disk_stats_snapshot() if want_profile else {}
    out = []
    for config in chunk:
        with timed(profile, "synthesize"):
            syn = synthesize(config.params, config.seed, config.V)
        out.append(measure_loop(syn, config.options, config.V,
                                seed=config.seed, scheme=config.scheme,
                                backend=backend,
                                scalar_backend=scalar_backend,
                                profile=profile))
    _fold_disk_stats(profile, before)
    return out, profile


def measure_many(
    configs: list[SweepConfig],
    jobs: int = 1,
    backend: str = "auto",
    scalar_backend: str = "auto",
    profile: PhaseProfile | None = None,
    sweep_mode: str = "periter",
    run_policy: RunPolicy | None = None,
) -> list:
    """Measure many sweep configs, optionally fanned over processes.

    Results are returned in input order and element-wise identical in
    every ``sweep_mode`` — the modes only change *how* the vector
    executions are dispatched, never what any config computes.

    ``sweep_mode="periter"`` measures one config at a time.
    ``jobs <= 1`` runs serially in this process (and benefits from the
    shared simdize memo); larger ``jobs`` submits manually batched
    chunks to a ``ProcessPoolExecutor`` — one task per chunk, ~4 chunks
    per worker — so task pickling is amortized over many configs.

    ``sweep_mode="batched"`` routes through :func:`measure_batch`:
    configs grouped into program-signature classes, one config-batched
    kernel call per class.  With ``jobs > 1`` each worker receives
    whole config *families* (``(params, V, options)`` groups — a
    synthesis-free superset of the signature classes), so no class is
    ever split across processes and the per-task overhead that capped
    per-config scaling disappears with it.

    Each worker keeps its own memo but shares the parent's *disk* cache
    directory, so lowering done by one worker is a disk hit for the
    rest.  Determinism is per-config (seeded), not per-schedule.  When
    a ``profile`` is passed, workers time their phases and the parent
    merges every worker profile into it; cumulative disk-cache counters
    are folded as per-chunk deltas so reused pool workers never
    double-count.

    All execution runs under a :class:`RunPolicy` (default-constructed
    when none is passed): tasks are supervised per :func:`_supervise`,
    so worker deaths, chunk timeouts, and per-config errors degrade
    and retry instead of aborting the sweep.  A config that still
    fails after every retry yields a :class:`FailedMeasurement` in its
    slot — callers aggregating rows must filter on type.  With
    ``policy.checkpoint`` each completed config is journaled; with
    ``policy.resume`` journaled configs are spliced from the journal
    (``checkpoint_hits``) and only the rest are re-measured — the
    journal stores exact float values via JSON round-trip, so resumed
    tables are byte-identical to uninterrupted runs.

    While a checkpointed sweep runs, SIGTERM/SIGINT are held to the
    next task boundary: the journal is flushed and closed with every
    completed config intact, then :class:`~repro.errors.SweepInterrupted`
    propagates (the CLI maps it to exit code 3), so a later ``resume``
    run reproduces the full table byte-identically.
    """
    if sweep_mode not in SWEEP_MODES:
        raise BenchError(
            f"unknown sweep mode {sweep_mode!r}; choose from {SWEEP_MODES}"
        )
    # Parse REPRO_FAULT up front: a grammar error is a usage mistake
    # that should fail the sweep immediately, not be retried per config
    # in every worker.
    faults.active()
    policy = run_policy or RunPolicy()
    effective_jobs = _right_sized_jobs(jobs, policy)
    want_profile = profile is not None
    results: list = [None] * len(configs)

    journal = None
    keys: list[str] | None = None
    if policy.checkpoint is not None:
        path = Path(policy.checkpoint)
        keys = [_config_key(config) for config in configs]
        if policy.resume:
            done = _load_checkpoint(path)
            for idx, key in enumerate(keys):
                cached = done.get(key)
                if cached is not None:
                    results[idx] = cached
                    if profile is not None:
                        profile.count("checkpoint_hits")
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        journal = path.open("a", encoding="utf-8")

    # Checkpointed sweeps trade instant death for journal integrity:
    # SIGTERM/SIGINT set a flag the supervisor polls at task
    # boundaries, so every completed config is flushed before
    # SweepInterrupted propagates (the CLI maps it to exit code 3).
    stop_handlers = _arm_stop_signals() if journal is not None else []

    pending = [idx for idx in range(len(configs)) if results[idx] is None]

    def on_done(indices: list[int], out: list[Measurement]) -> None:
        for idx, measurement in zip(indices, out):
            results[idx] = measurement
            if journal is not None:
                journal.write(json.dumps({
                    "key": keys[idx],
                    "measurement": _measurement_to_json(measurement),
                }) + "\n")
        if journal is not None:
            journal.flush()

    def on_failed(idx: int, exc: BaseException, attempts: int) -> None:
        results[idx] = FailedMeasurement(
            config=configs[idx],
            error=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
        )

    try:
        if pending:
            if effective_jobs <= 1:
                # Pure in-process run: leave the cache binding alone so
                # its counters (and degraded/disabled state) persist.
                cache_dir = None
            else:
                cache_root = current_cache_dir()
                cache_dir = str(cache_root) if cache_root is not None else ""
            if len(pending) <= _PREWARM_LIMIT and (
                    effective_jobs > 1
                    or (backend == "native" and sweep_mode == "periter")):
                # Batched+serial skips this: measure_batch precompiles
                # its own signature classes after grouping.
                _prewarm_pending([configs[i] for i in pending], backend,
                                 profile)
            if sweep_mode == "batched":
                worker = _measure_batch_chunk
                if effective_jobs <= 1 or len(pending) <= 1:
                    bins = [list(pending)]
                else:
                    sub = [configs[i] for i in pending]
                    bins = [[pending[i] for i in indices]
                            for indices in _batched_bins(sub, effective_jobs)]
            else:
                worker = _measure_sweep_chunk
                if effective_jobs <= 1 or len(pending) <= 1:
                    if policy.checkpoint is not None and len(pending) > 1:
                        # Serial checkpointed sweeps run one task per
                        # config: the journal then records progress at
                        # every config boundary, and a stop signal
                        # (SIGTERM/SIGINT) lands between configs
                        # instead of waiting out the whole sweep.
                        bins = [[idx] for idx in pending]
                    else:
                        bins = [list(pending)]
                else:
                    # One balanced chunk per worker by default — task
                    # dispatch/pickling is the scaling killer on small
                    # sweeps.  Under a chunk timeout or armed faults,
                    # finer chunks bound the blast radius of a kill or
                    # timeout to a few configs.
                    if policy.timeout is not None or faults.active():
                        chunks = effective_jobs * 4
                    else:
                        chunks = effective_jobs
                    chunksize = max(1, -(-len(pending) // chunks))
                    bins = [pending[i:i + chunksize]
                            for i in range(0, len(pending), chunksize)]

            def make_job(indices: list[int]):
                return ([configs[i] for i in indices], backend,
                        scalar_backend, cache_dir, want_profile)

            _supervise([_Task(b) for b in bins], worker, make_job,
                       effective_jobs, policy, profile, on_done, on_failed)
    finally:
        _disarm_stop_signals(stop_handlers)
        if journal is not None:
            journal.flush()
            journal.close()

    failures = [r for r in results if isinstance(r, FailedMeasurement)]
    if failures:
        if profile is not None:
            profile.count("failed_configs", len(failures))
        print(f"warning: {len(failures)}/{len(configs)} sweep configs "
              f"failed after retries:", file=sys.stderr)
        for failure in failures[:10]:
            print(f"  {failure.describe()}", file=sys.stderr)
        if len(failures) > 10:
            print(f"  ... and {len(failures) - 10} more", file=sys.stderr)
    return results
