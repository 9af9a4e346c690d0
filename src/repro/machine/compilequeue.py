"""Batched, asynchronous compile pipeline for the native tier.

:mod:`repro.machine.native` compiles one kernel per structural
signature; PR 6 paid one ``cc -O3 -shared`` subprocess per kernel, so
a cold 24-signature sweep spent ~5.4 s inside the toolchain.  This
module amortizes that wall three ways:

* **Multi-kernel translation units, compiled on every core.**
  :func:`compile_requests` builds one ``.so`` per batch that exports
  every ``simdal_steady_<digest>`` symbol.  Kernels sharing a
  ``(V, lane dtype)`` pair live behind one prelude (the portable helper
  block is fixed-name and dtype-parameterized), so :func:`partition`
  splits a batch into size-balanced units that never mix pairs, one
  per usable CPU (:func:`shard_count`).  Each unit compiles in its own
  ``cc -fPIC -c`` process concurrently and one ``cc -shared`` links
  the objects in a fixed order, so one batch on one host always gives
  the same object.  A batch with one shard — one CPU, one kernel, or
  less than :data:`SHARD_FLOOR` of source — is a single
  ``cc -shared`` over one unit per pair.  The shared object and its C
  source are cached *once*, content-addressed by the object's sha256
  (:func:`repro.machine.native.tu_key`); each signature's small
  pickled entry names that digest, so a warm start reads, verifies and
  ``dlopen``s one object per batch.  Evicting a signature's entry
  never disturbs its batch-mates; evicting the object makes every
  entry naming it miss and recompile.
* **Precompile-ahead.**  :func:`precompile` lets the sweep runners
  collect a campaign's signature classes up front and compile them as
  one batch *before* workers fork, so forked workers find warm disk
  entries instead of redoing identical compiles.
* **An asynchronous background queue.**  With ``REPRO_NATIVE_ASYNC=1``
  (or :func:`set_async_compile`), kernel acquisition never blocks on
  the compiler: it returns a jit-delegating kernel immediately, queues
  the compile on a daemon thread (in-flight dedup keyed by signature),
  and the worker *hot-swaps* the compiled function into the live
  kernel object the moment it lands.  Queue failures are silent — the
  kernel simply keeps delegating to jit — so injected or real cc
  failures never reach the run.

Failure isolation: a failed shard with more than one kernel recompiles
each of its requests as a singleton, so one bad kernel cannot poison
its batch-mates, and the other shards still link and land.  Timings
are returned to the caller, which accounts them under
``cc_s``/``load_s`` (foreground) or ``async_cc_s``/``async_load_s``
(background) — the async keys are deliberately invisible to the
profile's phase re-attribution, because background compiler seconds
overlap run time instead of extending it.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import itertools
import os
import shutil
import signal
import subprocess
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.cache import get_cache
from repro.errors import FaultInjected
from repro.faults import fault as _fault


def _nat():
    # native imports this module at its top; importing back lazily
    # breaks the cycle (native is always fully initialized by the time
    # any pipeline function runs).
    from repro.machine import native

    return native


# ---------------------------------------------------------------------------
# Env knobs
# ---------------------------------------------------------------------------

_ASYNC_OVERRIDE: bool | None = None


def async_enabled() -> bool:
    """True when kernel compiles run on the background queue.

    ``REPRO_NATIVE_ASYNC=1`` in the environment, or a process-local
    :func:`set_async_compile` override (the CLI maps ``--async-compile``
    onto it).
    """
    if _ASYNC_OVERRIDE is not None:
        return _ASYNC_OVERRIDE
    return os.environ.get("REPRO_NATIVE_ASYNC", "") not in ("", "0")


def set_async_compile(value: bool | None) -> None:
    """Force async compilation on/off for this process (None = env)."""
    global _ASYNC_OVERRIDE
    _ASYNC_OVERRIDE = value


def precompile_enabled() -> bool:
    """False only under ``REPRO_NATIVE_PRECOMPILE=0`` (CI uses it to
    force the per-kernel cold path for byte-parity comparison)."""
    return os.environ.get("REPRO_NATIVE_PRECOMPILE", "1") != "0"


# ---------------------------------------------------------------------------
# Batched translation units
# ---------------------------------------------------------------------------

#: Monotonic suffix for compiled shared objects and their build
#: directories (see compile_requests).
_SO_SEQ = itertools.count()

#: Kernel source bytes each parallel shard must carry at least: every
#: shard re-parses the prelude in its own cc1, so below this a split
#: costs more than the core it frees.  A smaller batch stays one
#: ``cc -shared`` process.
SHARD_FLOOR = 48 * 1024


def _run_cc(argv):
    """Run one ``cc`` invocation with a wall-clock budget.

    The subprocess gets its own session so a hang (a wedged linker, an
    injected ``compile:timeout``) can be killed as a whole process
    group — ``cc`` is a driver that forks cc1/as/ld children, and
    killing only the driver would leak them.  Returns a completed-
    process-shaped object; on timeout ``returncode`` is None and
    ``stderr`` carries the budget, so callers charge the batch exactly
    like any other nonzero exit.
    """
    native = _nat()
    budget = native.cc_timeout()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            proc.kill()
        proc.wait()
        native.STATS["cc_timeouts"] += 1
        return subprocess.CompletedProcess(
            argv, None, "",
            f"cc timed out after {budget:g}s (REPRO_CC_TIMEOUT)")
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, not the host's
    core count, so ``taskset -c 0`` compiles with one shard."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class CompileRequest:
    """One signature kernel awaiting compilation.

    Built by :func:`repro.machine.native.build_request`; carries
    everything the pipeline needs so compilation itself never touches
    the program again (the async worker must not share VProgram walks
    with the foreground).
    """

    signature: str      # structural signature (cache identity)
    key: str            # versioned disk-cache key
    symbol: str         # simdal_steady_<digest> exported by the TU
    V: int              # vector width — TU grouping axis
    lane: str           # dtype name — TU grouping axis
    kernel_src: str     # the kernel function body (C)
    prelude: str        # kernel_unit_prelude(V, dtype)
    meta: object        # _NativeMeta (so_sha256 filled on success)
    jk: object          # jit._Kernel (fallback + spec)


def shard_count(requests) -> int:
    """Parallel ``cc -c`` shards for a foreground batch: one per usable
    CPU, at most one per request, and at least :data:`SHARD_FLOOR`
    bytes of kernel source each."""
    total = sum(len(req.kernel_src) for req in requests)
    return max(1, min(_usable_cpus(), len(requests),
                      -(-total // SHARD_FLOOR)))


def partition(requests, shards: int) -> list[list[CompileRequest]]:
    """Split ``requests`` into size-balanced translation units.

    A pure function of the requests and ``shards``, so one batch on one
    host always yields the same units in the same link order, and so
    the same ``.so`` digest.  Units never mix ``(V, lane)`` groups (the
    prelude's typedefs are per pair): each group gets one unit, and the
    other ``shards - groups`` units go one at a time to the group with
    the most source bytes per unit.  Within a group, requests are dealt
    largest ``kernel_src`` first (ties by key) to the lightest unit
    (ties by index); each unit keeps its requests in request order, so
    ``shards=1`` is exactly the unsharded one-unit-per-group layout.
    """
    groups: OrderedDict[tuple, list] = OrderedDict()
    for req in requests:
        groups.setdefault((req.V, req.lane), []).append(req)
    size = {pair: sum(len(req.kernel_src) for req in group)
            for pair, group in groups.items()}
    slots = dict.fromkeys(groups, 1)
    for _ in range(shards - len(groups)):
        open_pairs = [pair for pair in groups
                      if slots[pair] < len(groups[pair])]
        if not open_pairs:
            break
        slots[max(open_pairs, key=lambda p: size[p] / slots[p])] += 1
    order = {id(req): i for i, req in enumerate(requests)}
    units = []
    for pair, group in groups.items():
        loads = [0] * slots[pair]
        members: list[list] = [[] for _ in loads]
        for req in sorted(group, key=lambda r: (-len(r.kernel_src), r.key)):
            k = loads.index(min(loads))
            loads[k] += len(req.kernel_src)
            members[k].append(req)
        units.extend(sorted(unit, key=lambda r: order[id(r)])
                     for unit in members if unit)
    return units


def _compile_shards(argvs, workers: int) -> list:
    """Run every shard's ``cc -c``, ``workers`` at a time: the calling
    thread compiles the first shard, helper threads the rest."""
    # Imported here: only cold sharded compiles need it, and a warm
    # start should not pay for the module.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, workers - 1),
                            thread_name_prefix="repro-native-shard") as pool:
        rest = [pool.submit(_run_cc, argv) for argv in argvs[1:]]
        first = _run_cc(argvs[0])
        return [first, *(future.result() for future in rest)]


def compile_requests(requests, disk, parallel=True):
    """Compile ``requests`` into one shared object.

    Returns ``(loaded, failures, cc_s, load_s)`` where ``loaded`` maps
    signature → ``(ctypes function, meta)`` and ``failures`` maps
    signature → reason.  A ``parallel`` batch is split by
    :func:`partition` into :func:`shard_count` units, each compiled by
    its own ``cc -fPIC -c`` (see :func:`_compile_shards`), and one
    ``cc -shared`` links the objects in unit order.  With one shard
    (one usable CPU, a single kernel, less than :data:`SHARD_FLOOR` of
    source, or ``parallel=False`` — the background queue, whose
    compiles must not take the foreground's cores) it is one
    ``cc -shared`` process over one unit per ``(V, lane)`` group.
    ``cc_s`` is the batch's wall, not compiler time summed over shards.

    Failure isolation: a failed shard sends only its own requests to
    singleton recompiles — none when it held one request, whose error
    is then already known — while the other shards still link and
    land; a failed single-process compile or link does the same for
    every request it held.  When ``disk`` is a cache, the ``.so`` (a
    copy, never a hardlink) and the C source of every unit in it are
    stored once under :func:`~repro.machine.native.tu_key`, then one
    pickled meta per signature naming the object's digest.  The unit
    sources and objects are deleted once the ``.so`` is filed; the
    ``.so`` stays, since it is mapped.
    """
    native = _nat()
    loaded: dict[str, tuple] = {}
    failures: dict[str, str] = {}
    if not requests:
        return loaded, failures, 0.0, 0.0
    cc, _identity = native._require_compiler()
    base = [cc, *native.compiler_flags()]
    shards = shard_count(requests) if parallel else 1
    units = partition(requests, shards)
    batch_id = hashlib.sha256(
        "|".join(req.key for req in requests).encode()
    ).hexdigest()[:16]
    seq = next(_SO_SEQ)
    # Unit files keep fixed names (they are recorded in the object, so
    # a per-process name would change its digest) inside a directory of
    # their own, so concurrent compiles of one batch never share files.
    # The output name must be unique per invocation: a recompile of the
    # same batch (e.g. after quarantining a tampered cache entry) would
    # otherwise have the linker truncate an inode that is still mapped
    # by a live dlopen handle — instant SIGBUS on the next symbol call.
    work = native._workdir()
    build = work / f"build_{seq}"
    build.mkdir()
    so_path = work / f"tu_{batch_id}_{seq}.so"
    good: list[int] = []                  # units that reach the .so
    failed: list[tuple[list, object]] = []
    load_s = 0.0
    try:
        c_paths = []
        c_text = []
        for k, unit in enumerate(units):
            src = unit[0].prelude + "\n".join(req.kernel_src for req in unit)
            stem = f"tu_{batch_id}_{unit[0].V}_{unit[0].lane}"
            path = build / (f"{stem}_s{k}.c" if shards > 1 else f"{stem}.c")
            path.write_text(src)
            c_paths.append(path)
            c_text.append(f"/* ==== {path.name} ==== */\n{src}")
        link = [*base, "-shared", "-fPIC", "-o", str(so_path)]
        start = time.perf_counter()
        if shards == 1:
            proc = _run_cc(link + [str(path) for path in c_paths])
            native.STATS["cc_shards"] += 1
            if proc.returncode == 0:
                good = list(range(len(units)))
            else:
                failed.append((requests, proc))
        else:
            objects = [str(path.with_suffix(".o")) for path in c_paths]
            procs = _compile_shards(
                [[*base, "-fPIC", "-c", "-o", obj, str(path)]
                 for path, obj in zip(c_paths, objects)], shards)
            native.STATS["cc_shards"] += len(units)
            for k, proc in enumerate(procs):
                if proc.returncode == 0:
                    good.append(k)
                else:
                    failed.append((units[k], proc))
            if good:
                proc = _run_cc(link + [objects[k] for k in good])
                if proc.returncode != 0:
                    failed.append(([req for k in good for req in units[k]],
                                   proc))
                    good = []
        cc_s = time.perf_counter() - start
        native.STATS["cc_invocations"] += 1
        if good:
            load_s = _land([req for k in good for req in units[k]], so_path,
                           "\n".join(c_text[k] for k in good), disk, loaded)
    finally:
        shutil.rmtree(build, ignore_errors=True)
    for unit, proc in failed:
        if len(unit) == 1:
            failures[unit[0].signature] = (
                f"{cc} failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
            continue
        # One bad kernel must not sink its unit-mates: isolate the
        # culprit by recompiling each of them as a singleton.
        for req in unit:
            sub_loaded, sub_failed, sub_cc, sub_load = compile_requests(
                [req], disk)
            loaded.update(sub_loaded)
            failures.update(sub_failed)
            cc_s += sub_cc
            load_s += sub_load
    return loaded, failures, cc_s, load_s


def _land(requests, so_path, c_text: str, disk, loaded: dict) -> float:
    """``dlopen`` a freshly linked ``.so``, bind every request's
    functions into ``loaded`` and file the object, its C source and the
    metas naming it in ``disk``; returns the load seconds."""
    native = _nat()
    native.STATS["tus"] += len({(req.V, req.lane) for req in requests})
    native.STATS["tu_kernels"] += len(requests)
    so_digest = hashlib.sha256(so_path.read_bytes()).hexdigest()
    start = time.perf_counter()
    lib = ctypes.CDLL(str(so_path))
    native._SO_HANDLES[so_digest] = lib
    for req in requests:
        req.meta.so_sha256 = so_digest
        loaded[req.signature] = (native._bind_functions(lib, req.meta),
                                 req.meta)
    load_s = time.perf_counter() - start
    if disk is not None:
        # Object first, entries last: a reader that finds an entry
        # finds the object it names.
        tu = native.tu_key(so_digest)
        disk.put_artifact(tu, ".c", c_text.encode())
        disk.put_artifact_file(tu, ".so", so_path)
        for req in requests:
            disk.put(req.key, req.meta)
    return load_s


# ---------------------------------------------------------------------------
# Precompile-ahead (the sweep runners call this before workers fork)
# ---------------------------------------------------------------------------

def precompile(programs, profile=None) -> int:
    """Compile every cold signature in ``programs`` as one batch.

    Populates the native memory cache (and the shared disk cache) so
    subsequent runs — including forked sweep workers — hit warm
    entries instead of paying one ``cc`` each.  Returns the number of
    kernels compiled; 0 when there is nothing to do, no compiler
    exists, precompilation is disabled, or async mode owns compilation
    (queueing ahead of demand would just reorder the same work).

    Runs outside the verifier's stat windows, so it folds its own
    STATS deltas and compiler seconds into ``profile`` directly; the
    rest of its wall clock — jit spec loads, disk entry hits, ``.so``
    verify and ``dlopen`` — is the ``kernel_load`` phase.
    """
    native = _nat()
    if not programs or async_enabled() or not precompile_enabled():
        return 0
    if native._compiler_identity()[0] is None:
        return 0
    from repro.machine import jit

    started = time.perf_counter()
    before = {k: v for k, v in native.STATS.items() if isinstance(v, int)}
    disk = get_cache()
    requests = []
    seen = set()
    compiled = 0
    cc_s = load_s = 0.0
    try:
        for program in programs:
            signature = jit._cached_signature(program)
            if signature in seen or signature in native._NATIVE_CACHE:
                continue
            seen.add(signature)
            jk = jit.get_kernel(program)
            if not jk.spec.batchable:
                native._cache_put(
                    signature, native._NativeKernel(jk=jk, meta=None,
                                                    cfn=None))
                continue
            key = native._disk_key(signature,
                                   native._compiler_identity()[1])
            if key in native._FAILED:
                continue
            if disk is not None:
                kernel = native._load_from_disk(disk, key, signature, jk)
                if kernel is not None:
                    native.STATS["disk_hits"] += 1
                    native._cache_put(signature, kernel)
                    continue
                native.STATS["disk_misses"] += 1
            request = native.build_request(signature, key, jk, program)
            if request is None:
                native._cache_put(
                    signature, native._NativeKernel(jk=jk, meta=None,
                                                    cfn=None))
                continue
            requests.append(request)
        if requests:
            _fault("compile")
            loaded, failures, cc_s, load_s = compile_requests(requests,
                                                              disk)
            native.STATS["cc_s"] += cc_s
            native.STATS["load_s"] += load_s
            for req in requests:
                pair = loaded.get(req.signature)
                if pair is None:
                    native._FAILED[req.key] = failures.get(
                        req.signature, "batched native compile failed")
                    continue
                (cfn, rfn, bcfn), meta = pair
                native._cache_put(
                    req.signature,
                    native._NativeKernel(jk=req.jk, meta=meta, cfn=cfn,
                                         rfn=rfn, bcfn=bcfn))
                compiled += 1
            native.STATS["precompiled"] += compiled
    except FaultInjected:
        # An injected compile fault lands on the per-run acquisition
        # path instead, where the resilient chain records the
        # degradation — precompilation must never fail a sweep.
        pass
    if profile is not None:
        if cc_s:
            profile.add("cc", cc_s)
        if load_s:
            profile.add("native_load", load_s)
        profile.add("kernel_load",
                    time.perf_counter() - started - cc_s - load_s)
        for key, value in native.STATS.items():
            if isinstance(value, int):
                delta = value - before.get(key, 0)
                if delta:
                    profile.count(f"native_{key}", delta)
    return compiled


# ---------------------------------------------------------------------------
# The asynchronous background queue
# ---------------------------------------------------------------------------

class _CompileQueue:
    """A daemon-thread compile queue with batch drain and hot-swap.

    ``submit`` registers a request and its live placeholder kernel
    (in-flight dedup keyed by signature) and wakes the worker; the
    worker pops *everything* pending in one go and compiles it as one
    batched ``cc`` invocation, so a burst of N cold signatures still
    costs one toolchain launch.  That invocation is always a single
    process (``parallel=False``): the queue exists to overlap run time
    on a spare core, so it must not fan out over the foreground's
    cores.  On success each placeholder kernel is
    hot-swapped in publication order — meta first, stale plan cleared,
    the ctypes function last — so a reader that observes ``cfn`` set
    always sees the matching tables (readers check ``cfn`` before
    touching meta/plan, and the GIL orders the stores).  On failure the
    placeholder simply keeps delegating to jit, forever and silently;
    the failure is memoized in ``native._FAILED`` so a later cold
    acquisition doesn't retry a doomed compile.

    Fork safety: the queue state (lock, pending map, thread handle) is
    reset in forked children via ``os.register_at_fork``, because the
    worker thread does not survive ``fork`` and a condition variable
    captured mid-wait would deadlock the child.
    """

    def __init__(self):
        self._reset()

    def _reset(self):
        self._cond = threading.Condition()
        self._pending: dict[str, CompileRequest] = {}
        self._kernels: dict[str, object] = {}
        self._busy = 0
        self._thread: threading.Thread | None = None
        self._shutdown = False

    def submit(self, request: CompileRequest, kernel) -> None:
        native = _nat()
        with self._cond:
            if self._shutdown:
                # Interpreter is tearing down: finalize the placeholder
                # as a permanent jit delegate instead of orphaning it
                # in a pending state no worker will ever resolve.
                kernel.pending = False
                return
            if request.signature not in self._pending:
                self._pending[request.signature] = request
                self._kernels[request.signature] = kernel
                native.STATS["async_compiles"] += 1
            depth = len(self._pending) + self._busy
            if depth > native.STATS["queue_depth_max"]:
                native.STATS["queue_depth_max"] = depth
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="repro-native-cc", daemon=True)
                self._thread.start()
            self._cond.notify_all()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the queue is idle; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._pending or self._busy:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
        return True

    def clear(self) -> None:
        """Drop not-yet-started work (test isolation between cases)."""
        with self._cond:
            self._pending.clear()
            self._kernels.clear()
            self._cond.notify_all()

    def shutdown(self, timeout: float = 5.0) -> bool:
        """Stop the worker deterministically (atexit / tests).

        Pending-but-unstarted work is dropped — their placeholder
        kernels are finalized as jit delegates — and the worker thread
        is asked to exit once its in-flight batch (if any) completes,
        then joined with ``timeout``.  Returns False if the join timed
        out (a wedged cc already bounded by :func:`_run_cc`'s budget).
        Idempotent; ``submit`` after shutdown is a no-op.
        """
        with self._cond:
            self._shutdown = True
            for kernel in self._kernels.values():
                kernel.pending = False
            self._pending.clear()
            self._kernels.clear()
            thread = self._thread
            self._cond.notify_all()
        if thread is None or not thread.is_alive():
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def _run(self):
        while True:
            with self._cond:
                while not self._pending:
                    if self._shutdown:
                        return
                    self._cond.wait()
                batch = list(self._pending.values())
                kernels = dict(self._kernels)
                self._pending.clear()
                self._kernels.clear()
                self._busy = len(batch)
            try:
                self._compile_batch(batch, kernels)
            finally:
                with self._cond:
                    self._busy = 0
                    self._cond.notify_all()

    def _compile_batch(self, batch, kernels):
        native = _nat()
        try:
            _fault("compile")
            loaded, failures, cc_s, load_s = compile_requests(
                batch, get_cache(), parallel=False)
        except Exception as exc:  # injected faults included: stay on jit
            loaded, cc_s, load_s = {}, 0.0, 0.0
            failures = {req.signature: f"async native compile failed: {exc}"
                        for req in batch}
        # Background compiler seconds overlap run time instead of
        # extending it, so they land on async_* keys the profile's
        # phase re-attribution deliberately ignores.
        native.STATS["async_cc_s"] += cc_s
        native.STATS["async_load_s"] += load_s
        for req in batch:
            kernel = kernels.get(req.signature)
            pair = loaded.get(req.signature)
            if pair is None:
                native._FAILED[req.key] = failures.get(
                    req.signature, "async native compile failed")
                native.STATS["async_failures"] += 1
                if kernel is not None:
                    kernel.pending = False
                continue
            (cfn, rfn, bcfn), meta = pair
            if kernel is not None:
                kernel.meta = meta
                kernel.plan = None
                kernel.pending = False
                kernel.rfn = rfn
                kernel.bcfn = bcfn
                kernel.cfn = cfn  # published last: readers key off cfn
                native.STATS["hot_swaps"] += 1


_QUEUE = _CompileQueue()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_QUEUE._reset)

# Deterministic teardown: without this, interpreter exit races the
# daemon worker mid-cc — Python tears down module globals while the
# thread still references them, spraying ignored exceptions on stderr.
atexit.register(_QUEUE.shutdown)


def shutdown(timeout: float = 5.0) -> bool:
    """Shut the background queue down deterministically (idempotent)."""
    return _QUEUE.shutdown(timeout)


def enqueue(signature: str, key: str, jk, program, kernel) -> bool:
    """Queue a background compile that will hot-swap into ``kernel``.

    Returns False (and finalizes the kernel as a permanent jit
    delegate) when the steady sequence cannot be lowered to C at all —
    the same shapes the synchronous path delegates.
    """
    native = _nat()
    request = native.build_request(signature, key, jk, program)
    if request is None:
        kernel.pending = False
        return False
    _QUEUE.submit(request, kernel)
    return True


def drain(timeout: float | None = None) -> bool:
    """Wait for every queued background compile to finish."""
    return _QUEUE.drain(timeout)


def reset_queue() -> None:
    """Drop queued work and wait out in-flight batches (test hook).

    Also revives a queue a previous test shut down, so cases that
    exercise :func:`shutdown` do not leak a dead queue into later ones.
    """
    _QUEUE.clear()
    _QUEUE.drain()
    with _QUEUE._cond:
        _QUEUE._shutdown = False
