"""Batched, asynchronous compile pipeline for the native tier.

:mod:`repro.machine.native` compiles one kernel per structural
signature; PR 6 paid one ``cc -O3 -shared`` subprocess per kernel, so
a cold 24-signature sweep spent ~5.4 s inside the toolchain.  This
module amortizes that wall three ways:

* **Multi-kernel translation units.**  :func:`compile_requests` groups
  pending kernels by ``(V, lane dtype)`` — the portable helper block is
  fixed-name and dtype-parameterized, so kernels sharing the pair live
  behind one prelude — writes one ``.c`` per group, and feeds *all*
  groups to a **single** ``cc`` invocation producing one ``.so`` that
  exports every ``simdal_steady_<digest>`` symbol.  The shared object
  and its C source are cached *once*, content-addressed by the
  object's sha256 (:func:`repro.machine.native.tu_key`); each
  signature's small pickled entry names that digest, so a warm start
  reads, verifies and ``dlopen``s one object per invocation.  Evicting
  a signature's entry never disturbs its batch-mates; evicting the
  object makes every entry naming it miss and recompile.
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

Failure isolation: a batched ``cc`` failure with more than one kernel
recompiles each request as a singleton, so one bad unit cannot poison
its batch-mates.  Timings are returned to the caller, which accounts
them under ``cc_s``/``load_s`` (foreground) or ``async_cc_s``/
``async_load_s`` (background) — the async keys are deliberately
invisible to the profile's phase re-attribution, because background
compiler seconds overlap run time instead of extending it.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import itertools
import os
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

#: Monotonic suffix for compiled shared objects (see compile_requests).
_SO_SEQ = itertools.count()


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


def compile_requests(requests, disk):
    """Compile ``requests`` as batched TUs behind one ``cc`` invocation.

    Returns ``(loaded, failures, cc_s, load_s)`` where ``loaded`` maps
    signature → ``(ctypes function, meta)`` and ``failures`` maps
    signature → reason.  On a batched compiler failure with more than
    one request, every request is retried as a singleton so the one
    broken unit is isolated and its batch-mates still land.  When
    ``disk`` is a cache, the ``.so`` (a copy, never a hardlink) and the
    C source of every unit in it are stored once under
    :func:`~repro.machine.native.tu_key`, then one pickled meta per
    signature naming the object's digest.
    """
    native = _nat()
    loaded: dict[str, tuple] = {}
    failures: dict[str, str] = {}
    if not requests:
        return loaded, failures, 0.0, 0.0
    cc, _identity = native._require_compiler()
    work = native._workdir()
    units: OrderedDict[tuple, list] = OrderedDict()
    for req in requests:
        units.setdefault((req.V, req.lane), []).append(req)
    batch_id = hashlib.sha256(
        "|".join(req.key for req in requests).encode()
    ).hexdigest()[:16]
    c_paths = []
    c_text = []
    for (V, lane), group in units.items():
        src = group[0].prelude + "\n".join(req.kernel_src for req in group)
        path = work / f"tu_{batch_id}_{V}_{lane}.c"
        path.write_text(src)
        c_paths.append(path)
        c_text.append(f"/* ==== {path.name} ==== */\n{src}")
    # The output name must be unique per invocation: a recompile of the
    # same batch (e.g. after quarantining a tampered cache entry) would
    # otherwise have the linker truncate an inode that is still mapped
    # by a live dlopen handle — instant SIGBUS on the next symbol call.
    so_path = work / f"tu_{batch_id}_{next(_SO_SEQ)}.so"
    start = time.perf_counter()
    proc = _run_cc(
        [cc, *native.compiler_flags(), "-shared", "-fPIC",
         "-o", str(so_path)]
        + [str(path) for path in c_paths],
    )
    cc_s = time.perf_counter() - start
    native.STATS["cc_invocations"] += 1
    if proc.returncode != 0:
        if len(requests) == 1:
            req = requests[0]
            failures[req.signature] = (
                f"{cc} failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}"
            )
            return loaded, failures, cc_s, 0.0
        # One bad kernel must not sink its batch-mates: isolate the
        # culprit by recompiling every request as a singleton.
        load_s = 0.0
        for req in requests:
            sub_loaded, sub_failed, sub_cc, sub_load = compile_requests(
                [req], disk)
            loaded.update(sub_loaded)
            failures.update(sub_failed)
            cc_s += sub_cc
            load_s += sub_load
        return loaded, failures, cc_s, load_s
    native.STATS["tus"] += len(units)
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
        disk.put_artifact(tu, ".c", "\n".join(c_text).encode())
        disk.put_artifact_file(tu, ".so", so_path)
        for req in requests:
            disk.put(req.key, req.meta)
    return loaded, failures, cc_s, load_s


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
    costs one toolchain launch.  On success each placeholder kernel is
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
                batch, get_cache())
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
