"""Execution-backend protocols and registries.

Two *pairs* of engines interpret the same inputs:

* **Vector backends** (:class:`ExecutionBackend`) execute a
  :class:`~repro.vir.program.VProgram` — ``bytes`` is the byte-level
  reference interpreter (:mod:`repro.machine.interp`), ``numpy`` the
  batched array backend (:mod:`repro.machine.npbackend`), ``jit`` the
  compile-once kernel backend (:mod:`repro.machine.jit`) that lowers
  each program to a cached fused-NumPy closure, and ``native`` the
  machine-code backend (:mod:`repro.machine.native`) that compiles
  signature kernels with the system C toolchain — preferring the
  vector-extension emitter on capable compilers (true aligned SIMD
  against the 64-byte-aligned :class:`~repro.machine.memory.Memory`
  buffers), silently falling back to the scalar-lane emitter
  elsewhere.
* **Scalar backends** (:class:`ScalarBackend`) execute the original
  :class:`~repro.ir.expr.Loop` as the paper's byte-for-byte reference
  — ``bytes`` is the per-iteration interpreter
  (:func:`repro.machine.scalar.run_scalar`), ``numpy`` the whole-array
  engine (:mod:`repro.machine.npscalar`) that evaluates each
  statement's expression tree over shifted element windows.

In both registries ``"auto"`` resolves to ``numpy`` when available and
falls back to ``bytes`` otherwise, so the package keeps working with no
hard dependency beyond the standard library; the NumPy engines come
from the ``repro[fast]`` extra.

Every engine must produce identical final memory images **and**
identical :class:`~repro.machine.counters.OpCounters` to its ``bytes``
oracle — the cost model counts operations of the *program*, not of the
engine executing it (see ``DESIGN.md`` §5).
``tests/test_differential.py`` enforces this equivalence property over
random synthesized loops on both backend axes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.errors import MachineError
from repro.ir.expr import Loop
from repro.machine.arrays import ArraySpace
from repro.machine.interp import VectorRunResult, run_vector
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings, ScalarRunResult, run_scalar
from repro.machine.trace import Trace
from repro.vir.program import VProgram

#: Names accepted wherever a backend is selected (CLI, verify, bench).
BACKEND_CHOICES = ("auto", "bytes", "numpy", "jit", "native")
#: Names accepted wherever a scalar-reference engine is selected.
SCALAR_BACKEND_CHOICES = ("auto", "bytes", "numpy")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute a vector program on a machine state."""

    name: str

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
    ) -> VectorRunResult:
        """Execute ``program`` on ``mem``; return dynamic operation counts."""
        ...  # pragma: no cover - protocol


class BytesBackend:
    """The byte-level reference interpreter, wrapped as a backend."""

    name = "bytes"

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
    ) -> VectorRunResult:
        return run_vector(program, space, mem, bindings, trace)


def numpy_available() -> bool:
    """True when the optional ``numpy`` dependency can be imported."""
    try:
        import numpy  # noqa: F401
    except Exception:  # pragma: no cover - import failure path
        return False
    return True


def default_backend_name() -> str:
    """The backend ``"auto"`` resolves to on this interpreter."""
    return "numpy" if numpy_available() else "bytes"


def get_backend(name: str = "auto") -> ExecutionBackend:
    """Resolve a backend name to an engine instance.

    ``"auto"`` prefers the NumPy backend and silently falls back to the
    byte interpreter when NumPy is unavailable; asking for ``"numpy"``
    explicitly raises instead, so a user who forced the fast path finds
    out it is missing.
    """
    if name == "auto":
        name = default_backend_name()
    if name == "bytes":
        return BytesBackend()
    if name == "numpy":
        if not numpy_available():
            raise MachineError(
                "the numpy execution backend needs numpy installed "
                "(pip install 'repro[fast]'); use backend='bytes' or 'auto'"
            )
        from repro.machine.npbackend import NumpyBackend

        return NumpyBackend()
    if name == "jit":
        if not numpy_available():
            raise MachineError(
                "the jit execution backend needs numpy installed "
                "(pip install 'repro[fast]'); use backend='bytes' or 'auto'"
            )
        from repro.machine.jit import JitBackend

        return JitBackend()
    if name == "native":
        if not numpy_available():
            raise MachineError(
                "the native execution backend needs numpy installed "
                "(pip install 'repro[fast]'); use backend='bytes' or 'auto'"
            )
        # No compiler requirement here: a missing toolchain is a
        # run-time degradation (native → jit with one warning), not a
        # configuration error — hosts without cc still accept the flag.
        from repro.machine.native import NativeBackend

        return NativeBackend()
    raise MachineError(
        f"unknown execution backend {name!r}; choose from {BACKEND_CHOICES}"
    )


# ---------------------------------------------------------------------------
# Backend degradation chain
# ---------------------------------------------------------------------------
#
# A sweep config must never die because one engine tier misbehaved:
# the bytes interpreters are the semantic oracles and are always able
# to produce the answer the faster tiers were asked for.  The resilient
# wrappers run the requested tier and, on *any* failure, restore the
# pre-attempt memory image and transparently re-execute on the next
# tier down, recording a structured degradation on the result
# (``fallback = {tier, phase, reason, failed}``).  The image comes from
# a caller-supplied ``baseline`` memory when there is one (the verify
# path's untouched input image), else from a snapshot taken before the
# first attempt.  Errors on the last tier propagate unchanged — there
# is nothing left to degrade to, and a genuine program error (bad
# shift amount, unbound register) raises the same exception from the
# oracle that the fast tier raised.
#
# Hot-swap interplay: in asynchronous compile mode (REPRO_NATIVE_ASYNC,
# repro.machine.compilequeue) the native tier never *fails* on a cold
# kernel — acquisition returns a jit-delegating kernel immediately and
# the compiled machine code is swapped in mid-sweep when the background
# queue delivers it.  That swap happens inside the native tier, below
# this chain: no degradation is recorded (the run never failed), and a
# background compile failure just leaves the kernel delegating to jit
# forever.  The chain still matters on the synchronous path (cc
# failures, compiler-less hosts, REPRO_FAULT=compile:raise) — and in
# async mode an injected compile fault fires inside the queue worker,
# so figures stay byte-identical while the degradation simply does not
# need recording.

#: Ordered fallback tiers per requested vector backend.
DEGRADATION_CHAIN: dict[str, tuple[str, ...]] = {
    "native": ("native", "jit", "numpy", "bytes"),
    "jit": ("jit", "numpy", "bytes"),
    "numpy": ("numpy", "bytes"),
    "bytes": ("bytes",),
}

#: Ordered fallback tiers per requested scalar-reference backend.
SCALAR_DEGRADATION_CHAIN: dict[str, tuple[str, ...]] = {
    "numpy": ("numpy", "bytes"),
    "bytes": ("bytes",),
}


def _failure_phase(exc: BaseException) -> str:
    """Which pipeline phase an engine failure belongs to."""
    phase = getattr(exc, "phase", None)
    if isinstance(phase, str):
        return phase
    if isinstance(exc, SyntaxError) or type(exc).__name__ == "CodegenError":
        return "compile"
    return "execute"


def _degradation(tier: str, first_exc: BaseException,
                 failed: list[str]) -> dict:
    return {
        "tier": tier,
        "phase": _failure_phase(first_exc),
        "reason": f"{type(first_exc).__name__}: {first_exc}",
        "failed": tuple(failed),
    }


class _ResilientChain:
    """Shared tier-walking logic for both backend axes."""

    def __init__(self, tiers: tuple[str, ...], resolve):
        self.tiers = tiers
        self._resolve = resolve  # tier name -> engine (may raise)
        # The head tier resolves eagerly so an explicitly requested
        # but unavailable engine still raises the friendly error.
        self._engines: dict[str, object] = {tiers[0]: resolve(tiers[0])}

    @property
    def primary(self):
        return self._engines[self.tiers[0]]

    def engine_for(self, tier: str):
        engine = self._engines.get(tier)
        if engine is None:
            engine = self._engines[tier] = self._resolve(tier)
        return engine

    def run_degrading(
        self, mem: Memory, attempt, baseline: Memory | None = None
    ) -> tuple[object, dict | None]:
        """Call ``attempt(engine)`` down the chain; restore ``mem``
        between tiers — from ``baseline`` (an image equal to ``mem``
        before the first attempt) when given, else from a snapshot.
        Returns ``(result, degradation-or-None)``."""
        first_exc: BaseException | None = None
        failed: list[str] = []
        snapshot = None
        if baseline is not None:
            snapshot = baseline.raw()
        elif len(self.tiers) > 1:
            snapshot = mem.snapshot()
        for pos, tier in enumerate(self.tiers):
            last = pos == len(self.tiers) - 1
            try:
                engine = self.engine_for(tier)
            except Exception as exc:
                # Tier unavailable on this interpreter (no numpy).
                if first_exc is None:
                    first_exc = exc
                failed.append(tier)
                if last:
                    raise
                continue
            try:
                result = attempt(engine)
            except Exception as exc:
                if last:
                    raise
                if first_exc is None:
                    first_exc = exc
                failed.append(tier)
                mem.raw()[:] = snapshot
                continue
            if failed:
                return result, _degradation(tier, first_exc, failed)
            return result, None
        raise MachineError("empty degradation chain")  # pragma: no cover


class ResilientBackend:
    """An :class:`ExecutionBackend` that degrades down a tier chain."""

    def __init__(self, name: str = "auto"):
        if name == "auto":
            name = default_backend_name()
        tiers = DEGRADATION_CHAIN.get(name)
        if tiers is None:
            raise MachineError(
                f"unknown execution backend {name!r}; "
                f"choose from {BACKEND_CHOICES}"
            )
        self._chain = _ResilientChain(tiers, get_backend)
        self.name = name

    def run(
        self,
        program: VProgram,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        trace: Trace | None = None,
        *,
        baseline: Memory | None = None,
    ) -> VectorRunResult:
        """Run on the first tier that succeeds; ``baseline`` is an
        image equal to ``mem`` before the run, restored from on
        degradation in place of a snapshot."""
        def attempt(engine):
            return engine.run(program, space, mem, bindings, trace)

        result, degradation = self._chain.run_degrading(mem, attempt,
                                                        baseline)
        if degradation is not None:
            result.fallback = degradation
        return result

    def run_batch(self, runs: list, *,
                  baselines: list[Memory] | None = None) -> list:
        """Batched execution with whole-batch degradation.

        The primary tier's native batch is tried first; any failure
        restores every run's memory and re-executes config by config
        through :meth:`run`, so one poisoned config degrades alone
        instead of sinking its signature class.  Leaving the batch
        path is never silent: every result of a class that ran
        config-by-config carries a structured ``batch_fallback``
        record — whether the primary tier has no batch execution at
        all (numpy/bytes heads) or its batched call failed — which
        the ``--profile`` resilience section aggregates.

        ``baselines``, one per run, are images equal to the runs'
        memories before the call; with them nothing is snapshotted and
        every restore copies from them.
        """
        primary = self._chain.primary
        tier = self._chain.tiers[0]
        batch = getattr(primary, "run_batch", None)
        batch_fallback: dict | None = None
        if batch is None:
            batch_fallback = {"tier": tier, "phase": "batch",
                              "reason": "tier has no batch execution"}
        elif len(self._chain.tiers) == 1:
            return batch(runs)
        else:
            snapshots = ([mem.snapshot() for _, _, mem, _ in runs]
                         if baselines is None
                         else [base.raw() for base in baselines])
            try:
                return batch(runs)
            except Exception as exc:
                for (_, _, mem, _), snap in zip(runs, snapshots):
                    mem.raw()[:] = snap
                batch_fallback = {
                    "tier": tier, "phase": "batch",
                    "reason": f"{type(exc).__name__}: {exc}",
                }
        results = [
            self.run(program, space, mem, bindings,
                     baseline=None if baselines is None else baselines[i])
            for i, (program, space, mem, bindings) in enumerate(runs)
        ]
        for result in results:
            result.batch_fallback = batch_fallback
        return results


class ResilientScalarBackend:
    """A :class:`ScalarBackend` that degrades ``numpy`` to ``bytes``."""

    def __init__(self, name: str = "auto"):
        if name == "auto":
            name = default_backend_name()
        tiers = SCALAR_DEGRADATION_CHAIN.get(name)
        if tiers is None:
            raise MachineError(
                f"unknown scalar backend {name!r}; "
                f"choose from {SCALAR_BACKEND_CHOICES}"
            )
        self._chain = _ResilientChain(tiers, get_scalar_backend)
        self.name = name

    def run(
        self,
        loop: Loop,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
        *,
        baseline: Memory | None = None,
    ) -> ScalarRunResult:
        """Run on the first tier that succeeds (``baseline`` as in
        :meth:`ResilientBackend.run`)."""
        def attempt(engine):
            return engine.run(loop, space, mem, bindings)

        result, degradation = self._chain.run_degrading(mem, attempt,
                                                        baseline)
        if degradation is not None:
            result.fallback = degradation
        return result


def get_resilient_backend(name: str = "auto") -> ExecutionBackend:
    """A vector engine that survives tier failures by degrading.

    Requesting an explicitly unavailable head tier (``numpy``/``jit``
    without NumPy installed) still raises the friendly install hint —
    degradation covers *run-time* tier failures, not misconfiguration
    the user asked for by name.
    """
    return ResilientBackend(name)


def get_resilient_scalar_backend(name: str = "auto") -> ScalarBackend:
    """A scalar-reference engine that degrades ``numpy`` to ``bytes``."""
    return ResilientScalarBackend(name)


def run_vector_batch(engine: ExecutionBackend, runs: list, *,
                     baselines: list[Memory] | None = None) -> list:
    """Run ``(program, space, mem, bindings)`` tuples as one batch.

    Engines with a native ``run_batch`` (the jit engine executes whole
    signature classes in one config-batched kernel call) get the entire
    list; every other engine degrades to per-run :meth:`run` calls with
    identical semantics, so callers can batch against any backend and
    the differential tests can compare batch results across the whole
    registry.  Results come back in input order.  ``baselines`` reach
    a :class:`ResilientBackend` as its restore images (see
    :meth:`ResilientBackend.run_batch`); other engines do not degrade
    and ignore them.
    """
    if isinstance(engine, ResilientBackend):
        return engine.run_batch(runs, baselines=baselines)
    native = getattr(engine, "run_batch", None)
    if native is not None:
        return native(runs)
    return [engine.run(program, space, mem, bindings)
            for program, space, mem, bindings in runs]


def jit_compile_stats() -> dict:
    """A snapshot of the compiled engines' compile/cache counters.

    Import-free on purpose: when a compiled tier's module was never
    loaded there is nothing to report and the (possibly numpy-less)
    interpreter must not be forced to import it.  The jit engine's
    counters appear under their own names; the native engine's are
    folded in under a ``native_`` prefix (``native_cc_s``,
    ``native_memory_hits``, the emitter-mode/probe counters
    ``native_mode_simd``, ``native_simd_probes``, …) so one snapshot
    covers both tiers.
    """
    import sys

    module = sys.modules.get("repro.machine.jit")
    stats = dict(module.STATS) if module is not None else {}
    native = sys.modules.get("repro.machine.native")
    if native is not None:
        for stat, value in native.STATS.items():
            stats[f"native_{stat}"] = value
    return stats


# ---------------------------------------------------------------------------
# Scalar-reference engines
# ---------------------------------------------------------------------------

@runtime_checkable
class ScalarBackend(Protocol):
    """Anything that can execute the original scalar loop on a memory."""

    name: str

    def run(
        self,
        loop: Loop,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
    ) -> ScalarRunResult:
        """Execute ``loop`` on ``mem``; return reference operation counts."""
        ...  # pragma: no cover - protocol


class BytesScalarBackend:
    """The per-iteration scalar reference, wrapped as a backend."""

    name = "bytes"

    def run(
        self,
        loop: Loop,
        space: ArraySpace,
        mem: Memory,
        bindings: RunBindings | None = None,
    ) -> ScalarRunResult:
        return run_scalar(loop, space, mem, bindings)


def get_scalar_backend(name: str = "auto") -> ScalarBackend:
    """Resolve a scalar-reference engine name to an engine instance.

    Mirrors :func:`get_backend`: ``"auto"`` prefers the whole-array
    NumPy engine and silently falls back to the per-iteration
    interpreter when NumPy is unavailable; asking for ``"numpy"``
    explicitly raises instead.
    """
    if name == "auto":
        name = default_backend_name()
    if name == "bytes":
        return BytesScalarBackend()
    if name == "numpy":
        if not numpy_available():
            raise MachineError(
                "the numpy scalar backend needs numpy installed "
                "(pip install 'repro[fast]'); use scalar_backend='bytes' "
                "or 'auto'"
            )
        from repro.machine.npscalar import NumpyScalarBackend

        return NumpyScalarBackend()
    raise MachineError(
        f"unknown scalar backend {name!r}; choose from {SCALAR_BACKEND_CHOICES}"
    )
