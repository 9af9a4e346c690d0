"""Equivalence verification: simdized execution vs scalar reference.

This is the reproduction of the paper's coverage methodology
(Section 5.4): "The generated binaries were simulated on a
cycle-accurate simulator, and the results were verified."  We run the
scalar loop and the vector program on two identical memories and
require the *entire* memory images to match byte-for-byte — which
checks both that every stream byte got its correct value and that
nothing outside the streams (guard zones included) was clobbered.

At long trips those images are megabytes, so building, comparing and
restoring them is kept to about one pass over the bytes each: the fill
draws its random stream vectorized (:func:`fill_random`), the compare
runs in place on the two live images, and a degrading engine restores
from the untouched input image instead of a snapshot it took first.
"""

from __future__ import annotations

from dataclasses import dataclass
import random

from repro.errors import VerificationError
from repro.ir.expr import Loop
from repro.machine.arrays import ArraySpace
from repro.machine.backend import (
    ExecutionBackend,
    ResilientBackend,
    ResilientScalarBackend,
    ScalarBackend,
    get_resilient_backend,
    get_resilient_scalar_backend,
    jit_compile_stats,
    run_vector_batch,
)
from repro.machine.counters import OpCounters
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings
from repro.profiling import PhaseProfile, timed
from repro.vir.program import VProgram


@dataclass
class EquivalenceReport:
    """Counts from a verified pair of executions."""

    scalar_ops: OpCounters
    vector_ops: OpCounters
    trip: int
    data_count: int
    used_fallback: bool
    #: Structured backend degradation, or None when the requested tier
    #: ran clean: ``{"tier": ran, "phase": failing phase, "reason":
    #: first error, "failed": tiers that failed}``.
    fallback: dict | None = None
    #: Same, for the scalar-reference axis (``numpy`` -> ``bytes``).
    scalar_fallback: dict | None = None
    #: Batch-level degradation: set when this config belonged to a
    #: batched class whose primary tier lacked (or failed) batch
    #: execution and ran config-by-config instead:
    #: ``{"tier": primary, "phase": "batch", "reason": why}``.
    batch_fallback: dict | None = None

    @property
    def scalar_total(self) -> int:
        return self.scalar_ops.total

    @property
    def vector_total(self) -> int:
        return self.vector_ops.total

    @property
    def speedup(self) -> float:
        """Dynamic-instruction-count speedup (the paper's Table 1/2 metric)."""
        return self.scalar_total / self.vector_total

    @property
    def vector_opd(self) -> float:
        """Operations per datum of the simdized code (Figure 11/12 metric)."""
        return self.vector_total / self.data_count

    @property
    def scalar_opd(self) -> float:
        return self.scalar_total / self.data_count


def make_space(
    loop: Loop,
    V: int,
    rng: random.Random | None = None,
    runtime_residues: dict[str, int] | None = None,
) -> ArraySpace:
    """Place the loop's arrays; random residues for runtime-aligned ones."""
    rng = rng or random.Random(0)
    space = ArraySpace(V)
    residues = dict(runtime_residues or {})
    for decl in loop.arrays():
        if decl.runtime_aligned and decl.name not in residues:
            residues[decl.name] = rng.randrange(0, V, decl.dtype.size)
    space.place_all(loop.arrays(), residues)
    return space


#: Array bytes per fill from which :func:`fill_random` draws through
#: NumPy.  Moving ``rng``'s state into and out of NumPy costs a fixed
#: ~0.25 ms, about what ``randbytes`` spends on 50-100 KiB, so smaller
#: fills (every default-trip figure, serve requests) stay on
#: ``randbytes`` and never import ``numpy.random``.
FAST_FILL_FLOOR = 256 * 1024

#: Outcome of the once-per-process check that NumPy's MT19937 stream
#: reproduces ``randbytes`` (None until the first large fill asks).
_numpy_stream_ok: bool | None = None


def fill_random(space: ArraySpace, mem: Memory, rng: random.Random) -> None:
    """Give every array random in-range element values.

    Element values are uniform over the dtype's full range, so the fill
    is one bulk byte draw per array: every byte pattern *is* an
    in-range two's-complement value.  Deterministic for a given ``rng``
    state (but a different stream than the historical per-element
    ``randint`` loop, so seeds pin different — equally random — data).

    Each array gets exactly the bytes ``rng.randbytes(arr.size_bytes)``
    would give, in placement order, and ``rng`` is left in the state
    those calls would leave it in.  From :data:`FAST_FILL_FLOOR` array
    bytes on, with NumPy importable, the same Mersenne Twister stream
    is drawn vectorized instead: ``rng``'s state is loaded into a
    ``numpy.random.MT19937``, 32-bit words are drawn straight into the
    memory image, and the advanced state is set back into ``rng``.
    That equivalence rests on a NumPy implementation detail, so the
    first large fill of a process checks it on a small draw against
    ``randbytes``; on any mismatch every fill stays on ``randbytes``.
    No generator outlives a call, so fills on several threads share
    nothing mutable.
    """
    arrays = space.arrays()
    if (sum(arr.size_bytes for arr in arrays) >= FAST_FILL_FLOOR
            and type(rng) is random.Random
            and _fill_vectorized(arrays, mem, rng)):
        return
    for arr in arrays:
        mem.write(arr.base, rng.randbytes(arr.size_bytes))


def _fill_vectorized(arrays: list, mem: Memory, rng: random.Random) -> bool:
    """:func:`fill_random` through NumPy; False (nothing drawn) when
    NumPy is missing or fails the stream check."""
    try:
        import numpy as np
    except ImportError:
        return False
    if not _numpy_stream_matches():
        return False
    for arr in arrays:
        mem._check(arr.base, arr.size_bytes)
    image = np.frombuffer(mem.raw(), dtype=np.uint8)
    _draw_stream(rng, [image[arr.base:arr.base + arr.size_bytes]
                       for arr in arrays])
    return True


def _draw_stream(rng: random.Random, targets: list) -> None:
    """Fill each ``uint8`` array in ``targets``, in order, with the
    bytes ``rng.randbytes(len(target))`` would give, and advance
    ``rng`` exactly as those calls would.

    ``randbytes(n)`` is ``getrandbits(8 * n)`` in little-endian order:
    ``n // 4`` whole 32-bit outputs, then for a partial last word the
    top ``8 * (n % 4)`` bits of one more output.
    """
    import numpy as np

    version, internal, gauss_next = rng.getstate()
    bitgen = np.random.MT19937()
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                  "pos": internal[-1]},
    }
    generator = np.random.Generator(bitgen)
    for target in targets:
        whole, rem = divmod(len(target), 4)
        words = _draw_words(generator, whole + (rem > 0))
        target[:4 * whole] = (words[:whole].astype("<u4", copy=False)
                              .view(np.uint8))
        if rem:
            tail = int(words[whole]) >> (32 - 8 * rem)
            target[4 * whole:] = list(tail.to_bytes(rem, "little"))
    state = bitgen.state["state"]
    rng.setstate((version,
                  tuple(state["key"].tolist()) + (int(state["pos"]),),
                  gauss_next))


def _draw_words(generator, count: int):
    """``count`` raw 32-bit outputs of ``generator``'s MT19937.

    A full-range ``uint32`` draw is the bit generator's own output
    word, unmasked and unrejected.
    """
    import numpy as np

    return generator.integers(0, 1 << 32, size=count, dtype=np.uint32)


def _numpy_stream_matches() -> bool:
    """True when NumPy's MT19937 draw reproduces ``randbytes``
    (checked once per process, see :func:`fill_random`)."""
    global _numpy_stream_ok
    if _numpy_stream_ok is None:
        _numpy_stream_ok = _check_numpy_stream()
    return _numpy_stream_ok


def _check_numpy_stream() -> bool:
    import numpy as np

    # Start near the end of a 624-word block so the probe crosses a
    # twist, and end on a partial word.
    probe = random.Random(0x5EED)
    probe.getrandbits(32 * 620)
    expect = random.Random()
    expect.setstate(probe.getstate())
    want = expect.randbytes(4099)
    got = np.zeros(len(want), dtype=np.uint8)
    try:
        _draw_stream(probe, [got])
    except Exception:  # noqa: BLE001 - any failure means "not the same stream"
        return False
    return got.tobytes() == want and probe.getstate() == expect.getstate()


def verify_equivalence(
    program: VProgram,
    space: ArraySpace,
    mem: Memory,
    bindings: RunBindings | None = None,
    backend: str | ExecutionBackend = "auto",
    scalar_backend: str | ScalarBackend = "auto",
    profile: PhaseProfile | None = None,
) -> EquivalenceReport:
    """Run both executions on clones of ``mem``; raise on any mismatch.

    ``backend`` selects the vector execution engine and
    ``scalar_backend`` the scalar-reference engine (names accepted by
    :func:`repro.machine.backend.get_backend` /
    :func:`~repro.machine.backend.get_scalar_backend`, or engine
    instances).  Counters and memory are backend-invariant on both
    axes, so the report is the same whichever engines ran — only the
    wall-clock differs.  With a ``profile``, the executions are timed
    into the ``execute`` phase — minus any jit kernel-compilation time,
    which is re-attributed to ``compile`` along with the kernel cache
    hit/miss counters — and the byte comparison into ``verify``.

    ``mem`` itself is never written: both executions run on clones, so
    it stays the pristine input image.  Resilient engines get it as
    their ``baseline`` and, if a tier fails, restore the clone from it
    instead of snapshotting every image before every run.  The two
    final images are compared in place (see :func:`_images_equal`).
    """
    bindings = bindings or RunBindings()
    loop = program.source
    engine = (
        get_resilient_backend(backend) if isinstance(backend, str) else backend
    )
    scalar_engine = (
        get_resilient_scalar_backend(scalar_backend)
        if isinstance(scalar_backend, str)
        else scalar_backend
    )

    scalar_mem = mem.clone()
    vector_mem = mem.clone()
    before = jit_compile_stats() if profile is not None else {}
    with timed(profile, "execute"):
        scalar_result = scalar_engine.run(loop, space, scalar_mem, bindings,
                                          **_baseline(scalar_engine, mem))
        vector_result = engine.run(program, space, vector_mem, bindings,
                                   **_baseline(engine, mem))
    if profile is not None:
        _attribute_jit_compile(profile, before, jit_compile_stats())
        _count_degradations(profile, vector_result, scalar_result)

    with timed(profile, "verify"):
        matched = _images_equal(scalar_mem, vector_mem)
    if not matched:
        detail = _first_mismatch(scalar_mem, vector_mem, space)
        raise VerificationError(
            f"simdized execution diverges from scalar reference for loop "
            f"{loop.name!r}: {detail}"
        )
    return EquivalenceReport(
        scalar_ops=scalar_result.counters,
        vector_ops=vector_result.counters,
        trip=scalar_result.trip,
        data_count=scalar_result.data_count,
        used_fallback=vector_result.used_fallback,
        fallback=vector_result.fallback,
        scalar_fallback=scalar_result.fallback,
    )


def verify_equivalence_batch(
    items: list,
    backend: str | ExecutionBackend = "auto",
    scalar_backend: str | ScalarBackend = "auto",
    profile: PhaseProfile | None = None,
) -> list[EquivalenceReport]:
    """Batched :func:`verify_equivalence` over one signature class.

    ``items`` holds ``(program, space, mem, bindings)`` per config;
    all programs must share one structural signature so the vector
    side can execute as a single config-batched kernel call
    (:func:`repro.machine.backend.run_vector_batch`).  The scalar
    reference still runs per config — it is the per-config oracle the
    batch is checked against — and each config's memory images are
    compared independently, so a single diverging config raises with
    the same diagnostics :func:`verify_equivalence` gives it.  Reports
    come back in input order, field-identical to per-config calls.
    As there, the input memories stay untouched and are the restore
    source of a degrading engine.
    """
    engine = (
        get_resilient_backend(backend) if isinstance(backend, str) else backend
    )
    scalar_engine = (
        get_resilient_scalar_backend(scalar_backend)
        if isinstance(scalar_backend, str)
        else scalar_backend
    )
    scalar_mems = [mem.clone() for _, _, mem, _ in items]
    vector_mems = [mem.clone() for _, _, mem, _ in items]
    before = jit_compile_stats() if profile is not None else {}
    with timed(profile, "execute"):
        scalar_results = [
            scalar_engine.run(program.source, space, smem,
                              bindings or RunBindings(),
                              **_baseline(scalar_engine, mem))
            for (program, space, mem, bindings), smem
            in zip(items, scalar_mems)
        ]
        vector_results = run_vector_batch(engine, [
            (program, space, vmem, bindings or RunBindings())
            for (program, space, _, bindings), vmem
            in zip(items, vector_mems)
        ], baselines=[mem for _, _, mem, _ in items])
    if profile is not None:
        _attribute_jit_compile(profile, before, jit_compile_stats())
        for scalar_result, vector_result in zip(scalar_results,
                                                vector_results):
            _count_degradations(profile, vector_result, scalar_result)

    reports = []
    for (program, space, _, _), smem, vmem, scalar_result, vector_result \
            in zip(items, scalar_mems, vector_mems,
                   scalar_results, vector_results):
        with timed(profile, "verify"):
            matched = _images_equal(smem, vmem)
        if not matched:
            detail = _first_mismatch(smem, vmem, space)
            raise VerificationError(
                f"simdized execution diverges from scalar reference for "
                f"loop {program.source.name!r}: {detail}"
            )
        reports.append(EquivalenceReport(
            scalar_ops=scalar_result.counters,
            vector_ops=vector_result.counters,
            trip=scalar_result.trip,
            data_count=scalar_result.data_count,
            used_fallback=vector_result.used_fallback,
            fallback=vector_result.fallback,
            scalar_fallback=scalar_result.fallback,
            batch_fallback=getattr(vector_result, "batch_fallback", None),
        ))
    return reports


def _baseline(engine, mem: Memory) -> dict:
    """``run`` keywords handing a resilient engine its restore image."""
    if isinstance(engine, (ResilientBackend, ResilientScalarBackend)):
        return {"baseline": mem}
    return {}


def _images_equal(a: Memory, b: Memory) -> bool:
    """Byte-compare two live memory images in place (no snapshots)."""
    return a.size == b.size and _first_difference(a.raw(), b.raw()) is None


def _count_degradations(
    profile: PhaseProfile, vector_result, scalar_result
) -> None:
    """Fold backend-degradation records into the profile counters."""
    if vector_result.fallback is not None:
        profile.count("degraded")
        profile.count(f"degraded_to_{vector_result.fallback['tier']}")
    batch_fb = getattr(vector_result, "batch_fallback", None)
    if batch_fb is not None:
        profile.count("batch_degraded")
        profile.count(f"batch_degraded_from_{batch_fb['tier']}")
    if scalar_result.fallback is not None:
        profile.count("scalar_degraded")


def _attribute_jit_compile(
    profile: PhaseProfile, before: dict, after: dict
) -> None:
    """Move jit kernel-compile time out of ``execute`` into ``compile``.

    The jit engine compiles lazily inside ``run()``, so without this
    the first execution of each program would charge codegen to the
    execute phase and hide the compile-once win the profile exists to
    show.  Also folds the engine's kernel-cache counters (process-wide
    deltas) into the profile's counter namespace.

    The stat dict is treated as open-ended: any ``*_s`` key is a
    lazily-incurred wall-clock phase to re-attribute out of
    ``execute`` (``_PHASE_FOR`` maps it to its reporting phase), and
    any other key is a counter delta.  Counters already namespaced
    (``native_*``) pass through unchanged so ``hit_rate()`` pairs line
    up; bare jit counters gain the historical ``kernel_`` prefix.  New
    engine tiers thus flow through without this function growing a
    fixed phase list.
    """
    if not after:
        return
    for stat in after:
        if stat.endswith("_s"):
            phase = _PHASE_FOR.get(stat)
            if phase is None:
                continue
            dt = after.get(stat, 0.0) - before.get(stat, 0.0)
            if dt > 0:
                profile.add(phase, dt)
                profile.add("execute", -dt)
        else:
            delta = after.get(stat, 0) - before.get(stat, 0)
            if not delta:
                continue
            name = stat if stat.startswith("native_") else f"kernel_{stat}"
            profile.count(name, delta)


#: Lazily-timed engine stats (``*_s`` keys from ``jit_compile_stats``)
#: and the profile phase each one reports under.
_PHASE_FOR = {
    "compile_s": "compile",
    "native_cc_s": "cc",
    "native_load_s": "native_load",
}


def _first_mismatch(a: Memory, b: Memory, space: ArraySpace) -> str:
    sa, sb = a.raw(), b.raw()
    addr = _first_difference(sa, sb)
    if addr is None:
        return "memories equal?"  # pragma: no cover - only called on mismatch
    where = "outside any array"
    for arr in space.arrays():
        if arr.base <= addr < arr.base + arr.size_bytes:
            idx = (addr - arr.base) // arr.decl.dtype.size
            where = f"array {arr.name!r} element {idx}"
            break
    return (
        f"first differing byte at address {addr} ({where}): "
        f"scalar={sa[addr]:#x} simdized={sb[addr]:#x}"
    )


#: Bytes per slice of an image compare: big enough to amortize the
#: per-slice calls, small enough that the temporaries stay in cache
#: instead of growing with the image.
_COMPARE_CHUNK = 1 << 20


def _first_difference(sa: memoryview, sb: memoryview) -> int | None:
    """The lowest address at which two equal-length images differ.

    Compares a slice at a time: with NumPy over in-place views, without
    it as ``bytes`` (a ``memcmp``), then walks only the differing slice.
    """
    try:
        import numpy as np
    except ImportError:
        np = None
    for start in range(0, len(sa), _COMPARE_CHUNK):
        ca = sa[start:start + _COMPARE_CHUNK]
        cb = sb[start:start + _COMPARE_CHUNK]
        if np is None:
            if bytes(ca) != bytes(cb):
                return start + next(i for i in range(len(ca))
                                    if ca[i] != cb[i])
            continue
        va = np.frombuffer(ca, dtype=np.uint8)
        vb = np.frombuffer(cb, dtype=np.uint8)
        if not np.array_equal(va, vb):
            return start + int((va != vb).argmax())
    return None
