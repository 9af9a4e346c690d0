"""Memory images on the verify path: fill, clone, compare, restore.

The verify path builds one random memory image per config, clones it
for the scalar and the vector run, compares the two results and, when
an engine tier fails, restores the image before the next tier runs.
These tests pin that each step keeps today's bytes while doing about
one pass over them:

* ``fill_random`` gives exactly the bytes ``randbytes`` gives (and
  leaves ``rng`` in the same state) on both sides of the NumPy floor,
  with or without NumPy, and when NumPy's stream fails the self-check;
* a clean verify takes no ``Memory.snapshot``, and a degrading run
  restores from the untouched input image, per config and per batch;
* memories, clones and unpickled memories stay 64-byte aligned and
  writable with and without NumPy;
* ``_first_mismatch`` reports today's message, also on a long image.
"""

import hashlib
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.synth import SynthParams, synthesize
from repro.errors import MachineError
from repro.ir.types import INT8, INT16, INT32, UINT8, UINT16
from repro.machine.alignedbuf import ALIGNMENT, as_ctypes_u8, is_aligned
from repro.machine.backend import (
    get_backend,
    get_resilient_backend,
    numpy_available,
    run_vector_batch,
)
from repro.machine.memory import Memory
from repro.machine.scalar import RunBindings
from repro.simdize import SimdOptions, simdize, verify
from repro.simdize.verify import (
    fill_random,
    make_space,
    verify_equivalence,
    verify_equivalence_batch,
)

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")

DTYPES = (INT8, INT16, INT32, UINT8, UINT16)


def _space(trip, dtype=INT32, loads=2, runtime=False, seed=0, skip=0):
    """A synthesized loop's placed arrays, an unfilled memory, and the
    data rng positioned ``skip`` 32-bit words past where make_space
    left it."""
    syn = synthesize(SynthParams(loads=loads, trip=trip, dtype=dtype,
                                 runtime_alignment=runtime), seed, 16)
    rng = random.Random(seed ^ 0x5EED)
    space = make_space(syn.loop, 16, rng, syn.base_residues)
    if skip:
        rng.getrandbits(32 * skip)
    return syn, space, space.make_memory(), rng


def _reference_fill(space, mem, rng):
    """The historical fill: one ``randbytes`` draw per array."""
    for arr in space.arrays():
        mem.write(arr.base, rng.randbytes(arr.size_bytes))


def _fill_both(space, mem, rng):
    """(fill_random's image and rng state, the reference's)."""
    ref_mem, ref_rng = mem.clone(), random.Random()
    ref_rng.setstate(rng.getstate())
    fill_random(space, mem, rng)
    _reference_fill(space, ref_mem, ref_rng)
    return ((mem.snapshot(), rng.getstate()),
            (ref_mem.snapshot(), ref_rng.getstate()))


def _array_bytes(space) -> int:
    return sum(arr.size_bytes for arr in space.arrays())


class TestFillRandomStream:
    @settings(deadline=None, max_examples=60)
    @given(dtype=st.sampled_from(DTYPES),
           loads=st.integers(1, 3),
           trip=st.integers(1, 3000),
           runtime=st.booleans(),
           seed=st.integers(0, 2**16),
           skip=st.integers(0, 700),
           force_fast=st.booleans())
    def test_same_bytes_and_state_as_randbytes(self, dtype, loads, trip,
                                               runtime, seed, skip,
                                               force_fast):
        _, space, mem, rng = _space(trip, dtype, loads, runtime, seed, skip)
        with pytest.MonkeyPatch.context() as mp:
            if force_fast:
                mp.setattr(verify, "FAST_FILL_FLOOR", 0)
            got, want = _fill_both(space, mem, rng)
        assert got == want

    @pytest.mark.parametrize("trip, fast", [(21000, False), (23000, True)])
    def test_both_sides_of_the_floor(self, monkeypatch, trip, fast):
        _, space, mem, rng = _space(trip, INT32, loads=2, seed=5)
        assert (_array_bytes(space) >= verify.FAST_FILL_FLOOR) == fast
        draws = []
        real = verify._draw_stream
        monkeypatch.setattr(verify, "_draw_stream",
                            lambda rng, targets: (draws.append(len(targets)),
                                                  real(rng, targets)))
        got, want = _fill_both(space, mem, rng)
        assert got == want
        # The check's own probe draw is one target; the fill is one
        # target per array.
        fills = [n for n in draws if n == len(space.arrays())]
        assert bool(fills) == (fast and numpy_available())

    def test_pinned_image_digest(self):
        """One above-floor image, digest computed by the randbytes fill.

        Runs on both CI legs, so the NumPy path and the stdlib fallback
        are held to the same bytes."""
        syn = synthesize(SynthParams(loads=3, trip=100003, dtype=INT16,
                                     runtime_alignment=True), 2004, 16)
        rng = random.Random(2004 ^ 0x5EED)
        space = make_space(syn.loop, 16, rng, syn.base_residues)
        mem = space.make_memory()
        assert _array_bytes(space) >= verify.FAST_FILL_FLOOR
        fill_random(space, mem, rng)
        assert hashlib.sha256(mem.snapshot()).hexdigest() == (
            "67f0ada6158d132dd83b5962bbba2f0d"
            "7c5779655e97ceb059b4285731e9ca7e")
        assert rng.getrandbits(64) == 14920154488877259491

    @needs_numpy
    @pytest.mark.parametrize("fault", ["flipped bit", "api change"])
    def test_corrupted_numpy_stream_trips_self_check(self, monkeypatch,
                                                     fault):
        real = verify._draw_words

        def corrupted(generator, count):
            if fault == "api change":
                raise TypeError("integers() got an unexpected keyword")
            return real(generator, count) ^ 1

        monkeypatch.setattr(verify, "_draw_words", corrupted)
        monkeypatch.setattr(verify, "_numpy_stream_ok", None)
        monkeypatch.setattr(verify, "FAST_FILL_FLOOR", 0)
        _, space, mem, rng = _space(301, INT16, seed=3)
        got, want = _fill_both(space, mem, rng)
        assert got == want
        assert verify._numpy_stream_ok is False

    @needs_numpy
    def test_self_check_passes_on_this_numpy(self, monkeypatch):
        monkeypatch.setattr(verify, "_numpy_stream_ok", None)
        assert verify._numpy_stream_matches() is True

    def test_subclassed_rng_stays_on_randbytes(self, monkeypatch):
        class Counting(random.Random):
            calls = 0

            def randbytes(self, n):
                Counting.calls += 1
                return super().randbytes(n)

        monkeypatch.setattr(verify, "FAST_FILL_FLOOR", 0)
        _, space, mem, _ = _space(99, seed=4)
        fill_random(space, mem, Counting(7))
        assert Counting.calls == len(space.arrays())

    def test_array_outside_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(verify, "FAST_FILL_FLOOR", 0)
        _, space, _, rng = _space(99, seed=4)
        with pytest.raises(MachineError):
            fill_random(space, Memory(64), rng)

    @needs_numpy
    def test_threads_fill_identically(self, monkeypatch):
        monkeypatch.setattr(verify, "FAST_FILL_FLOOR", 0)
        threads = 6
        results: list = [None] * threads
        barrier = threading.Barrier(threads)

        def worker(idx: int) -> None:
            _, space, mem, rng = _space(517, INT8, seed=idx)
            barrier.wait(timeout=30.0)
            results[idx] = _fill_both(space, mem, rng)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(i,))
                    for i in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        for got, want in results:
            assert got == want


def _verify_items(trips=(45, 61), seed=11):
    """(program, space, mem, bindings) per config of one class."""
    items = []
    for offset, trip in enumerate(trips):
        syn, space, mem, rng = _space(trip, INT16, seed=seed + offset)
        fill_random(space, mem, rng)
        program = simdize(syn.loop, 16, SimdOptions()).program
        items.append((program, space, mem, RunBindings()))
    return items


@pytest.fixture
def snapshot_calls(monkeypatch):
    calls = []
    real = Memory.snapshot
    monkeypatch.setattr(Memory, "snapshot",
                        lambda self: (calls.append(1), real(self))[1])
    return calls


class _Boom:
    """A tier that scribbles on every memory it gets, then fails."""

    def run(self, program, space, mem, bindings=None, trace=None):
        mem.raw()[:] = b"\xAA" * len(mem.raw())
        raise MachineError("injected tier failure")


class _BatchBoom:
    """A tier whose batch call scribbles and fails; per config it runs
    the numpy engine, so only the batch-level restore can undo the
    scribble."""

    def run(self, program, space, mem, bindings=None, trace=None):
        return get_backend("numpy").run(program, space, mem, bindings)

    def run_batch(self, runs):
        for _, _, mem, _ in runs:
            mem.raw()[:] = b"\xAA" * len(mem.raw())
        raise MachineError("injected batch failure")


def _oracle(items):
    images = []
    for program, space, mem, bindings in items:
        ref = mem.clone()
        get_backend("bytes").run(program, space, ref, bindings)
        images.append(ref.snapshot())
    return images


class TestNoSnapshotsOnTheVerifyPath:
    def test_clean_verify_takes_no_snapshot(self, snapshot_calls):
        program, space, mem, bindings = _verify_items()[0]
        verify_equivalence(program, space, mem, bindings)
        assert snapshot_calls == []

    def test_clean_batch_verify_takes_no_snapshot(self, snapshot_calls):
        verify_equivalence_batch(_verify_items())
        assert snapshot_calls == []

    @needs_numpy
    @pytest.mark.parametrize("backend", ["jit", "native"])
    def test_clean_compiled_tiers_take_no_snapshot(self, snapshot_calls,
                                                   backend):
        items = _verify_items()
        verify_equivalence(*items[0], backend=backend)
        verify_equivalence_batch(items, backend=backend)
        assert snapshot_calls == []

    @needs_numpy
    def test_degrading_run_restores_from_baseline(self, snapshot_calls):
        items = _verify_items()
        (program, space, mem, bindings), want = items[0], _oracle(items)[0]
        engine = get_resilient_backend("numpy")
        engine._chain._engines["numpy"] = _Boom()
        work = mem.clone()
        snapshot_calls.clear()
        result = engine.run(program, space, work, bindings, baseline=mem)
        report = verify_equivalence(program, space, mem, bindings,
                                    backend=engine)
        assert snapshot_calls == []
        assert result.fallback["tier"] == report.fallback["tier"] == "bytes"
        assert work.snapshot() == want

    @needs_numpy
    def test_degrading_batch_restores_from_baselines(self, snapshot_calls):
        items = _verify_items()
        want = _oracle(items)
        engine = get_resilient_backend("jit")
        engine._chain._engines["jit"] = _BatchBoom()
        work = [mem.clone() for _, _, mem, _ in items]
        snapshot_calls.clear()
        results = run_vector_batch(
            engine,
            [(p, s, w, b) for (p, s, _, b), w in zip(items, work)],
            baselines=[mem for _, _, mem, _ in items])
        reports = verify_equivalence_batch(items, backend=engine)
        assert snapshot_calls == []
        for result in results:
            assert "injected batch failure" in result.batch_fallback["reason"]
            assert result.fallback is None
        assert all(r.batch_fallback is not None for r in reports)
        assert [w.snapshot() for w in work] == want

    @needs_numpy
    def test_without_baseline_the_chain_still_snapshots(self,
                                                        snapshot_calls):
        items = _verify_items()
        (program, space, mem, bindings), want = items[0], _oracle(items)[0]
        engine = get_resilient_backend("numpy")
        engine._chain._engines["numpy"] = _Boom()
        snapshot_calls.clear()
        result = engine.run(program, space, mem, bindings)
        assert result.fallback["tier"] == "bytes"
        assert len(snapshot_calls) == 1
        assert mem.snapshot() == want


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_mode(request, monkeypatch):
    if request.param == "numpy" and not numpy_available():
        pytest.skip("numpy not installed")
    if request.param == "no-numpy":
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


class TestAlignedImages:
    @staticmethod
    def _check(mem, size):
        raw = mem.raw()
        assert len(raw) == size and raw.format == "B" and not raw.readonly
        assert is_aligned(raw, ALIGNMENT)
        arr = as_ctypes_u8(raw)
        arr[size - 1] = 0x5A
        assert raw[size - 1] == 0x5A

    @pytest.mark.parametrize("size", [1, 63, 4097, 300_001])
    def test_memory_clone_and_pickle(self, numpy_mode, size):
        mem = Memory(size, fill=0x3C)
        assert mem.snapshot() == b"\x3c" * size
        self._check(mem, size)
        dup = mem.clone()
        assert dup.snapshot() == mem.snapshot()
        self._check(dup, size)
        assert mem.raw()[size - 1] == 0x5A  # the clone owns its bytes
        back = pickle.loads(pickle.dumps(mem))
        assert back.snapshot() == mem.snapshot()
        self._check(back, size)


def _reference_first_mismatch(a, b, space):
    """The historical per-byte scan over two snapshots."""
    sa, sb = a.snapshot(), b.snapshot()
    for addr in range(len(sa)):
        if sa[addr] != sb[addr]:
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
    raise AssertionError("memories equal")


class TestFirstMismatch:
    @pytest.mark.parametrize("trip", [45, 524287])
    def test_message_unchanged(self, numpy_mode, trip):
        _, space, mem, rng = _space(trip, INT16, seed=9)
        fill_random(space, mem, rng)
        last = space.arrays()[-1]
        for addr in (last.base + last.size_bytes - 1, mem.size - 1,
                     space.arrays()[0].base + 3):
            other = mem.clone()
            other.raw()[addr] ^= 0xFF
            want = _reference_first_mismatch(mem, other, space)
            assert verify._first_mismatch(mem, other, space) == want
            assert str(addr) in want

    def test_in_place_compare_spans_chunks(self, numpy_mode):
        _, space, mem, rng = _space(524287, INT16, seed=9)
        fill_random(space, mem, rng)
        assert mem.size > 2 * verify._COMPARE_CHUNK
        assert verify._images_equal(mem, mem.clone())
        for addr in (0, verify._COMPARE_CHUNK, mem.size - 1):
            other = mem.clone()
            other.raw()[addr] ^= 0x01
            assert not verify._images_equal(mem, other)
        assert not verify._images_equal(mem, Memory(mem.size - 1))
