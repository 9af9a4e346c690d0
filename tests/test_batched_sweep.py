"""Structure-batched sweep execution: parity, grouping, and caching.

The batched sweep engine (``measure_many(sweep_mode="batched")``)
groups configs into program-signature classes and executes each class
as one config-batched jit kernel call.  Everything here pins the
contract that batching changes *wall clock only*: memory images,
counters, OPD, and every Measurement field are element-wise identical
to the per-config path, independent of batch composition and worker
count.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.figures import figure_configs
from repro.bench.runner import (
    SWEEP_MODES,
    SweepConfig,
    _batched_bins,
    measure_batch,
    measure_many,
)
from repro.bench.synth import SynthParams, synthesize
from repro.cache import DiskCache
from repro.errors import BenchError, MachineError
from repro.ir.types import INT16, INT32
from repro.machine.backend import get_backend, numpy_available, run_vector_batch
from repro.machine.scalar import RunBindings
from repro.profiling import PhaseProfile
from repro.simdize import SimdOptions, fill_random, make_space, simdize

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="batched sweeps need numpy"
)

if numpy_available():
    from repro.machine import native as _native

HAVE_CC = numpy_available() and _native._compiler_identity()[0] is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no host C compiler")


def _ragged_class(trips, seed=3, loads=3, policy="eager", unroll=1):
    """Configs guaranteed to share one program signature.

    Runtime-trip loops bind the trip count at run time, so configs
    differing only in ``trip`` synthesize structurally identical loops
    (array extents differ, but extents are not part of the program) —
    one signature class with ragged trip counts.
    """
    options = SimdOptions(policy=policy, reuse="sp", unroll=unroll)
    return [
        SweepConfig(
            SynthParams(loads=loads, statements=1, trip=trip, bias=0.3,
                        reuse=0.3, dtype=INT32, runtime_trip=True),
            seed, options, 16, "test",
        )
        for trip in trips
    ]


def _run_items(configs):
    """The (program, space, mem, bindings) quadruples measure_batch builds."""
    items = []
    for config in configs:
        syn = synthesize(config.params, config.seed, config.V)
        result = simdize(syn.loop, config.V, config.options)
        rng = random.Random(config.seed ^ 0x5EED)
        space = make_space(syn.loop, config.V, rng, syn.base_residues)
        mem = space.make_memory()
        fill_random(space, mem, rng)
        bindings = RunBindings(
            trip=syn.params.trip if syn.loop.runtime_upper else None
        )
        items.append((result.program, space, mem, bindings))
    return items


class TestRunBatch:
    """The jit engine's config-batch axis against its own per-run path."""

    def _assert_batch_matches_per_run(self, items):
        from repro.machine.jit import _cached_signature

        signatures = {_cached_signature(program) for program, _, _, _ in items}
        assert len(signatures) == 1, "premise: one signature class"

        jit = get_backend("jit")
        bytes_engine = get_backend("bytes")
        batch_mems = [mem.clone() for _, _, mem, _ in items]
        solo_mems = [mem.clone() for _, _, mem, _ in items]
        oracle_mems = [mem.clone() for _, _, mem, _ in items]

        batch = jit.run_batch([
            (program, space, mem, bindings)
            for (program, space, _, bindings), mem in zip(items, batch_mems)
        ])
        solo = [jit.run(program, space, mem, bindings)
                for (program, space, _, bindings), mem
                in zip(items, solo_mems)]
        oracle = [bytes_engine.run(program, space, mem, bindings)
                  for (program, space, _, bindings), mem
                  in zip(items, oracle_mems)]

        for bres, sres, ores, bmem, smem, omem in zip(
                batch, solo, oracle, batch_mems, solo_mems, oracle_mems):
            assert bmem.snapshot() == smem.snapshot() == omem.snapshot()
            assert bres.counters == sres.counters == ores.counters
            assert bres.trip == sres.trip == ores.trip
            assert bres.used_fallback == sres.used_fallback

    def test_ragged_trips_one_class(self):
        self._assert_batch_matches_per_run(
            _run_items(_ragged_class((45, 61, 75))))

    def test_ragged_trips_unrolled(self):
        self._assert_batch_matches_per_run(
            _run_items(_ragged_class((40, 64, 52, 88), unroll=4)))

    def test_guard_fallback_inside_batch(self):
        # trip=2 is below the guard threshold: that config falls back to
        # the scalar path while its classmates run in the batched kernel.
        items = _run_items(_ragged_class((2, 61, 75)))
        self._assert_batch_matches_per_run(items)
        jit = get_backend("jit")
        results = jit.run_batch(
            [(p, s, m.clone(), b) for p, s, m, b in items])
        assert results[0].used_fallback
        assert not results[1].used_fallback

    def test_singleton_batch(self):
        self._assert_batch_matches_per_run(_run_items(_ragged_class((61,))))

    def test_mixed_signatures_rejected(self):
        items = _run_items(_ragged_class((45,), loads=2)
                           + _ragged_class((45,), loads=3))
        with pytest.raises(MachineError, match="one structural signature"):
            get_backend("jit").run_batch(items)

    def test_run_vector_batch_degrades_without_native_support(self):
        items = _run_items(_ragged_class((45, 61)))
        bytes_engine = get_backend("bytes")
        assert not hasattr(bytes_engine, "run_batch")
        batch_mems = [mem.clone() for _, _, mem, _ in items]
        results = run_vector_batch(bytes_engine, [
            (p, s, m, b)
            for (p, s, _, b), m in zip(items, batch_mems)
        ])
        solo_mems = [mem.clone() for _, _, mem, _ in items]
        solo = [bytes_engine.run(p, s, m, b)
                for (p, s, _, b), m in zip(items, solo_mems)]
        for res, ref, rmem, smem in zip(results, solo, batch_mems, solo_mems):
            assert res.counters == ref.counters
            assert rmem.snapshot() == smem.snapshot()


@needs_cc
class TestNativeRunBatch:
    """The native tier's C batch driver against jit and the oracle."""

    def _counts(self):
        return {k: v for k, v in _native.STATS.items() if isinstance(v, int)}

    def _assert_three_way(self, items):
        native_engine = get_backend("native")
        jit_engine = get_backend("jit")
        bytes_engine = get_backend("bytes")
        nat_mems = [mem.clone() for _, _, mem, _ in items]
        jit_mems = [mem.clone() for _, _, mem, _ in items]
        ora_mems = [mem.clone() for _, _, mem, _ in items]
        nat = native_engine.run_batch([
            (p, s, m, b) for (p, s, _, b), m in zip(items, nat_mems)])
        jit_res = jit_engine.run_batch([
            (p, s, m, b) for (p, s, _, b), m in zip(items, jit_mems)])
        ora = [bytes_engine.run(p, s, m, b)
               for (p, s, _, b), m in zip(items, ora_mems)]
        for nres, jres, ores, nmem, jmem, omem in zip(
                nat, jit_res, ora, nat_mems, jit_mems, ora_mems):
            assert nmem.snapshot() == jmem.snapshot() == omem.snapshot()
            assert nres.counters == jres.counters == ores.counters
            assert nres.trip == jres.trip == ores.trip
            assert nres.used_fallback == jres.used_fallback
        return nat

    def test_ragged_class_through_c_driver(self):
        items = _run_items(_ragged_class((45, 61, 75)))
        before = self._counts()
        self._assert_three_way(items)
        after = self._counts()
        # The class must have executed through the C batch driver —
        # a silent bail to the classic path would still pass the
        # byte-equality above but void the perf claim.
        assert after["batch_calls"] == before["batch_calls"] + 1
        assert after["batch_rows"] == before["batch_rows"] + len(items)

    def test_guard_row_degrades_alone(self):
        # trip=2 falls to the guarded scalar path; its classmates must
        # still batch through the driver with identical bytes.
        items = _run_items(_ragged_class((2, 61, 75)))
        before = self._counts()
        results = self._assert_three_way(items)
        after = self._counts()
        assert results[0].used_fallback
        assert not results[1].used_fallback
        assert after["batch_calls"] == before["batch_calls"] + 1
        assert after["batch_rows"] == before["batch_rows"] + 2

    def test_singleton_class_takes_whole_run_path(self):
        items = _run_items(_ragged_class((61,)))
        before = self._counts()
        self._assert_three_way(items)
        after = self._counts()
        assert after["whole_runs"] == before["whole_runs"] + 1
        assert after["batch_calls"] == before["batch_calls"]

    def test_measure_batch_native_matches_jit_measurements(self):
        configs = _ragged_class((45, 61, 75)) + _ragged_class(
            (40, 56), loads=2, policy="lazy")
        assert (measure_batch(configs, backend="native")
                == measure_batch(configs, backend="jit"))


class TestBatchFallthroughRecorded:
    """Satellite: leaving the batch path is never silent."""

    def test_batchless_tier_records_batch_fallback(self):
        from repro.machine.backend import get_resilient_backend

        items = _run_items(_ragged_class((45, 61)))
        engine = get_resilient_backend("bytes")
        results = engine.run_batch(
            [(p, s, m.clone(), b) for p, s, m, b in items])
        for result in results:
            assert result.batch_fallback == {
                "tier": "bytes", "phase": "batch",
                "reason": "tier has no batch execution",
            }

    def test_batch_tier_success_leaves_no_record(self):
        from repro.machine.backend import get_resilient_backend

        items = _run_items(_ragged_class((45, 61)))
        results = get_resilient_backend("jit").run_batch(
            [(p, s, m.clone(), b) for p, s, m, b in items])
        for result in results:
            assert result.batch_fallback is None

    def test_batch_failure_restores_memory_and_records(self):
        from repro.machine.backend import get_resilient_backend

        items = _run_items(_ragged_class((45, 61)))
        engine = get_resilient_backend("jit")

        class _Boom:
            def run_batch(self, runs):
                for _, _, mem, _ in runs:
                    mem.raw()[:1] = b"\xAA"
                raise MachineError("injected batch failure")

            def run(self, program, space, mem, bindings=None, trace=None):
                return get_backend("jit").run(program, space, mem, bindings)

        engine._chain._engines[engine._chain.tiers[0]] = _Boom()
        ref_mems = [mem.clone() for _, _, mem, _ in items]
        refs = [get_backend("bytes").run(p, s, m, b)
                for (p, s, _, b), m in zip(items, ref_mems)]
        run_mems = [mem.clone() for _, _, mem, _ in items]
        results = engine.run_batch(
            [(p, s, m, b) for (p, s, _, b), m in zip(items, run_mems)])
        for result, ref, rmem, refmem in zip(results, refs, run_mems,
                                             ref_mems):
            assert result.batch_fallback is not None
            assert result.batch_fallback["phase"] == "batch"
            assert "injected batch failure" in result.batch_fallback["reason"]
            assert result.counters == ref.counters
            assert rmem.snapshot() == refmem.snapshot()

    def test_batch_fallback_surfaces_in_profile(self):
        profile = PhaseProfile()
        measure_batch(_ragged_class((45, 61)), backend="bytes",
                      profile=profile)
        assert profile.counts["batch_degraded"] == 2
        assert profile.counts["batch_degraded_from_bytes"] == 2
        text = profile.format()
        assert "batch_degraded" in text


class TestMeasureBatchParity:
    def test_figure_subset_matches_periter(self):
        configs = [c for _, c in figure_configs(False, count=2, trip=53)]
        periter = measure_many(configs, sweep_mode="periter")
        batched = measure_many(configs, sweep_mode="batched")
        assert periter == batched

    def test_composition_independent(self):
        # The same config measures identically whatever batch it rides in.
        configs = _ragged_class((45, 61, 75)) + _ragged_class(
            (40, 56), loads=2, policy="lazy")
        alone = [measure_batch([c])[0] for c in configs]
        together = measure_batch(configs)
        shuffled_order = [3, 0, 4, 2, 1]
        shuffled = measure_batch([configs[i] for i in shuffled_order])
        assert together == alone
        assert [shuffled[shuffled_order.index(i)] for i in range(5)] == alone

    def test_worker_count_independent(self):
        configs = [c for _, c in figure_configs(True, count=2, trip=53)]
        serial = measure_many(configs, sweep_mode="batched", jobs=1)
        parallel = measure_many(configs, sweep_mode="batched", jobs=2)
        assert serial == parallel

    def test_unknown_sweep_mode_rejected(self):
        with pytest.raises(BenchError, match="unknown sweep mode"):
            measure_many(_ragged_class((45,)), sweep_mode="chunked")
        assert SWEEP_MODES == ("periter", "batched")

    def test_batch_profile_counters(self):
        configs = _ragged_class((45, 61, 75))
        profile = PhaseProfile()
        measure_batch(configs, profile=profile)
        assert profile.counts["batch_classes"] == 1
        assert profile.counts["batch_configs"] == 3
        text = profile.format()
        assert "batched sweep: 3 configs in 1 signature classes" in text


class TestWorkerProfileMerge:
    """Satellite: worker cache counters must aggregate, not overwrite."""

    def test_batched_worker_profiles_aggregate(self):
        configs = [c for _, c in figure_configs(False, count=2, trip=53)]
        serial_profile = PhaseProfile()
        measure_many(configs, sweep_mode="batched", jobs=1,
                     profile=serial_profile)
        pooled_profile = PhaseProfile()
        measure_many(configs, sweep_mode="batched", jobs=2,
                     profile=pooled_profile)
        # Every config is looked up in the simdize memo and counted in a
        # batch exactly once, in whichever process it ran; a merge that
        # overwrote one worker's counters with another's would lose some.
        for profile in (serial_profile, pooled_profile):
            lookups = (profile.counts.get("simdize_memo_hits", 0)
                       + profile.counts.get("simdize_memo_misses", 0))
            assert lookups == len(configs)
            assert profile.counts["batch_configs"] == len(configs)

    def test_periter_worker_profiles_aggregate(self):
        configs = [c for _, c in figure_configs(False, count=1, trip=53)]
        profile = PhaseProfile()
        measure_many(configs, sweep_mode="periter", jobs=2, profile=profile)
        lookups = (profile.counts.get("simdize_memo_hits", 0)
                   + profile.counts.get("simdize_memo_misses", 0))
        assert lookups == len(configs)


class TestBatchedBins:
    def test_families_stay_whole(self):
        configs = [c for _, c in figure_configs(False, count=3, trip=53)]
        bins = _batched_bins(configs, 2)
        assert sorted(i for b in bins for i in b) == list(range(len(configs)))
        assert len(bins) == 2
        # Same-params configs (any scheme) always land in one bin.
        by_bin = {}
        for bin_no, indices in enumerate(bins):
            for i in indices:
                by_bin.setdefault(
                    (configs[i].params, configs[i].V), set()).add(bin_no)
        assert all(len(bins_hit) == 1 for bins_hit in by_bin.values())

    def test_runtime_trip_normalized(self):
        configs = _ragged_class((45, 61, 75))
        assert len(_batched_bins(configs, 4)) == 1

    def test_more_jobs_than_families(self):
        configs = _ragged_class((45,))
        assert _batched_bins(configs, 8) == [[0]]


DTYPES = (INT16, INT32)


@st.composite
def batch_case(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    configs = []
    for _ in range(n):
        runtime_trip = draw(st.booleans())
        params = SynthParams(
            loads=draw(st.integers(min_value=1, max_value=4)),
            statements=draw(st.integers(min_value=1, max_value=2)),
            trip=draw(st.integers(min_value=13, max_value=90)),
            bias=draw(st.sampled_from((0.0, 0.3))),
            reuse=draw(st.sampled_from((0.0, 0.3))),
            dtype=draw(st.sampled_from(DTYPES)),
            runtime_alignment=draw(st.booleans()),
            runtime_trip=runtime_trip,
        )
        policy = ("zero" if params.runtime_alignment
                  else draw(st.sampled_from(("zero", "eager", "lazy"))))
        options = SimdOptions(
            policy=policy,
            reuse=draw(st.sampled_from(("none", "sp", "pc"))),
            unroll=draw(st.sampled_from((1, 2, 4))),
        )
        configs.append(SweepConfig(
            params, draw(st.integers(min_value=0, max_value=7)),
            options, 16, "hyp",
        ))
    backends = ("auto", "jit", "numpy", "bytes")
    if HAVE_CC:
        backends += ("native",)
    backend = draw(st.sampled_from(backends))
    return configs, backend


class TestDifferentialBatching:
    """Satellite: random batches are element-wise identical to periter."""

    @given(case=batch_case())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batched_equals_periter(self, case):
        configs, backend = case
        periter = measure_many(configs, sweep_mode="periter",
                               backend=backend)
        batched = measure_many(configs, sweep_mode="batched",
                               backend=backend)
        assert periter == batched


class TestDiskCacheEviction:
    """Satellite: the disk tier stays under REPRO_CACHE_MAX_BYTES."""

    def _fill(self, cache, keys, payload=2048):
        """Write entries with strictly increasing mtimes, evictions off."""
        import os
        import time

        budget, cache.max_bytes = cache.max_bytes, 0
        for i, key in enumerate(keys):
            cache.put(key, b"x" * payload)
            # Distinct mtimes make LRU order deterministic on coarse
            # filesystem timestamps.
            os.utime(cache._path(key), (time.time() + i, time.time() + i))
        cache.max_bytes = budget

    def test_eviction_keeps_size_under_budget(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=8192)
        self._fill(cache, [f"k{i}" for i in range(8)])
        cache.put("k8", b"x" * 2048)
        total = sum(p.stat().st_size
                    for p in (tmp_path / "cache").glob("??/*.pkl"))
        assert total <= 8192
        assert cache.evictions > 0
        assert cache.stats()["evictions"] == cache.evictions

    def test_oldest_evicted_newest_survives(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=6144)
        self._fill(cache, ["old", "mid", "new"])
        cache.put("push", b"x" * 2048)
        assert cache.get("old") is None
        assert cache.get("new") == b"x" * 2048

    def test_get_touch_refreshes_recency(self, tmp_path):
        import os
        import time

        cache = DiskCache(tmp_path / "cache", max_bytes=6144)
        self._fill(cache, ["a", "b", "c"])
        # Make "a" the most recently used despite being written first.
        assert cache.get("a") is not None
        now = time.time() + 100
        os.utime(cache._path("a"), (now, now))
        cache.put("push", b"x" * 2048)
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_puts_under_budget_do_not_rescan(self, tmp_path, monkeypatch):
        """The running size estimate replaces the per-put tree walk:
        one scan seeds it, and puts that stay under the budget add
        their bytes without scanning again."""
        cache = DiskCache(tmp_path / "cache", max_bytes=1 << 20)
        scans = []
        real = DiskCache._scan
        monkeypatch.setattr(DiskCache, "_scan",
                            lambda self: scans.append(1) or real(self))
        for i in range(20):
            cache.put(f"k{i}", b"x" * 2048)
        assert len(scans) == 1
        cache.max_bytes = 8192
        cache.put("over", b"x" * 2048)
        assert len(scans) == 2
        assert self._total(tmp_path) <= 8192

    def test_two_instances_on_one_directory_hold_the_budget(self, tmp_path):
        """Instances sharing a directory share its size estimate, so
        neither one's writes hide from the other's budget check."""
        first = DiskCache(tmp_path / "cache", max_bytes=8192)
        second = DiskCache(tmp_path / "cache", max_bytes=8192)
        for i in range(12):
            (first if i % 2 else second).put(f"k{i}", b"x" * 2048)
            assert self._total(tmp_path) <= 8192
        assert first.evictions + second.evictions > 0

    def test_concurrent_writers_lose_no_estimate_update(self, tmp_path):
        """Server worker threads put concurrently; the shared estimate
        must still equal the bytes on disk afterwards."""
        import sys
        import threading

        from repro import cache as cache_mod

        cache = DiskCache(tmp_path / "cache", max_bytes=1 << 30)
        cache.put("seed", b"x")   # the first put seeds the estimate
        start = threading.Barrier(8)

        def writer(w):
            start.wait(timeout=60)
            for i in range(40):
                cache.put(f"w{w}-{i}", b"x" * (100 + w))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(w,))
                       for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert cache_mod._SIZE_ESTIMATES[cache.root] == self._total(tmp_path)

    @staticmethod
    def _total(tmp_path) -> int:
        return sum(p.stat().st_size
                   for p in (tmp_path / "cache").glob("??/*.pkl"))

    def test_zero_budget_means_unlimited(self, tmp_path):
        cache = DiskCache(tmp_path / "cache", max_bytes=0)
        self._fill(cache, [f"k{i}" for i in range(20)])
        assert cache.evictions == 0
        assert all(cache.get(f"k{i}") is not None for i in range(20))

    def test_env_var_controls_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert DiskCache(tmp_path).max_bytes == 4096
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert DiskCache(tmp_path).max_bytes == 0
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "not-a-number")
        from repro.cache import DEFAULT_CACHE_MAX_BYTES

        assert DiskCache(tmp_path).max_bytes == DEFAULT_CACHE_MAX_BYTES
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES")
        assert DiskCache(tmp_path).max_bytes == DEFAULT_CACHE_MAX_BYTES
        assert DiskCache(tmp_path, max_bytes=123).max_bytes == 123

    def test_evictions_surface_in_profile(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "tiny"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
        from repro.cache import reset_cache_dir

        reset_cache_dir()
        try:
            profile = PhaseProfile()
            # A seed no other test uses: the in-process memos must miss
            # so the disk tier actually sees puts to evict.
            measure_many(_ragged_class((45, 61), seed=991),
                         sweep_mode="batched", profile=profile)
            assert profile.counts.get("disk_evictions", 0) > 0
            assert "evictions" in profile.format()
        finally:
            reset_cache_dir()
