"""The native codegen tier: cc-compiled kernels, artifacts, degradation.

``test_differential.py`` holds the native engine to bit-exact parity
with the byte oracle on random draws; this file pins the machinery
around it — the two-tier kernel cache (in-process LRU + compiler-
identity-versioned disk artifacts), tampered/corrupt artifact
quarantine, the jit-delegation path for programs the C emitter
declines, degradation on hosts without a compiler or under injected
compile faults, profile attribution of the new ``cc``/``native_load``
phases, and the Figure 11/12 sweep acceptance criterion
(byte-identical memories and bit-identical counters against the bytes
oracle).  Everything needing a real compiler is guarded by
``needs_cc``; the degradation tests run anywhere numpy does.
"""

import random
import types

import pytest

from repro import faults
from repro.machine import RunBindings, get_backend, numpy_available
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

if numpy_available():
    from repro.cache import get_cache
    from repro.machine import compilequeue, jit, native

HAVE_CC = numpy_available() and native._compiler_identity()[0] is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no host C compiler")


@pytest.fixture(autouse=True)
def _fresh_caches():
    jit.clear_memory_cache()
    native.clear_memory_cache()
    yield
    jit.clear_memory_cache()
    native.clear_memory_cache()


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    faults.reload()
    yield
    faults.reload()


def fig1_program(trip: int = 100, policy: str = "zero"):
    return simdize(build_fig1(trip=trip), 16,
                   SimdOptions(policy=policy, reuse="sp")).program


def run_engines(program, names, seed: int = 9, trip: int | None = None):
    """Execute ``program`` once per engine on clones of one random image."""
    loop = program.source
    rand = random.Random(seed)
    space = make_space(loop, program.V, rand)
    base = space.make_memory()
    fill_random(space, base, rand)
    runs = {}
    for name in names:
        mem = base.clone()
        run = get_backend(name).run(program, space, mem,
                                    RunBindings(trip=trip))
        runs[name] = (mem.snapshot(), run.counters.as_dict(),
                      run.trip, run.used_fallback)
    return runs


class TestNativeParity:
    @needs_cc
    @pytest.mark.parametrize("policy", ["zero", "eager", "lazy", "dominant"])
    def test_fig1_matches_bytes(self, policy):
        runs = run_engines(fig1_program(policy=policy), ("bytes", "native"))
        assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_kernel_actually_ran_in_c(self):
        """Parity must come from the compiled kernel, not silent jit
        delegation: the cached kernel carries a live ctypes function."""
        program = fig1_program()
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None
        assert kernel.meta.so_sha256

    @needs_cc
    @pytest.mark.parametrize("offset_reassoc", [False, True],
                             ids=["fig11", "fig12"])
    def test_sweep_matches_bytes_oracle(self, offset_reassoc):
        """Acceptance criterion: --backend native is byte-identical and
        counter-identical to the bytes oracle across the Figure 11/12
        sweep space (every scheme × compile-time/runtime alignment)."""
        from repro.bench import figure_configs
        from repro.bench.runner import _cached_simdize
        from repro.bench.synth import synthesize

        for label, config in figure_configs(offset_reassoc, count=1, trip=67):
            syn = synthesize(config.params, config.seed, config.V)
            result = _cached_simdize(syn.loop, config.V, config.options)
            rand = random.Random(config.seed ^ 0x5EED)
            space = make_space(syn.loop, config.V, rand, syn.base_residues)
            base = space.make_memory()
            fill_random(space, base, rand)
            trip = config.params.trip if syn.loop.runtime_upper else None
            runs = {}
            for name in ("bytes", "native"):
                mem = base.clone()
                run = get_backend(name).run(result.program, space, mem,
                                            RunBindings(trip=trip))
                runs[name] = (mem.snapshot(), run.counters.as_dict(),
                              run.trip, run.used_fallback)
            assert runs["bytes"] == runs["native"], f"{label} diverged"


class TestKernelCache:
    @needs_cc
    def test_disk_roundtrip_skips_cc(self):
        """A cleared memory cache reloads the .so from disk instead of
        re-invoking the compiler."""
        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        assert native.STATS["codegens"] == before["codegens"] + 1
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 1  # unchanged
        assert native.STATS["disk_hits"] == before["disk_hits"] + 1

    @needs_cc
    def test_disk_loaded_kernel_still_bit_exact(self):
        program = fig1_program(trip=77)
        native.get_native_kernel(program)
        native.clear_memory_cache()
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_stale_code_version_recompiles(self, monkeypatch):
        """Bumping NATIVE_CODE_VERSION invalidates every disk entry."""
        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        native.clear_memory_cache()
        monkeypatch.setattr(native, "NATIVE_CODE_VERSION",
                            native.NATIVE_CODE_VERSION + 1)
        native.get_native_kernel(program)
        assert native.STATS["codegens"] == before["codegens"] + 2
        assert native.STATS["disk_misses"] == before["disk_misses"] + 2

    @needs_cc
    def test_tampered_so_is_quarantined_and_recompiled(self):
        """A .so whose digest no longer matches its meta entry is a
        silent miss: the object's group and the entry naming it are
        quarantined and the kernel recompiles from scratch."""
        program = fig1_program()
        before = dict(native.STATS)
        kernel = native.get_native_kernel(program)
        cache = get_cache()
        so_path = cache.artifact_path(native.tu_key(kernel.meta.so_sha256),
                                      ".so")
        assert so_path is not None
        so_path.write_bytes(b"\x7fELF but not really")
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)   # must not raise
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 2
        assert list(cache.root.glob("??/*.so.corrupt"))
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_corrupt_meta_pickle_is_silent_miss(self):
        program = fig1_program()
        before = dict(native.STATS)
        native.get_native_kernel(program)
        cache = get_cache()
        sig = jit._cached_signature(program)
        key = native._disk_key(sig, native._compiler_identity()[1])
        cache._path(key).write_bytes(b"this is not a pickle")
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)   # must not raise
        assert kernel.cfn is not None
        assert native.STATS["codegens"] == before["codegens"] + 2

    @needs_cc
    def test_memory_cache_hit_after_first_load(self):
        program = fig1_program()
        before = dict(native.STATS)
        k1 = native.get_native_kernel(program)
        k2 = native.get_native_kernel(program)
        assert k1 is k2
        assert native.STATS["memory_hits"] == before["memory_hits"] + 1

    def test_emitter_decline_delegates_to_jit(self, monkeypatch):
        """When the C emitter declines a steady form, the native tier
        runs jit's own path (cfn=None) instead of degrading."""
        def decline(program, spec):
            raise native._CantEmit("outside the C subset")

        monkeypatch.setattr(native, "emit_kernel", decline)
        program = fig1_program()
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is None
        runs = run_engines(program, ("bytes", "native"))
        assert runs["bytes"] == runs["native"]
        assert runs["native"][3] is False   # no per-iteration fallback


def fig11_text(backend: str = "native") -> str:
    """A small Figure 11 sweep as ``repro bench`` prints it."""
    from repro.bench import figure11

    return figure11(count=1, trip=67, backend=backend).format()


def forget_loaded() -> None:
    """Drop every in-process kernel and handle, as a fresh process has."""
    jit.clear_memory_cache()
    native.clear_memory_cache()


def cached_files(pattern: str) -> list:
    return sorted(get_cache().root.glob(f"??/{pattern}"))


class TestSharedObjects:
    """One content-addressed .so per cc invocation, shared by every
    kernel compiled in it (NATIVE_CODE_VERSION 5)."""

    @needs_cc
    def test_warm_sweep_maps_each_object_once_and_builds_no_jit(self):
        """A warm fig11 sweep runs every accepted run in C: it builds no
        jit kernel, launches no cc, and digest-checks and dlopens each
        distinct shared object exactly once."""
        cold = fig11_text()
        forget_loaded()
        jit_before, before = dict(jit.STATS), dict(native.STATS)
        assert fig11_text() == cold
        assert jit.STATS["materialized"] == jit_before["materialized"]
        assert native.STATS["cc_invocations"] == before["cc_invocations"]
        loaded = [k for k in native._NATIVE_CACHE.values() if k.cfn]
        objects = {k.meta.so_sha256 for k in loaded}
        assert len(loaded) > len(objects) >= 1
        assert native.STATS["disk_hits"] - before["disk_hits"] == len(loaded)
        assert native.STATS["so_loads"] - before["so_loads"] == len(objects)
        # One .c and one .so per object, not per signature.
        assert len(cached_files("*.so")) == len(objects)
        assert len(cached_files("*.c")) == len(objects)
        assert cold == fig11_text("bytes")

    @needs_cc
    def test_tampered_shared_object_recompiles_to_identical_figure(self):
        cold = fig11_text()
        for path in cached_files("*.so"):
            path.write_bytes(b"\x7fELF but not really")
        forget_loaded()
        before = dict(native.STATS)
        assert fig11_text() == cold == fig11_text("bytes")
        assert cached_files("*.so.corrupt")
        assert native.STATS["cc_invocations"] > before["cc_invocations"]
        assert native.STATS["so_loads"] == before["so_loads"]

    @needs_cc
    def test_evicted_object_is_a_clean_miss_for_every_entry(self):
        """Deleting a shared object's group leaves every entry naming
        it a plain miss — no exception, nothing quarantined — and the
        sweep recompiles the same figure."""
        cold = fig11_text()
        keys = [(sig, native._disk_key(sig, native._compiler_identity()[1]))
                for sig, k in native._NATIVE_CACHE.items() if k.cfn]
        for path in cached_files("*.so") + cached_files("*.c"):
            path.unlink()
        forget_loaded()
        cache = get_cache()
        quarantined = cache.corrupt_quarantined
        for sig, key in keys:
            assert native._load_from_disk(cache, key, sig, None) is None
        assert cache.corrupt_quarantined == quarantined
        before = dict(native.STATS)
        assert fig11_text() == cold
        assert native.STATS["disk_misses"] - before["disk_misses"] == len(keys)
        assert native.STATS["cc_invocations"] > before["cc_invocations"]
        assert cache.corrupt_quarantined == quarantined


class TestDegradation:
    def test_missing_compiler_degrades_to_jit(self, monkeypatch):
        """A host without cc warns once and files a native → jit
        degradation under the compile phase; results are unchanged."""
        from repro import run_and_verify

        clean = run_and_verify(fig1_program(), backend="jit")
        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        monkeypatch.setattr(native, "_WARNED", False)
        jit.clear_memory_cache()
        native.clear_memory_cache()
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            report = run_and_verify(fig1_program(), backend="native")
        assert report.fallback is not None
        assert report.fallback["tier"] == "jit"
        assert report.fallback["phase"] == "compile"
        assert report.fallback["failed"] == ("native",)
        assert "compiler" in report.fallback["reason"]
        assert (report.vector_ops, report.scalar_ops) == \
            (clean.vector_ops, clean.scalar_ops)

    def test_missing_compiler_warns_only_once(self, monkeypatch, recwarn):
        from repro import run_and_verify

        monkeypatch.setattr(native, "_CC", (native._cc_env(), (None, "none")))
        monkeypatch.setattr(native, "_WARNED", False)
        run_and_verify(fig1_program(), backend="native")
        native.clear_memory_cache()
        run_and_verify(fig1_program(), backend="native")
        warned = [w for w in recwarn.list
                  if "no C compiler" in str(w.message)]
        assert len(warned) == 1

    def test_compile_fault_degrades_down_the_chain(self, monkeypatch):
        """REPRO_FAULT=compile:raise kills kernel construction in both
        the native and jit tiers; the chain lands on numpy with the
        full failure trail and identical numbers."""
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        monkeypatch.setenv("REPRO_FAULT", "compile:raise")
        faults.reload()
        profile = PhaseProfile()
        report = run_and_verify(fig1_program(), backend="native",
                                profile=profile)
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        clean = run_and_verify(fig1_program(), backend="native")
        assert report.fallback is not None
        assert report.fallback["tier"] == "numpy"
        assert report.fallback["phase"] == "compile"
        assert report.fallback["failed"] == ("native", "jit")
        assert "FaultInjected" in report.fallback["reason"]
        assert (report.vector_ops, report.scalar_ops) == \
            (clean.vector_ops, clean.scalar_ops)
        assert profile.counts["degraded"] == 1
        assert profile.counts["degraded_to_numpy"] == 1
        assert clean.fallback is None

    @needs_cc
    def test_cc_failure_is_memoized(self, monkeypatch):
        """A failing compiler raises NativeUnavailable; the signature is
        memoized so later runs skip the doomed subprocess."""
        calls = {"n": 0}

        def broken_cc(cmd, **kwargs):
            calls["n"] += 1
            return types.SimpleNamespace(returncode=1, stdout="",
                                         stderr="ICE: exploding compiler")

        monkeypatch.setattr(compilequeue, "_run_cc", broken_cc)
        program = fig1_program()
        with pytest.raises(native.NativeUnavailable, match="exploding"):
            native.get_native_kernel(program)
        assert calls["n"] == 1
        with pytest.raises(native.NativeUnavailable, match="exploding"):
            native.get_native_kernel(program)
        assert calls["n"] == 1   # memoized: no second subprocess

    @needs_cc
    def test_cc_failure_still_degrades_per_run(self, monkeypatch):
        from repro import run_and_verify

        def broken_cc(cmd, **kwargs):
            return types.SimpleNamespace(returncode=1, stdout="", stderr="")

        monkeypatch.setattr(compilequeue, "_run_cc", broken_cc)
        report = run_and_verify(fig1_program(), backend="native")
        assert report.fallback is not None
        assert report.fallback["tier"] == "jit"
        assert report.fallback["phase"] == "compile"


class TestProfileIntegration:
    @needs_cc
    def test_cc_time_attributed_to_cc_phase(self):
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        profile = PhaseProfile()
        run_and_verify(fig1_program(), backend="native", profile=profile)
        assert profile.seconds.get("cc", 0.0) > 0.0
        assert profile.seconds.get("native_load", 0.0) > 0.0
        assert profile.counts.get("native_memory_misses", 0) >= 1
        text = profile.format()
        assert "cc" in text and "native_memory" in text

    @needs_cc
    def test_warm_run_reports_native_disk_hit(self):
        from repro import run_and_verify
        from repro.profiling import PhaseProfile

        program = fig1_program()
        run_and_verify(program, backend="native")
        native.clear_memory_cache()
        profile = PhaseProfile()
        run_and_verify(program, backend="native", profile=profile)
        assert profile.counts.get("native_disk_hits", 0) >= 1
        assert profile.hit_rate("native_disk") == 1.0


    @needs_cc
    def test_warm_sweep_profile_shows_kernel_load(self):
        """The warm acquisition done ahead of a sweep is its own phase
        row, with the disk hits, .so loads and jit builds it cost."""
        from repro.bench import figure11
        from repro.profiling import PhaseProfile

        fig11_text()
        forget_loaded()
        profile = PhaseProfile()
        figure11(count=1, trip=67, backend="native", profile=profile)
        assert profile.seconds["kernel_load"] > 0.0
        hits = profile.counts["native_disk_hits"]
        assert hits > 0
        text = profile.format()
        assert "kernel_load" in text
        assert (f"native kernel load: {hits} disk hits, 1 .so load, "
                f"0 jit materializations") in text


class TestArtifactStore:
    """DiskCache sibling-artifact semantics (no compiler needed)."""

    def test_artifact_roundtrip(self, tmp_path):
        from repro.cache import DiskCache

        cache = DiskCache(tmp_path / "cache")
        cache.put_artifact("k", ".so", b"\x00\x01")
        cache.put_artifact("k", ".c", b"int x;")
        path = cache.artifact_path("k", ".so")
        assert path is not None and path.read_bytes() == b"\x00\x01"
        assert cache.artifact_path("k", ".nope") is None

    def test_entry_group_evicts_as_a_unit(self, tmp_path):
        """LRU eviction removes a key's pickle and artifacts together —
        a surviving .so must never outlive its validating metadata."""
        import os

        from repro.cache import DiskCache

        cache = DiskCache(tmp_path / "cache", max_bytes=6000)
        cache.put_artifact("old", ".so", bytes(4000))
        cache.put("old", {"meta": 1})
        for path in cache.root.glob("??/*"):
            os.utime(path, (1, 1))   # make the first group clearly LRU
        cache.put_artifact("new", ".so", bytes(4000))
        cache.put("new", {"meta": 2})
        assert cache.get("old") is None
        assert cache.artifact_path("old", ".so") is None
        assert cache.get("new") == {"meta": 2}
        assert cache.artifact_path("new", ".so") is not None
        assert cache.stats()["evictions"] == 1

    def test_quarantine_covers_the_whole_group(self, tmp_path):
        from repro.cache import DiskCache

        cache = DiskCache(tmp_path / "cache")
        cache.put("k", {"meta": 1})
        cache.put_artifact("k", ".so", b"\x00")
        cache.put_artifact("k", ".c", b"int x;")
        cache.quarantine_artifacts("k")
        assert cache.get("k") is None
        assert cache.artifact_path("k", ".so") is None
        corrupt = sorted(p.name.split(".", 1)[1]
                         for p in cache.root.glob("??/*.corrupt"))
        assert corrupt == ["c.corrupt", "corrupt", "so.corrupt"]

    def test_artifacts_count_toward_size_budget(self, tmp_path):
        from repro.cache import DiskCache

        cache = DiskCache(tmp_path / "cache", max_bytes=1000)
        for k in range(4):
            cache.put_artifact(f"key{k}", ".so", bytes(600))
        survivors = [p for p in cache.root.glob("??/*")
                     if not p.name.endswith(".tmp")]
        assert sum(p.stat().st_size for p in survivors) <= 1000
        assert cache.stats()["evictions"] >= 2
