"""The batched, asynchronous native compile pipeline.

``test_native.py`` pins the per-kernel acquisition machinery; this
file pins the pipeline that amortizes it — multi-kernel translation
units behind one ``cc`` invocation (:func:`compile_requests` /
:func:`precompile`), the parallel shards such a batch compiles as,
per-signature entries that stay individually evictable next to the one
shared object they name, the background compile queue with hot-swap
and silent jit degradation, compiler re-resolution under ``REPRO_CC``, the
concurrent-writer atomicity of artifact groups, and the worker
right-sizing that fixed the jobs=2 sweep regression.  The differential
property at the bottom holds every acquisition mode — per-kernel sync,
batched precompile, async hot-swap — byte-identical to the bytes
oracle on random sweep configs.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import tempfile
import threading
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.bench.figures import figure_configs
from repro.bench.runner import RunPolicy, _right_sized_jobs
from repro.bench.synth import synthesize
from repro.cache import DiskCache, get_cache, set_cache_dir
from repro.machine import RunBindings, get_backend, numpy_available
from repro.simdize import SimdOptions, fill_random, make_space, simdize

from conftest import build_fig1

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="the native tier needs numpy")

if numpy_available():
    from repro.machine import compilequeue, jit, native

HAVE_CC = numpy_available() and native._compiler_identity()[0] is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no host C compiler")


@pytest.fixture(autouse=True)
def _fresh_pipeline():
    jit.clear_memory_cache()
    native.clear_memory_cache()
    compilequeue.set_async_compile(None)
    yield
    compilequeue.reset_queue()
    compilequeue.set_async_compile(None)
    jit.clear_memory_cache()
    native.clear_memory_cache()


def sweep_programs(count=2, trip=67, offset_reassoc=False):
    """Distinct-signature programs drawn from the fig11/fig12 space."""
    programs, seen = [], set()
    for _scheme, cfg in figure_configs(offset_reassoc, count=count,
                                       trip=trip):
        syn = synthesize(cfg.params, cfg.seed, cfg.V)
        result = simdize(syn.loop, cfg.V, cfg.options)
        sig = jit._cached_signature(result.program)
        if sig not in seen:
            seen.add(sig)
            programs.append(result.program)
    return programs


def run_native(program, seed=9):
    loop = program.source
    rand = random.Random(seed)
    space = make_space(loop, program.V, rand)
    mem = space.make_memory()
    fill_random(space, mem, rand)
    run = get_backend("native").run(program, space, mem, RunBindings())
    return mem.snapshot(), run.counters.as_dict(), run.used_fallback


class TestBatchedTranslationUnits:
    @needs_cc
    def test_precompile_batches_into_one_cc_invocation(self):
        """N cold signatures sharing (V, dtype) cost exactly one cc
        launch, and every kernel lands live in the memory cache."""
        programs = sweep_programs(count=2)
        assert len(programs) > 4
        before = dict(native.STATS)
        compiled = compilequeue.precompile(programs)
        assert compiled == len(programs)
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1
        assert native.STATS["tus"] == before["tus"] + 1
        assert native.STATS["tu_kernels"] == \
            before["tu_kernels"] + len(programs)
        for program in programs:
            kernel = native.get_native_kernel(program)
            assert kernel.cfn is not None
            assert kernel.meta.so_sha256

    @needs_cc
    def test_precompiled_kernels_match_bytes_oracle(self):
        programs = sweep_programs(count=1)
        compilequeue.precompile(programs)
        for program in programs:
            loop = program.source
            rand = random.Random(5)
            space = make_space(loop, program.V, rand)
            base = space.make_memory()
            fill_random(space, base, rand)
            runs = {}
            for name in ("bytes", "native"):
                mem = base.clone()
                run = get_backend(name).run(program, space, mem,
                                            RunBindings())
                runs[name] = (mem.snapshot(), run.counters.as_dict())
            assert runs["bytes"] == runs["native"]

    @needs_cc
    def test_per_signature_disk_entries_survive_memory_clear(self):
        """Each batch-mate reloads from its own disk group — zero
        further cc invocations after the batch compile."""
        programs = sweep_programs(count=1)
        compilequeue.precompile(programs)
        native.clear_memory_cache()
        before = dict(native.STATS)
        for program in programs:
            kernel = native.get_native_kernel(program)
            assert kernel.cfn is not None
        assert native.STATS["cc_invocations"] == before["cc_invocations"]
        assert native.STATS["disk_hits"] == \
            before["disk_hits"] + len(programs)

    @needs_cc
    def test_evicting_one_group_leaves_batch_mates_loadable(self):
        """Batch-mates name one shared object, not each other's
        entries: dropping one signature's entry cannot strand the
        others, and only the dropped signature recompiles."""
        programs = sweep_programs(count=1)
        assert len(programs) >= 2
        compilequeue.precompile(programs)
        cache = get_cache()
        identity = native._compiler_identity()[1]
        victim_key = native._disk_key(
            jit._cached_signature(programs[0]), identity)
        stem = cache._path(victim_key)
        for path in stem.parent.glob(stem.stem + "*"):
            path.unlink()
        native.clear_memory_cache()
        survivor = native.get_native_kernel(programs[1])   # disk load
        assert survivor.cfn is not None
        before = dict(native.STATS)
        evicted = native.get_native_kernel(programs[0])    # recompile
        assert evicted.cfn is not None
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1

    @needs_cc
    def test_batch_failure_isolates_the_culprit(self):
        """One unlowerable kernel in a batch falls back to singleton
        recompiles: batch-mates still land, only the culprit fails."""
        programs = sweep_programs(count=1)[:3]
        disk = get_cache()
        identity = native._compiler_identity()[1]
        requests = []
        for program in programs:
            signature = jit._cached_signature(program)
            key = native._disk_key(signature, identity)
            requests.append(native.build_request(
                signature, key, jit.get_kernel(program), program))
        requests[1].kernel_src = "void broken(void) { this is not C; }"
        loaded, failures, cc_s, _load_s = compilequeue.compile_requests(
            requests, disk)
        assert set(loaded) == {requests[0].signature,
                               requests[2].signature}
        assert set(failures) == {requests[1].signature}
        assert "exit" in failures[requests[1].signature]
        # one failed batch attempt + one singleton per request
        assert cc_s > 0.0


def cold_requests(programs):
    """Fresh compile requests for ``programs`` (no cache involved)."""
    identity = native._compiler_identity()[1]
    requests = []
    for program in programs:
        signature = jit._cached_signature(program)
        requests.append(native.build_request(
            signature, native._disk_key(signature, identity),
            jit.get_kernel(program), program))
    return requests


def fake_request(key, size, V=16, lane="int16"):
    return compilequeue.CompileRequest(
        signature=key, key=key, symbol=key, V=V, lane=lane,
        kernel_src="x" * size, prelude="", meta=None, jk=None)


@pytest.fixture
def cc_calls(monkeypatch):
    """Every argv handed to ``_run_cc``, in call order."""
    calls = []
    real = compilequeue._run_cc

    def spy(argv):
        calls.append(list(argv))
        return real(argv)

    monkeypatch.setattr(compilequeue, "_run_cc", spy)
    return calls


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(compilequeue, "_usable_cpus", lambda: count)


class TestShardedCompile:
    """A foreground batch compiles as parallel ``cc -c`` shards linked
    into one shared object; every count below is host-independent
    because the usable-CPU helper is patched."""

    def test_partition_is_deterministic_and_never_mixes_groups(self):
        sizes = [9000, 500, 7000, 7000, 3000, 12000, 100, 6500]
        requests = [fake_request(f"k{i}", size, lane=("int16", "int32")[i % 2])
                    for i, size in enumerate(sizes)]
        units = compilequeue.partition(requests, 5)
        # int32 carries more bytes, so it gets the third unit; each
        # group's kernels are dealt largest first to its lightest unit.
        assert [[r.key for r in unit] for unit in units] == [
            ["k0", "k6"], ["k2", "k4"], ["k5"], ["k3"], ["k1", "k7"]]
        assert all(len({(r.V, r.lane) for r in unit}) == 1 for unit in units)
        assert sorted(r.key for unit in units for r in unit) == \
            sorted(r.key for r in requests)
        assert [[r.key for r in unit] for unit in units] == \
            [[r.key for r in unit]
             for unit in compilequeue.partition(requests, 5)]
        # One shard is the unsharded layout: one unit per group, in
        # request order.
        assert [[r.key for r in unit]
                for unit in compilequeue.partition(requests, 1)] == \
            [[f"k{i}" for i in range(0, 8, 2)],
             [f"k{i}" for i in range(1, 8, 2)]]

    def test_shard_count_rules(self, monkeypatch):
        floor = compilequeue.SHARD_FLOOR
        use_cpus(monkeypatch, 4)
        big = [fake_request(f"k{i}", floor) for i in range(8)]
        assert compilequeue.shard_count(big) == 4
        assert compilequeue.shard_count(big[:1]) == 1
        assert compilequeue.shard_count(big[:3]) == 3
        small = [fake_request(f"k{i}", floor // 8) for i in range(8)]
        assert compilequeue.shard_count(small) == 1
        use_cpus(monkeypatch, 1)
        assert compilequeue.shard_count(big) == 1

    @needs_cc
    def test_one_cpu_builds_one_shard_in_one_process(self, monkeypatch,
                                                     cc_calls):
        use_cpus(monkeypatch, 1)
        requests = cold_requests(sweep_programs(count=2))
        before = dict(native.STATS)
        loaded, failures, _cc_s, _load_s = compilequeue.compile_requests(
            requests, None)
        assert not failures and len(loaded) == len(requests)
        assert len(cc_calls) == 1
        assert "-shared" in cc_calls[0] and "-c" not in cc_calls[0]
        assert native.STATS["cc_shards"] == before["cc_shards"] + 1
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1

    @needs_cc
    def test_four_cpus_shard_the_fig11_batch(self, monkeypatch, cc_calls):
        use_cpus(monkeypatch, 4)
        requests = cold_requests(sweep_programs(count=2))
        shards = compilequeue.shard_count(requests)
        assert 1 < shards <= 4
        before = dict(native.STATS)
        loaded, failures, _cc_s, _load_s = compilequeue.compile_requests(
            requests, None)
        assert not failures and len(loaded) == len(requests)
        assert native.STATS["cc_shards"] == before["cc_shards"] + shards
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1
        assert native.STATS["tus"] == before["tus"] + 1
        assert len({meta.so_sha256 for _fns, meta in loaded.values()}) == 1
        compiles = [argv for argv in cc_calls if "-c" in argv]
        links = [argv for argv in cc_calls if "-shared" in argv]
        assert len(compiles) == shards and len(links) == 1
        # Fixed link order, and the optimization flags reach the link.
        objects = links[0][-shards:]
        assert all(obj.endswith(f"_s{k}.o") for k, obj in enumerate(objects))
        flags = list(native.compiler_flags())
        assert links[0][1:1 + len(flags)] == flags

    @needs_cc
    def test_single_kernel_stays_one_process(self, monkeypatch, cc_calls):
        use_cpus(monkeypatch, 4)
        requests = cold_requests(sweep_programs(count=1))
        assert compilequeue.shard_count(requests[:3]) == 1   # below floor
        before = dict(native.STATS)
        loaded, failures, _cc_s, _load_s = compilequeue.compile_requests(
            requests[:1], None)
        assert not failures and len(loaded) == 1
        assert len(cc_calls) == 1 and "-c" not in cc_calls[0]
        assert native.STATS["cc_shards"] == before["cc_shards"] + 1

    @needs_cc
    def test_sharded_kernels_match_bytes_oracle(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        programs = sweep_programs(count=1)
        before = dict(native.STATS)
        assert compilequeue.precompile(programs) == len(programs)
        assert native.STATS["cc_shards"] - before["cc_shards"] > 1
        for program in programs:
            rand = random.Random(11)
            space = make_space(program.source, program.V, rand)
            base = space.make_memory()
            fill_random(space, base, rand)
            runs = {}
            for name in ("bytes", "native"):
                mem = base.clone()
                run = get_backend(name).run(program, space, mem,
                                            RunBindings())
                runs[name] = (mem.snapshot(), run.counters.as_dict(),
                              run.used_fallback)
            assert runs["bytes"][:2] == runs["native"][:2]
            assert not runs["native"][2]

    @needs_cc
    def test_broken_kernel_spares_the_other_shards(self, monkeypatch):
        """Only the failed shard's requests go to singleton recompiles;
        every other shard links and lands from the one batch."""
        use_cpus(monkeypatch, 4)
        requests = cold_requests(sweep_programs(count=2))
        culprit = requests[5]
        culprit.kernel_src = "void broken(void) { this is not C; }"
        shards = compilequeue.shard_count(requests)
        assert shards > 1
        unit = next(unit for unit in compilequeue.partition(requests, shards)
                    if culprit in unit)
        singletons = []
        real = compilequeue.compile_requests

        def spy(batch, disk, **kwargs):
            if len(batch) == 1:
                singletons.append(batch[0].signature)
            return real(batch, disk, **kwargs)

        monkeypatch.setattr(compilequeue, "compile_requests", spy)
        before = dict(native.STATS)
        loaded, failures, _cc_s, _load_s = compilequeue.compile_requests(
            requests, None)
        assert set(failures) == {culprit.signature}
        assert "exit" in failures[culprit.signature]
        assert set(loaded) == {r.signature for r in requests} - set(failures)
        expected = {r.signature for r in unit} if len(unit) > 1 else set()
        assert set(singletons) == expected
        assert native.STATS["cc_invocations"] == \
            before["cc_invocations"] + 1 + len(singletons)
        assert not list(native._workdir().glob("build_*"))

    @needs_cc
    def test_async_queue_compiles_with_one_shard(self, monkeypatch,
                                                 cc_calls):
        use_cpus(monkeypatch, 4)
        requests = cold_requests(sweep_programs(count=2))
        assert compilequeue.shard_count(requests) > 1
        before = dict(native.STATS)
        compilequeue._QUEUE._compile_batch(requests, {})
        assert native.STATS["async_failures"] == before["async_failures"]
        assert native.STATS["cc_shards"] == before["cc_shards"] + 1
        assert len(cc_calls) == 1 and "-c" not in cc_calls[0]

    @needs_cc
    def test_workdir_keeps_only_the_shared_object(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        requests = cold_requests(sweep_programs(count=1))
        loaded, failures, _cc_s, _load_s = compilequeue.compile_requests(
            requests, None)
        assert not failures
        work = native._workdir()
        assert not list(work.rglob("*.o"))
        assert not list(work.rglob("tu_*.c"))
        assert not list(work.glob("build_*"))
        digest = next(iter(loaded.values()))[1].so_sha256
        assert any(hashlib.sha256(path.read_bytes()).hexdigest() == digest
                   for path in work.glob("tu_*.so"))

    @needs_cc
    def test_fresh_processes_build_identical_objects(self, tmp_path):
        """Two cold processes compiling one sharded batch produce the
        same object digest (perfbench's exact byte counts rely on it)."""
        import os
        import subprocess
        import sys
        import textwrap

        root = Path(__file__).resolve().parent.parent
        code = textwrap.dedent("""
            from repro.bench.figures import figure_configs
            from repro.bench.synth import synthesize
            from repro.machine import compilequeue, jit, native
            from repro.simdize import simdize

            compilequeue._usable_cpus = lambda: 4
            programs = {}
            for _scheme, cfg in figure_configs(False, count=1, trip=67):
                loop = synthesize(cfg.params, cfg.seed, cfg.V).loop
                program = simdize(loop, cfg.V, cfg.options).program
                programs.setdefault(jit._cached_signature(program), program)
            identity = native._compiler_identity()[1]
            requests = [native.build_request(
                sig, native._disk_key(sig, identity), jit.get_kernel(p), p)
                for sig, p in programs.items()]
            loaded, failures, _, _ = compilequeue.compile_requests(
                requests, None)
            assert not failures, failures
            digests = {meta.so_sha256 for _fns, meta in loaded.values()}
            print(native.STATS["cc_shards"], *digests)
        """)
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        outputs = []
        for _ in range(2):
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True, env=env,
                                  cwd=str(tmp_path), timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert outputs[0] == outputs[1]
        shards, digest = outputs[0]
        assert int(shards) > 1 and len(digest) == 64


class TestAsyncQueue:
    @needs_cc
    def test_hot_swap_lands_after_drain(self):
        program = simdize(build_fig1(trip=83), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        compilequeue.set_async_compile(True)
        before = dict(native.STATS)
        kernel = native.get_native_kernel(program)
        assert kernel.pending and kernel.cfn is None
        assert compilequeue.drain(timeout=60.0)
        assert kernel.cfn is not None and not kernel.pending
        assert native.STATS["hot_swaps"] == before["hot_swaps"] + 1
        assert native.STATS["async_compiles"] == \
            before["async_compiles"] + 1
        snap, counters, fallback = run_native(program)
        assert not fallback

    @needs_cc
    def test_inflight_dedup_returns_one_placeholder(self):
        program = simdize(build_fig1(trip=89), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        compilequeue.set_async_compile(True)
        before = dict(native.STATS)
        k1 = native.get_native_kernel(program)
        k2 = native.get_native_kernel(program)
        assert k1 is k2
        assert native.STATS["async_compiles"] == \
            before["async_compiles"] + 1
        assert compilequeue.drain(timeout=60.0)

    @needs_cc
    def test_pending_kernel_executes_on_jit_immediately(self, monkeypatch):
        """While the compile is in flight the kernel delegates to jit —
        same bytes, no degradation, no waiting."""
        gate = threading.Event()
        real = compilequeue.compile_requests

        def gated(requests, disk, **kwargs):
            gate.wait(timeout=60.0)
            return real(requests, disk, **kwargs)

        monkeypatch.setattr(compilequeue, "compile_requests", gated)
        program = simdize(build_fig1(trip=97), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        compilequeue.set_async_compile(True)
        kernel = native.get_native_kernel(program)
        assert kernel.pending
        jit_run = get_backend("jit")
        loop = program.source
        rand = random.Random(3)
        space = make_space(loop, program.V, rand)
        base = space.make_memory()
        fill_random(space, base, rand)
        mem_native, mem_jit = base.clone(), base.clone()
        native_run = get_backend("native").run(program, space, mem_native,
                                               RunBindings())
        jitted = jit_run.run(program, space, mem_jit, RunBindings())
        assert mem_native.snapshot() == mem_jit.snapshot()
        assert native_run.counters.as_dict() == jitted.counters.as_dict()
        gate.set()
        assert compilequeue.drain(timeout=60.0)
        assert kernel.cfn is not None

    @needs_cc
    def test_async_failure_is_silent_and_memoized(self, monkeypatch):
        """A broken compiler in the background queue leaves the kernel
        a permanent jit delegate — results intact, failure memoized,
        nothing raised anywhere near the run."""
        def broken_cc(cmd, **kwargs):
            return types.SimpleNamespace(returncode=1, stdout="",
                                         stderr="ICE: exploding compiler")

        monkeypatch.setattr(compilequeue, "_run_cc", broken_cc)
        program = simdize(build_fig1(trip=101), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        compilequeue.set_async_compile(True)
        before = dict(native.STATS)
        kernel = native.get_native_kernel(program)
        assert compilequeue.drain(timeout=60.0)
        assert kernel.cfn is None and not kernel.pending
        assert native.STATS["async_failures"] == \
            before["async_failures"] + 1
        key = native._disk_key(jit._cached_signature(program),
                               native._compiler_identity()[1])
        assert key in native._FAILED
        snap, counters, fallback = run_native(program)
        assert not fallback   # jit delegation is not a degradation

    @needs_cc
    def test_precompile_is_a_noop_in_async_mode(self):
        compilequeue.set_async_compile(True)
        programs = sweep_programs(count=1)[:2]
        assert compilequeue.precompile(programs) == 0

    def test_precompile_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_PRECOMPILE", "0")
        assert not compilequeue.precompile_enabled()
        programs = sweep_programs(count=1)[:1]
        assert compilequeue.precompile(programs) == 0


class TestCompilerResolution:
    @needs_cc
    def test_repro_cc_override_wins_and_tracks_env(self, monkeypatch):
        """REPRO_CC names the compiler; changing it mid-process
        re-resolves instead of serving the stale memo."""
        cc, _identity = native._compiler_identity()
        monkeypatch.setenv("REPRO_CC", cc)
        native.reset_compiler_cache()
        assert native._compiler_identity()[0] == cc
        monkeypatch.delenv("REPRO_CC")
        # memo keyed on the env request: deleting the var re-probes
        assert native._compiler_identity()[0] is not None

    @needs_cc
    def test_reset_compiler_cache_unpoisons_failures(self, monkeypatch):
        def broken_cc(cmd, **kwargs):
            return types.SimpleNamespace(returncode=1, stdout="",
                                         stderr="transient tool failure")

        program = simdize(build_fig1(trip=103), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        monkeypatch.setattr(compilequeue, "_run_cc", broken_cc)
        with pytest.raises(native.NativeUnavailable):
            native.get_native_kernel(program)
        assert native._FAILED
        monkeypatch.undo()
        native.reset_compiler_cache()
        assert not native._FAILED
        native.clear_memory_cache()
        kernel = native.get_native_kernel(program)
        assert kernel.cfn is not None


# ---------------------------------------------------------------------------
# Concurrent artifact-group writers (multi-process put_artifact race)
# ---------------------------------------------------------------------------

#: A content-addressed group every racing writer files identically
#: (as every process compiling one batch files the same object), plus
#: the per-worker entries naming it.
SHARED_KEY = "native-tu:" + "ab" * 32
SHARED_SO = b"SHARED-SO" * 300
SHARED_C = b"/* shared unit */\n" * 64
SHARED_REFS = 8


def _race_writer(root: str, key: str, worker: int, rounds: int) -> None:
    cache = DiskCache(root)
    payload = (b"/* worker %d */\n" % worker) * 64
    with tempfile.NamedTemporaryFile(dir=root, delete=False) as tmp:
        tmp.write(b"SO-%d" % worker * 256)
        src = Path(tmp.name)
    with tempfile.NamedTemporaryFile(dir=root, delete=False) as tmp:
        tmp.write(SHARED_SO)
        shared_src = Path(tmp.name)
    for _ in range(rounds):
        cache.put_artifact(key, ".c", payload)
        cache.put_artifact_file(key, ".so", src)
        cache.put(key, {"worker": worker})
        cache.put_artifact(SHARED_KEY, ".c", SHARED_C)
        cache.put_artifact_file(SHARED_KEY, ".so", shared_src)
        for ref in range(SHARED_REFS):
            cache.put(f"ref-{worker}-{ref}", {"so": SHARED_KEY})


class TestArtifactRaces:
    def test_concurrent_group_writers_never_corrupt(self, tmp_path):
        """N processes hammering one key's artifact group leave exactly
        one intact group: every surviving file is some writer's
        complete payload (os.replace atomicity — no interleaving, no
        torn pairs, no stray tmp files).  The same holds for a
        content-addressed group all of them rewrite while filing many
        entries that name it."""
        root = tmp_path / "race-cache"
        root.mkdir()
        key = "deadbeef" * 8
        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(target=_race_writer,
                        args=(str(root), key, w, 25))
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        cache = DiskCache(root)
        entry = cache.get(key)
        assert entry is not None and entry["worker"] in range(4)
        c_path = cache.artifact_path(key, ".c")
        so_path = cache.artifact_path(key, ".so")
        assert c_path is not None and so_path is not None
        c_bytes = c_path.read_bytes()
        assert c_bytes in [(b"/* worker %d */\n" % w) * 64
                           for w in range(4)]
        so_bytes = so_path.read_bytes()
        assert so_bytes in [b"SO-%d" % w * 256 for w in range(4)]
        leftovers = list(root.rglob("*.tmp"))
        assert leftovers == []
        # exactly one group under the key's digest stem
        stem = cache._path(key)
        group = sorted(p.name for p in stem.parent.iterdir()
                       if not p.name.endswith(".tmp"))
        assert group == sorted([stem.name, stem.stem + ".c",
                                stem.stem + ".so"])
        # The group shared by many keys is intact, artifact-only, and
        # every key naming it resolves.
        shared = cache._path(SHARED_KEY)
        assert sorted(p.name for p in shared.parent.iterdir()
                      if p.name.startswith(shared.stem)) == \
            sorted([shared.stem + ".c", shared.stem + ".so"])
        assert cache.artifact_path(SHARED_KEY, ".so").read_bytes() == \
            SHARED_SO
        assert cache.artifact_path(SHARED_KEY, ".c").read_bytes() == \
            SHARED_C
        for worker in range(4):
            for ref in range(SHARED_REFS):
                assert cache.get(f"ref-{worker}-{ref}") == \
                    {"so": SHARED_KEY}


# ---------------------------------------------------------------------------
# Worker right-sizing (the jobs=2 < serial fix)
# ---------------------------------------------------------------------------

class TestRightSizedJobs:
    def test_caps_at_cpu_count(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        assert _right_sized_jobs(8, RunPolicy()) == 2
        assert _right_sized_jobs(2, RunPolicy()) == 2
        assert _right_sized_jobs(1, RunPolicy()) == 1

    def test_timeout_policy_passes_through(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
        assert _right_sized_jobs(4, RunPolicy(timeout=5.0)) == 4

    def test_armed_faults_pass_through(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_FAULT", "compile:raise")
        faults.reload()
        try:
            assert _right_sized_jobs(4, RunPolicy()) == 4
        finally:
            monkeypatch.delenv("REPRO_FAULT")
            faults.reload()

    def test_none_cpu_count_degrades_to_serial(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setattr(runner.os, "cpu_count", lambda: None)
        assert _right_sized_jobs(4, RunPolicy()) == 1


# ---------------------------------------------------------------------------
def _class_items(trips, seed=11, loads=3):
    """One signature class of (program, space, mem, bindings) rows.

    Runtime-trip configs differing only in trip share a structural
    signature, so they batch as one class with ragged trip counts.
    """
    from repro.bench.synth import SynthParams
    from repro.ir.types import INT32

    options = SimdOptions(policy="eager", reuse="sp")
    items = []
    for trip in trips:
        params = SynthParams(loads=loads, statements=1, trip=trip,
                             bias=0.3, reuse=0.3, dtype=INT32,
                             runtime_trip=True)
        syn = synthesize(params, seed, 16)
        result = simdize(syn.loop, 16, options)
        rand = random.Random(seed ^ 0x5EED)
        space = make_space(syn.loop, 16, rand, syn.base_residues)
        mem = space.make_memory()
        fill_random(space, mem, rand)
        items.append((result.program, space, mem, RunBindings(trip=trip)))
    return items


@needs_cc
class TestBatchAcquisitionModes:
    """run_batch across acquisition modes: pending classes batch on the
    jit tier, landed classes run one whole-run C call per config — same
    bytes."""

    def _oracle(self, items):
        mems = [mem.clone() for _, _, mem, _ in items]
        runs = [get_backend("bytes").run(p, s, m, b)
                for (p, s, _, b), m in zip(items, mems)]
        return [(m.snapshot(), r.counters.as_dict(), r.trip)
                for m, r in zip(mems, runs)]

    def _native_batch(self, items):
        mems = [mem.clone() for _, _, mem, _ in items]
        runs = get_backend("native").run_batch([
            (p, s, m, b) for (p, s, _, b), m in zip(items, mems)])
        return [(m.snapshot(), r.counters.as_dict(), r.trip)
                for m, r in zip(mems, runs)]

    def test_pending_class_batches_on_jit_then_hot_swaps(self, monkeypatch):
        gate = threading.Event()
        real = compilequeue.compile_requests

        def gated(requests, disk, **kwargs):
            gate.wait(timeout=60.0)
            return real(requests, disk, **kwargs)

        monkeypatch.setattr(compilequeue, "compile_requests", gated)
        items = _class_items((51, 67, 83))
        oracle = self._oracle(items)
        compilequeue.set_async_compile(True)
        kernel = native.get_native_kernel(items[0][0])
        assert kernel.pending and kernel.rfn is None
        before = dict(native.STATS)
        # In-flight compile: the class batches on jit's kernel, byte-
        # identical, and no C function is called.
        assert self._native_batch(items) == oracle
        assert native.STATS["whole_runs"] == before["whole_runs"]
        gate.set()
        assert compilequeue.drain(timeout=60.0)
        assert kernel.rfn is not None and kernel.cfn is not None
        before = dict(native.STATS)
        assert self._native_batch(items) == oracle
        assert native.STATS["whole_runs"] == before["whole_runs"] + 3

    def test_precompiled_class_batches_through_driver(self):
        items = _class_items((45, 61), seed=13)
        assert compilequeue.precompile([items[0][0]]) == 1
        kernel = native.get_native_kernel(items[0][0])
        assert kernel.rfn is not None and kernel.cfn is not None
        oracle = self._oracle(items)
        before = dict(native.STATS)
        assert self._native_batch(items) == oracle
        assert native.STATS["whole_runs"] == before["whole_runs"] + 2

    def test_disk_loaded_kernel_drives_batches(self):
        with tempfile.TemporaryDirectory() as tmp:
            set_cache_dir(Path(tmp))
            try:
                items = _class_items((45, 61), seed=17)
                oracle = self._oracle(items)
                assert self._native_batch(items) == oracle
                # A fresh process image: the memory cache clears, the
                # .so reloads from the artifact group with both symbols
                # bound.
                native.clear_memory_cache()
                before = dict(native.STATS)
                assert self._native_batch(items) == oracle
                assert native.STATS["disk_hits"] == before["disk_hits"] + 1
                assert (native.STATS["whole_runs"]
                        == before["whole_runs"] + 2)
            finally:
                set_cache_dir(None)


# Differential: every acquisition mode is byte-identical
# ---------------------------------------------------------------------------

@needs_cc
class TestModeDifferential:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(offset_reassoc=st.booleans(),
           trip=st.integers(min_value=17, max_value=257),
           index=st.integers(min_value=0, max_value=23))
    def test_acquisition_mode_never_changes_bytes(self, tmp_path_factory,
                                                  offset_reassoc, trip,
                                                  index):
        """per-kernel sync vs batched precompile vs async hot-swap:
        identical memory images and counters, all equal to the bytes
        oracle, on random fig11/fig12 configs."""
        pairs = figure_configs(offset_reassoc, count=1, trip=trip)
        _scheme, cfg = pairs[index % len(pairs)]
        syn = synthesize(cfg.params, cfg.seed, cfg.V)
        program = simdize(syn.loop, cfg.V, cfg.options).program
        loop = program.source
        rand = random.Random(cfg.seed ^ 0x5EED)
        space = make_space(loop, cfg.V, rand, syn.base_residues)
        base = space.make_memory()
        fill_random(space, base, rand)
        bindings = RunBindings(
            trip=cfg.params.trip if loop.runtime_upper else None)

        def run_once(name):
            mem = base.clone()
            run = get_backend(name).run(program, space, mem, bindings)
            return mem.snapshot(), run.counters.as_dict(), run.trip

        oracle = run_once("bytes")
        results = {}
        for mode in ("per-kernel", "batched", "async"):
            set_cache_dir(tmp_path_factory.mktemp(f"mode-{mode}"))
            jit.clear_memory_cache()
            native.clear_memory_cache()
            try:
                if mode == "batched":
                    assert compilequeue.precompile([program]) == 1
                elif mode == "async":
                    compilequeue.set_async_compile(True)
                    native.get_native_kernel(program)
                    assert compilequeue.drain(timeout=60.0)
                results[mode] = run_once("native")
                kernel = native.get_native_kernel(program)
                assert kernel.cfn is not None, mode
            finally:
                compilequeue.set_async_compile(None)
        for mode, got in results.items():
            assert got == oracle, f"{mode} diverged from bytes oracle"


# ---------------------------------------------------------------------------
# The cc wall-clock budget (REPRO_CC_TIMEOUT)
# ---------------------------------------------------------------------------

class TestCcTimeout:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_TIMEOUT", raising=False)
        assert native.cc_timeout() == native._CC_TIMEOUT_DEFAULT
        monkeypatch.setenv("REPRO_CC_TIMEOUT", "7.5")
        assert native.cc_timeout() == 7.5
        for bad in ("0", "-3", "junk", ""):
            monkeypatch.setenv("REPRO_CC_TIMEOUT", bad)
            assert native.cc_timeout() == native._CC_TIMEOUT_DEFAULT

    @needs_cc
    def test_hung_cc_is_killed_and_run_degrades(self, tmp_path, monkeypatch):
        """A compiler that hangs is killed at the budget: the whole
        process group dies, the signature is charged as an ordinary cc
        failure (memoized, degradable), and the stats record the kill."""
        from repro import run_and_verify

        fake = tmp_path / "hangcc"
        fake.write_text(
            '#!/bin/sh\n'
            'for a in "$@"; do\n'
            '  [ "$a" = --version ] && { echo fakecc 1.0; exit 0; }\n'
            'done\n'
            'sleep 30\n')
        fake.chmod(0o755)
        monkeypatch.setenv("REPRO_CC", str(fake))
        monkeypatch.setenv("REPRO_CC_TIMEOUT", "0.3")
        native.reset_compiler_cache()
        before = native.STATS["cc_timeouts"]
        program = simdize(build_fig1(trip=107), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        with pytest.raises(native.NativeUnavailable, match="timed out"):
            native.get_native_kernel(program)
        assert native.STATS["cc_timeouts"] > before
        # Same toolchain, resilient chain: the run degrades to jit and
        # still verifies instead of hanging for the sleep's 30 s.
        report = run_and_verify(program, backend="native")
        assert report.fallback is not None
        assert report.fallback["phase"] == "compile"
        assert report.fallback["tier"] == "jit"
        monkeypatch.undo()
        native.reset_compiler_cache()


# ---------------------------------------------------------------------------
# Deterministic queue shutdown (atexit) — PR 10 satellite
# ---------------------------------------------------------------------------

class TestQueueShutdown:
    def test_shutdown_is_idempotent(self):
        assert compilequeue.shutdown(timeout=5.0)
        assert compilequeue.shutdown(timeout=5.0)   # second call: no-op True

    @needs_cc
    def test_submit_after_shutdown_finalizes_jit_delegate(self):
        """Work arriving during interpreter teardown is not orphaned in
        a pending state: the placeholder becomes a permanent jit
        delegate and runs stay byte-correct."""
        program = simdize(build_fig1(trip=109), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        compilequeue.set_async_compile(True)
        assert compilequeue.shutdown(timeout=5.0)
        kernel = native.get_native_kernel(program)
        assert not kernel.pending and kernel.cfn is None
        snap, counters, fallback = run_native(program)
        assert not fallback

    @needs_cc
    def test_reset_queue_revives_after_shutdown(self):
        assert compilequeue.shutdown(timeout=5.0)
        compilequeue.reset_queue()
        program = simdize(build_fig1(trip=113), 16,
                          SimdOptions(policy="zero", reuse="sp")).program
        compilequeue.set_async_compile(True)
        kernel = native.get_native_kernel(program)
        assert kernel.pending
        assert compilequeue.drain(timeout=60.0)
        assert kernel.cfn is not None

    @needs_cc
    def test_interpreter_exit_is_clean_with_inflight_async(self, tmp_path):
        """Exiting mid-async-compile must not spray 'Exception ignored'
        teardown noise: the atexit hook drains the daemon worker
        deterministically before module globals are torn down."""
        import os
        import subprocess
        import sys
        import textwrap

        root = Path(__file__).resolve().parent.parent
        code = textwrap.dedent("""
            from repro.lang import compile_source
            from repro.machine import native
            from repro.simdize import SimdOptions, simdize

            src = ("int a[256]; int b[256]; int c[256]; "
                   "for (i = 0; i < 150; i++) { a[i] = b[i+1] + c[i+2]; }")
            program = simdize(compile_source(src), 16, SimdOptions()).program
            kernel = native.get_native_kernel(program)
            print("queued:", kernel.pending)
            # exit immediately: no drain, the compile may be in flight
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(root / "src"),
                   REPRO_NATIVE_ASYNC="1",
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              cwd=str(root), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "queued:" in proc.stdout
        assert "Exception ignored" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
