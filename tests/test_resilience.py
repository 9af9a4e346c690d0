"""Fault-tolerant sweep execution (DESIGN.md §6).

Every recovery path is driven end to end with injected faults
(``repro.faults``) and must reproduce the *exact* numbers of a
fault-free run: the degradation chain re-executes on a byte-identical
tier, the supervised pool re-runs deterministic configs, and resumed
checkpoints splice JSON-exact measurements.  Resilience must never
buy survival with different results.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.bench.runner import (
    FailedMeasurement,
    Measurement,
    RunPolicy,
    SweepConfig,
    measure_many,
)
from repro.bench.synth import SynthParams
from repro.cache import DiskCache
from repro.errors import FaultInjected, MachineError, VerificationError
from repro.machine.backend import (
    get_resilient_backend,
    get_resilient_scalar_backend,
    numpy_available,
)
from repro.machine.scalar import RunBindings
from repro.profiling import PhaseProfile
from repro.simdize import SimdOptions, fill_random, make_space, simdize
from repro.simdize.verify import verify_equivalence

from conftest import build_fig1

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")


@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    faults.reload()
    yield
    faults.reload()


def _arm(monkeypatch, spec: str) -> None:
    monkeypatch.setenv("REPRO_FAULT", spec)
    faults.reload()


def _verify(backend="auto", scalar_backend="auto", profile=None):
    loop = build_fig1()
    space = make_space(loop, 16)
    mem = space.make_memory()
    fill_random(space, mem, random.Random(3))
    result = simdize(loop, 16, SimdOptions())
    return verify_equivalence(result.program, space, mem,
                              backend=backend,
                              scalar_backend=scalar_backend,
                              profile=profile)


def _sweep_configs(n=4, trip=35):
    params = SynthParams(loads=2, statements=1, trip=trip)
    return [SweepConfig(params, seed, SimdOptions(), 16, "EAGER")
            for seed in range(n)]


class TestDegradationChain:
    @needs_numpy
    def test_compile_fault_degrades_jit_to_numpy(self, monkeypatch):
        # Faulted run first: a clean run would warm the kernel cache
        # and the cached kernel would never reach the compile hook.
        _arm(monkeypatch, "compile:raise")
        profile = PhaseProfile()
        report = _verify(backend="jit", profile=profile)
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        clean = _verify(backend="jit")
        assert report.fallback is not None
        assert report.fallback["tier"] == "numpy"
        assert report.fallback["phase"] == "compile"
        assert report.fallback["failed"] == ("jit",)
        assert "FaultInjected" in report.fallback["reason"]
        assert (report.vector_ops, report.scalar_ops) == \
            (clean.vector_ops, clean.scalar_ops)
        assert profile.counts["degraded"] == 1
        assert profile.counts["degraded_to_numpy"] == 1

    @needs_numpy
    def test_double_fault_degrades_to_bytes_oracle(self, monkeypatch):
        _arm(monkeypatch, "compile:raise,execute:raise")
        report = _verify(backend="jit")
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        clean = _verify(backend="jit")
        assert report.fallback is not None
        assert report.fallback["tier"] == "bytes"
        assert report.fallback["failed"] == ("jit", "numpy")
        assert (report.vector_ops, report.scalar_ops) == \
            (clean.vector_ops, clean.scalar_ops)

    def test_clean_run_records_no_fallback(self):
        report = _verify()
        assert report.fallback is None
        assert report.scalar_fallback is None

    @needs_numpy
    def test_scalar_reference_degrades_too(self, monkeypatch):
        from repro.machine import npscalar

        clean = _verify(scalar_backend="numpy")

        def boom(self, loop, space, mem, bindings=None):
            raise RuntimeError("scalar engine down")

        monkeypatch.setattr(npscalar.NumpyScalarBackend, "run", boom)
        profile = PhaseProfile()
        report = _verify(scalar_backend="numpy", profile=profile)
        assert report.scalar_fallback is not None
        assert report.scalar_fallback["tier"] == "bytes"
        assert report.scalar_ops == clean.scalar_ops
        assert profile.counts["scalar_degraded"] == 1

    def test_last_tier_errors_propagate(self, monkeypatch):
        from repro.machine import backend as backend_mod

        def boom(self, program, space, mem, bindings=None, trace=None):
            raise MachineError("oracle is broken")

        monkeypatch.setattr(backend_mod.BytesBackend, "run", boom)
        engine = get_resilient_backend("bytes")
        loop = build_fig1()
        space = make_space(loop, 16)
        mem = space.make_memory()
        result = simdize(loop, 16, SimdOptions())
        with pytest.raises(MachineError, match="oracle is broken"):
            engine.run(result.program, space, mem, RunBindings())

    def test_unknown_names_still_rejected(self):
        with pytest.raises(MachineError, match="unknown execution backend"):
            get_resilient_backend("cuda")
        with pytest.raises(MachineError, match="unknown scalar backend"):
            get_resilient_scalar_backend("cuda")

    @needs_numpy
    def test_memory_restored_between_tiers(self, monkeypatch):
        # The failing tier may have partially executed; the next tier
        # must start from the pre-attempt image or bytes would diverge.
        _arm(monkeypatch, "execute:raise")
        report = _verify(backend="numpy")  # verifies memory equality
        assert report.fallback["tier"] == "bytes"


class TestSupervisedSweep:
    def test_worker_kill_degrades_to_serial_with_same_rows(self, monkeypatch):
        configs = _sweep_configs()
        clean = measure_many(configs, jobs=2)
        _arm(monkeypatch, "worker:kill")
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=2, profile=profile)
        assert rows == clean
        assert profile.counts["pool_restarts"] >= 1
        assert profile.counts["serial_fallbacks"] == 1

    def test_pool_breaking_mid_submit_requeues_the_rest(self, monkeypatch):
        """A worker can die while its round is still being submitted:
        ``submit`` then raises, and the unsubmitted chunks must wait
        for the next round instead of escaping from the sweep."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        from repro.bench import runner

        class BreakingPool:
            def __init__(self, max_workers):
                self.submitted = 0

            def submit(self, fn, *args):
                self.submitted += 1
                if self.submitted > 1:
                    raise BrokenProcessPool("a worker died")
                future = Future()
                future.set_exception(BrokenProcessPool("a worker died"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        configs = _sweep_configs()
        clean = measure_many(configs, jobs=1)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(runner, "ProcessPoolExecutor", BreakingPool)
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=2, profile=profile)
        assert rows == clean
        assert profile.counts["serial_fallbacks"] == 1

    def test_transient_fault_is_retried_away(self, monkeypatch):
        configs = _sweep_configs()
        clean = measure_many(configs, jobs=1)
        _arm(monkeypatch, "worker:raise:once")
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=1, profile=profile)
        assert rows == clean
        assert profile.counts["task_splits"] + \
            profile.counts.get("retries", 0) >= 1

    def test_persistent_fault_yields_failed_rows(self, monkeypatch, capsys):
        configs = _sweep_configs(n=2)
        _arm(monkeypatch, "worker:raise")
        policy = RunPolicy(max_retries=1)
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=1, run_policy=policy, profile=profile)
        assert all(isinstance(r, FailedMeasurement) for r in rows)
        assert all(r.error == "FaultInjected" for r in rows)
        assert all(r.attempts == 2 for r in rows)  # initial + 1 retry
        assert profile.counts["failed_configs"] == 2
        err = capsys.readouterr().err
        assert "2/2 sweep configs failed" in err
        assert "FaultInjected" in err

    def test_failed_rows_expose_their_config(self, monkeypatch):
        configs = _sweep_configs(n=1)
        _arm(monkeypatch, "worker:raise")
        rows = measure_many(configs, jobs=1, run_policy=RunPolicy(max_retries=0))
        assert rows[0].config == configs[0]
        assert rows[0].scheme == "EAGER"
        assert "worker" in rows[0].message

    @needs_numpy
    def test_batched_sweep_survives_compile_faults(self, monkeypatch):
        configs = _sweep_configs()
        clean = measure_many(configs, jobs=1, sweep_mode="periter")
        _arm(monkeypatch, "compile:raise")
        rows = measure_many(configs, jobs=1, sweep_mode="batched")
        assert rows == clean

    def test_bad_fault_grammar_fails_fast(self, monkeypatch):
        from repro.errors import SimdalError

        _arm(monkeypatch, "nope")
        with pytest.raises(SimdalError, match="REPRO_FAULT"):
            measure_many(_sweep_configs(n=1), jobs=1)

    def test_all_configs_failing_raises_from_suite(self, monkeypatch):
        from repro.bench.runner import measure_suite
        from repro.bench.synth import synthesize_suite
        from repro.errors import BenchError

        suite = synthesize_suite(SynthParams(loads=2, trip=35), 2, 0, 16)
        _arm(monkeypatch, "worker:raise")
        with pytest.raises(BenchError, match="failed after retries"):
            measure_suite(suite, SimdOptions(), scheme="EAGER",
                          run_policy=RunPolicy(max_retries=0))


class TestCheckpointResume:
    def test_resume_splices_journaled_rows(self, tmp_path):
        configs = _sweep_configs()
        clean = measure_many(configs, jobs=1)
        journal = tmp_path / "sweep.jsonl"
        half = measure_many(configs[:2], jobs=1,
                            run_policy=RunPolicy(checkpoint=journal))
        assert half == clean[:2]
        assert len(journal.read_text().splitlines()) == 2
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=1, profile=profile,
                            run_policy=RunPolicy(checkpoint=journal, resume=True))
        assert rows == clean  # JSON round-trip must be float-exact
        assert profile.counts["checkpoint_hits"] == 2
        assert len(journal.read_text().splitlines()) == 4

    def test_without_resume_everything_is_remeasured(self, tmp_path):
        configs = _sweep_configs(n=2)
        journal = tmp_path / "sweep.jsonl"
        measure_many(configs, jobs=1, run_policy=RunPolicy(checkpoint=journal))
        profile = PhaseProfile()
        measure_many(configs, jobs=1, profile=profile,
                     run_policy=RunPolicy(checkpoint=journal))
        assert "checkpoint_hits" not in profile.counts

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        configs = _sweep_configs()
        clean = measure_many(configs, jobs=1)
        journal = tmp_path / "sweep.jsonl"
        measure_many(configs[:2], jobs=1,
                     run_policy=RunPolicy(checkpoint=journal))
        with journal.open("a") as handle:
            handle.write('{"key": "deadbeef", "measu')  # killed mid-append
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=1, profile=profile,
                            run_policy=RunPolicy(checkpoint=journal, resume=True))
        assert rows == clean
        assert profile.counts["checkpoint_hits"] == 2

    def test_failures_are_never_journaled(self, tmp_path, monkeypatch):
        configs = _sweep_configs(n=2)
        journal = tmp_path / "sweep.jsonl"
        _arm(monkeypatch, "worker:raise")
        rows = measure_many(configs, jobs=1,
                            run_policy=RunPolicy(max_retries=0,
                                             checkpoint=journal))
        assert all(isinstance(r, FailedMeasurement) for r in rows)
        assert journal.read_text() == ""
        # After the fault clears, resume re-measures them for real.
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        rows = measure_many(configs, jobs=1,
                            run_policy=RunPolicy(checkpoint=journal, resume=True))
        assert all(isinstance(r, Measurement) for r in rows)


class TestCacheQuarantine:
    def test_corrupt_entry_is_quarantined(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "cache")
        cache.put("key", {"v": 1})
        assert cache.get("key") == {"v": 1}
        _arm(monkeypatch, "cache:corrupt")
        assert cache.get("key") is None  # miss, not a crash
        assert cache.stats()["corrupt_quarantined"] == 1
        corrupt = list((tmp_path / "cache").glob("??/*.corrupt"))
        assert len(corrupt) == 1
        assert not list((tmp_path / "cache").glob("??/*.pkl"))
        # The slot freed up: a clean re-put repairs the entry.
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        cache.put("key", {"v": 2})
        assert cache.get("key") == {"v": 2}

    def test_quarantine_population_is_bounded(self, tmp_path, monkeypatch):
        from repro import cache as cache_mod

        monkeypatch.setattr(cache_mod, "QUARANTINE_MAX", 2)
        cache = DiskCache(tmp_path / "cache")
        _arm(monkeypatch, "cache:corrupt")
        for k in range(4):
            faults.reload()  # fresh stream so every read corrupts
            cache.put(f"key{k}", k)
            assert cache.get(f"key{k}") is None
        assert cache.stats()["corrupt_quarantined"] == 4
        assert len(list((tmp_path / "cache").glob("??/*.corrupt"))) == 2

    def test_unwritable_cache_degrades_with_warning(self, tmp_path):
        # Tests run as root, so permission bits cannot make a directory
        # unwritable; a regular file in the root's path position fails
        # every mkdir/write the same way.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = DiskCache(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="unwritable"):
            for k in range(5):
                cache.put(f"key{k}", k)  # must never raise
        stats = cache.stats()
        assert stats["disabled"] == 1
        assert stats["puts"] == 0
        assert cache.get("key0") is None  # reads stay silent misses

    def test_successful_put_resets_failure_streak(self, tmp_path,
                                                  monkeypatch):
        from repro import cache as cache_mod

        cache = DiskCache(tmp_path / "cache")
        calls = {"n": 0}
        real_mkstemp = cache_mod.tempfile.mkstemp

        def flaky_mkstemp(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2:
                raise OSError("transient")
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr(cache_mod.tempfile, "mkstemp", flaky_mkstemp)
        for k in range(8):  # alternating failure never hits the limit
            cache.put(f"key{k}", k)
        assert not cache.disabled
        assert cache.stats()["puts"] == 4


class TestExitCodes:
    def test_usage_error_exits_2(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["bench", "nosuch"])
        assert err.value.code == 2

    def test_library_error_exits_1_without_traceback(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "dep.c"
        path.write_text("int a[128];"
                        "for (i = 0; i < 100; i++) { a[i+1] = a[i]; }")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_verification_mismatch_exits_3(self, tmp_path, capsys,
                                           monkeypatch):
        import repro
        from repro.cli import main

        def mismatch(*args, **kwargs):
            raise VerificationError("byte 12 differs")

        monkeypatch.setattr(repro, "run_and_verify", mismatch)
        path = tmp_path / "ok.c"
        path.write_text("int a[128]; int b[128];"
                        "for (i = 0; i < 100; i++) { a[i] = b[i]; }")
        assert main(["run", str(path)]) == 3
        captured = capsys.readouterr()
        assert "verification mismatch" in captured.err
        assert "Traceback" not in captured.err

    def test_fault_grammar_error_exits_1(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.cli import main

        _arm(monkeypatch, "warp:raise")
        assert main(["bench", "fig11", "--count", "1",
                     "--trip-count", "35"]) == 1
        assert "REPRO_FAULT" in capsys.readouterr().err

class TestConcurrentDegradation:
    """One shared ResilientBackend under concurrent fire (PR 10).

    The serve tier keeps a single resilient engine per process and
    hammers it from a worker pool; degradation must stay a per-run
    property — every thread gets byte-identical results and exactly
    one structured fallback record for its own run, never a shared or
    accumulated one.
    """

    @needs_numpy
    @settings(deadline=None, max_examples=6,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(threads=st.integers(min_value=2, max_value=6),
           seed=st.integers(min_value=0, max_value=2**16))
    def test_threads_degrade_independently_and_identically(
            self, threads, seed):
        import os
        import threading

        from repro.machine import jit
        from repro.machine.backend import get_backend

        loop = build_fig1()
        program = simdize(loop, 16, SimdOptions()).program

        def fresh_memory():
            rng = random.Random(seed)
            space = make_space(loop, 16, rng)
            mem = space.make_memory()
            fill_random(space, mem, rng)
            return space, mem

        # Clean oracle on the tier the chain will land on.
        space, mem = fresh_memory()
        get_backend("numpy").run(program, space, mem, RunBindings())
        oracle = mem.snapshot()

        engine = get_resilient_backend("jit")
        barrier = threading.Barrier(threads)
        results: list = [None] * threads

        def worker(idx: int) -> None:
            space, mem = fresh_memory()
            barrier.wait(timeout=30.0)
            run = engine.run(program, space, mem, RunBindings())
            results[idx] = (mem.snapshot(), run.fallback,
                            run.counters.as_dict())

        os.environ["REPRO_FAULT"] = "compile:raise"
        faults.reload()
        try:
            jit.clear_memory_cache()  # force every thread through compile
            pool = [threading.Thread(target=worker, args=(i,))
                    for i in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60.0)
        finally:
            os.environ.pop("REPRO_FAULT", None)
            faults.reload()

        assert all(r is not None for r in results), "a worker never finished"
        snapshots = {snap for snap, _, _ in results}
        assert snapshots == {oracle}  # byte-identical across all threads
        counter_sets = {tuple(sorted(c.items())) for _, _, c in results}
        assert len(counter_sets) == 1
        # Exactly one fallback record per degraded run: present, fresh
        # per run (not one shared dict), and correctly shaped.
        records = [fb for _, fb, _ in results]
        assert all(fb is not None for fb in records)
        assert len({id(fb) for fb in records}) == threads
        for fb in records:
            assert fb["tier"] == "numpy"
            assert fb["phase"] == "compile"
            assert fb["failed"] == ("jit",)
            assert "FaultInjected" in fb["reason"]


class TestSweepInterrupt:
    """SIGTERM/SIGINT during a checkpointed sweep (PR 10 satellite).

    The stop must be journal-safe: flag-only signal handlers, a
    SweepInterrupted raised at the next task boundary, a flushed
    journal whose rows splice back byte-identically under --resume,
    and CLI exit code 3.
    """

    def test_signal_stops_at_task_boundary_with_journal_intact(
            self, tmp_path, monkeypatch):
        import signal
        import threading

        from repro.errors import SweepInterrupted

        configs = _sweep_configs(n=12)
        clean = measure_many(configs, jobs=1)
        journal = tmp_path / "sweep.jsonl"

        # Slow each config down so the timer reliably lands mid-sweep.
        monkeypatch.setenv("REPRO_FAULT_SLEEP", "0.05")
        _arm(monkeypatch, "execute:timeout")
        # Park a no-op handler in case the timer beats the arm/disarm
        # window inside measure_many (it would otherwise kill pytest).
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        timer = threading.Timer(
            0.2, signal.raise_signal, [signal.SIGTERM])
        try:
            timer.start()
            with pytest.raises(SweepInterrupted, match="resume"):
                measure_many(configs, jobs=1,
                             run_policy=RunPolicy(checkpoint=journal))
            # measure_many restored the handler it found installed.
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
        finally:
            timer.cancel()
            signal.signal(signal.SIGTERM, previous)

        lines = journal.read_text().splitlines()
        assert 0 < len(lines) < len(configs)  # partial, flushed
        import json as _json
        for line in lines:
            _json.loads(line)  # every journaled row is complete JSON

        # Resume splices the journaled rows back float-exactly.
        monkeypatch.delenv("REPRO_FAULT")
        faults.reload()
        profile = PhaseProfile()
        rows = measure_many(configs, jobs=1, profile=profile,
                            run_policy=RunPolicy(checkpoint=journal,
                                                 resume=True))
        assert rows == clean
        assert profile.counts["checkpoint_hits"] == len(lines)

    def test_cli_exits_3_and_resume_is_byte_identical(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        journal = tmp_path / "ck.jsonl"
        env = dict(os.environ,
                   PYTHONPATH=str(root / "src"),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   REPRO_FAULT="execute:timeout",
                   REPRO_FAULT_SLEEP="0.05")
        argv = [sys.executable, "-m", "repro", "bench", "fig11",
                "--count", "2", "--trip-count", "35",
                "--checkpoint", str(journal)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env,
                                cwd=str(root))
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text().count("\n") >= 1:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            assert proc.poll() is None, proc.communicate()[1]
            proc.send_signal(signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 3, stderr
        assert "interrupted:" in stderr
        assert "resume" in stderr

        # The fault-free oracle...
        env.pop("REPRO_FAULT")
        env.pop("REPRO_FAULT_SLEEP")
        oracle = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "fig11",
             "--count", "2", "--trip-count", "35"],
            capture_output=True, text=True, env=env, cwd=str(root),
            timeout=300)
        assert oracle.returncode == 0, oracle.stderr
        # ...equals the resumed run spliced from the partial journal.
        resumed = subprocess.run(
            argv + ["--resume"], capture_output=True, text=True, env=env,
            cwd=str(root), timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == oracle.stdout
