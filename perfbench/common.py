"""Shared plumbing: the hermetic child environment, timed spawns, stats."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
#: Scratch area (caches, outputs of children); removed after each run.
TMP_AREA = ROOT / ".perfbench_tmp"
#: Traces and self-time tables of traced runs; kept for inspection.
OUT_AREA = ROOT / ".perfbench_out"

#: The benchmark's definition: workloads, metric names and units.
SPEC = ROOT / "BENCHMARK.json"

#: Hard wall-clock cap on any one child process.
CHILD_TIMEOUT_S = 150.0


def child_env(cache_dir: Path | str, tmpdir: Path) -> dict:
    """The parent's environment minus every ``REPRO_*`` variable.

    The cache directory is the workload's own (``""`` disables the
    disk cache), ``TMPDIR`` points into the benchmark's scratch area so
    the program's compiler work stays inside the checkout, and
    ``PYTHONPATH`` is the checkout's ``src`` alone.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


@dataclass
class Spawned:
    """One finished child: wall clock, peak RSS (wait4) and its output."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    started_at: float   # spawn and reap on the monotonic perf_counter clock
    ended_at: float
    ready_s: float | None = None


def spawn(argv: list[str], env: dict, scratch: Path,
          ready_line: bool = False, timeout: float = CHILD_TIMEOUT_S
          ) -> Spawned:
    """Run ``argv`` to completion; time it from spawn to exit.

    Output goes to files so the parent can reap the child itself with
    ``os.wait4`` and read its peak RSS.  With ``ready_line`` the time
    until the first stdout line is kept as ``ready_s``.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    err_path = scratch / "child.err"
    out_path = scratch / "child.out"
    with open(err_path, "wb") as err, open(out_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=str(ROOT), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if ready_line else out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        ready_s = None
        head = b""
        try:
            if ready_line:
                head = proc.stdout.readline()
                ready_s = time.perf_counter() - started
                head += proc.stdout.read()
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.perf_counter()
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = head.decode() if ready_line else out_path.read_text()
    return Spawned(ended - started, usage.ru_maxrss / 1024.0,
                   proc.returncode, stdout, err_path.read_text(), started,
                   ended, ready_s)


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def python_child(*args: str) -> list[str]:
    return [sys.executable, str(CHILD), *args]


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[min(rank, len(ordered)) - 1]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cc_banner(cc: str | None) -> str:
    if not cc:
        return "none"
    try:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=30)
        return (proc.stdout or proc.stderr).splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict = field(default_factory=dict)   # name -> value
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.mismatches) < 20:
            self.mismatches.append(what)

    def to_json(self, units: dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in units.items()
                        if name in self.metrics},
        }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
