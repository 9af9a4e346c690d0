"""The figure-sweep workloads: one fresh program process per sweep."""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import perlayer
import spans
from child import TALLY
from common import (OUT_AREA, Outcome, child_env, fresh_dir, median,
                    metric_units, python_child, spawn, write_json)

#: Probe processes per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fewest measured sweeps per run, even when they outlast ``--seconds``.
MIN_SWEEPS = 3
#: Fewest traced sweeps per traced run (the exact-count check needs 2).
MIN_TRACED = 2


@dataclass(frozen=True)
class Sweep:
    figure: int
    count: int
    trip: int
    sweep_mode: str
    cold: bool          # every measured sweep starts from an empty cache
    inputs: int         # distinct figure inputs (base seeds) per run

    def argv(self, base_seed: int, backend: str, trace: Path | None = None):
        args = ["sweep", "--figure", str(self.figure),
                "--count", str(self.count), "--trip", str(self.trip),
                "--backend", backend, "--sweep-mode", self.sweep_mode,
                "--seed", str(base_seed)]
        if trace is not None:
            args += ["--trace", str(trace)]
        return python_child(*args)

    def base_seeds(self, seed: int) -> list[int]:
        """The run's figure inputs; no two (seed, input) share a loop."""
        return [(seed * self.inputs + j) * self.count
                for j in range(self.inputs)]

    @property
    def configs(self) -> int:
        return 14 * self.count


# A figure's wall clock and memory depend on which loops the seed draws
# (signature classes decide batch sizes, cc work and kernels), so a run
# measures several inputs and reports the mean over them.
SWEEPS = {
    "fig11-warm": Sweep(11, 4, 2039, "periter", cold=False, inputs=3),
    "fig12-cold": Sweep(12, 3, 2039, "batched", cold=True, inputs=4),
    "fig11-longtrip": Sweep(11, 1, 524287, "batched", cold=False,
                            inputs=6),
}


def _tally(stderr: str) -> dict | None:
    for line in reversed(stderr.splitlines()):
        if line.startswith(TALLY):
            return json.loads(line[len(TALLY):])
    return None


class _Input:
    """One figure input: its jit reference and (warm) its own cache."""

    def __init__(self, sweep: Sweep, base_seed: int, area: Path,
                 outcome: Outcome):
        self.sweep, self.base_seed, self.outcome = sweep, base_seed, outcome
        self.area = area / f"input{base_seed}"
        self.tmp = fresh_dir(self.area / "tmp")
        self.cache = self.area / "cache"
        self.sweeps = 0
        self.reference: str | None = None

    def launch(self, backend: str = "native", trace: Path | None = None):
        """One sweep process, unchecked.

        The jit reference runs without a disk cache.  A cold sweep gets
        a new, empty cache directory; old ones are removed only at the
        end of the run, so their deletion never overlaps a measurement.
        """
        if backend == "jit":
            cache = ""
        elif self.sweep.cold:
            self.sweeps += 1       # cold sweeps run one at a time
            cache = fresh_dir(self.area / f"cache{self.sweeps}")
        else:
            cache = self.cache
        return spawn(self.sweep.argv(self.base_seed, backend, trace),
                     child_env(cache, self.tmp), self.area / backend)

    def check(self, child, backend: str):
        """Count the sweep's configs; fail them on any wrong output."""
        configs = self.sweep.configs
        self.outcome.attempted += configs
        tally = _tally(child.stderr)
        if child.code != 0 or tally is None:
            tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.outcome.fail(f"{backend} sweep exit {child.code}: {tail[0]}",
                              configs)
            return None
        if tally["failed"]:
            self.outcome.fail(f"{tally['failed']} FailedMeasurement(s)",
                              tally["failed"])
        if self.reference is not None and child.stdout != self.reference:
            self.outcome.fail(f"{backend} figure text (base seed "
                              f"{self.base_seed}) differs from the jit "
                              f"reference", configs)
        return child

    def run_sweep(self, trace: Path | None = None):
        return self.check(self.launch(trace=trace), "native")


def _prepare(inputs: list[_Input]) -> bool:
    """Set-up: each input's jit reference and, when warm, one native
    sweep that fills its cache; independent, so two run side by side."""
    jobs = []
    with ThreadPoolExecutor(2) as pool:
        for item in inputs:
            jobs.append((item, "jit", pool.submit(item.launch, "jit")))
            if not item.sweep.cold:
                jobs.append((item, "native", pool.submit(item.launch)))
    for item, backend, job in jobs:
        child = job.result()
        if backend == "jit":
            item.reference = child.stdout
        if item.check(child, backend) is None:
            return False
    return True


def run(name: str, seed: int, seconds: float, trace: bool, area: Path,
        facts: dict) -> Outcome:
    sweep = SWEEPS[name]
    outcome = Outcome()
    # A traced run compares traced and untraced sweeps of one input.
    seeds = sweep.base_seeds(seed)[:1 if trace else None]
    inputs = [_Input(sweep, base, area, outcome) for base in seeds]
    if not _prepare(inputs):
        return outcome

    env = child_env(inputs[0].cache, inputs[0].tmp)
    setup = [spawn(python_child("probe"), env, area / "probe",
                   ready_line=True) for _ in range(SETUP_SAMPLES)]
    for probe in setup:
        if probe.code != 0:
            outcome.fail(f"probe exit {probe.code}")
            return outcome
    facts.update(json.loads(setup[0].stdout.splitlines()[0]))
    setup_s = median([p.ready_s for p in setup])

    walls = {item.base_seed: [] for item in inputs}
    rss = {item.base_seed: [] for item in inputs}
    traced = []
    started = time.perf_counter()
    while not outcome.failed:
        for item in inputs:
            child = item.run_sweep()
            if child is not None:
                walls[item.base_seed].append(child.wall_s)
                rss[item.base_seed].append(child.rss_mb)
            if trace:
                dump_path = area / f"trace{len(traced)}.json"
                child = item.run_sweep(trace=dump_path)
                if child is not None:
                    traced.append((perlayer.load(dump_path), child))
        sweeps = sum(len(w) for w in walls.values())
        enough = (len(traced) >= MIN_TRACED if trace
                  else sweeps >= MIN_SWEEPS)
        if enough and time.perf_counter() - started >= seconds:
            break
    if outcome.failed:
        return outcome

    # An input's median is its sweep's figure; inputs differ by the
    # loops they draw (peak memory is set by an input's largest
    # signature class), so the run reports the mean over its inputs.
    wall = sum(median(w) for w in walls.values()) / len(walls)
    peak = sum(median(r) for r in rss.values()) / len(rss)
    if trace:
        _per_layer(name, seed, outcome, traced, wall, sweep.cold)
    else:
        outcome.metrics = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            # One sweep process is the workload's request: on sweeps
            # this is wall_s in ms, not a second measurement.
            "req_p50_ms": wall * 1e3,
        }
    outcome.notes.append(f"sweeps measured: {sweeps} "
                         f"(+{len(traced)} traced) over base seeds {seeds}, "
                         f"{sweep.configs} configs each")
    for base, sample in walls.items():
        outcome.notes.append(
            f"base seed {base} sweep walls (s): "
            + " ".join(f"{w:.3f}" for w in sample)
            + f"; peak RSS (MB): {median(rss[base]):.1f}")
    return outcome


def _per_layer(name: str, seed: int, outcome: Outcome, traced: list,
               untraced_wall: float, cold: bool) -> None:
    runs = [perlayer.analyse(dump, child.wall_s, child.started_at,
                             child.ended_at) for dump, child in traced]
    merged = perlayer.combine(runs)
    traced_wall = median([child.wall_s for _, child in traced])
    merged["trace.overhead_ratio"] = traced_wall / untraced_wall
    for problem in perlayer.problems(runs, warm=not cold):
        outcome.fail(problem)
    # Layers a workload never enters read 0.
    outcome.metrics = {key: merged.get(key, 0)
                       for key in metric_units(trace=True)}
    table = perlayer.self_time_table(runs)
    outcome.notes.append("per-layer self time (traced sweep of median wall):\n"
                         + table)
    events = []
    for pid, (dump, _) in enumerate(traced, start=1):
        events += spans.chrome_events(dump["spans"], pid,
                                      f"{name} traced sweep {pid}")
    stem = OUT_AREA / f"{name}-seed{seed}"
    write_json(stem.with_suffix(".trace.json"), {"traceEvents": events})
    (stem.with_suffix(".layers.txt")).write_text(table + "\n")
    outcome.notes.append(f"chrome trace: {stem.with_suffix('.trace.json')}")
