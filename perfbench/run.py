"""End-to-end benchmark of the simdal reproduction (see README.md).

    python3 perfbench/run.py --workload fig11-warm --seed 1 --seconds 10 \\
        --trace 0

runs one workload from the root of a checkout and prints, as its last
stdout line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
separate, traced set of program processes) with ``--trace 1``.
``--workload all`` runs every workload in turn and prints one result
line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (OUT_AREA, ROOT, SRC, TMP_AREA, Outcome,  # noqa: E402
                    cc_banner, metric_units)

WORKLOADS = ("fig11-warm", "fig12-cold", "fig11-longtrip", "serve-mix")


def _run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    area = TMP_AREA / f"{name}-{os.getpid()}"
    shutil.rmtree(area, ignore_errors=True)
    area.mkdir(parents=True)
    facts: dict = {"nproc": os.cpu_count()}
    started = time.perf_counter()
    try:
        if name == "serve-mix":
            import servemix
            outcome = servemix.run(seed, seconds, trace, area, facts)
        else:
            import sweeps
            outcome = sweeps.run(name, seed, seconds, trace, area, facts)
    finally:
        shutil.rmtree(area, ignore_errors=True)
    facts["cc_version"] = cc_banner(facts.get("cc"))
    units = metric_units(trace)
    missing = sorted(set(units) - set(outcome.metrics))
    if missing and not outcome.failed:
        raise RuntimeError(f"{name} did not measure {missing}")
    _report(name, seed, trace, outcome, units, facts,
            time.perf_counter() - started)
    return outcome.to_json(units)


def _report(name: str, seed: int, trace: bool, outcome: Outcome,
            units: dict, facts: dict, elapsed: float) -> None:
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"== {name} seed={seed} trace={int(trace)} "
          f"({elapsed:.1f}s including set-up)")
    print(f"host: nproc={facts.get('nproc')} emitter={facts.get('emitter')} "
          f"cc={facts.get('cc')} ({facts.get('cc_version')}, identity "
          f"{facts.get('cc_identity')}) "
          f"flags={' '.join(facts.get('flags', []))}")
    for metric, value in outcome.metrics.items():
        print(f"  {metric:26s} {value:14.6f} {units[metric]}")
    print(f"  {'error_rate':26s} {rate:14.6f} failed/attempted "
          f"({outcome.failed}/{outcome.attempted})")
    print(f"  correct: {outcome.failed == 0}")
    for line in outcome.mismatches:
        print(f"  FAILED: {line}", file=sys.stderr)
    for note in outcome.notes:
        print("  " + note.replace("\n", "\n    "))
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    # The benchmark process itself computes references with repro; it
    # must never read or write a user's cache, or write outside the
    # checkout.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CACHE_DIR"] = ""
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    OUT_AREA.mkdir(exist_ok=True)
    TMP_AREA.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_AREA)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [_run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
