"""The ``serve-mix`` workload: a ``repro serve`` process driven open-loop.

Traffic is a seeded mix of ``/verify`` (native tier) and ``/simdize``
requests over a pool of generated mini-C stride-one loops that uses
every binary operator the frontend accepts.  The pool holds more
distinct kernels than the server's 128-entry native kernel LRU, and
draws are Zipf-skewed so that some identical requests are in flight
together.  One client process keeps at most ``nproc`` connections open;
each request is timed from its scheduled send time.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import perlayer
import spans
from common import (OUT_AREA, Outcome, child_env, fresh_dir, median,
                    metric_units, percentile, python_child, spawn,
                    write_json)

OPS = ("+", "-", "*", "&", "|", "^", "min", "max", "avg", "sadd", "ssub")
DTYPES = ("char", "short", "int")
#: Distinct loops in the pool (> the 128-entry native kernel LRU).
POOL = 160
#: Zipf exponent of the draws over the pool.  The pool, skew and
#: endpoint share are design choices (there is no user traffic to
#: measure): a few hot loops and a long tail that overflows the LRU.
SKEW = 1.1
#: Share of requests sent to /verify (the rest go to /simdize).
VERIFY_SHARE = 0.7
#: Open-loop rate at which latency is reported (requests/s): about half
#: of this mix's capacity as the ladder below measures it (218-276
#: requests/s on a 2-core x86-64 VM).  A constant, so that a slower
#: server shows as latency rather than as a lower rate.
NOMINAL_RPS = 110.0
#: Requests in the nominal phase: p99 has 10 samples above it.
NOMINAL_REQUESTS = 1000
#: Fixed geometric rate ladder for ``serve.sustained_rps`` (requests/s),
#: searched by bisection.
LADDER = tuple(round(20 * 1.05 ** k, 1) for k in range(58))
#: Seconds of traffic per ladder rung.
RUNG_S = 2.5
#: p99 latency limit a ladder rung must meet (ms).
LIMIT_MS = 100.0
#: Server processes started per run (``setup_s``/``wall_s`` medians).
SESSIONS = 5
#: Distinct /verify requests a fresh server answers for ``wall_s``.
PROBE_REQUESTS = 12
CONNECTIONS = os.cpu_count() or 1


# -- inputs --------------------------------------------------------------

def make_pool(seed: int) -> list[dict]:
    """POOL distinct stride-one loops, every operator and dtype used.

    Entry ``k`` (also its popularity rank) has a fixed operator, dtype
    and trip count, so every seed's mix costs about the same; the seed
    picks the array offsets and the data.
    """
    rng = random.Random(seed)
    pool = []
    for k in range(POOL):
        op = OPS[k % len(OPS)]
        dtype = DTYPES[(k // len(OPS)) % len(DTYPES)]
        trip = 48 + 8 * (7 * k % 40)
        o_out, o_b, o_c = (rng.randrange(0, 8) for _ in range(3))
        rhs = (f"{op}(b[i+{o_b}], c[i+{o_c}])" if op.isalpha()
               else f"b[i+{o_b}] {op} c[i+{o_c}]")
        n = trip + 8
        source = (f"{dtype} a[{n}]; {dtype} b[{n}]; {dtype} c[{n}];\n"
                  f"for (i = 0; i < {trip}; i++) "
                  f"{{ a[i+{o_out}] = {rhs}; }}\n")
        pool.append({"source": source, "seed": rng.randrange(1 << 16)})
    return pool


def make_schedule(rng: random.Random, pool_size: int, rate: float,
                  seconds: float) -> list[tuple[float, str, int]]:
    """rate * seconds Poisson arrivals of (due time, endpoint, pool index).

    The count is fixed and the gaps are rescaled to span ``seconds``,
    so two schedules of one rate carry the same load.  Pool index ``k``
    is drawn with Zipf weight ``1 / (k + 1) ** SKEW``.
    """
    weights = [1.0 / (rank + 1) ** SKEW for rank in range(pool_size)]
    count = max(1, round(rate * seconds))
    gaps = [rng.expovariate(rate) for _ in range(count + 1)]
    scale = seconds / sum(gaps)
    schedule, t = [], 0.0
    for gap in gaps[:-1]:
        t += gap * scale
        index = rng.choices(range(pool_size), weights)[0]
        endpoint = "/verify" if rng.random() < VERIFY_SHARE else "/simdize"
        schedule.append((t, endpoint, index))
    return schedule


def body_for(entry: dict, endpoint: str) -> bytes:
    payload = {"source": entry["source"]}
    if endpoint == "/verify":
        payload.update(seed=entry["seed"], backend="native")
    return json.dumps(payload, sort_keys=True).encode()


_VERIFY_KEYS = ("verified", "policy", "shift_count", "trip", "scalar_ops",
                "vector_ops", "scalar_opd", "vector_opd", "speedup")


def references(pool: list[dict]) -> list[dict]:
    """Expected bodies, computed in-process on the bytes tier."""
    from repro import run_and_verify
    from repro.lang import compile_source
    from repro.simdize import simdize
    from repro.simdize.options import SimdOptions
    from repro.vir import format_program

    refs = []
    for entry in pool:
        result = simdize(compile_source(entry["source"]), 16, SimdOptions())
        report = run_and_verify(result.program, seed=entry["seed"],
                                backend="bytes", scalar_backend="bytes")
        verify = {"verified": True, "policy": result.policy,
                  "shift_count": result.shift_count, "trip": report.trip,
                  "scalar_ops": report.scalar_total,
                  "vector_ops": report.vector_total,
                  "scalar_opd": report.scalar_opd,
                  "vector_opd": report.vector_opd,
                  "speedup": report.speedup}
        refs.append({
            "/verify": json.loads(json.dumps(verify)),
            "/simdize": {"policy": result.policy,
                         "shift_count": result.shift_count,
                         "program": format_program(result.program,
                                                   altivec=True)},
        })
    return refs


def matches(endpoint: str, body: dict, ref: dict) -> bool:
    if endpoint == "/verify":
        return ({k: body.get(k) for k in _VERIFY_KEYS} == ref
                and body.get("backend") == "native"
                and not body.get("degraded"))
    return body == ref


# -- HTTP client ---------------------------------------------------------

async def fetch(port: int, method: str, path: str, body: bytes = b""):
    """One request on its own connection: (status or None, body bytes)."""
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError:
        return None, b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode()
    try:
        writer.write(head + body)
        await writer.drain()
        data = await reader.read()
    except (ConnectionError, OSError):
        data = b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head_bytes, _, rest = data.partition(b"\r\n\r\n")
    try:
        return int(head_bytes.split()[1]), rest
    except (IndexError, ValueError):
        return None, b""


class Checker:
    """Counts every request and checks each body against its reference."""

    def __init__(self, pool, refs, outcome: Outcome):
        self.pool, self.refs, self.outcome = pool, refs, outcome
        self.bodies = {(ep, i): body_for(entry, ep)
                       for i, entry in enumerate(pool)
                       for ep in ("/verify", "/simdize")}

    async def send(self, port: int, endpoint: str, index: int) -> bool:
        status, raw = await fetch(port, "POST", endpoint,
                                  self.bodies[(endpoint, index)])
        self.outcome.attempted += 1
        if status != 200:
            self.outcome.fail(f"{endpoint} #{index}: status {status}")
            return False
        try:
            body = json.loads(raw)
        except ValueError:
            body = None
        if not isinstance(body, dict) or not matches(
                endpoint, body, self.refs[index][endpoint]):
            self.outcome.fail(f"{endpoint} #{index}: body differs from the "
                              f"bytes-tier reference")
            return False
        return True


async def open_loop(port: int, checker: Checker, schedule,
                    abort_ms: float | None = None) -> dict:
    """Send ``schedule`` open-loop over at most CONNECTIONS connections.

    Latency runs from each request's due time; ``late`` is how far
    behind schedule the generator itself issued it; ``repeats`` counts
    requests identical to one already in flight when they were sent.
    With ``abort_ms``, the first request that waited longer than that
    for a connection stops the phase: nothing more is sent.
    """
    slots = asyncio.Semaphore(CONNECTIONS)
    in_flight: dict[tuple, int] = {}
    latency, late, ok = [], [], []
    repeats = 0
    aborted = False
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05

    async def one(due: float, endpoint: str, index: int) -> None:
        nonlocal repeats, aborted
        async with slots:
            if aborted:
                return
            if abort_ms is not None and \
                    (loop.time() - start - due) * 1e3 > abort_ms:
                aborted = True
                return
            key = (endpoint, index)
            repeats += in_flight.get(key, 0) > 0
            in_flight[key] = in_flight.get(key, 0) + 1
            try:
                ok.append(await checker.send(port, endpoint, index))
            finally:
                in_flight[key] -= 1
        latency.append((loop.time() - start - due) * 1e3)

    tasks = []
    # The client's own collector pauses are not the server's latency.
    gc.disable()
    try:
        for due, endpoint, index in schedule:
            delay = start + due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if aborted:
                break
            late.append(max(0.0, loop.time() - start - due) * 1e3)
            tasks.append(asyncio.ensure_future(one(due, endpoint, index)))
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
    elapsed = loop.time() - start
    return {"latency": latency, "late": late, "ok": all(ok),
            "aborted": aborted, "repeats": repeats, "sent": len(latency),
            "rate": len(latency) / elapsed}


# -- the server process --------------------------------------------------

class Server:
    """One ``repro serve`` process; a context manager that stops it."""

    def __init__(self, argv: list[str], env: dict, log: Path):
        self.code: int | None = None
        self.log = open(log, "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                     stderr=self.log,
                                     stdin=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    async def healthy(self) -> float:
        """Seconds from spawn until /healthz answers 200."""
        for _ in range(2000):
            status, _ = await fetch(self.port, "GET", "/healthz")
            if status == 200:
                return time.perf_counter() - self.started
            await asyncio.sleep(0.005)
        raise RuntimeError("server never became healthy")

    async def stats(self) -> dict:
        status, raw = await fetch(self.port, "GET", "/stats")
        return json.loads(raw) if status == 200 else {}

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        """SIGTERM, wait for the drain; a stuck server is killed."""
        if self.code is not None:
            return self.code
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        self.code = code
        return code


def serve_argv(cache: Path, trace: Path | None) -> list[str]:
    args = ["--port", "0", "--cache-dir", str(cache)]
    if trace is None:
        return [sys.executable, "-m", "repro", "serve", *args]
    return python_child("serve", "--trace", str(trace), "--", *args)


# -- the workload --------------------------------------------------------

def run(seed: int, seconds: float, trace: bool, area: Path,
        facts: dict) -> Outcome:
    return asyncio.run(_run(seed, seconds, trace, area, facts))


async def _run(seed: int, seconds: float, trace: bool, area: Path,
               facts: dict) -> Outcome:
    outcome = Outcome()
    pool = make_pool(seed)
    cache, tmp = fresh_dir(area / "cache"), fresh_dir(area / "tmp")
    env = child_env(cache, tmp)
    log = area / "serve.log"

    # Set-up: batch-compile the pool's kernels, which also fills the
    # simdize memo and the jit kernels, in two processes while the
    # references are computed here.
    started = time.perf_counter()
    halves = []
    with open(log, "ab") as err:
        for part in (pool[0::2], pool[1::2]):
            path = area / f"sources{len(halves)}.json"
            path.write_text(json.dumps([entry["source"] for entry in part]))
            halves.append(subprocess.Popen(
                python_child("precompile", "--sources", str(path)), env=env,
                stdout=subprocess.DEVNULL, stderr=err))
        try:
            checker = Checker(pool, references(pool), outcome)
        finally:
            codes = [proc.wait() for proc in halves]
    if any(codes):
        outcome.fail("precompile process failed")
        return outcome
    outcome.notes.append(f"set-up: precompile + references "
                         f"{time.perf_counter() - started:.1f}s")
    probe = spawn(python_child("probe"), env, area / "io", ready_line=True)
    facts.update(json.loads(probe.stdout.splitlines()[0]))

    rng = random.Random(seed ^ 0x5E7E)
    if trace:
        await _traced(seed, seconds, rng, checker, cache, env, log,
                      outcome, area)
        return outcome

    setups, walls = [], []
    for session in range(SESSIONS):
        with Server(serve_argv(cache, None), env, log) as server:
            setups.append(await server.healthy())
            await _probe_pass(server.port, checker)
            walls.append(time.perf_counter() - server.started)
            if session == 0:
                nominal = await open_loop(server.port, checker,
                                          _schedule(rng, checker, seconds))
                stats = await server.stats()
                rss = server.peak_rss_mb()
            if server.stop() != 0:
                outcome.fail("server did not drain cleanly")
    _check_warm(stats, outcome)
    lat = nominal["latency"]
    outcome.metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "req_p50_ms": percentile(lat, 50),
    }
    outcome.notes.append(_nominal_note(nominal, stats))
    return outcome


def _schedule(rng, checker: Checker, seconds: float):
    """The nominal phase: ``seconds`` (at least NOMINAL_REQUESTS
    requests) of open-loop traffic at NOMINAL_RPS."""
    return make_schedule(rng, len(checker.pool), NOMINAL_RPS,
                         max(seconds, NOMINAL_REQUESTS / NOMINAL_RPS))


def _check_warm(stats: dict, outcome: Outcome) -> None:
    """The server's cache was filled in set-up: the compiler never runs."""
    cc = (stats.get("native") or {}).get("cc_invocations")
    if cc != 0:
        outcome.fail(f"serve ran the compiler on a warm cache: "
                     f"native.cc_invocations {cc}")


def _mix_figures(nominal: dict, stats: dict) -> dict:
    """How much of the nominal traffic the serve layer's mechanisms saw."""
    counters = stats.get("counters", {})
    flight = stats.get("singleflight", {})
    total = flight.get("leaders", 0) + flight.get("coalesced", 0)
    return {
        "serve.coalesced_ratio": flight.get("coalesced", 0) / total
        if total else 0.0,
        "serve.rows_per_batch": counters.get("batch_rows", 0)
        / max(1, counters.get("batches", 0)),
        "serve.rejected_429": counters.get("rejected_429", 0),
        "serve.degraded": counters.get("degraded_native", 0),
        "serve.req_p90_ms": percentile(nominal["latency"], 90),
        "serve.req_p99_ms": percentile(nominal["latency"], 99),
        "loadgen.late_p99_ms": percentile(nominal["late"], 99),
        "loadgen.repeat_share": nominal["repeats"] / nominal["sent"],
    }


def _nominal_note(nominal: dict, stats: dict) -> str:
    mix = _mix_figures(nominal, stats)
    return (f"nominal {NOMINAL_RPS:g} rps: {nominal['sent']} requests, p90 "
            f"{mix['serve.req_p90_ms']:.3f} ms, p99 "
            f"{mix['serve.req_p99_ms']:.3f} ms, repeat share "
            f"{mix['loadgen.repeat_share']:.3f}, coalesced ratio "
            f"{mix['serve.coalesced_ratio']:.3f}, rows per batch "
            f"{mix['serve.rows_per_batch']:.3f}, generator late p99 "
            f"{mix['loadgen.late_p99_ms']:.3f} ms")


async def _probe_pass(port: int, checker: Checker) -> None:
    """PROBE_REQUESTS distinct /verify requests, one at a time."""
    for index in range(PROBE_REQUESTS):
        await checker.send(port, "/verify", index)


async def _ladder(port: int, checker: Checker, rng, outcome: Outcome):
    """The achieved rate of the highest LADDER rung that holds.

    A rung holds when its p99 meets LIMIT_MS, every request is
    answered correctly, and no request waited 3 * LIMIT_MS for a
    connection (a growing backlog).  The rungs are searched by
    bisection; a rung that misses is tried once more before the search
    moves below it, so one host stall cannot cut the search short.
    """
    size = len(checker.pool)
    sustained = 0.0
    lo, hi = -1, len(LADDER)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        for _ in range(2):
            rung = await open_loop(
                port, checker, make_schedule(rng, size, LADDER[mid], RUNG_S),
                abort_ms=3 * LIMIT_MS)
            p99 = percentile(rung["latency"], 99) if rung["latency"] else 0.0
            passed = rung["ok"] and not rung["aborted"] and p99 <= LIMIT_MS
            outcome.notes.append(
                f"ladder {LADDER[mid]:6.1f} rps: sent {rung['sent']:4d} "
                f"p99 {p99:8.2f} ms{' aborted' if rung['aborted'] else ''}"
                f" -> {'meets' if passed else 'misses'} the {LIMIT_MS:g} ms "
                f"limit")
            if passed or not rung["ok"]:
                break
        if passed:
            lo, sustained = mid, rung["rate"]
        else:
            hi = mid
    return sustained


async def _traced(seed, seconds, rng, checker, cache, env, log, outcome,
                  area) -> None:
    """Per-layer metrics: two traced servers replay the nominal phase
    of an untraced one, request for request."""
    schedule = _schedule(rng, checker, seconds)
    with Server(serve_argv(cache, None), env, log) as server:
        await server.healthy()
        nominal = await open_loop(server.port, checker, schedule)
        stats = await server.stats()
        sustained = await _ladder(server.port, checker, rng, outcome)
        _check_warm(await server.stats(), outcome)
    _check_warm(stats, outcome)
    outcome.notes.append(_nominal_note(nominal, stats))

    traced = []
    for round_ in range(2):
        dump_path = area / f"trace{round_}.json"
        with Server(serve_argv(cache, dump_path), env, log) as server:
            await server.healthy()
            replay = await open_loop(server.port, checker, schedule)
            wall = time.perf_counter() - server.started
        traced.append((perlayer.load(dump_path), wall, server.started,
                       percentile(replay["latency"], 50)))

    runs = [perlayer.analyse(dump, wall, started)
            for dump, wall, started, _ in traced]
    merged = perlayer.combine(runs)
    for problem in perlayer.problems(runs, warm=True):
        outcome.fail(problem)
    # The replay lasts as long as its schedule whatever the tracer
    # costs, so the overhead is read from the requests' latency.
    merged["trace.overhead_ratio"] = (
        median([p50 for _, _, _, p50 in traced])
        / percentile(nominal["latency"], 50))
    merged.update(_mix_figures(nominal, stats))
    merged["serve.sustained_rps"] = sustained
    # Layers a workload never enters read 0.
    outcome.metrics = {key: merged.get(key, 0)
                       for key in metric_units(trace=True)}
    table = perlayer.self_time_table(runs)
    outcome.notes.append("per-layer self time (traced server of median wall, "
                         "spawn to the replayed nominal phase answered; "
                         "worker threads summed):\n" + table)
    events = []
    for pid, (dump, _, _, _) in enumerate(traced, start=1):
        events += spans.chrome_events(dump["spans"], pid,
                                      f"serve-mix traced server {pid}")
    stem = OUT_AREA / f"serve-mix-seed{seed}"
    write_json(stem.with_suffix(".trace.json"), {"traceEvents": events})
    stem.with_suffix(".layers.txt").write_text(table + "\n")
    outcome.notes.append(f"chrome trace: {stem.with_suffix('.trace.json')}")
