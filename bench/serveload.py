"""serve-zipf: open-loop Zipf traffic against ``python -m repro.serve``.

One single-threaded asyncio generator drives a ``--workers 1`` server
over :data:`CONNECTIONS` connections.  The load is open loop: request
``i`` of a step is due at ``start + i / rate`` whatever the server does,
and its latency runs from that due time to its response, so a stall
also charges the requests queued behind it.

Each step of the rate ladder gets a fresh server, brought to steady
state before its step is timed:

1. the *reference pass* sends every problem once on its kernel's
   reference input: it schedules all 96 problems into the worker's
   schedule cache, and its answers give the schedule-quality counts;
2. :data:`WARMUP_S` seconds of the step's own traffic at the lowest rate
   fill the result memo with the hot requests.

A step then sees memo hits, and worker jobs that hit the schedule cache
(new inputs of known problems).  Cold scheduling is what compile-cold
measures; left in here, each step would open with a burst of cold
schedules that saturates the single worker, and its p99 would measure
how long that burst took to drain on the host of the moment.

Requests draw Zipf(:data:`ZIPF_S`) over the 96 (kernel, composition)
problems, and each request carries one of :data:`INPUTS_PER_PROBLEM`
seeded inputs for its problem.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs as kin
from hostspeed import HostSpeed
from workloads import (
    COMPOSITIONS,
    Quality,
    Tally,
    peak_rss_mb,
    percentile,
    result,
    tail_percentile,
)

#: offered rates of the ladder in requests/s: calibrated once on a
#: 2-CPU host, then frozen
RATES = (150, 300, 600)
#: share of ``--seconds`` each ladder step is timed for; the middle
#: step, whose latencies are the workload's p50/p99, gets the most
STEP_SHARES = (0.25, 0.5, 0.25)
#: untimed traffic each fresh server takes before its step
WARMUP_S = 1.5
#: a response later than this after its due time misses the limit
LATENCY_LIMIT_MS = 100.0
CONNECTIONS = 2
ZIPF_S = 1.1
INPUTS_PER_PROBLEM = 4
#: the middle step supplies job_p50_ms / job_p99_ms
MIDDLE = 1
#: the sender samples the host's speed only when the next request is
#: due at least this far ahead, so sampling never delays a send
SAMPLE_SLACK_S = 0.002

#: problems in popularity order; a fixed shuffle mixes kernels and
#: compositions across ranks, so every seed has the same hot set
PROBLEMS: List[Tuple[str, str]] = [
    (k, c) for k in kin.KERNELS for c in COMPOSITIONS
]
random.Random("serve-zipf-ranks").shuffle(PROBLEMS)


def _body(kernel: str, comp: str, inp: kin.Inputs) -> bytes:
    """A ``run`` request without its id (spliced in per request)."""
    req: Dict[str, Any] = {
        "op": "run", "kernel": kernel, "composition": comp,
        "livein": inp.livein, "arrays": inp.arrays,
    }
    if inp.params:
        req["params"] = dict(inp.params)
    return json.dumps(req, sort_keys=True, separators=(",", ":")).encode()


def _line(rid: int, body: bytes) -> bytes:
    return b'{"id":%d,' % rid + body[1:] + b"\n"


class Server:
    """One ``python -m repro.serve`` process on an ephemeral port, in a
    process group of its own with the pool workers it forks."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--workers", "1",
             "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        """Terminate the server, then kill and wait out its group.

        A pool worker can outlive a server terminated right after it
        started; it would keep running and hold the server's stdout
        open, so the whole group is killed and polled until no member
        is left.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        group = self.proc.pid
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)


@dataclass
class Serve:
    seed: int
    #: (problem, input index) -> (inputs, request body)
    keys: Dict[Tuple[int, int], Tuple[kin.Inputs, bytes]]
    #: (problem, reference inputs, request body) of the reference pass
    reference: List[Tuple[int, kin.Inputs, bytes]]
    tally: Tally = field(default_factory=Tally)
    quality: Quality = field(default_factory=Quality)
    server: Optional[Server] = None


def setup(seed: int, smoke: bool = False) -> Serve:
    keys = {}
    for p, (kernel, comp) in enumerate(PROBLEMS):
        for v in range(INPUTS_PER_PROBLEM):
            inp = kin.generate(kernel, random.Random(f"{seed}:{p}:{v}"))
            keys[(p, v)] = (inp, _body(kernel, comp, inp))
    problems = range(8) if smoke else range(len(PROBLEMS))
    reference = []
    for p in problems:
        inp = kin.reference(PROBLEMS[p][0])
        reference.append((p, inp, _body(*PROBLEMS[p], inp)))
    state = Serve(seed, keys, reference)
    try:
        _start_server(state)
    except BaseException:
        teardown(state)
        raise
    return state


def teardown(state: Serve) -> None:
    if state.server is not None:
        state.server.stop()
        state.server = None


def zipf_keys(seed: int, phase: str, n: int) -> List[Tuple[int, int]]:
    """``n`` seeded (problem, input) draws for one phase of the run."""
    rng = random.Random(f"{seed}:{phase}")
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(PROBLEMS))]
    problems = rng.choices(range(len(PROBLEMS)), weights=weights, k=n)
    return [(p, rng.randrange(INPUTS_PER_PROBLEM)) for p in problems]


@dataclass
class Step:
    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    recv: List[float] = field(default_factory=list)
    #: reference-host seconds per measured second when each was sent
    factor: List[float] = field(default_factory=list)
    responses: List[Optional[Dict[str, Any]]] = field(default_factory=list)

    def latencies_ms(self) -> List[float]:
        """Due time to response, scaled to the reference host."""
        return [
            (r - d) * f * 1e3
            for d, r, f in zip(self.due, self.recv, self.factor)
        ]

    def lags_ms(self) -> List[float]:
        return [(s - d) * 1e3 for d, s in zip(self.due, self.sent)]


async def _read_response(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """The next final response, skipping the ``status`` events."""
    while True:
        raw = await reader.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        msg = json.loads(raw)
        if "event" not in msg:
            return msg


async def _open_loop(
    server: Server, lines: Sequence[bytes], rate: Optional[float],
    host: HostSpeed,
) -> Step:
    """Send ``lines`` on schedule (all at once when ``rate`` is None)."""
    n = len(lines)
    step = Step([0.0] * n, [0.0] * n, [0.0] * n, [1.0] * n, [None] * n)
    conns = [
        await asyncio.open_connection(server.host, server.port)
        for _ in range(CONNECTIONS)
    ]
    done = asyncio.Event()
    remaining = n

    async def reader(stream: asyncio.StreamReader) -> None:
        nonlocal remaining
        while True:
            msg = await _read_response(stream)
            i = msg["id"]
            step.recv[i] = time.perf_counter()
            step.responses[i] = msg
            remaining -= 1
            if remaining == 0:
                done.set()

    readers = [asyncio.ensure_future(reader(r)) for r, _ in conns]
    try:
        start = time.perf_counter() + 0.01
        for i, line in enumerate(lines):
            due = start + i / rate if rate else time.perf_counter()
            if due - time.perf_counter() > SAMPLE_SLACK_S:
                host.poll()
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[i % CONNECTIONS][1]
            step.due[i] = due
            step.factor[i] = host.factor()
            step.sent[i] = time.perf_counter()
            writer.write(line)
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        for _reader, writer in conns:
            await writer.drain()
        await asyncio.wait_for(done.wait(), timeout=120)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _reader, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return step


def _check_response(problem, inp, msg, tally: Tally) -> None:
    kernel, comp = problem
    if msg is None or not msg.get("ok"):
        tally.verdict(f"{kernel} on {comp}: {msg and msg.get('error')}")
        return
    res = msg["result"]
    tally.verdict(kin.check(kernel, inp, res["results"], res["heap"]))


def _start_server(state: Serve) -> None:
    """A fresh server that has scheduled every problem (the reference
    pass); the first one's answers are the quality counts."""
    state.server = Server()
    lines = [_line(i, body) for i, (_p, _inp, body) in enumerate(state.reference)]
    answers = asyncio.run(_open_loop(state.server, lines, None, state.tally.host))
    first = not state.quality.digests
    for (p, inp, _body_), msg in zip(state.reference, answers.responses):
        _check_response(PROBLEMS[p], inp, msg, state.tally)
        if msg is None or not msg.get("ok"):
            continue
        res, cell = msg["result"], PROBLEMS[p]
        if first:
            state.quality.digests[cell] = res["program_digest"]
            state.quality.cycles += res["run_cycles"]
            state.quality.contexts += res["used_contexts"]
        else:
            state.tally.verdict(
                state.quality.mismatch(cell, res["program_digest"])
            )


def _phase(state: Serve, phase: str, rate: float, seconds: float) -> Step:
    """One open-loop phase on the current server, outputs checked."""
    keys = zipf_keys(state.seed, phase, max(1, int(rate * seconds)))
    lines = [_line(i, state.keys[k][1]) for i, k in enumerate(keys)]
    step = asyncio.run(_open_loop(state.server, lines, rate, state.tally.host))
    for key, msg in zip(keys, step.responses):
        _check_response(PROBLEMS[key[0]], state.keys[key][0], msg, state.tally)
    return step


def run(state: Serve, seconds: float, trace: bool) -> Dict[str, Any]:
    steps: List[Step] = []
    for s, (rate, share) in enumerate(zip(RATES, STEP_SHARES)):
        if state.server is None:
            _start_server(state)
        _phase(state, f"warmup{s}", RATES[0], WARMUP_S)
        steps.append(_phase(state, f"step{s}", rate, seconds * share))
        teardown(state)

    lag = percentile([x for step in steps for x in step.lags_ms()], 99)
    if lag > 5.0:
        print(f"serve-zipf: the load generator ran {lag:.1f} ms late at "
              "p99 (over 5 ms): this run's latencies are not valid",
              file=sys.stderr)
    if not trace:
        middle = steps[MIDDLE].latencies_ms()
        top = steps[-1]
        good = sum(
            1 for msg, lat in zip(top.responses, top.latencies_ms())
            if msg is not None and msg.get("ok") and lat <= LATENCY_LIMIT_MS
        )
        return result(state.tally, state.quality, {
            # responses within the limit per second at the top rate
            "jobs_per_s": good / (max(top.recv) - top.due[0]),
            "job_p50_ms": percentile(middle, 50),
            "job_p99_ms": percentile(middle, tail_percentile(len(middle))),
        })
    out = _layer_metrics(steps[MIDDLE])
    sustained = 0.0
    for s, (rate, step) in enumerate(zip(RATES, steps)):
        lat = step.latencies_ms()
        out[f"serve.step{s + 1}.p99_ms"] = percentile(lat, 99)
        ok = all(m is not None and m.get("ok") for m in step.responses)
        # latency runs from the due time, so a growing backlog shows in
        # the last request as well as in the p99
        if ok and max(percentile(lat, 99), lat[-1]) <= LATENCY_LIMIT_MS:
            sustained = float(rate)
    out["serve.sustained_rps"] = sustained
    out["load.lag_p99_ms"] = lag
    out["serve.server_rss_mb"] = peak_rss_mb()[1]
    return result(state.tally, state.quality, out)


def _layer_metrics(step: Step) -> Dict[str, float]:
    """Split client latency with fields the server already returns."""
    wire, server, wait, worker = [], [], [], []
    kinds = {"memo": 0, "inflight": 0, "none": 0}
    cold = cache_hits = 0
    for sent, recv, msg in zip(step.sent, step.recv, step.responses):
        if msg is None or not msg.get("ok"):
            continue
        meta, res = msg["meta"], msg["result"]
        wire.append((recv - sent - meta["seconds"]) * 1e3)
        server.append(meta["seconds"] * 1e3)
        kinds[meta["dedupe"]] += 1
        if meta["dedupe"] == "none":
            compute = res["schedule_seconds"] + res["sim_seconds"]
            worker.append(compute * 1e3)
            wait.append((meta["seconds"] - compute) * 1e3)
            if res["cache_hit"]:
                cache_hits += 1
            else:
                cold += 1
    total = max(1, sum(kinds.values()))

    def mean(xs: List[float]) -> float:
        return sum(xs) / len(xs) if xs else 0.0

    return {
        "serve.wire.ms": mean(wire),
        "serve.server.ms": mean(server),
        "serve.wait.ms": mean(wait),
        "serve.worker.ms": mean(worker),
        "serve.memo_ratio": kinds["memo"] / total,
        "serve.inflight_ratio": kinds["inflight"] / total,
        "serve.cold_ratio": cold / total,
        "serve.cache_hit_ratio": cache_hits / max(1, kinds["none"]),
    }
