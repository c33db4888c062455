"""The repository's benchmark: one command for every workload and metric.

    python3 bench/run.py --workload W --seed N [--seconds S] [--trace 0|1]
                         [--out FILE] [--report md] [--smoke]
    python3 bench/run.py compare --parent A.json... --change B.json...

Without ``--workload`` every workload runs, each in a fresh Python
process.  ``--trace 0`` (the default) prints the end-to-end metrics;
``--trace 1`` (or ``--traced``) prints the per-layer ones.  Every metric
is printed by name with its unit, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The command exits non-zero when an output is wrong.

``setup_s`` is measured from outside: the time from starting a fresh
process to the workload being ready (imports, compositions, inputs, the
warm-up quality pass, a started server).  It is the median of several
fresh starts, so work moved into set-up shows.  Job and set-up times are
scaled to a reference host by a calibration loop timed between jobs
(see ``hostspeed.py``); each run prints the host speed it scaled by.

This file imports nothing from the program; the measuring child process
does, from ``src/`` next to this directory and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
#: where traced runs write their spans
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = (
    "compile-cold",
    "modulo-sweep",
    "adpcm-stream",
    "grid-parallel",
    "mutation-campaign",
    "serve-zipf",
)

#: set-up-only starts before the measured one (setup_s is the median
#: of all the starts)
SETUP_STARTS = 2
#: host-speed samples a child takes at each end of its set-up
SETUP_SAMPLES = 3
#: wall-clock budget of one workload, every process included
TIME_LIMIT_S = 150.0
#: time a child gets to stop its servers once its budget has run out
KILL_GRACE_S = 20.0

READY = "BENCH-READY"
RESULT = "BENCH-RESULT "

#: unit of every metric the code measures; BENCHMARK.json must agree
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "sim_cycles_total": "cycles",
    "contexts_total": "contexts",
    "peak_rss_mb": "MB",
    **{
        f"{layer}.{kind}": unit
        for layer in (
            "jobs.resolve", "perf.fingerprint", "perf.cache", "sched.region",
            "sched.place", "context.regalloc", "context.emit", "verify",
            "sim.compile", "sim.exec", "verify.mutate",
        )
        for kind, unit in (("ms", "ms"), ("share", "fraction"))
    },
    "perf.cache.hit_ratio": "fraction",
    "sched.placement.attempts": "count",
    "sched.placement.accepted": "count",
    "sched.placement.accept_ratio": "fraction",
    "sched.checkpoint.rollbacks": "count",
    "sched.modulo.attempts": "count",
    "sched.modulo.fallback": "count",
    "route.copies.inserted": "count",
    "verify.programs": "count",
    "sim.compile.count": "count",
    "sim.cycles_per_s": "cycles/s",
    "verify.mutants.caught_static": "count",
    "verify.mutants.caught_dynamic": "count",
    "verify.mutants.equivalent": "count",
    "verify.mutants.escaped": "count",
    "perf.parallel.speedup": "x",
    "perf.pool.fallbacks": "count",
    "serve.wire.ms": "ms",
    "serve.server.ms": "ms",
    "serve.wait.ms": "ms",
    "serve.worker.ms": "ms",
    "serve.memo_ratio": "fraction",
    "serve.inflight_ratio": "fraction",
    "serve.cold_ratio": "fraction",
    "serve.cache_hit_ratio": "fraction",
    "serve.step1.p99_ms": "ms",
    "serve.step2.p99_ms": "ms",
    "serve.step3.p99_ms": "ms",
    "serve.sustained_rps": "req/s",
    "serve.server_rss_mb": "MB",
    "load.lag_p99_ms": "ms",
    "bench.unattributed.share": "fraction",
    "bench.trace_overhead": "fraction",
    "bench.host_speed": "x",
}


def applies(name: str, workload: str) -> bool:
    """Whether ``workload`` exercises the layer behind the per-layer
    metric ``name``.  A metric that does not apply is reported as 0."""
    if name.startswith(("serve.", "load.")):
        return workload == "serve-zipf"
    if name == "bench.host_speed":
        return True
    if workload == "serve-zipf":
        # the server runs in other processes: no in-process spans
        return False
    if name == "perf.parallel.speedup":
        return workload == "grid-parallel"
    if name.startswith("verify.mutants."):
        return workload == "mutation-campaign"
    return True


def load_spec() -> Dict[str, Any]:
    with open(SPEC) as fh:
        spec = json.load(fh)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if UNITS.get(metric["name"]) != metric["unit"]:
            raise SystemExit(
                f"BENCHMARK.json: {metric['name']} has unit "
                f"{metric['unit']!r}; the benchmark measures "
                f"{UNITS.get(metric['name'])!r}"
            )
    return spec


def provenance() -> Dict[str, Any]:
    rev = None
    # only the checkout's own repository: git would otherwise search the
    # directories above it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_rev": rev,
    }


# ---------------------------------------------------------------------------
# Parent: one fresh process per start
# ---------------------------------------------------------------------------


def _spawn(args, workload: str, setup_only: bool, budget: float):
    """Start a child; returns (seconds to ready, result or None)."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)

    def expire() -> None:
        proc.terminate()
        try:
            proc.wait(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()

    timer = threading.Timer(max(0.0, budget), expire)
    timer.start()
    ready: Optional[float] = None
    payload = None
    try:
        for line in proc.stdout:
            if line.startswith(READY) and ready is None:
                # scaled to the reference host like the job times
                ready = (time.perf_counter() - t0) * float(line.split()[1])
            elif line.startswith(RESULT):
                payload = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(
            f"{workload}: child exited with code {proc.returncode}"
            + ("" if ready is not None else " before it was ready")
        )
    if not setup_only and payload is None:
        raise RuntimeError(f"{workload}: child printed no result")
    return ready, payload


def run_workload(args, spec, workload: str) -> Dict[str, Any]:
    stop = time.perf_counter() + TIME_LIMIT_S
    starts = [] if args.smoke else [
        _spawn(args, workload, True, stop - time.perf_counter())[0]
        for _ in range(SETUP_STARTS)
    ]
    ready, payload = _spawn(args, workload, False, stop - time.perf_counter())
    raw = dict(payload["metrics"], setup_s=statistics.median(starts + [ready]))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name in raw:
            value = raw[name]
        elif not args.trace or applies(name, workload):
            raise RuntimeError(f"{workload}: metric {name} was not measured")
        else:
            value = 0.0
        metrics[name] = {"value": value, "unit": metric["unit"]}
    failed = payload["failed"]
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": payload["attempted"],
        "failed": failed,
        "errors": payload["errors"],
        "host_speed": raw["bench.host_speed"],
        "metrics": metrics,
        "provenance": provenance(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_md(records: List[Dict[str, Any]]) -> str:
    """Where one job spends its time, per workload (traced records)."""
    layers = [name[: -len(".ms")] for name in UNITS if name.endswith(".ms")]
    head = "| layer | " + " | ".join(r["workload"] for r in records) + " |"
    rule = "|---|" + "---|" * len(records)
    rows = [head, rule]
    for layer in layers + ["bench.unattributed"]:
        cells = []
        for r in records:
            m = r["metrics"]
            parts = []
            if f"{layer}.ms" in m:
                parts.append(f"{m[f'{layer}.ms']['value']:.3f} ms")
            if f"{layer}.share" in m:
                parts.append(f"({m[f'{layer}.share']['value']:.1%})")
            cells.append(" ".join(parts))
        rows.append(f"| {layer} | " + " | ".join(cells) + " |")
    p = records[0]["provenance"]
    rows.append("")
    rows.append(
        f"nproc {p['nproc']}, Python {p['python']} ({p['machine']}), "
        f"git {p['git_rev']}, seed {records[0]['seed']}, "
        f"{records[0]['seconds']:g} s per workload"
    )
    return "\n".join(rows)


def parent(args) -> int:
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        try:
            record = run_workload(args, spec, workload)
        except RuntimeError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        records.append(record)
        for name, m in record["metrics"].items():
            print(f"{workload:<18} {name:<32} {_fmt(m['value']):>14} {m['unit']}")
        rate = record["failed"] / record["attempted"]
        print(f"{workload:<18} {'error_rate':<32} {_fmt(rate):>14} fraction "
              f"({record['failed']} of {record['attempted']} outputs wrong)")
        print(f"{workload:<18} {'host speed':<32} "
              f"{_fmt(record['host_speed']):>14} x (job times are scaled "
              "to the reference host by it)")
        for error in record["errors"]:
            print(f"{workload:<18} WRONG: {error}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=2)
    if args.report:
        print(report_md(records))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": m
            for r in records for name, m in r["metrics"].items()
        }
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Child: set up, say ready, measure
# ---------------------------------------------------------------------------


def child(args) -> int:
    # the parent's timeout terminates this process: unwind so the
    # teardown below stops any server this workload started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from hostspeed import HostSpeed

    # host speed at both ends of set-up, which the parent scales it by
    host = HostSpeed()
    for _ in range(SETUP_SAMPLES):
        host.sample()
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        print(f"bench: repro imported from {origin}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    state = workloads.setup(args.workload, args.seed, args.smoke)
    try:
        for _ in range(SETUP_SAMPLES):
            host.sample()
        print(f"{READY} {host.speed()!r}", flush=True)
        if args.setup_only:
            return 0
        spans_path = None
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(
                OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"
            )
        out = workloads.measure(args.workload, state, args.seconds, spans_path)
    finally:
        workloads.teardown(args.workload, state)
    print(RESULT + json.dumps(out), flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], SPEC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", metavar="FILE",
                        help="write the per-workload records as JSON "
                             "(the input of the compare subcommand)")
    parser.add_argument("--report", choices=("md",),
                        help="with --trace 1: print the per-layer time "
                             "table as markdown")
    parser.add_argument("--smoke", action="store_true",
                        help="small problem sets and one fresh start per "
                             "workload (the self-tests' scale)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report and not args.trace:
        parser.error("--report md needs --trace 1")
    if args.child:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
