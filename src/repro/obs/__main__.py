"""Observability harness: ``python -m repro.obs [command] [options]``.

Default command (``run``, implied): run one kernel/composition pair
through the full pipeline (schedule -> contexts -> simulate) with
tracing, metrics and the run ledger enabled, print a human-readable
report of the scheduler/simulator internals, and optionally write the
trace (Chrome trace-event JSON and/or JSONL), the metrics snapshot and
the ledger to files::

    python -m repro.obs gcd --composition compositions/mesh4.json \\
        --trace out.trace.json --metrics out.metrics.json

Open the trace file in ``chrome://tracing`` or https://ui.perfetto.dev.

Benchmark-snapshot commands (the perf-regression observatory)::

    python -m repro.obs snapshot --tag seed -o BENCH_seed.json b1.json b2.json
    python -m repro.obs diff BENCH_seed.json BENCH_now.json
    python -m repro.obs check --baseline BENCH_seed.json BENCH_now.json \\
        --tolerance 10%

``snapshot`` rolls pytest-benchmark ``--benchmark-json`` outputs into a
canonical ``BENCH_<tag>.json`` with machine provenance; ``diff``
classifies every per-metric delta (improved/regressed/neutral);
``check`` exits non-zero when a gated metric regressed beyond the
tolerance.  See docs/observability.md for the event taxonomy, metric
names, and the snapshot/ledger schemas.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Tuple

from repro.arch.library import resolve_composition
from repro.obs import observe, timed
from repro.obs.ledger import RunLedger, set_ledger
from repro.sim.invocation import invoke_kernel

#: kernel name -> () -> (kernel, livein scalars, array contents)
_KernelSpec = Callable[[], Tuple[object, Dict[str, int], Dict[str, List[int]]]]


def _spec_gcd():
    from repro.kernels import gcd

    return gcd.build_kernel(), {"a": 1071, "b": 462}, {}


def _spec_dotp():
    from repro.kernels import dotp

    xs, ys = dotp.sample_inputs(8)
    return dotp.build_kernel(), {"n": 8}, {"xs": xs, "ys": ys}


def _spec_sort():
    from repro.kernels import sort

    return sort.build_kernel(), {"n": 8}, {"data": [5, 3, 8, 1, 9, 2, 7, 4]}


def _spec_crc32():
    from repro.kernels import crc32

    return crc32.build_kernel(), {"n": 4}, {"data": [0x12, 0x34, 0x56, 0x78]}


def _spec_histogram():
    from repro.kernels import histogram

    return (
        histogram.build_kernel(),
        {"n": 8, "nbins": 4},
        {"data": [0, 1, 2, 3, 3, 2, 1, 0], "bins": [0, 0, 0, 0]},
    )


def _spec_matmul():
    from repro.kernels import matmul

    return (
        matmul.build_kernel(),
        {"n": 3},
        {"a": list(range(1, 10)), "b": list(range(9, 0, -1)), "c": [0] * 9},
    )


def _spec_fir():
    from repro.kernels import fir

    return (
        fir.build_kernel(),
        {"n": 8, "taps": 3},
        {
            "xs": [3, 1, 4, 1, 5, 9, 2, 6],
            "coeffs": [1, 2, 1],
            "ys": [0] * 8,
        },
    )


def _spec_adpcm():
    from repro.eval.tables import adpcm_workload

    kernel, arrays, _expect = adpcm_workload(16)
    return kernel, {"n": 16, "gain": 4096}, arrays


KERNELS: Dict[str, _KernelSpec] = {
    "gcd": _spec_gcd,
    "dotp": _spec_dotp,
    "sort": _spec_sort,
    "crc32": _spec_crc32,
    "histogram": _spec_histogram,
    "matmul": _spec_matmul,
    "fir": _spec_fir,
    "adpcm": _spec_adpcm,
}


def _top_counters(snapshot: Dict, prefix: str, limit: int = 5) -> List[str]:
    rows = sorted(
        (
            (v, k)
            for k, v in snapshot["counters"].items()
            if k.startswith(prefix)
        ),
        reverse=True,
    )
    return [f"{k} = {v:g}" for v, k in rows[:limit]]


def _snapshot_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs snapshot",
        description="Roll pytest-benchmark JSON outputs into a "
        "canonical BENCH_<tag>.json snapshot with provenance.",
    )
    parser.add_argument(
        "inputs",
        nargs="+",
        metavar="BENCHMARK_JSON",
        help="pytest-benchmark --benchmark-json output file(s)",
    )
    parser.add_argument("--tag", required=True, help="snapshot tag, e.g. seed")
    parser.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="destination (default: BENCH_<tag>.json)",
    )
    parser.add_argument("--note", help="free-form annotation stored in the file")
    args = parser.parse_args(argv)

    from repro.obs.bench import build_snapshot, write_snapshot

    pairs = []
    for path in args.inputs:
        with open(path) as fh:
            pairs.append((path, json.load(fh)))
    snapshot = build_snapshot(args.tag, pairs, note=args.note)
    out = args.output or f"BENCH_{args.tag}.json"
    write_snapshot(out, snapshot)
    print(
        f"snapshot {args.tag!r} written to {out}: "
        f"{len(snapshot['metrics'])} metrics from "
        f"{len(args.inputs)} input file(s)"
    )
    return 0


def _diff_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs diff",
        description="Classify per-metric deltas between two snapshots "
        "(improved / regressed / neutral).",
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json (or raw benchmark JSON)")
    parser.add_argument(
        "--tolerance",
        default="10%",
        help="neutral band, e.g. 10%% or 0.1 (default: 10%%)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="list neutral metrics too"
    )
    args = parser.parse_args(argv)

    from repro.obs.bench import load_snapshot
    from repro.obs.regress import compare, parse_tolerance, render_deltas

    deltas = compare(
        load_snapshot(args.baseline),
        load_snapshot(args.current),
        tolerance=parse_tolerance(args.tolerance),
    )
    print(render_deltas(deltas, verbose=args.verbose))
    return 0


def _check_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs check",
        description="Gate a current snapshot against a baseline: exit "
        "non-zero when a gated metric regressed beyond the tolerance.",
    )
    parser.add_argument(
        "current",
        nargs="+",
        metavar="CURRENT",
        help="current snapshot, or raw pytest-benchmark JSON file(s) "
        "(rolled into an ephemeral snapshot)",
    )
    parser.add_argument(
        "--baseline", required=True, metavar="FILE", help="baseline BENCH_*.json"
    )
    parser.add_argument(
        "--tolerance",
        default="10%",
        help="neutral band, e.g. 10%% or 0.1 (default: 10%%)",
    )
    parser.add_argument(
        "--include-times",
        action="store_true",
        help="also gate wall-clock metrics (same-machine comparisons)",
    )
    parser.add_argument(
        "--include-ratios",
        action="store_true",
        help="also gate speedup/hit-rate ratio metrics",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="list neutral metrics too"
    )
    args = parser.parse_args(argv)

    from repro.obs.bench import build_snapshot, is_snapshot, load_snapshot
    from repro.obs.regress import compare, gate, parse_tolerance, render_deltas

    if len(args.current) == 1:
        current = load_snapshot(args.current[0])
    else:
        pairs = []
        for path in args.current:
            with open(path) as fh:
                data = json.load(fh)
            if is_snapshot(data):
                parser.error(
                    f"{path}: pass a single snapshot, or only raw "
                    f"benchmark JSON files"
                )
            pairs.append((path, data))
        current = build_snapshot("current", pairs)

    baseline = load_snapshot(args.baseline)
    deltas = compare(
        baseline, current, tolerance=parse_tolerance(args.tolerance)
    )
    print(
        f"baseline {baseline.get('tag')!r} "
        f"({baseline.get('provenance', {}).get('hostname', '?')}) vs "
        f"current {current.get('tag')!r}:"
    )
    print(render_deltas(deltas, verbose=args.verbose))
    failures = gate(
        deltas,
        include_times=args.include_times,
        include_ratios=args.include_ratios,
    )
    if failures:
        print(f"\nFAIL: {len(failures)} gated regression(s):")
        for d in failures:
            print(f"  {d.render()}")
        return 1
    regressed = sum(1 for d in deltas if d.classification == "regressed")
    print(
        f"\nok: no gated regressions"
        + (f" ({regressed} non-gated regression(s) reported above)" if regressed else "")
    )
    return 0


_SUBCOMMANDS = {
    "snapshot": _snapshot_main,
    "diff": _diff_main,
    "check": _check_main,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return _run_main(argv)


def _run_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kernel",
        nargs="?",
        default="gcd",
        choices=sorted(KERNELS),
        help="workload kernel (default: gcd)",
    )
    parser.add_argument(
        "-c",
        "--composition",
        default="mesh4",
        help="composition: JSON file path, meshN, or irregularA..F "
        "(default: mesh4)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", help="write Chrome trace-event JSON"
    )
    parser.add_argument(
        "--jsonl", metavar="FILE", help="write the raw trace records as JSONL"
    )
    parser.add_argument(
        "--metrics", metavar="FILE", help="write the metrics snapshot as JSON"
    )
    parser.add_argument(
        "--ledger", metavar="FILE", help="write the run ledger as JSONL"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the report"
    )
    args = parser.parse_args(argv)

    try:
        comp = resolve_composition(args.composition)
    except ValueError as exc:
        parser.error(str(exc))
    kernel, livein, arrays = KERNELS[args.kernel]()

    ledger = RunLedger(args.ledger)
    previous_ledger = set_ledger(ledger)
    try:
        with observe() as session:
            with timed("obs.pipeline", kernel=args.kernel):
                result = invoke_kernel(kernel, comp, livein, arrays)
    finally:
        set_ledger(previous_ledger)

    snapshot = session.metrics.snapshot()
    if not args.quiet:
        print(f"=== {args.kernel} on {comp.name} ===")
        print(f"results: {result.results}")
        print(
            f"run: {result.run_cycles} cycles "
            f"({result.total_cycles} with transfers), "
            f"{sum(result.run.ops_executed)} dynamic ops, "
            f"{result.run.branches_taken} taken branches"
        )
        placed = snapshot["counters"].get("sched.ops.placed", 0)
        attempts = snapshot["counters"].get("sched.placement.attempts", 0)
        copies = snapshot["counters"].get("route.copies.inserted", 0)
        print(
            f"scheduler: {placed:g} ops placed in {attempts:g} placement "
            f"attempts, {copies:g} routing copies inserted"
        )
        rejects = _top_counters(snapshot, "sched.placement.rejected")
        if rejects:
            print("top rejection reasons:")
            for row in rejects:
                print(f"  {row}")
        print()
        print(session.metrics.render_report())

    if args.trace:
        session.tracer.to_chrome(args.trace)
        print(
            f"trace written to {args.trace} "
            f"({len(session.tracer.records)} records)"
        )
    if args.jsonl:
        session.tracer.to_jsonl(args.jsonl)
        print(f"JSONL trace written to {args.jsonl}")
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(snapshot, fh, indent=2)
        print(f"metrics written to {args.metrics}")
    if args.ledger:
        ledger.write()
        print(f"run ledger written to {args.ledger} ({len(ledger)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
