"""Verification harness: ``python -m repro.verify [options]``.

Two modes (see docs/testing.md):

* default — schedule each workload on each composition, emit contexts
  and run the independent static verifier over the result, reporting
  any findings (exit 1 if a program fails verification);
* ``--mutate`` — additionally run the mutation fault-injection
  campaign: corrupt each emitted program one field at a time and
  classify every mutant as caught-static / caught-dynamic / escaped,
  printing the detection-coverage table.  Exit 1 when coverage drops
  below ``--min-caught`` (default 0.95) or any mutant escapes.

Examples::

    python -m repro.verify                        # verify gcd+adpcm
    python -m repro.verify --all -c mesh4 -c B    # verify all kernels
    python -m repro.verify --mutate --json out.json

``--trace FILE`` / ``--metrics FILE`` / ``--ledger FILE`` capture the
run exactly as on ``python -m repro.eval``: a Chrome trace of the
checker / mutation-campaign spans (``verify.check``,
``verify.campaign``, ``verify.campaign.cell``, ``verify.mutate``), the
metrics snapshot (``verify.*`` counters and timing histograms), and the
JSONL run ledger.  See docs/observability.md.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.arch.library import resolve_composition
from repro.obs import observe
from repro.obs.ledger import RunLedger, pipeline_record, set_ledger
from repro.sim.machine import SIM_BACKENDS
from repro.verify import set_verify_enabled, verify_program
from repro.verify.mutate import run_mutation_campaign
from repro.verify.workloads import WORKLOADS, get_workload

DEFAULT_KERNELS = ("gcd", "adpcm")
DEFAULT_COMPOSITIONS = ("mesh4", "irregularB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kernels",
        nargs="*",
        metavar="KERNEL",
        help=f"workloads to check (default: {' '.join(DEFAULT_KERNELS)}; "
        f"available: {' '.join(WORKLOADS)})",
    )
    parser.add_argument(
        "--all", action="store_true", help="check every registered workload"
    )
    parser.add_argument(
        "-c",
        "--composition",
        action="append",
        metavar="COMP",
        help="composition: JSON file path, meshN, or irregularA..F "
        f"(repeatable; default: {' '.join(DEFAULT_COMPOSITIONS)})",
    )
    parser.add_argument(
        "--mutate",
        action="store_true",
        help="run the mutation fault-injection campaign",
    )
    parser.add_argument(
        "--backend",
        choices=SIM_BACKENDS,
        default="compiled",
        help="simulator backend for the dynamic oracle (default: "
        "compiled)",
    )
    parser.add_argument(
        "--scheduler",
        choices=("list", "modulo", "auto"),
        default="list",
        help="scheduling strategy the checked/mutated programs are "
        "built with (campaign axis; default: list)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the mutation coverage report as JSON",
    )
    parser.add_argument(
        "--min-caught",
        type=float,
        default=0.95,
        metavar="FRAC",
        help="fail if the caught fraction drops below FRAC (default 0.95)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome-trace JSON of the verification run",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a metrics-snapshot JSON of the verification run",
    )
    parser.add_argument(
        "--ledger",
        metavar="FILE",
        help="write the run ledger (one JSONL record per checked "
        "program / campaign cell)",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.all else (args.kernels or list(DEFAULT_KERNELS))
    try:
        workloads = [get_workload(name) for name in names]
    except KeyError as exc:
        parser.error(str(exc))
    try:
        comps = [
            resolve_composition(spec)
            for spec in (args.composition or DEFAULT_COMPOSITIONS)
        ]
    except ValueError as exc:
        parser.error(str(exc))

    # the generator hook would re-run the checker redundantly (and turn
    # findings into exceptions before we can report them) — run it
    # explicitly here instead.
    set_verify_enabled(False)

    want_obs = args.trace or args.metrics or args.ledger
    ledger = RunLedger(args.ledger)
    previous_ledger = set_ledger(ledger) if args.ledger else None
    try:
        if want_obs:
            with observe() as session:
                rc = _run_checks(args, workloads, comps, ledger)
        else:
            rc = _run_checks(args, workloads, comps, ledger)
    finally:
        if args.ledger:
            set_ledger(previous_ledger)
    if args.trace:
        session.tracer.to_chrome(args.trace)
        print(
            f"trace written to {args.trace} "
            f"({len(session.tracer.records)} records)"
        )
    if args.metrics:
        with open(args.metrics, "w") as fh:
            json.dump(session.metrics.snapshot(), fh, indent=2)
        print(f"metrics written to {args.metrics}")
    if args.ledger:
        ledger.write()
        print(f"run ledger written to {args.ledger} ({len(ledger)} records)")
    return rc


def _run_checks(args, workloads, comps, ledger) -> int:
    if args.mutate:
        report = run_mutation_campaign(
            workloads,
            comps,
            backend=args.backend,
            scheduler_mode=args.scheduler,
            progress=print,
        )
        if ledger.enabled:
            for cell in report.cells:
                ledger.record(
                    "verify.campaign.cell",
                    kernel=cell.kernel,
                    composition=cell.composition,
                    mutants=cell.n_mutants,
                    caught_static=cell.count("caught_static"),
                    caught_dynamic=cell.count("caught_dynamic"),
                    equivalent=cell.count("equivalent"),
                    escaped=cell.count("escaped"),
                    backend=args.backend,
                    scheduler_mode=args.scheduler,
                )
        print()
        print(report.render_table())
        if args.json:
            report.write_json(args.json)
            print(f"\ncoverage report written to {args.json}")
        ok = True
        if report.caught_fraction < args.min_caught:
            print(
                f"FAIL: caught fraction {report.caught_fraction:.3f} < "
                f"{args.min_caught}"
            )
            ok = False
        escaped = report.escaped()
        if escaped:
            print(f"FAIL: {len(escaped)} escaped mutant(s):")
            for cell, r in escaped:
                where = f"ccnt {r.ccnt}" if r.ccnt is not None else "?"
                if r.pe is not None:
                    where += f", PE {r.pe}"
                print(
                    f"  {cell.kernel} on {cell.composition} [{where}] "
                    f"{r.operator}: {r.description}"
                )
            ok = False
        return 0 if ok else 1

    from repro.context.generator import generate_contexts
    from repro.sched.scheduler import schedule_kernel

    rc = 0
    for workload in workloads:
        kernel = workload.build()
        for comp in comps:
            schedule = schedule_kernel(
                kernel, comp, scheduler_mode=args.scheduler
            )
            program = generate_contexts(schedule, comp, kernel)
            findings = verify_program(program, comp)
            if ledger.enabled:
                ledger.record(
                    "verify.program",
                    **pipeline_record(
                        kernel,
                        comp,
                        program,
                        verifier="ok" if not findings else str(len(findings)),
                    ),
                )
            status = "ok" if not findings else f"{len(findings)} finding(s)"
            print(
                f"{workload.name} on {comp.name}: {program.n_cycles} "
                f"contexts, {status}"
            )
            for f in findings:
                print(f"  {f.render()}")
                rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
