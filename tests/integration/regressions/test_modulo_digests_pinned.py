"""Modulo- and auto-mode program digests pinned across the full paper grid.

The list-mode digests (``list_digests.json``) only guard the default
strategy.  A change to the modulo II search that picks a different II,
or places a kernel span differently, can still simulate correctly — so
the differential suite would not notice.  This pins every
``repro.verify.workloads`` kernel on every paper composition in both
``modulo`` and ``auto`` mode; infeasible cells are pinned as
``error:<Type>``.

``modulo_digests.json`` was captured before the II search learned to
skip provably failing attempts (critical-path bound, one superblock
build per loop, deadline-slack abort).  Those are pure search-time
optimisations: every digest must stay byte-identical.  If a digest
legitimately changes (a deliberate scheduling change), re-capture the
baseline in the same change and say why.
"""

import json
import os

import pytest

from repro.arch.library import all_paper_compositions
from repro.context.generator import generate_contexts
from repro.perf.fingerprint import program_digest
from repro.sched.scheduler import schedule_kernel
from repro.verify.workloads import WORKLOADS, get_workload

BASELINE = os.path.join(os.path.dirname(__file__), "modulo_digests.json")
MODES = ("modulo", "auto")


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE) as fh:
        return json.load(fh)


def test_baseline_covers_the_full_grid(baseline):
    comps = all_paper_compositions()
    expected = {f"{w}|{c}|{m}" for w in WORKLOADS for c in comps for m in MODES}
    assert set(baseline) == expected


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("wname", WORKLOADS)
def test_modulo_digests_unchanged(baseline, wname, mode):
    kernel = get_workload(wname).build()
    for cname, comp in sorted(all_paper_compositions().items()):
        key = f"{wname}|{cname}|{mode}"
        pinned = baseline[key]
        try:
            schedule = schedule_kernel(kernel, comp, scheduler_mode=mode)
            program = generate_contexts(schedule, comp, kernel)
        except Exception as exc:  # pinned infeasible cells stay infeasible
            assert pinned == f"error:{type(exc).__name__}", (
                f"{key}: raised {type(exc).__name__}, baseline has {pinned}"
            )
            continue
        assert program_digest(program) == pinned, (
            f"{key}: {mode}-mode program changed vs the pinned baseline"
        )
