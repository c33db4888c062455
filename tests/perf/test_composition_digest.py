"""A composition carries its content digest: prove the carried copy honest.

:func:`~repro.perf.fingerprint.composition_fingerprint` hashes a
composition once and keeps the digest on the frozen object, so pool
workers receive it with their pickled copy and library names resolve to
one shared object.  These tests pin that the carried digest always
equals a fresh recompute, that it never leaks into the composition's
value semantics, and that nothing downstream mutates a composition.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import pickle

import pytest

from repro.arch.description import load_composition
from repro.arch.library import (
    IRREGULAR_NAMES,
    MESH_SIZES,
    all_paper_compositions,
    resolve_composition,
)
from repro.context.generator import generate_contexts
from repro.perf.fingerprint import (
    _digest,
    _encode_composition,
    composition_fingerprint,
)
from repro.sched.scheduler import schedule_kernel
from repro.serve.jobs import JobSpec, resolve_workload
from repro.sim.invocation import invoke_kernel
from repro.verify.workloads import WORKLOADS

COMP_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "compositions")
JSON_FILES = sorted(
    path
    for path in glob.glob(os.path.join(COMP_DIR, "*.json"))
    if os.path.basename(path) != "index.json"
)
LIBRARY_NAMES = [f"mesh{n}" for n in MESH_SIZES] + [
    f"irregular{x}" for x in IRREGULAR_NAMES
]
MODES = ("list", "modulo", "auto")
BACKENDS = ("interpreter", "compiled")
#: the default 416-sample ADPCM stream is needlessly long here
PARAMS = {"adpcm": (("n_samples", 16),)}


def _fresh(comp):
    return _digest(_encode_composition(comp))


def _all_compositions():
    comps = list(all_paper_compositions().values())
    comps += [load_composition(path) for path in JSON_FILES]
    return comps


def test_shipped_files_are_all_found():
    assert len(JSON_FILES) == len(all_paper_compositions()) == 12


@pytest.mark.parametrize("comp", _all_compositions(), ids=lambda c: c.name)
def test_carried_digest_survives_pickling(comp):
    digest = composition_fingerprint(comp)
    assert comp.__dict__["_fingerprint"] == digest
    copy = pickle.loads(pickle.dumps(comp))
    assert copy.__dict__.get("_fingerprint") == digest
    assert composition_fingerprint(copy) == _fresh(copy) == digest
    # a pool worker's JobSpec brings its composition's digest along
    spec = pickle.loads(pickle.dumps(JobSpec(workload="gcd", composition=comp)))
    assert spec.composition.__dict__.get("_fingerprint") == digest


def test_replace_gets_a_new_digest():
    comp = all_paper_compositions()["4 PEs"]
    digest = composition_fingerprint(comp)
    smaller = dataclasses.replace(comp, context_size=comp.context_size // 2)
    assert "_fingerprint" not in smaller.__dict__
    assert composition_fingerprint(smaller) == _fresh(smaller) != digest


def test_digest_is_not_part_of_the_value():
    plain = all_paper_compositions()["8 PEs C"]
    carried = all_paper_compositions()["8 PEs C"]
    before = (repr(carried), _encode_composition(carried))
    digest = composition_fingerprint(carried)
    assert "_fingerprint" in carried.__dict__
    assert "_fingerprint" not in plain.__dict__
    assert carried == plain
    assert (repr(carried), _encode_composition(carried)) == before
    # the generated __eq__/__hash__/__repr__ read the fields only
    fields = {f.name for f in dataclasses.fields(carried)}
    assert "_fingerprint" not in fields
    assert digest not in repr(carried)
    assert digest not in repr(_encode_composition(carried))


def test_library_names_share_one_object():
    for name in LIBRARY_NAMES:
        comp = resolve_composition(name)
        assert comp.name == name
        assert resolve_composition(name) is comp
    assert resolve_composition("A") is resolve_composition("irregularA")
    assert resolve_composition("irregulara") is resolve_composition("a")
    assert resolve_composition("mesh04") is resolve_composition("mesh4")
    with pytest.raises(ValueError, match="unknown composition"):
        resolve_composition("mesh5")


def test_json_files_are_never_tabled():
    path = JSON_FILES[0]
    first, second = resolve_composition(path), resolve_composition(path)
    assert first is not second
    assert first == second
    assert first is not resolve_composition(first.name)


@pytest.mark.parametrize("name", WORKLOADS)
def test_pipeline_never_mutates_a_shared_composition(name):
    comps = [resolve_composition(n) for n in LIBRARY_NAMES]
    before = [composition_fingerprint(comp) for comp in comps]
    for comp, digest in zip(comps, before):
        job = resolve_workload(
            JobSpec(workload=name, composition=comp, params=PARAMS.get(name, ()))
        )
        for mode in MODES:
            schedule = schedule_kernel(job.kernel, comp, scheduler_mode=mode)
            program = generate_contexts(schedule, comp, job.kernel)
            for backend in BACKENDS:
                invoke_kernel(
                    job.kernel, comp, job.livein, job.arrays,
                    program=program, backend=backend,
                )
            assert _fresh(comp) == digest, (
                f"{name} ({mode}) mutated {comp.name}"
            )
    assert [composition_fingerprint(c) for c in comps] == before
