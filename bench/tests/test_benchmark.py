"""Self-tests of the benchmark, at the ``--smoke`` scale.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import compare
import inputs as kin
import run
import serveload
import spans
import workloads
from repro.kernels import gcd

with open(run.SPEC) as _fh:
    SPEC = json.load(_fh)
SMOKE_SECONDS = "0.3"


def bench(workload, seed, trace):
    """One smoke-scale run through the command line; returns the result
    line and the per-workload record."""
    out = os.path.join(run.OUT_DIR, f"test-{workload}-{seed}-{trace}.json")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--seconds", SMOKE_SECONDS, "--smoke", "--out", out],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as fh:
        (record,) = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


@pytest.fixture(scope="module")
def runs():
    return {
        (w, t): bench(w, 7, t) for w in run.WORKLOADS for t in (0, 1)
    }


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload, trace):
    line, _record = runs[(workload, trace)]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = line["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_traced_runs_account_for_direct_jobs(runs):
    for workload in workloads.DIRECT:
        metrics = runs[(workload, 1)][0]["metrics"]
        share = metrics["bench.unattributed.share"]["value"]
        assert 0 <= share <= workloads.UNATTRIBUTED_LIMIT


def test_same_seed_same_jobs_and_counts(runs):
    state = workloads.setup("compile-cold", 7, smoke=True)
    assert workloads.job_list(state, 50) == workloads.job_list(state, 50)
    again = workloads.setup("compile-cold", 7, smoke=True)
    assert workloads.job_list(state, 50) == workloads.job_list(again, 50)
    for trace, names in (
        (0, ("sim_cycles_total", "contexts_total")),
        (1, [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]),
    ):
        first = runs[("compile-cold", trace)][0]["metrics"]
        second = bench("compile-cold", 7, trace)[0]["metrics"]
        for name in names:
            assert first[name]["value"] == second[name]["value"], name


def test_different_seed_different_jobs():
    for name in workloads.DIRECT:
        a = workloads.job_list(workloads.setup(name, 1, smoke=True), 30)
        b = workloads.job_list(workloads.setup(name, 2, smoke=True), 30)
        assert a != b, name
    assert serveload.zipf_keys(1, "step0", 50) != serveload.zipf_keys(2, "step0", 50)
    vectors = [
        [wl.vectors for wl, _ in workloads.setup_mutation(seed, True).cells]
        for seed in (1, 2)
    ]
    assert vectors[0] != vectors[1]


def test_generated_inputs_keep_kernel_preconditions():
    import random

    rng = random.Random(3)
    for _ in range(50):
        fir = kin.generate("fir", rng)
        n, taps = fir.livein["n"], fir.livein["taps"]
        assert n + taps - 1 <= len(fir.arrays["xs"])
        gcd_in = kin.generate("gcd", rng)
        assert min(gcd_in.livein.values()) >= 1


def test_wrong_golden_value_shows_up_as_failed_outputs(monkeypatch):
    monkeypatch.setattr(gcd, "golden", lambda a, b: math.gcd(a, b) + 1)
    state = workloads.setup("compile-cold", 7, smoke=True)
    out = workloads.measure("compile-cold", state, 0.0)
    gcd_jobs = sum(1 for k, _ in state.cells if k == "gcd")
    assert out["failed"] >= gcd_jobs > 0
    assert out["failed"] / out["attempted"] > 0
    assert any("gcd" in e for e in out["errors"])


def test_guard_fails_when_a_layer_is_never_reached():
    recorder = spans.Recorder()
    undo = spans.install(recorder)
    undo()
    with pytest.raises(RuntimeError, match="sched.place"):
        spans.guard(recorder, ["sched.place"])


def test_install_fails_loudly_on_a_renamed_function(monkeypatch):
    monkeypatch.setitem(
        spans.LAYERS, "sched.place", ("repro.sched.scheduler:no_such_function",)
    )
    with pytest.raises(AttributeError):
        spans.install(spans.Recorder())


def test_compare_rule():
    # every pair won and medians apart by more than the parent's spread
    what, won = compare.verdict(
        [10, 10.2, 9.9, 10.1], [12, 12.1, 11.9, 12.2],
        list(zip([10, 10.2, 9.9, 10.1], [12, 12.1, 11.9, 12.2])), True, 0.1,
    )
    assert (what, won) == ("gain", 1.0)
    # worse by more than the bound
    what, _ = compare.verdict([10, 10, 10], [8, 8, 8], [(10, 8)] * 3, True, 0.1)
    assert what == "regressed"
    # the parent's own spread exceeds the bound
    what, _ = compare.verdict(
        [5, 10, 15, 20], [9, 10, 11, 12], list(zip([5, 10, 15, 20], [9, 10, 11, 12])),
        True, 0.1,
    )
    assert what == "unresolved"
