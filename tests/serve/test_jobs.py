"""Job layer unit behaviour: fingerprints, execution, grid equivalence."""

from __future__ import annotations

import pickle

import pytest

from repro.arch.library import irregular_composition, mesh_composition
from repro.eval.tables import run_adpcm_on, run_grid
from repro.perf.cache import ScheduleCache
from repro.serve.jobs import (
    JobSpec,
    ResolvedJob,
    execute_job,
    job_payload,
    register_workload,
    resolve_workload,
)


def _spec(**kw):
    defaults = dict(workload="gcd", composition=mesh_composition(4))
    defaults.update(kw)
    return JobSpec(**defaults)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert _spec().fingerprint() == _spec().fingerprint()

    def test_label_and_cache_knobs_do_not_change_it(self):
        base = _spec().fingerprint()
        assert _spec(label="pretty name").fingerprint() == base
        assert _spec(cached=True, cache_dir="/tmp/x").fingerprint() == base
        assert _spec(ledger_kind="serve.job").fingerprint() == base

    def test_result_relevant_fields_change_it(self):
        base = _spec().fingerprint()
        assert _spec(workload="dotp").fingerprint() != base
        assert (
            _spec(composition=mesh_composition(9)).fingerprint() != base
        )
        assert _spec(backend="interpreter").fingerprint() != base
        assert _spec(max_cycles=1000).fingerprint() != base
        assert _spec(livein=(("a", 5),)).fingerprint() != base
        assert _spec(params=(("unroll", 1),)).fingerprint() != base

    def test_equal_content_compositions_share_an_address(self):
        a = JobSpec(workload="gcd", composition=mesh_composition(4))
        b = JobSpec(workload="gcd", composition=mesh_composition(4))
        assert a.fingerprint() == b.fingerprint()

    def test_spec_is_picklable(self):
        spec = _spec(params=(("n_samples", 8),), livein=(("n", 8),))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestExecuteJob:
    def test_registry_workload_runs(self):
        result = execute_job(_spec())
        assert result.run_cycles > 0
        assert len(result.program_digest) == 64
        assert result.energy_units > 0
        assert result.cache_hit is None

    def test_adpcm_carries_its_oracle(self):
        spec = JobSpec(
            workload="adpcm",
            composition=mesh_composition(4),
            params=(("n_samples", 16),),
        )
        result = execute_job(spec)
        assert result.correct is True
        assert "outp" in result.heap

    def test_injected_cache_hits_second_time(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        first = execute_job(_spec(), cache=cache)
        second = execute_job(_spec(), cache=cache)
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert second.program_digest == first.program_digest
        assert (first.cache_misses_delta, first.cache_hits_delta) == (1, 0)
        assert (second.cache_misses_delta, second.cache_hits_delta) == (0, 1)

    def test_cache_hit_job_compiles_nothing(self, tmp_path):
        """A job that hits the schedule cache reuses the compiled program
        of the job that filled it, even when its spec arrives pickled
        (a fresh but equal composition) and with other inputs — the
        served worker's schedule-cache-hit path."""
        from repro.obs import observe

        keys = ("sim.compile.memo.miss", "sim.compile.count",
                "sim.compile.memo.hit")
        cache = ScheduleCache(str(tmp_path))
        spec = pickle.loads(
            pickle.dumps(_spec(livein=(("a", 7), ("b", 13))))
        )
        with observe() as session:
            first = execute_job(_spec(), cache=cache)
            before = [session.metrics.counter_value(k) for k in keys]
            second = execute_job(spec, cache=cache)
            after = [session.metrics.counter_value(k) for k in keys]
        assert (first.cache_hit, second.cache_hit) == (False, True)
        assert second.results != first.results
        assert after == [before[0], before[1], before[2] + 1]

    def test_payload_is_json_safe(self):
        import json

        payload = job_payload(execute_job(_spec()))
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            execute_job(_spec(workload="no-such-kernel"))


class TestRegisterWorkload:
    def test_custom_builder_wins(self):
        from repro.verify.workloads import get_workload

        wl = get_workload("gcd")
        vec = wl.vectors[0]
        register_workload(
            "custom-gcd",
            lambda params: ResolvedJob(
                kernel=wl.build(),
                livein=dict(vec.livein),
                arrays=vec.fresh_arrays(),
            ),
        )
        try:
            result = execute_job(_spec(workload="custom-gcd"))
            baseline = execute_job(_spec())
            assert result.program_digest == baseline.program_digest
        finally:
            from repro.serve.jobs import _EXTRA_WORKLOADS

            _EXTRA_WORKLOADS.pop("custom-gcd", None)


class TestOverrides:
    def test_explicit_livein_replaces_defaults_and_drops_oracle(self):
        spec = _spec(workload="gcd")
        job_default = resolve_workload(spec)
        custom = JobSpec(
            workload="gcd",
            composition=mesh_composition(4),
            livein=JobSpec.freeze_livein(
                {name: value + 0 for name, value in job_default.livein.items()}
            ),
        )
        job_custom = resolve_workload(custom)
        assert job_custom.livein == job_default.livein
        assert job_custom.expect is None


class TestGridEquivalence:
    """run_grid (now on the job layer) matches run_adpcm_on cell by cell."""

    def test_grid_matches_single_runs(self):
        items = [
            ("4 PEs", mesh_composition(4)),
            ("8 PEs B", irregular_composition("B")),
        ]
        grid = run_grid(items, n_samples=16, jobs=1)
        for label, comp in items:
            single = run_adpcm_on(label, comp, n_samples=16)
            assert grid[label].cycles == single.cycles
            assert grid[label].used_contexts == single.used_contexts
            assert grid[label].energy == single.energy
            assert grid[label].correct and single.correct

    def test_pooled_grid_folds_cache_deltas(self, tmp_path):
        items = [
            ("4 PEs", mesh_composition(4)),
            ("9 PEs", mesh_composition(9)),
        ]
        from repro.perf.cache import shared_cache

        cache = shared_cache(str(tmp_path))
        before = (cache.hits, cache.misses)
        run_grid(items, n_samples=16, jobs=2, cache_dir=str(tmp_path))
        after = (cache.hits, cache.misses)
        # two cold cells: two misses folded back into the parent cache
        assert after[1] - before[1] == 2
        run_grid(items, n_samples=16, jobs=2, cache_dir=str(tmp_path))
        assert cache.hits - after[0] == 2
