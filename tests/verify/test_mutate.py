"""Mutation fault-injection engine: enumeration, classification, report.

The full acceptance campaign (gcd+adpcm x mesh4+irregularB, ~800
mutants) runs via ``python -m repro.verify --mutate`` in CI; these unit
tests keep the engine itself honest on the cheap gcd cell.
"""

import gc
import json

import pytest

from repro.arch.library import irregular_composition, mesh_composition
from repro.context.generator import generate_contexts
from repro.sched.scheduler import schedule_kernel
from repro.verify import set_verify_enabled, verify_program
from repro.verify.mutate import (
    OPERATORS,
    OUTCOMES,
    CampaignReport,
    CellReport,
    MutantResult,
    _execute,
    classify_mutants,
    enumerate_mutants,
    run_mutation_campaign,
)
from repro.verify.workloads import get_workload


@pytest.fixture(scope="module")
def gcd_cell():
    comp = mesh_composition(4)
    workload = get_workload("gcd")
    kernel = workload.build()
    schedule = schedule_kernel(kernel, comp)
    previous = set_verify_enabled(False)
    try:
        program = generate_contexts(schedule, comp, kernel)
    finally:
        set_verify_enabled(previous)
    return workload, comp, program


class TestEnumeration:
    def test_yields_known_operators_only(self, gcd_cell):
        _, comp, program = gcd_cell
        mutants = list(enumerate_mutants(program, comp))
        assert mutants
        assert {m.operator for m in mutants} <= set(OPERATORS)

    def test_original_program_untouched(self, gcd_cell):
        _, comp, program = gcd_cell
        before = verify_program(program, comp)
        assert before == []
        for mutant in enumerate_mutants(program, comp):
            assert mutant.program is not program
        # enumeration must not have corrupted the source program
        assert verify_program(program, comp) == []

    def test_each_mutant_differs_from_original(self, gcd_cell):
        _, comp, program = gcd_cell
        for mutant in enumerate_mutants(program, comp):
            assert (
                mutant.program.pe_contexts != program.pe_contexts
                or mutant.program.cbox_contexts != program.cbox_contexts
                or mutant.program.ccu_contexts != program.ccu_contexts
            ), f"{mutant.operator}: {mutant.description} is a no-op"


class TestClassification:
    def test_gcd_mesh4_no_escapes(self, gcd_cell):
        workload, comp, program = gcd_cell
        mutants = list(enumerate_mutants(program, comp))
        results = classify_mutants(
            program, comp, workload.vectors, mutants=mutants
        )
        assert len(results) == len(mutants)
        assert {r.outcome for r in results} <= set(OUTCOMES)
        escaped = [r for r in results if r.outcome == "escaped"]
        assert not escaped, escaped

    def test_compiled_replay_matches_interpreter(self):
        """Replaying mutants on the compiled backend classifies every
        one exactly like the interpreter, detail included (same first
        trap/diverging vector), over the CI campaign's cells."""
        total = 0
        for name in ("gcd", "adpcm"):
            workload = get_workload(name)
            kernel = workload.build()
            for comp in (mesh_composition(4), irregular_composition("B")):
                program = generate_contexts(
                    schedule_kernel(kernel, comp), comp, kernel
                )
                mutants = list(enumerate_mutants(program, comp))
                by_backend = [
                    classify_mutants(
                        program,
                        comp,
                        workload.vectors,
                        backend=backend,
                        mutants=mutants,
                    )
                    for backend in ("interpreter", "compiled")
                ]
                assert by_backend[0] == by_backend[1], (name, comp.name)
                total += len(mutants)
        assert total == 810

    def test_replay_frees_compiled_mutants(self, gcd_cell):
        """Classifying a mutant frees its compiled form: the caller's
        mutant list does not keep one alive per mutant for the rest of
        the cell (a heap growing with the cell makes full collections
        land on random mutants)."""
        from repro.sim import compiled

        workload, comp, program = gcd_cell
        mutants = list(enumerate_mutants(program, comp))
        before = len(compiled._COMPILED)
        classify_mutants(program, comp, workload.vectors, mutants=mutants)
        # at most the baseline program itself stays memoised
        assert len(compiled._COMPILED) <= before + 1

    def test_traced_replay_leaves_no_reference_cycle(self, gcd_cell):
        """The equivalence check's per-cycle trace is freed when the
        replay returns, not at the next full collection."""
        workload, comp, program = gcd_cell
        trace = []
        gc.collect()
        gc.disable()
        try:
            _execute(
                program, comp, workload.vectors[0],
                max_cycles=1_000_000, backend="interpreter", trace=trace,
            )
            assert trace
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_rejects_broken_baseline(self, gcd_cell):
        workload, comp, program = gcd_cell
        import copy

        from repro.arch.ccu import BranchKind, CCUEntry

        bad = copy.deepcopy(program)
        bad.ccu_contexts[0] = CCUEntry(
            BranchKind.UNCONDITIONAL, bad.n_cycles + 7
        )
        assert verify_program(bad, comp)
        with pytest.raises(ValueError, match="baseline program"):
            classify_mutants(bad, comp, workload.vectors, mutants=[])


class TestReport:
    def _cell(self):
        return CellReport(
            kernel="k",
            composition="c",
            results=[
                MutantResult("pred_flip", "a", "caught_static", ""),
                MutantResult("pred_flip", "b", "caught_dynamic", ""),
                MutantResult("operand_swap", "c", "escaped", ""),
                MutantResult("operand_swap", "d", "equivalent", ""),
            ],
        )

    def test_equivalents_excluded_from_denominator(self):
        cell = self._cell()
        # 4 mutants, 1 equivalent -> 3 live, 1 escaped -> 2/3 caught
        assert cell.caught_fraction == pytest.approx(2 / 3)

    def test_all_equivalent_counts_as_fully_caught(self):
        cell = CellReport(
            kernel="k",
            composition="c",
            results=[MutantResult("pred_flip", "a", "equivalent", "")],
        )
        assert cell.caught_fraction == 1.0

    def test_json_roundtrip(self, tmp_path):
        report = CampaignReport(cells=[self._cell()])
        path = tmp_path / "coverage.json"
        report.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["total_mutants"] == 4
        assert data["escaped"] == 1
        assert data["equivalent"] == 1
        assert data["caught_fraction"] == pytest.approx(2 / 3)
        (cell,) = data["cells"]
        assert cell["kernel"] == "k"
        assert cell["caught_static"] == 1
        assert len(cell["escaped_mutants"]) == 1

    def test_render_table_mentions_all_cells(self):
        report = CampaignReport(cells=[self._cell()])
        table = report.render_table()
        assert "k on c" in table
        assert "total" in table


def test_campaign_smoke():
    """One-cell end-to-end campaign through the public entry point."""
    report = run_mutation_campaign(
        [get_workload("gcd")], [mesh_composition(4)]
    )
    assert report.n_mutants > 0
    assert not report.escaped()
    assert report.caught_fraction == 1.0

