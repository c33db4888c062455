"""Routing with a MOVE that takes longer than one cycle.

Every shipped composition has a one-cycle MOVE, which hides two
boundaries of the router's hop search (``Router._find_hop_cycle``): a
copy onto a hop PE must *finish* before the cycle that reads it, and a
pipelined hop PE needs a free issue slot *and* a free finish slot.
Here every registry kernel is scheduled on ``mesh8`` with a two-cycle
MOVE, blocking and pipelined, and simulated against the baseline
interpreter on all of its input vectors.  A hop check that is too loose
breaks a result or double-books a slot; one that is too strict still
simulates correctly but moves copies, so the programs are pinned too.
"""

import dataclasses

import pytest

from repro.arch.library import mesh_composition
from repro.arch.operations import OpCost
from repro.baseline import run_baseline
from repro.context.generator import generate_contexts
from repro.perf.fingerprint import program_digest
from repro.sched.scheduler import schedule_kernel
from repro.sim.invocation import invoke_kernel
from repro.verify.workloads import WORKLOADS, get_workload


def slow_move(comp, duration=2):
    """``comp`` with every PE's MOVE taking ``duration`` cycles."""
    pes = tuple(
        dataclasses.replace(
            pe,
            ops={**pe.ops, "MOVE": OpCost(pe.ops["MOVE"].energy, duration)},
        )
        for pe in comp.pes
    )
    return dataclasses.replace(comp, pes=pes, name=f"{comp.name}-move{duration}")


COMPS = {
    "blocking": slow_move(mesh_composition(8)),
    "pipelined": slow_move(mesh_composition(8, pipelined=True)),
}

#: list-mode program digests; a deliberate scheduling change re-pins
#: them and says why
PINNED = {
    ("adpcm", "blocking"): "0b2592ea15b9af138bcf81f3089a08021d9b8317750581d4f6c51874b053132e",
    ("crc32", "blocking"): "48af7f75572157e349b1cd84843a48fb69afbc1af05cf1ff6fca9daf2e698c17",
    ("dotp", "blocking"): "97849ec7f4a40839490dba03c9fa6865e705ecaba9b9e3043a61440f639cfbc3",
    ("fir", "blocking"): "3d135593312ed0d58bf08f649587f4dc6d2e40a54243e1896ed2fef79cf0933f",
    ("gcd", "blocking"): "9ed2e2ae179f4f85527312d1f985b3c322a5217679d9fa5b6fa4b625e70d7d8d",
    ("histogram", "blocking"): "69c51f34a245652214129539d92ca20cc96c190356c33740b73ee53938c505ae",
    ("matmul", "blocking"): "6aaa4e11d1da1e12ac9b63883e10143f9df3c77e507df01e18aff1e21c55d89b",
    ("sort", "blocking"): "7c6d04c888de3290a75b32fdfe49c5c9351bcfd7fb57fb7a2f9298df78f6f811",
    ("adpcm", "pipelined"): "d885eb56e5ef16997b4a4cce2a128c3856b349fab6821570e5eae94aeda6c452",
    ("crc32", "pipelined"): "5ccec74e14be38cde49ff373d329f2cab1568d54a4fa170891112a4735974495",
    ("dotp", "pipelined"): "62311eb65fbf4490de259cb0ec5ef1c0ebb4092181d9a693c4c06aeeb1330851",
    ("fir", "pipelined"): "6614bff9cac63d1db0353b10cd789b30c0d74c0b8d581b150163006c4a7bad75",
    ("gcd", "pipelined"): "4a5b49cfc275500d7a819e5728d77ea7deab89b72072466e9d5c2545b43fcd6a",
    ("histogram", "pipelined"): "c95c9a570e22e94d977160ec4d2b9a0e442514e929227c7d37c2af4f3e1265ba",
    ("matmul", "pipelined"): "2d6282269eaee2be3151b68b1ac90099bb9b1e73d9c28f8989ff6a97be4fdf3a",
    ("sort", "pipelined"): "44466793dc89e4cca5947759d35b33fc67123b7e1fef26e934cb325595ef3374",
}


@pytest.mark.parametrize("variant", sorted(COMPS))
@pytest.mark.parametrize("wname", WORKLOADS)
def test_two_cycle_move_matches_baseline(wname, variant):
    comp = COMPS[variant]
    workload = get_workload(wname)
    kernel = workload.build()
    schedule = schedule_kernel(kernel, comp)
    schedule.validate(comp)  # no double-booked issue or finish slot
    program = generate_contexts(schedule, comp, kernel)
    assert program_digest(program) == PINNED[wname, variant]
    for vec in workload.vectors:
        base = run_baseline(kernel, vec.livein, vec.fresh_arrays())
        cgra = invoke_kernel(
            kernel, comp, vec.livein, vec.fresh_arrays(), program=program
        )
        assert cgra.results == base.results, f"live-outs differ for {vec.livein}"
        for ref in kernel.arrays:
            assert cgra.heap.array(ref.handle) == base.heap.array(ref.handle)


@pytest.mark.parametrize("variant", sorted(COMPS))
def test_two_cycle_copies_are_routed(variant):
    # the hop boundaries only matter where the router inserts copies
    schedule = schedule_kernel(get_workload("adpcm").build(), COMPS[variant])
    copies = [op for op in schedule.ops if op.opcode == "MOVE" and op.node is None]
    assert copies
    assert all(op.duration == 2 for op in copies)
