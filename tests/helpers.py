"""Shared test helper functions (import side of tests/conftest.py)."""

from __future__ import annotations

from repro.gpu.isa import (
    InstructionKind,
    ProgramBuilder,
    barrier,
    load,
    store,
    valu,
    waitcnt,
)
from repro.gpu.kernel import Kernel, WorkgroupGeometry


def make_loop_program(
    n_valu: int = 8,
    n_loads: int = 2,
    l1_hit: float = 0.5,
    trips: int = 50,
    with_barrier: bool = False,
    name: str = "loop",
):
    """A simple loop kernel body used across tests."""
    b = ProgramBuilder()
    top = b.label()
    for _ in range(n_valu):
        b.emit(valu())
    for _ in range(n_loads):
        b.emit(load(l1_hit, 0.5))
    b.emit(waitcnt(0))
    if with_barrier:
        b.emit(barrier())
    b.loop_back(top, trips=trips)
    return b.build(name)


def make_kernel(program, n_workgroups=4, waves_per_workgroup=2) -> Kernel:
    return Kernel.homogeneous(program, WorkgroupGeometry(n_workgroups, waves_per_workgroup))


# ----------------------------------------------------------------------
# Reference program emitter and decode: one fresh Instruction per emitted
# slot, one pass per decode column. The generator shares immutable
# instructions and CompiledProgram decodes one row per distinct
# instruction instead; tests/test_generator.py and tests/test_compiled.py
# assert equality with these straightforward forms.


def _reference_emit_body(b, phase) -> None:
    mem_ops = [
        load(phase.l1_hit, phase.l2_hit, pattern_jitter=phase.pattern_jitter)
        for _ in range(phase.loads)
    ] + [
        store(phase.l1_hit, phase.l2_hit, pattern_jitter=phase.pattern_jitter)
        for _ in range(phase.stores)
    ]
    n_mem = len(mem_ops)
    valu_per_slot = phase.valu // (n_mem + 1) if n_mem else phase.valu
    extra = phase.valu - valu_per_slot * (n_mem + 1) if n_mem else 0

    def emit_compute(count: int) -> None:
        for _ in range(count):
            b.emit(valu(phase.valu_cycles))

    emit_compute(valu_per_slot + extra)
    since_fence = 0
    for op in mem_ops:
        b.emit(op)
        since_fence += 1
        if since_fence >= phase.fence_every:
            b.emit(waitcnt(0))
            since_fence = 0
        emit_compute(valu_per_slot)
    if since_fence:
        b.emit(waitcnt(0))


def _reference_emit_phase(b, phase) -> None:
    if phase.unroll:
        for _ in range(phase.iterations):
            _reference_emit_body(b, phase)
    else:
        top = b.label()
        _reference_emit_body(b, phase)
        if phase.iterations > 1:
            b.loop_back(top, trips=phase.iterations - 1)
    if phase.barrier_at_end:
        b.emit(barrier())


def reference_build_program(phases, outer_iterations=1, name="kernel", preamble_valu=0):
    """Per-instruction twin of ``repro.workloads.generator.build_program``."""
    b = ProgramBuilder()
    for _ in range(preamble_valu):
        b.emit(valu())
    outer_top = b.label()
    for phase in phases:
        _reference_emit_phase(b, phase)
    if outer_iterations > 1:
        b.loop_back(outer_top, trips=outer_iterations - 1)
    return b.build(name)


def reference_columns(program):
    """Per-instruction twin of ``CompiledProgram``'s nine decode columns."""
    instrs = program.instructions
    kinds = tuple(int(i.kind) for i in instrs)
    batch_kinds = (int(InstructionKind.VALU), int(InstructionKind.SALU),
                   int(InstructionKind.BRANCH))
    return {
        "kinds": kinds,
        "cycles": tuple(i.cycles for i in instrs),
        "l1_hit_rates": tuple(i.l1_hit_rate for i in instrs),
        "l2_hit_rates": tuple(i.l2_hit_rate for i in instrs),
        "pattern_jitters": tuple(i.pattern_jitter for i in instrs),
        "wait_targets": tuple(i.wait_target for i in instrs),
        "branch_targets": tuple(i.branch_target for i in instrs),
        "trip_counts": tuple(i.trip_count for i in instrs),
        "batchable": tuple(k in batch_kinds for k in kinds),
    }
