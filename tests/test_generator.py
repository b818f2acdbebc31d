"""The declarative kernel generator (workloads/generator.py).

Everything downstream - result caching, trace replay, sweep
equivalence - leans on one property: a spec plus a seed is the whole
story. Same spec, same seed, same programs, bit for bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import reference_build_program, reference_columns
from repro.gpu.isa import InstructionKind
from repro.workloads import generator
from repro.workloads.generator import (
    KernelSpec,
    PhaseSpec,
    build_kernel,
    build_program,
    build_workload,
)
from repro.workloads.suite import workload, workload_names


def spec(**overrides) -> KernelSpec:
    base = dict(
        name="t",
        phases=(PhaseSpec(valu=4, loads=2, iterations=3),
                PhaseSpec(valu=2, loads=1, stores=1, iterations=2)),
        outer_iterations=10,
        n_workgroups=2,
        waves_per_workgroup=2,
        n_variants=3,
        variant_jitter=0.3,
        stagger_valu=2,
        seed=99,
    )
    base.update(overrides)
    return KernelSpec(**base)


# ----------------------------------------------------------------------
# Determinism

def test_same_seed_same_programs():
    a, b = build_kernel(spec()), build_kernel(spec())
    # Program and Instruction are frozen dataclasses: equality is deep
    # and exact, so this asserts bit-identical generated code.
    assert a.variants == b.variants
    assert a.geometry == b.geometry


def test_different_seed_different_programs():
    a = build_kernel(spec(seed=1))
    b = build_kernel(spec(seed=2))
    assert a.variants != b.variants


def test_jitter_zero_makes_variants_differ_only_by_stagger():
    kernel = build_kernel(spec(variant_jitter=0.0, stagger_valu=1))
    base = kernel.variants[0].instructions
    for v, program in enumerate(kernel.variants):
        instructions = program.instructions
        # Variant v carries a v-instruction compute preamble...
        assert len(instructions) == len(base) + v
        preamble = instructions[:v]
        assert all(i.kind == InstructionKind.VALU for i in preamble)
        # ...and is otherwise the same program (modulo branch offsets,
        # so compare the instruction kinds, not whole instructions).
        assert [i.kind for i in instructions[v:]] == [i.kind for i in base]


def test_suite_workloads_are_deterministic():
    for name in workload_names():
        first = build_workload(workload(name), scale=0.1)
        second = build_workload(workload(name), scale=0.1)
        assert [k.variants for k in first] == [k.variants for k in second], name


# ----------------------------------------------------------------------
# Size bounds and scaling

def outer_trips(program) -> int:
    """Dynamic outer iterations = the back-edge trip count + 1."""
    branches = [i for i in program.instructions
                if i.kind == InstructionKind.BRANCH]
    return (branches[-1].trip_count if branches else 0) + 1


def test_scale_shrinks_outer_iterations():
    full = build_kernel(spec(variant_jitter=0.0, n_variants=1), scale=1.0)
    quarter = build_kernel(spec(variant_jitter=0.0, n_variants=1), scale=0.25)
    # The outer loop is a back-edge, so the *static* program is the
    # same size; the dynamic trip count is what scale divides.
    assert outer_trips(full.variants[0]) == 10
    assert outer_trips(quarter.variants[0]) == 2  # round(10 * 0.25)
    assert (len(quarter.variants[0].instructions)
            == len(full.variants[0].instructions))


def test_scale_floor_is_one_outer_iteration():
    tiny = build_kernel(spec(variant_jitter=0.0, n_variants=1), scale=1e-9)
    # outer = max(1, round(10 * 1e-9)) = 1: the kernel still runs.
    assert tiny.static_instruction_count() > 0
    floor = build_kernel(spec(variant_jitter=0.0, n_variants=1,
                              outer_iterations=1), scale=1.0)
    assert tiny.variants == floor.variants


def test_n_variants_respected():
    for n in (1, 2, 5):
        assert len(build_kernel(spec(n_variants=n)).variants) == n


def test_jittered_phases_stay_valid_over_many_seeds():
    # The jitter clamps iterations to >= 1 and counts to >= 0; a phase
    # body can never become empty because valu=0 keeps valu at 0 only
    # when it started there. Hammer it across seeds.
    for seed in range(50):
        kernel = build_kernel(spec(seed=seed, variant_jitter=0.45))
        for program in kernel.variants:
            assert len(program.instructions) > 1


def test_phase_spec_validation():
    with pytest.raises(ValueError):
        PhaseSpec(iterations=0)
    with pytest.raises(ValueError):
        PhaseSpec(fence_every=0)
    with pytest.raises(ValueError):
        PhaseSpec(valu=-1)
    with pytest.raises(ValueError):
        PhaseSpec(valu=0, loads=0, stores=0)


# ----------------------------------------------------------------------
# build_program structure

def test_unrolled_phase_has_no_branches():
    program = build_program([PhaseSpec(valu=2, loads=1, iterations=4)])
    assert all(i.kind != InstructionKind.BRANCH for i in program.instructions)


def test_looped_phase_is_smaller_than_unrolled():
    unrolled = build_program([PhaseSpec(valu=8, loads=2, iterations=20)])
    looped = build_program(
        [PhaseSpec(valu=8, loads=2, iterations=20, unroll=False)]
    )
    assert len(looped.instructions) < len(unrolled.instructions)


def test_outer_loop_adds_single_backedge():
    once = build_program([PhaseSpec(valu=2, iterations=2)], outer_iterations=1)
    many = build_program([PhaseSpec(valu=2, iterations=2)], outer_iterations=7)
    branches = [i for i in many.instructions if i.kind == InstructionKind.BRANCH]
    assert len(branches) == 1
    assert len(many.instructions) == len(once.instructions) + 1


def test_jitter_helper_bounds():
    # Directly exercise the jitter bounds: iterations never below 1.
    from repro.workloads.generator import _jitter_phase

    phase = PhaseSpec(valu=1, loads=1, iterations=1)
    for seed in range(50):
        jittered = _jitter_phase(phase, random.Random(seed), 0.49)
        assert jittered.iterations >= 1
        assert jittered.valu >= 0
        assert jittered.loads >= 0


# ----------------------------------------------------------------------
# Shared-instruction construction vs the per-instruction reference

def reference_kernel(kernel_spec, scale, monkeypatch):
    """``build_kernel`` with the per-instruction reference emitter."""
    with monkeypatch.context() as m:
        m.setattr(generator, "build_program", reference_build_program)
        return build_kernel(kernel_spec, scale)


def assert_same_construction(kernel_spec, scale, monkeypatch):
    built = build_kernel(kernel_spec, scale)
    reference = reference_kernel(kernel_spec, scale, monkeypatch)
    assert len(built.variants) == len(reference.variants)
    for got, want in zip(built.variants, reference.variants):
        assert got.name == want.name
        assert got.instructions == want.instructions
        for column, want_col in reference_columns(want).items():
            got_col = getattr(got.compiled, column)
            assert type(got_col) is tuple, column
            # repr pins element types (1, 1.0 and True compare equal)
            # and every float bit, including the sign of zero.
            assert list(map(repr, got_col)) == list(map(repr, want_col)), column
        # Sharing bound: per phase at most one VALU, load, store,
        # waitcnt, barrier and loop branch; plus preamble VALU, outer
        # branch and ENDPGM.
        distinct = len(set(map(id, got.instructions)))
        assert distinct <= 6 * len(kernel_spec.phases) + 3


@pytest.mark.parametrize("scale", [0.1, 0.4, 1.0])
def test_suite_programs_match_reference(scale, monkeypatch):
    for name in workload_names():
        for kernel_spec in workload(name).kernels:
            assert_same_construction(kernel_spec, scale, monkeypatch)


phase_specs = st.fixed_dictionaries(dict(
    valu=st.integers(0, 12),
    valu_cycles=st.integers(1, 8),
    loads=st.integers(0, 4),
    stores=st.integers(0, 3),
    l1_hit=st.floats(0.0, 1.0),
    l2_hit=st.floats(0.0, 1.0),
    fence_every=st.integers(1, 5),
    barrier_at_end=st.booleans(),
    iterations=st.integers(1, 12),
    unroll=st.booleans(),
    pattern_jitter=st.floats(0.0, 1.0),
)).filter(lambda p: p["valu"] + p["loads"] + p["stores"] > 0).map(lambda p: PhaseSpec(**p))

kernel_specs = st.builds(
    KernelSpec,
    name=st.just("gen"),
    phases=st.lists(phase_specs, min_size=1, max_size=4).map(tuple),
    outer_iterations=st.integers(1, 6),
    n_variants=st.integers(1, 4),
    variant_jitter=st.sampled_from([0.0, 0.2, 0.45]),
    stagger_valu=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel_spec=kernel_specs, scale=st.sampled_from([0.1, 0.5, 1.0, 2.0]))
def test_generated_programs_match_reference(kernel_spec, scale, monkeypatch):
    assert_same_construction(kernel_spec, scale, monkeypatch)


def test_fields_of_absent_kinds_are_not_validated():
    # Only emitted instructions validate their fields, as in the
    # reference: valu_cycles=0 is legal while the phase has no VALU.
    phases = [PhaseSpec(valu=0, valu_cycles=0, loads=1, iterations=3)]
    assert build_program(phases).instructions == reference_build_program(phases).instructions
    with pytest.raises(ValueError):
        build_program([PhaseSpec(valu=1, valu_cycles=0, loads=1)])
