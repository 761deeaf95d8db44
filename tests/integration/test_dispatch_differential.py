"""Differential tests: compiled dispatch == reference interpreter.

The compiled engines (:class:`repro.xtcore.Simulator`) and batched runs
(:func:`repro.xtcore.run_batch`) must be bitwise equivalent to the
retained reference interpreter (:class:`repro.xtcore.ReferenceSimulator`)
on statistics, traces and final machine state — on every bundled
benchmark and on hundreds of seeded random programs from
:mod:`repro.testing.progen`.
"""

import dataclasses

import pytest

from repro.programs import characterization_suite
from repro.testing.progen import generate_program, generate_source, stress_programs
from repro.xtcore import (
    ReferenceSimulator,
    SimulationError,
    SimulationLimitExceeded,
    Simulator,
    build_processor,
    compile_program,
    run_batch,
)

TRACE_FIELDS = (
    "addr",
    "mnemonic",
    "iclass",
    "cycles",
    "operands",
    "result",
    "icache_miss",
    "dcache_miss",
    "uncached_fetch",
    "interlock",
    "mem_addr",
)

#: Seed count for the randomized sweep (the issue floor is 200).
RANDOM_SEEDS = range(220)

MAX_INSTRUCTIONS = 200_000


def assert_stats_equal(expected, actual, context):
    for field in dataclasses.fields(expected):
        a = getattr(expected, field.name)
        b = getattr(actual, field.name)
        assert a == b, f"{context}: stats.{field.name} differs: {a!r} != {b!r}"


def assert_traces_equal(expected, actual, context):
    assert len(expected) == len(actual), (
        f"{context}: trace length differs: {len(expected)} != {len(actual)}"
    )
    for i, (ref, new) in enumerate(zip(expected, actual)):
        for field in TRACE_FIELDS:
            a = getattr(ref, field)
            b = getattr(new, field)
            assert a == b, (
                f"{context}: trace[{i}].{field} differs: {a!r} != {b!r}"
            )


def assert_states_equal(expected, actual, context):
    assert expected.regs == actual.regs, f"{context}: register file differs"
    assert expected.pc == actual.pc, (
        f"{context}: final pc differs: {expected.pc:#x} != {actual.pc:#x}"
    )
    assert expected.halted == actual.halted, f"{context}: halted flag differs"
    assert expected.tie_state == actual.tie_state, f"{context}: TIE state differs"
    ref_pages = {k: bytes(v) for k, v in expected.memory._pages.items()}
    new_pages = {k: bytes(v) for k, v in actual.memory._pages.items()}
    assert ref_pages == new_pages, f"{context}: memory contents differ"


def run_both(config, program, max_instructions=MAX_INSTRUCTIONS):
    reference = ReferenceSimulator(
        config, program, collect_trace=True, max_instructions=max_instructions
    )
    ref_result = reference.run()
    executable = compile_program(config, program)
    compiled = Simulator(
        config,
        program,
        collect_trace=True,
        max_instructions=max_instructions,
        executable=executable,
    )
    new_result = compiled.run()
    return reference, ref_result, compiled, new_result, executable


class TestBundledSuiteEquivalence:
    @pytest.mark.parametrize(
        "case", characterization_suite(include_variants=False), ids=lambda c: c.name
    )
    def test_case_bitwise_identical(self, case):
        config, program = case.build()
        reference, ref_result, compiled, new_result, executable = run_both(
            config, program, max_instructions=case.max_instructions
        )
        assert_stats_equal(ref_result.stats, new_result.stats, case.name)
        assert_traces_equal(ref_result.trace, new_result.trace, case.name)
        assert_states_equal(ref_result.state, new_result.state, case.name)
        case.verify(new_result)

        # both untraced tiers (per-op fast path and fused superop blocks)
        # must agree as well; auto resolves to superop, so the compiled
        # tier needs an explicit request
        for engine in ("compiled", "superop"):
            fast = Simulator(
                config,
                program,
                max_instructions=case.max_instructions,
                executable=executable,
                engine=engine,
            )
            fast_result = fast.run()
            context = f"{case.name} ({engine})"
            assert fast_result.engine == engine
            assert_stats_equal(ref_result.stats, fast_result.stats, context)
            assert fast_result.trace is None  # trace off => not materialized
            assert_states_equal(ref_result.state, fast_result.state, context)


class TestRandomProgramEquivalence:
    def test_generator_is_deterministic(self):
        assert generate_source(1234) == generate_source(1234)
        assert generate_source(1) != generate_source(2)

    def test_random_sweep(self):
        config = build_processor("xt-differential", [])
        for seed in RANDOM_SEEDS:
            program = generate_program(seed)
            reference, ref_result, compiled, new_result, executable = run_both(
                config, program
            )
            context = f"seed {seed}"
            assert_stats_equal(ref_result.stats, new_result.stats, context)
            assert_traces_equal(ref_result.trace, new_result.trace, context)
            assert_states_equal(ref_result.state, new_result.state, context)

            for engine in ("compiled", "superop"):
                fast = Simulator(
                    config,
                    program,
                    max_instructions=MAX_INSTRUCTIONS,
                    executable=executable,
                    engine=engine,
                )
                fast_result = fast.run()
                assert fast_result.engine == engine
                assert_stats_equal(
                    ref_result.stats, fast_result.stats, f"{context} ({engine})"
                )
                assert_states_equal(
                    ref_result.state, fast_result.state, f"{context} ({engine})"
                )

    def test_sweep_exercises_interesting_shapes(self):
        sources = [generate_source(seed) for seed in RANDOM_SEEDS]
        assert any(".utext" in src for src in sources), "no uncached programs generated"
        assert any("loop" in src for src in sources), "no loops generated"
        assert any("skip" in src for src in sources), "no branch skips generated"
        assert all(src.rstrip().endswith("halt") for src in sources)


class TestStressPrograms:
    """Superop side-exit seams: handwritten programs that pin each one.

    Each :func:`~repro.testing.progen.stress_cases` program targets one
    spot where the fused block path hands control back to the per-op
    path (single-op blocks, taken-to-fall-through branches, dynamic
    jumps landing mid-block, budget expiry inside a block, faults).
    """

    @pytest.mark.parametrize(
        "case_program", stress_programs(), ids=lambda cp: cp[0].name
    )
    def test_engines_agree(self, case_program):
        case, program = case_program
        config = build_processor("xt-stress", [])
        if not case.faulting:
            reference = ReferenceSimulator(
                config, program, max_instructions=case.max_instructions
            )
            ref_result = reference.run()
            for engine in ("compiled", "superop"):
                result = Simulator(
                    config,
                    program,
                    max_instructions=case.max_instructions,
                    engine=engine,
                ).run()
                assert result.engine == engine
                context = f"{case.name} ({engine})"
                assert_stats_equal(ref_result.stats, result.stats, context)
                assert_states_equal(ref_result.state, result.state, context)
            return

        # faulting case: same exception type everywhere; the compiled
        # tiers agree exactly, and both extend the reference's bare
        # message with locator diagnostics (never contradict it)
        errors = {}
        for engine in ("reference", "compiled", "superop"):
            with pytest.raises((SimulationError, SimulationLimitExceeded)) as info:
                Simulator(
                    config,
                    program,
                    max_instructions=case.max_instructions,
                    engine=engine,
                ).run()
            errors[engine] = info.value
        assert type(errors["compiled"]) is type(errors["reference"])
        assert type(errors["superop"]) is type(errors["reference"])
        assert str(errors["compiled"]) == str(errors["superop"])
        assert str(errors["superop"]).startswith(str(errors["reference"]))

    def test_fused_fall_off_end_diagnostics(self):
        """Satellite: the fused path's invalid-pc fault names the nearest
        preceding symbol (with offset) and the last retired address."""
        config = build_processor("xt-stress", [])
        case, program = next(
            cp for cp in stress_programs() if cp[0].name == "stress_fall_off_end"
        )
        with pytest.raises(SimulationError) as info:
            Simulator(config, program, engine="superop").run()
        message = str(info.value)
        assert "is not a valid instruction address" in message
        assert "nearest preceding symbol: 'tail'" in message
        assert "last retired instruction at 0x" in message


def line_variants(base):
    """``base`` plus three variants mixing 16/32/64-byte I/D lines.

    All four share one semantic partition, so ``run_batch`` accepts them
    together; the smaller caches and changed penalties make the per-config
    miss counts and cycle totals differ.
    """

    def cache(config, line_bytes, size_bytes, miss_penalty):
        return dataclasses.replace(
            config, line_bytes=line_bytes, size_bytes=size_bytes, miss_penalty=miss_penalty
        )

    return [
        base,
        dataclasses.replace(
            base,
            name=f"{base.name}-i16-d64",
            icache=cache(base.icache, 16, 1024, 9),
            dcache=cache(base.dcache, 64, 2048, 20),
        ),
        dataclasses.replace(
            base,
            name=f"{base.name}-i64-d16",
            icache=cache(base.icache, 64, 4096, 15),
            dcache=cache(base.dcache, 16, 512, 7),
        ),
        dataclasses.replace(
            base,
            name=f"{base.name}-i16-d16",
            icache=cache(base.icache, 16, 256, 12),
            dcache=cache(base.dcache, 16, 256, 12),
            timing=dataclasses.replace(base.timing, branch_taken_penalty=4),
        ),
    ]


class TestBatchEquivalence:
    """``run_batch`` == one reference run per config, bitwise.

    One recorded trajectory serves every member of the batch, so each
    member's stats and the shared final state must equal what the
    reference interpreter produces for that config alone; faults raise
    once for the batch, exactly as a solo superop run raises them.
    """

    @staticmethod
    def assert_batch_matches_reference(configs, program, max_instructions, context):
        results = run_batch(configs, program, max_instructions=max_instructions)
        assert len(results) == len(configs)
        for config, result in zip(configs, results):
            reference = ReferenceSimulator(
                config, program, max_instructions=max_instructions
            ).run()
            where = f"{context} [{config.name}]"
            assert result.engine == "batch"
            assert result.config is config
            assert_stats_equal(reference.stats, result.stats, where)
            assert_states_equal(reference.state, result.state, where)

    def test_random_sweep(self):
        configs = line_variants(build_processor("xt-differential", []))
        for seed in RANDOM_SEEDS:
            self.assert_batch_matches_reference(
                configs, generate_program(seed), MAX_INSTRUCTIONS, f"seed {seed}"
            )

    @pytest.mark.parametrize(
        "case_program", stress_programs(), ids=lambda cp: cp[0].name
    )
    def test_stress_programs(self, case_program):
        case, program = case_program
        configs = line_variants(build_processor("xt-stress", []))
        if not case.faulting:
            self.assert_batch_matches_reference(
                configs, program, case.max_instructions, case.name
            )
            return
        with pytest.raises((SimulationError, SimulationLimitExceeded)) as solo:
            Simulator(
                configs[0],
                program,
                max_instructions=case.max_instructions,
                engine="superop",
            ).run()
        with pytest.raises((SimulationError, SimulationLimitExceeded)) as batch:
            run_batch(configs, program, max_instructions=case.max_instructions)
        assert type(batch.value) is type(solo.value)
        assert str(batch.value) == str(solo.value)
