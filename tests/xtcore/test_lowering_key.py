"""The compilation cache keys on what lowering reads, not on cache geometry.

``compile_program`` reads the ISA, the timing, the register count and the
extensions; the caches only matter to the dispatch loops' cache models
and, for fused superop blocks, to the I/D line shifts the blocks'
same-line checks compare at.  So configs that differ only in cache
geometry share one :class:`ExecutableProgram`, and share a
:class:`SuperopProgram` exactly when their line sizes agree.
"""

import dataclasses

import pytest

from repro.asm import assemble
from repro.programs.extensions import mac16_spec, mul16_spec
from repro.xtcore import (
    CacheConfig,
    CompilationCache,
    SimulationError,
    Simulator,
    TimingConfig,
    build_processor,
    compile_program,
    run_batch,
    semantic_fingerprint,
)

SOURCE = """
    .data
buf: .word 1, 2, 3, 4
    .text
main:
    la a4, buf
    movi a2, 4
    movi a3, 0
loop:
    l32i a5, a4, 0
    add a3, a3, a5
    addi a4, a4, 4
    addi a2, a2, -1
    bnez a2, loop
    halt
"""


@pytest.fixture()
def config():
    return build_processor("xt-lowering", [mul16_spec()])


@pytest.fixture()
def program(config):
    return assemble(SOURCE, "lowering", isa=config.isa)


def _geometry(config, isize=4, dsize=8, ways=2, line=32):
    return config.with_caches(
        CacheConfig(size_bytes=isize * 1024, line_bytes=line),
        CacheConfig(size_bytes=dsize * 1024, ways=ways, line_bytes=line),
    )


class TestWithCaches:
    def test_changes_only_the_geometry(self, config):
        derived = _geometry(config)
        rebuilt = build_processor(
            "xt-lowering",
            [mul16_spec()],
            base=dataclasses.replace(config, icache=derived.icache, dcache=derived.dcache),
        )
        assert derived.fingerprint() == rebuilt.fingerprint()
        assert derived.fingerprint() != config.fingerprint()
        assert derived.name == config.name
        assert derived.extensions == config.extensions

    def test_shares_the_geometry_free_values(self, config):
        derived = _geometry(config)
        assert derived.isa is config.isa
        assert derived.extension_index is config.extension_index
        assert derived.custom_instances is config.custom_instances
        assert derived.state_inits is config.state_inits
        assert derived.lowering_fingerprint() == config.lowering_fingerprint()
        assert semantic_fingerprint(derived) == semantic_fingerprint(config)

    def test_fingerprints_match_a_fresh_computation(self, config):
        derived = _geometry(config)
        fresh = dataclasses.replace(derived)  # no cached values carried over
        assert "_fingerprint" not in fresh.__dict__
        assert fresh.fingerprint() == derived.fingerprint()
        assert fresh.lowering_fingerprint() == derived.lowering_fingerprint()
        assert semantic_fingerprint(fresh) == semantic_fingerprint(derived)


class TestLoweringKey:
    def test_geometry_variants_share_one_executable(self, config, program):
        cache = CompilationCache()
        variants = [config, _geometry(config), _geometry(config, 16, 4, 1)]
        executables = [cache.get_or_compile(v, program) for v in variants]
        assert all(e is executables[0] for e in executables)
        assert cache.compilations == 1

    def test_superops_split_on_line_size_only(self, config, program):
        cache = CompilationCache()
        same_lines = [config, _geometry(config), _geometry(config, 16, 4, 1)]
        shared = {id(cache.get_or_compile_superops(v, program)) for v in same_lines}
        assert len(shared) == 1
        wide = cache.get_or_compile_superops(_geometry(config, line=64), program)
        narrow = cache.get_or_compile_superops(_geometry(config, line=16), program)
        assert len({id(wide), id(narrow), shared.pop()}) == 3
        assert cache.compilations == 1
        assert cache.superop_compilations == 3

    def test_timing_or_extensions_get_their_own_lowering(self, config, program):
        cache = CompilationCache()
        cache.get_or_compile(config, program)
        slower = dataclasses.replace(config, timing=TimingConfig(branch_taken_penalty=3))
        other_ext = build_processor("xt-lowering", [mul16_spec(), mac16_spec()])
        assert cache.get_or_compile(slower, program) is not cache.get_or_compile(
            config, program
        )
        cache.get_or_compile(other_ext, program)
        assert cache.compilations == 3
        keys = {c.lowering_fingerprint() for c in (config, slower, other_ext)}
        assert len(keys) == 3

    def test_simulator_rejects_an_executable_of_other_content(self, config, program):
        slower = dataclasses.replace(config, timing=TimingConfig(branch_taken_penalty=3))
        wrong = compile_program(slower, program)
        with pytest.raises(SimulationError, match="different content"):
            Simulator(config, program, executable=wrong)
        # a geometry variant's executable is the same lowering: accepted
        shared = compile_program(_geometry(config), program)
        assert Simulator(config, program, executable=shared).run().stats.total_instructions

    def test_shared_lowering_keeps_per_geometry_results(self, config, program):
        variants = [config, _geometry(config, line=16), _geometry(config, 4, 4, 1)]
        solo = [Simulator(v, program).run().stats for v in variants]
        batch = [result.stats for result in run_batch(variants, program)]
        assert batch == solo
