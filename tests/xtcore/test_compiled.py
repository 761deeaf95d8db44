"""Unit tests for the compile-and-dispatch layer (repro.xtcore.compiled)."""

import copy
import random

import pytest

from repro.asm import assemble
from repro.isa import Instruction, MachineState, base_isa
from repro.isa.instructions import BRANCHING_FORMATS, FORMAT_FIELDS
from repro.isa.state import NUM_REGISTERS, SparseMemory
from repro.obs import DEFAULT_MAX_INSTRUCTIONS as OBS_DEFAULT
from repro.xtcore import (
    DEFAULT_MAX_INSTRUCTIONS,
    CompilationCache,
    SimulationError,
    Simulator,
    build_processor,
    compilation_cache,
    compile_program,
    describe_invalid_pc,
)
from repro.xtcore.compiled import (
    OP_CACHED,
    OP_FALL_IDX,
    OP_ISSUE_TAKEN,
    OP_ISSUE_UNTAKEN,
    OP_MNEMONIC,
    _TEMPLATES,
    _specialize,
)

SOURCE = """
main:
    movi a2, 3
loop:
    addi a2, a2, -1
    bnez a2, loop
    j out
    .utext
unreached:
    nop
    .text
out:
    halt
"""


@pytest.fixture()
def config():
    return build_processor("xt-compiled-test")


@pytest.fixture()
def program(config):
    return assemble(SOURCE, "compiled-test", isa=config.isa)


class TestExecutableProgram:
    def test_index_addressing_and_fall_through(self, config, program):
        executable = compile_program(config, program)
        assert len(executable) == len(program.instructions)
        for index, addr in enumerate(executable.addrs):
            assert executable.pc_to_index[addr] == index
            assert executable.index_of(addr) == index
            op = executable.ops[index]
            fall = executable.pc_to_index.get(addr + 4, -1)
            assert op[OP_FALL_IDX] == fall
        assert executable.index_of(0xDEAD_BEE0) == -1

    def test_uncached_flag_follows_utext_ranges(self, config, program):
        executable = compile_program(config, program)
        by_mnemonic = {
            op[OP_MNEMONIC]: op[OP_CACHED] for op in executable.ops
        }
        assert by_mnemonic["nop"] is False  # lives in the .utext region
        assert by_mnemonic["movi"] is True

    def test_branch_timing_is_pre_resolved(self, config, program):
        executable = compile_program(config, program)
        branch = next(op for op in executable.ops if op[OP_MNEMONIC] == "bnez")
        penalty = config.timing.branch_taken_penalty
        assert branch[OP_ISSUE_TAKEN] == branch[OP_ISSUE_UNTAKEN] + penalty

    def test_unknown_mnemonic_raises_simulation_error(self, config):
        # assemble against an extended ISA, compile against the base core
        from repro.programs.extensions import mul16_spec
        from repro.xtcore import build_processor as build

        extended = build("xt-ext", [mul16_spec()])
        src = "main:\n    mul16 a2, a3, a4\n    halt\n"
        program = assemble(src, "ext-only", isa=extended.isa)
        with pytest.raises(SimulationError, match="not in processor"):
            compile_program(config, program)


class TestProgramDigest:
    def test_stable_and_name_independent(self, config):
        src = "main:\n    movi a2, 7\n    halt\n"
        a = assemble(src, "name-a", isa=config.isa)
        b = assemble(src, "name-b", isa=config.isa)
        assert a.digest() == a.digest()
        assert a.digest() == b.digest()

    def test_content_sensitive(self, config):
        a = assemble("main:\n    movi a2, 7\n    halt\n", "p", isa=config.isa)
        b = assemble("main:\n    movi a2, 8\n    halt\n", "p", isa=config.isa)
        assert a.digest() != b.digest()


class TestCompilationCache:
    def test_hit_miss_counters(self, config, program):
        cache = CompilationCache()
        first = cache.get_or_compile(config, program)
        again = cache.get_or_compile(config, program)
        assert first is again
        assert cache.info() == {
            "entries": 1,
            "maxsize": 256,
            "hits": 1,
            "misses": 1,
            "compilations": 1,
            "evictions": 0,
            "tiers": {
                "ops": {
                    "entries": 1,
                    "hits": 1,
                    "misses": 1,
                    "compilations": 1,
                    "evictions": 0,
                },
                "superop": {
                    "entries": 0,
                    "hits": 0,
                    "misses": 0,
                    "compilations": 0,
                    "evictions": 0,
                },
            },
        }

    def test_content_keying_across_objects(self, config, program):
        cache = CompilationCache()
        clone = assemble(SOURCE, "compiled-test", isa=config.isa)
        assert clone is not program
        first = cache.get_or_compile(config, program)
        again = cache.get_or_compile(config, clone)
        assert first is again
        assert cache.compilations == 1

    def test_lru_eviction(self, config):
        cache = CompilationCache(maxsize=2)
        programs = [
            assemble(f"main:\n    movi a2, {n}\n    halt\n", f"p{n}", isa=config.isa)
            for n in range(3)
        ]
        for p in programs:
            cache.get_or_compile(config, p)
        assert len(cache) == 2
        assert cache.evictions == 1
        # p0 was evicted: compiling it again is a miss
        cache.get_or_compile(config, programs[0])
        assert cache.compilations == 4

    def test_put_and_clear(self, config, program):
        cache = CompilationCache()
        executable = compile_program(config, program)
        cache.put(executable)
        assert cache.get_or_compile(config, program) is executable
        assert cache.compilations == 0
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["hits"] == 0

    def test_global_cache_is_shared(self, config, program):
        assert compilation_cache() is compilation_cache()
        before = compilation_cache().compilations
        a = compilation_cache().get_or_compile(config, program)
        b = Simulator(config, program).executable
        assert a is b
        assert compilation_cache().compilations == before + 1


class TestSimulatorExecutableContract:
    def test_mismatched_executable_rejected(self, config, program):
        other = assemble("main:\n    halt\n", "other", isa=config.isa)
        wrong = compile_program(config, other)
        with pytest.raises(SimulationError, match="different content"):
            Simulator(config, program, executable=wrong)

    def test_default_budget_exported_everywhere(self):
        assert DEFAULT_MAX_INSTRUCTIONS == 5_000_000
        assert OBS_DEFAULT is DEFAULT_MAX_INSTRUCTIONS


class TestInvalidPcDiagnostics:
    def test_names_nearest_symbol_and_last_retired(self, config, program):
        executable = compile_program(config, program)
        message = describe_invalid_pc("p", 0x10C, executable, last_retired_addr=0x8)
        assert "pc=0x0000010c is not a valid instruction address" in message
        assert "nearest preceding symbol" in message
        assert "last retired instruction at 0x00000008" in message

    def test_exact_symbol_hit_has_no_offset(self, config, program):
        executable = compile_program(config, program)
        addr = program.symbols["out"]
        message = describe_invalid_pc("p", addr, executable)
        assert f"'out'" in message
        assert "+0x" not in message
        assert "no instructions retired" in message

    def test_simulator_raises_with_context(self, config):
        # jx into the data region: decodable target, no instruction there
        src = (
            "    .data\nbuf:\n    .word 1, 2\n    .text\n"
            "main:\n    la a2, buf\n    jx a2\n    halt\n"
        )
        program = assemble(src, "wildjump", isa=config.isa)
        with pytest.raises(SimulationError) as excinfo:
            Simulator(config, program).run()
        message = str(excinfo.value)
        assert "nearest preceding symbol: 'buf'" in message
        assert "last retired instruction at" in message


class TestSemanticsTemplates:
    """Every base mnemonic's template closure == its generic semantics."""

    EDGES = (0, 1, 0x7F, 0x80, 0xFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
    PAGE = SparseMemory.PAGE_SIZE

    def random_instruction(self, rng, definition, addr):
        fields = {}
        for field in FORMAT_FIELDS[definition.fmt]:
            if field in ("rd", "rs", "rt"):
                fields[field] = rng.randrange(NUM_REGISTERS)
            elif field == "imm2":  # BI compare value / bit index, as assembled
                fields["rt"] = rng.randrange(-32, 32)
            elif definition.fmt in BRANCHING_FORMATS:
                fields["imm"] = 4 * rng.randrange(1 << 16)
            else:
                fields["imm"] = rng.randrange(-(1 << 18), 1 << 18)
        return Instruction(definition.mnemonic, addr=addr, **fields)

    def random_state(self, rng, ins):
        state = MachineState()
        for reg in range(NUM_REGISTERS):
            state.regs[reg] = rng.choice(
                (rng.choice(self.EDGES), rng.getrandbits(32))
            )
        if ins.rs is not None and ins.imm is not None:
            # aim memory ops at a random word or right at a page boundary
            target = rng.choice(
                (rng.getrandbits(32), self.PAGE * rng.randrange(1, 64) - rng.randrange(4))
            )
            state.regs[ins.rs] = (target - ins.imm) & 0xFFFFFFFF
            state.memory.write_bytes(target & ~7, rng.randbytes(16))
        return state

    def test_template_closures_match_generic_semantics(self):
        rng = random.Random(2003)
        isa = base_isa()
        assert set(_TEMPLATES) < {d.mnemonic for d in isa}
        for mnemonic in sorted(_TEMPLATES):
            definition = isa.lookup(mnemonic)
            for _ in range(60):
                addr = 4 * rng.randrange(1 << 16)
                ins = self.random_instruction(rng, definition, addr)
                closure = _specialize(definition, ins, addr, NUM_REGISTERS)
                assert closure is not None, mnemonic
                expected = self.random_state(rng, ins)
                actual = copy.deepcopy(expected)
                expected.pc = actual.pc = addr
                want = definition.semantics(expected, ins)
                got = closure(actual, ins)
                context = f"{ins} at {addr:#x}"
                assert got == want, context
                assert actual.regs == expected.regs, context
                assert actual.halted == expected.halted, context
                assert {k: bytes(v) for k, v in actual.memory._pages.items()} == {
                    k: bytes(v) for k, v in expected.memory._pages.items()
                }, context

    def test_out_of_range_register_keeps_generic_semantics(self):
        isa = base_isa()
        ins = Instruction("add", rd=2, rs=3, rt=NUM_REGISTERS)
        assert _specialize(isa.lookup("add"), ins, 0, NUM_REGISTERS) is None

    @pytest.mark.parametrize("engine", ["reference", "compiled", "superop"])
    def test_bi_branch_with_negative_immediate(self, config, engine):
        program = assemble(
            "main:\n    movi a2, -3\n    movi a3, 0\n    beqi a2, -3, yes\n    halt\n"
            "yes:\n    movi a3, 1\n    halt\n",
            "beqi-negative",
            isa=config.isa,
        )
        result = Simulator(config, program, engine=engine).run()
        assert result.state.regs[3] == 1
        assert result.instructions == 5
