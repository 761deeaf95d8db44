"""Program compilation: lowering a :class:`Program` to dispatchable micro-ops.

The interpreter used to re-resolve everything per retired instruction —
semantics lookup, ``source_registers``/``dest_registers`` construction,
the branch/jump class-and-latency decision tree, the uncached-range scan
— and re-decode the whole program on every :class:`Simulator`
construction.  This module hoists all of that to **compile time**:

* :func:`compile_program` lowers a ``(ProcessorConfig, Program)`` pair
  into an :class:`ExecutableProgram` — a dense, index-addressed tuple of
  fused micro-op records with the semantics callable, operand register
  tuples, resolved-or-BRANCH instruction class, issue latencies for both
  control outcomes, uncached flag and fall-through successor index all
  pre-bound;
* :class:`CompilationCache` memoizes those lowerings across runs, keyed
  by ``(Program.digest(), ProcessorConfig.lowering_fingerprint())`` —
  content hashes that leave out the cache geometry the lowering never
  reads, so equal-content programs/configs, and configs that differ only
  in their caches, share one compilation no matter how many objects or
  processes spell them;
* :func:`describe_invalid_pc` turns a wild program counter into an
  actionable diagnostic (nearest preceding symbol, last retired address).

The dispatch loops that consume this IR live in :mod:`repro.xtcore.iss`.
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from ..isa import INSTRUCTION_BYTES, InstructionClass
from ..isa.bits import (
    byte_swap,
    count_leading_zeros,
    count_trailing_zeros,
    popcount,
    rotate_left,
    rotate_right,
    to_signed,
)
from ..isa.classes import BASE_ENERGY_CLASSES
from ..isa.state import SparseMemory
from .errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program
    from .config import ProcessorConfig

#: Field indices of one micro-op record (a plain tuple, unpacked by the
#: dispatch loops).  Kept flat and positional on purpose: attribute access
#: on a dataclass costs a dict probe per field per retire, tuple unpacking
#: is a single bytecode.
OP_SEM = 0  #: semantics callable
OP_INS = 1  #: the decoded :class:`Instruction`
OP_SRCS = 2  #: source-register tuple (pre-resolved)
OP_SRC0 = 3  #: first source register, or -1 (memory base / result fast path)
OP_IMM = 4  #: ``ins.imm or 0`` (memory-address offset)
OP_MEM = 5  #: True when the op is a LOAD or STORE
OP_CACHED = 6  #: True when fetched through the I-cache (not an uncached range)
OP_BRANCH = 7  #: True when the static class is BRANCH (outcome-resolved)
OP_LOAD_DESTS = 8  #: dest-register tuple when LOAD (interlock source), else ()
OP_FALL_IDX = 9  #: index of the fall-through successor, or -1
OP_ADDR = 10  #: byte address of the instruction
OP_MNEMONIC = 11  #: mnemonic string
OP_CLASS_UNTAKEN = 12  #: retire class when the pc is not redirected
OP_CLASS_TAKEN = 13  #: retire class when the pc is redirected
OP_ISSUE_UNTAKEN = 14  #: issue cycles, untaken outcome
OP_ISSUE_TAKEN = 15  #: issue cycles, taken outcome (jump penalty folded in)
OP_DEST0 = 16  #: first destination register, or -1
OP_CUSTOM_KIND = 17  #: 0 = base op, 1 = custom, 2 = custom accessing the GPR file
OP_HAS_SRCS = 18  #: bool(srcs) — drives base-bus-cycle attribution
OP_BASE_CLASS = 19  #: untaken class is one of the six base energy classes
OP_INTERIOR = 20  #: eligible for fusion into a superop block interior

#: Generic (unspecialized) mnemonics proven safe as superop interiors:
#: their semantics never read ``ctx.pc``, never redirect control, never
#: halt, and touch only registers through the bounds-checked accessors —
#: so fusing them into a block is observationally identical to per-op
#: dispatch (a fault simply propagates out of the block).
_SAFE_GENERIC_INTERIOR = frozenset({"quos", "quou", "rems", "remu"})

#: Classes whose ops may be block interiors.  JUMP/BRANCH redirect the
#: pc and SYSTEM covers ``halt``/``break`` (run terminators) — those end
#: a block.  CUSTOM is handled separately: TIE-compiled semantics carry a
#: ``tie_straightline`` marker proving they are pure dataflow.
_INTERIOR_CLASSES = (
    InstructionClass.ARITH,
    InstructionClass.LOAD,
    InstructionClass.STORE,
)


@dataclasses.dataclass(frozen=True)
class ExecutableProgram:
    """A :class:`Program` lowered against one :class:`ProcessorConfig`.

    Index-addressed: ``ops[i]`` executes the instruction at ``addrs[i]``,
    and sequential fall-through is ``ops[i][OP_FALL_IDX]`` instead of a
    dict probe on the next byte address.  Immutable once built, so one
    instance is safely shared across runs, sessions and forked workers.
    """

    program_name: str
    config_name: str
    program_digest: str
    #: :meth:`ProcessorConfig.lowering_fingerprint` of the config it was
    #: lowered against (cache geometry is not part of a lowering)
    lowering_fingerprint: str
    entry: int
    ops: tuple[tuple, ...]
    addrs: tuple[int, ...]
    pc_to_index: dict[int, int]
    #: ``(addr, name)`` pairs sorted by address — diagnostics only.
    symbols_by_addr: tuple[tuple[int, str], ...]
    #: every source/dest register of every op is < num_registers, so the
    #: dispatch loops may read the register file without bounds checks.
    regs_in_range: bool = True

    def __len__(self) -> int:
        return len(self.ops)

    def index_of(self, pc: int) -> int:
        """Micro-op index for ``pc``, or -1 when no instruction lives there."""
        return self.pc_to_index.get(pc, -1)

    def nearest_symbol(self, pc: int) -> Optional[tuple[str, int]]:
        """``(name, offset)`` of the closest symbol at or before ``pc``."""
        table = self.symbols_by_addr
        pos = bisect_right(table, (pc, "￿")) - 1
        if pos < 0:
            return None
        addr, name = table[pos]
        return name, pc - addr

    def __repr__(self) -> str:
        return (
            f"ExecutableProgram({self.program_name} on {self.config_name}: "
            f"{len(self.ops)} ops, key {self.program_digest[:8]}/"
            f"{self.lowering_fingerprint[:8]})"
        )


# ---------------------------------------------------------------------------
# Base-ISA semantics: one source template per mnemonic
# ---------------------------------------------------------------------------
#
# The generic semantics callables go through ``ctx.get``/``ctx.set`` (a
# bounds check + method call per register touch), re-probe ``ins``
# attributes per retire, and call ``truncate``/``to_signed`` helpers.
# All of that is static once the instruction is known, so every base
# mnemonic has one Python source template below with these placeholders:
#
# * ``{d}``/``{s}``/``{t}`` — the ``rd``/``rs``/``rt`` register operands,
#   bounds-checked at compile time (an out-of-range index keeps the
#   generic callable, so the generic runtime error is preserved);
# * ``{k}`` — the mnemonic's constant, folded from the instruction at
#   compile time (pre-masked immediate, link address, compare value);
# * ``{j}`` — the branch/jump target.
#
# A template reads and writes ``regs`` (loads and stores also the sparse
# memory's ``pages``, with a single-page fast path) and ``return``s the
# redirected pc, if any.  It is used two ways: a per-op closure binds the
# operands as closure variables (:func:`_factory` generates one closure
# factory per mnemonic, once per process), and a fused superop block
# inlines it with the operands as literals (:func:`_fuse_block`).  Both
# are observationally identical to the generic callable — same
# register/memory mutations, same return value — which the differential
# harness (tests/integration/test_dispatch_differential.py) pins.
#
# Mnemonics with no template (TIE customs, divides, ``break``) fall back
# to ``definition.semantics`` unchanged.

_M = 0xFFFFFFFF
_PAGE_BITS = SparseMemory.PAGE_BITS
_PAGE_SIZE = SparseMemory.PAGE_SIZE

#: ``a`` / ``b`` <- the signed views of ``rs`` / ``rt``.
_SIGNED_A = "a = regs[{s}]\nif a & 2147483648: a -= 4294967296\n"
_SIGNED_AB = _SIGNED_A + "b = regs[{t}]\nif b & 2147483648: b -= 4294967296\n"


def _alu(expr: str) -> str:
    """rd <- expr, truncated to 32 bits."""
    return "regs[{d}] = (" + expr + ") & 4294967295"


def _sext(bits: int) -> str:
    return (
        f"v = regs[{{s}}] & {(1 << bits) - 1}\n"
        f"regs[{{d}}] = (v | {(_M >> bits) << bits}) if v & {1 << (bits - 1)} else v"
    )


def _load(size: int, signed: bool) -> str:
    bits = size * 8
    extend = f"if v & {1 << (bits - 1)}: v |= {(_M >> bits) << bits}\n" if signed else ""
    return (
        "a = (regs[{s}] + {k}) & 4294967295\n"
        f"o = a & {_PAGE_SIZE - 1}\n"
        f"if o <= {_PAGE_SIZE - size}:\n"
        f"    p = pages.get(a >> {_PAGE_BITS})\n"
        f"    v = 0 if p is None else int.from_bytes(p[o:o + {size}], 'little')\n"
        "else:  # straddles a page boundary: per-byte generic read\n"
        f"    v = state.memory.read(a, {size})\n"
        f"{extend}"
        "regs[{t}] = v"
    )


def _store(size: int) -> str:
    mask = (1 << (size * 8)) - 1
    return (
        "a = (regs[{s}] + {k}) & 4294967295\n"
        f"o = a & {_PAGE_SIZE - 1}\n"
        f"if o <= {_PAGE_SIZE - size}:\n"
        f"    p = pages.get(a >> {_PAGE_BITS})\n"
        "    if p is None:\n"
        f"        p = pages[a >> {_PAGE_BITS}] = bytearray({_PAGE_SIZE})\n"
        f"    p[o:o + {size}] = (regs[{{t}}] & {mask}).to_bytes({size}, 'little')\n"
        "else:  # straddles a page boundary: per-byte generic write\n"
        f"    state.memory.write(a, regs[{{t}}], {size})"
    )


def _fold_word(ins, addr: int) -> int:
    return (ins.imm or 0) & _M


def _fold_uimm12(ins, addr: int) -> int:
    return ins.imm & 0xFFF


def _fold_shift(ins, addr: int) -> int:
    return ins.imm & 31


def _fold_link(ins, addr: int) -> int:
    # ``ctx.pc`` equals the instruction's own address when semantics run,
    # so the link value is a compile-time constant.
    return (addr + INSTRUCTION_BYTES) & _M


def _fold_rt_signed(ins, addr: int) -> int:
    # BI compares carry their signed immediate in ``rt`` (the assembler
    # stores it as written, so it may be negative).
    return to_signed(ins.rt)


#: mnemonic -> (source template, constant fold ``(ins, addr) -> {k}`` or None).
_TEMPLATES = {
    # R3 unsigned arithmetic/logic
    "add": (_alu("regs[{s}] + regs[{t}]"), None),
    "sub": (_alu("regs[{s}] - regs[{t}]"), None),
    "and": (_alu("regs[{s}] & regs[{t}]"), None),
    "or": (_alu("regs[{s}] | regs[{t}]"), None),
    "xor": (_alu("regs[{s}] ^ regs[{t}]"), None),
    "nor": (_alu("~(regs[{s}] | regs[{t}])"), None),
    "andn": (_alu("regs[{s}] & ~regs[{t}]"), None),
    "orn": (_alu("regs[{s}] | ~regs[{t}]"), None),
    "xnor": (_alu("~(regs[{s}] ^ regs[{t}])"), None),
    "addx2": (_alu("(regs[{s}] << 1) + regs[{t}]"), None),
    "addx4": (_alu("(regs[{s}] << 2) + regs[{t}]"), None),
    "addx8": (_alu("(regs[{s}] << 3) + regs[{t}]"), None),
    "subx2": (_alu("(regs[{s}] << 1) - regs[{t}]"), None),
    "subx4": (_alu("(regs[{s}] << 2) - regs[{t}]"), None),
    "sltu": (_alu("1 if regs[{s}] < regs[{t}] else 0"), None),
    "minu": (_alu("min(regs[{s}], regs[{t}])"), None),
    "maxu": (_alu("max(regs[{s}], regs[{t}])"), None),
    "mull": (_alu("regs[{s}] * regs[{t}]"), None),
    "mulhu": (_alu("(regs[{s}] * regs[{t}]) >> 32"), None),
    # R3 signed
    "slt": (_SIGNED_AB + "regs[{d}] = 1 if a < b else 0", None),
    "min": (_SIGNED_AB + _alu("min(a, b)"), None),
    "max": (_SIGNED_AB + _alu("max(a, b)"), None),
    "mulh": (_SIGNED_AB + _alu("(a * b) >> 32"), None),
    # register shifts
    "sll": (_alu("regs[{s}] << (regs[{t}] & 31)"), None),
    "srl": (_alu("regs[{s}] >> (regs[{t}] & 31)"), None),
    "sra": (_SIGNED_A + _alu("a >> (regs[{t}] & 31)"), None),
    "rotl": (_alu("_rotl(regs[{s}], regs[{t}] & 31)"), None),
    "rotr": (_alu("_rotr(regs[{s}], regs[{t}] & 31)"), None),
    # R2 unary (abs: |signed(a)| for the negative half, mod 2^32)
    "mov": (_alu("regs[{s}]"), None),
    "neg": (_alu("-regs[{s}]"), None),
    "not": (_alu("~regs[{s}]"), None),
    "abs": ("a = regs[{s}]\nif a & 2147483648: a = 4294967296 - a\n" + _alu("a"), None),
    "sext8": (_sext(8), None),
    "sext16": (_sext(16), None),
    "zext8": (_alu("regs[{s}] & 255"), None),
    "zext16": (_alu("regs[{s}] & 65535"), None),
    "clz": (_alu("_clz(regs[{s}])"), None),
    "ctz": (_alu("_ctz(regs[{s}])"), None),
    "popc": (_alu("_popc(regs[{s}])"), None),
    "bswap": (_alu("_bswap(regs[{s}])"), None),
    # conditional moves (rt tested as signed; the sign bit is all that matters)
    "moveqz": ("if regs[{t}] == 0: regs[{d}] = regs[{s}]", None),
    "movnez": ("if regs[{t}] != 0: regs[{d}] = regs[{s}]", None),
    "movltz": ("if regs[{t}] & 2147483648: regs[{d}] = regs[{s}]", None),
    "movgez": ("if not regs[{t}] & 2147483648: regs[{d}] = regs[{s}]", None),
    # immediates
    "addi": (_alu("regs[{s}] + {k}"), _fold_word),
    "addmi": (_alu("regs[{s}] + {k}"), lambda ins, addr: (ins.imm & _M) << 8),
    "andi": (_alu("regs[{s}] & {k}"), _fold_uimm12),
    "ori": (_alu("regs[{s}] | {k}"), _fold_uimm12),
    "xori": (_alu("regs[{s}] ^ {k}"), _fold_uimm12),
    "slti": (_SIGNED_A + "regs[{d}] = 1 if a < {k} else 0", lambda ins, addr: ins.imm),
    "sltiu": ("regs[{d}] = 1 if regs[{s}] < {k} else 0", _fold_word),
    "slli": (_alu("regs[{s}] << {k}"), _fold_shift),
    "srli": (_alu("regs[{s}] >> {k}"), _fold_shift),
    "srai": (_SIGNED_A + _alu("a >> {k}"), _fold_shift),
    "roli": (_alu("_rotl(regs[{s}], {k})"), _fold_shift),
    "rori": (_alu("_rotr(regs[{s}], {k})"), _fold_shift),
    "movi": ("regs[{d}] = {k}", _fold_word),
    "movhi": ("regs[{d}] = {k}", lambda ins, addr: ((ins.imm & 0x3FFFF) << 12) & _M),
    # memory
    "l32i": (_load(4, signed=False), _fold_word),
    "l16ui": (_load(2, signed=False), _fold_word),
    "l16si": (_load(2, signed=True), _fold_word),
    "l8ui": (_load(1, signed=False), _fold_word),
    "l8si": (_load(1, signed=True), _fold_word),
    "s32i": (_store(4), _fold_word),
    "s16i": (_store(2), _fold_word),
    "s8i": (_store(1), _fold_word),
    # jumps / calls (callx reads rs before the link write: rs may be a0)
    "j": ("return {j}", None),
    "jx": ("return regs[{s}]", None),
    "call": ("regs[0] = {k}\nreturn {j}", _fold_link),
    "callx": ("a = regs[{s}]\nregs[0] = {k}\nreturn a", _fold_link),
    "ret": ("return regs[0]", None),
    # branches
    "beq": ("return {j} if regs[{s}] == regs[{t}] else None", None),
    "bne": ("return {j} if regs[{s}] != regs[{t}] else None", None),
    "blt": (_SIGNED_AB + "return {j} if a < b else None", None),
    "bge": (_SIGNED_AB + "return {j} if a >= b else None", None),
    "bltu": ("return {j} if regs[{s}] < regs[{t}] else None", None),
    "bgeu": ("return {j} if regs[{s}] >= regs[{t}] else None", None),
    "beqz": ("return {j} if regs[{s}] == 0 else None", None),
    "bnez": ("return {j} if regs[{s}] != 0 else None", None),
    "bltz": ("return {j} if regs[{s}] & 2147483648 else None", None),
    "bgez": ("return None if regs[{s}] & 2147483648 else {j}", None),
    "beqi": (_SIGNED_A + "return {j} if a == {k} else None", _fold_rt_signed),
    "bnei": (_SIGNED_A + "return {j} if a != {k} else None", _fold_rt_signed),
    "blti": (_SIGNED_A + "return {j} if a < {k} else None", _fold_rt_signed),
    "bgei": (_SIGNED_A + "return {j} if a >= {k} else None", _fold_rt_signed),
    "bbs": ("return {j} if (regs[{s}] >> {k}) & 1 else None", lambda ins, addr: ins.rt & 31),
    "bbc": ("return None if (regs[{s}] >> {k}) & 1 else {j}", lambda ins, addr: ins.rt & 31),
    # system ("break" stays generic: it raises with runtime context)
    "nop": ("pass", None),
    "halt": ("state.halted = True", None),
}

#: Globals the templates call.
_HELPERS = {
    "_rotl": rotate_left,
    "_rotr": rotate_right,
    "_clz": count_leading_zeros,
    "_ctz": count_trailing_zeros,
    "_popc": popcount,
    "_bswap": byte_swap,
}

#: mnemonic -> generated closure factory ``make(ins, addr, num_registers)``.
_FACTORIES: dict = {}


def _factory(mnemonic: str):
    """Generate the per-op closure factory for ``mnemonic`` (once per process).

    ``make(ins, addr, num_registers)`` bounds-checks the registers the
    template names, folds ``{k}``, and returns the template as a closure
    over those operands — or None when a register is out of range.
    """
    template, fold = _TEMPLATES[mnemonic]
    lines = ["def make(ins, addr, num_registers):"]
    for placeholder, field in (("d", "rd"), ("s", "rs"), ("t", "rt")):
        if f"{{{placeholder}}}" in template:
            lines += [
                f"    {placeholder} = ins.{field}",
                f"    if {placeholder} is None or {placeholder} < 0 "
                f"or {placeholder} >= num_registers:",
                "        return None",
            ]
    if fold is not None:
        lines.append("    k = _fold(ins, addr)")
    if "{j}" in template:
        lines.append("    j = ins.imm")
    body = template.format(d="d", s="s", t="t", k="k", j="j")
    if "pages" in body:
        body = "pages = state.memory._pages\n" + body
    if "regs" in body:
        body = "regs = state.regs\n" + body
    lines += [
        "    def sem(state, _ins):",
        "        " + body.replace("\n", "\n        "),
        "    return sem",
    ]
    namespace = dict(_HELPERS, _fold=fold)
    exec(compile("\n".join(lines), f"<semantics {mnemonic}>", "exec"), namespace)
    factory = _FACTORIES[mnemonic] = namespace["make"]
    return factory


def _specialize(definition, ins, addr: int, num_registers: int):
    """A template closure for this op, or None to use the generic semantics."""
    if definition.iclass is InstructionClass.CUSTOM:
        return None
    make = _FACTORIES.get(definition.mnemonic)
    if make is None:
        if definition.mnemonic not in _TEMPLATES:
            return None
        make = _factory(definition.mnemonic)
    return make(ins, addr, num_registers)


def _inline(op: tuple) -> str:
    """The op's template with its operands as literals (fused blocks)."""
    template, fold = _TEMPLATES[op[OP_MNEMONIC]]
    ins = op[OP_INS]
    return template.format(
        d=ins.rd, s=ins.rs, t=ins.rt, k=fold(ins, op[OP_ADDR]) if fold else None, j=ins.imm
    )


def compile_program(config: "ProcessorConfig", program: "Program") -> ExecutableProgram:
    """Lower ``program`` against ``config`` into an :class:`ExecutableProgram`.

    Raises :class:`SimulationError` when the program uses a mnemonic that
    is not in the processor's ISA (same contract the per-run decoder had).
    """
    isa = config.isa
    penalty = config.timing.branch_taken_penalty
    gpr_mnemonics = frozenset(
        mnemonic
        for mnemonic, impl in config.extension_index.items()
        if impl.accesses_gpr
    )

    addrs = tuple(sorted(program.instructions))
    pc_to_index = {addr: index for index, addr in enumerate(addrs)}
    ops: list[tuple] = []
    num_registers = config.num_registers
    regs_in_range = True
    for addr in addrs:
        ins = program.instructions[addr]
        try:
            definition = isa.lookup(ins.mnemonic)
        except KeyError as exc:
            raise SimulationError(
                f"{program.name}: instruction {ins.mnemonic!r} at {addr:#x} "
                f"is not in processor {config.name}'s ISA"
            ) from exc
        srcs = definition.source_registers(ins)
        dests = definition.dest_registers(ins)
        if regs_in_range and any(
            reg < 0 or reg >= num_registers for reg in srcs + dests
        ):
            regs_in_range = False
        iclass = definition.iclass
        class_untaken, class_taken, issue_untaken, issue_taken = (
            definition.resolve_timing(penalty)
        )
        if iclass is InstructionClass.CUSTOM:
            custom_kind = 2 if ins.mnemonic in gpr_mnemonics else 1
        else:
            custom_kind = 0
        specialized = _specialize(definition, ins, addr, num_registers)
        semantics = specialized or definition.semantics
        # Interior ops are provably straight-line: they never redirect the
        # pc, never halt, and never read ``ctx.pc``, so a whole run of them
        # can execute as one fused superop call (see compile_superops).
        # Custom instructions qualify when the TIE compiler marked their
        # semantics straight-line (pure dataflow by construction).
        interior = (
            iclass in _INTERIOR_CLASSES
            and (specialized is not None or ins.mnemonic in _SAFE_GENERIC_INTERIOR)
        ) or (
            iclass is InstructionClass.CUSTOM
            and getattr(definition.semantics, "tie_straightline", False)
        )
        ops.append(
            (
                semantics,
                ins,
                srcs,
                srcs[0] if srcs else -1,
                ins.imm or 0,
                iclass in (InstructionClass.LOAD, InstructionClass.STORE),
                not program.is_uncached(addr),
                iclass is InstructionClass.BRANCH,
                dests if iclass is InstructionClass.LOAD else (),
                pc_to_index.get(addr + INSTRUCTION_BYTES, -1),
                addr,
                ins.mnemonic,
                class_untaken,
                class_taken,
                issue_untaken,
                issue_taken,
                dests[0] if dests else -1,
                custom_kind,
                bool(srcs),
                class_untaken in BASE_ENERGY_CLASSES,
                interior,
            )
        )

    return ExecutableProgram(
        program_name=program.name,
        config_name=config.name,
        program_digest=program.digest(),
        lowering_fingerprint=config.lowering_fingerprint(),
        entry=program.entry,
        ops=tuple(ops),
        addrs=addrs,
        pc_to_index=pc_to_index,
        symbols_by_addr=tuple(
            sorted((addr, name) for name, addr in program.symbols.items())
        ),
        regs_in_range=regs_in_range,
    )


# ---------------------------------------------------------------------------
# Superop lowering: fusing basic blocks into single-dispatch closures
# ---------------------------------------------------------------------------
#
# Per-op dispatch pays one Python loop iteration per retired instruction:
# budget check, op-tuple load, I-cache memo, interlock scan, pc
# bookkeeping, successor resolution.  For a run of *interior* ops (see
# OP_INTERIOR) every one of those outcomes is a compile-time constant:
# the run retires exactly ``length`` instructions, touches a fixed I-line
# sequence, stalls a fixed number of internal interlocks and falls
# through to a fixed successor.  compile_superops folds each maximal
# interior run into one block descriptor so the dispatch loop in
# :mod:`repro.xtcore.iss` pays the bookkeeping once per *block* instead
# of once per instruction — and anything that could make the folding
# observable (faults, budget expiry mid-block, mid-block landings) side-
# exits to the per-op path instead.

#: Field indices of one superop block descriptor (flat tuple, same
#: rationale as the OP_* layout above).
BLK_START = 0  #: op index of the first instruction (keys the block counter)
BLK_LEN = 1  #: number of instructions retired per block execution
BLK_IFETCH = 2  #: ``(line, addr)`` per distinct I-line touched, in order
BLK_FIRST_SRCS = 3  #: source regs of the first op (incoming-interlock check)
BLK_INTERLOCKS = 4  #: load-use interlocks internal to the block (static)
BLK_LOAD_DESTS = 5  #: load dests of the last op (outgoing-interlock state)
BLK_NEXT_IDX = 6  #: op index the block falls through to, or -1
BLK_LAST_ADDR = 7  #: byte address of the last instruction (diagnostics)
BLK_FN = 8  #: fused closure ``fn(state, ic, dc, icache_access, dcache_access)``


def line_shift(cache) -> int:
    """``addr >> line_shift(cache)`` is the line of ``addr`` (a CacheConfig)."""
    return cache.line_bytes.bit_length() - 1


@dataclasses.dataclass(frozen=True)
class SuperopProgram:
    """Block-level lowering of an :class:`ExecutableProgram`.

    ``block_at[i]`` is the block descriptor whose first op is ``ops[i]``
    (or None when op ``i`` does not lead a block), so the dispatch loop
    can probe block entry with one tuple index per control transfer.
    Derived purely from the executable plus the two cache line shifts it
    was fused at — immutable and safely shared across runs and forked
    workers.
    """

    program_digest: str
    lowering_fingerprint: str
    blocks: tuple[tuple, ...]
    block_at: tuple[Optional[tuple], ...]

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def fused_ops(self) -> int:
        """Static op count covered by blocks (fusion coverage metric)."""
        return sum(block[BLK_LEN] for block in self.blocks)

    def __repr__(self) -> str:
        return (
            f"SuperopProgram({len(self.blocks)} blocks over "
            f"{self.fused_ops}/{len(self.block_at)} ops, key "
            f"{self.program_digest[:8]}/{self.lowering_fingerprint[:8]})"
        )


def _fuse_block(ops: tuple, start: int, end: int, ifetch: list, dshift: int):
    """Generate one fused closure executing ops ``start..end`` inline.

    Signature: ``fn(state, ic, dc, icache_access, dcache_access)`` where
    ``ic``/``dc`` are two-slot lists ``[last_line, misses]`` shared with
    the dispatch loop's per-op side-exit path, so the same-line memo
    carries seamlessly across fused and per-op execution.  Each op runs
    its semantics template inline; ops with no template (divides, TIE
    customs) stay bound calls.  Memory ops append the D-cache replay with
    ``dshift`` folded in, mirroring the per-op order: address from the
    pre-op registers, semantics, then the cache model.
    """
    namespace = dict(_HELPERS)
    body = ["regs = state.regs"]
    if any(ops[i][OP_MEM] for i in range(start, end + 1)):
        body.append("pages = state.memory._pages")
    for line, fetch_addr in ifetch:
        body.append(
            f"if {line} != ic[0]:\n"
            f"    ic[0] = {line}\n"
            f"    if not icache_access({fetch_addr}):\n"
            "        ic[1] += 1"
        )
    for i in range(start, end + 1):
        op = ops[i]
        if op[OP_CUSTOM_KIND] or op[OP_MNEMONIC] not in _TEMPLATES:
            namespace[f"_c{i}"] = op[OP_SEM]
            namespace[f"_i{i}"] = op[OP_INS]
            body.append(f"_c{i}(state, _i{i})")
            continue
        body.append(_inline(op))
        if op[OP_MEM]:
            body.append(
                f"l = a >> {dshift}\n"
                "if l != dc[0]:\n"
                "    dc[0] = l\n"
                "    if not dcache_access(a):\n"
                "        dc[1] += 1"
            )
    source = (
        "def _superop(state, ic, dc, icache_access, dcache_access):\n    "
        + "\n".join(body).replace("\n", "\n    ")
    )
    exec(compile(source, f"<superop@{ops[start][OP_ADDR]:#x}>", "exec"), namespace)
    return namespace["_superop"]


def compile_superops(
    executable: ExecutableProgram, ishift: int, dshift: int
) -> SuperopProgram:
    """Fuse the executable's maximal interior runs into superop blocks.

    ``ishift``/``dshift`` are the I/D line shifts the fused cache-memo
    checks compare at (``line_shift`` of a config's caches for a solo
    run, the finest of a batch's for :func:`repro.xtcore.run_batch`).

    Block leaders are the static control-flow join points: the program
    entry, every static branch/jump/call target, and the op after every
    non-interior op.  Dynamic targets (``jx``/``callx``/``ret``) that
    land mid-block are handled by the dispatch loop, which walks per-op
    until it reaches the next leader.

    Each block folds, at compile time:

    * **ifetch** — the I-line transition sequence at ``ishift``
      granularity: intra-block fetch addresses are strictly increasing,
      so consecutive same-line fetches collapse exactly like the per-op
      same-line memo (uncached ops never touch the I-cache and are
      excluded; their fetch penalty is count-derived at aggregation);
    * **interlocks** — load-use stalls between ops inside the block,
      a static property of adjacent (load dests, source regs) pairs.
    """
    ops = executable.ops
    pc_map = executable.pc_to_index
    n = len(ops)

    leaders = set()
    entry_idx = pc_map.get(executable.entry, -1)
    if entry_idx >= 0:
        leaders.add(entry_idx)
    if n:
        leaders.add(0)
    for i, op in enumerate(ops):
        if not op[OP_INTERIOR] and i + 1 < n:
            leaders.add(i + 1)
        if op[OP_BRANCH] or op[OP_MNEMONIC] in ("j", "call"):
            target_idx = pc_map.get(op[OP_INS].imm, -1)
            if target_idx >= 0:
                leaders.add(target_idx)

    blocks: list[tuple] = []
    block_at: list[Optional[tuple]] = [None] * n
    for start in sorted(leaders):
        if not ops[start][OP_INTERIOR]:
            continue
        end = start
        while True:
            fall = ops[end][OP_FALL_IDX]
            if fall < 0 or fall in leaders or not ops[fall][OP_INTERIOR]:
                break
            end = fall

        interlocks = 0
        ifetch: list[tuple[int, int]] = []
        last_line = -1
        for i in range(start, end + 1):
            op = ops[i]
            if op[OP_CACHED]:
                line = op[OP_ADDR] >> ishift
                if line != last_line:
                    last_line = line
                    ifetch.append((line, op[OP_ADDR]))
            if i > start and ops[i - 1][OP_LOAD_DESTS]:
                dests = ops[i - 1][OP_LOAD_DESTS]
                if any(src in dests for src in op[OP_SRCS]):
                    interlocks += 1

        block = (
            start,
            end - start + 1,
            tuple(ifetch),
            ops[start][OP_SRCS],
            interlocks,
            ops[end][OP_LOAD_DESTS],
            ops[end][OP_FALL_IDX],
            ops[end][OP_ADDR],
            _fuse_block(ops, start, end, ifetch, dshift),
        )
        blocks.append(block)
        block_at[start] = block

    return SuperopProgram(
        program_digest=executable.program_digest,
        lowering_fingerprint=executable.lowering_fingerprint,
        blocks=tuple(blocks),
        block_at=tuple(block_at),
    )


def describe_invalid_pc(
    program_name: str,
    pc: int,
    executable: Optional[ExecutableProgram] = None,
    last_retired_addr: Optional[int] = None,
) -> str:
    """Diagnostic for a pc with no instruction: where did the jump come from?

    Keeps the historical ``pc=... is not a valid instruction address``
    phrasing (matched by callers and tests) and appends the nearest
    preceding label/symbol plus the address of the last retired
    instruction, so wild jumps in user programs are debuggable.
    """
    message = f"{program_name}: pc={pc:#010x} is not a valid instruction address"
    context: list[str] = []
    if executable is not None:
        near = executable.nearest_symbol(pc)
        if near is not None:
            name, offset = near
            where = f"{name!r}" if offset == 0 else f"{name!r}+{offset:#x}"
            context.append(f"nearest preceding symbol: {where}")
        else:
            context.append("before the first symbol")
    if last_retired_addr is not None:
        context.append(f"last retired instruction at {last_retired_addr:#010x}")
    else:
        context.append("no instructions retired")
    return f"{message} ({'; '.join(context)})"


class CompilationCache:
    """LRU cache of :class:`ExecutableProgram` lowerings across runs.

    Keys are ``(program digest, lowering fingerprint)`` — pure content, so
    a re-assembled identical program or a re-built identical config hits,
    and so do configs that differ only in cache geometry, which lowering
    never reads.  The superop tier adds the I/D line shifts its blocks
    are fused at.  The counters are part of the public contract:
    design-space exploration asserts exactly one compilation per
    (program, implementation) pair via :attr:`compilations`.

    Thread-safe: the estimation service's worker pool resolves lowerings
    from concurrent threads, so every mutation of the LRU order and the
    counters happens under one lock.  ``get_or_compile`` holds the lock
    across the compilation itself — that serializes first-time lowerings
    of *different* pairs, but guarantees the one-compilation-per-pair
    invariant under races (and compilation is a one-time cost by design).
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("compilation cache needs room for at least one entry")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple[str, str], ExecutableProgram]" = OrderedDict()
        #: superop artifact tier: the ops key plus the I/D line shifts,
        #: independent LRU order — a pair that only ever runs per-op never
        #: pays block lowering.
        self._superops: "OrderedDict[tuple[str, str, int, int], SuperopProgram]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.compilations = 0
        self.evictions = 0
        self.superop_hits = 0
        self.superop_misses = 0
        self.superop_compilations = 0
        self.superop_evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compile(
        self, config: "ProcessorConfig", program: "Program"
    ) -> ExecutableProgram:
        """Return the cached lowering for the pair, compiling on first use."""
        key = (program.digest(), config.lowering_fingerprint())
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            executable = compile_program(config, program)  # may raise; not cached
            self.compilations += 1
            self._entries[key] = executable
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            return executable

    def get_or_compile_superops(
        self,
        config: "ProcessorConfig",
        program: "Program",
        executable: Optional[ExecutableProgram] = None,
    ) -> SuperopProgram:
        """Return the cached block lowering for the pair, fusing on first use.

        Pass ``executable`` when the per-op lowering is already in hand to
        skip the ops-tier probe; it must carry the same digest/fingerprint
        pair (the :class:`~repro.xtcore.iss.Simulator` constructor enforces
        that before calling here).  Blocks are fused at the config's own
        I/D line shifts, which complete the key.
        """
        if executable is None:
            executable = self.get_or_compile(config, program)
        ishift, dshift = line_shift(config.icache), line_shift(config.dcache)
        key = (executable.program_digest, executable.lowering_fingerprint, ishift, dshift)
        with self._lock:
            cached = self._superops.get(key)
            if cached is not None:
                self._superops.move_to_end(key)
                self.superop_hits += 1
                return cached
            self.superop_misses += 1
            superops = compile_superops(executable, ishift, dshift)
            self.superop_compilations += 1
            self._superops[key] = superops
            if len(self._superops) > self.maxsize:
                self._superops.popitem(last=False)
                self.superop_evictions += 1
            return superops

    def put(self, executable: ExecutableProgram) -> None:
        """Insert a pre-built lowering (e.g. compiled in a parent process)."""
        key = (executable.program_digest, executable.lowering_fingerprint)
        with self._lock:
            self._entries[key] = executable
            self._entries.move_to_end(key)
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._entries.clear()
            self._superops.clear()
            self.hits = 0
            self.misses = 0
            self.compilations = 0
            self.evictions = 0
            self.superop_hits = 0
            self.superop_misses = 0
            self.superop_compilations = 0
            self.superop_evictions = 0

    def info(self) -> dict:
        """Counters, overall and per artifact tier.

        The top-level keys keep their historical meaning (the per-op
        ``ops`` tier, which every simulation resolves through); the
        ``tiers`` breakdown adds the superop block-artifact tier.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "compilations": self.compilations,
                "evictions": self.evictions,
                "tiers": {
                    "ops": {
                        "entries": len(self._entries),
                        "hits": self.hits,
                        "misses": self.misses,
                        "compilations": self.compilations,
                        "evictions": self.evictions,
                    },
                    "superop": {
                        "entries": len(self._superops),
                        "hits": self.superop_hits,
                        "misses": self.superop_misses,
                        "compilations": self.superop_compilations,
                        "evictions": self.superop_evictions,
                    },
                },
            }

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"CompilationCache({info['entries']}/{self.maxsize} entries, "
            f"{info['hits']} hits / {info['misses']} misses, "
            f"{info['compilations']} compilations)"
        )


#: Process-wide cache used by :class:`repro.xtcore.Simulator` (and thereby
#: ``run_session``).  Forked worker processes inherit the parent's entries
#: copy-on-write, which is how the DSE pool compiles once pre-fork.
_GLOBAL_CACHE = CompilationCache()


def compilation_cache() -> CompilationCache:
    """The process-wide compilation cache (counters included)."""
    return _GLOBAL_CACHE
