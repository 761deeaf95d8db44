"""Cycle-approximate instruction-set simulation: the dispatch engine.

This is the fast path of the paper's methodology (steps 6 and 9 of its
flow): instruction-set simulation gathers execution statistics — class
cycle counts, cache misses, uncached fetches, interlocks, custom
instruction counts — in one pass, without any structural hardware model.

The timing model is a five-stage in-order pipeline abstraction:

* every instruction occupies its definition latency in issue cycles;
* taken branches and jumps pay a pipeline-flush penalty, attributed to
  their class cycles (the paper's branch-taken class has a per-cycle
  coefficient covering this);
* a load-use dependence stalls the pipeline (the ``N_il`` interlock
  event);
* instruction fetches hit the I-cache, pay a miss penalty, or pay the
  uncached-fetch penalty when the address lies in an uncached region;
* loads and stores access the D-cache and pay miss penalties.

Execution is a three-stage **compile → link → dispatch** pipeline: the
program is lowered once against the processor config into an
:class:`~repro.xtcore.compiled.ExecutableProgram` (memoized across runs
by the :func:`~repro.xtcore.compiled.compilation_cache`), and
:meth:`Simulator.run` dispatches over that IR through one of two loops:

* :meth:`Simulator._run_instrumented` runs whenever a trace is requested
  or an observer wants per-retire callbacks: it populates one reused
  :class:`~repro.obs.events.RetireEvent` per instruction and fans it out
  to the :class:`~repro.obs.protocol.SimObserver` chain, exactly as the
  streaming protocol documents;
* :func:`_dispatch` runs everything else: no event objects, no operand
  tuples, no callbacks — just semantics plus per-op retire counters.
  Given a block table from
  :func:`~repro.xtcore.compiled.compile_superops` it executes each fused
  basic block in one call (the ``superop`` engine) and side-exits to
  per-op dispatch where folding would be observable; given an all-None
  table it is the per-op ``compiled`` engine.  :func:`repro.xtcore.run_batch`
  records its shared trajectory through the same loop, with list appends
  as the cache hooks.

Both loops fold statistics the same way — per-op retire/taken counts and
scalar event counters, aggregated into :class:`ExecutionStats` at run
end by :func:`_aggregate_stats` — so their stats are identical by
construction, and the differential suite pins every engine against the
retained reference interpreter
(:class:`repro.xtcore.interp.ReferenceSimulator`).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

from ..asm import Program
from ..isa import INSTRUCTION_BYTES, MachineState
from ..isa.classes import InstructionClass
from ..obs.bundled import TraceObserver
from ..obs.events import RetireEvent
from ..obs.protocol import SimObserver
from .caches import SetAssociativeCache
from .compiled import (
    ExecutableProgram,
    SuperopProgram,
    compilation_cache,
    describe_invalid_pc,
)
from .config import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .errors import SimulationError, SimulationLimitExceeded
from ..obs.records import ExecutionStats, TraceRecord

#: Value planted in the link register at reset; returning to it halts the
#: simulation, so top-level routines may end with ``ret`` instead of ``halt``.
EXIT_ADDRESS = 0xFFFF_FFF0

#: Default stack-pointer value at reset (grows downward).
DEFAULT_STACK_TOP = 0x0007_FF00

_BRANCH_TAKEN = InstructionClass.BRANCH_TAKEN
_BRANCH_UNTAKEN = InstructionClass.BRANCH_UNTAKEN

#: Engine-selection names accepted by :class:`Simulator`, ``simulate`` and
#: ``run_session``.  ``auto`` resolves to the fastest engine that can honor
#: the run's instrumentation: superop blocks when nothing needs per-retire
#: callbacks, the per-op compiled path when something does.
ENGINES = ("auto", "reference", "compiled", "superop")

__all__ = [
    "DEFAULT_MAX_INSTRUCTIONS",
    "DEFAULT_STACK_TOP",
    "ENGINES",
    "EXIT_ADDRESS",
    "SimulationError",
    "SimulationLimitExceeded",
    "SimulationResult",
    "Simulator",
    "simulate",
]


@dataclasses.dataclass
class SimulationResult:
    """Output of one simulated run."""

    program: Program
    config: ProcessorConfig
    stats: ExecutionStats
    state: MachineState
    trace: Optional[list[TraceRecord]] = None
    #: dispatch engine that produced this result ("reference", "compiled",
    #: "superop" or "batch"); None when the producer predates the field.
    engine: Optional[str] = None

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def instructions(self) -> int:
        return self.stats.total_instructions

    @property
    def runtime_seconds(self) -> float:
        """Simulated wall-clock time at the configured core frequency."""
        return self.stats.total_cycles / (self.config.clock_mhz * 1e6)

    @property
    def cpi(self) -> float:
        """Cycles per instruction of the run (pipeline-quality metric)."""
        if self.stats.total_instructions == 0:
            return 0.0
        return self.stats.total_cycles / self.stats.total_instructions

    def performance_summary(self) -> str:
        """One-paragraph performance digest (CPI, stall/penalty shares)."""
        stats = self.stats
        cycles = stats.total_cycles or 1
        penalty_cycles = (
            stats.interlocks * self.config.timing.interlock_stall
            + stats.icache_misses * self.config.icache.miss_penalty
            + stats.dcache_misses * self.config.dcache.miss_penalty
            + stats.uncached_fetches * self.config.timing.uncached_fetch_penalty
        )
        return (
            f"{self.program.name} on {self.config.name}: "
            f"{stats.total_instructions} instructions in {stats.total_cycles} cycles "
            f"(CPI {self.cpi:.2f}, {100.0 * penalty_cycles / cycles:.1f}% in "
            f"stalls/miss penalties, {self.runtime_seconds * 1e6:.1f} us at "
            f"{self.config.clock_mhz:g} MHz)"
        )

    def word(self, symbol: str) -> int:
        """Read a 32-bit little-endian word at a program symbol (for checks)."""
        return self.state.memory.read(self.program.symbol(symbol), 4)

    def words(self, symbol: str, count: int) -> list[int]:
        base = self.program.symbol(symbol)
        return [self.state.memory.read(base + 4 * i, 4) for i in range(count)]


def _aggregate_stats(
    config: ProcessorConfig,
    executable: ExecutableProgram,
    counts: list[int],
    taken_counts: list[int],
    icache_misses: int,
    dcache_misses: int,
    interlocks: int,
) -> ExecutionStats:
    """Fold per-op retire counters into :class:`ExecutionStats`.

    Mathematically identical to applying :func:`repro.obs.bundled.apply_event`
    per retired instruction (the reference interpreter's folding rule), but
    O(static ops) instead of O(dynamic instructions): every retire of one
    micro-op contributes the same class, issue cycles and bus attribution,
    so the per-retire sums collapse to ``count x per-op values`` — with
    branches split by their taken count.  Both dispatch loops use this, so
    uninstrumented stats equal instrumented stats by construction.
    """
    stats = ExecutionStats()
    class_cycles = stats.class_cycles
    class_counts = stats.class_counts
    mnemonic_counts = stats.mnemonic_counts
    custom_cycles = stats.custom_cycles
    custom_counts = stats.custom_counts
    total_instructions = 0
    issue_total = 0
    base_bus = 0
    system = 0
    gpr_cycles = 0
    uncached_fetches = 0
    ops = executable.ops
    for index, count in enumerate(counts):
        if not count:
            continue
        op = ops[index]
        taken = taken_counts[index]
        untaken = count - taken
        issue = untaken * op[14] + taken * op[15]
        mnemonic = op[11]
        total_instructions += count
        issue_total += issue
        mnemonic_counts[mnemonic] = mnemonic_counts.get(mnemonic, 0) + count
        kind = op[17]
        if kind:  # custom instruction
            custom_cycles[mnemonic] = custom_cycles.get(mnemonic, 0) + issue
            custom_counts[mnemonic] = custom_counts.get(mnemonic, 0) + count
            if kind == 2:
                gpr_cycles += issue
        else:
            if op[7]:  # BRANCH: split by outcome
                if untaken:
                    class_cycles[_BRANCH_UNTAKEN] += untaken * op[14]
                    class_counts[_BRANCH_UNTAKEN] += untaken
                if taken:
                    class_cycles[_BRANCH_TAKEN] += taken * op[15]
                    class_counts[_BRANCH_TAKEN] += taken
            elif op[19]:  # one of the six base energy classes
                iclass = op[12]
                class_cycles[iclass] += issue
                class_counts[iclass] += count
            else:  # SYSTEM
                system += issue
            if op[18]:  # base op driving the shared operand buses
                base_bus += issue
        if not op[6]:
            uncached_fetches += count
    timing = config.timing
    stats.icache_misses = icache_misses
    stats.dcache_misses = dcache_misses
    stats.interlocks = interlocks
    stats.uncached_fetches = uncached_fetches
    stats.custom_gpr_cycles = gpr_cycles
    stats.base_bus_cycles = base_bus
    stats.system_cycles = system
    stats.total_instructions = total_instructions
    stats.total_cycles = (
        issue_total
        + interlocks * timing.interlock_stall
        + icache_misses * config.icache.miss_penalty
        + dcache_misses * config.dcache.miss_penalty
        + uncached_fetches * timing.uncached_fetch_penalty
    )
    return stats


def _dispatch(
    executable: ExecutableProgram,
    block_at: Sequence[Optional[tuple]],
    state: MachineState,
    max_instructions: int,
    icache_access: Callable[[int], object],
    dcache_access: Callable[[int], object],
    ishift: int,
    dshift: int,
) -> tuple[list[int], list[int], int, int, int]:
    """The uninstrumented dispatch loop: fused blocks, per-op side exits.

    Runs ``state`` to completion over ``executable``.  Where
    ``block_at[idx]`` holds a superop block (see
    :func:`~repro.xtcore.compiled.compile_superops`) the whole block
    retires in one call; everything else — block boundaries (branches,
    jumps, system ops, customs), mid-block landings from dynamic jumps,
    and blocks that would cross the instruction budget (so
    :class:`SimulationLimitExceeded` raises at the exact instruction,
    after any earlier fault) — walks per-op.  An all-None ``block_at``
    is therefore pure per-op dispatch.

    Each I-fetch / D-access whose line (``addr >> ishift`` /
    ``addr >> dshift``) differs from the previous one of its kind calls
    ``icache_access`` / ``dcache_access`` with the address: a repeat
    access to the line just touched is a guaranteed MRU hit with no LRU
    movement, so skipping the cache model changes no outcome.  A falsy
    return counts a miss.  The blocks must have been fused at the same
    shifts.

    Returns ``(counts, taken_counts, interlocks, icache_misses,
    dcache_misses)`` with per-op retire and taken counters.
    """
    ops = executable.ops
    pc_map = executable.pc_to_index
    counts = [0] * len(ops)
    taken_counts = [0] * len(ops)
    block_counts = [0] * len(ops)  # executions of the block led by op i
    interlocks = 0
    # Same-line memo + miss counters as two-slot lists so fused block
    # closures and the per-op side-exit path mutate one shared state.
    ic = [-1, 0]
    dc = [-1, 0]
    prev_load_dests: tuple[int, ...] = ()
    # Register reads skip the bounds check when compilation proved every
    # index in range (the out-of-range IndexError path is kept for
    # programs where it did not).
    state_get = state.regs.__getitem__ if executable.regs_in_range else state.get
    executed = 0
    mem_base = 0

    pc = state.pc
    if pc != EXIT_ADDRESS:
        idx = pc_map.get(pc, -1)
        if idx < 0:
            raise SimulationError(
                describe_invalid_pc(executable.program_name, pc, executable, None)
            )
        while True:
            block = block_at[idx]
            if block is not None and executed + block[1] <= max_instructions:
                # Fused fast path: the whole block retires in one dispatch
                # — semantics, I-line memo and D-cache replays inlined into
                # one generated closure, the remaining bookkeeping folded
                # to block deltas (field order: compiled.BLK_*).
                executed += block[1]
                if prev_load_dests:
                    for src in block[3]:
                        if src in prev_load_dests:
                            interlocks += 1
                            break
                interlocks += block[4]
                block[8](state, ic, dc, icache_access, dcache_access)
                block_counts[idx] += 1
                prev_load_dests = block[5]
                idx = block[6]
                if idx >= 0:
                    continue
                # Fell off the end of the mapped address range.
                addr = block[7]
                pc = (addr + INSTRUCTION_BYTES) & 0xFFFFFFFF
                state.pc = pc
                raise SimulationError(
                    describe_invalid_pc(executable.program_name, pc, executable, addr)
                )
            # Per-op path (field order: compiled.OP_*).
            if executed >= max_instructions:
                raise SimulationLimitExceeded(
                    f"{executable.program_name}: exceeded {max_instructions} instructions"
                )
            executed += 1
            op = ops[idx]
            addr = op[10]
            if op[6]:  # cached fetch
                line = addr >> ishift
                if line != ic[0]:
                    ic[0] = line
                    if not icache_access(addr):
                        ic[1] += 1
            if prev_load_dests:
                for src in op[2]:
                    if src in prev_load_dests:
                        interlocks += 1
                        break
            if op[5]:  # memory op: base register read precedes execution
                mem_base = state_get(op[3])
            state.pc = addr
            counts[idx] += 1
            next_pc = op[0](state, op[1])
            if op[5]:
                mem_addr = (mem_base + op[4]) & 0xFFFFFFFF
                line = mem_addr >> dshift
                if line != dc[0]:
                    dc[0] = line
                    if not dcache_access(mem_addr):
                        dc[1] += 1
            prev_load_dests = op[8]
            if next_pc is None:
                if state.halted:
                    state.pc = addr + INSTRUCTION_BYTES
                    break
                idx = op[9]
                if idx >= 0:
                    continue
                pc = addr + INSTRUCTION_BYTES
            else:
                taken_counts[idx] += 1
                if state.halted:
                    state.pc = next_pc
                    break
                if next_pc == EXIT_ADDRESS:
                    state.pc = EXIT_ADDRESS
                    break
                idx = pc_map.get(next_pc, -1)
                if idx >= 0:
                    continue
                pc = next_pc
            state.pc = pc
            raise SimulationError(
                describe_invalid_pc(executable.program_name, pc, executable, addr)
            )

    # Expand per-block execution counters into the per-op counts the
    # aggregation contract expects (O(static ops), like aggregation).
    for start, count in enumerate(block_counts):
        if count:
            for i in range(start, start + block_at[start][1]):
                counts[i] += count
    return counts, taken_counts, interlocks, ic[1], dc[1]


class Simulator:
    """Executes one :class:`Program` on one :class:`ProcessorConfig`.

    Construction resolves the program against the process-wide
    :func:`~repro.xtcore.compiled.compilation_cache` (pass ``executable``
    to reuse a lowering compiled elsewhere, e.g. pre-fork in a worker
    pool).  ``observers`` registers extra
    :class:`~repro.obs.protocol.SimObserver` subscribers on every run.

    ``engine`` selects the dispatch tier explicitly — one of
    :data:`ENGINES`.  The default ``auto`` resolves per run: superop
    block dispatch when nothing needs per-retire visibility, the per-op
    compiled path when a trace or a retire/event observer is registered,
    never the reference interpreter.  An explicit ``superop`` request
    likewise deoptimizes to the compiled per-op path for instrumented
    runs — fused blocks cannot fan out per-retire callbacks — so stats
    stay bitwise identical either way.  Most callers should go through
    :func:`repro.obs.run_session` instead of constructing a ``Simulator``
    directly.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        program: Program,
        collect_trace: bool = False,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        observers: Sequence[SimObserver] = (),
        executable: Optional[ExecutableProgram] = None,
        engine: str = "auto",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
            )
        self.config = config
        self.program = program
        self.collect_trace = collect_trace
        self.max_instructions = max_instructions
        self.observers = tuple(observers)
        self.engine = engine
        if executable is None:
            executable = compilation_cache().get_or_compile(config, program)
        elif (
            executable.program_digest != program.digest()
            or executable.lowering_fingerprint != config.lowering_fingerprint()
        ):
            raise SimulationError(
                f"executable {executable!r} was compiled for different content "
                f"than ({program.name}, {config.name})"
            )
        self.executable = executable
        self._superops: Optional[SuperopProgram] = None

    def _reset(self, entry: Optional[int] = None) -> MachineState:
        state = MachineState(self.config.num_registers)
        for addr, blob in self.program.data:
            state.memory.write_bytes(addr, blob)
        state.tie_state.update(self.config.state_inits)
        state.set(0, EXIT_ADDRESS)  # link register sentinel
        state.set(1, DEFAULT_STACK_TOP)
        state.pc = self.program.entry if entry is None else entry
        return state

    def _resolve(self) -> tuple[str, bool]:
        """``(engine, per_retire)``: the engine, and whether it must fan out
        per-retire callbacks (see :meth:`resolve_engine`)."""
        engine = self.engine
        if engine == "reference":
            return engine, False
        if self.collect_trace or any(
            o.wants_retire or o.wants_events for o in self.observers
        ):
            return "compiled", True
        return ("superop" if engine == "auto" else engine), False

    def resolve_engine(self) -> str:
        """The engine this simulator will actually dispatch through.

        ``auto`` picks the fastest tier that honors the instrumentation;
        a ``superop`` request deoptimizes to ``compiled`` when per-retire
        visibility (a trace, or an observer with ``wants_retire`` /
        ``wants_events``) is required, since fused blocks cannot fan out
        per-instruction callbacks.  Run-scoped observers (tallies that
        only need ``on_run_start``/``on_run_finish``) do not force the
        deopt — both fast engines bracket the run for them.
        """
        return self._resolve()[0]

    def run(self, entry: Optional[int] = None) -> SimulationResult:
        """Simulate from ``entry`` (default: program entry) to completion."""
        engine, per_retire = self._resolve()
        if engine == "reference":
            from .interp import ReferenceSimulator

            result = ReferenceSimulator(
                self.config,
                self.program,
                collect_trace=self.collect_trace,
                max_instructions=self.max_instructions,
                observers=self.observers,
            ).run(entry=entry)
            result.engine = "reference"
            return result
        state = self._reset(entry)
        if per_retire:
            return self._run_instrumented(state)
        # Run-scoped observers only (if any): bracket the uninstrumented
        # loop with the start/finish callbacks the protocol guarantees.
        for observer in self.observers:
            observer.on_run_start(self.config, self.program)
        config = self.config
        executable = self.executable
        if engine == "superop":
            if self._superops is None:
                self._superops = compilation_cache().get_or_compile_superops(
                    config, self.program, executable=executable
                )
            block_at = self._superops.block_at
        else:
            block_at = (None,) * len(executable.ops)
        icache = SetAssociativeCache(config.icache, "icache")
        dcache = SetAssociativeCache(config.dcache, "dcache")
        counts, taken_counts, interlocks, icache_misses, dcache_misses = _dispatch(
            executable,
            block_at,
            state,
            self.max_instructions,
            icache.access,
            dcache.access,
            icache.offset_bits,
            dcache.offset_bits,
        )
        result = SimulationResult(
            program=self.program,
            config=config,
            stats=_aggregate_stats(
                config, executable, counts, taken_counts,
                icache_misses, dcache_misses, interlocks,
            ),
            state=state,
            engine=engine,
        )
        for observer in self.observers:
            observer.on_run_finish(result)
        return result

    # ------------------------------------------------------------------
    # instrumented path: observer chain and/or trace materialization
    # ------------------------------------------------------------------

    def _run_instrumented(self, state: MachineState) -> SimulationResult:
        executable = self.executable
        config = self.config
        chain: list[SimObserver] = []
        trace_observer: Optional[TraceObserver] = None
        if self.collect_trace:
            trace_observer = TraceObserver()
            chain.append(trace_observer)
        chain.extend(self.observers)
        for observer in chain:
            observer.on_run_start(config, self.program)
        # Prefilter per granularity once, so unused callbacks cost nothing
        # in the hot loop.
        retire_observers = [o for o in chain if o.wants_retire]
        event_observers = [o for o in chain if o.wants_events]
        need_result = any(o.needs_result for o in retire_observers)
        event = RetireEvent()  # reused every instruction (observers copy)

        ops = executable.ops
        pc_map = executable.pc_to_index
        counts = [0] * len(ops)
        taken_counts = [0] * len(ops)
        icache = SetAssociativeCache(config.icache, "icache")
        dcache = SetAssociativeCache(config.dcache, "dcache")
        icache_access = icache.access
        dcache_access = dcache.access
        ishift = icache.offset_bits
        dshift = dcache.offset_bits
        icache_penalty = config.icache.miss_penalty
        dcache_penalty = config.dcache.miss_penalty
        timing = config.timing
        uncached_penalty = timing.uncached_fetch_penalty
        interlock_stall = timing.interlock_stall
        icache_misses = 0
        dcache_misses = 0
        interlocks = 0
        ilast = -1
        dlast = -1
        prev_load_dests: tuple[int, ...] = ()
        max_instructions = self.max_instructions
        state_get = state.regs.__getitem__ if executable.regs_in_range else state.get
        executed = 0

        pc = state.pc
        if pc != EXIT_ADDRESS:
            idx = pc_map.get(pc, -1)
            if idx < 0:
                raise SimulationError(
                    describe_invalid_pc(executable.program_name, pc, executable, None)
                )
            while True:
                if executed >= max_instructions:
                    raise SimulationLimitExceeded(
                        f"{executable.program_name}: "
                        f"exceeded {max_instructions} instructions"
                    )
                executed += 1
                op = ops[idx]
                addr = op[10]

                # ---- fetch -----------------------------------------------
                cycles = 0
                icache_miss = False
                uncached = not op[6]
                if uncached:
                    cycles += uncached_penalty
                    for observer in event_observers:
                        observer.on_uncached_fetch(addr)
                else:
                    line = addr >> ishift
                    if line != ilast:
                        ilast = line
                        if not icache_access(addr):
                            icache_miss = True
                            icache_misses += 1
                            cycles += icache_penalty
                            for observer in event_observers:
                                observer.on_icache_miss(addr)

                # ---- decode / hazard detection ---------------------------
                srcs = op[2]
                interlock = False
                if prev_load_dests:
                    for src in srcs:
                        if src in prev_load_dests:
                            interlock = True
                            interlocks += 1
                            cycles += interlock_stall
                            for observer in event_observers:
                                observer.on_interlock(addr)
                            break
                operands = tuple([state_get(src) for src in srcs]) if srcs else ()

                # ---- execute ---------------------------------------------
                state.pc = addr
                counts[idx] += 1
                next_pc = op[0](state, op[1])

                # ---- memory timing ---------------------------------------
                dcache_miss = False
                mem_addr: Optional[int] = None
                if op[5]:
                    mem_addr = (operands[0] + op[4]) & 0xFFFFFFFF
                    line = mem_addr >> dshift
                    if line != dlast:
                        dlast = line
                        if not dcache_access(mem_addr):
                            dcache_miss = True
                            dcache_misses += 1
                            cycles += dcache_penalty
                            for observer in event_observers:
                                observer.on_dcache_miss(mem_addr)

                # ---- retire: fan the event out to the observer chain -----
                if next_pc is None:
                    issue_cycles = op[14]
                    resolved = op[12]
                else:
                    taken_counts[idx] += 1
                    issue_cycles = op[15]
                    resolved = op[13]
                cycles += issue_cycles
                event.addr = addr
                event.mnemonic = op[11]
                event.iclass = resolved
                event.cycles = cycles
                event.issue_cycles = issue_cycles
                event.operands = operands
                if need_result:
                    dest0 = op[16]
                    event.result = state_get(dest0) if dest0 >= 0 else 0
                else:
                    event.result = 0
                event.icache_miss = icache_miss
                event.dcache_miss = dcache_miss
                event.uncached_fetch = uncached
                event.interlock = interlock
                event.mem_addr = mem_addr
                for observer in retire_observers:
                    observer.on_retire(event)

                # ---- hazard bookkeeping / next pc ------------------------
                prev_load_dests = op[8]
                if next_pc is None:
                    if state.halted:
                        state.pc = addr + INSTRUCTION_BYTES
                        break
                    idx = op[9]
                    if idx >= 0:
                        continue
                    pc = addr + INSTRUCTION_BYTES
                else:
                    if state.halted:
                        state.pc = next_pc
                        break
                    if next_pc == EXIT_ADDRESS:
                        state.pc = EXIT_ADDRESS
                        break
                    idx = pc_map.get(next_pc, -1)
                    if idx >= 0:
                        continue
                    pc = next_pc
                state.pc = pc
                raise SimulationError(
                    describe_invalid_pc(executable.program_name, pc, executable, addr)
                )

        stats = _aggregate_stats(
            config, executable, counts, taken_counts,
            icache_misses, dcache_misses, interlocks,
        )
        result = SimulationResult(
            program=self.program,
            config=config,
            stats=stats,
            state=state,
            trace=trace_observer.records if trace_observer is not None else None,
            engine="compiled",
        )
        for observer in chain:
            observer.on_run_finish(result)
        return result


def simulate(
    config: ProcessorConfig,
    program: Program,
    collect_trace: bool = False,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    observers: Sequence[SimObserver] = (),
    executable: Optional[ExecutableProgram] = None,
    engine: str = "auto",
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        config,
        program,
        collect_trace=collect_trace,
        max_instructions=max_instructions,
        observers=observers,
        executable=executable,
        engine=engine,
    ).run()
