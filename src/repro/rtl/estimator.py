"""Reference RTL-level energy estimator (WattWatcher substitute).

This is the paper's *ground truth*: a slow, detailed, structural energy
simulation of the generated processor running one program.  It consumes
the dynamic execution stream and charges every hardware block — base-core
blocks, custom-hardware instances and auto-generated control logic —
per-cycle energies that depend on

* **switching activity**: Hamming distance between consecutive data
  values seen at each block's inputs (the standard CMOS dynamic-power
  proxy),
* **per-instance variation**: a deterministic synthesis/process factor
  per hardware instance,
* **events**: cache misses, uncached fetches and interlocks carry their
  own energy,
* **idle/clock energy**: every instantiated block burns idle energy each
  cycle.

Because the charge is per-instruction and data-dependent while the
macro-model sees only class-level aggregates, the macro-model's fit has
an irreducible error of a few percent — reproducing the paper's Fig. 3 /
Table II error profile rather than a degenerate exact fit.

The production path is a single pass: an observer
(:meth:`RtlEnergyEstimator.observer`, or
:meth:`~RtlEnergyEstimator.estimate_program`) subscribed to the
simulator's retire-event stream computes data-dependent switching
activity *online* while the same run collects the execution statistics
— O(1) trace memory, no trace built.  Characterization takes every
sample this way.  :meth:`~RtlEnergyEstimator.estimate` replays a
``collect_trace=True`` trace through the same accumulator, so the two
agree bit for bit.

The walk is the per-retire hot loop of characterization, so everything
that does not depend on the retired values is resolved once per
estimator: a 33-entry toggle table indexed by the 32-bit Hamming
distance, per-mnemonic charge plans, and constant charges already
multiplied by the operating-point scale (in the walk's own operand
order, so they round exactly as a per-charge product would).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..isa import InstructionClass, hamming_distance
from ..obs.protocol import SimObserver
from ..obs.session import run_session
from ..tech import OperatingPoint, TechCalibration, default_calibration
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig, SimulationResult
from ..asm import Program
from .blocks import (
    BLOCKS_BY_NAME,
    EVENT_ENERGY,
    MULTIPLIER_MNEMONICS,
    SHIFTER_MNEMONICS,
    SPURIOUS_INPUT_STAGE_WEIGHT,
    stable_unit_variation,
)
from .netlist import ProcessorNetlist, generate_netlist

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.events import RetireEvent

#: Floor of the switching-activity factor: even a quiet block precharges
#: lines, clocks registers and drives control nets when accessed, so the
#: data-dependent part of a block's active energy is a minority share
#: (toggle in [0.55, 1.0] — a realistic ±20%-ish data swing).
_TOGGLE_FLOOR = 0.55


def _toggle_factor(previous: int, current: int, width: int = 32) -> float:
    """Activity factor in [_TOGGLE_FLOOR, 1.0] from input toggling."""
    if width <= 0:
        return _TOGGLE_FLOOR
    density = hamming_distance(previous, current, width) / width
    return _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * density


_WORD_MASK = 0xFFFFFFFF

#: Activity factor per 32-bit Hamming distance 0..32, indexed by
#: ``((previous ^ current) & _WORD_MASK).bit_count()`` — each entry is
#: exactly what :func:`_toggle_factor` returns at that distance.
_TOGGLE_TABLE = tuple(_toggle_factor(0, (1 << distance) - 1) for distance in range(33))

#: Execution-unit kinds of a per-mnemonic charge plan.  The two
#: two-operand units come first: their kind indexes their state.
_ALU, _MULTIPLIER, _NO_UNIT, _SHIFTER, _MEMORY, _CONTROL_FLOW, _CUSTOM = range(7)

#: Report groups, in report order, and their accumulator slots.
_GROUPS = ("base_core", "custom_hw", "events", "control", "idle")
_BASE_CORE, _CUSTOM_HW, _EVENTS, _CONTROL, _IDLE = range(len(_GROUPS))

#: Accumulator slots of the base-core blocks (their report order).
_BLOCK_SLOT = {name: slot for slot, name in enumerate(BLOCKS_BY_NAME)}
_FETCH = _BLOCK_SLOT["fetch_unit"]
_DECODER = _BLOCK_SLOT["instruction_decoder"]
_REGISTER_FILE = _BLOCK_SLOT["register_file"]
_ALU_BLOCK = _BLOCK_SLOT["alu"]
_SHIFTER_BLOCK = _BLOCK_SLOT["base_shifter"]
_LOAD_STORE = _BLOCK_SLOT["load_store_unit"]
_ICACHE = _BLOCK_SLOT["icache"]
_DCACHE = _BLOCK_SLOT["dcache"]
_BUS = _BLOCK_SLOT["bus_interface"]
_PIPELINE = _BLOCK_SLOT["pipeline_control"]
_CLOCK = _BLOCK_SLOT["clock_tree"]
#: Block slot of each two-operand unit, indexed by unit kind.
_TWO_OPERAND_SLOTS = (_BLOCK_SLOT["alu"], _BLOCK_SLOT["base_multiplier"])

#: Classes whose instructions always drive a register-file write port.
_WRITING_CLASSES = (InstructionClass.ARITH, InstructionClass.LOAD, InstructionClass.CUSTOM)


@dataclasses.dataclass
class EnergyReport:
    """Output of one reference estimation run."""

    program_name: str
    processor_name: str
    total: float
    by_block: dict[str, float]
    by_group: dict[str, float]
    cycles: int
    instructions: int

    @property
    def per_cycle(self) -> float:
        return self.total / self.cycles if self.cycles else 0.0

    def summary(self) -> str:
        lines = [
            f"RTL energy estimate: {self.program_name} on {self.processor_name}",
            f"  total {self.total:.1f} units over {self.cycles} cycles "
            f"({self.per_cycle:.1f}/cycle, {self.instructions} instructions)",
        ]
        for group, value in sorted(self.by_group.items(), key=lambda kv: -kv[1]):
            share = 100.0 * value / self.total if self.total else 0.0
            lines.append(f"  {group:<12} {value:12.1f}  ({share:4.1f}%)")
        return "\n".join(lines)


class _ActivityAccumulator:
    """Online switching-activity integration over one execution stream.

    Accepts :class:`~repro.obs.records.TraceRecord` and
    :class:`~repro.obs.events.RetireEvent` interchangeably (identical
    field layout) and never retains a reference past the
    :meth:`feed` call, so streaming consumption is O(1) in trace length.

    Every charge is ``amount * energy_scale``, added to its block and to
    its group in retire order; constant amounts are pre-multiplied once
    by the estimator with the same operand order, so a report is
    bit-for-bit the sum a per-charge walk would produce.  Blocks and
    groups are list slots (block slots are fixed by the estimator) and
    become the report's dicts in :meth:`finish`.
    """

    def __init__(self, estimator: "RtlEnergyEstimator") -> None:
        self._est = estimator
        self.by_block = [0.0] * len(estimator._block_names)
        self.groups = [0.0] * len(_GROUPS)
        # Activity history (per consumer context).
        self._prev_pc = 0
        self._prev_two_operand = [(0, 0), (0, 0)]  # ALU, multiplier
        self._prev_shift = 0
        self._prev_mem = 0
        self._prev_bus = (0, 0)
        self._prev_custom: dict[str, tuple[int, ...]] = {}

    def feed(self, record: "RetireEvent | object") -> None:
        """Charge every block touched by one retired instruction."""
        est = self._est
        by_block = self.by_block
        groups = self.groups
        toggle = est._toggle_table
        scale = est.energy_scale
        mnemonic = record.mnemonic
        iclass = record.iclass
        plan = est._plans.get(mnemonic)
        if plan is None:
            plan = est._plan_for(mnemonic, iclass)
        unit, decode_charge, decode_energy, always_port, latency = plan
        operands = record.operands
        addr = record.addr
        base = groups[_BASE_CORE]

        # ---- fetch + decode (every instruction) ----------------------
        fetch_toggle = toggle[((self._prev_pc ^ addr) & _WORD_MASK).bit_count()]
        self._prev_pc = addr
        charge = est._fetch_energy * fetch_toggle * scale
        by_block[_FETCH] += charge
        base += charge
        by_block[_DECODER] += decode_charge
        base += decode_charge
        if not record.uncached_fetch:
            charge = est._icache_energy * fetch_toggle * scale
            by_block[_ICACHE] += charge
            base += charge
        if est._tie_decode_charge is not None:
            # The generated TIE decoder examines every fetched opcode.
            by_block[est._tie_control] += est._tie_decode_charge
            groups[_CONTROL] += est._tie_decode_charge

        # ---- register file -------------------------------------------
        port_uses = len(operands) + (1 if record.result or always_port else 0)
        if port_uses:
            # Decode, word-line precharge etc. dominate; the marginal
            # cost of extra ports is sub-linear.
            charge = est._port_charge[port_uses if port_uses < 3 else 3]
            by_block[_REGISTER_FILE] += charge
            base += charge

        # ---- execution units ------------------------------------------
        if unit <= _MULTIPLIER:
            a = operands[0] if operands else 0
            b = operands[1] if len(operands) > 1 else record.result
            prev_a, prev_b = self._prev_two_operand[unit]
            self._prev_two_operand[unit] = (a, b)
            activity = (
                toggle[((prev_a ^ a) & _WORD_MASK).bit_count()]
                + toggle[((prev_b ^ b) & _WORD_MASK).bit_count()]
            ) / 2.0
            # Iterative units (multiply, divide/remainder) stay busy for
            # every issue cycle.
            charge = est._two_operand_energy[unit] * activity * latency * scale
            by_block[_TWO_OPERAND_SLOTS[unit]] += charge
            base += charge
        elif unit == _SHIFTER:
            a = operands[0] if operands else 0
            activity = toggle[((self._prev_shift ^ a) & _WORD_MASK).bit_count()]
            self._prev_shift = a
            charge = est._shifter_energy * activity * scale
            by_block[_SHIFTER_BLOCK] += charge
            base += charge
        elif unit == _MEMORY:
            mem_addr = record.mem_addr or 0
            activity = toggle[((self._prev_mem ^ mem_addr) & _WORD_MASK).bit_count()]
            self._prev_mem = mem_addr
            charge = est._lsu_energy * activity * scale
            by_block[_LOAD_STORE] += charge
            base += charge
            charge = est._dcache_energy * activity * scale
            by_block[_DCACHE] += charge
            base += charge
        elif unit == _CONTROL_FLOW:
            # Compare/target logic rides on the ALU; taken control flow
            # additionally re-steers the fetch unit.
            by_block[_ALU_BLOCK] += est._compare_charge
            base += est._compare_charge
            if iclass is not InstructionClass.BRANCH_UNTAKEN:
                by_block[_FETCH] += est._resteer_charge
                base += est._resteer_charge

        if unit == _CUSTOM:
            base = self._feed_custom(record, decode_energy, port_uses, base)
        elif operands and est._taps:
            # ---- spurious operand-bus activation ------------------------
            a = operands[0]
            b = operands[1] if len(operands) > 1 else 0
            prev_a, prev_b = self._prev_bus
            self._prev_bus = (a, b)
            bus_toggle = (
                toggle[((prev_a ^ a) & _WORD_MASK).bit_count()]
                + toggle[((prev_b ^ b) & _WORD_MASK).bit_count()]
            ) / 2.0
            custom_hw = groups[_CUSTOM_HW]
            for slot, weighted in est._taps:
                charge = weighted * bus_toggle * scale
                by_block[slot] += charge
                custom_hw += charge
            groups[_CUSTOM_HW] = custom_hw

        # ---- events ------------------------------------------------------
        if record.icache_miss:
            by_block[_BUS] += est._icache_miss_charge
            groups[_EVENTS] += est._icache_miss_charge
        if record.dcache_miss:
            by_block[_BUS] += est._dcache_miss_charge
            groups[_EVENTS] += est._dcache_miss_charge
        if record.uncached_fetch:
            by_block[_BUS] += est._uncached_fetch_charge
            groups[_EVENTS] += est._uncached_fetch_charge
        if record.interlock:
            by_block[_PIPELINE] += est._interlock_charge
            groups[_EVENTS] += est._interlock_charge

        # ---- per-cycle clock / pipeline / idle ----------------------------
        cycles = record.cycles
        pipeline = est._pipeline_energy * cycles * scale
        clock = est._clock_energy * cycles * scale
        idle = est._idle_per_cycle * cycles * scale
        by_block[_PIPELINE] += pipeline
        groups[_BASE_CORE] = base + pipeline + clock
        by_block[_CLOCK] += clock
        by_block[_CLOCK] += idle
        groups[_IDLE] += idle

    def _feed_custom(
        self,
        record: "RetireEvent | object",
        decode_energy: float,
        port_uses: int,
        base: float,
    ) -> float:
        """Charge one custom instruction; returns the updated base-core sum."""
        est = self._est
        by_block = self.by_block
        groups = self.groups
        scale = est.energy_scale
        mnemonic = record.mnemonic
        operands = record.operands
        impl = est.config.extension_index[mnemonic]
        previous = self._prev_custom.get(mnemonic)
        toggle = _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * 0.5
        if est.data_dependent and previous is not None and operands:
            widths = est._custom_widths.get(mnemonic, ())
            densities = [
                hamming_distance(p, c, width) / width
                for p, c, width in zip(previous, operands, widths or (32,) * len(operands))
            ]
            mean_density = sum(densities) / len(densities)
            toggle = _TOGGLE_FLOOR + (1.0 - _TOGGLE_FLOOR) * mean_density
        self._prev_custom[mnemonic] = operands
        custom_hw = groups[_CUSTOM_HW]
        for slot, energy, active in est._custom_units[mnemonic]:
            charge = energy * toggle * active * scale
            by_block[slot] += charge
            custom_hw += charge
        groups[_CUSTOM_HW] = custom_hw
        # A multi-cycle custom instruction stalls issue but keeps the
        # decode latches, register-file ports and bypass logic engaged
        # every cycle it occupies the pipeline.
        extra_cycles = impl.latency - 1
        if extra_cycles:
            charge = decode_energy * extra_cycles * scale
            by_block[_DECODER] += charge
            base += charge
            if port_uses:
                energy = est._port_energy[port_uses if port_uses < 3 else 3]
                charge = energy * extra_cycles * scale
                by_block[_REGISTER_FILE] += charge
                base += charge
        if impl.accesses_gpr:
            charge = est.netlist.control.bypass_energy * impl.latency * scale
            by_block[est._tie_control] += charge
            groups[_CONTROL] += charge
        return base

    def finish(self, program_name: str, cycles: int, instructions: int) -> EnergyReport:
        """Package the accumulated charges into an :class:`EnergyReport`."""
        by_group = dict(zip(_GROUPS, self.groups))
        return EnergyReport(
            program_name=program_name,
            processor_name=self._est.config.name,
            total=sum(by_group.values()),
            by_block=dict(zip(self._est._block_names, self.by_block)),
            by_group=by_group,
            cycles=cycles,
            instructions=instructions,
        )


class RtlEnergyObserver(SimObserver):
    """Streams retire events into a switching-activity accumulator.

    Register one on a :func:`repro.obs.run_session` run (no trace
    collection needed) and read :attr:`report` after the run — the
    streaming reference path: one pass, peak trace memory independent of
    instruction count.
    """

    wants_retire = True
    #: operand-result values feed the register-file port model
    needs_result = True

    def __init__(self, estimator: "RtlEnergyEstimator") -> None:
        self._estimator = estimator
        self._accumulator: Optional[_ActivityAccumulator] = None
        self._report: Optional[EnergyReport] = None

    def on_run_start(self, config: ProcessorConfig, program: Program) -> None:
        self._estimator._check_config(config, source="run")
        self._accumulator = _ActivityAccumulator(self._estimator)
        self._report = None

    def on_retire(self, event: "RetireEvent") -> None:
        self._accumulator.feed(event)

    def on_run_finish(self, result: SimulationResult) -> None:
        self._report = self._accumulator.finish(
            result.program.name,
            result.stats.total_cycles,
            result.stats.total_instructions,
        )

    @property
    def report(self) -> EnergyReport:
        if self._report is None:
            raise ValueError(
                "no energy report yet; the observer must complete a "
                "run_session() run before its report is read"
            )
        return self._report


class RtlEnergyEstimator:
    """Structural (slow, accurate) energy estimator over a netlist.

    ``data_dependent=False`` freezes every switching-activity factor at
    its distribution mean — an ablation mode that removes the information
    the macro-model cannot see.  With it the macro-model fit collapses to
    ~0% error, demonstrating that the estimation error measured in the
    main experiments comes from the class-level abstraction, not from the
    regression machinery.

    ``operating_point`` rescales every charged energy by the calibration
    table's first-order CMOS factor relative to the reference point —
    the same factor :meth:`EnergyMacroModel.at` applies to fitted
    coefficients, so macro-vs-reference comparisons stay apples-to-apples
    at any point.  ``None`` means the calibration reference (scale 1.0).
    """

    def __init__(
        self,
        netlist: ProcessorNetlist,
        data_dependent: bool = True,
        operating_point: "OperatingPoint | str | None" = None,
        calibration: Optional[TechCalibration] = None,
    ) -> None:
        self.netlist = netlist
        self.config = netlist.config
        self.data_dependent = data_dependent
        if operating_point is not None:
            cal = calibration or default_calibration()
            self.operating_point: Optional[OperatingPoint] = cal.validate(
                operating_point
            )
            self.energy_scale = cal.energy_scale(self.operating_point)
        else:
            self.operating_point = None
            self.energy_scale = 1.0
        self._blocks = BLOCKS_BY_NAME
        # Pre-resolve per-instance nominal energies (variation applied).
        self._instance_energy: dict[str, float] = {}
        self._instance_idle: dict[str, float] = {}
        for instance in netlist.custom_instances:
            variation = (
                netlist.instance_variation(instance.name) if data_dependent else 1.0
            )
            self._instance_energy[instance.name] = instance.unit_energy * variation
            self._instance_idle[instance.name] = (
                instance.unit_energy * instance.info.idle_fraction * variation
            )
        #: report order of the blocks; a block's position is its
        #: accumulator slot (base blocks first, as ``_BLOCK_SLOT`` fixes)
        slots = dict(_BLOCK_SLOT)
        for name in [instance.name for instance in netlist.custom_instances] + ["tie_control"]:
            slots.setdefault(name, len(slots))
        self._block_names = tuple(slots)
        self._tie_control = slots["tie_control"]
        # Bus-tapped instances of every extension, with their input-stage
        # nominal energy (precomputed).
        self._taps: list[tuple[int, float]] = []
        for impl in self.config.extensions:
            for name in impl.bus_tapped:
                self._taps.append(
                    (slots[name], self._instance_energy[name] * SPURIOUS_INPUT_STAGE_WEIGHT)
                )
        #: active custom units per custom mnemonic: (slot, nominal energy,
        #: active cycles), in instance order
        self._custom_units: dict[str, list[tuple[int, float, int]]] = {}
        for impl in self.config.extensions:
            units = []
            for instance in impl.instances:
                active = len(impl.active_cycles[instance.name])
                if active:
                    units.append(
                        (slots[instance.name], self._instance_energy[instance.name], active)
                    )
            self._custom_units[impl.mnemonic] = units
        base_idle_per_cycle = sum(b.idle_energy for b in netlist.base_blocks)
        self._idle_per_cycle = base_idle_per_cycle + sum(self._instance_idle.values())
        #: issue-cycle latency per mnemonic (multi-cycle units stay active
        #: for every issue cycle)
        self._latency = {d.mnemonic: d.latency for d in self.config.isa}
        #: declared GPR-source widths per custom mnemonic, in operand order
        #: (toggle densities are relative to the datapath width actually
        #: wired to the operand, not the full 32-bit bus)
        self._custom_widths: dict[str, tuple[int, ...]] = {}
        for impl in self.config.extensions:
            widths = {
                node.payload: node.width
                for node in impl.spec.nodes
                if node.kind == "gpr_in"
            }
            ordered = tuple(widths[field] for field in ("rs", "rt") if field in widths)
            self._custom_widths[impl.mnemonic] = ordered

        # What the activity walk reads on every retire, resolved once.
        # Constant charges are pre-multiplied by the energy scale in the
        # walk's own operand order, so they round exactly as it would.
        scale = self.energy_scale
        blocks = self._blocks
        if data_dependent:
            self._toggle_table = _TOGGLE_TABLE
        else:
            self._toggle_table = ((_TOGGLE_FLOOR + 1.0) / 2.0,) * len(_TOGGLE_TABLE)
        #: active energies of the base blocks charged per retire
        self._fetch_energy = blocks["fetch_unit"].active_energy
        self._icache_energy = blocks["icache"].active_energy
        self._shifter_energy = blocks["base_shifter"].active_energy
        self._lsu_energy = blocks["load_store_unit"].active_energy
        self._dcache_energy = blocks["dcache"].active_energy
        self._pipeline_energy = blocks["pipeline_control"].active_energy
        self._clock_energy = blocks["clock_tree"].active_energy
        #: active energy of each two-operand unit, indexed by unit kind
        self._two_operand_energy = (
            blocks["alu"].active_energy,
            blocks["base_multiplier"].active_energy,
        )
        #: register-file energy by port uses (index 1..3; more ports cost
        #: the same as three)
        self._port_energy = tuple(
            blocks["register_file"].active_energy * (0.55 + 0.15 * ports)
            for ports in range(4)
        )
        self._port_charge = tuple(energy * scale for energy in self._port_energy)
        self._compare_charge = blocks["alu"].active_energy * 0.6 * scale
        self._resteer_charge = blocks["fetch_unit"].active_energy * 0.8 * scale
        self._icache_miss_charge = EVENT_ENERGY["icache_miss"] * scale
        self._dcache_miss_charge = EVENT_ENERGY["dcache_miss"] * scale
        self._uncached_fetch_charge = EVENT_ENERGY["uncached_fetch"] * scale
        self._interlock_charge = EVENT_ENERGY["interlock"] * scale
        self._tie_decode_charge: Optional[float] = (
            netlist.control.decode_energy * scale if self.config.extensions else None
        )
        #: per-mnemonic charge plans, built on first retire
        self._plans: dict[str, tuple] = {}

    def _plan_for(self, mnemonic: str, iclass: InstructionClass) -> tuple:
        """The retire-independent part of charging one mnemonic:
        ``(unit, decode charge, decode energy, always writes, latency)``.

        The decode variation is the within-class energy spread the
        macro-model cannot observe.
        """
        if self.data_dependent:
            decode_var = stable_unit_variation("decode/" + mnemonic, spread=0.06)
        else:
            decode_var = 1.0
        decode_energy = self._blocks["instruction_decoder"].active_energy * decode_var
        if iclass is InstructionClass.ARITH:
            if mnemonic in MULTIPLIER_MNEMONICS:
                unit = _MULTIPLIER
            elif mnemonic in SHIFTER_MNEMONICS:
                unit = _SHIFTER
            else:
                unit = _ALU
        elif iclass in (InstructionClass.LOAD, InstructionClass.STORE):
            unit = _MEMORY
        elif iclass in (
            InstructionClass.JUMP,
            InstructionClass.BRANCH_TAKEN,
            InstructionClass.BRANCH_UNTAKEN,
        ):
            unit = _CONTROL_FLOW
        elif iclass is InstructionClass.CUSTOM:
            unit = _CUSTOM
        else:
            unit = _NO_UNIT
        plan = (
            unit,
            decode_energy * self.energy_scale,
            decode_energy,
            iclass in _WRITING_CLASSES,
            self._latency.get(mnemonic, 1),
        )
        self._plans[mnemonic] = plan
        return plan

    # -- public API -----------------------------------------------------------

    def _check_config(self, other: ProcessorConfig, source: str) -> None:
        """Reject execution streams produced on a content-different config.

        Names can collide across content-different configs, so the error
        reports content fingerprints of both sides.
        """
        if other is self.config or other.fingerprint() == self.config.fingerprint():
            return
        noun = "trace" if source == "trace" else "simulation run"
        raise ValueError(
            f"{noun} was produced on {other.name!r} "
            f"(fingerprint {other.fingerprint()[:12]}), but this estimator "
            f"models {self.config.name!r} "
            f"(fingerprint {self.config.fingerprint()[:12]})"
        )

    def observer(self) -> RtlEnergyObserver:
        """A fresh streaming observer bound to this estimator's netlist."""
        return RtlEnergyObserver(self)

    def estimate(self, result: SimulationResult) -> EnergyReport:
        """Estimate the energy of a simulated run (requires a full trace).

        Replays a materialized trace through the activity accumulator;
        the streaming observer computes the identical report in the
        simulation pass itself, without one.
        """
        if result.trace is None:
            raise ValueError(
                "RTL estimation needs a full execution trace; simulate with "
                "collect_trace=True, or use the streaming observer() / "
                "estimate_program() path which needs no trace at all"
            )
        self._check_config(result.config, source="trace")
        accumulator = _ActivityAccumulator(self)
        for record in result.trace:
            accumulator.feed(record)
        return accumulator.finish(
            result.program.name,
            result.stats.total_cycles,
            result.stats.total_instructions,
        )

    def estimate_program(
        self, program: Program, max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    ) -> tuple[EnergyReport, SimulationResult]:
        """Full reference path: simulation with *online* energy accumulation.

        Streams the run through :class:`RtlEnergyObserver` — no trace is
        materialized, so peak memory is independent of instruction count.
        The returned :class:`SimulationResult` therefore has
        ``trace=None``; call :meth:`estimate` on a ``collect_trace=True``
        run if the trace itself is needed.
        """
        observer = self.observer()
        result = run_session(
            self.config,
            program,
            observers=(observer,),
            max_instructions=max_instructions,
        )
        return observer.report, result


def reference_energy(
    config: ProcessorConfig,
    program: Program,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    operating_point: "OperatingPoint | str | None" = None,
) -> tuple[EnergyReport, SimulationResult]:
    """One-shot: generate the netlist and run the reference estimator."""
    estimator = RtlEnergyEstimator(
        generate_netlist(config), operating_point=operating_point
    )
    return estimator.estimate_program(program, max_instructions=max_instructions)
