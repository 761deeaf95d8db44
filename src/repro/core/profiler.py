"""Region-level energy profiling on top of the macro-model.

A practical extension beyond the paper: because the macro-model is linear
in per-cycle/per-event counts, a program's estimated energy decomposes
*exactly* over any partition of its dynamic execution.  The profiler
splits a traced run by code region (by default: one region per text-label
in the program, i.e. per "function") and rebuilds each region's
macro-model variable vector from its trace records — answering "where
does the energy go?" with the same model that answers "how much".

The per-region energies sum to the whole-program macro-model estimate to
within floating-point error; a property test enforces this.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Sequence

from ..asm import Program
from ..isa import InstructionClass
from ..isa.classes import BASE_ENERGY_CLASSES
from ..obs.bundled import apply_event, gpr_accessing_mnemonics
from ..obs.protocol import SimObserver
from ..obs.records import ExecutionStats, TraceRecord
from ..obs.session import run_session
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .model import EnergyMacroModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.events import RetireEvent


@dataclasses.dataclass(frozen=True)
class CodeRegion:
    """A named, half-open instruction-address interval ``[start, end)``."""

    name: str
    start: int
    end: int

    def __contains__(self, addr: int) -> bool:
        return self.start <= addr < self.end


def regions_from_symbols(program: Program) -> list[CodeRegion]:
    """Derive code regions from the program's text-section labels.

    Every label that names an instruction address starts a region running
    to the next such label (or the end of the text range).  Labels inside
    loops create fine-grained regions; callers wanting coarser regions can
    pass their own list to :meth:`EnergyProfiler.profile`.
    """
    text_addresses = set(program.instructions)
    label_addrs = sorted(
        (addr, name)
        for name, addr in program.symbols.items()
        if addr in text_addresses
    )
    if not label_addrs:
        ranges = program.text_ranges()
        return [CodeRegion("<text>", ranges[0].start, ranges[-1].end)]

    end_of_text = max(text_addresses) + 4
    regions: list[CodeRegion] = []
    first_start = label_addrs[0][0]
    if min(text_addresses) < first_start:
        regions.append(CodeRegion("<prologue>", min(text_addresses), first_start))
    for i, (addr, name) in enumerate(label_addrs):
        next_start = label_addrs[i + 1][0] if i + 1 < len(label_addrs) else end_of_text
        regions.append(CodeRegion(name, addr, next_start))
    return regions


@dataclasses.dataclass
class RegionProfile:
    """One region's share of the program's estimated energy."""

    region: CodeRegion
    energy: float
    cycles: int
    instructions: int
    stats: ExecutionStats

    @property
    def name(self) -> str:
        return self.region.name


@dataclasses.dataclass
class ProfileReport:
    """Per-region energy decomposition of one run."""

    program_name: str
    processor_name: str
    regions: list[RegionProfile]
    total_energy: float

    def sorted_by_energy(self) -> list[RegionProfile]:
        return sorted(self.regions, key=lambda r: -r.energy)

    def table(self, top: Optional[int] = None) -> str:
        rows = self.sorted_by_energy()
        if top is not None:
            rows = rows[:top]
        lines = [
            f"energy profile: {self.program_name} on {self.processor_name}",
            f"{'region':<22}{'energy':>14}{'share':>8}{'cycles':>9}{'instrs':>8}",
            "-" * 62,
        ]
        for row in rows:
            share = 100.0 * row.energy / self.total_energy if self.total_energy else 0.0
            lines.append(
                f"{row.name:<22}{row.energy:>14.1f}{share:>7.1f}%"
                f"{row.cycles:>9}{row.instructions:>8}"
            )
        lines.append("-" * 62)
        lines.append(f"{'total':<22}{self.total_energy:>14.1f}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-ready payload (mirrors the observer reports' shape)."""
        return {
            "program": self.program_name,
            "processor": self.processor_name,
            "total_energy": self.total_energy,
            "regions": [
                {
                    "name": row.name,
                    "start": row.region.start,
                    "end": row.region.end,
                    "energy": row.energy,
                    "cycles": row.cycles,
                    "instructions": row.instructions,
                }
                for row in self.sorted_by_energy()
            ],
        }


def _record_issue_cycles(record: TraceRecord, config: ProcessorConfig) -> int:
    """Strip penalty cycles off a trace record, leaving issue cycles."""
    penalties = 0
    if record.icache_miss:
        penalties += config.icache.miss_penalty
    if record.dcache_miss:
        penalties += config.dcache.miss_penalty
    if record.uncached_fetch:
        penalties += config.timing.uncached_fetch_penalty
    if record.interlock:
        penalties += config.timing.interlock_stall
    return record.cycles - penalties


def stats_from_records(
    records: Sequence[TraceRecord], config: ProcessorConfig
) -> ExecutionStats:
    """Rebuild :class:`ExecutionStats` from a subset of trace records.

    This is the inverse of trace collection for a *partition* of a run:
    summing the stats of a partition's parts reproduces the whole run's
    stats (tested property), which is what makes exact energy attribution
    possible.
    """
    stats = ExecutionStats()
    extensions = config.extension_index
    for record in records:
        issue = _record_issue_cycles(record, config)
        iclass = record.iclass
        if iclass in BASE_ENERGY_CLASSES:
            stats.class_cycles[iclass] += issue
            stats.class_counts[iclass] += 1
        elif iclass is InstructionClass.CUSTOM:
            stats.custom_cycles[record.mnemonic] = (
                stats.custom_cycles.get(record.mnemonic, 0) + issue
            )
            stats.custom_counts[record.mnemonic] = (
                stats.custom_counts.get(record.mnemonic, 0) + 1
            )
            impl = extensions.get(record.mnemonic)
            if impl is not None and impl.accesses_gpr:
                stats.custom_gpr_cycles += issue
        else:  # SYSTEM
            stats.system_cycles += issue
        if record.icache_miss:
            stats.icache_misses += 1
        if record.dcache_miss:
            stats.dcache_misses += 1
        if record.uncached_fetch:
            stats.uncached_fetches += 1
        if record.interlock:
            stats.interlocks += 1
        if iclass is not InstructionClass.CUSTOM and record.operands:
            stats.base_bus_cycles += issue
        stats.total_cycles += record.cycles
        stats.total_instructions += 1
        stats.mnemonic_counts[record.mnemonic] = (
            stats.mnemonic_counts.get(record.mnemonic, 0) + 1
        )
    return stats


class RegionStatsObserver(SimObserver):
    """Streams retire events into per-region :class:`ExecutionStats`.

    Replaces the trace-bucketing profiler pass: each retired instruction
    is folded into the stats of the first region (in ascending-start
    order) containing its address, with a per-address memo so the region
    scan runs once per static instruction rather than once per dynamic
    one.  Addresses outside every region accumulate into a synthetic
    ``<unmapped>`` region spanning the stray addresses seen.
    """

    wants_retire = True

    def __init__(self, regions: Sequence[CodeRegion]) -> None:
        self.regions = sorted(regions, key=lambda region: region.start)
        self._stats: dict[str, ExecutionStats] = {}
        self._by_addr: dict[int, ExecutionStats] = {}
        self._region_of: dict[int, Optional[CodeRegion]] = {}
        self._overflow: Optional[ExecutionStats] = None
        self._overflow_min = 0
        self._overflow_max = 0
        self._gpr_mnemonics: frozenset[str] = frozenset()

    def on_run_start(self, config: ProcessorConfig, program: Program) -> None:
        self._gpr_mnemonics = gpr_accessing_mnemonics(config)

    def on_retire(self, event: "RetireEvent") -> None:
        addr = event.addr
        stats = self._by_addr.get(addr)
        if stats is None:
            target = None
            for region in self.regions:
                if addr in region:
                    target = region
                    break
            self._region_of[addr] = target
            if target is None:
                if self._overflow is None:
                    self._overflow = ExecutionStats()
                    self._overflow_min = self._overflow_max = addr
                stats = self._overflow
            else:
                stats = self._stats.setdefault(target.name, ExecutionStats())
            self._by_addr[addr] = stats
        if stats is self._overflow:
            self._overflow_min = min(self._overflow_min, addr)
            self._overflow_max = max(self._overflow_max, addr)
        apply_event(stats, event, self._gpr_mnemonics)

    def buckets(self) -> list[tuple[CodeRegion, ExecutionStats]]:
        """(region, stats) pairs in region order, unmapped last; empty
        regions are omitted."""
        pairs = [
            (region, self._stats[region.name])
            for region in self.regions
            if region.name in self._stats
        ]
        if self._overflow is not None:
            pairs.append(
                (
                    CodeRegion(
                        "<unmapped>", self._overflow_min, self._overflow_max + 4
                    ),
                    self._overflow,
                )
            )
        return pairs


class EnergyProfiler:
    """Attributes a program's macro-model energy to its code regions."""

    def __init__(self, model: EnergyMacroModel) -> None:
        self.model = model

    def observer(
        self,
        program: Program,
        regions: Optional[Sequence[CodeRegion]] = None,
    ) -> RegionStatsObserver:
        """A fresh region observer for ``program`` (label-derived regions
        by default) — register it on a session, then pass it to
        :meth:`report_from`.  Lets callers compose the region profile with
        other observers in a single simulation run."""
        if regions is None:
            regions = regions_from_symbols(program)
        return RegionStatsObserver(regions)

    def report_from(
        self,
        observer: RegionStatsObserver,
        config: ProcessorConfig,
        program: Program,
    ) -> ProfileReport:
        """Decompose a completed region observer into a :class:`ProfileReport`."""
        profiles: list[RegionProfile] = []
        total = 0.0
        for region, stats in observer.buckets():
            energy = self.model.estimate_from_stats(stats, config)
            total += energy
            profiles.append(
                RegionProfile(
                    region=region,
                    energy=energy,
                    cycles=stats.total_cycles,
                    instructions=stats.total_instructions,
                    stats=stats,
                )
            )

        return ProfileReport(
            program_name=program.name,
            processor_name=config.name,
            regions=profiles,
            total_energy=total,
        )

    def profile(
        self,
        config: ProcessorConfig,
        program: Program,
        regions: Optional[Sequence[CodeRegion]] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> ProfileReport:
        """Run once, decomposing the estimated energy by region online.

        Region statistics accumulate in a streaming observer, so no trace
        is materialized and peak memory is independent of run length.
        """
        observer = self.observer(program, regions)
        run_session(
            config,
            program,
            observers=(observer,),
            max_instructions=max_instructions,
        )
        return self.report_from(observer, config, program)
