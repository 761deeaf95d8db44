"""Side-by-side estimation paths + accuracy/speedup instrumentation.

The paper's evaluation (Table II, Fig. 4, and the speedup claim) always
compares two paths on the same application:

* the **macro-model path** — ISS without tracing, variable extraction,
  one dot product (seconds in the paper);
* the **reference path** — processor generation + one simulation pass
  with the RTL-level energy estimator's observer attached (hours in the
  paper).

:class:`EstimationStudy` runs both, timing each, and accumulates the
per-application comparison rows that the Table II benchmark prints.
"""

from __future__ import annotations

import dataclasses
import time

from ..asm import Program
from ..rtl import RtlEnergyEstimator, generate_netlist
from ..xtcore import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig
from .model import EnergyMacroModel, MacroEstimate


@dataclasses.dataclass
class ComparisonRow:
    """One application's macro-model vs reference comparison."""

    application: str
    processor: str
    macro_energy: float
    reference_energy: float
    macro_seconds: float
    reference_seconds: float
    cycles: int

    @property
    def percent_error(self) -> float:
        """Signed error of the macro estimate w.r.t. the reference."""
        if self.reference_energy == 0:
            return 0.0
        return 100.0 * (self.macro_energy - self.reference_energy) / self.reference_energy

    @property
    def speedup(self) -> float:
        if self.macro_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.macro_seconds


@dataclasses.dataclass
class StudyReport:
    """Aggregated Table-II-style accuracy results."""

    rows: list[ComparisonRow]

    @property
    def mean_abs_percent_error(self) -> float:
        if not self.rows:
            return 0.0
        return sum(abs(r.percent_error) for r in self.rows) / len(self.rows)

    @property
    def max_abs_percent_error(self) -> float:
        if not self.rows:
            return 0.0
        return max(abs(r.percent_error) for r in self.rows)

    @property
    def mean_speedup(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.speedup for r in self.rows) / len(self.rows)

    def table(self) -> str:
        """Format like the paper's Table II (+ timing columns)."""
        lines = [
            f"{'application':<20}{'estimate':>12}{'reference':>12}{'err %':>8}"
            f"{'t_macro s':>11}{'t_ref s':>10}{'speedup':>9}"
        ]
        lines.append("-" * 82)
        for row in self.rows:
            lines.append(
                f"{row.application:<20}{row.macro_energy:>12.1f}{row.reference_energy:>12.1f}"
                f"{row.percent_error:>+8.2f}{row.macro_seconds:>11.4f}"
                f"{row.reference_seconds:>10.3f}{row.speedup:>8.1f}x"
            )
        lines.append("-" * 82)
        lines.append(
            f"mean |err| {self.mean_abs_percent_error:.2f}%   "
            f"max |err| {self.max_abs_percent_error:.2f}%   "
            f"mean speedup {self.mean_speedup:.1f}x"
        )
        return "\n".join(lines)


class EstimationStudy:
    """Runs macro-model and reference estimation side by side."""

    def __init__(self, model: EnergyMacroModel) -> None:
        self.model = model
        self.rows: list[ComparisonRow] = []

    def compare(
        self,
        config: ProcessorConfig,
        program: Program,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> ComparisonRow:
        """Estimate one application both ways and record the comparison."""
        start = time.perf_counter()
        macro: MacroEstimate = self.model.estimate(
            config, program, max_instructions=max_instructions
        )
        macro_seconds = time.perf_counter() - start

        start = time.perf_counter()
        estimator = RtlEnergyEstimator(generate_netlist(config))
        report, _ = estimator.estimate_program(program, max_instructions=max_instructions)
        reference_seconds = time.perf_counter() - start

        row = ComparisonRow(
            application=program.name,
            processor=config.name,
            macro_energy=macro.energy,
            reference_energy=report.total,
            macro_seconds=macro_seconds,
            reference_seconds=reference_seconds,
            cycles=macro.cycles,
        )
        self.rows.append(row)
        return row

    def report(self) -> StudyReport:
        return StudyReport(rows=list(self.rows))
