"""``characterize``: the ``repro characterize`` path over the full suite.

One operation is one characterization plus fit: every suite program runs
through ``CharacterizationRunner`` (traced simulation, RTL reference,
``extract_variables``) and the NNLS fit, starting from a cleared
process-wide compilation cache as a CLI call does.  The fitted model is
then checked on the ten held-out Table II applications.
"""

from __future__ import annotations

import random
from typing import Optional

from .harness import Outcome
from .reference import load_reference

#: characterization + fit latency limit for ``slo_met_pct``
SLO_MS = 10_000.0
#: the fitted coefficients must match the stored ones this closely
COEFFICIENT_RTOL = 1e-9
#: Table II errors are deterministic; this absorbs float summation order
TABLE2_ABS_TOL = 1e-6


class CharacterizeWorkload:
    slo_ms = SLO_MS

    def setup(self, seed: int) -> None:
        from repro.programs import characterization_suite

        suite = characterization_suite(include_variants=True)
        # the seed orders the suite; the fit must not depend on it
        random.Random(seed).shuffle(suite)
        for case in suite:
            case.build()
        self.suite = suite
        self.reference = load_reference()["characterize"]
        self.models: list = []
        self.table2: Optional[object] = None

    def reset(self) -> None:
        pass

    def op(self, index: int) -> Outcome:
        from repro.core import CharacterizationRunner, Characterizer, RunnerTask
        from repro.xtcore import compilation_cache

        compilation_cache().clear()
        runner = CharacterizationRunner(Characterizer())
        report = runner.run([RunnerTask.from_case(case) for case in self.suite])
        if report.result is not None:
            self.models.append(report.result.model)
        return Outcome(
            attempted=len(self.suite),
            failed=len(report.failures),
            work=len(report.samples),
            retired=sum(sample.stats.total_instructions for sample in report.samples),
        )

    def run_table2(self):
        """Macro estimate against the RTL reference on the held-out apps."""
        from repro.core import EstimationStudy
        from repro.programs import application_suite

        study = EstimationStudy(self.models[-1])
        for case in application_suite():
            config, program = case.build()
            study.compare(config, program, max_instructions=case.max_instructions)
        self.table2 = study.report()
        return self.table2

    def check(self) -> list[str]:
        errors = []
        if not self.models:
            return ["no characterization produced a model"]
        stored = self.reference["coefficients"]
        for number, model in enumerate(self.models):
            fitted = [float(value) for value in model.coefficients]
            if len(fitted) != len(stored) or any(
                abs(got - want) > COEFFICIENT_RTOL * max(abs(want), 1.0)
                for got, want in zip(fitted, stored)
            ):
                errors.append(f"characterization {number}: coefficients differ from stored")
        table2 = self.table2 if self.table2 is not None else self.run_table2()
        for key, got in (
            ("table2_mean_err_pct", table2.mean_abs_percent_error),
            ("table2_max_err_pct", table2.max_abs_percent_error),
        ):
            want = self.reference[key]
            if abs(got - want) > TABLE2_ABS_TOL:
                errors.append(f"{key} {got:.6f} != stored {want:.6f}")
        return errors

    def layer_extra(self, traced) -> dict[str, float]:
        table2 = self.table2 if self.table2 is not None else self.run_table2()
        return {
            "rtl.macro_speedup": table2.mean_speedup,
            "core.runner.samples": traced.work,
            "core.runner.failures": traced.failed,
            "core.table2_mean_err_pct": table2.mean_abs_percent_error,
            "core.table2_max_err_pct": table2.max_abs_percent_error,
        }
