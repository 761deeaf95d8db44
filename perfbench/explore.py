"""``explore``: serial exhaustive exploration of two tuned spaces.

One operation explores ``reed_solomon_tuned`` (108 points) and
``fir_tuned`` (81 points) with the characterized model, serially
(``jobs=1``), without a result cache, each exploration starting from a
cleared compilation cache as one ``repro explore`` does.  The seed
orders the two spaces in each operation.
"""

from __future__ import annotations

import contextlib
import random
from typing import Iterator

from .harness import Outcome
from .reference import load_model, load_reference

SPACES = ("reed_solomon_tuned", "fir_tuned")
#: per-operation (both explorations) latency limit for ``slo_met_pct``
SLO_MS = 5_000.0
#: best EDP must equal the stored value up to float summation order
EDP_RTOL = 1e-12


@contextlib.contextmanager
def counting_retired(outcome: Outcome) -> Iterator[None]:
    """Add the instructions the explorer's simulations retire to ``outcome``.

    A candidate scored alone is one ``run_session``; a ``run_batch`` group
    is one simulation however many candidates it scores, so it counts once.
    """
    from importlib import import_module

    model, evaluate = import_module("repro.core.model"), import_module("repro.dse.evaluate")
    run_session, run_batch = model.run_session, evaluate.run_batch

    def session(*args, **kwargs):
        result = run_session(*args, **kwargs)
        outcome.retired += result.stats.total_instructions
        return result

    def batch(*args, **kwargs):
        results = run_batch(*args, **kwargs)
        outcome.retired += results[0].stats.total_instructions
        return results

    model.run_session, evaluate.run_batch = session, batch
    try:
        yield
    finally:
        model.run_session, evaluate.run_batch = run_session, run_batch


class ExploreWorkload:
    slo_ms = SLO_MS

    def setup(self, seed: int) -> None:
        from repro.dse import ExhaustiveStrategy, get_space

        self.model = load_model()
        self.spaces = {name: get_space(name) for name in SPACES}
        self.strategy = ExhaustiveStrategy()
        self.rng = random.Random(f"explore:{seed}")
        self.reference = load_reference()["explore"]
        self.orders: list[list[str]] = []
        self.reports: list = []

    def reset(self) -> None:
        pass

    def order(self, index: int) -> list[str]:
        while len(self.orders) <= index:
            self.orders.append(self.rng.sample(SPACES, len(SPACES)))
        return self.orders[index]

    def op(self, index: int) -> Outcome:
        from repro.dse import explore
        from repro.xtcore import compilation_cache

        outcome = Outcome(attempted=0)
        for name in self.order(index):
            compilation_cache().clear()
            space = self.spaces[name]
            with counting_retired(outcome):
                report = explore(self.model, space, self.strategy, jobs=1)
            self.reports.append(report)
            outcome.attempted += space.size
            outcome.failed += len(report.failures)
            outcome.work += report.evaluated
        return outcome

    def check(self) -> list[str]:
        """Every exploration's ranking and best EDP equal the stored ones."""
        errors = []
        for report in self.reports:
            stored = self.reference["spaces"][report.space_name]
            ranking = [score.key for score in report.ranked()]
            if ranking != stored["ranking"]:
                errors.append(f"{report.space_name}: ranking differs from stored")
            best = report.best.edp if report.best is not None else float("nan")
            if not abs(best - stored["best_edp"]) <= EDP_RTOL * stored["best_edp"]:
                errors.append(f"{report.space_name}: best EDP {best!r} != {stored['best_edp']!r}")
        return errors[:5]

    def layer_extra(self, traced) -> dict[str, float]:
        return {"dse.evaluated": traced.work}
