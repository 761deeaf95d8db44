"""``estimate``: one-off programs through ``assemble`` and ``model.estimate``.

This is the ``repro estimate`` path with a model loaded once and a
processor config per bundled source.  Every request is a bundled source
made distinct by a seeded salt word, so each one assembles, lowers and
fuses from cold.
"""

from __future__ import annotations

import random

from .harness import Outcome
from .reference import load_model, load_reference
from .sources import Estimator, bundled_sources, salted

#: per-estimate latency limit for ``slo_met_pct``
SLO_MS = 50.0


def request_stream(seed: int, sources: int):
    """Yields ``(source index, salt)`` forever; a function of ``seed`` only.

    Sources come in seeded permutations, each used once per ``sources``
    requests, so every run sees the same mix of program sizes.
    """
    rng = random.Random(f"estimate:{seed}")
    while True:
        for which in rng.sample(range(sources), sources):
            yield which, rng.getrandbits(32)


class EstimateWorkload:
    slo_ms = SLO_MS

    def setup(self, seed: int) -> None:
        self.estimator = Estimator(load_model())
        self.sources = bundled_sources()
        for source in self.sources:
            self.estimator.config(source.extensions)
        self.stored = load_reference()["estimate"]
        self._stream = request_stream(seed, len(self.sources))
        self.requests: list[tuple[int, int]] = []
        #: (source index, energy, cycles) of every answered request
        self.answers: list[tuple[int, float, int]] = []

    def request(self, index: int) -> tuple[int, int]:
        while len(self.requests) <= index:
            self.requests.append(next(self._stream))
        return self.requests[index]

    def reset(self) -> None:
        from repro.xtcore import compilation_cache

        compilation_cache().clear()

    def _estimate(self, which: int, text: str):
        source = self.sources[which]
        return self.estimator.estimate(
            source.name, text, source.extensions, source.max_instructions
        )

    def op(self, index: int) -> Outcome:
        which, salt = self.request(index)
        try:
            estimate = self._estimate(which, salted(self.sources[which].source, salt))
        except Exception:  # noqa: BLE001 — a failed estimate is counted, not fatal
            return Outcome(attempted=1, failed=1)
        self.answers.append((which, estimate.energy, estimate.cycles))
        return Outcome(attempted=1, work=1, retired=estimate.stats.total_instructions)

    def check(self) -> list[str]:
        """Every salted estimate equals its unsalted program's, exactly, and
        the stored energy and cycles of that source."""
        unsalted = {}
        for which in sorted({which for which, _, _ in self.answers}):
            estimate = self._estimate(which, self.sources[which].source)
            unsalted[which] = (estimate.energy, estimate.cycles)
        errors = []
        for which, energy, cycles in self.answers:
            name = self.sources[which].name
            if (energy, cycles) != unsalted[which]:
                errors.append(
                    f"{name}: salted ({energy}, {cycles}) != unsalted {unsalted[which]}"
                )
            if (energy, cycles) != tuple(self.stored[name]):
                errors.append(f"{name}: ({energy}, {cycles}) != stored {self.stored[name]}")
        return errors[:5]

    def layer_extra(self, traced) -> dict[str, float]:
        return {}
