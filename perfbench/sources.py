"""The bundled sources one-off requests are made from, and their salting.

The 35 sources are the ten Table II applications and the 25 core
characterization programs, each with the custom-instruction mnemonics
its processor needs.  A salt word appended to ``.data`` makes a source
a distinct program (a new digest, so every cache misses) while leaving
its energy and cycles unchanged.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class BundledSource:
    name: str
    source: str
    extensions: tuple[str, ...]
    max_instructions: int


def bundled_sources() -> list[BundledSource]:
    from repro.programs import application_suite, characterization_suite
    from repro.programs.extensions import ALL_SPEC_FACTORIES

    mnemonic = {factory: name for name, factory in sorted(ALL_SPEC_FACTORIES.items())}
    sources = []
    for case in application_suite() + characterization_suite(include_variants=False):
        if case.shared_config is not None:
            extensions = tuple(impl.mnemonic for impl in case.shared_config.extensions)
        else:
            extensions = tuple(mnemonic[factory] for factory in case.spec_factories)
        sources.append(BundledSource(case.name, case.source, extensions, case.max_instructions))
    return sources


class Estimator:
    """``model.estimate`` of one source text, as ``repro estimate`` does it:
    assemble for the processor its extensions make, then estimate.
    Processor configs are built once per extension set."""

    def __init__(self, model) -> None:
        self.model = model
        self._configs: dict[tuple[str, ...], object] = {}

    def config(self, extensions: tuple[str, ...]):
        from repro.programs.extensions import ALL_SPEC_FACTORIES
        from repro.xtcore import build_processor

        if extensions not in self._configs:
            specs = [ALL_SPEC_FACTORIES[name]() for name in extensions]
            self._configs[extensions] = build_processor("perfbench", specs)
        return self._configs[extensions]

    def program(self, name: str, text: str, extensions: tuple[str, ...]):
        import repro.asm

        return repro.asm.assemble(text, name, isa=self.config(extensions).isa)

    def estimate(self, name: str, text: str, extensions: tuple[str, ...], max_instructions: int):
        program = self.program(name, text, extensions)
        return self.model.estimate(
            self.config(extensions), program, max_instructions=max_instructions
        )


def salted(source: str, salt: int) -> str:
    """``source`` with one more data word: a new program, the same work."""
    return f"{source}\n    .data\nperfbench_salt:\n    .word {salt:#010x}\n"
