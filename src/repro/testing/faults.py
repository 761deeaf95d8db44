"""Deterministic fault injection for the characterization and serving runtimes.

The harness wraps the two injectable pipeline stages of
:class:`repro.core.runner.CharacterizationRunner` (``simulate`` and
``estimate_energy``) and perturbs them according to a :class:`FaultPlan`:
named programs raise simulator exceptions, exhaust their instruction
budget, or yield NaN/Inf energies — each a bounded number of times, so
tests can distinguish "transient fault + retry succeeds" from "permanent
fault → structured failure record".  It also fabricates genuinely hanging
programs (an infinite loop contained by the instruction budget) and
corrupts checkpoint files the way a crash mid-write would.

:class:`ServiceChaosPlan` extends the same philosophy one layer up, to
the ``repro serve`` estimation service: a seeded schedule of **worker
crashes** (``os._exit`` in a forked child), **worker hangs** and
**mid-response connection resets**, plus per-name **poisoned requests**
that crash every batch containing them.  The plan only *decides*; the
service stamps directives onto worker items and
:func:`repro.serve.supervise.execute_chaos_directive` executes them in
the worker, so fork-mode chaos kills real processes and inline-mode
chaos raises the equivalent :class:`~repro.serve.supervise.InjectedWorkerCrash`.

Everything here is deterministic: seeded randomness only, no wall-clock.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional, Sequence

from ..asm import Program, assemble
from ..obs.protocol import SimObserver
from ..obs.session import DEFAULT_MAX_INSTRUCTIONS, SessionFn, run_session
from ..xtcore import ProcessorConfig, SimulationResult, build_processor
from ..xtcore.iss import SimulationError, SimulationLimitExceeded
from ..core.runner import EstimateFn, RunnerTask
from ..rtl import EnergyReport

#: Inject on every attempt (never exhausts).
ALWAYS = -1


class InjectedFault(SimulationError):
    """Marker exception for harness-injected simulator faults."""


@dataclasses.dataclass
class _FaultSpec:
    kind: str  # "sim-error" | "budget" | "nan" | "inf"
    remaining: int  # attempts left to inject; ALWAYS = forever

    def fire(self) -> bool:
        if self.remaining == 0:
            return False
        if self.remaining > 0:
            self.remaining -= 1
        return True


class FaultPlan:
    """A per-program-name schedule of injected failures."""

    def __init__(self) -> None:
        self._simulation: dict[str, _FaultSpec] = {}
        self._energy: dict[str, _FaultSpec] = {}
        #: (program name, fault kind) log of every injection fired
        self.injected: list[tuple[str, str]] = []

    # -- scheduling --------------------------------------------------------

    def fail_simulation(self, name: str, times: int = ALWAYS) -> "FaultPlan":
        """Raise :class:`InjectedFault` from the simulator for ``name``."""
        self._simulation[name] = _FaultSpec("sim-error", times)
        return self

    def exhaust_budget(self, name: str, times: int = ALWAYS) -> "FaultPlan":
        """Raise :class:`SimulationLimitExceeded` (a slow/hanging program)."""
        self._simulation[name] = _FaultSpec("budget", times)
        return self

    def nan_energy(self, name: str, times: int = ALWAYS) -> "FaultPlan":
        """Make the reference energy estimate come back as NaN."""
        self._energy[name] = _FaultSpec("nan", times)
        return self

    def inf_energy(self, name: str, times: int = ALWAYS) -> "FaultPlan":
        """Make the reference energy estimate come back as +Inf."""
        self._energy[name] = _FaultSpec("inf", times)
        return self

    # -- stage wrappers ----------------------------------------------------

    def wrap_session(self, inner: Optional[SessionFn] = None) -> SessionFn:
        """A session stage that injects the scheduled simulator faults.

        The returned callable satisfies the keyword-only
        :data:`~repro.obs.session.SessionFn` contract, so it plugs
        directly into :class:`~repro.core.runner.CharacterizationRunner`
        (and anything else built on :func:`repro.obs.run_session`).
        """
        inner_fn = inner if inner is not None else run_session

        def session(
            config: ProcessorConfig,
            program: Program,
            *,
            observers: Sequence[SimObserver] = (),
            collect_trace: bool = False,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            entry: Optional[int] = None,
        ) -> SimulationResult:
            spec = self._simulation.get(program.name)
            if spec is not None and spec.fire():
                self.injected.append((program.name, spec.kind))
                if spec.kind == "budget":
                    raise SimulationLimitExceeded(
                        f"injected instruction-budget exhaustion in {program.name!r}"
                    )
                raise InjectedFault(f"injected simulator fault in {program.name!r}")
            return inner_fn(
                config,
                program,
                observers=observers,
                collect_trace=collect_trace,
                max_instructions=max_instructions,
                entry=entry,
            )

        return session

    def wrap_estimate(self) -> EstimateFn:
        """An ``estimate_energy`` stage that injects NaN/Inf energies.

        Keys on the reference report's program name; every other report
        yields its total, as the runner's production stage does.
        """

        def estimate(config: ProcessorConfig, report: EnergyReport) -> float:
            spec = self._energy.get(report.program_name)
            if spec is not None and spec.fire():
                self.injected.append((report.program_name, spec.kind))
                return float("nan") if spec.kind == "nan" else float("inf")
            return report.total

        return estimate


class ServiceChaosPlan:
    """A seeded, deterministic schedule of service-layer faults.

    Batch-granular faults (``crashes``, ``hangs``) are assigned to
    distinct dispatch ordinals drawn from ``range(horizon)`` with a
    seeded RNG: the service counts every batch dispatch and consults
    :meth:`directive_for_batch` with the running ordinal.  Connection
    resets work the same way over response ordinals.  ``poison`` names
    programs whose mere presence in a batch crashes the worker — the
    deterministic stand-in for a request that segfaults the simulator —
    which is what drives the bisect-and-quarantine path.

    Same seed + same traffic ⇒ same injections, so chaos benchmarks and
    smokes are reproducible run to run.
    """

    def __init__(
        self,
        seed: int = 0,
        crashes: int = 0,
        hangs: int = 0,
        resets: int = 0,
        horizon: int = 24,
        hang_seconds: float = 30.0,
        poison: Sequence[str] = (),
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if crashes + hangs > horizon:
            raise ValueError(
                f"cannot schedule {crashes + hangs} batch faults in a "
                f"horizon of {horizon}"
            )
        self.seed = seed
        self.horizon = horizon
        self.hang_seconds = hang_seconds
        self.poison = frozenset(poison)
        rng = random.Random(seed)
        ordinals = rng.sample(range(horizon), crashes + hangs)
        self._batch_faults: dict[int, str] = {}
        for ordinal in ordinals[:crashes]:
            self._batch_faults[ordinal] = "crash"
        for ordinal in ordinals[crashes:]:
            self._batch_faults[ordinal] = f"hang:{hang_seconds:g}"
        self._reset_ordinals = frozenset(
            rng.sample(range(horizon), min(resets, horizon))
        )
        self._responses_seen = 0
        #: (kind, ordinal) log of every injection actually fired
        self.injected: list[tuple[str, int]] = []

    # -- parent-side decisions ---------------------------------------------

    def directive_for_batch(self, ordinal: int) -> Optional[str]:
        """The chaos directive for one batch dispatch, logging the firing."""
        directive = self._batch_faults.pop(ordinal, None)
        if directive is not None:
            kind = directive.split(":", 1)[0]
            self.injected.append((kind, ordinal))
        return directive

    def rearm(self, directive: str, not_before: int) -> None:
        """Re-schedule a directive whose batch never reached a worker.

        When the pool breaks under a *concurrent* batch, a directive
        already stamped onto this one is consumed without ever executing.
        The service hands it back here: the firing is removed from the
        log and the directive re-enters the schedule at the first free
        ordinal at or after ``not_before`` — the fault count a plan
        promises is the fault count the run actually experiences.
        """
        kind = directive.split(":", 1)[0]
        for index in range(len(self.injected) - 1, -1, -1):
            if self.injected[index][0] == kind:
                del self.injected[index]
                break
        ordinal = max(0, not_before)
        while ordinal in self._batch_faults:
            ordinal += 1
        self._batch_faults[ordinal] = directive

    def is_poisoned(self, item: dict) -> bool:
        """Whether one worker item names a poisoned program."""
        if not self.poison:
            return False
        name = item.get("benchmark") or item.get("name")
        return name in self.poison

    def take_connection_reset(self) -> bool:
        """Whether the current response should be cut mid-write."""
        ordinal = self._responses_seen
        self._responses_seen += 1
        if ordinal in self._reset_ordinals:
            self.injected.append(("reset", ordinal))
            return True
        return False

    def injected_counts(self) -> dict:
        counts: dict[str, int] = {}
        for kind, _ in self.injected:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- CLI spec ----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "ServiceChaosPlan":
        """Build a plan from a ``--chaos`` CLI spec string.

        The spec is comma-separated ``key=value`` pairs, e.g.
        ``seed=7,crashes=3,hangs=1,resets=1,horizon=24,hang=2.5,poison=a|b``.
        """
        kwargs: dict = {}
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"chaos spec token {token!r} is not key=value")
            key = key.strip()
            value = value.strip()
            if key in ("seed", "crashes", "hangs", "resets", "horizon"):
                kwargs[key] = int(value)
            elif key in ("hang", "hang_seconds"):
                kwargs["hang_seconds"] = float(value)
            elif key == "poison":
                kwargs["poison"] = tuple(
                    name for name in value.split("|") if name
                )
            else:
                raise ValueError(f"unknown chaos spec key {key!r}")
        return cls(**kwargs)


def hanging_task(
    name: str = "fault_hang", max_instructions: int = 2_000
) -> RunnerTask:
    """A real (not mocked) non-terminating program, contained by budget.

    The program is a tight ``j``-to-self loop; simulating it always ends
    in :class:`~repro.xtcore.SimulationLimitExceeded`, which is how the
    runner experiences a slow or hanging workload.
    """
    source = f"{name}:\n    j {name}\n"

    def builder() -> tuple[ProcessorConfig, Program]:
        config = build_processor(f"xt-{name}")
        return config, assemble(source, name, isa=config.isa)

    return RunnerTask(name=name, builder=builder, max_instructions=max_instructions)


def corrupt_checkpoint(path: str, mode: str = "truncate") -> None:
    """Damage a checkpoint file the way a crash or disk fault would.

    ``truncate`` keeps the first half of the bytes (a write cut short);
    ``garbage`` replaces the content with non-JSON bytes.
    """
    if mode == "truncate":
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
    elif mode == "garbage":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"format": "repro-characterization-samples/1", "samp\x00')
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
