"""Candidate scoring: the macro-model fast path, parallel and cached.

Every candidate costs one untraced instruction-set simulation (the
paper's ~1000x-cheaper-than-RTL estimate path) plus a netlist generation
for the custom-area proxy.  The engine layers four accelerations on it:

* a per-run **memo** — strategies that revisit design points (greedy
  walks) pay for each point once;
* a per-run **build memo** — each inner design point (the assignment
  without its reserved cache-geometry and operating-point knobs) is built
  and lowered once; its variants are derived from it (see
  :meth:`repro.dse.SearchSpace.build`);
* the content-addressed **on-disk cache** (:mod:`repro.dse.cache`) —
  repeated or resumed explorations skip already-scored points entirely;
* a ``multiprocessing`` **parallel executor** (``jobs > 1``) — uncached
  candidates are scored by a pool of worker processes that rebuild the
  design point from its picklable knob assignment.

Failures are isolated per candidate into the same
:class:`~repro.core.runner.SampleFailure` records the characterization
runner uses, with the same ``max_failures`` →
:class:`~repro.core.runner.TooManyFailures` degradation rule.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Optional, Sequence

from ..core.model import EnergyMacroModel
from ..core.runner import SampleFailure, TooManyFailures
from ..rtl import generate_netlist
from ..xtcore import (
    DEFAULT_MAX_INSTRUCTIONS,
    compilation_cache,
    run_batch,
    semantic_fingerprint,
)
from .cache import ResultCache, candidate_cache_key, model_digest
from .space import OPERATING_POINT_KNOB, Candidate, SearchSpace


@dataclasses.dataclass
class CandidateScore:
    """One scored design point (all objectives are minimized).

    ``operating_point`` / ``frequency_mhz`` are set when the design point
    carries an operating-point knob (or the model itself is bound to a
    point); they unlock the real-time objectives ``time`` (seconds) and
    ``edp_seconds`` on top of the cycle-based ones.
    """

    key: str  # canonical assignment key within the space
    assignment: dict
    program_name: str
    processor_name: str
    energy: float
    cycles: int
    area: float
    from_cache: bool = False
    operating_point: Optional[str] = None
    frequency_mhz: Optional[float] = None

    @property
    def edp(self) -> float:
        """Energy-delay product, the default exploration objective."""
        return self.energy * self.cycles

    @property
    def seconds(self) -> Optional[float]:
        """Wall-clock runtime; needs an operating point to pin the clock."""
        if self.frequency_mhz is None:
            return None
        return self.cycles / (self.frequency_mhz * 1e6)

    @property
    def edp_seconds(self) -> Optional[float]:
        """Energy-delay product with delay in real seconds."""
        seconds = self.seconds
        if seconds is None:
            return None
        return self.energy * seconds

    def objective(self, name: str) -> float:
        """Look up one scalar objective by name."""
        if name == "edp":
            return self.edp
        if name in ("energy", "cycles", "area"):
            return float(getattr(self, name))
        if name in ("time", "edp_seconds"):
            value = self.seconds if name == "time" else self.edp_seconds
            if value is None:
                raise ValueError(
                    f"objective {name!r} needs an operating point (a clock "
                    "frequency) — explore an operating-point space or pass "
                    "--operating-point"
                )
            return float(value)
        raise ValueError(
            f"unknown objective {name!r} "
            f"(use {', '.join(OBJECTIVES[:-1])} or {OBJECTIVES[-1]})"
        )

    def to_payload(self) -> dict:
        payload = {
            "key": self.key,
            "assignment": dict(self.assignment),
            "program": self.program_name,
            "processor": self.processor_name,
            "energy": float(self.energy),
            "cycles": int(self.cycles),
            "edp": float(self.edp),
            "area": float(self.area),
            "operating_point": self.operating_point,
            "frequency_mhz": self.frequency_mhz,
        }
        if self.frequency_mhz is not None:
            payload["seconds"] = self.seconds
            payload["edp_seconds"] = self.edp_seconds
        return payload

    @classmethod
    def from_payload(cls, payload: dict, from_cache: bool = False) -> "CandidateScore":
        frequency = payload.get("frequency_mhz")
        return cls(
            key=payload["key"],
            assignment=dict(payload["assignment"]),
            program_name=payload["program"],
            processor_name=payload["processor"],
            energy=float(payload["energy"]),
            cycles=int(payload["cycles"]),
            area=float(payload["area"]),
            from_cache=from_cache,
            operating_point=payload.get("operating_point"),
            frequency_mhz=float(frequency) if frequency is not None else None,
        )


OBJECTIVES = ("energy", "cycles", "edp", "area", "time", "edp_seconds")


# -- worker-process plumbing -------------------------------------------------
#
# Workers receive the heavy shared state (model, space) once through the
# pool initializer and per-candidate work as a small picklable assignment
# dict.  Under the "fork" start method the initializer arguments are
# inherited rather than pickled, so spaces with closure builders work.

_WORKER_STATE: dict = {}


def _worker_init(
    model: EnergyMacroModel,
    space: SearchSpace,
    max_instructions: int,
    builds: Optional[dict],
) -> None:
    _WORKER_STATE["model"] = model
    _WORKER_STATE["space"] = space
    _WORKER_STATE["max_instructions"] = max_instructions
    _WORKER_STATE["builds"] = builds


def _score_point(
    model: EnergyMacroModel,
    space: SearchSpace,
    assignment: dict,
    max_instructions: int,
    built: Optional[tuple] = None,
    builds: Optional[dict] = None,
) -> dict:
    """Score one design point; never raises (failures become records).

    ``builds`` is the exploration's build memo (see
    :meth:`~repro.dse.SearchSpace.build`), used when ``built`` is None.
    """
    from .space import assignment_key

    key = assignment_key(assignment)
    stage = "build"
    try:
        # An operating-point knob rescales the model, never the hardware:
        # model.at() memoizes per point, so the derived model is shared
        # across every candidate at that point.
        model = model.at(assignment.get(OPERATING_POINT_KNOB))
        config, program = built if built is not None else space.build(assignment, builds)
        stage = "estimate"
        estimate = model.estimate(config, program, max_instructions=max_instructions)
        area = generate_netlist(config).custom_area
    except Exception as exc:  # noqa: BLE001 — per-candidate isolation is the point
        return {
            "ok": False,
            "key": key,
            "processor": "" if stage == "build" else config.name,
            "stage": stage,
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
    point = model.operating_point
    return {
        "ok": True,
        "key": key,
        "assignment": dict(assignment),
        "program": program.name,
        "processor": config.name,
        "energy": float(estimate.energy),
        "cycles": int(estimate.cycles),
        "area": float(area),
        "operating_point": point.key if point is not None else None,
        "frequency_mhz": point.frequency_mhz if point is not None else None,
    }


def _worker_evaluate(assignment: dict) -> dict:
    return _score_point(
        _WORKER_STATE["model"],
        _WORKER_STATE["space"],
        assignment,
        _WORKER_STATE["max_instructions"],
        builds=_WORKER_STATE["builds"],
    )


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or None where only spawn exists.

    Spawned workers would have to pickle the space (whose builder is
    typically a closure), so on fork-less platforms the engine degrades
    to serial evaluation instead of failing.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class EvaluationEngine:
    """Scores candidates of one space against one macro-model."""

    def __init__(
        self,
        model: EnergyMacroModel,
        space: SearchSpace,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        max_failures: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.model = model
        self.space = space
        self.jobs = jobs
        self.cache = cache
        self.max_instructions = max_instructions
        self.max_failures = max_failures
        self.progress = progress
        self.failures: list[SampleFailure] = []
        self.evaluated = 0  # candidates actually simulated this run
        self.memo_hits = 0
        #: worker-pool breakages survived this run (each one degrades the
        #: remaining candidates of the run to serial in-parent scoring)
        self.pool_restarts = 0
        #: batched-execution accounting: groups of semantically compatible
        #: candidates scored through one run_batch pass, and how many
        #: member candidates those passes covered
        self.batch_groups = 0
        self.batch_members = 0
        # Per-operating-point (model, digest) pairs: the base model under
        # None plus one derived model per point key seen in assignments.
        # Distinct digests make cache keys disjoint across points.
        self._models: dict[Optional[str], tuple[EnergyMacroModel, str]] = {
            None: (model, model_digest(model))
        }
        self._memo: dict[str, CandidateScore] = {}
        # The build memo: one built pair per inner design point, for this
        # engine only — a second exploration pays for its own builds.  A
        # space without reserved axes has no variants to share a build.
        self._builds: Optional[dict] = {} if space.inner is not None else None

    def _resolve_model(self, assignment: dict) -> tuple[EnergyMacroModel, str]:
        """The (derived model, digest) for one assignment's operating point.

        Raises (CalibrationError) on a bad point — callers score inside
        their per-candidate isolation, or pre-validate via the space.
        """
        point = assignment.get(OPERATING_POINT_KNOB)
        entry = self._models.get(point)
        if entry is None:
            derived = self.model.at(point)
            entry = (derived, model_digest(derived))
            self._models[point] = entry
        return entry

    # -- cache bookkeeping -------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    # -- evaluation --------------------------------------------------------

    def evaluate(self, candidates: Sequence[Candidate]) -> list[CandidateScore]:
        """Score a batch; returns successes in input order.

        Failures are recorded on ``self.failures`` (and checked against
        ``max_failures``) instead of aborting the batch.
        """
        slots: list[Optional[CandidateScore]] = [None] * len(candidates)
        pending: list[tuple[int, Candidate, Optional[tuple]]] = []

        for position, candidate in enumerate(candidates):
            memo = self._memo.get(candidate.key)
            if memo is not None:
                self.memo_hits += 1
                slots[position] = memo
                continue
            built = None
            if self.cache is not None:
                outcome = self._try_cache(candidate)
                if isinstance(outcome, CandidateScore):
                    slots[position] = outcome
                    self._memo[candidate.key] = outcome
                    continue
                built = outcome  # (config, program) or None when build failed
                if built is None:
                    continue  # build failure already recorded
            pending.append((position, candidate, built))

        for (position, candidate, built), raw in zip(pending, self._run_pending(pending)):
            if raw["ok"]:
                score = CandidateScore.from_payload(
                    {**raw, "key": candidate.key}, from_cache=False
                )
                self.evaluated += 1
                slots[position] = score
                self._memo[candidate.key] = score
                self._store(candidate, raw, built)
                self._emit(f"scored {candidate.key}: edp {score.edp:.3g}")
            else:
                self._record_failure(candidate, raw)
        return [score for score in slots if score is not None]

    # -- internals ---------------------------------------------------------

    def _run_pending(self, pending: list) -> list[dict]:
        """Score the uncached candidates, in parallel when asked to."""
        if not pending:
            return []
        context = _fork_context() if self.jobs > 1 and len(pending) > 1 else None
        if context is None:
            return self._run_serial(pending)
        # Build and lower every pending design point in the parent before
        # forking: workers inherit the build memo and the populated
        # compilation cache copy-on-write, so each implementation is built
        # and compiled exactly once per exploration instead of once per
        # worker.
        for _, candidate, built in pending:
            try:
                config, program = (
                    built if built is not None else candidate.build(self._builds)
                )
                compilation_cache().get_or_compile(config, program)
            except Exception:  # noqa: BLE001 — the worker records the real failure
                continue
        return self._run_forked(context, pending)

    def _run_serial(self, pending: list) -> list[dict]:
        """In-parent scoring with batched multi-config execution.

        Design points that share one program (by content digest) and one
        semantic partition (:func:`repro.xtcore.semantic_fingerprint`)
        execute the identical instruction trajectory, so each such group
        of two or more is scored through a single
        :func:`repro.xtcore.run_batch` pass — one simulation feeding N
        per-config stats planes — instead of N full simulations.
        Singles, build failures and batch-incompatible points keep the
        per-point path; result records are shaped identically either way.
        """
        results: list[Optional[dict]] = [None] * len(pending)
        groups: dict[tuple, list] = {}
        for index, (_, candidate, built) in enumerate(pending):
            try:
                config, program = (
                    built if built is not None else candidate.build(self._builds)
                )
                partition = (program.digest(), semantic_fingerprint(config))
            except Exception:  # noqa: BLE001 — scored per-point for the real record
                results[index] = _score_point(
                    self.model,
                    self.space,
                    pending[index][1].assignment_dict,
                    self.max_instructions,
                    built=built,
                    builds=self._builds,
                )
                continue
            groups.setdefault(partition, []).append(
                (index, candidate, config, program)
            )
        for members in groups.values():
            if len(members) < 2:
                index, candidate, config, program = members[0]
                results[index] = _score_point(
                    self.model,
                    self.space,
                    candidate.assignment_dict,
                    self.max_instructions,
                    built=(config, program),
                )
                continue
            self.batch_groups += 1
            self.batch_members += len(members)
            try:
                batch = run_batch(
                    [member[2] for member in members],
                    members[0][3],
                    max_instructions=self.max_instructions,
                )
            except Exception as exc:  # noqa: BLE001 — the fault is trajectory-wide
                for index, candidate, config, program in members:
                    results[index] = {
                        "ok": False,
                        "key": candidate.key,
                        "processor": config.name,
                        "stage": "estimate",
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                    }
                continue
            for (index, candidate, config, program), result in zip(members, batch):
                try:
                    # One shared simulation, one derived model per member's
                    # operating point: candidates differing only in the
                    # point collapse into this group (identical config ->
                    # identical semantic fingerprint) and diverge here.
                    member_model = self._resolve_model(candidate.assignment_dict)[0]
                    energy = member_model.estimate_from_stats(result.stats, config)
                    area = generate_netlist(config).custom_area
                except Exception as exc:  # noqa: BLE001 — per-candidate isolation
                    results[index] = {
                        "ok": False,
                        "key": candidate.key,
                        "processor": config.name,
                        "stage": "estimate",
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                    }
                    continue
                point = member_model.operating_point
                results[index] = {
                    "ok": True,
                    "key": candidate.key,
                    "assignment": dict(candidate.assignment_dict),
                    "program": program.name,
                    "processor": config.name,
                    "energy": float(energy),
                    "cycles": int(result.stats.total_cycles),
                    "area": float(area),
                    "operating_point": point.key if point is not None else None,
                    "frequency_mhz": (
                        point.frequency_mhz if point is not None else None
                    ),
                }
        return results

    def _run_forked(self, context, pending: list) -> list[dict]:
        """Parallel scoring that survives worker death.

        Candidates go to a :class:`ProcessPoolExecutor` in bounded waves
        (``jobs * 4``).  If a worker dies (``BrokenProcessPool`` — a
        segfaulting candidate, an OOM kill), only the in-flight wave is
        affected: its unfinished candidates become ``stage="pool"``
        failures (the crasher cannot be told apart from innocents that
        were in flight beside it), and every not-yet-submitted candidate
        is scored serially in the parent, so one bad design point cannot
        sink an exploration.
        """
        assignments = [candidate.assignment_dict for _, candidate, _ in pending]
        results: list[Optional[dict]] = [None] * len(pending)
        wave_size = max(1, self.jobs * 4)
        executor = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(self.model, self.space, self.max_instructions, self._builds),
        )
        try:
            for start in range(0, len(pending), wave_size):
                wave = range(start, min(start + wave_size, len(pending)))
                futures = [
                    executor.submit(_worker_evaluate, assignments[i]) for i in wave
                ]
                crash: Optional[BaseException] = None
                for offset, future in zip(wave, futures):
                    try:
                        results[offset] = future.result()
                    except BrokenExecutor as exc:
                        crash = exc
                        results[offset] = {
                            "ok": False,
                            "key": pending[offset][1].key,
                            "processor": "",
                            "stage": "pool",
                            "error_type": type(exc).__name__,
                            "message": (
                                "worker pool died while this candidate was "
                                f"in flight: {exc}"
                            ),
                        }
                if crash is not None:
                    self.pool_restarts += 1
                    self._emit(
                        "worker pool died; scoring the remaining "
                        f"{len(pending) - wave.stop} candidate(s) serially"
                    )
                    break
        finally:
            executor.shutdown(wait=False)
        for index, raw in enumerate(results):
            if raw is None:
                _, candidate, built = pending[index]
                results[index] = _score_point(
                    self.model,
                    self.space,
                    candidate.assignment_dict,
                    self.max_instructions,
                    built=built,
                    builds=self._builds,
                )
        return results

    def _try_cache(self, candidate: Candidate):
        """A cached score, a built (config, program) pair, or None."""
        try:
            digest = self._resolve_model(candidate.assignment_dict)[1]
            config, program = candidate.build(self._builds)
        except Exception as exc:  # noqa: BLE001
            self._record_failure(
                candidate,
                {
                    "processor": "",
                    "stage": "build",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                },
            )
            return None
        key = candidate_cache_key(digest, config, program, self.max_instructions)
        payload = self.cache.get(key)
        if payload is not None:
            score = CandidateScore.from_payload(
                {**payload, "key": candidate.key, "assignment": candidate.assignment_dict},
                from_cache=True,
            )
            self._emit(f"cache hit {candidate.key}")
            return score
        return (config, program)

    def _store(self, candidate: Candidate, raw: dict, built: Optional[tuple]) -> None:
        if self.cache is None:
            return
        config, program = built if built is not None else candidate.build(self._builds)
        key = candidate_cache_key(
            self._resolve_model(candidate.assignment_dict)[1],
            config,
            program,
            self.max_instructions,
        )
        payload = dict(raw)
        payload.pop("ok", None)
        self.cache.put(key, payload)

    def _record_failure(self, candidate: Candidate, raw: dict) -> None:
        failure = SampleFailure(
            name=candidate.key,
            processor_name=raw.get("processor", ""),
            stage=raw.get("stage", "?"),
            error_type=raw.get("error_type", "?"),
            message=raw.get("message", ""),
            attempts=1,
        )
        self.failures.append(failure)
        self._emit(f"FAILED {failure.describe()}")
        if self.max_failures is not None and len(self.failures) > self.max_failures:
            raise TooManyFailures(
                f"aborting exploration: {len(self.failures)} candidate failure(s) "
                f"exceed max_failures={self.max_failures}\n"
                + "\n".join(f.describe() for f in self.failures),
                failures=list(self.failures),
            )

    def _emit(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)
