"""The service's persistent worker pool and its worker-side evaluators.

Estimation requests are CPU-bound (one untraced instruction-set
simulation each), so the service dispatches them to a pool of **forked**
worker processes.  Fork matters twice:

* the parent **pre-warms** the process-wide
  :class:`~repro.xtcore.compiled.CompilationCache` before the first fork,
  so every child inherits the lowered benchmark programs copy-on-write
  and never pays first-request compilation latency;
* the model and the per-process config/program caches are inherited or
  built once per worker, never per request.

Where fork is unavailable (or ``workers=0`` is requested) the pool
degrades to an in-process thread executor — same interface, same worker
functions, no pickling — which is also what the unit tests run.

Worker functions receive *batches*: a list of small picklable item
dicts sharing one processor configuration, so the per-batch cost of
config resolution is paid once and the per-item cost is exactly one
simulation.  Each batch result carries a
:class:`~repro.serve.metrics.ServiceMetricsObserver` snapshot so the
frontend's metrics see worker-side simulation totals.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
from collections import OrderedDict
from typing import Optional, Sequence

from ..core.model import EnergyMacroModel
from ..programs import characterization_suite
from ..rtl import generate_netlist
from ..xtcore import (
    ProcessorConfig,
    build_processor,
    compilation_cache,
    run_batch,
    semantic_fingerprint,
)
from .metrics import ServiceMetricsObserver
from .supervise import (
    CHAOS_KEY,
    DEADLINE_KEY,
    deadline_expired,
    execute_chaos_directive,
)

#: Worker-process globals, installed by :func:`_worker_init`.
_WORKER: dict = {}

#: Bound of the per-process memo of assembled inline programs: one-off
#: sources would otherwise grow it with every request.  It has to hold a
#: service's repeated sources (18 in the perfbench serve mix: 16 bundled
#: sources and 2 spin programs) with room to spare, so that the one-offs
#: between two repeats of a source do not evict it.
PROGRAM_MEMO_SIZE = 256

#: Guards the program memo's LRU order (inline mode resolves from threads).
_PROGRAMS_LOCK = threading.Lock()


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or None where only spawn exists."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def benchmark_cases() -> dict:
    """Name → bundled :class:`~repro.programs.BenchmarkCase` (per process)."""
    cases = _WORKER.get("benchmark_cases")
    if cases is None:
        cases = {case.name: case for case in characterization_suite(include_variants=False)}
        _WORKER["benchmark_cases"] = cases
    return cases


def _worker_init(model: EnergyMacroModel, fork: bool = False) -> None:
    """Install per-process state (runs in each worker, and inline mode)."""
    if fork:
        # Forked children inherit the parent's asyncio signal plumbing:
        # its Python-level handlers AND the signal wakeup fd (the event
        # loop's self-pipe).  A signal delivered to a *child* — e.g. the
        # supervisor terminating a wedged worker — would then write into
        # the shared pipe and the PARENT's loop would dispatch it as if
        # the server itself had been signalled (spontaneous drain).
        # Disarm both before the worker takes any work.
        import signal

        signal.set_wakeup_fd(-1)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, signal.SIG_DFL)
            except (OSError, ValueError):  # non-main thread / exotic platform
                pass
        # A parent thread may have held the memo lock at fork time.
        global _PROGRAMS_LOCK
        _PROGRAMS_LOCK = threading.Lock()
    _WORKER["model"] = model
    _WORKER["fork"] = fork
    _WORKER.setdefault("configs", {})
    _WORKER.setdefault("programs", OrderedDict())
    _WORKER.setdefault("areas", {})


def _config_for(extensions: tuple[str, ...]) -> ProcessorConfig:
    """Per-process memo of built processor configs, keyed by extensions."""
    configs = _WORKER["configs"]
    config = configs.get(extensions)
    if config is None:
        from ..programs.extensions import ALL_SPEC_FACTORIES

        specs = []
        for mnemonic in extensions:
            factory = ALL_SPEC_FACTORIES.get(mnemonic)
            if factory is None:
                raise ValueError(
                    f"unknown extension {mnemonic!r}; available: "
                    + ", ".join(sorted(ALL_SPEC_FACTORIES))
                )
            specs.append(factory())
        config = build_processor("serve", specs)
        configs[extensions] = config
    return config


def _custom_area(config: ProcessorConfig) -> float:
    """Per-process memo of the netlist custom-area proxy."""
    areas = _WORKER["areas"]
    fingerprint = config.fingerprint()
    area = areas.get(fingerprint)
    if area is None:
        area = float(generate_netlist(config).custom_area)
        areas[fingerprint] = area
    return area


def resolve_workload(item: dict):
    """Build (config, program) for one request item, with per-process memos.

    Items are the picklable wire shape: either ``{"benchmark": name}`` or
    ``{"name", "source", "extensions"}``.
    """
    benchmark = item.get("benchmark")
    if benchmark is not None:
        case = benchmark_cases().get(benchmark)
        if case is None:
            raise ValueError(
                f"unknown benchmark {benchmark!r}; available: "
                + ", ".join(sorted(benchmark_cases()))
            )
        return case.build()
    from ..asm import assemble

    extensions = tuple(item.get("extensions", ()))
    config = _config_for(extensions)
    key = (item["source"], extensions)
    programs = _WORKER["programs"]
    with _PROGRAMS_LOCK:
        program = programs.get(key)
        if program is not None:
            programs.move_to_end(key)
            return config, program
    # Assembled outside the lock, so a hit never waits behind a miss; of
    # two threads that assembled one source, the first to insert wins.
    program = assemble(item["source"], item.get("name", "request"), isa=config.isa)
    with _PROGRAMS_LOCK:
        program = programs.setdefault(key, program)
        programs.move_to_end(key)
        if len(programs) > PROGRAM_MEMO_SIZE:
            programs.popitem(last=False)
    return config, program


def _estimate_payload(result, config: ProcessorConfig, program, model) -> dict:
    """The success wire payload for one simulation result."""
    from ..core.extract import extract_variables

    variables = extract_variables(result.stats, config, model.template)
    # keep the entry ResultCache/DSE-compatible: area included
    point = model.operating_point
    payload = {
        "ok": True,
        "program": program.name,
        "processor": config.name,
        "energy": float(variables @ model.coefficients),
        "cycles": int(result.stats.total_cycles),
        "area": _custom_area(config),
        "instructions": int(result.stats.total_instructions),
        "operating_point": point.key if point is not None else None,
        "frequency_mhz": point.frequency_mhz if point is not None else None,
    }
    if point is not None:
        payload["seconds"] = point.seconds(result.stats.total_cycles)
    # always shipped: a coalesced waiter may want the breakdown even
    # when the request that triggered the simulation did not
    payload["variables"] = dict(
        zip(model.template.keys(), (float(v) for v in variables))
    )
    return payload


def _estimate_item(item: dict, model, observer: ServiceMetricsObserver) -> dict:
    """Score one estimate item through its own simulation; never raises.

    Two supervision hooks run *before* the isolation block: a
    parent-stamped chaos directive (worker crash/hang — deliberately not
    contained, that is the point) and the item's propagated deadline,
    shedding expired requests before they pay for simulation.
    """
    from ..obs import run_session

    directive = item.get(CHAOS_KEY)
    if directive is not None:
        execute_chaos_directive(directive, fork=bool(_WORKER.get("fork")))
    if deadline_expired(item.get(DEADLINE_KEY)):
        return {
            "ok": False,
            "stage": "deadline",
            "error_type": "DeadlineExceeded",
            "message": "deadline expired before simulation started",
        }
    stage = "build"
    try:
        # The operating point rescales the model only — the simulation
        # below is identical across points (bitwise-equal stats).
        model = model.at(item.get("operating_point"))
        config, program = resolve_workload(item)
        stage = "estimate"
        result = run_session(
            config,
            program,
            observers=[observer],
            max_instructions=int(item["max_instructions"]),
        )
        return _estimate_payload(result, config, program, model)
    except Exception as exc:  # noqa: BLE001 — per-item isolation is the point
        return {
            "ok": False,
            "stage": stage,
            "error_type": type(exc).__name__,
            "message": str(exc),
        }


def run_estimate_batch(items: Sequence[dict]) -> dict:
    """Score one batch of estimate items; never raises (except by chaos).

    Per-item failures become ``{"ok": False, ...}`` payloads in the same
    stage/error shape as :class:`~repro.core.runner.SampleFailure`.  One
    :class:`ServiceMetricsObserver` subscribes to every simulation of the
    batch and its snapshot rides back with the results.

    Items sharing one program (by content digest), one semantic partition
    (:func:`repro.xtcore.semantic_fingerprint`) and one instruction
    budget are scored through a single :func:`repro.xtcore.run_batch`
    execution pass; the observer is bracketed manually per member so the
    tally matches the unbatched path run for run.  Chaos-carrying batches
    keep the strict sequential per-item path — the directives crash or
    wedge the worker at a specific position on purpose.
    """
    model: EnergyMacroModel = _WORKER["model"]
    observer = ServiceMetricsObserver()
    if any(item.get(CHAOS_KEY) is not None for item in items):
        return {
            "results": [_estimate_item(item, model, observer) for item in items],
            "tally": observer.snapshot(),
        }

    results: list[Optional[dict]] = [None] * len(items)
    singles: list[int] = []
    groups: dict[tuple, list] = {}
    for index, item in enumerate(items):
        try:
            if deadline_expired(item.get(DEADLINE_KEY)):
                raise LookupError  # shed through the per-item path
            config, program = resolve_workload(item)
            partition = (
                program.digest(),
                semantic_fingerprint(config),
                int(item["max_instructions"]),
            )
        except Exception:  # noqa: BLE001 — per-item path records the real failure
            singles.append(index)
            continue
        groups.setdefault(partition, []).append((index, item, config, program))

    for partition, members in groups.items():
        if len(members) == 1:
            singles.append(members[0][0])
            continue
        try:
            batch = run_batch(
                [member[2] for member in members],
                members[0][3],
                max_instructions=partition[2],
            )
        except Exception as exc:  # noqa: BLE001 — the fault is trajectory-wide
            for index, _item, config, _program in members:
                results[index] = {
                    "ok": False,
                    "stage": "estimate",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                }
            continue
        for (index, _item, config, program), result in zip(members, batch):
            observer.on_run_start(config, program)
            observer.on_run_finish(result)
            try:
                # One shared execution pass, one derived model per item's
                # operating point (memoized on the base model instance).
                results[index] = _estimate_payload(
                    result, config, program, model.at(_item.get("operating_point"))
                )
            except Exception as exc:  # noqa: BLE001 — per-item isolation
                results[index] = {
                    "ok": False,
                    "stage": "estimate",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                }

    for index in singles:
        results[index] = _estimate_item(items[index], model, observer)
    return {"results": results, "tally": observer.snapshot()}


def run_explore(item: dict) -> dict:
    """Run one exploration request inside a worker; never raises."""
    import json

    from ..dse import ResultCache, explore, get_space, make_strategy

    model: EnergyMacroModel = _WORKER["model"]
    try:
        model = model.at(item.get("operating_point"))
        space = get_space(item["space"])
        strategy = make_strategy(
            item["strategy"],
            budget=item.get("budget"),
            seed=int(item.get("seed", 0)),
            objective=item.get("objective", "edp"),
        )
        cache_root = item.get("cache_root")
        cache = ResultCache(cache_root) if cache_root else None
        report = explore(
            model,
            space,
            strategy,
            jobs=1,  # the service pool is the parallelism; keep workers serial
            cache=cache,
            objective=item.get("objective", "edp"),
            max_instructions=int(item["max_instructions"]),
        )
        # ranking happens during serialization, so objective errors
        # (e.g. a time objective with no clock) must stay inside the try
        payload = json.loads(report.to_json())
    except Exception as exc:  # noqa: BLE001 — per-request isolation is the point
        return {
            "ok": False,
            "stage": "explore",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
    top_k = item.get("top_k")
    if top_k is not None:
        payload["scores"] = payload["scores"][: int(top_k)]
    return {"ok": True, "report": payload}


class WorkerPool:
    """Persistent, *supervised* executor of estimate batches and explore jobs.

    ``workers >= 1`` with fork available → a
    :class:`concurrent.futures.ProcessPoolExecutor` over forked children.
    ``workers == 0`` (or no fork) → a single-thread in-process executor
    with identical semantics, used by tests and tiny deployments.

    A dead or wedged pool is recoverable: :meth:`restart` kills any
    surviving children, replaces the executor and bumps ``generation``
    so concurrent crash handlers can tell "already respawned" from
    "respawn needed".  Because prewarming happened in the parent before
    the *first* fork, respawned children re-inherit the warm
    :func:`~repro.xtcore.compilation_cache` copy-on-write for free.
    """

    def __init__(
        self,
        model: EnergyMacroModel,
        workers: int = 0,
        prewarm: Sequence[str] = (),
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.model = model
        self.prewarmed = self._prewarm(prewarm)
        self.mode = "fork" if workers >= 1 and _fork_context() is not None else "inline"
        self.workers = workers if self.mode == "fork" else max(1, workers)
        #: bumped on every restart; crash handlers use it to deduplicate
        self.generation = 0
        #: pool respawns performed over the service lifetime
        self.restarts = 0
        self._fallback: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._executor = self._make_executor()

    def _make_executor(self) -> concurrent.futures.Executor:
        if self.mode == "fork":
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_fork_context(),
                initializer=_worker_init,
                initargs=(self.model, True),
            )
        _worker_init(self.model)
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )

    def _prewarm(self, prewarm: Sequence[str]) -> int:
        """Lower bundled benchmarks into the compilation cache pre-fork.

        Runs in the parent, *before* the executor exists: forked children
        inherit the populated :func:`~repro.xtcore.compilation_cache`
        copy-on-write, so no worker ever compiles a prewarmed program.
        """
        _worker_init(self.model)  # parent needs the same memos for keys
        names = list(prewarm)
        if names == ["suite"]:
            names = sorted(benchmark_cases())
        warmed = 0
        for name in names:
            case = benchmark_cases().get(name)
            if case is None:
                raise ValueError(f"cannot prewarm unknown benchmark {name!r}")
            config, program = case.build()
            compilation_cache().get_or_compile(config, program)
            warmed += 1
        return warmed

    def restart(self) -> int:
        """Replace a dead/wedged executor; returns the new generation.

        Fork mode first terminates surviving children (a hung worker
        never finishes its batch on its own), then abandons the broken
        executor without waiting and builds a fresh one.  Inline mode
        cannot kill threads; it just swaps executors and lets stragglers
        drain into cancelled futures.
        """
        old = self._executor
        processes = getattr(old, "_processes", None)
        if processes:
            for process in list(processes.values()):
                try:
                    # SIGKILL, not SIGTERM: a wedged worker may never
                    # service a catchable signal, and an uncatchable one
                    # also cannot echo into any signal plumbing the
                    # child inherited from the parent across fork
                    process.kill()
                except Exception:  # noqa: BLE001 — already-dead children are fine
                    pass
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — a broken executor may refuse politely
            pass
        self._executor = self._make_executor()
        self.generation += 1
        self.restarts += 1
        return self.generation

    def submit_estimate_batch(
        self, items: Sequence[dict]
    ) -> "concurrent.futures.Future[dict]":
        return self._executor.submit(run_estimate_batch, list(items))

    def submit_inline_batch(
        self, items: Sequence[dict]
    ) -> "concurrent.futures.Future[dict]":
        """Run a batch in-process, bypassing the (possibly broken) pool.

        This is the circuit breaker's degraded path: the parent already
        holds the model and memos (installed during prewarm), so the
        batch runs on a lazily-created single-thread executor exactly
        like ``--workers 0`` mode would.
        """
        if self._fallback is None:
            self._fallback = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-degraded"
            )
        return self._fallback.submit(run_estimate_batch, list(items))

    def submit_explore(self, item: dict) -> "concurrent.futures.Future[dict]":
        return self._executor.submit(run_explore, dict(item))

    def shutdown(self) -> None:
        # don't block on stragglers: timed-out jobs may still be running
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._fallback is not None:
            self._fallback.shutdown(wait=False, cancel_futures=True)
