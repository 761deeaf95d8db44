"""Per-layer metrics: the traced entry points and what each metric means.

Layers are named after the ``src/repro`` modules.  ``PER_LAYER`` lists,
for every metric, the end-to-end metric it should move and on which
workload; ``BENCHMARK.json`` carries the same names (a test keeps the
two in step).  Every traced run prints every metric; a layer a workload
does not exercise reads 0 there.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator, Optional

from .stats import share_pct
from .tracing import Attribution, OnCall, Target


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    workload: str


_M = LayerMetric
PER_LAYER: tuple[LayerMetric, ...] = (
    _M("asm.assemble_ms", "ms", "lower", "p50_ms; throughput_per_s", "estimate; explore"),
    _M("asm.calls", "count", "lower", "p50_ms; throughput_per_s", "estimate; explore"),
    _M("tie.build_processor_ms", "ms", "lower", "throughput_per_s; setup_s", "explore; all"),
    _M("tie.builds", "count", "lower", "throughput_per_s; setup_s", "explore; all"),
    _M("compiled.compile_ms", "ms", "lower", "p50_ms, sim_mips", "estimate (no change on explore)"),
    _M("compiled.compilations", "count", "lower", "p50_ms, sim_mips", "estimate"),
    _M("compiled.superop_compile_ms", "ms", "lower", "p50_ms, sim_mips", "estimate"),
    _M("compiled.superop_compilations", "count", "lower", "p50_ms, sim_mips", "estimate"),
    _M("compiled.hit_rate", "%", "higher", "p50_ms, sim_mips", "estimate"),
    _M("iss.simulate_ms", "ms", "lower", "tail_ms, sim_mips; p50_ms", "estimate; characterize"),
    _M("iss.retired", "count", "higher", "sim_mips", "estimate; characterize"),
    _M("iss.mips", "Minstr/s", "higher", "tail_ms, sim_mips; p50_ms", "estimate; characterize"),
    _M("iss.superop_runs", "count", "higher", "sim_mips", "estimate"),
    _M("iss.compiled_runs", "count", "lower", "p50_ms", "characterize (traced runs)"),
    _M("batch.run_batch_ms", "ms", "lower", "throughput_per_s", "explore (no change on estimate)"),
    _M("batch.groups", "count", "lower", "throughput_per_s", "explore"),
    _M("batch.members", "count", "higher", "throughput_per_s", "explore"),
    _M("rtl.reference_ms", "ms", "lower", "p50_ms", "characterize (no change elsewhere)"),
    _M("rtl.retires", "count", "lower", "p50_ms", "characterize"),
    _M("rtl.macro_speedup", "x", "higher", "none (paper claim; a faster RTL reference shrinks it)", "characterize"),
    _M("core.runner.samples", "count", "higher", "p50_ms, ok_pct", "characterize"),
    _M("core.runner.attempts", "count", "lower", "p50_ms, ok_pct", "characterize"),
    _M("core.runner.failures", "count", "lower", "ok_pct", "characterize"),
    _M("core.fit_ms", "ms", "lower", "p50_ms", "characterize"),
    _M("core.extract_ms", "ms", "lower", "p50_ms", "characterize; estimate"),
    _M("core.table2_mean_err_pct", "%", "lower", "none (accuracy, checked exactly)", "characterize"),
    _M("core.table2_max_err_pct", "%", "lower", "none (accuracy, checked exactly)", "characterize"),
    _M("dse.build_ms", "ms", "lower", "throughput_per_s", "explore"),
    _M("dse.pareto_ms", "ms", "lower", "throughput_per_s", "explore"),
    _M("dse.evaluated", "count", "higher", "throughput_per_s", "explore"),
    _M("dse.batched_share", "%", "higher", "throughput_per_s", "explore"),
    _M("serve.request_path_ms", "ms", "lower", "p50_ms", "serve"),
    _M("serve.memo_hits", "count", "higher", "p50_ms", "serve"),
    _M("serve.coalesced", "count", "higher", "p50_ms", "serve"),
    _M("serve.fresh", "count", "lower", "p50_ms", "serve"),
    _M("serve.simulations", "count", "lower", "tail_ms, slo_met_pct", "serve"),
    _M("serve.failed_simulations", "count", "lower", "tail_ms, slo_met_pct", "serve"),
    _M("serve.wasted_sim_share", "%", "lower", "tail_ms, slo_met_pct", "serve"),
    _M("serve.worker_sim_s", "s", "lower", "tail_ms (finished runs only: a spin's time is not in it)", "serve"),
    _M("serve.spin_p50_ms", "ms", "lower", "none (the cost of spins, which p50_ms and tail_ms leave out)", "serve"),
    _M("serve.batches", "count", "lower", "tail_ms", "serve"),
    _M("serve.mean_batch_size", "count", "higher", "tail_ms", "serve"),
    _M("serve.server_p50_ms", "ms", "lower", "p50_ms (service cost, without transport)", "serve"),
    _M("serve.server_p95_ms", "ms", "lower", "tail_ms (service cost, without transport)", "serve"),
    _M("serve.rejected", "count", "lower", "ok_pct", "serve"),
    _M("serve.generator_lag_p99_ms", "ms", "lower", "none (validity check)", "serve"),
    _M("trace.wall_ms", "ms", "lower", "none (traced phase wall time)", "all"),
    _M("trace.untraced_wall_ms", "ms", "lower", "none (same work, untraced)", "all"),
    _M("trace.overhead_pct", "%", "lower", "none (tracing cost)", "all"),
    _M("trace.unattributed_ms", "ms", "lower", "none (wall time outside layer spans)", "all"),
    _M("trace.unattributed_pct", "%", "lower", "none (must stay under 10)", "all"),
    _M("trace.spans", "count", "lower", "none", "all"),
)


@dataclasses.dataclass
class LayerCounters:
    """Counts taken inside the wrappers, where the work happens."""

    retired: int = 0
    superop_runs: int = 0
    compiled_runs: int = 0
    runner_attempts: int = 0
    rtl_retires: int = 0
    batch_groups: int = 0
    batch_members: int = 0
    # compilation-cache counters banked across the cache's clear() calls
    hits: int = 0
    misses: int = 0
    compilations: int = 0
    superop_compilations: int = 0
    _base: dict = dataclasses.field(default_factory=dict)

    def on_session(self, args: tuple, kwargs: dict, result) -> None:
        self.retired += result.stats.total_instructions
        if result.engine == "superop":
            self.superop_runs += 1
        elif result.engine == "compiled":
            self.compiled_runs += 1
        if kwargs.get("collect_trace"):
            # only the characterization runner asks for a trace: one per attempt
            self.runner_attempts += 1

    def on_reference(self, args: tuple, kwargs: dict, report) -> None:
        self.rtl_retires += args[1].stats.total_instructions

    def on_batch(self, args: tuple, kwargs: dict, results) -> None:
        self.batch_groups += 1
        self.batch_members += len(args[0])

    def bank(self, info: dict) -> None:
        """Add the cache counters' growth since the last bank or rebase."""
        now = _cache_counts(info)
        for name, value in now.items():
            setattr(self, name, getattr(self, name) + value - self._base.get(name, 0))
        self._base = now

    def rebase(self, info: Optional[dict] = None) -> None:
        """Count growth from ``info`` on (from zero, right after a clear)."""
        self._base = _cache_counts(info) if info is not None else {}


def _cache_counts(info: dict) -> dict[str, int]:
    """The ``CompilationCache.info()`` counters the per-layer metrics use."""
    return {
        "hits": info["hits"],
        "misses": info["misses"],
        "compilations": info["compilations"],
        "superop_compilations": info["tiers"]["superop"]["compilations"],
    }


@contextlib.contextmanager
def banking_clears(counters: LayerCounters) -> Iterator[None]:
    """Keep the compilation-cache counters across ``clear()`` calls,
    which the workloads make before each operation as a fresh process would."""
    from repro.xtcore.compiled import CompilationCache, compilation_cache

    original = CompilationCache.clear

    def clear(cache: CompilationCache) -> None:
        counters.bank(cache.info())
        original(cache)
        counters.rebase()

    counters.rebase(compilation_cache().info())
    CompilationCache.clear = clear  # type: ignore[method-assign]
    try:
        yield
    finally:
        CompilationCache.clear = original  # type: ignore[method-assign]
        counters.bank(compilation_cache().info())


def entry_points(counters: LayerCounters) -> list[tuple[str, list[Target], Optional[OnCall]]]:
    """The public entry points of each layer, where the workloads import them."""
    from importlib import import_module

    # import_module: some package attributes shadow their submodules
    # (``repro.core.characterize`` is also a function)
    asm = import_module("repro.asm")
    characterize = import_module("repro.core.characterize")
    model = import_module("repro.core.model")
    runner = import_module("repro.core.runner")
    evaluate = import_module("repro.dse.evaluate")
    report = import_module("repro.dse.report")
    space = import_module("repro.dse.space")
    registry = import_module("repro.programs.registry")
    estimator = import_module("repro.rtl.estimator")
    compiled = import_module("repro.xtcore.compiled")

    return [
        (
            "asm.assemble",
            [(asm, "assemble"), (space, "assemble"), (registry, "assemble")],
            None,
        ),
        (
            "tie.build_processor",
            [(space, "build_processor"), (registry, "build_processor")],
            None,
        ),
        ("compiled.get_or_compile", [(compiled.CompilationCache, "get_or_compile")], None),
        (
            "compiled.get_or_compile_superops",
            [(compiled.CompilationCache, "get_or_compile_superops")],
            None,
        ),
        (
            "iss.run_session",
            [(model, "run_session"), (runner, "run_session")],
            counters.on_session,
        ),
        ("rtl.estimate", [(estimator.RtlEnergyEstimator, "estimate")], counters.on_reference),
        (
            "core.extract_variables",
            [(model, "extract_variables"), (runner, "extract_variables")],
            None,
        ),
        ("core.fit", [(characterize.Characterizer, "fit")], None),
        ("batch.run_batch", [(evaluate, "run_batch")], counters.on_batch),
        ("dse.build", [(space.Candidate, "build")], None),
        ("dse.pareto_frontier", [(report, "pareto_frontier")], None),
    ]


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(
    attribution: Attribution,
    calls: dict[str, int],
    counters: LayerCounters,
    untraced_wall_ns: int,
    extra: Optional[dict[str, float]] = None,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced phase (0 where unused)."""
    self_ns = attribution.layer_ns
    simulate_ns = self_ns.get("iss.run_session", 0)
    lookups = counters.hits + counters.misses
    values = {
        "asm.assemble_ms": _ms(self_ns.get("asm.assemble", 0)),
        "asm.calls": calls.get("asm.assemble", 0),
        "tie.build_processor_ms": _ms(self_ns.get("tie.build_processor", 0)),
        "tie.builds": calls.get("tie.build_processor", 0),
        "compiled.compile_ms": _ms(self_ns.get("compiled.get_or_compile", 0)),
        "compiled.compilations": counters.compilations,
        "compiled.superop_compile_ms": _ms(self_ns.get("compiled.get_or_compile_superops", 0)),
        "compiled.superop_compilations": counters.superop_compilations,
        "compiled.hit_rate": share_pct(counters.hits, lookups),
        "iss.simulate_ms": _ms(simulate_ns),
        "iss.retired": counters.retired,
        "iss.mips": counters.retired / (simulate_ns / 1e3) if simulate_ns else 0.0,
        "iss.superop_runs": counters.superop_runs,
        "iss.compiled_runs": counters.compiled_runs,
        "batch.run_batch_ms": _ms(self_ns.get("batch.run_batch", 0)),
        "batch.groups": counters.batch_groups,
        "batch.members": counters.batch_members,
        "rtl.reference_ms": _ms(self_ns.get("rtl.estimate", 0)),
        "rtl.retires": counters.rtl_retires,
        "core.runner.attempts": counters.runner_attempts,
        "core.fit_ms": _ms(self_ns.get("core.fit", 0)),
        "core.extract_ms": _ms(self_ns.get("core.extract_variables", 0)),
        "dse.build_ms": _ms(self_ns.get("dse.build", 0)),
        "dse.pareto_ms": _ms(self_ns.get("dse.pareto_frontier", 0)),
        "trace.wall_ms": _ms(attribution.wall_ns),
        "trace.untraced_wall_ms": _ms(untraced_wall_ns),
        "trace.overhead_pct": (
            100.0 * (attribution.wall_ns - untraced_wall_ns) / untraced_wall_ns
            if untraced_wall_ns
            else 0.0
        ),
        "trace.unattributed_ms": _ms(attribution.unattributed_ns),
        "trace.unattributed_pct": attribution.unattributed_pct,
        "trace.spans": sum(calls.values()),
    }
    values.update(extra or {})
    if values.get("dse.evaluated"):
        values["dse.batched_share"] = share_pct(counters.batch_members, values["dse.evaluated"])
    unknown = set(values) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {metric.name: float(values.get(metric.name, 0.0)) for metric in PER_LAYER}
