"""Batched multi-config simulation: one program, N processors, one pass.

The dominant DSE/serving workload evaluates the *same* program across
many :class:`~repro.xtcore.config.ProcessorConfig` variants that differ
only in cache geometry, pipeline penalties, clock or energy-relevant
hardware — never in what the instructions *do*.  Within such a
**semantic partition** (equal :func:`semantic_fingerprint`) the dynamic
execution trajectory is config-independent: the same ops retire in the
same order with the same branch outcomes, memory addresses and
load-use interlocks, because register/memory contents only depend on
instruction semantics, the register-file size and custom-state init
values.  Timing and energy differ purely through the passive cache
models and the per-class cycle attribution.

:func:`run_batch` exploits that split:

1. **Record** — execute the program once through the shared dispatch
   loop (:func:`repro.xtcore.iss._dispatch`, superop blocks fused at the
   batch's finest line shifts) with list appends in place of the cache
   models, capturing the per-op retire/taken counters, the interlock
   count, and the I-fetch / D-access address streams deduped at the
   *finest* line granularity present in the batch.  A coarser line
   cannot change where its own same-line transitions fall: equal fine
   lines imply equal coarse lines, so every coarse-grain transition is
   preserved in the fine-grain stream.
2. **Replay** — per config, push the recorded streams through that
   config's own :class:`~repro.xtcore.caches.SetAssociativeCache` pair
   (with the same same-line memo the dispatch loops use) to obtain its
   miss counts.
3. **Aggregate** — fold the shared counters plus the per-config miss
   counts through :func:`repro.xtcore.iss._aggregate_stats` against each
   config's own compiled lowering (issue latencies and branch penalties
   are per-config), yielding stats bitwise identical to running that
   config alone.

The returned results share one final :class:`~repro.isa.MachineState`
(the trajectory is shared, so the architectural outcome is too).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .caches import SetAssociativeCache
from .compiled import compilation_cache, compile_superops, line_shift
from .config import DEFAULT_MAX_INSTRUCTIONS, ProcessorConfig, semantic_fingerprint
from .errors import SimulationError
from .iss import SimulationResult, Simulator, _aggregate_stats, _dispatch

if TYPE_CHECKING:  # pragma: no cover
    from ..asm import Program

__all__ = ["run_batch", "semantic_fingerprint"]

def _replay_stream(stream: list[int], cache: SetAssociativeCache) -> int:
    """Misses when ``cache`` sees ``stream``, with the same-line memo applied."""
    access = cache.access
    shift = cache.offset_bits
    last = -1
    misses = 0
    for addr in stream:
        line = addr >> shift
        if line != last:
            last = line
            if not access(addr):
                misses += 1
    return misses


def run_batch(
    configs: Sequence[ProcessorConfig],
    program: "Program",
    *,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    entry: int | None = None,
) -> list[SimulationResult]:
    """Run ``program`` across ``configs`` in one execution pass.

    All configs must belong to one semantic partition (equal
    :func:`semantic_fingerprint`), or :class:`SimulationError` is raised
    before anything executes.  Results are ordered like ``configs`` and
    bitwise identical — stats and final state — to running each config
    individually; the final :class:`~repro.isa.MachineState` object is
    shared across all results.  Execution faults (wild jumps, budget
    expiry, semantics errors) are trajectory properties, so they raise
    once for the whole batch, exactly as a solo ``superop`` run raises
    them.
    """
    if not configs:
        return []
    partitions = {semantic_fingerprint(config) for config in configs}
    if len(partitions) != 1:
        raise SimulationError(
            f"batch of {len(configs)} configs spans {len(partitions)} semantic "
            f"partitions; run_batch requires one (group by semantic_fingerprint)"
        )
    cache = compilation_cache()
    lead = Simulator(configs[0], program)
    state = lead._reset(entry)
    min_ishift = min(line_shift(config.icache) for config in configs)
    min_dshift = min(line_shift(config.dcache) for config in configs)
    superops = compile_superops(lead.executable, min_ishift, min_dshift)
    ifetch: list[int] = []
    daccess: list[int] = []
    counts, taken_counts, interlocks, _, _ = _dispatch(
        lead.executable,
        superops.block_at,
        state,
        max_instructions,
        ifetch.append,
        daccess.append,
        min_ishift,
        min_dshift,
    )

    results: list[SimulationResult] = []
    for config in configs:
        executable = cache.get_or_compile(config, program)
        icache_misses = _replay_stream(ifetch, SetAssociativeCache(config.icache, "icache"))
        dcache_misses = _replay_stream(daccess, SetAssociativeCache(config.dcache, "dcache"))
        stats = _aggregate_stats(
            config,
            executable,
            counts,
            taken_counts,
            icache_misses,
            dcache_misses,
            interlocks,
        )
        results.append(
            SimulationResult(
                program=program,
                config=config,
                stats=stats,
                state=state,
                engine="batch",
            )
        )
    return results
