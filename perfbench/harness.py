"""Measurement loop, set-up probes and run metadata for in-process workloads.

An in-process workload is an object with

* ``setup(seed)`` — everything before the first unit of work;
* ``reset()`` — return to the state a fresh process would be in before
  its first operation (called before each measured phase);
* ``op(index) -> Outcome`` — one operation, deterministic in ``index``;
* ``check() -> list[str]`` — output errors found after measuring;
* ``slo_ms`` — the latency limit of one operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from .hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 3


@dataclasses.dataclass
class Outcome:
    """What one operation did."""

    #: units attempted (samples, estimates, candidates) and how many failed
    attempted: int
    failed: int = 0
    #: units of work for the throughput metric
    work: int = 0
    #: simulated instructions retired
    retired: int = 0


@dataclasses.dataclass
class Phase:
    """One measured phase: per-operation latencies and totals."""

    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    #: per operation: when it started (ns, ``time.perf_counter_ns``)
    starts_ns: list[int] = dataclasses.field(default_factory=list)
    #: per operation: did any of its units fail
    op_failed: list[bool] = dataclasses.field(default_factory=list)
    wall_ns: int = 0
    attempted: int = 0
    failed: int = 0
    work: int = 0
    retired: int = 0

    def add(self, outcome: Outcome, start_ns: int, latency_ns: int) -> None:
        self.latencies_ms.append(latency_ns / 1e6)
        self.starts_ns.append(start_ns)
        self.op_failed.append(outcome.failed > 0)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.work += outcome.work
        self.retired += outcome.retired


def run_phase(
    workload,
    seconds: Optional[float] = None,
    count: Optional[int] = None,
    around: Optional[Callable[[int], object]] = None,
) -> Phase:
    """Run operations 0, 1, ... for ``seconds`` or exactly ``count`` of them.

    ``around(index)`` optionally returns a context manager entered around
    each operation (the traced run's root span).
    """
    workload.reset()
    phase = Phase()
    started = time.perf_counter_ns()
    deadline = started + int((seconds or 0) * 1e9)
    index = 0

    def more() -> bool:
        if count is not None:
            return index < count
        return index == 0 or time.perf_counter_ns() < deadline

    while more():
        before = time.perf_counter_ns()
        if around is None:
            outcome = workload.op(index)
        else:
            with around(index):
                outcome = workload.op(index)
        phase.add(outcome, before, time.perf_counter_ns() - before)
        index += 1
    phase.wall_ns = time.perf_counter_ns() - started
    return phase


def scaled_ms(phase: Phase, host: HostSpeed) -> list[float]:
    """Each operation's latency at the reference host speed, sampled by
    ``hostspeed.sampling`` around the phase."""
    return [
        host.scale(start / 1e9, start / 1e9 + ms / 1e3) * 1e3
        for start, ms in zip(phase.starts_ns, phase.latencies_ms)
    ]


def probe_setup(workload: str, seed: int, host: HostSpeed) -> tuple[list[float], list[float]]:
    """Seconds from process start until the workload could begin, per probe,
    as measured and at the reference host speed (sampled by
    ``hostspeed.sampling`` around the probes).

    Each probe is a fresh interpreter running this benchmark's set-up for
    the workload and reporting ``ready`` on stdout.
    """
    samples, scaled = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        samples.append(elapsed)
        scaled.append(elapsed * host.factor(started, started + elapsed))
    return samples, scaled


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """sha256 over the program's source files (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> Optional[str]:
    """HEAD of this checkout, or None outside a git checkout of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def run_metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
