"""Host-speed calibration: every reported time is scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over seconds to minutes (other tenants, shared caches, clock
changes).  No run length averages out a drift that lasts minutes, so
each run measures the host as it goes: it times a fixed pure-Python
kernel that uses none of the program's code about every ``INTERVAL_S``,
and each measured time is multiplied by ``REFERENCE_NS`` over the
kernel's median time around it.  A change to the program moves the
measured time and not the kernel, so it shows in full; a host slowdown
moves both, and cancels.

The median kernel run is one the hypervisor did not interrupt, so it
misses the CPU time the host steals from the guest's vCPUs in its busy
phases; a 30 ms serve request often loses some.  Each time is therefore
also multiplied by the share of the guest's runnable CPU time that was
not stolen around it (``/proc/stat``).  In serve runs where the host
stole 1.2-2.6 s of CPU time in 25 s (0.1-0.5 s otherwise), the worker's
simulation rate fell 30% and the tail rose 60% while the median kernel
moved 5-10%.

On a 2-vCPU x86-64 KVM guest the interpreter-heavy ``estimate`` operation
and this kernel moved together (correlation 0.96 over one-second
windows), and the scaled time varied 2.3% where the raw one varied 8.5%;
for the 3.5 s ``characterize`` operation, with samples taken during it,
the correlation was 0.89 and the scaled time varied 5.5% against 10.4%.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import statistics
import threading
import time
from typing import Iterator, Optional

#: Kernel time (ns) that defines the reference speed: about the kernel's
#: median on that guest, so scaled times read close to raw ones.
REFERENCE_NS = 800_000
#: The host is sampled about this often (s).
INTERVAL_S = 0.05
#: A time is scaled by the samples taken within this many seconds of it.
WINDOW_S = 0.05
#: ... and by the share of CPU time the host stole over this many seconds
#: around it (``/proc/stat`` counts in 10 ms ticks).
STEAL_WINDOW_S = 1.0


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next: Optional["_Node"]) -> None:
        self.value = value
        self.next = next


def kernel(n: int = 600) -> int:
    """Fixed interpreter work: dict updates, tuple and object allocation,
    a sort, string formatting and a pointer chase, as the program does."""
    table: dict[int, int] = {}
    items = []
    node = None
    total = 0
    for i in range(n):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + (i ^ key) % 97
        items.append((key, i))
        node = _Node(i, node)
        if i % 7 == 0:
            total += len(f"{key}:{i}")
    items.sort()
    while node is not None:
        total += node.value & 3
        node = node.next
    return total + sum(table.values())


class HostSpeed:
    """Kernel samples over a run: when each started (s, on the caller's
    clock) and how long it took (ns)."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ns: list[float] = []
        #: the guest's CPU ticks at each sample: busy, and stolen by the host
        self.busy: list[int] = []
        self.stolen: list[int] = []

    def sample(self, now: float) -> None:
        # the kernel's allocations must not set off a collection of the
        # program's objects inside the timed run; it frees what it makes
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter_ns()
            kernel()
            self.ns.append(time.perf_counter_ns() - started)
        finally:
            if collecting:
                gc.enable()
        busy, stolen = cpu_ticks()
        self.busy.append(busy)
        self.stolen.append(stolen)
        self.at.append(now)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_NS`` over the median sample within ``WINDOW_S`` of
        ``[start, end]`` (or the nearest sample when none is), times the
        share of CPU time the host did not steal around it."""
        if not self.ns:
            raise ValueError("no host-speed samples")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo < hi:
            kernel_ns = statistics.median(self.ns[lo:hi])
        else:
            kernel_ns = self.ns[min(range(len(self.at)), key=lambda i: abs(self.at[i] - start))]
        lo = bisect.bisect_left(self.at, start - STEAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + STEAL_WINDOW_S)
        return REFERENCE_NS / kernel_ns * (1.0 - self._stolen_share(lo, hi - 1))

    def _stolen_share(self, first: int, last: int) -> float:
        """Share of the guest's runnable CPU time the host stole between
        samples ``first`` and ``last``."""
        if last <= first:
            return 0.0
        stolen = self.stolen[last] - self.stolen[first]
        busy = self.busy[last] - self.busy[first]
        return stolen / (busy + stolen) if busy + stolen > 0 else 0.0

    def paused_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` spent running the kernel."""
        lo = bisect.bisect_left(self.at, start - 1.0)
        hi = bisect.bisect_right(self.at, end)
        return sum(
            max(0.0, min(end, at + ns / 1e9) - max(start, at))
            for at, ns in zip(self.at[lo:hi], self.ns[lo:hi])
        )

    def scale(self, start: float, end: float) -> float:
        """Seconds of work in ``[start, end]``, kernel runs left out, at
        the reference speed."""
        return (end - start - self.paused_s(start, end)) * self.factor(start, end)

    def run_factor(self) -> float:
        """``REFERENCE_NS`` over the median of every sample of the run,
        times the share of CPU time the host did not steal over it."""
        if not self.ns:
            raise ValueError("no host-speed samples")
        return REFERENCE_NS / statistics.median(self.ns) * (
            1.0 - self._stolen_share(0, len(self.ns) - 1)
        )


def cpu_ticks() -> tuple[int, int]:
    """The guest's CPU ticks so far over all CPUs: (busy, stolen by the
    host), from ``/proc/stat``; (0, 0) where there is none."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return user + nice + system + irq + softirq, steal


@contextlib.contextmanager
def sampling(speed: HostSpeed) -> Iterator[HostSpeed]:
    """Sample the host from a background thread, on the ``time.perf_counter``
    clock, while the block runs.

    The thread holds the interpreter lock for the kernel's 1 ms, so it
    also samples during a long operation; ``HostSpeed.scale`` takes that
    pause out of the operation's time.
    """
    stop = threading.Event()

    def run() -> None:
        speed.sample(time.perf_counter())
        while not stop.wait(INTERVAL_S):
            speed.sample(time.perf_counter())

    thread = threading.Thread(target=run, name="hostspeed", daemon=True)
    thread.start()
    try:
        yield speed
    finally:
        stop.set()
        thread.join()
