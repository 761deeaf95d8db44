"""``serve``: an open loop against a ``repro serve`` subprocess.

The server runs with one fork worker.  One client (this process) keeps
at most ``CONNECTIONS`` keep-alive connections and sends a seeded mix,
paced at a fixed offered rate, in a repeating pattern of 20 slots:

* 70% repeats, drawn zipf(1.1) from a pool of 16 bundled sources, each
  requested once untimed before timing starts (memo hits);
* 25% one-off salted sources (parent-side assembly, the batch window,
  worker compile and simulation);
* 5% repeats of two ``j``-spin programs with a 200k budget, which no
  server may answer 200.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from .estimate import request_stream
from .harness import OUT, ROOT, SETUP_REPEATS, SRC
from .hostspeed import HostSpeed, sampling
from .openloop import Record, paced_arrivals, run_open_loop
from .reference import MODEL_PATH, load_model, load_reference
from .sources import BundledSource, Estimator, bundled_sources, salted
from .tracing import ROOT as ROOT_SPAN

#: Offered load in requests/s.  The closed-loop capacity of this mix with
#: ``CONNECTIONS`` connections is 137 req/s (``python3 -m perfbench.serve
#: --capacity`` on a 2-core x86-64 KVM guest, Python 3.11); at half of
#: that the median sat on the knee of the queueing curve and moved by 40%
#: between runs, so the rate stays below it.
OFFERED_RATE = 40.0
CONNECTIONS = 2
POOL_SIZE = 16
ZIPF_S = 1.1
#: The kind of each request slot, repeated over the run: 5% spins, 25%
#: one-offs, 70% repeats.  The pattern is fixed so that runs differ only
#: in timing jitter and in which programs are drawn.  One-offs come 250 ms
#: and more after each spin: a one-off queued behind a spin waits for the
#: spin's remainder, and that difference of two host-speed-dependent
#: times, or a chain of one-offs behind a slow spin, made the tail swing
#: by 30-100% between runs.  Spins still cost the worker a full
#: simulation each; ``serve.spin_p50_ms`` and the failed-simulation
#: counts of the per-layer run show that cost.
PATTERN = "S.........O.O.O.O.O."
KINDS = {"S": "spin", "O": "oneoff", ".": "repeat"}
SPIN_BUDGET = 200_000
SPINS = (
    ("spin_a", "main:\n    j main\n"),
    ("spin_b", "main:\n    movi a2, 7\nspin:\n    addi a2, a2, 1\n    j spin\n"),
)
#: latency limit, from due time, for ``slo_met_pct``
SLO_MS = 50.0
REQUEST_TIMEOUT_S = 10.0
STARTUP_TIMEOUT_S = 60.0


@dataclasses.dataclass(frozen=True)
class Request:
    kind: str  # "repeat", "oneoff" or "spin"
    name: str
    source: str
    extensions: tuple[str, ...]
    max_instructions: int

    def body(self) -> bytes:
        return json.dumps(
            {
                "program": {"name": self.name, "source": self.source},
                "extensions": list(self.extensions),
                "max_instructions": self.max_instructions,
            },
            sort_keys=True,
        ).encode()


def _bundled(source: BundledSource, text: str, kind: str) -> Request:
    return Request(kind, source.name, text, source.extensions, source.max_instructions)


@dataclasses.dataclass
class Mix:
    arrivals: list[float]
    requests: list[Request]
    #: the repeat pool, requested once before timing starts
    pool: list[Request]


def make_mix(seed: int, seconds: float, rate: float, sources: list[BundledSource]) -> Mix:
    """The arrivals and request bodies of one run: a function of the seed.

    The request count and the kind of each slot are fixed, so seeds
    differ in arrival times and in which programs are drawn.
    """
    rng = random.Random(f"serve:{seed}")
    pool = [_bundled(sources[i], sources[i].source, "repeat")
            for i in rng.sample(range(len(sources)), POOL_SIZE)]
    weights = [1.0 / rank**ZIPF_S for rank in range(1, POOL_SIZE + 1)]
    arrivals = paced_arrivals(rng, rate, seconds)
    oneoffs = request_stream(seed, len(sources))
    requests = []
    for slot in range(len(arrivals)):
        kind = KINDS[PATTERN[slot % len(PATTERN)]]
        if kind == "spin":
            name, text = SPINS[rng.randrange(len(SPINS))]
            requests.append(Request("spin", name, text, (), SPIN_BUDGET))
        elif kind == "oneoff":
            which, salt = next(oneoffs)
            source = sources[which]
            requests.append(_bundled(source, salted(source.source, salt), "oneoff"))
        else:
            requests.append(rng.choices(pool, weights)[0])
    return Mix(arrivals, requests, pool)


class Server:
    """One ``repro serve`` subprocess in its own process group."""

    def __init__(self, tag: str) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.port_file = OUT / f"serve-{os.getpid()}-{tag}.port"
        self.log_path = OUT / f"serve-{os.getpid()}-{tag}.log"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start the server; returns seconds until ``/healthz`` answered 200."""
        self.port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(MODEL_PATH), "--port", "0",
                 "--port-file", str(self.port_file), "--workers", "1"],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while time.perf_counter() - started < STARTUP_TIMEOUT_S:
            if self.process.poll() is not None:
                tail = self.log_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server exited early:\n{tail}")
            if not self.port:
                text = self.port_file.read_text() if self.port_file.exists() else ""
                self.port = int(text) if text.strip() else 0
            if self.port and self._healthy():
                return time.perf_counter() - started
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy")

    def _healthy(self) -> bool:
        try:
            return self.request("GET", "/healthz")[0] == 200
        except OSError:
            return False

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body, headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its worker processes."""
        pids = [self.process.pid]
        task_dir = Path(f"/proc/{self.process.pid}/task")
        for task in task_dir.iterdir():
            children = (task / "children").read_text().split()
            pids.extend(int(pid) for pid in children)
        total_kib = 0
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGTERM the group, then SIGKILL whatever is left; wait for all."""
        if self.process is None:
            return
        group = self.process.pid
        try:
            os.killpg(group, signal.SIGTERM)
            self.process.wait(timeout=15)
        except (ProcessLookupError, subprocess.TimeoutExpired):
            pass
        deadline = time.monotonic() + 5
        try:
            os.killpg(group, signal.SIGKILL)
            self.process.wait()
            while time.monotonic() < deadline:  # forked workers are not our children
                os.killpg(group, 0)
                time.sleep(0.01)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process = None
        self.port_file.unlink(missing_ok=True)
        self.log_path.unlink(missing_ok=True)


def _metric_counts(metrics: dict) -> dict[str, float]:
    counters, simulation = metrics["counters"], metrics["simulation"]
    return {
        "memo_hits": counters["memo_hits_total"],
        "coalesced": counters["coalesced_total"],
        "rejected": counters["rejected_total"],
        "batches": counters["batches_dispatched"],
        "batched_requests": counters["batched_requests"],
        "runs_started": simulation["runs_started"],
        "runs_finished": simulation["runs_finished"],
        "instructions": simulation["instructions"],
        "sim_seconds": simulation["sim_seconds"],
    }


@dataclasses.dataclass
class ServeRun:
    setup_samples: list[float]
    #: the same, at the reference host speed
    setup_scaled: list[float]
    #: host-speed samples taken during the open loop, on its clock
    speed: HostSpeed
    peak_rss_mb: float
    records: list[Record]
    mix: Mix
    before: dict
    after: dict
    server_latency: dict


def run_load(seed: int, seconds: float, rate: float = OFFERED_RATE) -> ServeRun:
    """Start the server (``SETUP_REPEATS`` times), warm the pool, run the loop.

    The host speed is sampled by a background thread during the starts,
    and during the loop whenever no request is outstanding.
    """
    mix = make_mix(seed, seconds, rate, bundled_sources())
    samples, scaled = [], []
    setup_speed, speed = HostSpeed(), HostSpeed()
    server = None
    try:
        with sampling(setup_speed):
            for attempt in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server = Server(str(attempt))
                started = time.perf_counter()
                elapsed = server.start()
                samples.append(elapsed)
                scaled.append(elapsed * setup_speed.factor(started, started + elapsed))
        for request in mix.pool:
            server.request("POST", "/estimate", request.body())
        before = server.request("GET", "/metrics")[1]
        records = asyncio.run(
            run_open_loop("127.0.0.1", server.port, mix.arrivals,
                          [request.body() for request in mix.requests],
                          CONNECTIONS, REQUEST_TIMEOUT_S, speed.sample)
        )
        after = server.request("GET", "/metrics")[1]
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    return ServeRun(samples, scaled, speed, rss, records, mix, _metric_counts(before),
                    _metric_counts(after), after["latency"]["estimate"])


def expected_answers(requests: list[Request]) -> dict[tuple, tuple[float, int]]:
    """In-process ``model.estimate`` of every distinct non-spin program."""
    estimator = Estimator(load_model())
    answers = {}
    for request in requests:
        key = (request.source, request.extensions)
        if request.kind != "spin" and key not in answers:
            estimate = estimator.estimate(request.name, request.source, request.extensions,
                                          request.max_instructions)
            answers[key] = (estimate.energy, estimate.cycles)
    return answers


@dataclasses.dataclass
class Judged:
    """Each request's verdict: answered correctly, and within the SLO."""

    wrong: list[str]
    failed: int
    latencies_ms: list[float]  # non-spin requests, from due time
    scaled_ms: list[float]  # the same, at the reference host speed
    slo_met: int
    non_spin: int
    spin_latencies_ms: list[float]  # spin requests, from due time


def judge(run: ServeRun) -> Judged:
    answers = expected_answers(run.mix.requests)
    stored = load_reference()["estimate"]
    wrong, failed, latencies, scaled, slo_met, non_spin, spins = [], 0, [], [], 0, 0, []
    for request, record in zip(run.mix.requests, run.records):
        payload = record.payload if isinstance(record.payload, dict) else {}
        if request.kind == "spin":
            spins.append(record.latency * 1e3)
            if record.status == 200:
                wrong.append(f"spin {request.name} answered 200")
            elif record.status is None or "error" not in payload:
                failed += 1
            continue
        non_spin += 1
        latencies.append(record.latency * 1e3)
        latency_ms = record.latency * 1e3 * run.speed.factor(record.due, record.done)
        scaled.append(latency_ms)
        if record.status != 200:
            failed += 1
            continue
        served = (payload.get("energy"), payload.get("cycles"))
        in_process = answers[(request.source, request.extensions)]
        if served != in_process or served != tuple(stored[request.name]):
            wrong.append(f"{request.name}: served {served} != in-process {in_process} "
                         f"or stored {stored[request.name]}")
            continue
        if latency_ms <= SLO_MS:
            slo_met += 1
    return Judged(wrong, failed, latencies, scaled, slo_met, non_spin, spins)


def replay_request_path(requests: list[Request], recorder=None) -> int:
    """Nanoseconds to push the bodies through the server's request path
    in-process: JSON parse, ``parse_estimate``, ``resolve_workload`` and
    ``request_key``, with the server's per-process program memo."""
    from repro.dse.cache import model_digest
    from repro.serve import api, pool

    pool._worker_init(load_model())
    pool._WORKER["programs"].clear()
    digest = model_digest(pool._WORKER["model"])

    def parse(body: bytes):
        return api.parse_estimate(json.loads(body))

    resolve, key = pool.resolve_workload, api.request_key
    if recorder is not None:
        parse = recorder.wrap("serve.parse_estimate", parse)
        resolve = recorder.wrap("serve.resolve_workload", resolve)
        key = recorder.wrap("serve.request_key", key)
    bodies = [request.body() for request in requests]
    started = time.perf_counter_ns()
    for index, body in enumerate(bodies):
        with recorder.span(ROOT_SPAN, request_id=index) if recorder else contextlib.nullcontext():
            _request_path(body, parse, resolve, key, digest)
    return time.perf_counter_ns() - started


def _request_path(body: bytes, parse, resolve, key, digest: str) -> str:
    req = parse(body)
    item = {"name": req.name, "source": req.source, "extensions": list(req.extensions),
            "max_instructions": req.max_instructions}
    config, program = resolve(item)
    return key(digest, config, program, req.max_instructions)


def closed_loop_capacity(requests: int = 1000, seed: int = 0) -> float:
    """Completed requests/s of this mix with ``CONNECTIONS`` closed-loop clients.

    All requests fall due within half a second, so every connection stays
    busy and the open loop degenerates into a closed one.
    """
    burst_rate = 2.0 * requests
    run = run_load(seed, requests / burst_rate, rate=burst_rate)
    answered = [record for record in run.records if record.status is not None]
    span = max(record.done for record in answered) - min(record.due for record in answered)
    return len(answered) / span


if __name__ == "__main__":
    if "--capacity" in sys.argv:
        capacities = [closed_loop_capacity(seed=seed) for seed in range(3)]
        print(f"closed-loop capacity: {statistics.median(capacities):.1f} req/s "
              f"(runs: {', '.join(f'{c:.1f}' for c in capacities)})")
