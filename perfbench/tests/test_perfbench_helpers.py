"""Percentiles, span arithmetic, host-speed scaling, the open loop and seed plumbing."""

from __future__ import annotations

import asyncio
import json
import random
import time
import types
from typing import Optional

import pytest

from perfbench import hostspeed
from perfbench.harness import Outcome, Phase, scaled_ms
from perfbench.hostspeed import REFERENCE_NS, HostSpeed
from perfbench.openloop import paced_arrivals, run_open_loop
from perfbench.stats import median, tail_percentile
from perfbench.tracing import ROOT, Span, SpanRecorder, attribute, patched, self_times


class TestTailPercentile:
    def test_p99_when_ten_samples_lie_beyond_it(self):
        samples = list(range(1, 1001))
        tail = tail_percentile(samples)
        assert (tail.value, tail.pct, tail.count) == (990, 99.0, 1000)
        assert sum(1 for s in samples if s > tail.value) == 10

    def test_steps_down_to_keep_ten_samples_beyond(self):
        samples = list(range(1, 501))
        tail = tail_percentile(samples)
        assert tail.value == 490 and tail.pct == 98.0
        assert sum(1 for s in samples if s > tail.value) == 10

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 301))
        random.Random(3).shuffle(samples)
        assert tail_percentile(samples).value == 290

    def test_too_few_samples_report_the_maximum(self):
        tail = tail_percentile([5.0, 1.0, 3.0, 2.0])
        assert (tail.value, tail.pct, tail.count) == (5.0, 100.0, 4)
        assert tail_percentile(list(range(20))).value == 19

    def test_never_reports_a_tail_at_or_below_the_median(self):
        for n in range(1, 60):
            samples = list(range(n))
            assert tail_percentile(samples).value >= median(samples).value

    def test_median_counts_samples(self):
        assert median([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail_percentile([])


def _spans() -> list[Span]:
    # root 0..100 ─┬─ a 10..50 ── b 20..30
    #              └─ c 60..90
    return [
        Span(ROOT, 0, 100, None, 7),
        Span("a", 10, 50, 0, 7),
        Span("b", 20, 30, 1, 7),
        Span("c", 60, 90, 0, 7),
    ]


class TestSelfTime:
    def test_self_time_is_duration_minus_direct_children(self):
        assert self_times(_spans()) == {ROOT: 30, "a": 30, "b": 10, "c": 30}

    def test_self_times_sum_to_the_roots_duration(self):
        assert sum(self_times(_spans()).values()) == 100

    def test_root_self_time_and_gaps_are_unattributed(self):
        attribution = attribute(_spans(), wall_ns=120)
        assert attribution.layer_ns == {"a": 30, "b": 10, "c": 30}
        assert attribution.unattributed_ns == 50
        assert attribution.unattributed_pct == pytest.approx(100 * 50 / 120)


class TestRecorder:
    def test_patched_records_nested_spans_and_restores(self):
        class Cache:
            def lookup(self, key):
                return key * 2

        module = types.SimpleNamespace(
            outer=lambda cache, key: cache.lookup(key) + 1,
        )
        original_outer, original_lookup = module.outer, Cache.__dict__["lookup"]
        seen = []
        recorder = SpanRecorder()
        entries = [
            ("outer", [(module, "outer")], None),
            ("lookup", [(Cache, "lookup")], lambda args, kwargs, result: seen.append(result)),
        ]
        with patched(recorder, entries):
            with recorder.span(ROOT, request_id=3):
                assert module.outer(Cache(), 5) == 11
        assert module.outer is original_outer
        assert Cache.__dict__["lookup"] is original_lookup
        assert seen == [10]
        names = [(span.name, span.parent, span.request_id) for span in recorder.spans]
        assert names == [(ROOT, None, 3), ("outer", 0, 3), ("lookup", 1, 3)]
        assert all(span.end >= span.start for span in recorder.spans)

    def test_spans_are_written_once_as_json(self, tmp_path):
        recorder = SpanRecorder()
        with recorder.span(ROOT, request_id=1):
            pass
        path = tmp_path / "spans.json"
        recorder.write(str(path))
        payload = json.loads(path.read_text())
        assert payload["fields"] == ["name", "start_ns", "end_ns", "parent", "request_id"]
        assert payload["spans"][0][0] == ROOT and payload["spans"][0][4] == 1


def _speed(samples: dict[float, float], stolen: Optional[dict[float, int]] = None) -> HostSpeed:
    """Samples at the given times; the host steals ``stolen[at]`` of the
    100 ticks the guest's CPUs ran since the previous sample."""
    stolen = stolen or {}
    speed = HostSpeed()
    for at, ns in sorted(samples.items()):
        speed.at.append(at)
        speed.ns.append(ns)
        speed.stolen.append((speed.stolen[-1] if speed.stolen else 0) + stolen.get(at, 0))
        speed.busy.append((speed.busy[-1] if speed.busy else 0) + 100 - stolen.get(at, 0))
    return speed


class TestHostSpeed:
    def test_a_time_on_a_host_at_half_speed_scales_to_half(self):
        speed = _speed({0.0: 2 * REFERENCE_NS, 0.5: 2 * REFERENCE_NS})
        assert speed.factor(0.1, 0.2) == 0.5

    def test_factor_is_the_median_of_the_samples_near_the_time(self):
        window = hostspeed.WINDOW_S
        speed = _speed({
            0.0: REFERENCE_NS,
            10.0: 2 * REFERENCE_NS, 10.2: 4 * REFERENCE_NS, 10.4: 4 * REFERENCE_NS,
            20.0: REFERENCE_NS,
        })
        assert speed.factor(10.0 - window / 2, 10.4) == 0.25
        # a long operation takes in every sample around it
        assert speed.factor(0.0, 20.0) == 0.5

    def test_nearest_sample_when_none_is_within_the_window(self):
        speed = _speed({0.0: REFERENCE_NS, 100.0: 4 * REFERENCE_NS})
        assert speed.factor(90.0, 91.0) == 0.25

    def test_run_factor_is_over_the_median_sample(self):
        speed = _speed({0.0: REFERENCE_NS, 1.0: 2 * REFERENCE_NS, 2.0: 4 * REFERENCE_NS})
        assert speed.run_factor() == 0.5

    def test_time_the_host_stole_is_left_out(self):
        # a quarter of the CPU time around 10 s was stolen
        speed = _speed({9.5: REFERENCE_NS, 10.0: REFERENCE_NS, 10.5: REFERENCE_NS},
                       stolen={10.0: 25, 10.5: 25})
        assert speed.factor(10.0, 10.01) == pytest.approx(0.75)
        assert speed.run_factor() == pytest.approx(0.75)
        assert _speed({0.0: REFERENCE_NS, 0.5: REFERENCE_NS}).run_factor() == 1.0

    def test_the_guest_cpu_ticks_only_grow(self):
        busy, stolen = hostspeed.cpu_ticks()
        later = hostspeed.cpu_ticks()
        assert later[0] >= busy >= 0 and later[1] >= stolen >= 0

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            HostSpeed().factor(0.0, 1.0)

    def test_kernel_time_inside_an_operation_is_left_out(self):
        # a 0.8 ms kernel run starting 1 ms into a 4 ms operation
        speed = _speed({0.001: REFERENCE_NS})
        assert speed.paused_s(0.0, 0.004) == pytest.approx(0.0008)
        assert speed.paused_s(0.002, 0.004) == 0.0
        assert speed.scale(0.0, 0.004) == pytest.approx(0.0032)

    def test_each_operation_scales_by_the_host_speed_around_it(self):
        speed = _speed({-0.01: REFERENCE_NS, 9.99: 2 * REFERENCE_NS})
        phase = Phase()
        phase.add(Outcome(attempted=1), start_ns=0, latency_ns=4_000_000)
        phase.add(Outcome(attempted=1), start_ns=10_000_000_000, latency_ns=4_000_000)
        assert scaled_ms(phase, speed) == pytest.approx([4.0, 2.0])

    def test_sampling_runs_until_the_block_ends(self):
        speed = HostSpeed()
        with hostspeed.sampling(speed):
            time.sleep(3 * hostspeed.INTERVAL_S)
        taken = len(speed.ns)
        assert taken >= 2
        assert all(ns > 0 for ns in speed.ns) and speed.at == sorted(speed.at)
        time.sleep(2 * hostspeed.INTERVAL_S)
        assert len(speed.ns) == taken


class TestPacedArrivals:
    def test_one_arrival_per_slot_at_the_exact_rate(self):
        arrivals = paced_arrivals(random.Random(1), rate=50.0, seconds=4.0)
        assert len(arrivals) == 200
        assert all(slot / 50.0 <= due < (slot + 1) / 50.0 for slot, due in enumerate(arrivals))

    def test_same_seed_same_arrivals(self):
        first = paced_arrivals(random.Random(9), 30.0, 2.0)
        assert first == paced_arrivals(random.Random(9), 30.0, 2.0)
        assert first != paced_arrivals(random.Random(10), 30.0, 2.0)


async def _slow_server(delay: float):
    """An HTTP/1.1 keep-alive server answering every POST after ``delay``."""

    async def handle(reader, writer):
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = next(
                    int(line.split(b":")[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                )
                await reader.readexactly(length)
                await asyncio.sleep(delay)
                body = b'{"ok": true}'
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


class TestOpenLoop:
    def test_latency_is_timed_from_due_time(self):
        async def scenario():
            server = await _slow_server(0.05)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_open_loop(
                    "127.0.0.1", port, [0.0, 0.001], [b"{}", b"{}"], connections=1, timeout=5
                )
            finally:
                server.close()
                await server.wait_closed()

        first, second = asyncio.run(scenario())
        assert first.status == second.status == 200
        assert first.payload == {"ok": True}
        # one connection: the second request waits behind the first, and
        # that wait counts against it
        assert first.latency >= 0.05
        assert second.latency >= 0.095
        assert second.done - first.done >= 0.045

    def test_generator_lag_is_recorded(self):
        async def scenario():
            server = await _slow_server(0.0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_open_loop(
                    "127.0.0.1", port, [0.0, 0.01, 0.02], [b"{}"] * 3, connections=2, timeout=5
                )
            finally:
                server.close()
                await server.wait_closed()

        records = asyncio.run(scenario())
        assert len(records) == 3
        assert all(0.0 <= record.lag < 0.5 for record in records)
        assert [record.due for record in records] == sorted(record.due for record in records)

    def test_host_is_sampled_only_while_no_request_is_outstanding(self):
        speed = HostSpeed()

        async def scenario():
            server = await _slow_server(0.15)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_open_loop(
                    "127.0.0.1", port, [0.0, 0.5], [b"{}"] * 2, connections=1, timeout=5,
                    sample=speed.sample,
                )
            finally:
                server.close()
                await server.wait_closed()

        records = asyncio.run(scenario())
        assert speed.at
        assert not any(
            record.due < at < record.done for record in records for at in speed.at
        )

    def test_unreachable_server_counts_as_dropped(self):
        async def scenario():
            server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            return await run_open_loop("127.0.0.1", port, [0.0], [b"{}"], 1, timeout=2)

        (record,) = asyncio.run(scenario())
        assert record.status is None
