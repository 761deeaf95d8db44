"""Open-loop load generation over keep-alive HTTP/1.1 connections.

Requests are due on a fixed schedule whatever the server does; each one
is timed from its due time, so a stall also charges the requests that
queued behind it.  A dispatcher releases each request at its due time
and records how late it ran (the generator lag); a fixed number of
connections carry them in due order.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import random
from typing import Callable, Optional, Sequence

from .hostspeed import INTERVAL_S


def paced_arrivals(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Due offsets (seconds from start) at ``rate``/s: one arrival at a
    seeded uniform point in each ``1/rate`` slot, so the rate is exact and
    bursts stay short."""
    return [(slot + rng.random()) / rate for slot in range(round(rate * seconds))]


@dataclasses.dataclass
class Record:
    """One request's fate; times are seconds on the event loop clock."""

    due: float
    #: how late the dispatcher released it
    lag: float
    done: float = 0.0
    #: HTTP status, or None when the request timed out or the connection dropped
    status: Optional[int] = None
    payload: object = None

    @property
    def latency(self) -> float:
        """Seconds from due time to the response."""
        return self.done - self.due


class HttpConnection:
    """A minimal keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def post(self, path: str, body: bytes) -> tuple[int, object]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by server")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = (await self.reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        raw = await self.reader.readexactly(length)
        if not keep_alive:
            await self.close()
        return status, json.loads(raw) if raw else None

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def run_open_loop(
    host: str,
    port: int,
    arrivals: Sequence[float],
    bodies: Sequence[bytes],
    connections: int,
    timeout: float,
    sample: Optional[Callable[[float], None]] = None,
) -> list[Record]:
    """POST ``bodies[i]`` to ``/estimate`` at ``arrivals[i]``; returns one
    record per request.

    ``sample(now)`` (a host-speed sample, ``now`` on the event loop clock)
    is called about every ``INTERVAL_S`` at a moment when no request is
    outstanding, so the server is idle and does not compete with it.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    records: list[Optional[Record]] = [None] * len(bodies)
    ready: asyncio.Queue = asyncio.Queue()
    outstanding = 0
    finished = False

    async def dispatch() -> None:
        nonlocal outstanding
        for index, offset in enumerate(arrivals):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            records[index] = Record(due=due, lag=loop.time() - due)
            outstanding += 1
            ready.put_nowait(index)
        for _ in range(connections):
            ready.put_nowait(None)

    async def carry() -> None:
        nonlocal outstanding
        connection = HttpConnection(host, port)
        try:
            while (index := await ready.get()) is not None:
                record = records[index]
                try:
                    record.status, record.payload = await asyncio.wait_for(
                        connection.post("/estimate", bodies[index]), timeout
                    )
                except (asyncio.TimeoutError, ConnectionError, EOFError, OSError, ValueError):
                    await connection.close()  # the next request reconnects
                record.done = loop.time()
                outstanding -= 1
        finally:
            await connection.close()

    async def sample_host() -> None:
        while not finished:
            await asyncio.sleep(INTERVAL_S)
            while outstanding and not finished:
                await asyncio.sleep(0.002)
            if not finished:
                sample(loop.time())

    sampler = asyncio.ensure_future(sample_host()) if sample is not None else None
    try:
        await asyncio.gather(dispatch(), *(carry() for _ in range(connections)))
    finally:
        finished = True
        if sampler is not None:
            await sampler
    return [record for record in records if record is not None]
