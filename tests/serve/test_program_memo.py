"""The worker's memo of assembled inline programs: exact keys, bounded."""

import pytest

from repro.serve import pool

from .conftest import TINY_SOURCE


@pytest.fixture()
def fresh_worker(serve_model, monkeypatch):
    monkeypatch.setattr(pool, "_WORKER", {})
    pool._worker_init(serve_model)
    return pool._WORKER


def _item(source, extensions=()):
    return {"name": "memo", "source": source, "extensions": list(extensions)}


def _variant(n: int) -> str:
    return TINY_SOURCE.replace("movi a2, 6", f"movi a2, {n}")


def test_same_source_returns_the_same_program(fresh_worker):
    _, first = pool.resolve_workload(_item(TINY_SOURCE))
    _, again = pool.resolve_workload(_item(TINY_SOURCE))
    assert again is first


def test_different_sources_never_share_an_entry(fresh_worker, monkeypatch):
    # even when the old key, hash(source), collides
    monkeypatch.setattr("builtins.hash", lambda value: 0)
    _, a = pool.resolve_workload(_item(_variant(3)))
    _, b = pool.resolve_workload(_item(_variant(4)))
    assert a is not b
    assert a.digest() != b.digest()
    assert len(fresh_worker["programs"]) == 2


def test_extensions_are_part_of_the_key(fresh_worker):
    _, plain = pool.resolve_workload(_item(TINY_SOURCE))
    _, extended = pool.resolve_workload(_item(TINY_SOURCE, ["mul16"]))
    assert plain is not extended


def test_memo_stays_at_its_bound(fresh_worker):
    bound = pool.PROGRAM_MEMO_SIZE
    for n in range(bound + 10):
        pool.resolve_workload(_item(_variant(n)))
    programs = fresh_worker["programs"]
    assert len(programs) == bound
    # least recently used went first: the oldest ten are gone
    assert (_variant(9), ()) not in programs
    assert (_variant(10), ()) in programs


def test_racing_threads_share_one_program_per_source(fresh_worker, monkeypatch):
    import sys
    import threading

    monkeypatch.setattr(pool, "PROGRAM_MEMO_SIZE", 8)
    sources = [_variant(n) for n in range(12)]  # more sources than the bound
    seen: dict[str, set] = {source: set() for source in sources}
    errors = []

    def worker(offset: int) -> None:
        try:
            for i in range(200):
                source = sources[(offset + i) % len(sources)]
                _, program = pool.resolve_workload(_item(source))
                seen[source].add(program.digest())
        except Exception as exc:  # noqa: BLE001 — surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # every source always resolved to its own program, never a neighbour's
    assert all(len(digests) == 1 for digests in seen.values())
    assert len({digests.pop() for digests in seen.values()}) == len(sources)
    assert len(fresh_worker["programs"]) <= 8
