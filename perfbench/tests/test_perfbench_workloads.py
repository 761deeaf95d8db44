"""Seed plumbing, the metric contract, and traced runs end to end."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

from perfbench import run
from perfbench.estimate import request_stream
from perfbench.harness import run_metadata
from perfbench.layers import PER_LAYER
from perfbench.serve import make_mix
from perfbench.sources import Estimator, bundled_sources, salted

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _mix_bytes(seed: int) -> tuple[list[float], list[bytes]]:
    mix = make_mix(seed, seconds=3.0, rate=40.0, sources=bundled_sources())
    return mix.arrivals, [request.body() for request in mix.requests + mix.pool]


class TestSeedPlumbing:
    def test_same_seed_same_request_bodies(self):
        assert _mix_bytes(5) == _mix_bytes(5)

    def test_other_seed_other_request_bodies(self):
        first, second = _mix_bytes(5), _mix_bytes(6)
        assert first[0] != second[0]
        assert first[1] != second[1]

    def test_mix_shares(self):
        mix = make_mix(2, seconds=5.0, rate=40.0, sources=bundled_sources())
        kinds = [request.kind for request in mix.requests]
        assert len(kinds) == 200
        assert (kinds.count("spin"), kinds.count("oneoff")) == (10, 50)
        assert {request.max_instructions for request in mix.requests if request.kind == "spin"} == {
            200_000
        }

    def test_estimate_salts_follow_the_seed(self):
        first = list(islice(request_stream(1, 35), 100))
        assert first == list(islice(request_stream(1, 35), 100))
        assert first != list(islice(request_stream(2, 35), 100))
        # every source once per 35 requests
        assert sorted(which for which, _ in first[:35]) == list(range(35))

    def test_salt_changes_the_program_not_its_work(self):
        from perfbench.reference import load_model, load_reference

        estimator = Estimator(load_model())
        stored = load_reference()["estimate"]
        for source in bundled_sources()[::7]:
            text = salted(source.source, 0x5A17)
            plain = estimator.program(source.name, source.source, source.extensions)
            salty = estimator.program(source.name, text, source.extensions)
            assert plain.digest() != salty.digest()
            estimate = estimator.estimate(
                source.name, text, source.extensions, source.max_instructions
            )
            assert [estimate.energy, estimate.cycles] == stored[source.name]

    def test_metadata_fields(self):
        meta = run_metadata(4)
        assert meta["seed"] == 4
        assert {"git_sha", "source_digest", "python", "platform", "cpu_count"} <= set(meta)


class TestContract:
    def test_end_to_end_metrics_match_benchmark_json(self):
        declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
        assert declared == run.END_TO_END

    def test_per_layer_metrics_match_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
        assert declared == [(m.name, m.unit, m.better) for m in PER_LAYER]

    def test_readme_states_what_each_layer_metric_should_move(self):
        readme = (ROOT / "perfbench" / "README.md").read_text()
        for m in PER_LAYER:
            assert f"| `{m.name}` | {m.unit} | {m.better} | {m.moves} | {m.workload} |" in readme

    def test_workloads_match_benchmark_json(self):
        assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "estimate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert done.stdout == ""


def _traced(workload: str, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, seconds", [("estimate", 4), ("explore", 4), ("characterize", 6)])
def test_traced_self_times_cover_the_wall_time(workload, seconds):
    result = _traced(workload, seconds)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert set(metrics) == {metric.name for metric in PER_LAYER}
    assert metrics["trace.unattributed_pct"] <= 10.0
    assert metrics["trace.unattributed_ms"] == pytest.approx(
        metrics["trace.wall_ms"] * metrics["trace.unattributed_pct"] / 100.0
    )
