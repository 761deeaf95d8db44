"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes the separate traced run that measures the
per-layer ones.  Every output is checked; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and a wrong output exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run as a script: import the package by name, and the program from src/
if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
    sys.path.pop(0)
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

WORKLOADS = ("characterize", "estimate", "explore", "serve")

#: name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
    "sim_mips": "Minstr/s",
    "slo_met_pct": "%",
}


def _workload(name: str):
    """A fresh in-process workload object (``serve`` runs out of process)."""
    from perfbench import characterize, estimate, explore

    return {
        "characterize": characterize.CharacterizeWorkload,
        "estimate": estimate.EstimateWorkload,
        "explore": explore.ExploreWorkload,
    }[name]()


def _emit(report: dict, correct: bool, attempted: int, failed: int, values: dict, units: dict):
    print(json.dumps({"report": report}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def _write_spans(recorder, workload: str, seed: int) -> None:
    from perfbench.harness import OUT

    OUT.mkdir(parents=True, exist_ok=True)
    recorder.write(str(OUT / f"spans-{workload}-{seed}.json"))


def _latency_report(latencies_ms: list[float]) -> dict:
    from perfbench.stats import median, tail_percentile

    p50, tail = median(latencies_ms), tail_percentile(latencies_ms)
    return {"p50_ms": p50.value, "tail_ms": tail.value, "tail_pct": tail.pct, "samples": tail.count}


def run_in_process(name: str, seed: int, seconds: float, trace: bool, meta: dict) -> int:
    from perfbench.harness import peak_rss_mb, probe_setup, run_phase, scaled_ms
    from perfbench.hostspeed import HostSpeed, sampling
    from perfbench.layers import PER_LAYER, LayerCounters, banking_clears, entry_points, layer_metrics
    from perfbench.stats import share_pct
    from perfbench.tracing import ROOT as ROOT_SPAN
    from perfbench.tracing import SpanRecorder, attribute, call_counts, patched

    workload = _workload(name)
    if not trace:
        host = HostSpeed()
        with sampling(host):
            setup_samples, setup_scaled = probe_setup(name, seed, host)
            workload.setup(seed)
            phase = run_phase(workload, seconds=seconds)
        errors = workload.check()
        latencies_ms = scaled_ms(phase, host)
        busy_s = sum(latencies_ms) / 1e3
        latency = _latency_report(latencies_ms)
        slo_met = sum(
            1 for ms, bad in zip(latencies_ms, phase.op_failed)
            if not bad and ms <= workload.slo_ms
        )
        values = {
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb(),
            "ok_pct": share_pct(phase.attempted - phase.failed, phase.attempted),
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency["tail_ms"],
            "throughput_per_s": phase.work / busy_s,
            "sim_mips": phase.retired / (busy_s * 1e6),
            "slo_met_pct": share_pct(slo_met, len(latencies_ms)),
        }
        report = {**meta, "latency": latency, "raw_latency": _latency_report(phase.latencies_ms),
                  "host_factor": host.run_factor(), "host_samples": len(host.ns),
                  "setup_samples_s": setup_samples,
                  "operations": len(phase.latencies_ms), "errors": errors}
        return _emit(report, not errors, phase.attempted, phase.failed, values, END_TO_END)

    workload.setup(seed)
    untraced = run_phase(workload, seconds=seconds / 2)
    counters, recorder = LayerCounters(), SpanRecorder()
    with patched(recorder, entry_points(counters)), banking_clears(counters):
        traced = run_phase(
            workload,
            count=len(untraced.latencies_ms),
            around=lambda index: recorder.span(ROOT_SPAN, request_id=index),
        )
    errors = workload.check()
    attribution = attribute(recorder.spans, traced.wall_ns)
    values = layer_metrics(attribution, call_counts(recorder.spans), counters,
                           untraced.wall_ns, workload.layer_extra(traced))
    _write_spans(recorder, name, seed)
    report = {**meta, "operations": len(traced.latencies_ms), "errors": errors,
              "unattributed_ms": values["trace.unattributed_ms"],
              "unattributed_pct": values["trace.unattributed_pct"]}
    units = {metric.name: metric.unit for metric in PER_LAYER}
    return _emit(report, not errors, untraced.attempted + traced.attempted,
                 untraced.failed + traced.failed, values, units)


def run_serve(seed: int, seconds: float, trace: bool, meta: dict) -> int:
    from perfbench import serve
    from perfbench.layers import PER_LAYER, LayerCounters, layer_metrics
    from perfbench.stats import median, share_pct, tail_percentile
    from perfbench.tracing import SpanRecorder, attribute, call_counts

    run = serve.run_load(seed, seconds)
    judged = serve.judge(run)
    attempted = len(run.records)
    answered = [record for record in run.records if record.status is not None]
    window = max(record.done for record in answered) - min(record.due for record in answered)
    delta = {key: run.after[key] - run.before[key] for key in run.after}
    latency = _latency_report(judged.scaled_ms)
    lag = tail_percentile([record.lag * 1e3 for record in run.records])
    report = {**meta, "latency": latency, "raw_latency": _latency_report(judged.latencies_ms),
              "host_factor": run.speed.run_factor(), "host_samples": len(run.speed.ns),
              "setup_samples_s": run.setup_samples,
              "requests": attempted, "offered_rate": serve.OFFERED_RATE,
              "generator_lag_ms": {"value": lag.value, "pct": lag.pct, "samples": lag.count},
              "errors": judged.wrong[:5], "server_delta": delta}
    correct = not judged.wrong
    if not trace:
        values = {
            "setup_s": statistics.median(run.setup_scaled),
            "peak_rss_mb": run.peak_rss_mb,
            "ok_pct": share_pct(attempted - judged.failed - len(judged.wrong), attempted),
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency["tail_ms"],
            "throughput_per_s": len(answered) / window,
            "sim_mips": (
                delta["instructions"] / delta["sim_seconds"] / 1e6 / run.speed.run_factor()
            ),
            "slo_met_pct": share_pct(judged.slo_met, judged.non_spin),
        }
        return _emit(report, correct, attempted, judged.failed, values, END_TO_END)

    untraced_ns = serve.replay_request_path(run.mix.requests)
    recorder = SpanRecorder()
    traced_ns = serve.replay_request_path(run.mix.requests, recorder)
    attribution = attribute(recorder.spans, traced_ns)
    _write_spans(recorder, "serve", seed)
    dedup = [record.payload.get("dedup") for record in run.records
             if isinstance(record.payload, dict)]
    started = delta["runs_started"]
    extra = {
        "serve.request_path_ms": attribution.attributed_ns / 1e6,
        "serve.memo_hits": delta["memo_hits"],
        "serve.coalesced": delta["coalesced"],
        "serve.fresh": dedup.count("fresh"),
        "serve.simulations": started,
        "serve.failed_simulations": started - delta["runs_finished"],
        "serve.wasted_sim_share": share_pct(started - delta["runs_finished"], started),
        "serve.worker_sim_s": delta["sim_seconds"],
        "serve.spin_p50_ms": median(judged.spin_latencies_ms).value,
        "serve.batches": delta["batches"],
        "serve.mean_batch_size": (
            delta["batched_requests"] / delta["batches"] if delta["batches"] else 0.0
        ),
        "serve.server_p50_ms": run.server_latency["p50_ms"],
        "serve.server_p95_ms": run.server_latency["p95_ms"],
        "serve.rejected": delta["rejected"],
        "serve.generator_lag_p99_ms": lag.value,
    }
    values = layer_metrics(attribution, call_counts(recorder.spans), LayerCounters(),
                           untraced_ns, extra)
    report.update(unattributed_ms=values["trace.unattributed_ms"],
                  unattributed_pct=values["trace.unattributed_pct"])
    units = {metric.name: metric.unit for metric in PER_LAYER}
    return _emit(report, correct, attempted, judged.failed, values, units)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _workload(args.workload).setup(args.seed)
        print("ready", flush=True)
        return 0
    from perfbench.harness import run_metadata

    meta = {"workload": args.workload, **run_metadata(args.seed)}
    if args.workload == "serve":
        return run_serve(args.seed, args.seconds, bool(args.trace), meta)
    return run_in_process(args.workload, args.seed, args.seconds, bool(args.trace), meta)


if __name__ == "__main__":
    sys.exit(main())
