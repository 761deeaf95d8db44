"""Characterization pass cost: one ISS pass per sample with the RTL observer.

A characterization sample (paper Fig. 2, steps 1-8) is one
``run_session`` with the reference estimator's streaming observer
attached: the execution statistics and the reference energy come out of
the same pass.  This benchmark records

* the pass split over the suite — simulate+reference, extract
  (``extract_variables``) and fit (``Characterizer.fit``);
* ``reference_cost_ratio``: what the switching-activity walk adds on top
  of the simulation it rides on, relative to that simulation::

      (suite with the RTL observer - suite with a no-op retire observer)
      / suite with the no-op observer

  Both runs take the same instrumented dispatch path and populate the
  same retire events (the no-op observer also asks for results), so the
  difference is the walk itself.  The two are interleaved round by round
  over ``ROUNDS`` rounds, and the ratio is taken between their minimum
  times, the runs least disturbed by a busy host; the per-round ratios
  are recorded too.  Being a ratio of two measurements on one host, it
  holds on a slower machine.

Run as a script to (re)generate ``BENCH_CHARACTERIZE.json`` at the repo
root:

    PYTHONPATH=src python benchmarks/bench_characterize.py

or as a smoke check on a subset of the suite:

    PYTHONPATH=src python benchmarks/bench_characterize.py \\
        --programs tp01_alu_mix tv06_dsp_all tv12_bit_all \\
        --output /tmp/char.json --check

``--check`` fails when ``reference_cost_ratio`` exceeds
``MAX_REFERENCE_COST_RATIO``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

from repro.core import Characterizer, extract_variables
from repro.obs import SimObserver, run_session
from repro.programs import characterization_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = ROOT / "BENCH_CHARACTERIZE.json"

#: ``--check`` gate on ``reference_cost_ratio``, calibrated on ``ROUNDS``.
MAX_REFERENCE_COST_RATIO = 4.5

#: Interleaved rounds per measurement; the gate takes the min of these.
ROUNDS = 5


class NoOpRetireObserver(SimObserver):
    """Takes every retire event, with results, and does nothing with it."""

    wants_retire = True
    needs_result = True

    def on_retire(self, event) -> None:
        pass


def _git_sha() -> str:
    """The checkout's commit, suffixed ``-dirty`` when it has local changes."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cases(names):
    cases = characterization_suite(include_variants=True)
    if names:
        by_name = {case.name: case for case in cases}
        unknown = [name for name in names if name not in by_name]
        if unknown:
            raise SystemExit(f"unknown program(s): {', '.join(unknown)}")
        cases = [by_name[name] for name in names]
    return [(case.name, *case.build(), case.max_instructions) for case in cases]


def _suite_seconds(cases, make_observer) -> float:
    start = time.perf_counter()
    for _, config, program, budget in cases:
        run_session(config, program, observers=(make_observer(config),), max_instructions=budget)
    return time.perf_counter() - start


def reference_cost(cases) -> dict:
    """Interleaved no-op vs RTL-observer suite runs; per-round ratios."""
    estimator_for = Characterizer()._estimator_for

    def rtl_observer(config):
        return estimator_for(config).observer()

    def noop_observer(config):
        return NoOpRetireObserver()

    # warm the compilation cache, the netlists and the charge plans
    _suite_seconds(cases, noop_observer)
    _suite_seconds(cases, rtl_observer)
    ratios, noop_s, rtl_s = [], [], []
    for round_index in range(ROUNDS):
        if round_index % 2:
            rtl = _suite_seconds(cases, rtl_observer)
            noop = _suite_seconds(cases, noop_observer)
        else:
            noop = _suite_seconds(cases, noop_observer)
            rtl = _suite_seconds(cases, rtl_observer)
        noop_s.append(noop)
        rtl_s.append(rtl)
        ratios.append((rtl - noop) / noop)
    return {
        "reference_cost_ratio": round((min(rtl_s) - min(noop_s)) / min(noop_s), 3),
        "round_ratios": [round(ratio, 3) for ratio in ratios],
        "noop_suite_s": [round(value, 4) for value in noop_s],
        "rtl_suite_s": [round(value, 4) for value in rtl_s],
    }


def pass_split(cases) -> tuple[dict, int]:
    """Best-of-rounds seconds per stage of the characterization pass.

    ``Characterizer.add_program`` runs simulate+reference and extract;
    extract is timed again on the collected statistics and subtracted.
    Also returns the suite's retired-instruction count.
    """
    best = {"simulate_reference_s": float("inf"), "extract_s": float("inf"), "fit_s": float("inf")}
    for _ in range(ROUNDS):
        characterizer = Characterizer()
        start = time.perf_counter()
        for _, config, program, budget in cases:
            characterizer.add_program(config, program, budget)
        sampled = time.perf_counter() - start
        start = time.perf_counter()
        for sample, (_, config, _, _) in zip(characterizer.samples, cases):
            extract_variables(sample.stats, config, characterizer.template)
        extract = time.perf_counter() - start
        start = time.perf_counter()
        characterizer.fit()
        fit = time.perf_counter() - start
        for key, value in zip(best, (sampled - extract, extract, fit)):
            best[key] = min(best[key], value)
    retired = sum(sample.stats.total_instructions for sample in characterizer.samples)
    return {key: round(value, 4) for key, value in best.items()}, retired


def run(names) -> dict:
    cases = _cases(names)
    split, retired = pass_split(cases)
    return {
        "benchmark": "characterize_pass",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        "git_sha": _git_sha(),
        "programs": len(cases),
        "retired_instructions": retired,
        "rounds": ROUNDS,
        "pass": split,
        "reference_cost": reference_cost(cases),
        "gate": {"max_reference_cost_ratio": MAX_REFERENCE_COST_RATIO},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--programs",
        nargs="*",
        default=None,
        help="suite program names to measure (default: the full suite)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help="where to write the JSON payload (default: repo-root BENCH_CHARACTERIZE.json)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero if reference_cost_ratio exceeds {MAX_REFERENCE_COST_RATIO}",
    )
    args = parser.parse_args(argv)

    payload = run(args.programs)
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    split = payload["pass"]
    cost = payload["reference_cost"]
    print(
        f"{payload['programs']} programs, {payload['retired_instructions']} retires: "
        f"simulate+reference {split['simulate_reference_s']:.3f}s, "
        f"extract {split['extract_s']:.3f}s, fit {split['fit_s']:.3f}s"
    )
    print(
        f"reference_cost_ratio {cost['reference_cost_ratio']:.2f} "
        f"(per round {cost['round_ratios']}; gate <= {MAX_REFERENCE_COST_RATIO})"
    )
    if args.check and cost["reference_cost_ratio"] > MAX_REFERENCE_COST_RATIO:
        print(
            f"FAIL: reference_cost_ratio {cost['reference_cost_ratio']:.2f} > "
            f"{MAX_REFERENCE_COST_RATIO}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
