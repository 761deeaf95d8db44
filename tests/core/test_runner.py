"""Fault-tolerant characterization runner tests (error isolation, retry,
checkpoint/resume, degradation policy)."""

import os

import numpy as np
import pytest

from repro.asm import assemble
from repro.core import (
    CharacterizationRunError,
    CharacterizationRunner,
    Characterizer,
    CheckpointError,
    CoverageLossError,
    RetryPolicy,
    RunnerTask,
    TooManyFailures,
    characterize,
)
from repro.core.runner import as_task
from repro.testing import FaultPlan, corrupt_checkpoint, hanging_task
from repro.xtcore import build_processor

pytestmark = pytest.mark.faults


_SOURCES = {
    "arith": "main:\n    movi a2, 60\nl:\n    add a3, a3, a2\n    xor a3, a3, a2\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
    "loads": "    .data\nb: .space 256\n    .text\nmain:\n    la a2, b\n    movi a3, 40\nl:\n    l32i a4, a2, 0\n    s32i a4, a2, 4\n    addi a2, a2, 4\n    addi a3, a3, -1\n    bnez a3, l\n    halt\n",
    "logic": "main:\n    movi a2, 30\nl:\n    sub a4, a3, a2\n    or a3, a3, a4\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
    "shifts": "main:\n    movi a2, 20\n    movi a3, 3\nl:\n    slli a4, a3, 2\n    srli a5, a4, 1\n    add a3, a3, a5\n    addi a2, a2, -1\n    bnez a2, l\n    halt\n",
}


@pytest.fixture(scope="module")
def base_tasks():
    config = build_processor("runner-base")
    return [
        RunnerTask.from_pair(config, assemble(source, name, isa=config.isa))
        for name, source in _SOURCES.items()
    ]


def _runner(characterizer=None, plan=None, **kwargs):
    characterizer = characterizer if characterizer is not None else Characterizer()
    if plan is not None:
        kwargs.setdefault("simulate", plan.wrap_session())
        kwargs.setdefault("estimate_energy", plan.wrap_estimate())
    return CharacterizationRunner(characterizer, **kwargs)


class TestRetryPolicy:
    def test_budget_lowered_per_attempt(self):
        policy = RetryPolicy(max_attempts=3, budget_factor=0.5)
        assert policy.budget_for(1, 1000) == 1000
        assert policy.budget_for(2, 1000) == 500
        assert policy.budget_for(3, 1000) == 250

    def test_budget_never_below_one(self):
        assert RetryPolicy(budget_factor=0.5).budget_for(2, 1) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="budget_factor"):
            RetryPolicy(budget_factor=0.0)
        with pytest.raises(ValueError, match="budget_factor"):
            RetryPolicy(budget_factor=1.5)


class TestTaskCoercion:
    def test_pair_and_task_pass_through(self, base_tasks):
        task = base_tasks[0]
        assert as_task(task) is task
        config = build_processor("coerce")
        program = assemble(_SOURCES["arith"], "arith", isa=config.isa)
        coerced = as_task((config, program))
        assert coerced.name == "arith"

    def test_case_like_objects_adapt(self):
        from repro.programs import characterization_suite

        case = characterization_suite(include_variants=False)[0]
        task = as_task(case)
        assert task.name == case.name
        assert task.max_instructions == case.max_instructions

    def test_garbage_rejected(self):
        with pytest.raises(TypeError, match="task"):
            as_task(42)


class TestErrorIsolation:
    def test_permanent_simulator_fault_contained(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan).run(base_tasks)
        assert [f.name for f in report.failures] == ["arith"]
        failure = report.failures[0]
        assert failure.stage == "simulate"
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFault"
        assert {s.name for s in report.samples} == {"loads", "logic", "shifts"}
        assert "arith" in report.summary()

    def test_transient_fault_recovered_by_retry(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith", times=1)
        report = _runner(plan=plan).run(base_tasks)
        assert report.ok
        assert {s.name for s in report.samples} == set(_SOURCES)
        assert plan.injected == [("arith", "sim-error")]

    def test_nan_and_inf_energy_contained(self, base_tasks):
        plan = FaultPlan().nan_energy("loads").inf_energy("logic")
        report = _runner(plan=plan).run(base_tasks)
        assert {f.name for f in report.failures} == {"loads", "logic"}
        assert all(f.stage == "validate" for f in report.failures)
        assert all("non-finite energy" in f.message for f in report.failures)
        # surviving samples are clean
        assert all(np.isfinite(s.energy) for s in report.samples)

    def test_transient_nan_energy_recovered(self, base_tasks):
        plan = FaultPlan().nan_energy("loads", times=1)
        report = _runner(plan=plan).run(base_tasks)
        assert report.ok

    def test_hanging_program_contained_by_budget(self, base_tasks):
        report = _runner().run(base_tasks + [hanging_task()])
        assert [f.name for f in report.failures] == ["fault_hang"]
        failure = report.failures[0]
        assert failure.error_type == "SimulationLimitExceeded"
        assert failure.attempts == 2
        assert len(report.samples) == len(base_tasks)

    def test_build_failure_contained_not_retried(self, base_tasks):
        def broken_build():
            raise RuntimeError("assembly exploded")

        bad = RunnerTask(name="broken", builder=broken_build)
        report = _runner().run([bad] + base_tasks)
        failure = report.failures[0]
        assert failure.stage == "build"
        assert failure.attempts == 1
        assert len(report.samples) == len(base_tasks)

    def test_acceptance_two_injected_faults_fit_from_survivors(self, base_tasks):
        """Acceptance: >=2 injected programs; run completes, reports a
        structured summary, and fits from the surviving samples."""
        plan = FaultPlan().fail_simulation("arith").nan_energy("loads")
        report = _runner(plan=plan).run(base_tasks)
        assert len(report.failures) == 2
        assert report.result is not None
        assert report.result.model.coefficients.shape == (21,)
        summary = report.summary()
        assert "2 failure(s)" in summary
        assert "InjectedFault" in summary
        assert "non-finite energy" in summary


class TestMaxFailures:
    def test_abort_when_budget_exceeded(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith").fail_simulation("loads")
        with pytest.raises(TooManyFailures, match="max_failures=0"):
            _runner(plan=plan, max_failures=0).run(base_tasks)

    def test_budget_counts_only_failures(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan, max_failures=1).run(base_tasks)
        assert len(report.failures) == 1
        assert report.result is not None

    def test_checkpoint_survives_abort(self, base_tasks, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        # tasks run in order: arith, loads, logic(fails), shifts never runs
        plan = FaultPlan().fail_simulation("logic")
        with pytest.raises(TooManyFailures):
            _runner(
                plan=plan, max_failures=0, checkpoint_path=ckpt, checkpoint_every=1
            ).run(base_tasks)
        fresh = Characterizer()
        assert fresh.load_samples(ckpt) == 2
        assert [s.name for s in fresh.samples] == ["arith", "loads"]


class TestCheckpointing:
    def test_checkpoint_written_and_loadable(self, base_tasks, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan, checkpoint_path=ckpt, checkpoint_every=2).run(
            base_tasks
        )
        assert os.path.exists(ckpt)
        assert not os.path.exists(ckpt + ".tmp")  # atomic write cleaned up
        fresh = Characterizer()
        assert fresh.load_samples(ckpt) == len(report.samples)
        import json

        payload = json.loads(open(ckpt).read())
        assert [f["name"] for f in payload["failures"]] == ["arith"]

    def test_resume_skips_completed_samples(self, base_tasks, tmp_path):
        ckpt = str(tmp_path / "ckpt.json")
        _runner(checkpoint_path=ckpt).run(base_tasks[:2], fit=False)

        resumed_runner = _runner(checkpoint_path=ckpt)
        restored = resumed_runner.resume()
        assert restored == ["arith", "loads"]
        report = resumed_runner.run(base_tasks)
        assert report.resumed == ["arith", "loads"]
        assert [s.name for s in report.samples] == ["arith", "loads", "logic", "shifts"]

    def test_killed_then_resumed_matches_uninterrupted(self, base_tasks, tmp_path):
        """Acceptance: resuming from a mid-run checkpoint reproduces the
        uninterrupted run's coefficients exactly."""
        uninterrupted = _runner().run(base_tasks)

        ckpt = str(tmp_path / "ckpt.json")
        _runner(checkpoint_path=ckpt, checkpoint_every=1).run(
            base_tasks[:2], fit=False
        )  # "killed" after two samples
        resumed_runner = _runner(checkpoint_path=ckpt)
        resumed_runner.resume()
        resumed = resumed_runner.run(base_tasks)
        assert np.array_equal(
            resumed.result.model.coefficients,
            uninterrupted.result.model.coefficients,
        )

    def test_resume_without_checkpoint_is_noop(self, tmp_path):
        runner = _runner(checkpoint_path=str(tmp_path / "missing.json"))
        assert runner.resume() == []
        assert _runner().resume() == []

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_resume_from_corrupted_checkpoint_is_actionable(
        self, base_tasks, tmp_path, mode
    ):
        ckpt = str(tmp_path / "ckpt.json")
        _runner(checkpoint_path=ckpt).run(base_tasks[:2], fit=False)
        corrupt_checkpoint(ckpt, mode)
        with pytest.raises(CheckpointError, match="cannot resume"):
            _runner(checkpoint_path=ckpt).resume()

    def test_resume_rejects_foreign_template(self, base_tasks, tmp_path):
        from repro.core import instruction_level_template

        ckpt = str(tmp_path / "ckpt.json")
        _runner(checkpoint_path=ckpt).run(base_tasks[:2], fit=False)
        other = CharacterizationRunner(
            Characterizer(template=instruction_level_template()),
            checkpoint_path=ckpt,
        )
        with pytest.raises(CheckpointError, match="template"):
            other.resume()


class TestDegradation:
    def test_strict_mode_raises_on_coverage_loss(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        with pytest.raises(CoverageLossError) as excinfo:
            _runner(plan=plan, degradation="strict").run(base_tasks)
        assert excinfo.value.lost_variables  # names the unexercised variables
        assert "rank" in str(excinfo.value)

    def test_strict_mode_tolerates_inadequate_but_failure_free_suite(self, base_tasks):
        # the mini suite never spans the 21-variable template, but without
        # failures that is the suite designer's problem, not a degradation
        report = _runner(degradation="strict").run(base_tasks)
        assert report.result is not None

    def test_warn_mode_never_raises_on_coverage(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith")
        report = _runner(plan=plan, degradation="warn").run(base_tasks)
        assert report.coverage is not None
        assert not report.coverage.is_adequate

    def test_all_samples_failing_raises(self, base_tasks):
        plan = FaultPlan()
        for name in _SOURCES:
            plan.fail_simulation(name)
        with pytest.raises(CharacterizationRunError, match="no samples survived"):
            _runner(plan=plan).run(base_tasks)

    def test_unknown_degradation_mode_rejected(self):
        with pytest.raises(ValueError, match="degradation"):
            CharacterizationRunner(degradation="yolo")


class TestCharacterizeIntegration:
    def test_characterize_routes_through_runner_when_asked(
        self, base_tasks, tmp_path
    ):
        config = build_processor("ch-int")
        runs = [
            (config, assemble(source, name, isa=config.isa))
            for name, source in _SOURCES.items()
        ]
        ckpt = str(tmp_path / "ckpt.json")
        tolerant = characterize(runs, checkpoint_path=ckpt, max_failures=2)
        legacy = characterize(runs)
        assert os.path.exists(ckpt)
        assert np.allclose(tolerant.model.coefficients, legacy.model.coefficients)


class TestSinglePass:
    def test_one_untraced_session_with_one_rtl_observer_per_sample(self, base_tasks):
        from repro.obs import run_session
        from repro.rtl.estimator import RtlEnergyObserver

        calls = []

        def counting_session(config, program, **kwargs):
            calls.append((program.name, kwargs))
            return run_session(config, program, **kwargs)

        report = _runner(simulate=counting_session).run(base_tasks, fit=False)
        assert report.ok
        assert [name for name, _ in calls] == [task.name for task in base_tasks]
        for _, kwargs in calls:
            assert not kwargs.get("collect_trace", False)
            observers = kwargs["observers"]
            assert len(observers) == 1
            assert isinstance(observers[0], RtlEnergyObserver)

    def test_retry_reruns_the_single_pass_only(self, base_tasks):
        plan = FaultPlan().fail_simulation("arith", times=1)
        calls = []
        session = plan.wrap_session()

        def counting_session(config, program, **kwargs):
            calls.append(program.name)
            return session(config, program, **kwargs)

        report = _runner(simulate=counting_session).run(base_tasks[:1], fit=False)
        assert report.ok
        assert calls == ["arith", "arith"]
