"""End-to-end discovery acceptance on the characterized model.

These tests mirror the paper's closed loop: profile the software
baseline, mine and legalize candidate instructions, rewrite + verify,
then score with the energy macro-model — and require the *discovered*
extensions to land within 20% of the hand-written ones.
"""

import pytest

from repro.discover import (
    DiscoveryError,
    DiscoveryManifest,
    DiscoveryOptions,
    discover_workload,
    register_discovered,
)
from repro.dse.space import get_space

pytestmark = pytest.mark.slow


def _handwritten_edp(context, case):
    config, program = case.build()
    estimate = context.model.estimate(config, program)
    return float(estimate.energy) * int(estimate.cycles)


@pytest.fixture(scope="module")
def fir_report(experiment_context):
    return discover_workload("fir", experiment_context.model, DiscoveryOptions())


@pytest.fixture(scope="module")
def rs_report(experiment_context):
    return discover_workload(
        "reed_solomon", experiment_context.model, DiscoveryOptions()
    )


class TestFirAcceptance:
    def test_mines_and_legalizes_enough(self, fir_report):
        assert fir_report.mined >= 5
        assert len(fir_report.legal) >= 5

    def test_candidates_verified_and_scored(self, fir_report):
        assert fir_report.evaluated, fir_report.failures
        best = fir_report.evaluated[0]
        assert best.cycles < fir_report.baseline_cycles
        assert best.edp < fir_report.baseline_edp

    def test_best_within_20pct_of_handwritten(self, fir_report, experiment_context):
        from repro.programs.fir import fir_mac

        handwritten = _handwritten_edp(experiment_context, fir_mac())
        best = fir_report.evaluated[0].edp
        assert best <= 1.20 * handwritten, (
            f"discovered EDP {best:.4g} vs hand-written fir_mac {handwritten:.4g}"
        )


class TestReedSolomonAcceptance:
    def test_mines_and_legalizes_enough(self, rs_report):
        assert rs_report.mined >= 5
        assert len(rs_report.legal) >= 5

    def test_candidates_verified_and_scored(self, rs_report):
        assert rs_report.evaluated, rs_report.failures
        best = rs_report.evaluated[0]
        assert best.cycles < rs_report.baseline_cycles
        assert best.edp < rs_report.baseline_edp

    def test_best_within_20pct_of_handwritten(self, rs_report, experiment_context):
        from repro.programs.reed_solomon import rs_gfmac

        handwritten = _handwritten_edp(experiment_context, rs_gfmac())
        best = rs_report.evaluated[0].edp
        assert best <= 1.20 * handwritten, (
            f"discovered EDP {best:.4g} vs hand-written rs_gfmac {handwritten:.4g}"
        )


class TestManifestIntegration:
    def test_manifest_round_trips_and_registers(self, fir_report):
        manifest = fir_report.manifest()
        clone = DiscoveryManifest.from_json(manifest.to_json())
        assert [e.mnemonic for e in clone.entries] == [
            e.mnemonic for e in manifest.entries
        ]

        name = register_discovered(clone)
        assert name == "discovered:fir"
        space = get_space(name)
        assert space.size > 0

    def test_registered_space_builds_points(self, fir_report):
        name = register_discovered(fir_report.manifest())
        space = get_space(name)
        # the first point is the pure-software baseline configuration;
        # the last uses a discovered extension
        for index in (0, space.size - 1):
            config, program = space.build(space.assignment_at(index))
            assert program.instructions


class TestErrors:
    def test_unknown_workload_rejected(self, smoke_model):
        with pytest.raises(DiscoveryError, match="unknown workload"):
            discover_workload("quake", smoke_model, DiscoveryOptions())
