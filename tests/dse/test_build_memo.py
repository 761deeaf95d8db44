"""One build per implementation: reserved axes derived from a build memo.

The tuned spaces cross a few implementations with cache-geometry knobs;
the engine builds and lowers each implementation once per exploration
and derives the geometry (and operating-point) variants from it.  These
tests pin that the derived design points score bit for bit like a solo
build-and-estimate, that the builder and the compiler run once per
implementation, and that the on-disk cache keys did not move.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.dse.space as space_module
from repro.dse import (
    CACHE_GEOMETRY_KNOBS,
    ExhaustiveStrategy,
    Knob,
    SearchSpace,
    SpaceError,
    candidate_cache_key,
    explore,
    get_space,
    with_cache_geometry,
    with_operating_points,
)
from repro.dse.evaluate import EvaluationEngine
from repro.rtl import generate_netlist
from repro.xtcore import DEFAULT_MAX_INSTRUCTIONS, compilation_cache

from .conftest import make_toy_space

POINTS = ("90nm@1.2V@600MHz", "65nm@1.1V@800MHz")


def _solo(model, candidate) -> tuple:
    """Score one design point alone: fresh build, solo simulation."""
    config, program = candidate.build()
    point_model = model.at(candidate.assignment_dict.get("operating_point"))
    estimate = point_model.estimate(config, program)
    return (
        estimate.energy,
        estimate.cycles,
        generate_netlist(config).custom_area,
        config.name,
        program.name,
    )


def assert_engine_matches_solo(model, space: SearchSpace) -> None:
    candidates = list(space.candidates())
    scores = EvaluationEngine(model, space).evaluate(candidates)
    assert [score.key for score in scores] == [c.key for c in candidates]
    for candidate, score in zip(candidates, scores):
        got = (
            score.energy,
            score.cycles,
            score.area,
            score.processor_name,
            score.program_name,
        )
        assert got == _solo(model, candidate), candidate.key


class TestDerivedPointsScoreLikeSoloRuns:
    @pytest.mark.parametrize("name", ["reed_solomon_tuned", "fir_tuned"])
    def test_tuned_space(self, synthetic_model, name):
        assert_engine_matches_solo(synthetic_model, get_space(name))

    def test_dvfs_over_a_tuned_space(self, synthetic_model):
        space = with_operating_points(get_space("fir_tuned"), POINTS)
        assert_engine_matches_solo(synthetic_model, space)


class TestOneBuildPerImplementation:
    def test_builder_and_compiler_run_once_per_implementation(
        self, synthetic_model, monkeypatch
    ):
        calls = []
        original = space_module._build_impl_point

        def counting(workload, assignment):
            calls.append(assignment["impl"])
            return original(workload, assignment)

        monkeypatch.setattr(space_module, "_build_impl_point", counting)
        space = get_space("reed_solomon_tuned")
        cache = compilation_cache()
        cache.clear()
        report = explore(synthetic_model, space, ExhaustiveStrategy())
        assert report.evaluated == space.size == 108
        assert sorted(calls) == ["dual", "gfmac", "gfmul", "sw"]
        assert cache.compilations == 4

        # a second exploration in the same process pays its own builds
        explore(synthetic_model, space, ExhaustiveStrategy())
        assert len(calls) == 8

    def test_fir_tuned_compiles_three_times(self, synthetic_model):
        cache = compilation_cache()
        cache.clear()
        explore(synthetic_model, get_space("fir_tuned"), ExhaustiveStrategy())
        assert cache.compilations == 3

    def test_memo_builds_content_identical_pairs(self):
        space = with_operating_points(get_space("fir_tuned"), POINTS)
        memo: dict = {}
        for candidate in space.candidates():
            config, program = candidate.build(memo)
            fresh_config, fresh_program = candidate.build()
            assert config.fingerprint() == fresh_config.fingerprint()
            assert (config.name, config.icache, config.dcache) == (
                fresh_config.name,
                fresh_config.icache,
                fresh_config.dcache,
            )
            assert (program.name, program.digest()) == (
                fresh_program.name,
                fresh_program.digest(),
            )
        assert sorted(memo) == ["impl=mac", "impl=packed", "impl=sw"]

    def test_a_plain_space_memoizes_its_points(self):
        space = make_toy_space()
        memo: dict = {}
        first = [candidate.build(memo) for candidate in space.candidates()]
        again = [candidate.build(memo) for candidate in space.candidates()]
        assert all(a is b for a, b in zip(first, again))
        assert sorted(memo) == sorted(candidate.key for candidate in space.candidates())

    def test_a_space_needs_a_builder_or_an_inner_space(self):
        with pytest.raises(SpaceError, match="needs either"):
            SearchSpace("s", "d", (Knob("n", (1,)),))


#: sha256 over ``candidate_cache_key`` (model digest "0"*64) of every
#: candidate, in enumeration order — the keys the on-disk result cache
#: stored before cache geometry became a reserved axis.
CACHE_KEY_DIGESTS = {
    "reed_solomon_tuned": "f883a103c66134eb1606c178de92f1faf8e41f1cc3f052ee7f4d6e098a0d7793",
    "fir_tuned": "d2b2066039b695ff72b64ac78bc5f9616d82896831599fdd75cf2287abe1cc49",
}


class TestCacheKeysUnchanged:
    @pytest.mark.parametrize("name", sorted(CACHE_KEY_DIGESTS))
    def test_candidate_cache_keys(self, name):
        space = get_space(name)
        memo: dict = {}
        fresh, memoized = hashlib.sha256(), hashlib.sha256()
        for candidate in space.candidates():
            for digest, built in ((fresh, candidate.build()), (memoized, candidate.build(memo))):
                key = candidate_cache_key("0" * 64, *built, DEFAULT_MAX_INSTRUCTIONS)
                digest.update(key.encode())
        assert fresh.hexdigest() == CACHE_KEY_DIGESTS[name]
        assert memoized.hexdigest() == CACHE_KEY_DIGESTS[name]

    def test_knob_names_and_order(self):
        for name in CACHE_KEY_DIGESTS:
            knobs = [knob.name for knob in get_space(name).knobs]
            assert knobs == ["impl", *CACHE_GEOMETRY_KNOBS]


class TestWithCacheGeometry:
    def test_appends_the_reserved_knobs(self):
        space = with_cache_geometry(make_toy_space(with_pad=False))
        assert space.name == "toy_tuned"
        assert [knob.name for knob in space.knobs] == ["n", *CACHE_GEOMETRY_KNOBS]
        assert space.size == 3 * 3 * 3 * 3
        config, _ = space.build({"n": 2, "icache_kb": 4, "dcache_kb": 8, "dcache_ways": 2})
        assert config.icache.size_bytes == 4 * 1024
        assert (config.dcache.size_bytes, config.dcache.ways) == (8 * 1024, 2)

    def test_rejects_a_second_geometry_axis(self):
        with pytest.raises(SpaceError, match="already has knobs"):
            with_cache_geometry(get_space("fir_tuned"))
