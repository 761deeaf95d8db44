"""Discovered spaces share the tuned spaces' one-build-per-implementation path."""

from repro.discover import discovered_space
from repro.dse import CACHE_GEOMETRY_KNOBS

from ..dse.test_build_memo import assert_engine_matches_solo


def test_discovered_space_scores_like_solo_runs(fir_discovery, smoke_model):
    space = discovered_space(fir_discovery.manifest())
    assert [knob.name for knob in space.knobs] == ["impl", *CACHE_GEOMETRY_KNOBS]
    assert_engine_matches_solo(smoke_model, space)
