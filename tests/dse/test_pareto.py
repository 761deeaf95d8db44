"""``pareto_frontier`` against the brute-force definition.

The frontier is the deduplicated set of scores no other score
:func:`dominates`, in (axis tuple, key) order.  Seeded random clouds on a
coarse grid force exact ties on single axes and on whole tuples, and
repeat keys with different values (the first occurrence wins).
"""

import math
import random

import pytest

from repro.dse import CandidateScore, dominates, pareto_frontier


def _score(key: str, energy: float, cycles: int, area: float) -> CandidateScore:
    return CandidateScore(
        key=key,
        assignment={"key": key},
        program_name="p",
        processor_name="c",
        energy=energy,
        cycles=cycles,
        area=area,
    )


def brute_force(scores):
    unique = {}
    for score in scores:
        unique.setdefault(score.key, score)
    points = sorted(
        unique.values(),
        key=lambda s: ((s.energy, float(s.cycles), s.area), s.key),
    )
    return [c for c in points if not any(dominates(o, c) for o in points)]


def _cloud(rng: random.Random, size: int, grid: int) -> list[CandidateScore]:
    scores = []
    for _ in range(size):
        key = f"k{rng.randrange(size)}"  # repeats on purpose
        scores.append(
            _score(
                key,
                float(rng.randrange(grid)),
                rng.randrange(grid),
                float(rng.randrange(grid)) / 2,
            )
        )
    return scores


@pytest.mark.parametrize("seed", range(40))
def test_matches_brute_force_on_random_clouds(seed):
    rng = random.Random(seed)
    scores = _cloud(rng, size=rng.randrange(1, 120), grid=rng.choice((2, 3, 5, 50)))
    frontier = pareto_frontier(scores)
    assert [id(s) for s in frontier] == [id(s) for s in brute_force(scores)]


def test_whole_tuple_ties_are_all_kept():
    scores = [_score(k, 1.0, 1, 1.0) for k in ("b", "a", "c")] + [_score("d", 2.0, 2, 2.0)]
    assert [s.key for s in pareto_frontier(scores)] == ["a", "b", "c"]


def test_first_occurrence_of_a_key_wins():
    first, repeat = _score("a", 5.0, 5, 5.0), _score("a", 1.0, 1, 1.0)
    other = _score("b", 3.0, 3, 3.0)
    assert pareto_frontier([first, other, repeat]) == [other]


def test_nan_points_are_never_dominated():
    nan = _score("n", math.nan, 1, 1.0)
    scores = [_score("a", 1.0, 1, 1.0), nan, _score("b", 2.0, 2, 2.0)]
    frontier = pareto_frontier(scores)
    assert {s.key for s in frontier} == {s.key for s in brute_force(scores)} == {"a", "n"}
