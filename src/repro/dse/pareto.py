"""Pareto-frontier extraction and deterministic ranking of scores.

Exploration produces a cloud of (energy, cycles, area) points; design
selection wants (a) the non-dominated frontier across those axes and
(b) a scalar ranking under one objective (EDP by default).  Both are
deterministic: ties break on the canonical candidate key, never on
enumeration order or dict iteration.
"""

from __future__ import annotations

from typing import Sequence

from .evaluate import CandidateScore

#: The axes the frontier minimizes over.
PARETO_AXES = ("energy", "cycles", "area")


def _axis_tuple(score: CandidateScore, axes: Sequence[str]) -> tuple:
    return tuple(score.objective(axis) for axis in axes)


def _comparable(values: tuple) -> bool:
    return all(value == value for value in values)  # False on NaN


def _dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and a != b


def dominates(a: CandidateScore, b: CandidateScore, axes: Sequence[str] = PARETO_AXES) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    return _dominates(_axis_tuple(a, axes), _axis_tuple(b, axes))


def pareto_frontier(
    scores: Sequence[CandidateScore], axes: Sequence[str] = PARETO_AXES
) -> list[CandidateScore]:
    """The non-dominated subset, sorted by the axis tuple then key.

    Duplicate design points (same key) are collapsed first — a strategy
    may legitimately score a point once from cache and once fresh.
    """
    unique: dict[str, CandidateScore] = {}
    for score in scores:
        unique.setdefault(score.key, score)
    points = sorted(
        ((_axis_tuple(score, axes), key, score) for key, score in unique.items()),
        key=lambda point: point[:2],
    )
    # A dominator sorts strictly before the point it dominates, and
    # dominance is transitive, so a scan in sorted order need only test
    # each point against the frontier found so far.  A point with a NaN
    # axis neither dominates nor is dominated (every comparison with NaN
    # is false): it is on the frontier, and stays out of the scan, whose
    # sort needs comparable values.
    frontier: list[tuple] = []
    keep = {key for values, key, _ in points if not _comparable(values)}
    for values, key in sorted((values, key) for values, key, _ in points if key not in keep):
        if not any(_dominates(other, values) for other in frontier):
            frontier.append(values)
            keep.add(key)
    return [score for _, key, score in points if key in keep]


def rank_scores(
    scores: Sequence[CandidateScore],
    objective: str = "edp",
    top_k: int | None = None,
) -> list[CandidateScore]:
    """Scores sorted ascending by ``objective`` (ties by key), deduplicated."""
    unique: dict[str, CandidateScore] = {}
    for score in scores:
        unique.setdefault(score.key, score)
    ranked = sorted(unique.values(), key=lambda s: (s.objective(objective), s.key))
    return ranked if top_k is None else ranked[:top_k]
