"""Regenerate ``model.json`` and ``reference.json`` from the program.

Run from the repository root when the program's outputs change on
purpose::

    PYTHONPATH=src python3 -m perfbench.make_reference

The characterize workload must reproduce these coefficients and Table II
errors, the explore workload these rankings, and the estimate and serve
workloads the energy and cycles of every bundled source, or the run
fails.
"""

from __future__ import annotations

import json

from .explore import SPACES
from .reference import MODEL_PATH, REFERENCE_PATH, load_model
from .sources import Estimator, bundled_sources


def main() -> None:
    from repro.analysis import build_context, run_table2
    from repro.dse import ExhaustiveStrategy, explore, get_space

    context = build_context()
    context.model.save(str(MODEL_PATH))
    table2 = run_table2(context)
    model = load_model()
    spaces = {}
    for name in SPACES:
        report = explore(model, get_space(name), ExhaustiveStrategy(), jobs=1)
        spaces[name] = {
            "ranking": [score.key for score in report.ranked()],
            "best_edp": report.best.edp,
        }
    estimator = Estimator(model)
    estimates = {}
    for source in bundled_sources():
        assert source.name not in estimates, f"two bundled sources named {source.name}"
        estimate = estimator.estimate(
            source.name, source.source, source.extensions, source.max_instructions
        )
        estimates[source.name] = [estimate.energy, estimate.cycles]
    reference = {
        "characterize": {
            "coefficients": [float(value) for value in model.coefficients],
            "table2_mean_err_pct": table2.mean_abs_percent_error,
            "table2_max_err_pct": table2.max_abs_percent_error,
        },
        "explore": {"spaces": spaces},
        "estimate": estimates,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
