"""Paper Fig. 3: per-test-program fitting error of the macro-model.

Regenerates the fitting-error profile over the characterization suite
(paper: max < 8.9%, RMS 3.8%) and benchmarks one full characterization
sample — one simulation pass with the reference RTL estimation riding
on it, plus variable extraction — i.e. the per-program cost of building
the macro-model.
"""

from repro.analysis import run_fig3
from repro.core import Characterizer
from repro.programs import characterization_suite


def test_fig3_fitting_errors(benchmark, ctx, save_report):
    case = characterization_suite(include_variants=False)[0]
    config, program = case.build()

    def one_characterization_sample():
        characterizer = Characterizer()
        return characterizer.add_program(config, program)

    sample = benchmark(one_characterization_sample)
    assert sample.energy > 0

    fig3 = run_fig3(ctx)
    save_report("fig3_fitting_errors", fig3.report())

    # shape criteria from DESIGN.md (paper: RMS 3.8%, max < 8.9%)
    assert fig3.rms < 6.0
    assert fig3.max_abs < 12.0
    assert fig3.rms > 0.1  # non-degenerate ground truth
