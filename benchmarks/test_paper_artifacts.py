"""One test per paper table/figure.

``pytest benchmarks/test_paper_artifacts.py -s`` regenerates every
artifact of the evaluation section (quick mode) and prints each
reproduced table, so the test log doubles as the reproduction record.
"""

import pytest

from repro.experiments.runner import EXPERIMENTS, run_experiment

# Heavier experiments stay in quick mode even here; the full versions
# are regenerated by ``bitmod-repro --all``.
_QUICK = True


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_regenerate(experiment):
    result = run_experiment(experiment, _QUICK)
    assert result.rows, f"{experiment} produced no rows"
    print()
    print(result)
