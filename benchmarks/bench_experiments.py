"""Benchmarks: regenerate every paper table and figure.

One parametrized case per paper-block entry of the ``ExperimentSpec``
registry (Table 1, Figures 1–10, the section 4 pathology numbers and
the section 5 cross-exchange claim), each run at its published seed.
Prints the reproduced rows/series and asserts the shape checks against
the paper's reported values.  Run with::

    pytest benchmarks/bench_experiments.py --benchmark-only
    pytest benchmarks/bench_experiments.py --benchmark-only -k figure6
"""

import pytest

from repro.experiments.registry import SPECS

from .conftest import run_and_verify

#: The ablation and simulator-scenario specs have their own harnesses
#: (``bench_ablations.py``, ``bench_sim.py``).
PAPER_EXPERIMENTS = [
    experiment_id
    for experiment_id in SPECS
    if not experiment_id.startswith(("ablation-", "sim-"))
]


@pytest.mark.parametrize("experiment_id", PAPER_EXPERIMENTS)
def test_experiment(benchmark, experiment_id):
    run_and_verify(benchmark, SPECS[experiment_id].run)
