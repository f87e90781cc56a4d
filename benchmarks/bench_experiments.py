"""Benchmarks: regenerate every paper table, figure, ablation and
simulator scenario.

One parametrized case per entry of the ``ExperimentSpec`` registry:
the paper block (Table 1, Figures 1–10, the section 4 pathology
numbers and the section 5 cross-exchange claim), the ``ablation-*``
countermeasure studies DESIGN.md calls out (route-flap damping, CIDR
aggregation, route servers, timer jitter, keepalive priority, route
caches, MRAI, prefix filtering) and the ``sim-*`` simulator scenarios,
each run at its published seed.
Prints the reproduced rows/series and asserts the shape checks against
the paper's reported values.  Run with::

    pytest benchmarks/bench_experiments.py --benchmark-only
    pytest benchmarks/bench_experiments.py --benchmark-only -k figure6
"""

import pytest

from repro.experiments.registry import SPECS

from .conftest import run_and_verify

EXPERIMENTS = list(SPECS)


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_experiment(benchmark, experiment_id):
    run_and_verify(benchmark, SPECS[experiment_id].run)
