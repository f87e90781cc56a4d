"""Benchmarks: regenerate every paper table, figure and ablation.

One parametrized case per paper-block entry of the ``ExperimentSpec``
registry (Table 1, Figures 1–10, the section 4 pathology numbers and
the section 5 cross-exchange claim) and per ``ablation-*`` entry (the
countermeasure studies DESIGN.md calls out: route-flap damping, CIDR
aggregation, route servers, timer jitter, keepalive priority, route
caches, MRAI, prefix filtering), each run at its published seed.
Prints the reproduced rows/series and asserts the shape checks against
the paper's reported values.  Run with::

    pytest benchmarks/bench_experiments.py --benchmark-only
    pytest benchmarks/bench_experiments.py --benchmark-only -k figure6
"""

import pytest

from repro.experiments.registry import SPECS

from .conftest import run_and_verify

#: The simulator-scenario specs have their own harness
#: (``bench_sim.py``).
EXPERIMENTS = [
    experiment_id
    for experiment_id in SPECS
    if not experiment_id.startswith("sim-")
]


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_experiment(benchmark, experiment_id):
    run_and_verify(benchmark, SPECS[experiment_id].run)
