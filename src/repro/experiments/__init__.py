"""Experiment runners: one per paper table/figure, plus the headline
pathology study and the countermeasure ablations."""

from .registry import (
    SPECS,
    ExperimentSpec,
    experiment_ids,
    run_experiment,
)

__all__ = [
    "SPECS",
    "ExperimentSpec",
    "experiment_ids",
    "run_experiment",
]
