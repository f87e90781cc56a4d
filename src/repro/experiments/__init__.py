"""Experiment runners: one per paper table/figure, plus the headline
pathology study and the countermeasure ablations; the table of them
all is :mod:`repro.experiments.registry`."""
