"""The paper's analysis pipeline: time-series preparation, spectral
estimation (FFT/MEM/SSA), inter-arrival histograms, the density matrix,
per-AS contribution, Prefix+AS distributions, affected-route fractions,
and multi-homing counting."""
