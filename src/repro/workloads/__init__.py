"""Long-horizon workload synthesis: calibration constants, the diurnal
usage model, incident schedules, and the statistical trace generator."""
