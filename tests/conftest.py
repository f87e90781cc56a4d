"""Tier-1 draws no fresh randomness: Hypothesis examples are derived
from each test's source, and no example database carries state from one
run to the next."""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")
