"""The pre-vectorization generation tier, kept as a reference oracle.

When the generator's materialization loop went vectorized
(``TraceGenerator._emit_wwdup_columns``), the contract was that every
draw is the scalar per-record loop's: the same MT19937 stream,
position for position — the vectorized tier continues the day's
``random.Random`` state in a NumPy clone and reads it in blocks — so
digests never move.  This module preserves the original tier verbatim
so that contract stays checkable forever — the same role
:class:`repro.sim.refengine.ReferenceEngine` plays for the
calendar-queue simulator:

- :class:`ReferenceTraceGenerator` overrides ``_sample_bin`` with the
  pre-optimization O(bins) weight-list rebuild and linear scan
  (copied verbatim from the pre-vectorization tree), and forces
  ``vectorize=False`` so WWDup runs the scalar per-pair emission loop,
  drawing from the ``random.Random`` itself and appending one record
  at a time.
- :func:`reference_twin` clones an existing generator's configuration
  into a reference instance with fresh state, so differential runs
  start from identical ground.

Do NOT optimize this module; its only job is to stay the fixed point
the vectorized tier is diffed against — the parity tests in
``tests/test_generator_parity.py`` rest on it.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..core.taxonomy import UpdateCategory
from ..workloads.generator import DayPlan, TraceGenerator

__all__ = ["ReferenceTraceGenerator", "reference_twin"]


class ReferenceTraceGenerator(TraceGenerator):
    """The pre-vectorization :class:`TraceGenerator` materialization.

    Planning (``plan_day``) is untouched — it was always scalar and
    cheap.  Only the two materialization-time differences are rolled
    back: the cached-bisect bin sampler and the block-drawn,
    whole-array WWDup emission.
    """

    __slots__ = ()

    def _sample_bin(
        self, rng: random.Random, plan: DayPlan
    ) -> Optional[int]:
        """The original per-episode sampler: rebuild the lost-bin
        masked weight list and linearly scan the running sum.  One
        ``rng.random()`` draw, exactly like the bisect version."""
        weights = [
            0.0 if i in plan.lost_bins else w
            for i, w in enumerate(plan.bin_weights)
        ]
        total = sum(weights)
        if total <= 0:
            return None
        x = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if x <= acc:
                return i
        return len(weights) - 1

    def _materialize_day(
        self,
        day: int,
        pair_fraction: float,
        plan: Optional[DayPlan],
        categories: Optional[Sequence[UpdateCategory]],
        sink,
        vectorize: bool = True,
    ) -> None:
        del vectorize  # the reference tier is scalar by definition
        super()._materialize_day(
            day, pair_fraction, plan, categories, sink, vectorize=False
        )


def reference_twin(generator: TraceGenerator) -> ReferenceTraceGenerator:
    """A :class:`ReferenceTraceGenerator` with ``generator``'s exact
    configuration and *fresh* pair state — feed both the same day
    sequence and their outputs must be byte-identical."""
    return ReferenceTraceGenerator(
        population=generator.population,
        diurnal=generator.diurnal,
        schedule=generator.schedule,
        targets=generator.targets,
        constants=generator.constants,
        seed=generator.seed,
    )
