"""Generation digest parity.

The production tier (``TraceGenerator.day_columns``: every category
read in blocks from a NumPy clone of the day's ``random.Random`` and
expanded as arrays, bins by a cached bisect) must give every draw of
the day's MT19937 stream the role the scalar per-pair loop gives it,
position for position, so the two materializations of any day stay
bit-identical forever:

- production ``day_columns``,
- the scalar oracle (:mod:`repro.verify.refgen`, which owns the
  per-pair loop and shares no emission code with production).

These tests pin that contract across the fuzz-seed corpus, pair
fractions, incident overlays, diurnal schedules, and the shared
``AttributeTable`` campaign mode, freeze the end-to-end campaign
digest so a silent draw-order change fails loudly, and prove the
generator's ``hash()`` uses are PYTHONHASHSEED-free.  The stream
clone itself, its block boundaries and the degenerate days are in
``tests/test_generator_stream.py``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig
from repro.campaign.runner import run_campaign
from repro.core.columns import AttributeTable
from repro.verify.golden import FUZZ_SEEDS
from repro.verify.refgen import ReferenceTraceGenerator, reference_twin
from repro.workloads import generator as generator_module
from repro.workloads.diurnal import DiurnalModel
from repro.workloads.generator import TraceGenerator, campaign_generator
from repro.workloads.incidents import Incident, IncidentSchedule

# Small population: ~13k records/day keeps every parity sweep fast
# while still exercising the WWDup flood path (~95% of records).
FAST = dict(n_peers=8, total_prefixes=240)


def small_generator(seed: int, **overrides) -> TraceGenerator:
    base = campaign_generator(
        population_seed=seed, generator_seed=seed, **FAST
    )
    if not overrides:
        return base
    return TraceGenerator(
        population=base.population, seed=seed, **overrides
    )


def columns_digest(columns) -> str:
    """Content digest of one generated day: record bytes plus the
    interned attribute bundles in id order (ids are part of the
    layout, so interning order differences would show)."""
    digest = hashlib.sha256(columns.data.tobytes())
    names = [str(columns.attrs[i]) for i in range(len(columns.attrs))]
    digest.update(repr(names).encode())
    return digest.hexdigest()


def assert_parity(make_generator, day: int, pair_fraction: float):
    """Vectorized day_columns == the scalar refgen oracle, as
    column-byte digests."""
    columns = make_generator().day_columns(day, pair_fraction=pair_fraction)
    reference = reference_twin(make_generator()).day_columns(
        day, pair_fraction=pair_fraction
    )
    assert columns_digest(columns) == columns_digest(reference)


class TestDayParity:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fuzz_seeds_three_way(self, seed):
        assert_parity(
            lambda: small_generator(seed), day=seed, pair_fraction=0.3
        )

    @pytest.mark.parametrize("pair_fraction", (0.05, 0.3, 1.0))
    def test_pair_fractions(self, pair_fraction):
        """Subsampling draws one rng.random() per pair before episode
        synthesis; the production tier must keep that interleaving."""
        assert_parity(
            lambda: small_generator(7), day=3, pair_fraction=pair_fraction
        )

    def test_incident_overlay(self):
        """Storm + outage overlays change episode counts and zero out
        lost bins — both paths must sample the same masked weights."""
        schedule = (
            IncidentSchedule()
            .add(Incident("storm", first_day=2, last_day=4, magnitude=6.0))
            .add(
                Incident(
                    "upgrade",
                    first_day=3,
                    last_day=3,
                    magnitude=3.0,
                    start_bin=12,
                    end_bin=30,
                )
            )
            .mark_lost_bins(3, range(60, 72))
        )
        for day in (2, 3):
            assert_parity(
                lambda: small_generator(11, schedule=schedule),
                day=day,
                pair_fraction=0.5,
            )

    def test_diurnal_schedule(self):
        """A non-default diurnal model (strong trend, summer shoulder
        active) reshapes bin weights; parity must be weight-agnostic."""
        diurnal = DiurnalModel(
            trend_per_day=0.02, summer_start_day=0, summer_end_day=400
        )
        assert_parity(
            lambda: small_generator(13, diurnal=diurnal),
            day=5,
            pair_fraction=0.4,
        )

    def test_shared_attribute_table_campaign_mode(self):
        """Campaign shards intern attributes into one shared table;
        production and reference runs must produce identical ids
        across consecutive days."""
        vec = small_generator(3)
        ref = reference_twin(small_generator(3))
        vec_table, ref_table = AttributeTable(), AttributeTable()
        for day in (0, 1, 2):
            a = vec.day_columns(day, pair_fraction=0.3, attrs=vec_table)
            b = ref.day_columns(day, pair_fraction=0.3, attrs=ref_table)
            assert a.attrs is vec_table and b.attrs is ref_table
            assert columns_digest(a) == columns_digest(b)

    def test_reference_never_draws_a_block(self, monkeypatch):
        """The oracle must never run the production path (that would
        make the differential vacuous): with the block stream made to
        raise, production fails and the oracle still generates."""

        class NoStream:
            def __init__(self, rng):
                raise AssertionError("the block stream was built")

        monkeypatch.setattr(generator_module, "_DrawStream", NoStream)
        with pytest.raises(AssertionError, match="block stream"):
            small_generator(1).day_columns(1, pair_fraction=0.3)
        generator = reference_twin(small_generator(1))
        assert isinstance(generator, ReferenceTraceGenerator)
        assert len(generator.day_columns(1, pair_fraction=0.3))


class TestPinnedCampaignDigest:
    def test_campaign_digest_is_frozen(self):
        """The end-to-end campaign manifest digest over the standard
        small config.  This value predates the array tier: moving it
        means a rewrite changed the record stream."""
        config = CampaignConfig(days=3, seed=5, shards=2, **FAST)
        result = run_campaign(config)
        assert result.partial.records == 43294
        assert result.partial.digest() == (
            "2b7296fae84c831cc9cb132daf16e3ec"
            "3427c970d6e66d7f70e2fc89843bf7de"
        )


class TestHashSeedFreedom:
    def test_prefix_hash_is_value_based_across_hash_seeds(self):
        """``_bundle`` (and the oracle's ``_attrs``) derive origin ASNs
        from ``hash(pair)`` where pair is (Prefix, int) and Prefix is an
        int tuple — int tuple hashes are value-based, not
        PYTHONHASHSEED-salted.  Prove it by hashing the same pairs
        under two different hash seeds in subprocesses."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "from repro.net.prefix import Prefix\n"
            "pairs = [(Prefix.parse('192.42.113.0/24'), 3561),\n"
            "         (Prefix.parse('10.0.0.0/8'), 701)]\n"
            "print([hash(p) for p in pairs])\n"
        )
        outputs = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_day_digest_is_stable_across_hash_seeds(self):
        """End to end: the same day digested under two hash seeds."""
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import hashlib\n"
            "from repro.workloads.generator import campaign_generator\n"
            "g = campaign_generator(n_peers=8, total_prefixes=240,\n"
            "                       population_seed=3)\n"
            "c = g.day_columns(1, pair_fraction=0.3)\n"
            "d = hashlib.sha256(c.data.tobytes())\n"
            "names = [str(c.attrs[i]) for i in range(len(c.attrs))]\n"
            "d.update(repr(names).encode())\n"
            "print(d.hexdigest())\n"
        )
        digests = []
        for hash_seed in ("7", "90210"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = str(src)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1] and len(digests[0]) == 64
