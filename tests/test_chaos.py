"""Fault-injection tests for the campaign layer (repro.verify.chaos).

The campaign's contract is that the merged result is a function of the
config alone.  These tests attack that claim through the supported
fault seams — :class:`~repro.campaign.CampaignHooks` kills, on-disk
corruption, completion reordering, and a real SIGKILLed subprocess —
and require the resumed digest to stay bit-identical to an unfaulted
run.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignHooks,
    CampaignLayout,
    KillRun,
    run_campaign,
)
from repro.verify.chaos import run_chaos_campaign

FAST = dict(n_peers=6, total_prefixes=160)


def fast_config(**overrides):
    settings = dict(days=2, seed=5, shards=2, **FAST)
    settings.update(overrides)
    return CampaignConfig(**settings)


@pytest.fixture()
def clean_digest():
    return run_campaign(fast_config()).partial.digest()


class TestHooks:
    def test_order_pending_cannot_change_result(self, tmp_path, clean_digest):
        config = fast_config(out=str(tmp_path / "out"))
        hooks = CampaignHooks(
            order_pending=lambda specs: list(reversed(specs))
        )
        result = run_campaign(config, hooks=hooks)
        assert result.partial.digest() == clean_digest

    def test_kill_at_shard_start_leaves_resumable_state(
        self, tmp_path, clean_digest
    ):
        config = fast_config(out=str(tmp_path / "out"))
        seen = []

        def kill_second(spec):
            seen.append(spec.index)
            if len(seen) == 2:
                raise KillRun("second shard never starts")

        with pytest.raises(KillRun):
            run_campaign(
                config, hooks=CampaignHooks(on_shard_start=kill_second)
            )
        resumed = run_campaign(config, resume=True)
        assert resumed.shards_loaded == 1
        assert resumed.shards_run == 1
        assert resumed.partial.digest() == clean_digest

    def test_kill_in_manifest_window_discards_the_shard(
        self, tmp_path, clean_digest
    ):
        # A kill after the result write but before the manifest write
        # is the crash the manifest-last protocol exists for: the
        # half-written shard must be recomputed, not trusted.
        config = fast_config(out=str(tmp_path / "out"))

        def kill_first(spec, layout):
            assert layout.result_path(spec).exists()
            assert not layout.manifest_path(spec).exists()
            raise KillRun("killed between result and manifest")

        with pytest.raises(KillRun):
            run_campaign(
                config, hooks=CampaignHooks(before_manifest=kill_first)
            )
        layout = CampaignLayout(config.out)
        assert list(layout.iter_completed(config.shard_plan())) == []
        resumed = run_campaign(config, resume=True)
        assert resumed.shards_loaded == 0
        assert resumed.partial.digest() == clean_digest

    def test_corrupted_chunk_invalidates_manifested_shard(
        self, tmp_path, clean_digest
    ):
        config = fast_config(out=str(tmp_path / "out"))
        run_campaign(config)
        layout = CampaignLayout(config.out)
        plan = config.shard_plan()
        chunk = layout.chunk_path(plan[0], plan[0].day_lo)
        chunk.write_bytes(chunk.read_bytes()[:100])
        assert layout.load_shard(plan[0]) is None
        assert layout.load_shard(plan[1]) is not None
        resumed = run_campaign(config, resume=True)
        assert resumed.shards_run == 1
        assert resumed.partial.digest() == clean_digest

    def test_on_shard_written_sees_durable_shard(self, tmp_path):
        config = fast_config(out=str(tmp_path / "out"))
        durable = []

        def check(spec, layout):
            durable.append(
                (spec.index, layout.load_shard(spec) is not None)
            )

        run_campaign(config, hooks=CampaignHooks(on_shard_written=check))
        assert durable == [(0, True), (1, True)]


@pytest.mark.chaos
class TestChaosCampaign:
    @pytest.mark.parametrize("seed", range(5))
    def test_fault_seeds_preserve_digest(self, tmp_path, seed):
        # The acceptance bar: >= 5 fault schedules of kills +
        # corruption + reordering, every one converging to the
        # unfaulted digest.
        config = fast_config(out=str(tmp_path / "out"))
        report = run_chaos_campaign(config, seed=seed, rounds=3)
        assert report.ok, report.describe()

    def test_report_describe_lists_faults(self, tmp_path):
        config = fast_config(out=str(tmp_path / "out"))
        report = run_chaos_campaign(config, seed=0, rounds=2)
        text = report.describe()
        assert "chaos seed=0" in text
        assert report.expected_digest in text


@pytest.mark.chaos
@pytest.mark.slow
def test_sigkilled_subprocess_resumes_to_identical_digest(tmp_path):
    """The real thing: SIGKILL an actual campaign process mid-run,
    then resume in-process and compare against the unfaulted run."""
    out = tmp_path / "out"
    config = fast_config(days=4, shards=4, out=str(out))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign",
            "--days", "4", "--shards", "4", "--seed", "5",
            "--peers", str(FAST["n_peers"]),
            "--prefixes", str(FAST["total_prefixes"]),
            "--out", str(out),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Kill as soon as the first shard reports (mid-campaign, with real
    # on-disk state), or give up waiting and kill wherever it is.
    # lint: allow[DET002] -- watchdog for a real SIGKILL, not a result
    deadline = time.time() + 60
    saw_progress = False
    for line in child.stderr:
        if "ran:" in line:
            saw_progress = True
            break
        # lint: allow[DET002] -- watchdog for a real SIGKILL, not a result
        if time.time() > deadline:
            break
    child.kill()  # SIGKILL
    child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    assert saw_progress, "campaign produced no progress before the kill"

    clean = run_campaign(fast_config(days=4, shards=4))
    resumed = run_campaign(config, resume=True)
    assert resumed.complete
    assert resumed.partial.digest() == clean.partial.digest()
