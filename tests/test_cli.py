"""Tests for the command-line interface."""

import io

import pytest

from repro.__main__ import main
from repro.collector.mrt import MrtError, read_column_batches

from .test_collector import MALFORMED_ARCHIVES


class TestListCommand:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure10" in out
        assert "ablation-sync" in out


class TestRunCommand:
    def test_runs_fast_experiment(self, capsys):
        assert main(["run", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "Mae-East" in out
        assert "OK" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "figure99"])


class TestSimulateClassify:
    def test_pipeline(self, tmp_path, capsys):
        archive = tmp_path / "exchange.mrt"
        assert main(
            ["simulate", "-o", str(archive), "--hours", "0.1"]
        ) == 0
        assert archive.exists()
        assert main(["classify", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "updates" in out
        assert "pathological" in out

    def test_archive_is_the_route_server_log(self, tmp_path, capsys):
        """``simulate`` archives exactly what the Table 1 scenario's
        route server logged, and ``classify`` reads all of it back."""
        from repro.collector.mrt import read_records
        from repro.sim.engine import Engine
        from repro.sim.studies import stateless_exchange

        archive = tmp_path / "exchange.mrt"
        assert main(
            ["simulate", "-o", str(archive), "--hours", "0.1", "--seed", "3"]
        ) == 0
        logged = stateless_exchange(
            Engine, seed=3, duration=360.0
        ).sink.sorted_by_time()
        assert logged
        with open(archive, "rb") as stream:
            replayed = list(read_records(stream))
        assert replayed == logged
        assert main(["classify", str(archive)]) == 0
        assert f"{len(logged)} updates" in capsys.readouterr().out

    def test_classify_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["classify", str(tmp_path / "nope.mrt")])

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
    def test_classify_damaged_archive(self, case, tmp_path, capsys):
        """A damaged archive is one ``error:`` line carrying the
        reader's message, exit status 2, and no breakdown."""
        data, message = MALFORMED_ARCHIVES[case]
        with pytest.raises(MrtError) as caught:
            list(read_column_batches(io.BytesIO(data)))
        assert str(caught.value).startswith(message)
        archive = tmp_path / "damaged.mrt"
        archive.write_bytes(data)
        assert main(["classify", str(archive)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {archive}: {caught.value}\n"
        assert captured.out == ""


class TestCampaignCommand:
    ARGS = [
        "campaign", "--days", "2", "--shards", "2", "--seed", "5",
        "--peers", "8", "--prefixes", "240",
    ]

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "records" in out
        assert "pathological" in out
        assert "timer mass" in out

    def test_resume_loads_manifested_shards(self, tmp_path, capsys):
        out_dir = str(tmp_path / "camp")
        assert main(self.ARGS + ["--out", out_dir]) == 0
        first = capsys.readouterr().out
        assert "2 shard(s) run, 0 loaded" in first
        assert (tmp_path / "camp" / "campaign.json").exists()
        assert main(self.ARGS + ["--out", out_dir, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 shard(s) run, 2 loaded" in second

    def test_fine_categories_drop_the_wwdup_flood(self, capsys):
        def records(extra):
            assert main(self.ARGS + extra) == 0
            out = capsys.readouterr().out
            return int(out.split(" records", 1)[0].replace(",", ""))

        full = records([])
        fine = records(["--categories", "fine"])
        # Generation without the pathological plans is a fraction of
        # the full flood (the paper's ~99%-pathological headline).
        assert fine < full / 5

    def test_unknown_exchange_rejected(self):
        with pytest.raises(KeyError):
            main(self.ARGS + ["--exchanges", "Mae-Nowhere"])


class TestSeedOverride:
    def test_run_seed_flag_reparameterizes(self, capsys):
        assert main(["run", "figure1", "--seed", "123"]) == 0
        assert "Mae-East" in capsys.readouterr().out

    def test_experiment_config_built_only_when_seeded(self):
        import argparse

        from repro.__main__ import _experiment_config

        assert _experiment_config(argparse.Namespace(seed=None)) is None
        config = _experiment_config(argparse.Namespace(seed=42))
        assert config is not None and config.seed == 42


class TestArgumentParsing:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestReportRendering:
    def test_markdown_section_structure(self):
        from repro.__main__ import _render_markdown
        from repro.core.report import ExperimentResult

        result = ExperimentResult("figure1", "test experiment")
        result.record("metric_in_range", 5, expect=(1, 10))
        result.record("metric_off", 99, expect=(1, 10))
        result.notes.append("a note")
        text = _render_markdown("figure1", result)
        assert "## figure1" in text
        assert "| metric_in_range | 5 | 1 .. 10 | ok |" in text
        assert "**MISMATCH**" in text
        assert "*a note*" in text
        assert "(regenerate with `python -m repro run figure1`)" in text
        assert "runtime" not in text

    def test_report_command_writes_markdown(self, tmp_path, monkeypatch):
        """cmd_report over a stubbed registry produces a valid file."""
        import repro.__main__ as cli
        from repro.core.report import ExperimentResult
        from repro.experiments import registry

        def fake_run(name, config=None):
            result = ExperimentResult(name, "stub")
            result.record("x", 1, expect=(0, 2))
            return result

        monkeypatch.setattr(registry, "experiment_ids", lambda: ["figure1"])
        monkeypatch.setattr(registry, "run_experiment", fake_run)
        output = tmp_path / "EXP.md"
        assert cli.cmd_report(str(output)) == 0
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "## figure1" in text
