"""Smoke and behaviour tests for the experiment runners and registry.

The full experiments run in the benchmark harness; here the fast ones
run outright and the heavy ones run with reduced parameters, checking
that the machinery (runners, result rendering, registry) behaves.
"""

import pytest

from repro.core.report import ExperimentResult
from repro.experiments import figure1, figure4, figure10, table1
from repro.experiments.ablations import (
    run_damping_study,
    run_route_server_study,
)
from repro.experiments.figure3 import run as run_figure3
from repro.experiments.registry import (
    SPECS,
    ExperimentSpec,
    experiment_ids,
    run_experiment,
)
from repro.sim.engine import Engine
from repro.sim.studies import stateless_fix, update_crash


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        assert "table1" in ids
        for n in range(1, 11):
            assert f"figure{n}" in ids

    def test_ablations_registered(self):
        assert sum(1 for i in experiment_ids() if i.startswith("ablation-")) == 8

    def test_unknown_id_raises_with_listing(self):
        with pytest.raises(KeyError, match="figure1"):
            run_experiment("figure99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("figure1")
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "figure1"


class TestExperimentSpecs:
    def test_every_id_has_a_complete_spec(self):
        assert list(SPECS) == experiment_ids()
        for experiment_id, spec in SPECS.items():
            assert isinstance(spec, ExperimentSpec)
            assert spec.id == experiment_id
            assert spec.title.strip()
            # The paper-context strings live only here (the CLI and
            # EXPERIMENTS.md both read them from the spec).
            assert spec.paper_context.strip()
            assert callable(spec.runner)

    def test_config_reseeds_a_seeded_experiment(self):
        from repro.campaign import CampaignConfig

        default = run_experiment("figure4")
        reseeded = run_experiment("figure4", CampaignConfig(seed=1234))
        assert default.measurements != reseeded.measurements
        # And the same config reproduces itself.
        again = run_experiment("figure4", CampaignConfig(seed=1234))
        assert again.measurements == reseeded.measurements

    def test_spec_run_method_matches_registry_dispatch(self):
        spec = SPECS["figure1"]
        assert spec.run().experiment_id == "figure1"


class TestFastExperiments:
    def test_figure1_checks_pass(self):
        result = figure1.run()
        assert all(result.all_checks().values())

    def test_figure4_checks_pass(self):
        result = figure4.run()
        assert all(result.all_checks().values())
        assert len(result.tables[0].rows) == 7  # one row per weekday

    def test_figure10_checks_pass(self):
        result = figure10.run()
        assert all(result.all_checks().values())

    def test_results_render_without_error(self):
        for runner in (figure1.run, figure4.run, figure10.run):
            text = runner().render()
            assert "Measurements" in text


class TestReducedParameterRuns:
    def test_table1_reduced_duration(self):
        result = table1.run(duration=1200.0, prefixes_per_provider=20)
        # The ISP-I signature survives even a short run.
        assert result.check("isp_i_withdraw_to_announce_ratio")
        assert result.check("isp_i_withdrawals_dominate_day")
        # Pinned at the published seed: the scenario is deterministic
        # and the report is a pure function of the route-server log.
        assert result.tables[0].rows[8] == ("Provider I", 2, 43036, 182)
        assert result.measurements == {
            "isp_i_withdraw_to_announce_ratio": 21518.0,
            "isp_i_withdrawals_dominate_day": 0.9974505168497659,
            "stateless_providers_withdraw_heavy": 4,
            "stateful_providers_balanced": 4,
        }

    def test_figure3_reduced_days(self):
        result = run_figure3(n_days=42)
        # Structural checks that survive a short campaign.
        assert result.check("afternoon_high_fraction")
        assert result.check("night_high_fraction")

    def test_crash_experiment_thresholds(self):
        arms = update_crash(Engine, smoke=True)
        assert arms[300.0].routers["victim"].crash_count > 0
        assert arms[30.0].routers["victim"].crash_count == 0

    def test_stateless_comparison_direction(self):
        arms = stateless_fix(Engine, smoke=True)
        stateless, stateful = (
            sum(1 for record in arms[stateless].sink if record.is_withdraw)
            for stateless in (True, False)
        )
        assert stateless > 5 * max(1, stateful)

    def test_damping_ablation(self):
        # Needs the full default horizon: the damped route's penalty
        # takes ~45 minutes to decay below the reuse threshold.
        result = run_damping_study()
        assert all(result.all_checks().values()), result.all_checks()

    def test_route_server_ablation(self):
        result = run_route_server_study()
        assert all(result.all_checks().values()), result.all_checks()
