"""The import graph: an entry point loads only the modules its call runs.

Each check runs in a fresh interpreter, so ``sys.modules`` holds exactly
what the entry point's imports pulled in.  The campaign runner must
not load the simulator, the BGP protocol machinery, the MRT codecs or
the spectral analyses, and the archive reader neither the simulator
nor the generator.  The simulator, the other way round, loads no NumPy
and none of the statistical tier, and its scenario registry loads only
what ``sync_population`` runs: every other scenario family imports
its own machinery when it runs.  A package ``__init__`` imports
nothing, so importing one module of a package loads that module and
its own imports only.  And every import happens at start-up: a call that
imported a ``repro`` module for the first time would be paying compile
time inside the work it is timed on.
"""

import json
from pathlib import Path

import pytest

from repro.collector.log import FileLog
from repro.core.columns import AttributeTable
from repro.verify.golden import CASES_FILE
from repro.workloads.generator import campaign_generator

from .test_topology import _in_child


def _loaded_after(code):
    """Every module loaded after running ``code`` in a fresh
    interpreter."""
    done = _in_child(
        "import json, sys\n" + code
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _imported_by(code, setup=""):
    """The ``repro`` modules that running ``code`` imports for the
    first time, in a fresh interpreter that ran ``setup`` first."""
    done = _in_child(
        "import json, sys\n" + setup
        + "before = set(sys.modules)\n" + code
        + "print(json.dumps(sorted(m for m in set(sys.modules) - before "
        "if m.startswith('repro'))))\n"
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _allowed_for_campaign(module):
    if module.startswith("repro.sim"):
        return False
    if module.startswith("repro.bgp."):
        return module == "repro.bgp.attributes"
    if module.startswith("repro.collector.mrt"):
        return False
    if module.startswith("repro.analysis."):
        return module in ("repro.analysis.interarrival",
                          "repro.analysis.timeseries")
    return True


class TestStatisticalTierLoadsNoSimulator:
    def test_campaign_loads_only_the_campaign_path(self):
        loaded = _imported_by("import repro.campaign\n")
        assert "repro.campaign.runner" in loaded
        assert [m for m in loaded if not _allowed_for_campaign(m)] == []

    def test_archive_reader_loads_no_simulator_or_generator(self):
        loaded = _imported_by("import repro.collector.log\n")
        assert "repro.collector.mrt" in loaded
        assert [
            m for m in loaded
            if m.startswith(("repro.sim", "repro.workloads"))
        ] == []


def _statistical(module):
    """NumPy, or a module of the statistical tier (each imports it)."""
    return module in (
        "numpy", "repro.core.columns", "repro.collector.log",
    ) or module.startswith((
        "numpy.", "repro.collector.mrt", "repro.analysis.",
        "repro.campaign", "repro.workloads.",
    ))


class TestMechanismTierLoadsNoNumpy:
    """The simulator is pure Python: neither importing it nor running
    a scenario through the CLI may load NumPy or a module that does."""

    @pytest.mark.parametrize("code", [
        "import repro.sim\n",
        "from repro.__main__ import main\n"
        "main(['sim', '--scenario', 'sync_population', '--smoke'])\n",
    ], ids=["import", "cli_sim"])
    def test_loads_no_statistical_module(self, code):
        loaded = _loaded_after(code)
        assert "repro.sim.scenarios" in loaded
        assert [m for m in loaded if _statistical(m)] == []

    def test_cli_simulate_loads_no_numpy(self, tmp_path):
        """``python -m repro simulate`` runs the simulator and writes
        its log through the MRT record writer, which needs no NumPy."""
        archive = str(tmp_path / "x.mrt")
        loaded = _loaded_after(
            "from repro.__main__ import main\n"
            f"main(['simulate', '-o', {archive!r}, '--hours', '0.1'])\n"
        )
        assert "repro.collector.mrt" in loaded
        assert [
            m for m in loaded
            if m.split(".")[0] == "numpy" or m == "repro.core.columns"
        ] == []


#: The ``repro`` modules that ``import repro.sim`` and a
#: ``sync_population`` run may load: the registry, the façade and the
#: engines and timers that family runs.  No router, link, partition,
#: route server, parallel driver, flap storm or BGP session machinery.
SIM_STARTUP = frozenset({
    "repro", "repro.bgp", "repro.bgp.attributes", "repro.core",
    "repro.core.routestate", "repro.net", "repro.net.prefix",
    "repro.sim", "repro.sim.adversary", "repro.sim.digests",
    "repro.sim.engine", "repro.sim.refengine", "repro.sim.scenarios",
    "repro.sim.timers", "repro.topology", "repro.topology.relationships",
})


class TestScenarioRegistryLoadsOnlySyncPopulation:
    """Each scenario family imports its own machinery at the top of
    its runner; the registry imports only what ``sync_population``
    runs."""

    @pytest.mark.parametrize("code", [
        "import repro.sim\n",
        "from repro.sim import simulate\n"
        "simulate('sync_population', smoke=True)\n",
    ], ids=["import", "sync_population"])
    def test_loads_only_the_allowlist(self, code):
        loaded = _loaded_after(code)
        assert "repro.sim.scenarios" in loaded
        assert [
            m for m in loaded
            if m.startswith("repro") and m not in SIM_STARTUP
        ] == []
        assert "multiprocessing" not in loaded


#: family -> the ``simulate`` call that runs it (all at smoke size).
FAMILIES = {
    "flap_storm": ("flap_storm", {}),
    "table_dump": ("table_dump", {}),
    "multi_exchange_day": ("multi_exchange_day", {}),
    "hijack_moas": ("hijack_moas", {}),
    "parallel": ("hijack_moas", {"engine": "parallel", "workers": 2}),
    "studies": ("stateless_exchange", {}),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_family_imports_what_it_runs(family):
    """A fresh interpreter that imported only the façade runs the
    family to the events and digest the golden corpus pins for its
    scenario (on every engine)."""
    scenario, options = FAMILIES[family]
    done = _in_child(
        "import json\n"
        "from repro.sim import simulate\n"
        f"result = simulate({scenario!r}, smoke=True, **{options!r})\n"
        "print(json.dumps([result.events, result.digest]))\n"
    )
    assert done.returncode == 0, done.stderr
    golden = Path(__file__).parent / "golden" / CASES_FILE
    frozen = {
        case["scenario"]: [case["events"], case["digest"]]
        for case in json.loads(golden.read_text())["scenarios"]
    }
    assert json.loads(done.stdout.splitlines()[-1]) == frozen[scenario]


#: (start-up, timed call) of each entry point; ``{archive}`` is the path
#: of a small archive the test writes first.
CALLS = {
    "run_campaign": (
        "from repro.campaign import CampaignConfig, run_campaign\n"
        "config = CampaignConfig(days=2, shards=2, n_peers=8, "
        "total_prefixes=240, seed=5)\n",
        "result = run_campaign(config, workers=1)\n"
        "result.daily_totals(); result.affected_fractions()\n"
        "result.timer_mass; result.partial.interarrival_proportions()\n",
    ),
    "simulate": (
        "from repro.sim import simulate\n",
        "simulate('sync_population', engine='calendar', smoke=True, "
        "seed=3)\n",
    ),
    "exchange_day": (
        "from dataclasses import replace\n"
        "from repro.analysis.detection import detect_records_columnar\n"
        "from repro.sim import (Engine, day_config, "
        "run_exchange_day_records, scenario_relationships)\n"
        "config = replace(day_config(smoke=True, seed=3), duration=300.0)\n",
        "_, _, records = run_exchange_day_records(Engine, config)\n"
        "detect_records_columnar(records, scenario_relationships(config))\n",
    ),
    "archive": (
        "from repro.analysis.timeseries import bin_records\n"
        "from repro.collector.log import FileLog\n"
        "from repro.core.columns import AttributeTable, ColumnClassifier\n"
        "from repro.core.instability import CategoryCounts\n"
        "log = FileLog({archive!r})\n",
        "classifier = ColumnClassifier()\n"
        "for batch in log.iter_column_batches(512, AttributeTable()):\n"
        "    CategoryCounts.from_codes(*classifier.classify(batch))\n"
        "    bin_records(batch, 600.0, end=86400.0)\n",
    ),
}


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("archive") / "day.rril"
    generator = campaign_generator(
        n_peers=8, total_prefixes=240, population_seed=1
    )
    columns = generator.day_columns(0, pair_fraction=0.1,
                                    attrs=AttributeTable())
    assert len(columns)
    with FileLog(path).writer() as log:
        log.extend_columns(columns)
    return path


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_imports_nothing_new(name, archive):
    setup, call = CALLS[name]
    assert _imported_by(call, setup.format(archive=str(archive))) == []
