"""The workload registry: platform spellings, runner tables, lookups.

``PINNED`` was recorded from the hand-written runner tables the registry
replaced (``repro-trace``'s ``WORKLOADS``, ``repro-report``'s
``REPORT_RUNNERS`` and the overhead harness's ``OVERHEAD_WORKLOADS``),
each run in a fresh footprint-mode traced session on ``intel-pascal``.
A size, run argument or per-epoch flag mis-copied into the table moves
the simulated time, the page counts or the number of diagnoses.
"""

import pytest

from repro.memsim import PLATFORMS
from repro.workloads.base import make_session
from repro.workloads.registry import (
    OVERHEAD_WORKLOADS,
    PLATFORM_ALIASES,
    REPORT_RUNNERS,
    WORKLOADS,
    UnknownNameError,
    resolve_platform,
    runner_for,
)

TABLES = {"WORKLOADS": WORKLOADS, "REPORT_RUNNERS": REPORT_RUNNERS,
          "OVERHEAD_WORKLOADS": OVERHEAD_WORKLOADS}

#: (table, name) -> (sim_time, migrated_pages, fault_groups, diagnoses);
#: overhead rows pin the session's simulated time only.
PINNED = {
    ("WORKLOADS", "backprop"): (0.00015827857333333332, 0, 0, 0),
    ("WORKLOADS", "cfd"): (0.0002930001066666666, 0, 0, 0),
    ("WORKLOADS", "gaussian"): (0.0019500354666666668, 0, 0, 0),
    ("WORKLOADS", "lud"): (0.0009716618666666668, 0, 0, 0),
    ("WORKLOADS", "lulesh"): (0.007048204720000011, 141, 180, 0),
    ("WORKLOADS", "nn"): (4.531712e-05, 0, 0, 0),
    ("WORKLOADS", "pathfinder"): (0.00023133429333333332, 0, 0, 0),
    ("WORKLOADS", "pathfinder-opt"): (0.0007995378133333333, 0, 0, 0),
    ("WORKLOADS", "spatter-indirect"): (0.00037119237333333333, 67, 8, 1),
    ("WORKLOADS", "spatter-stride"): (0.00024307674666666665, 8, 5, 1),
    ("WORKLOADS", "sw"): (0.008557320826666666, 77, 77, 0),
    ("WORKLOADS", "sw-advised"): (0.009514422493333325, 2, 2, 0),
    ("WORKLOADS", "sw-rotated"): (0.007767007815000002, 3, 78, 0),
    ("REPORT_RUNNERS", "lud"): (0.0009716618666666668, 0, 0, 4),
    ("REPORT_RUNNERS", "lulesh"): (0.007048204720000011, 141, 180, 6),
    ("REPORT_RUNNERS", "pathfinder"): (0.00023133429333333332, 0, 0, 5),
    ("REPORT_RUNNERS", "sw"): (0.008557320826666666, 77, 77, 383),
    ("REPORT_RUNNERS", "sw-rotated"): (0.007767007815000002, 3, 78, 383),
    ("OVERHEAD_WORKLOADS", "lulesh"): (0.007056901120000011,),
    ("OVERHEAD_WORKLOADS", "pathfinder"): (0.006215299999999994,),
    ("OVERHEAD_WORKLOADS", "sw"): (0.006853616933333332,),
}


class TestPinnedRunners:
    def test_every_entry_is_pinned(self):
        assert set(PINNED) == {(table, name)
                               for table, runners in TABLES.items()
                               for name in runners}

    @pytest.mark.parametrize("table,name", sorted(PINNED))
    def test_runner_matches_the_table_it_replaced(self, table, name):
        session = make_session("intel-pascal", trace=True, materialize=False)
        run = TABLES[table][name](session)
        expected = PINNED[table, name]
        if table == "OVERHEAD_WORKLOADS":
            assert session.sim_time == pytest.approx(expected[0], rel=1e-9)
            return
        sim_time, migrated, faults, diagnoses = expected
        assert run.sim_time == pytest.approx(sim_time, rel=1e-9)
        assert run.stats.get("migrated_pages") == migrated
        assert run.stats.get("fault_groups") == faults
        assert len(run.diagnoses) == diagnoses


class TestPlatforms:
    def test_every_preset_and_the_four_aliases(self):
        assert set(PLATFORM_ALIASES) == set(PLATFORMS) | {
            "pcie", "pcie-pascal", "pcie-volta", "nvlink"}
        for name, preset in PLATFORM_ALIASES.items():
            assert preset in PLATFORMS, name
            assert resolve_platform(name) == preset

    def test_unknown_platform_lists_every_spelling(self):
        with pytest.raises(ValueError) as info:
            resolve_platform("vax")
        message = str(info.value)
        assert message.startswith("unknown platform 'vax'; known: ")
        for name in PLATFORM_ALIASES:
            assert name in message


class TestRunnerFor:
    def test_per_epoch_prefers_the_report_runner(self):
        assert runner_for("sw", per_epoch=True) is REPORT_RUNNERS["sw"]
        assert runner_for("sw") is WORKLOADS["sw"]
        assert runner_for("nn", per_epoch=True) is WORKLOADS["nn"]

    def test_lookups_read_the_tables_at_call_time(self, monkeypatch):
        def runner(session):
            raise AssertionError("not run")

        monkeypatch.setitem(REPORT_RUNNERS, "extra", runner)
        monkeypatch.setitem(WORKLOADS, "extra", runner)
        assert runner_for("extra", per_epoch=True) is runner
        assert runner_for("extra") is runner

    def test_unknown_workload_is_a_key_and_value_error(self):
        with pytest.raises(UnknownNameError) as info:
            runner_for("nope", per_epoch=True)
        assert isinstance(info.value, KeyError)
        assert isinstance(info.value, ValueError)
        assert str(info.value).startswith("unknown workload 'nope'; known: ")

    def test_cli_modules_share_the_registry_tables(self):
        from repro.heatmap import cli as report_cli
        from repro.telemetry import cli as trace_cli

        assert report_cli.REPORT_RUNNERS is REPORT_RUNNERS
        assert trace_cli.WORKLOADS is WORKLOADS
        assert trace_cli.PLATFORM_ALIASES is PLATFORM_ALIASES
