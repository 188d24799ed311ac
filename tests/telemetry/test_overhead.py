"""Tests for the overhead ladder (paper Table III shape)."""

import pytest

from repro.telemetry.overhead import (
    RATIOS,
    RUNGS,
    format_rows,
    main,
    measure_overhead,
)
from repro.workloads.registry import OVERHEAD_WORKLOADS

FEATURE_RUNGS = ("plain", "traced", "telemetry", "heat", "detached")


class TestMeasureOverhead:
    def test_reports_at_least_two_workloads(self):
        rows = measure_overhead(("sw", "lulesh"), rungs=FEATURE_RUNGS,
                                repeats=1)
        assert len(rows) == 2
        for row in rows:
            assert row["workload"] in OVERHEAD_WORKLOADS
            for key in ("plain_s", "traced_s", "telemetry_s", "heat_s",
                        "detached_s"):
                assert row[key] > 0
            # Instrumented runs do strictly more work; allow generous
            # noise margins rather than asserting exact ordering.
            assert row["telemetry_x"] > 0.5
            assert row["traced_x"] > 0.5
            assert row["heat_x"] > 0.5
            # Heat recording rides the traced path; its marginal cost
            # must stay well under the 2x acceptance bar.
            assert row["heat_vs_traced_x"] < 2.0

    def test_disabled_telemetry_is_cheap(self):
        # Acceptance bound: attach+detach must leave the hot path alone
        # (<2x of a never-attached run, and that's already generous).
        (row,) = measure_overhead(("sw",), rungs=("plain", "detached"),
                                  repeats=3)
        assert row["detached_x"] < 2.0

    def test_format_rows_renders_table(self):
        rows = [{
            "workload": "sw", "plain_s": 0.1, "traced_s": 0.2,
            "telemetry_s": 0.3, "heat_s": 0.25, "detached_s": 0.11,
            "traced_x": 2.0, "telemetry_x": 3.0, "heat_x": 2.5,
            "heat_vs_traced_x": 1.25, "detached_x": 1.1,
        }]
        text = format_rows(rows)
        assert "sw" in text
        assert "3.00x" in text
        assert "average telemetry overhead" in text
        assert "average heat overhead vs traced" in text
        assert "1.25x" in text

    def test_only_the_requested_rungs_are_timed(self):
        (row,) = measure_overhead(("lulesh",), rungs=("heat_noattr",
                                                      "signature"),
                                  repeats=1)
        assert set(row) == {"workload", "heat_noattr_s", "signature_s",
                            "signature_x"}
        assert row["signature_x"] == row["signature_s"] / row["heat_noattr_s"]


class TestLadder:
    def test_unknown_rung_is_rejected(self):
        with pytest.raises(ValueError, match="unknown rung"):
            measure_overhead(("sw",), rungs=("plain", "tracd"))

    def test_every_ratio_names_two_rungs(self):
        for num, base in RATIOS.values():
            assert num in RUNGS and base in RUNGS and num != base

    def test_cli_prints_every_rung_and_ratio(self, capsys):
        assert main(["--workloads", "lulesh", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        for rung in RUNGS:
            assert f"\n{rung} " in out
        for num, base in RATIOS.values():
            assert f"average {num} overhead vs {base}" in out
        assert "adaptive fidelity" in out
