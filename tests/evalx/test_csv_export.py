"""Tests for the CLI's CSV export path."""

import csv
import io

import pytest

from repro.evalx.base import ExperimentResult
from repro.evalx.runner import main, rows_to_csv


class TestRowsToCsv:
    def test_simple_rows(self):
        r = ExperimentResult("x", "t", rows=[
            {"a": 1, "b": 2.5}, {"a": 3, "b": 0.125},
        ])
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(r))))
        assert parsed[0]["a"] == "1"
        assert parsed[1]["b"] == "0.125"

    def test_heterogeneous_keys_merged(self):
        r = ExperimentResult("x", "t", rows=[{"a": 1}, {"a": 2, "b": 3}])
        parsed = list(csv.DictReader(io.StringIO(rows_to_csv(r))))
        assert parsed[0]["b"] == ""
        assert parsed[1]["b"] == "3"

    def test_sequences_joined(self):
        r = ExperimentResult("x", "t", rows=[{"diags": [7, 6]}])
        assert "6;7" in rows_to_csv(r)

    def test_empty_rows(self):
        assert rows_to_csv(ExperimentResult("x", "t")) == ""


class TestCliCsvFlag:
    def test_writes_per_experiment_files(self, tmp_path, capsys):
        assert main(["fig7", "--csv", str(tmp_path)]) == 0
        content = (tmp_path / "fig7.csv").read_text()
        parsed = list(csv.DictReader(io.StringIO(content)))
        panels = {row["panel"] for row in parsed}
        assert panels == {"a", "b"}


class TestTelemetryDir:
    def test_writes_per_experiment_artifacts(self, tmp_path, capsys):
        from repro.telemetry import context as telemetry_context

        assert main(["fig7", "--telemetry-dir", str(tmp_path)]) == 0
        exp_dir = tmp_path / "fig7"
        for artifact in ("timeline.json", "events.jsonl", "metrics.prom"):
            assert (exp_dir / artifact).stat().st_size > 0
        # The context must not leak into later runs.
        assert telemetry_context.current_recorder() is None


class TestReportNeedsTelemetryDir:
    def test_report_without_telemetry_dir_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fig7", "--report"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err == "xplacer-eval: --report requires --telemetry-dir\n"
