"""Causal capture: artifacts, schema gating, flag hygiene."""

import json

import pytest

from repro.causes.capture import (
    IncompatibleCaptureError,
    build_report,
    load_report,
)
from repro.causes.graph import REPORT_VERSION
from repro.workloads.base import make_session


class TestRunArtifacts:
    def test_capture_writes_the_full_bundle(self, sw_run):
        for name in ("events.jsonl", "timeline.json", "metrics.prom",
                     "causes.json"):
            assert (sw_run / name).exists(), name

    def test_report_attributes_real_work(self, sw_run):
        report = json.loads((sw_run / "causes.json").read_text())
        assert report["report_version"] == REPORT_VERSION
        assert report["workload"] == "sw"
        assert report["totals"]["events"] > 0
        assert report["totals"]["cost"] > 0
        assert report["critical_path"]["events"], "no critical path"
        # Site blame reaches back into workload source, not driver code.
        sites = [r["site"] for r in report["by_site"]]
        assert any("sw.py" in s for s in sites), sites

    def test_events_carry_ids_and_cause_links(self, sw_run):
        causes = 0
        with open(sw_run / "events.jsonl") as fh:
            manifest = json.loads(fh.readline())
            assert manifest["schema_version"] >= 2
            for line in fh:
                rec = json.loads(line)
                if rec.get("type") != "driver_event":
                    continue
                assert rec["id"] >= 0
                causes += "cause" in rec
        assert causes > 0, "no cause links in the stream"


class TestLoadReport:
    def test_load_prefers_the_saved_report(self, sw_run):
        assert load_report(sw_run) == json.loads(
            (sw_run / "causes.json").read_text())

    def test_rebuild_from_stream_matches_the_saved_report(self, sw_run):
        saved = json.loads((sw_run / "causes.json").read_text())
        assert build_report(sw_run) == saved

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path / "nope")

    def test_v1_stream_is_rejected(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(json.dumps(
            {"type": "manifest", "schema_version": 1}) + "\n")
        with pytest.raises(IncompatibleCaptureError, match="schema_version"):
            load_report(tmp_path)

    def test_stream_without_manifest_is_rejected(self, tmp_path):
        (tmp_path / "events.jsonl").write_text(json.dumps(
            {"type": "driver_event", "kind": "migration"}) + "\n")
        with pytest.raises(IncompatibleCaptureError, match="manifest"):
            load_report(tmp_path)

    def test_future_report_version_is_rejected(self, tmp_path, sw_run):
        report = json.loads((sw_run / "causes.json").read_text())
        report["report_version"] = REPORT_VERSION + 1
        (tmp_path / "causes.json").write_text(json.dumps(report))
        with pytest.raises(IncompatibleCaptureError, match="report_version"):
            load_report(tmp_path)


class TestFlagHygiene:
    def test_tracking_is_off_by_default(self):
        session = make_session("intel-pascal", trace=True, materialize=False)
        assert session.platform.um.track_causes is False
