"""The entry points an external benchmark harness drives.

A harness publishes a seeded runner under its own name in both registry
tables (reached through ``repro.heatmap.cli`` and ``repro.telemetry.cli``)
and wraps ``make_session`` where the pipelines look it up
(``repro.heatmap.cli`` and ``repro.workloads.base``) to capture the
sessions they build.  Every pipeline must run that runner, in exactly
one session built through the wrapped lookups.
"""

import pytest

import repro.heatmap.cli as report_cli
import repro.stream.shard as shard
import repro.telemetry.cli as trace_cli
import repro.telemetry.context as context
import repro.workloads.base as base
from repro.signature.cli import compute_signature

NAME = "contract-sw"


@pytest.fixture
def published(monkeypatch):
    """Publish a counting runner; wrap both ``make_session`` lookups."""
    ran, built = [], []

    def runner(session):
        from repro.workloads.smithwaterman import SmithWaterman

        ran.append(session)
        return SmithWaterman(session, 8, diagnose_each_iteration=True,
                             seed=3).run()

    monkeypatch.setitem(report_cli.REPORT_RUNNERS, NAME, runner)
    monkeypatch.setitem(trace_cli.WORKLOADS, NAME, runner)
    for owner in (report_cli, base):
        def make_session(*args, _make=owner.make_session, **kwargs):
            session = _make(*args, **kwargs)
            built.append(session)
            return session

        monkeypatch.setattr(owner, "make_session", make_session)
    return ran, built


@pytest.mark.parametrize("pipeline", [
    lambda out: report_cli.run_report(NAME, "intel-pascal", out, why=True),
    lambda out: shard.run_streaming(NAME, "intel-pascal", out),
    lambda out: compute_signature(NAME, "intel-pascal"),
], ids=["run_report", "run_streaming", "compute_signature"])
def test_pipeline_runs_the_published_runner_once(pipeline, published,
                                                 tmp_path):
    ran, built = published
    pipeline(tmp_path / "out")
    assert len(built) == 1
    assert ran == built


def test_lookup_points_stay_where_harnesses_find_them():
    for owner, names in ((report_cli, ("run_report", "build_report",
                                       "diagnose", "make_session")),
                         (shard, ("run_streaming", "split_stream")),
                         (context, ("install",))):
        for name in names:
            assert callable(getattr(owner, name)), (owner.__name__, name)
    assert isinstance(report_cli.REPORT_RUNNERS, dict)
    assert isinstance(trace_cli.WORKLOADS, dict)
