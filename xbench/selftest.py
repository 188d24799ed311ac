"""Self-test of the end-to-end benchmark (short runs, ~3 minutes).

    python3 -m pytest -q xbench/selftest.py

Not part of the tier-1 suite: ``pyproject.toml`` collects tests under
``tests/`` only, which :func:`test_not_collected_by_tier1` checks.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[dict, str]:
    """Run the benchmark as the driver does; ``(result JSON, stdout)``."""
    proc = subprocess.run(
        [sys.executable, "xbench/run.py", *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "xbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_short_run_is_correct_and_complete(workload):
    """Every end-to-end metric appears with its unit; no failures at the
    default seed."""
    result, out = _bench("--workload", workload, "--seconds", "10",
                         "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > run.COLD_SAMPLES
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"{name} " in out
    assert "error_rate" in out


def test_traced_run_reports_every_layer_metric():
    result, out = _bench("--workload", "report-why", "--seconds", "2",
                         "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for name, unit in run.PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit
    assert "expect: stream.* spans only on stream-merge: yes" in out
    assert result["metrics"]["memsim.um_calls"]["value"] > 0
    assert result["metrics"]["heatmap.render_s"]["value"] > 0
    assert result["metrics"]["bench.trace_overhead_x"]["value"] > 0


def test_corrupted_reference_is_counted_as_failure(monkeypatch):
    """A reference that cannot match makes every iteration fail -- cold
    and warm -- and the result says so."""
    monkeypatch.setattr(wl.ReportWhy, "reference",
                        lambda self, work: {"corrupted": True})
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(["--workload", "report-why", "--seconds", "0.5",
                         "--trace", "0"]) == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > run.COLD_SAMPLES


def test_spans_self_time_and_restore():
    import types

    from spans import Spans

    owner = types.SimpleNamespace(
        outer=lambda: owner.inner(), inner=lambda: sum(range(1000)))
    spans = Spans()
    originals = (owner.outer, owner.inner)
    spans.wrap(owner, "outer", "a.outer")
    spans.wrap(owner, "inner", "b.inner")
    spans.start_iteration(0)
    owner.outer()
    spans.restore()
    assert (owner.outer, owner.inner) == originals
    row = spans.per_iteration()[0]
    assert row["a.outer"][0] == row["b.inner"][0] == 1
    assert abs(row["a.outer"][1] + row["b.inner"][2]
               - row["a.outer"][2]) < 1e-9
    assert spans.chrome_trace()["traceEvents"][-1]["args"]["parent"] \
        == "a.outer"


def test_not_collected_by_tier1():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "tests/" in proc.stdout
    assert "xbench" not in proc.stdout


def test_fails_cleanly_without_the_repo(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    (tmp_path / "xbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "xbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "xbench/run.py", "--workload", "mc-host", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
