"""Differential oracle sweep: every bundled workload, every backend.

The tree-walking interpreter is the oracle; the compiled backends must
produce *byte-identical* observable state -- stdout, diagnostics, shadow
counters, heat matrices, signature vectors, and the telemetry artifacts
(events.jsonl / metrics.prom, minus the backend-attribution records that
exist precisely to tell the backends apart).
"""

import json

import numpy as np
import pytest

from repro.heatmap.store import HeatStore
from repro.interp import run_program
from repro.runtime import Tracer
from repro.signature import signature_from_store
from repro.workloads.minicuda import CATALOG
from repro.workloads.spatter import indirection, to_mini_cuda, uniform_stride

BACKENDS = ("interp", "codegen", "codegen-vec")


def _sources() -> dict[str, str]:
    srcs = {name: build() for name, build in CATALOG.items()}
    srcs["spatter-scatter-stride"] = to_mini_cuda(
        uniform_stride(8, count=16, kind="scatter"))
    srcs["spatter-scatter-lcg"] = to_mini_cuda(
        indirection(length=256, spread=4096, kind="scatter"))
    return srcs


SOURCES = _sources()


def _describe_no_backend(tracer) -> dict:
    d = tracer.describe()
    for key in ("backend", "backend_launches", "backend_fallbacks"):
        d.pop(key, None)
    return d


def _heat_bytes(store: HeatStore) -> list[tuple]:
    """Every heat matrix and per-site vector, as comparable bytes."""
    out = []
    for heat in store.allocations():
        for snap in heat.epochs:
            sites = [(label, vec.tobytes())
                     for label, vec in sorted(
                         (s.label, v) for s, v in snap.sites.items())]
            out.append((heat.label, snap.epoch, snap.total,
                        snap.counts.tobytes(), sites))
    return out


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_backends_byte_match_the_interpreter(name):
    results = {}
    for backend in BACKENDS:
        heat = HeatStore()
        tracer = Tracer(heat=heat)
        it = run_program(SOURCES[name], tracer=tracer, backend=backend,
                         source_name=f"{name}.cu")
        sig = signature_from_store(heat, workload=name)
        results[backend] = {
            "stdout": it.stdout,
            "describe": _describe_no_backend(it.tracer),
            "heat": _heat_bytes(heat),
            "signature": sig.to_json(),
        }
        if backend != "interp":
            info = it.tracer.backend_info()
            assert info["host"] == {"codegen": 1}, (
                f"{name}: host code fell back {info}")
        if backend == "codegen":
            assert info["reused"] == 0, f"{name}: scalar tier reused {info}"
        if backend == "codegen-vec":
            assert info["fallbacks"] == 0, (
                f"{name}: vectorizer fell back {info}")
    assert results["codegen"] == results["interp"]
    assert results["codegen-vec"] == results["interp"]


def _filtered_events(path) -> list[str]:
    """events.jsonl minus backend attribution (re-serialized per line)."""
    lines = []
    for raw in path.read_text().splitlines():
        rec = json.loads(raw)
        if rec.get("type") == "backend":
            continue
        if rec.get("type") == "manifest":
            rec.get("config", {}).pop("backend", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return lines


def _filtered_metrics(path) -> list[str]:
    return [line for line in path.read_text().splitlines()
            if "backend_fallbacks" not in line]


@pytest.mark.parametrize("workload", ["mc-pathfinder", "mc-spatter-lcg"])
def test_traced_artifacts_byte_match(workload, tmp_path):
    """repro-trace artifacts are identical across backends once the
    backend-attribution records are stripped."""
    from repro.telemetry.cli import run_traced

    artifacts = {}
    for backend in BACKENDS:
        out = tmp_path / backend
        paths = run_traced(workload, "pcie", out, backend=backend)
        artifacts[backend] = {
            "events": _filtered_events(paths["events"]),
            "metrics": _filtered_metrics(paths["metrics"]),
            "timeline": paths["timeline"].read_text(),
        }
    assert artifacts["codegen"] == artifacts["interp"]
    assert artifacts["codegen-vec"] == artifacts["interp"]


def test_interp_artifacts_carry_no_backend_records(tmp_path):
    """The historical interp artifacts stay byte-stable: no backend
    record, no fallback gauge (backend_info() is None on interp)."""
    from repro.telemetry.cli import run_traced

    paths = run_traced("mc-stencil", "pcie", tmp_path, backend="interp")
    raw = paths["events"].read_text()
    assert '"type": "backend"' not in raw
    assert "backend_fallbacks" not in paths["metrics"].read_text()


def test_repeat_launches_reuse_their_geometry():
    """mc-lulesh relaunches each kernel over the same arrays: every
    launch after a kernel's first reuses that kernel's geometry."""
    it = run_program(SOURCES["mc-lulesh"], tracer=Tracer(),
                     backend="codegen-vec", source_name="mc-lulesh.cu")
    assert it.tracer.backend_info() == {
        "backend": "codegen-vec", "launches": {"codegen-vec": 24},
        "fallbacks": 0, "host": {"codegen": 1},
        "host_loops": {"codegen": 2, "codegen-vec": 1}, "reused": 22}


def test_signature_vectors_identical_to_interp_reference():
    """Signature cosine drift across backends would poison the phase
    index; require exact equality, not just high similarity."""
    from repro.signature import run_similarity

    sigs = {}
    for backend in ("interp", "codegen-vec"):
        heat = HeatStore()
        run_program(SOURCES["mc-lulesh"], tracer=Tracer(heat=heat),
                    backend=backend, source_name="mc-lulesh.cu")
        sigs[backend] = signature_from_store(heat, workload="mc-lulesh")
    sim = run_similarity(sigs["interp"], sigs["codegen-vec"])
    assert sim["similarity"] == pytest.approx(1.0)
    for (ea, va, ta), (eb, vb, tb) in zip(
            sigs["interp"].epoch_vectors, sigs["codegen-vec"].epoch_vectors):
        assert ea == eb and ta == tb
        assert np.array_equal(va, vb)
