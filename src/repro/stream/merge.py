"""Deterministic merge algebra over N shard stream directories.

:func:`merge_shards` combines any number of shard directories written by
:class:`~repro.stream.spill.StreamSpiller` into one
:class:`~repro.stream.merge.MergedRun`: a reconstituted
:class:`~repro.heatmap.store.HeatStore`, one globally ordered driver
event stream, allocation-site provenance, and recomputed aggregate
counters -- everything the existing ``repro-report`` and ``repro-why``
renderers consume, unchanged.

The algebra:

* **Heat is additive.**  Allocations unify on ``(label, base, serial)``
  with geometry (size/words/buckets) required to agree; epoch matrices
  and per-site bucket vectors for the same epoch number sum
  element-wise; epochs order by number.
* **Events are a deterministic interleave.**  When the shards' event id
  sets are pairwise disjoint they share one recording sequence (a
  time-sharded split of a single run) and the merge orders by id,
  *preserving* the original ids -- a split-and-remerge round-trips
  byte-identically.  Overlapping ids mean independent processes: events
  order by ``(time, shard, arrival)``, ids are rebased onto one fresh
  sequence, and every ``cause.parent`` link is remapped through the same
  table so causal blame survives the merge.
* **Counters recompute from the merged events** (the spiller streams
  every event exactly once), so counts never double- or under-count no
  matter how the segments were distributed.

Truncated segments -- a shard that crashed mid-write -- are skipped with
a warning (strict mode raises) and never corrupt the surviving data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from .. import __version__
from ..heatmap.store import AllocationHeat, HeatStore
from ..jsonfmt import dumps
from ..telemetry.events_jsonl import SCHEMA_VERSION

from .segments import STREAM_VERSION, iter_shard_records, load_manifest
from .spill import decode_heat_epoch

__all__ = ["MergedRun", "merge_shards"]

#: ``EventLog.summary()``-shaped keys recomputed from merged events.
_SUMMARY_ZERO = {
    "fault_groups": 0, "migrated_pages": 0, "duplicated_pages": 0,
    "invalidations": 0, "evicted_pages": 0, "transfer_bytes": 0,
    "remote_accesses": 0, "memory_time": 0.0,
}


class MergedRun:
    """The result of merging shard streams (see :func:`merge_shards`)."""

    def __init__(self) -> None:
        self.workload = ""
        self.platform = ""
        self.shards: list[str] = []
        self.store = HeatStore(attribute=False)
        self.events: list[dict[str, Any]] = []
        self.allocs: list[dict[str, Any]] = []
        self.sampling: dict[str, Any] | None = None
        self.summary: dict[str, float] = dict(_SUMMARY_ZERO)
        self.events_dropped = 0
        self.warnings: list[str] = []
        self.ids_rebased = False

    # ------------------------------------------------------------------ #
    # derived views

    def causes_report(self) -> dict[str, Any]:
        """Causal blame rollup over the merged event stream."""
        from ..causes.graph import CausalGraph

        records: list[Mapping[str, Any]] = list(self.allocs)
        records.extend(self.events)
        return CausalGraph.from_records(records).report(
            workload=self.workload, platform=self.platform)

    def metrics_snapshot(self) -> dict[str, dict[str, float]]:
        """A recorder-shaped metrics snapshot rebuilt from the merge."""
        return self._registry().snapshot()

    def _registry(self):
        from ..telemetry.metrics import MetricsRegistry

        reg = MetricsRegistry("xplacer_")
        s = self.summary
        reg.counter("page_fault_groups_total",
                    "fault groups serviced").inc(s["fault_groups"])
        reg.counter("migrated_pages_total",
                    "pages migrated on demand or by prefetch"
                    ).inc(s["migrated_pages"])
        reg.counter("evicted_pages_total",
                    "pages evicted to host for capacity"
                    ).inc(s["evicted_pages"])
        reg.counter("transfer_bytes_total", "explicit cudaMemcpy bytes"
                    ).inc(s["transfer_bytes"])
        reg.counter("duplicated_pages_total", "read-mostly copies created"
                    ).inc(s["duplicated_pages"])
        reg.counter("invalidated_pages_total",
                    "duplicated copies dropped on write"
                    ).inc(s["invalidations"])
        counter = reg.counter("driver_events_total", "driver events by kind")
        by_kind: dict[tuple[str, str], int] = {}
        for ev in self.events:
            key = (ev["kind"], ev.get("proc", ""))
            by_kind[key] = by_kind.get(key, 0) + 1
        for (kind, proc), n in sorted(by_kind.items()):
            counter.inc(n, kind=kind, proc=proc)
        reg.counter("repro_events_dropped_total",
                    "driver events lost from retention (not spilled)",
                    absolute=True).inc(self.events_dropped)
        reg.gauge("merged_shards", "shard directories merged into this run"
                  ).set(len(self.shards))
        return reg

    # ------------------------------------------------------------------ #
    # artifact output

    def manifest(self) -> dict[str, Any]:
        """Stream-manifest-shaped summary of the merged run."""
        rollup: dict[str, Any] = {
            "summary": dict(self.summary),
            "events_dropped": self.events_dropped,
            "events": len(self.events),
            "epochs_closed": len(self.store.epochs_closed),
        }
        if self.sampling:
            rollup["sampling"] = dict(self.sampling)
        return {
            "type": "stream_manifest",
            "stream_version": STREAM_VERSION,
            "shard": "merged",
            "merged_from": list(self.shards),
            "ids_rebased": self.ids_rebased,
            "workload": self.workload,
            "platform": self.platform,
            "config": {},
            "seq": 0,
            "complete": True,
            "segments": [],
            "rollup": rollup,
            "warnings": list(self.warnings),
        }

    def signature(self):
        """Access-pattern signature of the merged heat (with phases).

        Heat merges by element-wise integer sum, so a K-shard merge signs
        byte-identically to the unsharded run it was split from -- the
        property the signature index relies on to recognize resharded
        reruns of a known pattern.
        """
        from ..signature import signature_from_store

        return signature_from_store(self.store, workload=self.workload,
                                    platform=self.platform)

    def write(self, out_dir: str | Path, *, report: bool = True,
              why: bool = True) -> dict[str, Path]:
        """Write the merged run directory.

        Always: ``manifest.json``, ``events.jsonl`` (manifest-led, schema
        v2 -- directly consumable by ``repro-why``), ``heat.csv``,
        ``heat.npz``, ``metrics.prom``, ``signature.json`` (the run's
        access-pattern signature + detected phases, ready for
        ``repro-sig compare/match``).  With ``why``: ``causes.json``.
        With ``report``: ``report.html`` through the standard renderer.
        """
        from .segments import write_manifest

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}
        paths["manifest"] = write_manifest(out, self.manifest())

        stream_manifest = {
            "type": "manifest", "schema_version": SCHEMA_VERSION,
            "package": "repro", "version": __version__,
            "workload": self.workload,
            "config": {"merged_from": list(self.shards),
                       "ids_rebased": self.ids_rebased},
            "platform": {"name": self.platform},
        }
        events_path = out / "events.jsonl"
        with events_path.open("w", encoding="utf-8") as fh:
            for record in ([stream_manifest] + self.allocs + self.events):
                fh.write(json.dumps(record) + "\n")
        paths["events"] = events_path

        csv_path = out / "heat.csv"
        csv_path.write_text(self.store.to_csv())
        paths["heat_csv"] = csv_path
        paths["heat_npz"] = self.store.to_npz(out / "heat.npz")

        metrics_path = out / "metrics.prom"
        metrics_path.write_text(self._registry().to_prometheus())
        paths["metrics"] = metrics_path

        sig = self.signature()
        paths["signature"] = sig.save(out / "signature.json")

        causes = None
        if why:
            causes = self.causes_report()
            causes_path = out / "causes.json"
            causes_path.write_text(dumps(causes, indent=2) + "\n")
            paths["causes"] = causes_path

        if report:
            from ..heatmap.html import build_report

            html = build_report(
                workload=self.workload, platform=self.platform,
                store=self.store, metrics=self.metrics_snapshot(),
                causes=causes,
                stream={"merged_from": list(self.shards),
                        "events_dropped": self.events_dropped,
                        "warnings": list(self.warnings)},
                sampling=self.sampling,
                phases=sig.phases,
                artifacts=("events.jsonl", "heat.csv", "heat.npz",
                           "metrics.prom", "causes.json",
                           "signature.json"))
            report_path = out / "report.html"
            report_path.write_text(html)
            paths["report"] = report_path
        return paths


def merge_shards(shard_dirs, *, strict: bool = False,
                 on_warning: Callable[[str], None] | None = None) -> MergedRun:
    """Merge N shard stream directories into one :class:`MergedRun`.

    Deterministic: the result is a pure function of the shard contents,
    independent of the order ``shard_dirs`` was given in.
    """
    merged = MergedRun()

    def warn(message: str) -> None:
        merged.warnings.append(message)
        if on_warning is not None:
            on_warning(message)

    # Deterministic shard order: manifest shard id, then path.
    loaded: list[tuple[str, Path, dict]] = []
    for d in shard_dirs:
        path = Path(d)
        manifest = load_manifest(path)
        loaded.append((str(manifest.get("shard", path.name)), path, manifest))
    loaded.sort(key=lambda item: (item[0], str(item[1])))

    heat_meta: dict[tuple[str, int, int], dict] = {}
    heat_epochs: dict[tuple[str, int, int], dict[int, Any]] = {}
    epoch_markers: set[int] = set()
    alloc_records: dict[tuple[str, int], dict] = {}
    shard_events: list[list[dict]] = []
    samplings: list[dict] = []
    heat_records_total = 0

    for shard_name, path, manifest in loaded:
        merged.shards.append(shard_name)
        if not manifest.get("complete", False):
            warn(f"shard {shard_name} ({path}) is not marked complete; "
                 "merging what it wrote")
        if manifest.get("workload"):
            if merged.workload and merged.workload != manifest["workload"]:
                warn(f"shard {shard_name} workload {manifest['workload']!r} "
                     f"!= {merged.workload!r}")
            merged.workload = merged.workload or manifest["workload"]
        if manifest.get("platform"):
            if merged.platform and merged.platform != manifest["platform"]:
                warn(f"shard {shard_name} platform {manifest['platform']!r} "
                     f"!= {merged.platform!r}")
            merged.platform = merged.platform or manifest["platform"]
        rollup = manifest.get("rollup", {})
        merged.events_dropped += int(rollup.get("events_dropped", 0))
        heat_records_total += int(rollup.get("heat_records", 0))

        events: list[dict] = []
        for rec in iter_shard_records(path, strict=strict, warn=warn):
            rtype = rec.get("type")
            if rtype == "alloc_meta":
                key = (rec["label"], int(rec["base"]), int(rec["serial"]))
                known = heat_meta.get(key)
                if known is None:
                    heat_meta[key] = rec
                elif (known["size"] != rec["size"]
                      or known["nbuckets"] != rec["nbuckets"]):
                    warn(f"allocation {key[0]!r} geometry disagrees across "
                         f"shards ({known['size']}B/{known['nbuckets']}b vs "
                         f"{rec['size']}B/{rec['nbuckets']}b); keeping first")
            elif rtype == "heat_epoch":
                key = (rec["label"], int(rec["base"]), int(rec["serial"]))
                per_epoch = heat_epochs.setdefault(key, {})
                epoch = int(rec["epoch"])
                if epoch in per_epoch:
                    _add_heat(per_epoch[epoch], rec)
                else:
                    per_epoch[epoch] = {"counts": rec["counts"],
                                        "sites": list(rec.get("sites", ()))}
            elif rtype == "driver_event":
                events.append(rec)
            elif rtype == "alloc":
                alloc_records.setdefault(
                    (rec.get("label", ""), int(rec.get("base", 0))), rec)
            elif rtype == "epoch":
                epoch_markers.add(int(rec["epoch"]))
            elif rtype == "sampling":
                samplings.append(
                    {k: v for k, v in rec.items() if k != "type"})
        shard_events.append(events)

    _merge_events(merged, shard_events, warn)
    _merge_heat(merged, heat_meta, heat_epochs, epoch_markers, warn)
    merged.store.records = heat_records_total
    merged.allocs = [alloc_records[k] for k in sorted(alloc_records)]
    _merge_sampling(merged, samplings, warn)
    _recount(merged)
    return merged


def _add_heat(into: dict, rec: Mapping[str, Any]) -> None:
    """Element-wise sum of one heat_epoch record into an accumulator."""
    a = np.asarray(into["counts"], np.int64)
    b = np.asarray(rec["counts"], np.int64)
    into["counts"] = (a + b).tolist()
    sites: dict[tuple[str, int, str], np.ndarray] = {
        (f, int(l), fn): np.asarray(vec, np.int64)
        for f, l, fn, vec in into["sites"]}
    for f, l, fn, vec in rec.get("sites", ()):
        key = (f, int(l), fn)
        add = np.asarray(vec, np.int64)
        sites[key] = sites[key] + add if key in sites else add
    into["sites"] = [[f, l, fn, vec.tolist()]
                     for (f, l, fn), vec in sorted(sites.items())]


def _merge_heat(merged: MergedRun, heat_meta, heat_epochs, epoch_markers,
                warn) -> None:
    for key in sorted(heat_epochs):
        meta = heat_meta.get(key)
        if meta is None:
            warn(f"heat for {key[0]!r} has no alloc_meta in any shard; "
                 "skipping the allocation")
            continue
        heat = AllocationHeat.from_meta(
            meta["label"], int(meta["base"]), int(meta["serial"]),
            int(meta["size"]), nbuckets=int(meta["nbuckets"]))
        for epoch in sorted(heat_epochs[key]):
            acc = heat_epochs[key][epoch]
            rec = {"epoch": epoch, "counts": acc["counts"],
                   "sites": acc["sites"]}
            heat.epochs.append(decode_heat_epoch(rec, heat.nbuckets))
        merged.store.adopt(heat)
    merged.store.epochs_closed = sorted(epoch_markers)


def _merge_events(merged: MergedRun, shard_events: list[list[dict]],
                  warn) -> None:
    non_empty = [events for events in shard_events if events]
    if not non_empty:
        return
    seen: set[int] = set()
    disjoint = True
    for events in non_empty:
        ids = {int(ev.get("id", -1)) for ev in events}
        if ids & seen:
            disjoint = False
            break
        seen |= ids
    if disjoint and len(non_empty) > 1:
        # One recording sequence sliced across shards: id order IS the
        # original program order, and ids survive the round-trip.
        merged.events = sorted(
            (ev for events in non_empty for ev in events),
            key=lambda ev: int(ev.get("id", -1)))
        return
    if len(non_empty) == 1:
        merged.events = list(non_empty[0])
        return
    # Independent recording sequences: rebase onto one fresh id space.
    merged.ids_rebased = True
    warn("shard event ids overlap (independent runs); rebasing ids and "
         "cause links onto one merged sequence")
    tagged = []
    for shard_idx, events in enumerate(shard_events):
        for arrival, ev in enumerate(events):
            tagged.append((float(ev.get("t", 0.0)), shard_idx, arrival, ev))
    tagged.sort(key=lambda item: item[:3])
    remap: dict[tuple[int, int], int] = {}
    for new_id, (_, shard_idx, _, ev) in enumerate(tagged):
        remap[(shard_idx, int(ev.get("id", -1)))] = new_id
    out = []
    for new_id, (_, shard_idx, _, ev) in enumerate(tagged):
        ev = dict(ev)
        ev["id"] = new_id
        cause = ev.get("cause")
        if cause is not None:
            cause = dict(cause)
            parent = int(cause.get("parent", -1))
            if parent >= 0:
                cause["parent"] = remap.get((shard_idx, parent), -1)
            ev["cause"] = cause
        out.append(ev)
    merged.events = out


def _merge_sampling(merged: MergedRun, samplings: list[dict], warn) -> None:
    if not samplings:
        return
    distinct = {json.dumps(s, sort_keys=True) for s in samplings}
    if len(distinct) > 1:
        warn("shards used different sampling strides; reporting the "
             "coarsest (fidelity is bounded by the worst shard)")
        samplings.sort(key=lambda s: -int(s.get("sample", 1)))
    merged.sampling = samplings[0]


def _recount(merged: MergedRun) -> None:
    """Recompute ``EventLog.summary()``-shaped counters from the events."""
    s = dict(_SUMMARY_ZERO)
    for ev in merged.events:
        kind = ev.get("kind")
        pages = int(ev.get("pages", 0))
        s["memory_time"] += float(ev.get("cost", 0.0))
        if kind == "page_fault":
            s["fault_groups"] += 1
        elif kind == "migration":
            s["migrated_pages"] += pages
        elif kind == "duplication":
            s["duplicated_pages"] += pages
        elif kind == "invalidation":
            s["invalidations"] += 1
        elif kind == "eviction":
            s["evicted_pages"] += pages
        elif kind == "transfer":
            s["transfer_bytes"] += int(ev.get("bytes", 0))
        elif kind == "remote_access":
            s["remote_accesses"] += 1
    s["memory_time"] = round(s["memory_time"], 12)
    merged.summary = s
