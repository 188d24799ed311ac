"""Streaming runs and time-shard splitting.

:func:`run_streaming` is the producer side of the spill-and-merge story:
one workload executed with a :class:`~repro.stream.spill.SpillingHeatStore`
and a ring-retained event log whose evictions land in an on-disk stream
directory instead of being dropped.  Memory stays bounded by the ring
capacity + one pending segment, no matter how long the run.

:func:`split_stream` redistributes a finished stream's segments
round-robin into K shard directories -- the controlled way to exercise
the merge algebra (and the golden tests' ground truth): because the
shards carry disjoint slices of one recording sequence,
:func:`~repro.stream.merge.merge_shards` must reproduce the unsharded
run exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .segments import SegmentWriter, load_manifest, read_frame, segment_files
from .spill import SpillingHeatStore, StreamSpiller

__all__ = ["run_streaming", "split_stream"]

#: Record types every split shard needs a copy of to be self-contained
#: (geometry + provenance headers; the merge dedupes them).
_HEADER_TYPES = ("alloc_meta", "alloc", "sampling")


def run_streaming(
    workload: str,
    platform: str,
    out_dir: str | Path,
    *,
    shard: str = "shard-0",
    buckets: int = 64,
    attribute: bool = True,
    materialize: bool = True,
    why: bool = True,
    sample: int | str | None = None,
    phases: bool = True,
    log_capacity: int = 512,
    watermark_events: int = 16384,
) -> dict[str, Any]:
    """Run ``workload`` in streaming mode, writing one shard directory.

    :param shard: shard identity (must be unique across the directories
        that will later be merged together).
    :param why: record causal provenance so the merged run can feed
        ``repro-why`` (cause blocks on every driver event).
    :param sample: shadow-sampling stride passed to the tracer (an int,
        or ``"auto"`` for signature-guided adaptive sampling).
    :param phases: track access-pattern phases live and mark
        ``phase_begin``/``phase_end`` events in the stream (the manifest
        rollup carries the current phase for ``repro-top``).
    :param log_capacity: event-log ring size; evictions beyond it spill
        to disk (this is the memory watermark on the event side).
    :param watermark_events: spilled events that force a segment flush
        between epoch boundaries.

    Returns ``{"manifest": final stream manifest, "run": WorkloadRun,
    "sim_time": float}``.
    """
    from ..workloads.base import make_session
    from ..workloads.registry import resolve_platform, runner_for

    preset = resolve_platform(platform)
    runner = runner_for(workload, per_epoch=True)

    heat = SpillingHeatStore(nbuckets=buckets, attribute=attribute)
    spiller = StreamSpiller(
        out_dir, shard=shard, workload=workload, platform=preset,
        config={"buckets": buckets, "materialize": materialize,
                "causes": why, "log_capacity": log_capacity,
                "sample": sample or 1},
        watermark_events=watermark_events)
    session = make_session(preset, trace=True, materialize=materialize,
                           sample=sample)
    if why:
        session.platform.um.track_causes = True
    session.platform.events.configure_retention(capacity=log_capacity,
                                                ring=True)
    tracker = None
    if phases:
        from ..signature.tracker import PhaseTracker

        # Attached before the spiller so each epoch's phase marker is
        # recorded before the spiller flushes that epoch's segment.
        tracker = PhaseTracker(
            log=session.platform.events,
            clock=lambda: session.platform.clock.now,
        ).attach(session.tracer, heat)
    spiller.attach(session, heat=heat)
    spiller.phase_source = tracker
    try:
        run = runner(session)
    finally:
        if tracker is not None:
            tracker.finish()  # phase_end lands before the final drain
        manifest = spiller.close()
    return {"manifest": manifest, "run": run,
            "sim_time": session.platform.clock.now}


def split_stream(src_dir: str | Path, out_base: str | Path,
                 k: int) -> list[Path]:
    """Split one complete stream into ``k`` round-robin shard directories.

    Segment ``i`` of the source lands in shard ``i % k``; the source's
    header records (``alloc_meta`` / ``alloc`` / ``sampling``, deduped)
    are prepended to each shard's first segment so every shard is
    self-contained.  The source's drop count is carried by shard 0 only
    (it is a property of the run, not of a slice).

    Payload lines are copied verbatim once :func:`read_frame` has
    verified them, and each shard publishes exactly one manifest, already
    complete, after its last segment (nothing tails a split).

    Returns the shard directory paths, in shard order.
    """
    if k < 1:
        raise ValueError(f"cannot split into {k} shards")
    src = Path(src_dir)
    manifest = load_manifest(src)
    rollup: Mapping[str, Any] = manifest.get("rollup", {})

    headers: list[dict[str, Any]] = []
    header_lines: list[str] = []
    seen: set[str] = set()
    frames: list[tuple[list[dict[str, Any]], list[str]]] = []
    for path in segment_files(src):
        frame = read_frame(path)  # strict: the source must be complete
        frames.append(frame)
        for rec, line in zip(*frame):
            if rec.get("type") in _HEADER_TYPES:
                key = json.dumps(rec, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    headers.append(rec)
                    header_lines.append(line)

    out_base = Path(out_base)
    writers = [SegmentWriter(
        out_base / f"shard-{j}",
        shard=f"{manifest.get('shard', 'shard')}.{j}",
        workload=manifest.get("workload", ""),
        platform=manifest.get("platform", ""),
        config=dict(manifest.get("config", {}), split_from=str(src),
                    split_k=k)) for j in range(k)]
    for i, (records, lines) in enumerate(frames):
        if i < k:  # a shard's first segment carries the headers it lacks
            extra = [n for n, h in enumerate(headers) if h not in records]
            records = [headers[n] for n in extra] + records
            lines = [header_lines[n] for n in extra] + lines
        writers[i % k].append_segment(records, lines)
    for writer in writers[len(frames):]:
        # More shards than segments: the shard still gets the headers.
        writer.append_segment(headers, header_lines)
    for j, writer in enumerate(writers):
        shard_rollup: dict[str, Any] = {
            "events_spilled": sum(e["events"] for e in writer.segments),
            "heat_epochs_spilled": sum(e["heat_epochs"]
                                       for e in writer.segments),
            "segments": len(writer.segments),
            "events_dropped": int(rollup.get("events_dropped", 0))
            if j == 0 else 0,
            "heat_records": int(rollup.get("heat_records", 0))
            if j == 0 else 0,
        }
        if j == 0:
            # Whole-run properties live on one shard only (display-side;
            # the merge recomputes counters from the events themselves).
            for key in ("summary", "sim_time", "gpu_pages_in_use",
                        "epochs_closed", "phase"):
                if key in rollup:
                    shard_rollup[key] = rollup[key]
        if "sampling" in rollup:
            shard_rollup["sampling"] = dict(rollup["sampling"])
        writer.finalize(shard_rollup)
    return [writer.dir for writer in writers]
