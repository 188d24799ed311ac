"""Artifact bytes pinned to digests recorded before the bulk writers.

The report and stream write paths (indented JSON, heat CSV, HTML strips,
shard segments and manifests) are built in bulk; these digests were
recorded from the per-item writers they replaced, so any byte they move
fails here.  ``heat.npz`` is pinned by its decompressed members: the
archive's compressed bytes depend on the zlib build, the arrays do not.
"""

import hashlib
import zipfile
from pathlib import Path

from repro.heatmap.cli import run_report
from repro.stream import segments
from repro.stream.shard import run_streaming, split_stream

SW_REPORT = {
    "causes.json":
        "bab5d48df4014f62fc1f67401760e77565e7f6f7807714c7b95c81adea10aa8e",
    "events.jsonl":
        "8d9750860386b35efe68145734c41d76cb123cafbe8a86a11a3608b61c6a78a5",
    "heat.csv":
        "93a80d40f5f6b2a4abd038a70bc09e60d9670fa39fb0532c9210b0c2ba949b89",
    "heat.npz":
        "6a5b592fc0608ab8bb82b20d5aec89f8cd54d3eecf32223a1aedeab270532a33",
    "metrics.prom":
        "44d447bbaf511b2f7ed0160acb6744bfcffe09348121ca738b1efdb1f01b9010",
    "report.html":
        "879ca653709d382e29466481f87ea1a1a1081f199beb71b1698dd86ae36aa690",
    "signature.json":
        "8e06e5fcfbaf9a3de171182f9a131e84780dde0b4552362f9b464e00c3070fed",
    "timeline.json":
        "36d26cfb67372e421639b291c8867be80614d5a23f1b5b70272d9790400fcb7c",
}

LULESH_SPLIT = {
    "shard-0/manifest.json":
        "616ec2dfa3f37ed0037795bfc78d7492830dbca80a07c2ddba5e0c7f30c24670",
    "shard-0/segments/seg-00000.jsonl":
        "05a33a4bfb8b659dcbf5416e8efd77995b6744123c847267fdf86246777fc277",
    "shard-0/segments/seg-00001.jsonl":
        "2797e931e118dd839ab793f3b96ebca6b37719f06361d39c0c8c9df3d661da50",
    "shard-1/manifest.json":
        "7f5c5d01ba4c33675aae9957cc8928336f8c2679819b30c0455bee1570b08680",
    "shard-1/segments/seg-00000.jsonl":
        "51e53857fe6df3c43d0985cab9582e5238a2f92d0b9e368d8e288600bceb09a4",
    "shard-1/segments/seg-00001.jsonl":
        "bebf0a900a3fe62b1de07e72c228bc377e1ba1ed75803070a8481bc0ab2d98cf",
    "shard-2/manifest.json":
        "5cb8302b999ae58e14db0ce65412fa3a98f7251b88d71fb57d519a9c123d290b",
    "shard-2/segments/seg-00000.jsonl":
        "5602506bd0e941da5f20b87af894100b0baff75f883a4506caa573fe273f64df",
    "shard-2/segments/seg-00001.jsonl":
        "8f3680d2c1003b02f6351435124d6fc563aafad2bfd40f5277c3e80f1042c517",
    "shard-3/manifest.json":
        "c82071afaf38fc912a831e72995c4847710223ffcaea7c23ea44287c0667b2a7",
    "shard-3/segments/seg-00000.jsonl":
        "8138dd9abfcc5da42925d390c775ba71e712931586fc1c1dc811b56e627443a3",
}


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as archive:
            for name in sorted(archive.namelist()):
                h.update(name.encode())
                h.update(archive.read(name))
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def _digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_sw_report_bundle_bytes(tmp_path):
    run_report("sw", "intel-pascal", tmp_path / "report", why=True)
    assert _digests(tmp_path / "report") == SW_REPORT


def test_four_shard_split_bytes(tmp_path, monkeypatch):
    # Relative paths: the shard manifests record where they were split from.
    monkeypatch.chdir(tmp_path)
    run_streaming("lulesh", "pcie", "stream", log_capacity=32)
    published = []
    write = segments.write_manifest
    monkeypatch.setattr(segments, "write_manifest",
                        lambda d, m: published.append(m) or write(d, m))
    dirs = split_stream("stream", "shards", 4)
    assert len(published) == 4
    assert all(m["complete"] for m in published)
    assert [Path(d) for d in dirs] == [Path("shards") / f"shard-{j}"
                                       for j in range(4)]
    assert _digests(Path("shards")) == LULESH_SPLIT
