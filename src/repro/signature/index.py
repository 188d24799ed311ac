"""The signature index: a versioned on-disk store of run signatures.

This is the cache key the ROADMAP's auto-placement service looks up:
``SignatureIndex.match`` finds the nearest stored signatures to a fresh
run, and anything above the similarity threshold is "a pattern we have
seen before" -- its cached placement plan can be replayed instead of
re-simulating.

Layout (all writes atomic, all JSON canonical, fully deterministic)::

    <root>/
      index.json          # version header + entry table
      sigs/<name>.json    # one RunSignature document per entry
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from ..jsonfmt import dumps
from .vector import FEATURE_VERSION, RunSignature, run_similarity

__all__ = ["INDEX_VERSION", "DEFAULT_MATCH_THRESHOLD", "SignatureIndex"]

INDEX_VERSION = 1

#: Similarity at/above which two runs count as "the same pattern".
#: Spatter calibration: re-runs of one family (even resharded) land
#: >0.99; different families land well below 0.9.
DEFAULT_MATCH_THRESHOLD = 0.9

_SAFE = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."


def _slug(name: str) -> str:
    out = "".join(c if c in _SAFE else "_" for c in name)
    return out or "_"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


class SignatureIndex:
    """Named run signatures with nearest-neighbor matching."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._entries: dict[str, dict[str, Any]] = {}
        index = self.root / "index.json"
        if index.exists():
            doc = json.loads(index.read_text(encoding="utf-8"))
            if doc.get("type") != "signature_index":
                raise ValueError(f"{index} is not a signature index")
            if int(doc.get("version", -1)) != INDEX_VERSION:
                raise ValueError(
                    f"index version {doc.get('version')} != supported "
                    f"{INDEX_VERSION}")
            if int(doc.get("feature_version", -1)) != FEATURE_VERSION:
                raise ValueError(
                    f"index feature_version {doc.get('feature_version')} != "
                    f"supported {FEATURE_VERSION}; recompute signatures")
            self._entries = dict(doc.get("entries", {}))

    # ------------------------------------------------------------------ #
    # persistence

    def _flush(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {
            "type": "signature_index",
            "version": INDEX_VERSION,
            "feature_version": FEATURE_VERSION,
            "entries": {k: self._entries[k] for k in sorted(self._entries)},
        }
        _atomic_write(self.root / "index.json",
                      dumps(doc, indent=1, sort_keys=True) + "\n")

    def add(self, name: str, sig: RunSignature) -> dict[str, Any]:
        """Store ``sig`` under ``name`` (replacing any previous entry)."""
        if sig.feature_version != FEATURE_VERSION:
            raise ValueError("signature feature_version mismatch")
        rel = f"sigs/{_slug(name)}.json"
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, sig.to_json())
        entry = {
            "file": rel,
            "workload": sig.workload,
            "platform": sig.platform,
            "total": sig.total,
            "allocs": len(sig.allocs),
            "phases": len(sig.phases),
        }
        self._entries[name] = entry
        self._flush()
        return entry

    def get(self, name: str) -> RunSignature:
        """Load the stored signature named ``name``."""
        entry = self._entries[name]
        return RunSignature.load(self.root / entry["file"])

    def names(self) -> list[str]:
        """All entry names, sorted."""
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # ------------------------------------------------------------------ #
    # matching

    def match(self, sig: RunSignature, *,
              threshold: float = DEFAULT_MATCH_THRESHOLD,
              k: int = 5) -> dict[str, Any]:
        """Nearest stored signatures to ``sig``.

        Returns a deterministic report: the top-``k`` neighbors sorted by
        descending similarity (name-tiebroken), each flagged ``match``
        when at/above ``threshold``, plus the best hit (or ``None``).
        """
        neighbors: list[dict[str, Any]] = []
        for name in self.names():
            sim = run_similarity(sig, self.get(name))
            neighbors.append({
                "name": name,
                "workload": self._entries[name]["workload"],
                "similarity": sim["similarity"],
                "match": sim["similarity"] >= threshold,
            })
        neighbors.sort(key=lambda n: (-n["similarity"], n["name"]))
        neighbors = neighbors[:max(0, k)]
        best = neighbors[0] if neighbors and neighbors[0]["match"] else None
        return {
            "type": "signature_match",
            "feature_version": FEATURE_VERSION,
            "query": sig.workload or "<query>",
            "threshold": threshold,
            "entries": len(self._entries),
            "neighbors": neighbors,
            "best": best,
        }
