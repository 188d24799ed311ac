"""Source-line attribution: who made this access?

Two attribution paths feed :class:`~repro.heatmap.store.SourceSite`:

* **Instrumented path** -- the mini-CUDA interpreter threads the current
  statement's ``file:line`` straight into ``traceR``/``traceW``/``traceRW``
  (no stack inspection needed; the instrumenter knows the source).
* **Native path** -- Python workloads access memory through
  :class:`~repro.cudart.memory.ArrayView`; :func:`caller_site` walks the
  interpreter stack past the simulator's own frames to the first workload
  frame, exactly like a sampling profiler attributes a leaf sample.

Frame walking only runs while a heat store is attached (heat recording is
off by default), so the untraced hot path never pays for it.
"""

from __future__ import annotations

import sys
from types import FrameType

from ..memo import LRU
from .store import SourceSite

__all__ = ["caller_site", "site_from_frame", "SKIP_MODULES"]

#: Module prefixes treated as simulator internals: the attribution walk
#: skips frames whose module starts with any of these.  ``repro.workloads``
#: is deliberately absent -- workload code is exactly what we attribute to.
SKIP_MODULES = (
    "repro.heatmap",
    "repro.runtime",
    "repro.cudart",
    "repro.memsim",
    "repro.telemetry",
    "repro.causes",
)


def _shorten(path: str) -> str:
    """Last two path components -- stable, readable, environment-free."""
    parts = path.replace("\\", "/").rsplit("/", 2)
    return "/".join(parts[-2:]) if len(parts) > 1 else path


#: (code, line) -> SourceSite memo; sites repeat for every access a given
#: source line makes, so construction and path shortening run once.
#: Bounded: a long session that generates code objects evicts the
#: coldest sites.
_SITE_CACHE = LRU(4096)


def site_from_frame(frame: FrameType) -> SourceSite:
    """A :class:`SourceSite` naming ``frame``'s current line."""
    code = frame.f_code
    key = (code, frame.f_lineno)
    site = _SITE_CACHE.get(key)
    if site is None:
        site = _SITE_CACHE[key] = SourceSite(
            _shorten(code.co_filename), frame.f_lineno, code.co_name)
    return site


def caller_site(skip: tuple[str, ...] = SKIP_MODULES,
                max_depth: int = 40) -> SourceSite | None:
    """The first stack frame outside the simulator, as a source site.

    Returns ``None`` when every frame within ``max_depth`` belongs to a
    skipped module (e.g. a synthetic access issued by the simulator
    itself).
    """
    frame: FrameType | None = sys._getframe(1)
    for _ in range(max_depth):
        if frame is None:
            return None
        # Two C calls per frame: as cheap as a memo lookup keyed by code
        # object, and nothing to grow.
        if not frame.f_globals.get("__name__", "").startswith(skip):
            return site_from_frame(frame)
        frame = frame.f_back
    return None
