"""Bounded memo shared by every layer that caches derived values.

The codegen caches are keyed by AST digest and the heat attribution
caches by code object, and a generator of programs (or a long session)
would otherwise grow them without limit.  :class:`LRU` keeps the
``maxsize`` most recently used entries and counts hits, misses and
evictions so a run can report how its memos behaved.  A leaf module: it
imports nothing from ``repro``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LRU"]


class LRU:
    """A dict-like memo that evicts its least recently used entry."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_data")

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any:
        """The entry for ``key`` (now most recent), or ``None``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def __getitem__(self, key: Hashable) -> Any:
        """The entry for ``key``, without touching order or counters."""
        return self._data[key]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        """Drop every entry (the counters keep running)."""
        self._data.clear()
