"""The codegen memos' bounded LRU (defined in the leaf :mod:`repro.memo`)."""

from ..memo import LRU

__all__ = ["LRU"]
