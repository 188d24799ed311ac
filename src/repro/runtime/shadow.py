"""Shadow memory blocks (paper Fig 3).

For every traced allocation, XPlacer keeps one shadow byte per 32-bit word
of payload.  :class:`ShadowBlock` holds that byte array (numpy ``uint8``)
and implements the vectorized update rules for reads, writes and
read-modify-writes.  All updates are mask operations over word ranges or
index arrays -- there is no per-element Python loop even when a kernel
touches a megabyte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..memsim import Allocation, Processor
from . import flags as F

__all__ = ["ShadowBlock", "AccessCounts", "CATEGORIES", "nwords_for",
           "tally", "category_rows"]


def nwords_for(size: int) -> int:
    """Traced 32-bit words covering ``size`` payload bytes (ceil division)."""
    return -(-size // F.WORD_SIZE)


#: Access-map categories (:meth:`ShadowBlock.category_masks` keys, in
#: order) and the shadow bits each one tests.
CATEGORIES = {
    "cpu_write": F.CPU_WROTE,
    "gpu_write": F.GPU_WROTE,
    "cpu_read": F.READ_CC | F.READ_GC,
    "gpu_read": F.READ_CG | F.READ_GG,
    "gpu_read_cpu_origin": F.READ_CG,
    "gpu_read_gpu_origin": F.READ_GG,
    "cpu_read_gpu_origin": F.READ_GC,
    "accessed": F.EPOCH_MASK,
}
_CATEGORY_BITS = np.array(list(CATEGORIES.values()), np.uint8)[:, None]


def _bit_table() -> np.ndarray:
    """``(256, 8)`` 0/1 table: does a word whose shadow byte is ``v`` add to
    each :class:`AccessCounts` counter (first seven columns, in field
    order) and to the alternating-word count (last column)?"""
    v = np.arange(256, dtype=np.uint8)
    hit = lambda bits: (v & bits) != 0  # noqa: E731
    cols = [hit(b) for b in (F.CPU_WROTE, F.GPU_WROTE, F.READ_CC, F.READ_CG,
                             F.READ_GC, F.READ_GG, F.EPOCH_MASK)]
    cols.append(hit(F.CPU_WROTE | F.READ_CC | F.READ_GC)
                & hit(F.GPU_WROTE | F.READ_CG | F.READ_GG)
                & hit(F.CPU_WROTE | F.GPU_WROTE))
    return np.stack(cols, axis=1).astype(np.int64)


_TABLE = _bit_table()

#: Clears the last-writer bit (a CPU write makes the origin CPU).
_CLEAR_LAST = np.uint8(~F.LAST_WRITE_GPU & 0xFF)

#: Shadow words widened to histogram keys at a time (bounds the int64
#: temporary however large the allocations are).
_CHUNK = 1 << 16


def tally(flat: np.ndarray, bounds) -> np.ndarray:
    """Fig 4 counters of several shadows at once.

    ``flat`` is the concatenation of ``k`` shadow arrays and ``bounds``
    their ``k + 1`` offsets into it.  Returns a ``(k, 8)`` int64 array:
    per shadow, the seven :class:`AccessCounts` counters in field order,
    then the alternating-word count.  One ``bincount`` builds a
    ``(k, 256)`` histogram of shadow byte values, and one matmul with the
    bit table turns it into counters.
    """
    bounds = np.asarray(bounds, np.int64)
    k = len(bounds) - 1
    lo, hi = bounds[:-1], bounds[1:]
    owner = np.arange(0, 256 * k, 256, dtype=np.int64)
    hist = np.zeros(256 * k, np.int64)
    for a in range(0, len(flat), _CHUNK):
        b = a + _CHUNK
        n = np.minimum(hi, b) - np.maximum(lo, a)
        keys = np.repeat(owner, np.maximum(n, 0)) + flat[a:b]
        hist += np.bincount(keys, minlength=256 * k)
    return hist.reshape(k, 256) @ _TABLE


def category_rows(flat: np.ndarray) -> np.ndarray:
    """``(8, len(flat))`` bool: one row per :data:`CATEGORIES` entry."""
    return (flat & _CATEGORY_BITS) != 0


@dataclass(frozen=True)
class AccessCounts:
    """Aggregate counters extracted from one shadow block.

    Matches the columns of the paper's Fig 4 diagnostic table: write counts
    per processor (each address counted once), and read counts per
    ``origin > reader`` category (each address counted at most once per
    category).
    """

    cpu_written: int
    gpu_written: int
    read_cc: int
    read_cg: int
    read_gc: int
    read_gg: int
    accessed_words: int
    total_words: int

    @property
    def density(self) -> float:
        """Fraction of words accessed at least once this epoch."""
        return self.accessed_words / self.total_words if self.total_words else 0.0

    @property
    def alternating(self) -> int:
        """This is filled in by :meth:`ShadowBlock.counts` callers via
        :meth:`ShadowBlock.alternating_words`; kept here for symmetry."""
        raise AttributeError("use ShadowBlock.alternating_words()")


class ShadowBlock:
    """Shadow state for one allocation."""

    __slots__ = ("alloc", "shadow", "epoch_created", "freed_epoch")

    def __init__(self, alloc: Allocation, epoch: int = 0) -> None:
        self.alloc = alloc
        self.shadow = np.zeros(nwords_for(alloc.size), dtype=np.uint8)
        self.epoch_created = epoch
        self.freed_epoch: int | None = None

    @property
    def nwords(self) -> int:
        """Number of traced 32-bit words."""
        return len(self.shadow)

    # ------------------------------------------------------------------ #
    # address helpers

    def word_range(self, byte_offset: int, nbytes: int) -> tuple[int, int]:
        """Word-index range covering bytes ``[byte_offset, byte_offset+nbytes)``."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        lo = byte_offset // F.WORD_SIZE
        hi = (byte_offset + nbytes - 1) // F.WORD_SIZE + 1
        if hi > self.nwords:
            raise ValueError("access beyond end of shadowed allocation")
        return lo, hi

    def word_indices(self, byte_offset: int, elem_size: int,
                     indices: np.ndarray) -> np.ndarray:
        """Unique word indices for a gather/scatter access."""
        starts = byte_offset + indices * elem_size
        if elem_size <= F.WORD_SIZE:
            words = starts // F.WORD_SIZE
        else:
            # Wide elements span several words.
            span = -(-elem_size // F.WORD_SIZE)
            words = (starts[:, None] // F.WORD_SIZE) + np.arange(span)[None, :]
            words = words.ravel()
        return np.unique(words)

    # ------------------------------------------------------------------ #
    # update rules

    def record_write(self, proc: Processor, lo: int, hi: int,
                     idx: np.ndarray | None = None, step: int = 1) -> None:
        """Mark words written by ``proc`` and update the last-writer bit.

        ``step`` > 1 records only every ``step``-th word of the range --
        the sampled shadow mode (``Tracer(sample=N)``); diagnostics scale
        the resulting counts back up.
        """
        gpu = proc is Processor.GPU
        bits = F.GPU_WROTE | F.LAST_WRITE_GPU if gpu else F.CPU_WROTE
        if idx is None:
            target = self.shadow[lo:hi:step]
            target |= bits
            if not gpu:
                target &= _CLEAR_LAST
        else:
            words = self.shadow[idx] | bits
            if not gpu:
                words &= _CLEAR_LAST
            self.shadow[idx] = words

    def record_read(self, proc: Processor, lo: int, hi: int,
                    idx: np.ndarray | None = None, step: int = 1) -> None:
        """Mark words read by ``proc``, classified by value origin.

        A GPU-origin read bit is the CPU-origin one shifted left by two,
        and ``(word & LAST_WRITE_GPU) >> 1`` is that shift (2 or 0) per
        word.
        """
        bit = F.read_bit_for(proc, False)
        window = self.shadow[lo:hi:step] if idx is None else self.shadow[idx]
        window |= bit << ((window & F.LAST_WRITE_GPU) >> 1)
        if idx is not None:
            self.shadow[idx] = window

    def record_rmw(self, proc: Processor, lo: int, hi: int,
                   idx: np.ndarray | None = None, step: int = 1) -> None:
        """A read-modify-write: the read observes the *old* origin, then
        the write updates ownership -- order matters."""
        self.record_read(proc, lo, hi, idx, step)
        self.record_write(proc, lo, hi, idx, step)

    # ------------------------------------------------------------------ #
    # analysis extraction

    def counts(self) -> AccessCounts:
        """Aggregate Fig 4-style counters for the current epoch."""
        row = tally(self.shadow, (0, self.nwords))[0].tolist()
        return AccessCounts(*row[:7], total_words=self.nwords)

    def alternating_words(self) -> int:
        """Words accessed by *both* processors with at least one write --
        the paper's alternating-access criterion."""
        return int(tally(self.shadow, (0, self.nwords))[0, 7])

    def category_masks(self) -> dict[str, np.ndarray]:
        """Per-word boolean masks for access-map figures (Fig 5/7/8/10)."""
        return dict(zip(CATEGORIES, category_rows(self.shadow)))

    def reset(self) -> None:
        """Epoch reset: clear access bits, keep the last-writer bit."""
        self.shadow &= np.uint8(~F.EPOCH_MASK & 0xFF)
