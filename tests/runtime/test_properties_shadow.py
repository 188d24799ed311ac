"""Property-based tests (hypothesis) for shadow memory invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import AddressSpace, MemoryKind, Processor
from repro.runtime import ShadowBlock
from repro.runtime import flags as F

CPU, GPU = Processor.CPU, Processor.GPU

NWORDS = 32


def make_block() -> ShadowBlock:
    space = AddressSpace()
    return ShadowBlock(space.allocate(NWORDS * 4, MemoryKind.MANAGED))


#: One traced operation: (kind, processor, lo, span).
ops = st.tuples(
    st.sampled_from(["r", "w", "rw"]),
    st.sampled_from([CPU, GPU]),
    st.integers(0, NWORDS - 1),
    st.integers(1, 8),
)


def apply_ops(block: ShadowBlock, sequence) -> None:
    for kind, proc, lo, span in sequence:
        hi = min(NWORDS, lo + span)
        if hi <= lo:
            continue
        if kind == "r":
            block.record_read(proc, lo, hi)
        elif kind == "w":
            block.record_write(proc, lo, hi)
        else:
            block.record_rmw(proc, lo, hi)


class TestShadowInvariants:
    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_counts_bounded_by_words(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        c = block.counts()
        for n in (c.cpu_written, c.gpu_written, c.read_cc, c.read_cg,
                  c.read_gc, c.read_gg, c.accessed_words):
            assert 0 <= n <= NWORDS
        assert 0.0 <= c.density <= 1.0

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_alternating_needs_both_sides_and_a_write(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        alt = block.alternating_words()
        s = block.shadow
        cpu = (s & (F.CPU_WROTE | F.READ_CC | F.READ_GC)) != 0
        gpu = (s & (F.GPU_WROTE | F.READ_CG | F.READ_GG)) != 0
        both = (cpu & gpu).sum()
        written = ((s & (F.CPU_WROTE | F.GPU_WROTE)) != 0).sum()
        assert alt <= both
        assert alt <= written

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_accessed_is_union_of_categories(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        masks = block.category_masks()
        union = (masks["cpu_write"] | masks["gpu_write"]
                 | masks["cpu_read"] | masks["gpu_read"])
        assert (masks["accessed"] == union).all()

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_reset_clears_epoch_but_preserves_origin(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        origin_before = (block.shadow & F.LAST_WRITE_GPU).copy()
        block.reset()
        assert block.counts().accessed_words == 0
        assert (block.shadow & F.LAST_WRITE_GPU == origin_before).all()

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_last_writer_matches_final_write(self, sequence):
        block = make_block()
        apply_ops(block, sequence)
        last_writer = {}
        for kind, proc, lo, span in sequence:
            if kind in ("w", "rw"):
                for w in range(lo, min(NWORDS, lo + span)):
                    last_writer[w] = proc
        for w, proc in last_writer.items():
            bit = bool(block.shadow[w] & F.LAST_WRITE_GPU)
            assert bit == (proc is GPU)

    @given(st.lists(ops, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_na_ive_reference_model(self, sequence):
        """Cross-check counts against a dict-based reference tracer."""
        block = make_block()
        apply_ops(block, sequence)

        origin = {}        # word -> last writer
        wrote = {CPU: set(), GPU: set()}
        reads = {("C", "C"): set(), ("C", "G"): set(),
                 ("G", "C"): set(), ("G", "G"): set()}
        for kind, proc, lo, span in sequence:
            for w in range(lo, min(NWORDS, lo + span)):
                if kind in ("r", "rw"):
                    src = "G" if origin.get(w) is GPU else "C"
                    reads[(src, proc.short)].add(w)
                if kind in ("w", "rw"):
                    wrote[proc].add(w)
                    origin[w] = proc
        c = block.counts()
        assert c.cpu_written == len(wrote[CPU])
        assert c.gpu_written == len(wrote[GPU])
        assert c.read_cc == len(reads[("C", "C")])
        assert c.read_cg == len(reads[("C", "G")])
        assert c.read_gc == len(reads[("G", "C")])
        assert c.read_gg == len(reads[("G", "G")])
