"""Table-driven shadow counters equal the per-mask bit formulas.

``trace_print`` and :class:`ShadowBlock` take the Fig 4 counters, the
alternating-word count and the eight access-map masks from one 256-entry
bit table over the concatenated shadows.  These tests draw arbitrary
shadow bytes (including bit combinations no access sequence produces),
live and freed (graveyard) blocks, sampled tracers and a tiny histogram
chunk, and compare against the direct ``(shadow & bits) != 0`` formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import AddressSpace, MemoryKind
from repro.runtime import ShadowBlock, Tracer, trace_print
from repro.runtime import flags as F
from repro.runtime import shadow as shadow_mod

#: The formulas the table replaced, in AccessCounts field order.
COUNTER_BITS = (F.CPU_WROTE, F.GPU_WROTE, F.READ_CC, F.READ_CG, F.READ_GC,
                F.READ_GG, F.EPOCH_MASK)
CATEGORY_BITS = {
    "cpu_write": F.CPU_WROTE,
    "gpu_write": F.GPU_WROTE,
    "cpu_read": F.READ_CC | F.READ_GC,
    "gpu_read": F.READ_CG | F.READ_GG,
    "gpu_read_cpu_origin": F.READ_CG,
    "gpu_read_gpu_origin": F.READ_GG,
    "cpu_read_gpu_origin": F.READ_GC,
    "accessed": F.EPOCH_MASK,
}


def _expected(shadow):
    hit = lambda bits: (shadow & bits) != 0  # noqa: E731
    counts = [int(hit(b).sum()) for b in COUNTER_BITS]
    alternating = int((hit(F.CPU_WROTE | F.READ_CC | F.READ_GC)
                       & hit(F.GPU_WROTE | F.READ_CG | F.READ_GG)
                       & hit(F.CPU_WROTE | F.GPU_WROTE)).sum())
    masks = {cat: hit(bits) for cat, bits in CATEGORY_BITS.items()}
    return counts, alternating, masks


_shadows = st.lists(st.binary(max_size=300), min_size=1, max_size=5).map(
    lambda bs: [np.frombuffer(b, np.uint8).copy() for b in bs])


class TestShadowBlock:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=500))
    def test_counts_masks_and_alternating(self, raw):
        space = AddressSpace()
        block = ShadowBlock(space.allocate(max(1, len(raw)) * 4,
                                           MemoryKind.MANAGED))
        block.shadow[:len(raw)] = np.frombuffer(raw, np.uint8)
        counts, alternating, masks = _expected(block.shadow)
        c = block.counts()
        assert [c.cpu_written, c.gpu_written, c.read_cc, c.read_cg,
                c.read_gc, c.read_gg, c.accessed_words] == counts
        assert c.total_words == block.nwords
        assert block.alternating_words() == alternating
        got = block.category_masks()
        assert list(got) == list(masks)
        for cat, mask in masks.items():
            assert np.array_equal(got[cat], mask), cat


class TestTally:
    @settings(max_examples=200, deadline=None)
    @given(_shadows, st.sampled_from([1, 3, 64, 1 << 16]))
    def test_concatenated_shadows_in_chunks(self, shadows, chunk):
        edges = np.cumsum([0] + [len(s) for s in shadows])
        flat = np.concatenate(shadows)
        old = shadow_mod._CHUNK
        shadow_mod._CHUNK = chunk
        try:
            got = shadow_mod.tally(flat, edges)
        finally:
            shadow_mod._CHUNK = old
        assert got.shape == (len(shadows), 8)
        for row, s in zip(got.tolist(), shadows):
            counts, alternating, _ = _expected(s)
            assert row == counts + [alternating]


@pytest.mark.parametrize("sample", [1, 3])
@settings(max_examples=60, deadline=None)
@given(raws=st.lists(st.binary(min_size=1, max_size=200), min_size=1,
                     max_size=4),
       freed=st.lists(st.booleans(), min_size=4, max_size=4))
def test_trace_print_reports_live_and_graveyard_blocks(sample, raws, freed):
    tracer = Tracer(sample=sample)
    space = AddressSpace()
    allocs = []
    for i, raw in enumerate(raws):
        alloc = space.allocate(len(raw) * 4, MemoryKind.MANAGED,
                               label=f"a{i}")
        tracer.trc_register(alloc).shadow[:] = np.frombuffer(raw, np.uint8)
        allocs.append(alloc)
    for alloc, gone in zip(allocs, freed):
        if gone:
            tracer.trc_free(alloc)
    result = trace_print(tracer, include_maps=True, reset=False)
    assert [r.name for r in result] == [
        b.alloc.label for b in tracer.smt.live_and_dead()]
    for report in result:
        i = int(report.name[1:])
        raw = raws[i]
        shadow = np.frombuffer(raw, np.uint8)
        counts, alternating, masks = _expected(shadow)
        scale = lambda n: min(len(raw), n * sample)  # noqa: E731
        c = report.counts
        assert [c.cpu_written, c.gpu_written, c.read_cc, c.read_cg,
                c.read_gc, c.read_gg, c.accessed_words] == \
            [scale(n) for n in counts]
        assert c.total_words == len(raw)
        assert report.alternating == scale(alternating)
        assert report.freed == freed[i]
        for cat, mask in masks.items():
            assert np.array_equal(report.maps[cat].mask, mask), cat
