"""Attribution: frame walking, module skipping, path shortening."""

import sys

from repro.heatmap import attribution
from repro.heatmap.attribution import SKIP_MODULES, _shorten, caller_site
from repro.heatmap.store import HeatStore, SourceSite
from repro.memsim import AddressSpace, MemoryKind, Processor


class TestShorten:
    def test_keeps_last_two_components(self):
        assert _shorten("/a/b/c/d.py") == "c/d.py"
        assert _shorten("d.py") == "d.py"
        assert _shorten("pkg\\mod.py") == "pkg/mod.py"


class TestCallerSite:
    def test_attributes_to_this_test_file(self):
        site = caller_site()
        assert site is not None
        assert site.file.endswith("test_attribution.py")
        assert site.func == "test_attributes_to_this_test_file"
        assert site.line > 0

    def test_skips_simulator_modules(self):
        # Fake a call "from inside" a runtime module by walking with a
        # skip list that excludes this test module.
        site = caller_site(skip=("tests",))
        assert site is None or not site.file.startswith("tests")

    def test_workloads_are_not_skipped(self):
        assert not any(m.startswith("repro.workloads") for m in SKIP_MODULES)


class TestBoundedMemos:
    """The site memo is a bounded LRU (code objects of a long or
    generated session would otherwise pile up) with counters."""

    def test_site_memo_evicts_and_counts(self, monkeypatch):
        memo = attribution._SITE_CACHE
        monkeypatch.setattr(memo, "maxsize", 2)
        memo.clear()
        hits, misses, evictions = memo.hits, memo.misses, memo.evictions
        frame = sys._getframe()

        def site_at(line):
            # One memo key per (code, line): a fresh frame per line.
            return eval(compile("\n" * line + "f()", "gen.py", "eval"),
                        {"f": lambda: attribution.site_from_frame(
                            sys._getframe(1))})

        first = site_at(1)
        assert site_at(1) is first
        site_at(2)
        site_at(3)
        assert len(memo) == 2
        assert (memo.hits - hits, memo.misses - misses,
                memo.evictions - evictions) == (1, 3, 1)
        assert site_at(1) == first and site_at(1) is not first
        assert attribution.site_from_frame(frame).line == frame.f_lineno
        memo.clear()


class TestStoreIntegration:
    def test_record_attributes_caller_when_no_site_given(self):
        space = AddressSpace()
        alloc = space.allocate(64, MemoryKind.MANAGED, label="x")
        store = HeatStore(nbuckets=2, attribute=True)
        store.record(alloc, Processor.CPU, is_write=True, lo=0, hi=4)
        store.advance_epoch(0)
        top = store.allocations()[0].epochs[0].top_sites()
        assert top and top[0][0].file.endswith("test_attribution.py")

    def test_attribute_false_skips_the_walk(self):
        space = AddressSpace()
        alloc = space.allocate(64, MemoryKind.MANAGED, label="x")
        store = HeatStore(nbuckets=2, attribute=False)
        store.record(alloc, Processor.CPU, is_write=True, lo=0, hi=4)
        store.advance_epoch(0)
        assert store.allocations()[0].epochs[0].sites == {}

    def test_explicit_site_wins_over_walk(self):
        space = AddressSpace()
        alloc = space.allocate(64, MemoryKind.MANAGED, label="x")
        store = HeatStore(nbuckets=2, attribute=True)
        site = SourceSite("given.cu", 3)
        store.record(alloc, Processor.CPU, is_write=True, lo=0, hi=4,
                     site=site)
        store.advance_epoch(0)
        assert store.allocations()[0].epochs[0].top_sites()[0][0] == site
