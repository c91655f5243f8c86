"""Slotted page and page file tests."""

import pytest

from repro.engine import PAGE_SIZE, Page, PageFile, PageFullError
from repro.engine.constants import (
    EXTENT_PAGES,
    PAGE_BODY_SIZE,
    PAGE_DATA,
    PAGE_HEADER_SIZE,
)


class TestPage:
    def test_add_and_get(self):
        p = Page(0, PAGE_DATA)
        s0 = p.add_record(b"hello")
        s1 = p.add_record(b"world!")
        assert p.get_record(s0) == b"hello"
        assert p.get_record(s1) == b"world!"
        assert p.slot_count == 2

    def test_used_bytes_accounting(self):
        p = Page(0, PAGE_DATA)
        assert p.used_bytes == PAGE_HEADER_SIZE
        p.add_record(b"x" * 100)
        assert p.used_bytes == PAGE_HEADER_SIZE + 100 + 2
        assert p.free_bytes == PAGE_SIZE - p.used_bytes

    def test_fills_up(self):
        p = Page(0, PAGE_DATA)
        record = b"r" * 100
        added = 0
        while p.fits(len(record)):
            p.add_record(record)
            added += 1
        assert added == PAGE_BODY_SIZE // 102
        with pytest.raises(PageFullError):
            p.add_record(record)

    def test_record_never_fits(self):
        p = Page(0, PAGE_DATA)
        for put in (p.add_record, lambda r: p.insert_record(0, r),
                    lambda r: p.add_records([r])):
            with pytest.raises(PageFullError):
                put(b"x" * (PAGE_BODY_SIZE + 1))
        with pytest.raises(PageFullError, match="can never fit"):
            p.insert_record(0, b"x" * (PAGE_BODY_SIZE + 1))
        assert (p.slot_count, p.used_bytes) == (0, PAGE_HEADER_SIZE)

    def test_a_run_is_one_body_append(self):
        p = Page(0, PAGE_DATA)
        p.add_record(b"ab")
        p.add_records([b"cd", b"ef", b"gh"])
        assert list(p.records()) == [b"ab", b"cd", b"ef", b"gh"]
        assert p._slots == [(0, 2), (2, 2), (4, 2), (6, 2)]
        assert p._dense == 2
        p.add_records([b"ijk"])
        assert p._dense == -1
        p.add_records([])
        assert p.slot_count == 5

    def test_insert_keeps_order(self):
        p = Page(0, PAGE_DATA)
        p.add_record(b"a")
        p.add_record(b"c")
        p.insert_record(1, b"b")
        assert list(p.records()) == [b"a", b"b", b"c"]

    def test_delete_and_compact(self):
        p = Page(0, PAGE_DATA)
        for r in (b"a", b"bb", b"ccc"):
            p.add_record(r)
        p.delete_record(1)
        assert list(p.records()) == [b"a", b"ccc"]
        before = p.used_bytes
        p.compact()
        assert list(p.records()) == [b"a", b"ccc"]
        assert p.used_bytes < before  # garbage bytes reclaimed

    def test_take_all_records(self):
        p = Page(0, PAGE_DATA)
        p.add_record(b"a")
        p.add_record(b"b")
        assert p.take_all_records() == [b"a", b"b"]
        assert p.slot_count == 0

    def test_header_serializes(self):
        p = Page(3, PAGE_DATA, level=1)
        p.next_page = 9
        assert len(p.header_bytes()) > 0


class TestPageFile:
    def test_extent_allocation_contiguous_per_tag(self):
        f = PageFile()
        a_pages = [f.allocate(PAGE_DATA, tag="a").page_id
                   for _ in range(5)]
        b_pages = [f.allocate(PAGE_DATA, tag="b").page_id
                   for _ in range(5)]
        a2 = [f.allocate(PAGE_DATA, tag="a").page_id for _ in range(5)]
        # Same-tag pages are consecutive even when tags interleave.
        assert a_pages + a2 == list(range(a_pages[0], a_pages[0] + 10))
        assert b_pages == list(range(b_pages[0], b_pages[0] + 5))

    def test_new_extent_opens_when_full(self):
        f = PageFile()
        ids = [f.allocate(PAGE_DATA, tag="t").page_id
               for _ in range(EXTENT_PAGES + 1)]
        assert ids[EXTENT_PAGES] != ids[EXTENT_PAGES - 1] + 1 or \
            f.page_count >= 2 * EXTENT_PAGES

    def test_get_unallocated_slack_raises(self):
        f = PageFile()
        f.allocate(PAGE_DATA, tag="t")
        with pytest.raises(IndexError):
            f.get(EXTENT_PAGES - 1)  # reserved but unused slot

    def test_counts(self):
        f = PageFile()
        f.allocate(PAGE_DATA, tag="t")
        f.allocate(PAGE_DATA, tag="t")
        assert f.allocated_page_count == 2
        assert f.page_count == EXTENT_PAGES
        assert f.total_bytes == EXTENT_PAGES * PAGE_SIZE
