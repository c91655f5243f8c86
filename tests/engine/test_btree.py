"""B+tree tests: ordered scans, point lookups, splits, random orders."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BTree,
    BufferPool,
    DuplicateKeyError,
    PageFile,
    PageFullError,
)
from repro.engine import btree as btree_module
from repro.engine.btree import leaf_record
from repro.engine.constants import PAGE_DATA


def _records(items):
    """``(key, payload)`` pairs as the ``(keys, records)`` a batch
    insert takes."""
    items = list(items)
    return ([k for k, _p in items],
            [leaf_record(k, p) for k, p in items])


def _tree_with(keys, payload=lambda k: f"row{k}".encode()):
    f = PageFile()
    t = BTree(f, PAGE_DATA, tag="t")
    for k in keys:
        t.insert(k, payload(k))
    return f, t


class TestBasics:
    def test_insert_and_search(self):
        _f, t = _tree_with([5, 1, 9, 3])
        assert t.search(3) == b"row3"
        assert t.search(9) == b"row9"
        assert t.search(2) is None
        assert t.count == 4

    def test_duplicate_rejected(self):
        _f, t = _tree_with([1])
        with pytest.raises(DuplicateKeyError):
            t.insert(1, b"again")
        assert t.count == 1

    def test_scan_is_ordered(self):
        keys = [7, 2, 9, 4, 1, 8]
        _f, t = _tree_with(keys)
        assert [k for k, _v in t.scan()] == sorted(keys)

    def test_scan_range(self):
        _f, t = _tree_with(range(0, 100, 2))
        got = [k for k, _v in t.scan(start=10, stop=30)]
        assert got == list(range(10, 30, 2))
        # start between keys
        got = [k for k, _v in t.scan(start=11, stop=19)]
        assert got == [12, 14, 16, 18]

    def test_empty_tree(self):
        f = PageFile()
        t = BTree(f, PAGE_DATA)
        assert t.search(1) is None
        assert list(t.scan()) == []
        assert t.height == 1


class TestSplitting:
    def test_grows_beyond_one_page(self):
        n = 2000
        _f, t = _tree_with(range(n), payload=lambda k: bytes(64))
        assert t.height >= 2
        assert len(t.leaf_page_ids()) > 1
        assert [k for k, _v in t.scan()] == list(range(n))
        for k in (0, 1234, n - 1):
            assert t.search(k) is not None

    def test_ascending_load_packs_pages(self):
        # The append-split optimization: in-order loads should fill
        # pages nearly fully, not 50 %.
        n = 3000
        _f, t = _tree_with(range(n), payload=lambda k: bytes(64))
        leaves = t.leaf_page_ids()
        payload_per_page = n / len(leaves)
        # 64+8 bytes per record + 2 slot => ~109 records/page max.
        assert payload_per_page > 0.9 * (8096 // 74)

    def test_random_load_still_correct(self):
        rng = np.random.default_rng(0)
        keys = rng.permutation(5000).tolist()
        _f, t = _tree_with(keys, payload=lambda k: bytes(32))
        assert [k for k, _v in t.scan()] == sorted(keys)
        assert t.count == 5000

    def test_descending_load(self):
        _f, t = _tree_with(range(1999, -1, -1), payload=lambda k: bytes(64))
        assert [k for k, _v in t.scan()] == list(range(2000))

    def test_leaf_chain_consistent_after_splits(self):
        f, t = _tree_with(np.random.default_rng(1).permutation(3000)
                          .tolist(), payload=lambda k: bytes(48))
        leaves = t.leaf_page_ids()
        # Chain covers every record exactly once, in order.
        seen = []
        for pid in leaves:
            page = f.get(pid)
            for record in page.records():
                seen.append(int.from_bytes(record[:8], "little"))
        assert seen == sorted(seen)
        assert len(seen) == 3000


class TestBufferPoolIntegration:
    def test_scan_counts_pages(self):
        f, t = _tree_with(range(2000), payload=lambda k: bytes(64))
        pool = BufferPool(f)
        list(t.scan(pool))
        assert pool.counters.physical_reads >= len(t.leaf_page_ids())

    def test_point_lookup_touches_height_pages(self):
        f, t = _tree_with(range(5000), payload=lambda k: bytes(64))
        pool = BufferPool(f)
        t.search(2500, pool)
        assert pool.counters.logical_reads == t.height


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=1,
                     max_size=300, unique=True))
def test_model_based_property(keys):
    """The tree behaves exactly like a sorted dict."""
    _f, t = _tree_with(keys, payload=lambda k: k.to_bytes(8, "little",
                                                          signed=True))
    model = {k: k for k in keys}
    assert [k for k, _v in t.scan()] == sorted(model)
    for k in list(model)[:20]:
        assert int.from_bytes(t.search(k), "little", signed=True) == k
    assert t.search(10 ** 10) is None


class TestDeleteAndUpdate:
    def test_delete_existing(self):
        _f, t = _tree_with([1, 2, 3])
        assert t.delete(2)
        assert t.search(2) is None
        assert [k for k, _v in t.scan()] == [1, 3]
        assert t.count == 2

    def test_delete_missing(self):
        _f, t = _tree_with([1])
        assert not t.delete(9)
        assert t.count == 1

    def test_delete_all_then_reinsert(self):
        keys = list(range(500))
        _f, t = _tree_with(keys, payload=lambda k: bytes(64))
        for k in keys:
            assert t.delete(k)
        assert t.count == 0
        assert list(t.scan()) == []
        t.insert(42, b"back")
        assert t.search(42) == b"back"

    def test_delete_empties_leaves_and_scan_stays_correct(self):
        n = 3000
        f, t = _tree_with(range(n), payload=lambda k: bytes(64))
        # Wipe a whole band of keys, emptying interior leaves.
        for k in range(1000, 2000):
            assert t.delete(k)
        remaining = [k for k, _v in t.scan()]
        assert remaining == list(range(1000)) + list(range(2000, n))
        assert t.search(1500) is None
        assert t.search(999) is not None

    def test_interleaved_delete_insert(self):
        rng = np.random.default_rng(3)
        _f, t = _tree_with([])
        model = {}
        for step in range(2000):
            k = int(rng.integers(0, 300))
            if k in model:
                assert t.delete(k)
                del model[k]
            else:
                t.insert(k, k.to_bytes(8, "little"))
                model[k] = True
        assert [k for k, _v in t.scan()] == sorted(model)

    def test_update_in_place(self):
        _f, t = _tree_with([1, 2, 3])
        assert t.update(2, b"new payload")
        assert t.search(2) == b"new payload"
        assert t.count == 3

    def test_update_missing(self):
        _f, t = _tree_with([1])
        assert not t.update(9, b"x")

    def test_update_growing_payload_forwards_row(self):
        # Fill a page nearly full, then grow one record so it cannot
        # stay: it must be rewritten, not lost.
        _f, t = _tree_with(range(100), payload=lambda k: bytes(70))
        assert t.update(50, bytes(4000))
        assert t.search(50) == bytes(4000)
        assert [k for k, _v in t.scan()] == list(range(100))


def _layout(f, t):
    """Everything the storage metrics can see of a tree: the leaf chain
    page by page (ids, links, slot array, body bytes), the pages
    allocated, the shape."""
    leaves = [f.get(pid) for pid in t.leaf_page_ids()]
    return ([(p.page_id, p.prev_page, p.next_page, list(p._slots),
              bytes(p._body)) for p in leaves],
            f.allocated_page_count, t.height, t.count,
            list(t.scan()))


class TestInsertMany:
    """One descent per leaf must leave the file exactly as one descent
    per record does."""

    BASE = [(k, bytes(90)) for k in range(0, 3000, 3)]  # ~12 leaves

    BATCHES = {
        "ascending-at-the-right-edge":
            [(k, bytes(90)) for k in range(3000, 3400)],
        "interleaved-with-existing-keys":
            [(k, bytes(90)) for k in range(1, 3000, 3)],
        "unsorted":
            [(int(k), bytes(90)) for k in np.random.default_rng(5)
             .permutation(np.arange(1, 3000, 3))[:400]],
        "below-the-left-edge-descending":
            [(k, bytes(90)) for k in range(-1, -300, -1)],
        "a-record-that-splits-a-leaf":
            [(1501, bytes(1200)), (1502, bytes(1200)),
             (1504, bytes(1200)), (4000, bytes(5000)),
             (4001, bytes(5000))],
        "mixed-sizes-everywhere":
            [(int(k), bytes(int(k) % 700)) for k in
             np.random.default_rng(6).permutation(
                 np.arange(1, 6000, 3))[:300]],
    }

    def _pair(self):
        trees = []
        for _ in range(2):
            f = PageFile()
            t = BTree(f, PAGE_DATA, tag="t")
            t.bulk_load(*_records(self.BASE))
            trees.append((f, t))
        return trees

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_same_pages_as_per_key_inserts(self, name):
        batch = self.BATCHES[name]
        (f1, one_by_one), (f2, at_once) = self._pair()
        for key, payload in batch:
            one_by_one.insert(key, payload)
        at_once.insert_many(*_records(batch))
        assert _layout(f2, at_once) == _layout(f1, one_by_one)
        assert at_once.count == len(self.BASE) + len(batch)

    def test_into_an_empty_tree(self):
        batch = [(k, bytes(200)) for k in (5, 3, 9, 1, 7, 8, 2)] \
            + [(k, bytes(200)) for k in range(100, 200)]
        f1, one_by_one = _tree_with([])
        for key, payload in batch:
            one_by_one.insert(key, payload)
        f2, at_once = _tree_with([])
        at_once.insert_many(*_records(batch))
        assert _layout(f2, at_once) == _layout(f1, one_by_one)

    def test_a_duplicate_in_the_middle_raises_at_the_same_row(self):
        batch = [(k, bytes(90)) for k in range(3000, 3200)]
        batch[120] = (1500, bytes(90))  # already there
        (f1, one_by_one), (f2, at_once) = self._pair()
        with pytest.raises(DuplicateKeyError, match="key 1500 "):
            for key, payload in batch:
                one_by_one.insert(key, payload)
        with pytest.raises(DuplicateKeyError, match="key 1500 "):
            at_once.insert_many(*_records(batch))
        assert at_once.count == len(self.BASE) + 120
        assert _layout(f2, at_once) == _layout(f1, one_by_one)
        # A key repeated inside the batch is a duplicate too.
        with pytest.raises(DuplicateKeyError, match="key 7000 "):
            at_once.insert_many(*_records([(7000, b"a"), (7001, b"b"),
                                           (7000, b"c")]))
        assert at_once.search(7001) == b"b"

    def test_a_key_on_the_fence_belongs_to_the_next_leaf(self):
        """Ascending keys running up to and over a separator: the
        separator key itself descends to the right-hand leaf, where it
        is a duplicate — or, once deleted from there, where it goes."""
        (f1, one_by_one), (f2, at_once) = self._pair()
        fence = f2.get(at_once.leaf_page_ids()[3]).get_record(0)
        fence = int.from_bytes(fence[:8], "little", signed=True)
        batch = [(fence - 2, b"x"), (fence - 1, b"y"), (fence, b"z"),
                 (fence + 1, b"w")]
        with pytest.raises(DuplicateKeyError, match=f"key {fence} "):
            at_once.insert_many(*_records(batch))
        with pytest.raises(DuplicateKeyError, match=f"key {fence} "):
            for key, payload in batch:
                one_by_one.insert(key, payload)
        assert at_once.search(fence) == bytes(90)
        assert at_once.search(fence + 1) is None
        for tree in (one_by_one, at_once):
            tree.delete_many([fence - 2, fence - 1, fence])
        for key, payload in batch:
            one_by_one.insert(key, payload)
        at_once.insert_many(*_records(batch))
        assert _layout(f2, at_once) == _layout(f1, one_by_one)

    def test_a_split_no_page_holds_leaves_the_tree_as_it_was(self):
        """The split used to empty the leaf before a page refused a
        half, losing the leaf's rows: a record no page holds, or three
        large records that no cut in two places."""
        (f, tree), _twin = self._pair()
        before = _layout(f, tree)
        for put in (lambda: tree.insert(1501, bytes(8100)),
                    lambda: tree.insert_many(*_records([(1504, bytes(8100))]))):
            with pytest.raises(PageFullError, match="a split of page"):
                put()
            assert _layout(f, tree) == before
        with pytest.raises(PageFullError, match="a split of page"):
            tree.insert_many(*_records([(1502, b"x"), (1504, bytes(8100))]))
        assert [k for k, _v in tree.scan()] == sorted(
            [k for k, _v in self.BASE] + [1502])
        f, tree = _tree_with([10, 20, 30], payload=lambda k: bytes(
            {10: 3000, 20: 3000, 30: 2000}[k]))
        before = _layout(f, tree)
        with pytest.raises(PageFullError, match="leaves 10020 bytes"):
            tree.insert(15, bytes(7000))
        assert _layout(f, tree) == before

    def test_walks_the_tree_once_per_leaf(self):
        keys = np.random.default_rng(8).permutation(
            np.arange(0, 6000, 2))
        _f, tree = _tree_with([int(k) for k in keys],
                              payload=lambda k: bytes(90))  # part-full
        before = len(tree.leaf_page_ids())
        with mock.patch.object(tree, "_descend",
                               wraps=tree._descend) as descend:
            tree.insert_many(*_records((k, bytes(8))
                                       for k in range(1, 6000, 6)))
        splits = len(tree.leaf_page_ids()) - before
        # Ascending keys: one walk per leaf written and at most two
        # more around each split — not one per record (1000 here).
        assert 0 < descend.call_count <= before + 2 * splits < 100
        assert [k for k, _v in tree.scan()] == sorted(
            list(range(0, 6000, 2)) + list(range(1, 6000, 6)))


def _per_key_slots(page, victims):
    """The per-key model of a leaf's victim slots: one binary search
    a key, adjacent slots merged."""
    runs = []
    for key in victims:
        slot, found = btree_module._leaf_slot(page, key)
        if found:
            if runs and runs[-1][1] == slot:
                runs[-1][1] = slot + 1
            else:
                runs.append([slot, slot + 1])
    return runs


_EDGES = [-2 ** 63, -2 ** 63 + 40, -700, -3, 0, 2 ** 62, 2 ** 63 - 400]


@st.composite
def _key_runs(draw, min_size=1):
    """Sorted keys as a few runs of consecutive integers near 0, below
    it and at both ends of the 64-bit range."""
    keys = set()
    for _ in range(draw(st.integers(min_size, 4))):
        start = draw(st.sampled_from(_EDGES)) + draw(st.integers(0, 40))
        keys.update(range(start, min(start + draw(st.integers(1, 360)),
                                     2 ** 63)))
    return sorted(keys)


@settings(max_examples=60, deadline=None)
@given(keys=_key_runs(), size=st.integers(0, 120), data=st.data())
def test_delete_many_matches_the_per_key_model(keys, size, data):
    """Consecutive victims settled by two end slots delete exactly what
    one lookup a key deletes: the count and the pages, with missing
    keys inside a victim range, leaves holed by earlier deletes,
    negative keys and keys at both ends of the 64-bit range."""
    holes = data.draw(st.lists(st.sampled_from(keys), max_size=40))
    victims = data.draw(_key_runs(min_size=0)) + data.draw(
        st.lists(st.sampled_from(keys), max_size=20))
    victims = data.draw(st.permutations(victims))
    trees = []
    for model in (False, True):
        f = PageFile()
        tree = BTree(f, PAGE_DATA, tag="t")
        tree.bulk_load(*_records((k, bytes(size + k % 3)) for k in keys))
        for key in holes:
            tree.delete(key)
        if model:
            with mock.patch.object(btree_module, "_victim_slots",
                                   _per_key_slots):
                count = sum(tree.delete(key) for key in sorted(set(victims)))
        else:
            count = tree.delete_many(victims)
        trees.append((count, _layout(f, tree)))
    assert trees[0] == trees[1]
    assert trees[0][0] == len(set(victims) & set(keys) - set(holes))


class TestDeleteMany:
    def _tree(self, n=3000):
        return _tree_with(range(n), payload=lambda k: bytes(64))

    def test_absent_keys_and_repeats_are_skipped(self):
        f, t = self._tree(300)
        before = _layout(f, t)
        assert t.delete_many([-5, 300, 10 ** 9]) == 0
        assert _layout(f, t) == before
        assert t.delete_many([7, 7, -1, 8, 7, 5000]) == 2
        assert t.count == 298
        assert [k for k, _v in t.scan()] == \
            [k for k in range(300) if k not in (7, 8)]

    def test_same_tree_as_per_key_deletes(self):
        """Scattered keys, runs inside a leaf, whole leaves and runs
        crossing leaves — the pages end up as one ``delete`` per key
        leaves them."""
        rng = np.random.default_rng(11)
        keys = sorted({int(k) for k in rng.integers(0, 3000, 200)}
                      | set(range(400, 1400)) | set(range(2990, 3000)))
        f1, one_by_one = self._tree()
        for key in keys:
            assert one_by_one.delete(key)
        f2, at_once = self._tree()
        shuffled = [keys[i] for i in rng.permutation(len(keys))]
        assert at_once.delete_many(shuffled) == len(keys)
        assert _layout(f2, at_once) == _layout(f1, one_by_one)
        # Whole leaves went: they are off the chain and out of the
        # parents.
        assert len(at_once.leaf_page_ids()) <= \
            len(self._tree()[1].leaf_page_ids()) - 8
        assert at_once.search(1000) is None
        assert at_once.search(1400) == bytes(64)

    def test_everything_collapses_the_root(self):
        f, t = self._tree()
        assert t.height > 1
        assert t.delete_many(range(-10, 4000)) == 3000
        assert (t.count, t.height) == (0, 1)
        assert list(t.scan()) == []
        assert t.leaf_page_ids() == [t.root_page_id]
        t.insert_many(*_records([(2, b"b"), (1, b"a")]))
        assert list(t.scan()) == [(1, b"a"), (2, b"b")]

    def test_adjacent_victims_leave_as_one_slot_slice(self):
        from repro.engine.page import Page
        f, t = self._tree(300)
        with mock.patch.object(Page, "delete_records", autospec=True,
                               side_effect=Page.delete_records) as drop:
            t.delete_many([3, 4, 5, 6, 7, 20, 22, 23])
        assert sorted(stop - start for _page, start, stop
                      in (call.args for call in drop.call_args_list)) \
            == [1, 2, 5]
        assert [k for k, _v in t.scan()][:8] == [0, 1, 2, 8, 9, 10, 11, 12]

    def test_a_split_left_of_every_separator_stays_findable(self):
        """Found by the stateful machine: once the leftmost leaf is
        unlinked, its right neighbour sits in slot 0 with a separator
        that is no longer a lower bound; a split of it files a smaller
        separator behind it, and a binary search that trusted slot 0's
        sent ``search`` to the wrong half."""
        payload = bytes(1000)
        f, t = _tree_with(range(100, 110), payload=lambda k: payload)
        assert len(t.leaf_page_ids()) == 2  # [100..107] and [108, 109]
        assert t.delete_many(range(100, 108)) == 8
        assert len(t.leaf_page_ids()) == 1
        for key in range(99, 92, -1):  # below 108, until the leaf splits
            t.insert(key, payload)
        assert len(t.leaf_page_ids()) == 2
        assert [k for k, _v in t.scan() if t.search(k) is None] == []
        assert t.delete_many([97, 98, 99]) == 3
