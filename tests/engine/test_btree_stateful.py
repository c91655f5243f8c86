"""Stateful (model-based) B-tree testing with hypothesis.

Drives random interleavings of inserts and deletes (one key and many),
point lookups, range scans and buffer-pool-tracked operations against a
sorted-dict model; every step must agree.  This catches split
bookkeeping and sibling-chain bugs that fixed scenarios miss.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import BTree, BufferPool, PageFile
from repro.engine.btree import DuplicateKeyError, leaf_record
from repro.engine.constants import PAGE_DATA

KEYS = st.integers(-10 ** 6, 10 ** 6)


class BTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.file = PageFile()
        self.tree = BTree(self.file, PAGE_DATA, tag="t")
        self.pool = BufferPool(self.file)
        self.model: dict[int, bytes] = {}

    @rule(key=KEYS, size=st.integers(0, 200))
    def insert(self, key, size):
        payload = key.to_bytes(8, "little", signed=True) + bytes(size)
        if key in self.model:
            try:
                self.tree.insert(key, payload)
                raise AssertionError("duplicate accepted")
            except DuplicateKeyError:
                pass
        else:
            self.tree.insert(key, payload)
            self.model[key] = payload

    @rule(keys=st.lists(st.one_of(KEYS, st.integers(-40, 40)),
                        max_size=30),
          size=st.integers(0, 400), ascending=st.booleans())
    def insert_many(self, keys, size, ascending):
        if ascending:
            keys = sorted(keys)
        items = [(key, key.to_bytes(8, "little", signed=True)
                  + bytes(size)) for key in keys]
        # Like per-key inserts: everything before the first key that
        # is already there (or comes twice) goes in, then it raises.
        fresh = []
        for key, payload in items:
            if key in self.model or key in dict(fresh):
                break
            fresh.append((key, payload))
        try:
            self.tree.insert_many(
                [k for k, _p in items],
                [leaf_record(k, p) for k, p in items])
            assert len(fresh) == len(items), "duplicate accepted"
        except DuplicateKeyError:
            assert len(fresh) < len(items)
        self.model.update(fresh)

    @rule(keys=st.lists(KEYS, max_size=10), data=st.data())
    def delete_many(self, keys, data):
        if self.model:
            present = sorted(self.model)
            lo = data.draw(st.integers(0, len(present) - 1))
            run = data.draw(st.integers(0, 120))
            keys = keys + present[lo:lo + run]  # a run, maybe leaves
            keys = data.draw(st.permutations(keys))
        doomed = set(keys) & set(self.model)
        assert self.tree.delete_many(keys) == len(doomed)
        for key in doomed:
            del self.model[key]

    @rule(key=KEYS)
    def search(self, key):
        assert self.tree.search(key, self.pool) == self.model.get(key)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def search_existing(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        assert self.tree.search(key) == self.model[key]

    @rule(key=KEYS)
    def delete(self, key):
        existed = self.tree.delete(key)
        assert existed == (key in self.model)
        self.model.pop(key, None)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), size=st.integers(0, 300))
    def update(self, data, size):
        key = data.draw(st.sampled_from(sorted(self.model)))
        payload = key.to_bytes(8, "little", signed=True) + bytes(size)
        assert self.tree.update(key, payload)
        self.model[key] = payload

    @rule(lo=KEYS, span=st.integers(0, 10 ** 5))
    def range_scan(self, lo, span):
        hi = lo + span
        got = [(k, v) for k, v in self.tree.scan(start=lo, stop=hi)]
        want = sorted((k, v) for k, v in self.model.items()
                      if lo <= k < hi)
        assert got == want

    @invariant()
    def full_scan_matches_model(self):
        assert [k for k, _v in self.tree.scan()] == sorted(self.model)

    @invariant()
    def count_matches(self):
        assert self.tree.count == len(self.model)

    @invariant()
    def leaf_chain_is_consistent(self):
        if not self.model:
            return
        ids = self.tree.leaf_page_ids()
        assert len(ids) == len(set(ids))
        # prev pointers mirror the next chain
        for left, right in zip(ids, ids[1:]):
            assert self.file.get(right).prev_page == left


TestBTreeStateful = BTreeMachine.TestCase
TestBTreeStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None)
