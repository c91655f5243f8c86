"""The buffer pool's accounting against a one-access-at-a-time model,
and the leaf-run scan's mechanism pinned by call counts (not time).
"""

import random
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BufferPool, Column, Database, Page, PageFile
from repro.engine.bufferpool import SEQ_READ_WINDOW, IoCounters
from repro.engine.constants import PAGE_DATA
from repro.engine.vectorized import RowBatch

# -- the reference model ------------------------------------------------------


class ModelScope:
    def __init__(self):
        self.counters = IoCounters()
        self.last_physical = None


class ModelPool:
    """The pool's accounting, one access at a time: the body
    ``BufferPool._record_access`` had before the run body replaced it.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.cached = OrderedDict()
        self.everyone = ModelScope()
        self.threads = [ModelScope(), ModelScope()]
        self.cold_seen = [None, None]

    def access(self, thread, key, page_id):
        mine = self.threads[thread]
        cold = self.cold_seen[thread]
        for scope in (self.everyone, mine):
            scope.counters.logical_reads += 1
        forced_miss = cold is not None and key not in cold
        if forced_miss:
            cold.add(key)
        if key in self.cached and not forced_miss:
            self.cached.move_to_end(key)
            return
        for scope in (self.everyone, mine):
            scope.counters.physical_reads += 1
            if scope.last_physical is not None and \
                    0 < page_id - scope.last_physical <= SEQ_READ_WINDOW:
                scope.counters.sequential_reads += 1
            else:
                scope.counters.random_reads += 1
            scope.last_physical = page_id
        self.cached[key] = None
        self.cached.move_to_end(key)
        if self.capacity is not None and len(self.cached) > self.capacity:
            self.cached.popitem(last=False)

    def begin_cold_view(self, thread):
        self.cold_seen[thread] = set()
        self.threads[thread].last_physical = None
        self.everyone.last_physical = None

    def clear(self):
        self.cached.clear()
        for scope in (self.everyone, *self.threads):
            scope.last_physical = None


# -- the page file under test -------------------------------------------------

N_IDS = 12
BAD_IDS = (N_IDS, 63, 64, 9999)  # extent slack and past the end


def versioned_file():
    """A page file whose ids span two extents' worth of jump (so both
    stream classes occur) with three generations of some pages: the
    resolved-page calls see plain and ``(id, pv)`` keys alike."""
    pagefile = PageFile()
    for _ in range(N_IDS - 2):
        pagefile.allocate(PAGE_DATA, tag="near")
    for _ in range(SEQ_READ_WINDOW // 64 + 1):
        far = pagefile.allocate(PAGE_DATA, tag="far")
        for _ in range(63):
            pagefile.allocate(PAGE_DATA, tag="far")
    ids = list(range(N_IDS - 2)) + [far.page_id, far.page_id + 1]
    pages = [pagefile.get(pid) for pid in ids]
    for version in (1, 2):
        for pid in ids[version::3]:
            pages.append(pagefile.get_for_write(pid, version)[0])
    assert {p.pv for p in pages} == {0, 1, 2}
    return pagefile, ids, pages


THREAD = st.integers(0, 1)
ID = st.one_of(st.integers(0, N_IDS - 1), st.sampled_from(BAD_IDS))
PAGE = st.integers(0, 2 * N_IDS)  # index into ``pages`` (modulo)
OPS = st.lists(st.one_of(
    st.tuples(st.just("fetch"), THREAD, ID),
    st.tuples(st.just("fetch_many"), THREAD, st.lists(ID, max_size=9)),
    st.tuples(st.just("fetch_page"), THREAD, PAGE),
    st.tuples(st.just("fetch_pages"), THREAD, st.lists(PAGE, max_size=9)),
    st.tuples(st.sampled_from(["cold_on", "cold_off"]), THREAD),
    st.tuples(st.just("clear")),
), max_size=40)


@settings(max_examples=150, deadline=None)
@given(capacity=st.one_of(st.none(), st.integers(1, 8)), ops=OPS)
def test_pool_accounting_matches_the_one_access_model(capacity, ops):
    pagefile, ids, pages = versioned_file()
    pool = BufferPool(pagefile, capacity_pages=capacity)
    model = ModelPool(capacity)
    resolve_id = dict(enumerate(ids))
    # Thread 0 is this thread, thread 1 a worker that lives as long as
    # the example: each has its own scope in the pool.
    with ThreadPoolExecutor(max_workers=1) as worker:
        def on(thread, fn, *args):
            if thread == 0:
                return fn(*args)
            return worker.submit(fn, *args).result()

        def observed():
            return (
                pool.snapshot_counters(),
                [on(t, pool.snapshot_thread_counters) for t in (0, 1)],
                list(pool._cached), pool._last_physical,
                [on(t, lambda: pool._thread_state().last_physical)
                 for t in (0, 1)])

        def expected():
            return (
                model.everyone.counters,
                [scope.counters for scope in model.threads],
                list(model.cached), model.everyone.last_physical,
                [scope.last_physical for scope in model.threads])

        for name, *args in ops:
            if name in ("fetch", "fetch_many"):
                thread, drawn = args
                many = name == "fetch_many"
                want = [resolve_id.get(i, i) for i in
                        (drawn if many else [drawn])]
                call = (pool.fetch_many, want) if many \
                    else (pool.fetch, want[0])
                if set(want) - set(ids):
                    # Looked up before charged: a bad id anywhere in
                    # the run leaves every piece of state as it was.
                    with pytest.raises(IndexError):
                        on(thread, *call)
                else:
                    got = on(thread, *call)
                    assert (got if many else [got]) \
                        == [pagefile.get(pid) for pid in want]
                    for pid in want:
                        model.access(thread, pid, pid)
            elif name in ("fetch_page", "fetch_pages"):
                thread, drawn = args
                many = name == "fetch_pages"
                run = [pages[i % len(pages)] for i in
                       (drawn if many else [drawn])]
                got = on(thread, *((pool.fetch_pages, iter(run)) if many
                                   else (pool.fetch_page, run[0])))
                assert (got if many else [got]) == run
                for page in run:
                    key = page.page_id if page.pv == 0 \
                        else (page.page_id, page.pv)
                    model.access(thread, key, page.page_id)
            elif name == "cold_on":
                on(args[0], pool.begin_cold_view)
                model.begin_cold_view(args[0])
            elif name == "cold_off":
                on(args[0], pool.end_cold_view)
                model.cold_seen[args[0]] = None
            else:
                pool.clear()
                model.clear()
            assert observed() == expected(), (name, args)
        everyone = pool.snapshot_counters()
        assert everyone.physical_reads == everyone.sequential_reads \
            + everyone.random_reads <= everyone.logical_reads


def test_a_failed_fetch_charges_nothing():
    """``fetch(5)`` on a one-page database used to raise *after* +1
    logical, +1 physical, a moved stream position and a phantom LRU
    resident that could evict a real page from a bounded pool."""
    pagefile = PageFile()
    only = pagefile.allocate(PAGE_DATA).page_id
    pool = BufferPool(pagefile, capacity_pages=2)
    pool.fetch(only)
    before = (pool.snapshot_counters(), pool.snapshot_thread_counters(),
              list(pool._cached), pool._last_physical,
              pool._thread_state().last_physical)
    for bad in ([5], [only, 5], [70_000]):
        with pytest.raises(IndexError):
            pool.fetch(bad[-1])
        with pytest.raises(IndexError):
            pool.fetch_many(bad)
    assert before == (
        pool.snapshot_counters(), pool.snapshot_thread_counters(),
        list(pool._cached), pool._last_physical,
        pool._thread_state().last_physical)
    assert pool.cached_pages == 1
    assert pool.counters.physical_reads == 1
    pool.fetch(only)  # still resident: nothing phantom evicted it
    assert pool.counters.physical_reads == 1


# -- the run mechanism, by counts ---------------------------------------------


class CountingLock:
    def __init__(self, inner):
        self.inner = inner
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


def dense_table(rows=5000):
    db = Database()
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("b", "varbinary", cap=100)])
    rng = random.Random(5)
    table.insert_many([(i, rng.random(), b"v" * 90) for i in range(rows)])
    return db, table


class TestRunMechanism:
    def test_every_fetch_call_takes_the_lock_once(self):
        pagefile, ids, pages = versioned_file()
        pool = BufferPool(pagefile)
        pool.fetch(ids[0])  # this thread's scope now exists
        lock = pool._lock = CountingLock(pool._lock)
        for call, arg in ((pool.fetch, ids[1]),
                          (pool.fetch_page, pages[-1]),
                          (pool.fetch_many, ids),
                          (pool.fetch_pages, pages)):
            before = lock.acquired
            call(arg)
            assert lock.acquired == before + 1, call.__name__
        assert pool.counters.logical_reads == 3 + len(ids) + len(pages)

    def test_a_dense_run_is_one_join_and_one_frombuffer(self):
        db, table = dense_table()
        pages = [table._pagefile.get(pid)
                 for pid in table.data_page_ids()][:64]
        assert len(pages) == 64 and all(p._dense > 0 for p in pages)
        with mock.patch.object(np, "frombuffer",
                               wraps=np.frombuffer) as frombuffer, \
                mock.patch.object(Page, "record_matrix", autospec=True,
                                  side_effect=Page.record_matrix
                                  ) as gather, \
                mock.patch.object(np, "concatenate",
                                  wraps=np.concatenate) as concatenate:
            batch = RowBatch.from_pages(table, pages)
        assert frombuffer.call_count == 1
        assert gather.call_count == concatenate.call_count == 0
        assert batch.n == sum(p.slot_count for p in pages)
        assert batch._records.shape == (batch.n, pages[0]._dense)
        # A page with a hole costs the run one gather, nothing else.
        table.delete(int(batch.keys[5]))
        pages = [table._pagefile.get(page.page_id) for page in pages]
        with mock.patch.object(Page, "record_matrix", autospec=True,
                               side_effect=Page.record_matrix) as gather:
            holed = RowBatch.from_pages(table, pages)
        assert gather.call_count == 1 and holed.n == batch.n - 1

    @pytest.mark.parametrize("batch_pages", [1, 4, 64])
    def test_a_snapshot_scan_resolves_every_page_once(self, batch_pages):
        db, table = dense_table()
        pool, pagefile = db.pool, table._pagefile
        leaves = len(table.data_page_ids())
        assert leaves > 64
        with table.pin_snapshot() as snap:
            descent = len(snap.tree.charge_scan_descent(pool))
            pool.fetch_page(pagefile.get(table.data_page_ids()[0]))
            lock = pool._lock = CountingLock(pool._lock)
            with mock.patch.object(pagefile, "resolve",
                                   wraps=pagefile.resolve) as resolve:
                runs = list(snap.tree.scan_leaf_batches(
                    pool, batch_pages=batch_pages))
        assert [len(run) for run in runs] == \
            [batch_pages] * (leaves // batch_pages) + \
            ([leaves % batch_pages] if leaves % batch_pages else [])
        # The descent ends on the first leaf; every other leaf is one
        # sibling, resolved once whether it joins a run or starts one.
        assert resolve.call_count == descent + leaves - 1
        # One charge per descent page, then per run one for its first
        # page (but the first run's: the descent charged it) and one
        # for the rest of it.
        starts = len(runs) - 1
        rests = sum(len(run) > 1 for run in runs)
        assert lock.acquired == descent + starts + rests
