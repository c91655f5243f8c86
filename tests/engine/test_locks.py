"""Dedicated suite for ``repro.engine.locks.RWLock`` — the statement-level
writer-preferring lock every query and DDL statement runs under.

Covered: shared readers, writer exclusion, writer preference under a
reader stream, timeout behavior, release-on-exception, and the documented
non-reentrancy (a read holder must not try to upgrade to write)."""

import threading
import time

import pytest

from repro.engine import lockcheck
from repro.engine.locks import RWLock


@pytest.fixture(autouse=True)
def _no_sentinel():
    # This suite exercises the raw RWLock mechanics, including the
    # documented self-deadlock shapes (upgrade attempts, re-entrant
    # writes) probed with same-thread timeouts — the runtime order
    # sentinel would reject them before the mechanics under test run.
    was = lockcheck.is_active()
    lockcheck.set_active(False)
    yield
    lockcheck.set_active(was)


def test_readers_share():
    lock = RWLock()
    entered = []
    barrier = threading.Barrier(4, timeout=5.0)

    def reader():
        lock.acquire_read()
        try:
            entered.append(threading.get_ident())
            barrier.wait()  # all four must be inside simultaneously
        finally:
            lock.release_read()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5.0)
    assert len(entered) == 4


def test_writer_excludes_readers_and_writers():
    lock = RWLock()
    order = []

    def writer():
        lock.acquire_write()
        try:
            order.append("w-in")
            time.sleep(0.05)
            order.append("w-out")
        finally:
            lock.release_write()

    def reader():
        lock.acquire_read()
        try:
            order.append("r")
        finally:
            lock.release_read()

    w = threading.Thread(target=writer)
    w.start()
    time.sleep(0.01)  # let the writer get in first
    r = threading.Thread(target=reader)
    r.start()
    w.join(timeout=5.0)
    r.join(timeout=5.0)
    assert order[:2] == ["w-in", "w-out"]
    assert order[2] == "r"


def test_writer_preference_blocks_new_readers():
    lock = RWLock()
    release_reader = threading.Event()
    writer_done = threading.Event()

    def holder():
        lock.acquire_read()
        try:
            release_reader.wait(timeout=5.0)
        finally:
            lock.release_read()

    def writer():
        lock.acquire_write()
        try:
            writer_done.set()
        finally:
            lock.release_write()

    h = threading.Thread(target=holder)
    h.start()
    time.sleep(0.02)
    w = threading.Thread(target=writer)
    w.start()
    time.sleep(0.05)  # writer is now waiting on the reader

    # A *new* reader must queue behind the waiting writer, not sneak in.
    assert lock.acquire_read(timeout=0.2) is False
    assert not writer_done.is_set()

    release_reader.set()
    w.join(timeout=5.0)
    h.join(timeout=5.0)
    assert writer_done.is_set()

    # Once the writer drains, readers may enter again.
    assert lock.acquire_read(timeout=2.0) is True
    lock.release_read()


def test_reader_stream_does_not_starve_writer():
    lock = RWLock()
    stop = threading.Event()
    writer_done = threading.Event()

    def reader_stream():
        while not stop.is_set():
            if lock.acquire_read(timeout=0.05):
                time.sleep(0.002)
                lock.release_read()

    readers = [threading.Thread(target=reader_stream) for _ in range(4)]
    for t in readers:
        t.start()
    time.sleep(0.05)

    def writer():
        lock.acquire_write()
        try:
            writer_done.set()
        finally:
            lock.release_write()

    w = threading.Thread(target=writer)
    w.start()
    w.join(timeout=5.0)
    stop.set()
    for t in readers:
        t.join(timeout=5.0)
    assert writer_done.is_set(), "writer starved by a stream of readers"


def test_read_released_on_exception():
    lock = RWLock()
    with pytest.raises(RuntimeError):
        lock.acquire_read()
        try:
            raise RuntimeError("boom")
        finally:
            lock.release_read()
    # Fully released: a writer can get in immediately.
    assert lock.acquire_write(timeout=1.0) is True
    lock.release_write()


def test_write_released_on_exception():
    lock = RWLock()
    with pytest.raises(RuntimeError):
        lock.acquire_write()
        try:
            raise RuntimeError("boom")
        finally:
            lock.release_write()
    assert lock.acquire_read(timeout=1.0) is True
    lock.release_read()


def test_write_is_not_reentrant():
    lock = RWLock()
    assert lock.acquire_write(timeout=1.0) is True
    try:
        # The same thread asking again must time out, not recurse.
        assert lock.acquire_write(timeout=0.1) is False
    finally:
        lock.release_write()


def test_read_to_write_upgrade_times_out():
    lock = RWLock()
    lock.acquire_read()
    try:
        # Upgrading would deadlock; the timeout path must fire.
        assert lock.acquire_write(timeout=0.1) is False
    finally:
        lock.release_read()
    assert lock.acquire_write(timeout=1.0) is True
    lock.release_write()


def test_acquire_read_timeout_returns_false_under_writer():
    lock = RWLock()
    assert lock.acquire_write(timeout=1.0) is True
    try:
        start = time.monotonic()
        assert lock.acquire_read(timeout=0.1) is False
        assert time.monotonic() - start < 2.0
    finally:
        lock.release_write()


def test_release_read_without_holders_raises():
    lock = RWLock()
    with pytest.raises(RuntimeError):
        lock.release_read()


def test_sequential_reacquisition():
    lock = RWLock()
    for _ in range(3):
        lock.acquire_write()
        try:
            pass
        finally:
            lock.release_write()
        lock.acquire_read()
        try:
            pass
        finally:
            lock.release_read()
