"""Shared fixtures and hypothesis strategies for the test suite."""

import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core import ALL_DTYPES
from repro.server.protocol import FrameBuffer

#: The one FrameBuffer each raw test socket reads through.
_FRAMES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def read_frame(sock):
    """The next frame a raw test socket received (None on a clean EOF),
    cut by that socket's own :class:`FrameBuffer` so bytes received
    past one frame stay for the next read."""
    frames = _FRAMES.get(sock)
    if frames is None:
        frames = _FRAMES[sock] = FrameBuffer()
    return frames.read(sock.recv)


def settles(probe, want, seconds=10.0):
    """Poll ``probe()`` until it returns ``want`` (connection threads
    end asynchronously after their client closes)."""
    deadline = time.monotonic() + seconds
    while probe() != want and time.monotonic() < deadline:
        time.sleep(0.02)
    return probe()


def connection_threads() -> int:
    return sum(t.name == "repro-connection" for t in threading.enumerate())


def sockets_at_session_close(server) -> list:
    """Record, as each connection thread reports its session closed,
    its socket's ``fileno()`` (-1 once the socket is closed)."""
    conns = {}
    serve = server._serve_connection
    session_closed = server.stats.session_closed
    filenos = []

    def tracked(conn):
        conns[threading.get_ident()] = conn
        serve(conn)

    def closing(session_id):
        filenos.append(conns[threading.get_ident()].sock.fileno())
        session_closed(session_id)

    server._serve_connection = tracked
    server.stats.session_closed = closing
    return filenos


@pytest.fixture
def rng():
    """A deterministic RNG, fresh per test."""
    return np.random.default_rng(12345)


def small_shapes(max_rank=4, max_side=6):
    """Hypothesis strategy for small array shapes (at least 1 element
    per dimension keeps most operations meaningful)."""
    return st.lists(st.integers(1, max_side), min_size=1,
                    max_size=max_rank).map(tuple)


def dtype_strategy():
    """Strategy over every registered element type."""
    return st.sampled_from(ALL_DTYPES)


def values_for(dtype, shape, seed):
    """Deterministic values of a given dtype and shape."""
    gen = np.random.default_rng(seed)
    count = int(np.prod(shape))
    if dtype.is_complex:
        data = gen.standard_normal(count) + 1j * gen.standard_normal(count)
    elif dtype.is_integer:
        info = np.iinfo(dtype.numpy_dtype)
        data = gen.integers(info.min, info.max, size=count, dtype=np.int64)
    else:
        data = gen.standard_normal(count)
    return data.astype(dtype.numpy_dtype).reshape(shape, order="F")
