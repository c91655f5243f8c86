"""Client side of a run: deployments, the closed-loop driver, windows.

One client thread on one connection drives the server closed loop (the
host has two cores: one for this process, one for the server).  The
server is a real subprocess started through ``launch.py``; everything
measured here is measured from outside it.
"""

from __future__ import annotations

import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.server import ArrayClient, ServerError, protocol

from spans import Tracer
from workloads import STATEMENT_TIMEOUT, STATEMENTS, Stmt, Workload, \
    answer_matches

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 30.0
SEGMENTS = 5


class DeploymentError(RuntimeError):
    """The launcher died, stalled, or left something behind."""


class ConnectionLost(RuntimeError):
    """The client connection broke mid-run (launcher death, mainly)."""


def _alive(pid: int) -> bool:
    """True for a running process; a zombie counts as dead."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


class Deployment:
    """One launched server (or cluster) in its own process group."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.port = 0
        self.pids: list[int] = []
        self.shards: list[tuple[str, int]] = []
        self._proc: subprocess.Popen | None = None
        self._shm_before: set[str] = set()

    def start(self) -> "Deployment":
        self._shm_before = _shm_segments()
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "launch.py"),
             "--workload", self.workload.name,
             "--seed", str(self.workload.seed),
             "--scale", self.workload.scale],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            ready = self._read_event("ready", READY_TIMEOUT)
        except BaseException:
            self._kill_group()
            raise
        self.port = ready["port"]
        self.pids = ready["pids"]
        self.shards = [tuple(address) for address in ready["shards"]]
        return self

    def _read_event(self, event: str, timeout: float) -> dict:
        proc = self._proc
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else ""
        if not line:
            raise DeploymentError(
                f"launcher gave no {event!r} line within {timeout:.0f}s "
                f"(exit code {proc.poll()})")
        message = json.loads(line)
        if message.get("event") != event:
            raise DeploymentError(f"expected {event!r}, got {message!r}")
        return message

    def _kill_group(self) -> None:
        proc = self._proc
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=STOP_TIMEOUT)
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def stop(self) -> float:
        """Tear down; returns the summed peak RSS (MB) of every
        server-side process.  Raises if a process or a ``/dev/shm``
        segment survives."""
        proc = self._proc
        try:
            proc.stdin.write("stop\n")
            proc.stdin.flush()
            stopped = self._read_event("stopped", STOP_TIMEOUT)
            proc.wait(timeout=STOP_TIMEOUT)
        finally:
            self._kill_group()
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in self.pids):
            if time.monotonic() > deadline:
                raise DeploymentError(
                    f"server processes survived teardown: "
                    f"{[p for p in self.pids if _alive(p)]}")
            time.sleep(0.02)
        leaked = _shm_segments() - self._shm_before
        if leaked:
            raise DeploymentError(
                f"/dev/shm segments left behind: {sorted(leaked)}")
        return sum(stopped["vm_hwm_kb"].values()) / 1024.0

    def abort(self) -> None:
        """Best-effort teardown on an error path."""
        if self._proc is not None and self._proc.poll() is None:
            self._kill_group()


class TapSocket:
    """Counts the bytes an ``ArrayClient`` sends and receives, and
    keeps the bytes of the current statement's reply so the final
    ``bchunk`` header (which ``query_array`` drops) can be read."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0
        self.received = 0
        self.reply = bytearray()

    def sendall(self, data):
        self.sent += len(data)
        self.reply.clear()
        return self._sock.sendall(data)

    def recv(self, size):
        data = self._sock.recv(size)
        self.received += len(data)
        self.reply += data
        return data

    def last_header(self) -> dict:
        """Header of the last complete frame of the current reply."""
        view, pos, header = bytes(self.reply), 0, {}
        while pos + 4 <= len(view):
            (total,) = protocol._U32.unpack_from(view, pos)
            header, _blobs = protocol.decode_frame(
                view[pos + 4:pos + 4 + total])
            pos += 4 + total
        return header

    def __getattr__(self, name):
        return getattr(self._sock, name)


@dataclass
class OpSample:
    """``marks`` are the op's start and the completion of each of its
    statements (answer checked), so consecutive differences are the
    per-statement times and they sum to the op's latency."""

    marks: list[float]
    ok: bool

    @property
    def start(self) -> float:
        return self.marks[0]

    @property
    def end(self) -> float:
        return self.marks[-1]


class TappedPass:
    """Observer of a detailed pass: taps the client's socket and
    accumulates bytes on the wire, the client time per statement kind,
    the times the server reports about itself in each reply, and (with
    a live tracer) the spans."""

    def __init__(self, client: ArrayClient, tracer: Tracer):
        self.client = client
        self.tracer = tracer
        self.tap = TapSocket(client._sock)
        self.ops = 0
        self.job_seconds = 0.0
        self.exec_seconds = 0.0
        self.nonexec_seconds = 0.0
        self.stmt_seconds = {name: 0.0 for name in STATEMENTS}
        self.stats_delta: dict = {}

    @property
    def wire_bytes(self) -> int:
        return self.tap.sent + self.tap.received

    def __enter__(self) -> "TappedPass":
        self._before = self.client.stats()
        self.client._sock = self.tap
        return self

    def __exit__(self, *exc_info) -> None:
        self.client._sock = self.tap._sock
        if exc_info[0] is None:
            after = self.client.stats()
            self.stats_delta = {
                "bquery_chunks": after["bquery"]["chunks"]
                - self._before["bquery"]["chunks"],
                **{key: after[key] - self._before[key]
                   for key in ("queries_failed", "rejected_busy",
                               "timeouts")}}

    def begin_op(self) -> None:
        self.tracer.begin_op("server.client.op", f"client-{self.ops}")

    def end_op(self) -> None:
        self.tracer.end_op()
        self.ops += 1

    def call(self, call, stmt: Stmt):
        started = time.perf_counter()
        with self.tracer.span(f"server.client.{stmt.name}"):
            answer = call(stmt)
        self.stmt_seconds[stmt.name] += time.perf_counter() - started
        if stmt.window is not None:
            header = self.tap.last_header()
            elapsed = header.get("elapsed_seconds") or 0.0
            metrics = header.get("metrics")
        else:
            elapsed, metrics = answer.elapsed_seconds, answer.metrics
        self.job_seconds += elapsed
        job = self.tracer.synthetic("server.server.job", elapsed)
        if metrics is not None:
            wall = metrics["wall_seconds"]
            self.exec_seconds += wall
            self.nonexec_seconds += elapsed - wall
            self.tracer.synthetic("engine.executor.run", wall, job)
        return answer


class Driver:
    """The one closed-loop client."""

    def __init__(self, port: int):
        self.client = ArrayClient("127.0.0.1", port,
                                  timeout=STATEMENT_TIMEOUT)
        self.ops = None  # the workload's op stream, set by set_up
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self.client.close()

    def _call(self, stmt: Stmt):
        if stmt.window is not None:
            return self.client.query_array(stmt.sql, cold=stmt.cold,
                                           slice=stmt.window)
        return self.client.query(stmt.sql, cold=stmt.cold)

    def run_op(self, op: list[Stmt],
               tapped: TappedPass | None = None) -> OpSample:
        """One op.  Untapped it records statement completion times and
        pass/fail, nothing else."""
        ok = True
        if tapped is not None:
            tapped.begin_op()
        marks = [time.perf_counter()]
        try:
            for stmt in op:
                try:
                    answer = self._call(stmt) if tapped is None \
                        else tapped.call(self._call, stmt)
                    ok &= answer_matches(stmt, answer)
                except ServerError as exc:
                    if exc.code == protocol.INTERNAL and \
                            "closed the connection" in exc.message:
                        raise ConnectionLost(str(exc)) from exc
                    ok = False
                marks.append(time.perf_counter())
        except (OSError, protocol.ProtocolError) as exc:
            raise ConnectionLost(f"{type(exc).__name__}: {exc}") from exc
        finally:
            self.attempted += 1
            if tapped is not None:
                tapped.end_op()
        self.failed += not ok
        return OpSample(marks, ok)

    def run_load(self, statements: list[Stmt]) -> None:
        for stmt in statements:
            if not answer_matches(stmt, self._call(stmt)):
                raise DeploymentError(
                    f"set-up statement {stmt.name!r} answered wrong")

    def window(self, seconds: float | None = None,
               count: int | None = None,
               tapped: TappedPass | None = None) -> list[OpSample]:
        """Closed loop over the op stream for ``seconds`` (the op in
        flight at the deadline completes and counts) or ``count``
        ops."""
        samples: list[OpSample] = []
        deadline = None if seconds is None \
            else time.perf_counter() + seconds
        while (count is None or len(samples) < count) and (
                deadline is None or time.perf_counter() < deadline):
            samples.append(self.run_op(next(self.ops), tapped))
        return samples


def set_up(workload: Workload) -> tuple[Deployment, Driver, float]:
    """spawn -> ready (data loaded) -> connect -> wire load -> warm-up.
    Returns the live deployment, its driver with the op stream
    positioned after the warm-up, and the set-up time in seconds."""
    started = time.perf_counter()
    deployment = Deployment(workload).start()
    try:
        driver = Driver(deployment.port)
        driver.run_load(workload.wire_load())
        driver.ops = workload.ops()
        for _ in range(workload.warmup_ops):
            driver.run_op(next(driver.ops))
        if driver.failed:
            raise DeploymentError(
                f"{driver.failed} warm-up op(s) answered wrong")
    except BaseException:
        deployment.abort()
        raise
    return deployment, driver, time.perf_counter() - started


def latencies_ms(samples: list[OpSample]) -> list[float]:
    return [(s.end - s.start) * 1e3 for s in samples]


def op_floor_ms(samples: list[OpSample]) -> float:
    """The op's latency floor: for each statement position, the
    fastest time seen at that position in the window, summed.

    Noise on a shared host only ever adds time, and adds it in bursts
    longer than an op but shorter than a window; a statement is short
    enough to fall between bursts, so the floor repeats where the
    median and even the fastest whole op do not (see README)."""
    marks = [sample.marks for sample in samples if sample.ok]
    return sum(min(m[k + 1] - m[k] for m in marks)
               for k in range(len(marks[0]) - 1)) * 1e3


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      round(p / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def segment_rate(samples: list[OpSample], seconds: float) -> float:
    """Median of the per-segment op rates.  An op belongs to the
    segment it ends in; a segment's rate is its op count over the time
    from the previous segment's last completion to its own, so no op
    is split across a boundary."""
    origin = samples[0].start
    length = seconds / SEGMENTS
    counts = [0] * SEGMENTS
    last_end = [origin] * SEGMENTS
    for sample in samples:
        index = min(SEGMENTS - 1, int((sample.end - origin) / length))
        counts[index] += 1
        last_end[index] = sample.end
    rates, previous = [], origin
    for count, end in zip(counts, last_end):
        if count:
            rates.append(count / (end - previous))
            previous = end
    return statistics.median(rates)
