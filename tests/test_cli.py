"""Tests for the ``python -m repro`` command-line entry point."""

import subprocess
import sys
import time

import pytest

from repro.__main__ import main


class TestMain:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "float64" in out
        assert "T-SQL schemas: 16" in out

    def test_usage_on_unknown(self, capsys):
        assert main(["nope"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_usage_on_empty(self, capsys):
        assert main([]) == 2

    def test_table1_small(self, capsys):
        assert main(["table1", "500"]) == 0
        out = capsys.readouterr().out
        assert "Query 1" in out
        assert "Query 5" in out
        assert "Section 7.1" in out


class TestServeAndClient:
    @pytest.fixture(scope="class")
    def served(self):
        """A server over the demo tables, on a background thread."""
        from repro.__main__ import _load_demo_db
        from repro.server import ServerThread

        with ServerThread(_load_demo_db(200)) as handle:
            yield handle

    def test_client_query(self, served, capsys):
        assert main(["client", "--port", str(served.port),
                     "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)"]) == 0
        out = capsys.readouterr().out
        assert "200" in out
        assert "MB/s" in out

    def test_client_blob_query_prints_hex(self, served, capsys):
        assert main(["client", "--port", str(served.port),
                     "SELECT MAX(v) FROM Tvector WHERE id = 3"]) == 0
        assert "0x" in capsys.readouterr().out

    def test_client_stats(self, served, capsys):
        assert main(["client", "--port", str(served.port),
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert '"queries_ok"' in out
        assert '"latency_p95"' in out

    def test_client_sql_error(self, served, capsys):
        assert main(["client", "--port", str(served.port),
                     "SELECT FROM"]) == 1
        assert "SQL_ERROR" in capsys.readouterr().err

    def test_client_connection_refused(self, capsys):
        # A port nothing listens on.
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        assert main(["client", "--port", str(free_port),
                     "SELECT 1 FROM T"]) == 1
        assert "cannot reach" in capsys.readouterr().err


def test_serve_subprocess_round_trip():
    """``repro serve`` in a real subprocess, queried by ``repro
    client``."""
    import re

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--rows", "200"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        port = None
        for _ in range(50):
            line = proc.stdout.readline()
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                port = int(m.group(1))
                break
        assert port, "server never reported its port"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "client", "--port",
             str(port), "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "200" in result.stdout
    finally:
        proc.terminate()
        proc.wait(timeout=30)


def _serving(command, *args):
    """``python -m repro <command>`` on a free port, returned once it
    has printed its ``listening on`` line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", command, "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for _ in range(50):
        if "listening on" in proc.stdout.readline():
            return proc
    proc.kill()
    proc.wait(timeout=30)
    raise AssertionError(f"repro {command} never reported its port")


def _proc_stat(pid):
    """``/proc/<pid>/stat`` after the command name — state, ppid, … —
    or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()
    except OSError:
        return None


def _live_pids(pids):
    """The pids that are still running processes (not zombies)."""
    return [pid for pid in pids
            if (_proc_stat(pid) or ["Z"])[0] != "Z"]


def test_serve_exits_cleanly_on_sigterm():
    proc = _serving("serve", "--rows", "50")
    proc.terminate()
    assert proc.wait(timeout=10) == 0
    assert "shutting down" in proc.stdout.read()


def test_shard_serve_sigterm_leaves_no_shard_process():
    """SIGTERM used to kill the coordinator inside its serving loop,
    short of ``fleet.stop()``: the shard processes lived on."""
    import os

    proc = _serving("shard-serve", "--shards", "2", "--rows", "50")
    children = [int(entry) for entry in os.listdir("/proc")
                if entry.isdigit()
                and (_proc_stat(entry) or [None, -1])[1] == str(proc.pid)]
    try:
        # Two shard processes (plus multiprocessing's resource tracker).
        assert len(children) >= 2
        proc.terminate()
        assert proc.wait(timeout=10) == 0
        # The shards were stopped before the coordinator exited; the
        # resource tracker ends itself once it sees its parent gone.
        deadline = time.monotonic() + 5
        while _live_pids(children) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_pids(children) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        for pid in _live_pids(children):
            os.kill(pid, 9)


def test_module_invocation():
    """``python -m repro info`` works as a subprocess too."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "info"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "Element types" in result.stdout
