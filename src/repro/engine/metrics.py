"""Query metrics: the three columns of the paper's Table 1.

The paper reports, per query: execution time (s), CPU load (%), and IO
throughput (MB/s).  :class:`QueryMetrics` carries those plus the raw
counters they derive from, and :func:`format_table` prints a set of
metrics rows the way Table 1 is laid out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["QueryMetrics", "format_table"]


@dataclass
class QueryMetrics:
    """Simulated and measured metrics of one query execution.

    Attributes:
        label: Query name ("Query 1", ...).
        rows: Rows processed.
        io_bytes: Physical bytes read.
        physical_reads / sequential_reads / random_reads: Page-level
            counters from the buffer pool.
        stream_calls: Trips through the blob stream wrapper.
        udf_calls: Scalar UDF invocations.
        sim_io_seconds: IO busy time under the cost model.
        sim_io_seq_seconds / sim_io_random_seconds: Its decomposition
            into streaming-read time and seek time.
        sim_cpu_core_seconds: Total CPU work across all cores.
        sim_exec_seconds: Modeled wall-clock execution time.
        wall_seconds: Actual Python wall time (for the scaled-down run;
            not comparable to the paper's numbers, reported for
            completeness).
    """

    label: str = ""
    rows: int = 0
    io_bytes: int = 0
    physical_reads: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    stream_calls: int = 0
    udf_calls: int = 0
    sim_io_seconds: float = 0.0
    sim_io_seq_seconds: float = 0.0
    sim_io_random_seconds: float = 0.0
    sim_cpu_core_seconds: float = 0.0
    sim_exec_seconds: float = 0.0
    cores: int = 8
    wall_seconds: float = 0.0
    #: Which execution path produced the result: ``"vector"`` (one
    #: node's batches, scans and seeks alike) or ``"sharded"`` (merged
    #: from shard partials by a coordinator).  Purely diagnostic.
    engine: str = "vector"
    #: Shards whose partials a sharded coordinator merged (0 for a
    #: single-node statement).  Crosses the wire in the metrics dict.
    workers: int = 0

    @property
    def cpu_percent(self) -> float:
        """CPU load in percent of all cores, as Table 1 reports it."""
        if self.sim_exec_seconds == 0:
            return 0.0
        return min(
            100.0,
            100.0 * self.sim_cpu_core_seconds
            / (self.sim_exec_seconds * self.cores))

    @property
    def io_mb_per_s(self) -> float:
        """IO throughput in MB/s (decimal megabytes, like the paper)."""
        if self.sim_exec_seconds == 0:
            return 0.0
        return self.io_bytes / self.sim_exec_seconds / 1e6

    def to_dict(self) -> dict:
        """All fields plus the derived Table 1 columns, as a plain
        JSON-serializable dict.

        This is the one canonical flattening of a metrics object — the
        wire protocol's metrics payload (:mod:`repro.server.protocol`)
        and the benchmark collectors both use it instead of plucking
        fields ad hoc.
        """
        return {
            "label": self.label,
            "rows": self.rows,
            "io_bytes": self.io_bytes,
            "physical_reads": self.physical_reads,
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
            "stream_calls": self.stream_calls,
            "udf_calls": self.udf_calls,
            "sim_io_seconds": self.sim_io_seconds,
            "sim_io_seq_seconds": self.sim_io_seq_seconds,
            "sim_io_random_seconds": self.sim_io_random_seconds,
            "sim_cpu_core_seconds": self.sim_cpu_core_seconds,
            "sim_exec_seconds": self.sim_exec_seconds,
            "cores": self.cores,
            "wall_seconds": self.wall_seconds,
            "engine": self.engine,
            "workers": self.workers,
            # Derived Table 1 columns.
            "cpu_percent": self.cpu_percent,
            "io_mb_per_s": self.io_mb_per_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryMetrics":
        """Rebuild a metrics object from :meth:`to_dict` output
        (derived keys are ignored; unknown keys rejected)."""
        fields = {k: v for k, v in data.items()
                  if k not in ("cpu_percent", "io_mb_per_s")}
        return cls(**fields)

    def scaled(self, row_factor: float,
               fixed_random_reads: int = 0) -> "QueryMetrics":
        """Project the metrics to a dataset ``row_factor`` times larger.

        IO bytes and CPU work scale linearly with rows; the derived
        time/percent/throughput columns are recomputed from the scaled
        totals.  This is how the harness reports paper-scale (357 M row)
        predictions from a laptop-scale run.

        Args:
            row_factor: Data-size multiplier.
            fixed_random_reads: Random page reads that do *not* grow
                with the data (an index descent to the first leaf is a
                constant few seeks at any scale); the rest of the
                random reads are scaled like everything else.
        """
        fixed = min(int(fixed_random_reads), self.random_reads)
        scaling_random = self.random_reads - fixed
        # Seek time per random read, from the unscaled decomposition.
        per_seek = (self.sim_io_random_seconds / self.random_reads
                    if self.random_reads else 0.0)
        cpu = self.sim_cpu_core_seconds * row_factor
        io_b = int(self.io_bytes * row_factor)
        random_total = fixed + int(scaling_random * row_factor)
        io_s = (self.sim_io_seq_seconds * row_factor
                + per_seek * random_total)
        return QueryMetrics(
            label=self.label,
            rows=int(self.rows * row_factor),
            io_bytes=io_b,
            physical_reads=int(self.physical_reads * row_factor),
            sequential_reads=int(self.sequential_reads * row_factor),
            random_reads=random_total,
            stream_calls=int(self.stream_calls * row_factor),
            udf_calls=int(self.udf_calls * row_factor),
            sim_io_seconds=io_s,
            sim_io_seq_seconds=self.sim_io_seq_seconds * row_factor,
            sim_io_random_seconds=per_seek * random_total,
            sim_cpu_core_seconds=cpu,
            sim_exec_seconds=max(io_s, cpu / self.cores),
            cores=self.cores,
            wall_seconds=self.wall_seconds,
            engine=self.engine,
            workers=self.workers,
        )


def format_table(rows: Sequence[QueryMetrics],
                 title: str = "Query performance test results") -> str:
    """Render metrics like the paper's Table 1."""
    lines = [title,
             f"{'Query':<28} {'Execution time [s]':>19} "
             f"{'CPU load [%]':>13} {'I/O [MB/s]':>11}"]
    for m in rows:
        lines.append(
            f"{m.label:<28} {m.sim_exec_seconds:>19.0f} "
            f"{m.cpu_percent:>13.0f} {m.io_mb_per_s:>11.0f}")
    return "\n".join(lines)
