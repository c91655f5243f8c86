"""Storage engine simulator: the Microsoft SQL Server substrate.

A from-scratch paged storage engine — 8 kB slotted pages, B+tree
clustered indexes, on-page vs out-of-page blob storage behind a stream
wrapper, an accounting buffer pool — plus a query executor whose
simulated clock is calibrated to the paper's testbed so the Table 1
experiment can be regenerated (see :mod:`repro.engine.costmodel`).
"""

from .blob import BlobRef, BlobStore, BlobTreeStream
from .btree import BTree, DuplicateKeyError
from .bufferpool import BufferPool, IoCounters
from .constants import (
    BLOB_CHUNK_SIZE,
    MAX_IN_ROW_BYTES,
    PAGE_BLOB,
    PAGE_DATA,
    PAGE_HEADER_SIZE,
    PAGE_INDEX,
    PAGE_SIZE,
)
from .costmodel import PAPER_HARDWARE, CostModel
from .indexes import SecondaryIndex, float_to_ordered_int, \
    ordered_int_to_float
from .latches import LatchManager
from .locks import RWLock
from .executor import (
    Avg,
    Col,
    Const,
    CorruptSnapshotError,
    Count,
    Database,
    Executor,
    Max,
    Min,
    ReadBlob,
    ScalarUdf,
    Sum,
)
from .metrics import QueryMetrics, format_table
from .page import Page, PageFile, PageFullError
from .sqlfront import SqlSession, SqlSyntaxError
from .table import Column, MaxBlobHandle, SchemaError, Table

__all__ = [
    "PAGE_SIZE",
    "PAGE_HEADER_SIZE",
    "PAGE_DATA",
    "PAGE_INDEX",
    "PAGE_BLOB",
    "MAX_IN_ROW_BYTES",
    "BLOB_CHUNK_SIZE",
    "Page",
    "PageFile",
    "PageFullError",
    "BufferPool",
    "IoCounters",
    "BTree",
    "DuplicateKeyError",
    "BlobRef",
    "BlobStore",
    "BlobTreeStream",
    "Column",
    "Table",
    "SecondaryIndex",
    "float_to_ordered_int",
    "ordered_int_to_float",
    "MaxBlobHandle",
    "SchemaError",
    "RWLock",
    "LatchManager",
    "CostModel",
    "PAPER_HARDWARE",
    "QueryMetrics",
    "format_table",
    "CorruptSnapshotError",
    "Database",
    "Executor",
    "SqlSession",
    "SqlSyntaxError",
    "Expression",
    "Col",
    "Const",
    "ReadBlob",
    "ScalarUdf",
    "Count",
    "Sum",
    "Avg",
    "Min",
    "Max",
]

from .executor import Expression  # noqa: E402  (re-export)
