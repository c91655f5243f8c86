"""Row sets as arrays: the one encoding of rows on the wire.

The paper's argument (Sections 3-5) is that an array travels as one
binary value with a small header and reaches its consumer by
reference, never element by element.  This module applies that to the
serving layer's own traffic: the rows of a ``result`` frame, the batch
of an ``insert`` frame and the per-group partial states of a
``presult`` frame are all shipped as *columns* — a short **type
string** in the JSON header (one code per column) and the columns'
buffers in the frame's binary tail, in column order.

Type codes
----------

``q``
    int64 — one buffer, ``rowcount`` little-endian 8-byte integers.
``d``
    float64 — one buffer, ``rowcount`` little-endian IEEE-754 doubles
    (bit patterns survive: NaN payloads, ``-0.0``).
``b``
    variable-length bytes — two buffers: ``rowcount`` int64 cell
    lengths, then the cells' bytes joined in row order.
``*x``
    a list per row — one buffer of ``rowcount`` int64 list lengths,
    then the buffers of column ``x`` holding every list's items in row
    order (``sum(lengths)`` rows).  This is the shape of a grouped
    partial state: ``*d`` is "the float values each group has seen".
    At most four ``*`` may nest; deeper lists are packed as ``j``.
``j`` / ``jN``
    anything else (bools, strings, ints beyond int64, mixed columns) —
    one buffer holding the cells as a JSON list, followed by ``N``
    blobs (``N`` omitted when 0) that ``{"$blob": i}`` markers inside
    that JSON refer to.
``?x``
    column ``x`` with NULLs — one bitmap buffer first
    (``ceil(rowcount / 8)`` bytes, bit ``i % 8`` of byte ``i // 8`` set
    means row ``i`` is NULL), then the buffers of ``x``, in which a
    NULL row holds a placeholder readers ignore (``0``, ``0.0`` or
    empty when packed from cells).

So ``"q?db"`` describes three columns and five buffers: int64 values;
a NULL bitmap and float64 values; lengths and bytes.  The buffer count
follows from the type string alone and every buffer's length follows
from ``rowcount`` (or, for ``b``/``*`` payloads, from the lengths that
precede it); :meth:`Columns.decode` checks all of it before anything
is handed out, so a malformed frame is a :class:`ProtocolError`, never
an ``IndexError`` or a silently short result.
"""

from __future__ import annotations

import json
import numbers
from itertools import chain
from typing import Any, Callable, Iterable, Sequence

import numpy as np
import numpy.typing as npt

__all__ = [
    "ProtocolError",
    "Column",
    "Columns",
    "pack_rows",
    "unpack_rows",
    "pack_cell",
    "unpack_cell",
]

#: Anything the binary tail can carry without a copy.
Buffer = bytes | memoryview

_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")
_FIXED = {"q": _INT64, "d": _FLOAT64}
_DIGITS = "0123456789"
#: ``*`` levels a column may nest.  Packing types deeper lists as ``j``;
#: decoding refuses a deeper type string before it can exhaust the
#: interpreter's stack (a grouped partial needs one level).
_MAX_NESTING = 4
_NONE = type(None)
#: Cell types a column is typed from as they are; anything else
#: (numpy scalars, ``bytearray``...) is first mapped to its Python twin.
_KNOWN = frozenset({int, float, bytes, bool, str, list, tuple, _NONE})
#: What packing from cells puts in a NULL row of a ``?`` column.
_FILL: dict[str, Any] = {"q": 0, "d": 0.0, "b": b"", "*": ()}


class ProtocolError(Exception):
    """Raised for frames that violate the wire format."""


# -- the per-cell JSON fallback ----------------------------------------------

def _pack_value(value: object, blobs: list[bytes]) -> object:
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        blobs.append(bytes(value))
        return {"$blob": len(blobs) - 1}
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_pack_value(v, blobs) for v in value]
    raise ProtocolError(
        f"cannot encode value of type {type(value).__name__}")


def _unpack_value(value: object, blobs: Sequence[Buffer]) -> object:
    if isinstance(value, dict):
        if set(value) != {"$blob"}:
            raise ProtocolError(f"unexpected object cell {value!r}")
        index = value["$blob"]
        if not isinstance(index, int) or not 0 <= index < len(blobs):
            raise ProtocolError(f"blob reference {index!r} out of range")
        return bytes(blobs[index])
    if isinstance(value, list):
        return [_unpack_value(v, blobs) for v in value]
    return value


def pack_cell(value: object, blobs: list[bytes]) -> object:
    """Pack one standalone value as JSON: blob values move into
    ``blobs`` and become ``{"$blob": i}`` markers — the ``j`` column's
    cell codec, standalone for the benchmark's traced probes."""
    return _pack_value(value, blobs)


def unpack_cell(value: object, blobs: Sequence[Buffer]) -> object:
    """Invert :func:`pack_cell`."""
    return _unpack_value(value, blobs)


def _plain(cell: object) -> object:
    """The Python twin of a numpy scalar or a bytes-like cell."""
    if isinstance(cell, numbers.Integral) and not isinstance(cell, bool):
        return int(cell)
    if isinstance(cell, numbers.Real):
        return float(cell)
    if isinstance(cell, (bytearray, memoryview)):
        return bytes(cell)
    return cell


# -- one column --------------------------------------------------------------

class Column:
    """One typed column.

    ``values`` is an int64/float64 array (``q``/``d``), the cells'
    joined bytes (``b``), the list of Python cells (``j``) or the
    :class:`Column` of all list items (``*``); ``sizes`` is the int64
    cell lengths of a ``b`` or ``*`` column; ``nulls`` is a bool array
    (True = NULL) or None when no row is NULL.
    """

    __slots__ = ("code", "values", "sizes", "nulls")

    def __init__(self, code: str, values: Any,
                 sizes: npt.NDArray[np.int64] | None = None,
                 nulls: npt.NDArray[np.bool_] | None = None) -> None:
        self.code = code
        self.values = values
        self.sizes = sizes
        self.nulls = nulls

    def __len__(self) -> int:
        return len(self.values if self.sizes is None else self.sizes)

    @classmethod
    def from_cells(cls, cells: Sequence[Any], depth: int = 0) -> "Column":
        """Type a column from its Python cells: ``q``/``d``/``b``/``*``
        when every non-NULL cell is an int64-range int / a float / a
        bytes value / a list (nested at most ``_MAX_NESTING`` deep),
        the JSON fallback otherwise (a cell JSON cannot carry raises
        :class:`ProtocolError` at encode)."""
        kinds = set(map(type, cells))
        if not kinds <= _KNOWN:
            cells = [_plain(cell) for cell in cells]
            kinds = set(map(type, cells))
        nullable = _NONE in kinds and len(kinds) > 1
        kinds.discard(_NONE)
        if kinds == {int}:
            code = "q"
        elif kinds == {float}:
            code = "d"
        elif kinds == {bytes}:
            code = "b"
        elif kinds and kinds <= {list, tuple} and depth < _MAX_NESTING:
            code = "*"
        else:
            return cls("j", list(cells))
        nulls = None
        filled = cells
        if nullable:
            nulls = np.fromiter((cell is None for cell in cells),
                                np.bool_, len(cells))
            fill = _FILL[code]
            filled = [fill if cell is None else cell for cell in cells]
        if code in _FIXED:
            try:
                return cls(code, np.array(filled, dtype=_FIXED[code]),
                           nulls=nulls)
            except OverflowError:  # an int beyond int64
                return cls("j", list(cells))
        sizes = np.fromiter(map(len, filled), _INT64, len(filled))
        if code == "b":
            return cls("b", b"".join(filled), sizes, nulls)
        return cls("*", cls.from_cells(list(chain.from_iterable(filled)),
                                       depth + 1), sizes, nulls)

    def cells(self) -> list[Any]:
        """The column as Python cells (ints, floats, ``bytes``, lists,
        None for NULL)."""
        out: list[Any]
        if self.code in _FIXED:
            out = self.values.tolist()
        elif self.code == "j":
            out = list(self.values)
        else:
            flat = bytes(self.values) if self.code == "b" \
                else self.values.cells()
            ends: list[int] = np.cumsum(self.sizes).tolist()
            out = [flat[a:b] for a, b in zip([0] + ends, ends)]
        if self.nulls is not None:
            out = [None if null else cell
                   for null, cell in zip(self.nulls.tolist(), out)]
        return out

    def encode(self, buffers: list[Buffer]) -> str:
        """Append this column's buffers; returns its type code."""
        if self.code == "j":
            side: list[bytes] = []
            try:
                text = json.dumps([_pack_value(cell, side)
                                   for cell in self.cells()],
                                  separators=(",", ":"))
            except (TypeError, ValueError, RecursionError) as exc:
                raise ProtocolError(f"cannot encode cell: {exc}") from exc
            buffers.append(text.encode())
            buffers.extend(side)
            return f"j{len(side)}" if side else "j"
        prefix = ""
        if self.nulls is not None:
            prefix = "?"
            buffers.append(np.packbits(self.nulls,
                                       bitorder="little").tobytes())
        if self.code in _FIXED:
            buffers.append(self.values.astype(_FIXED[self.code],
                                              copy=False).tobytes())
            return prefix + self.code
        assert self.sizes is not None
        buffers.append(self.sizes.tobytes())
        if self.code == "b":
            buffers.append(self.values)
            return prefix + "b"
        inner: str = self.values.encode(buffers)
        return prefix + "*" + inner


# -- decoding ----------------------------------------------------------------

def _fixed(buffer: Buffer, code: str, n: int) -> npt.NDArray[Any]:
    if len(buffer) != 8 * n:
        raise ProtocolError(
            f"'{code}' column of {n} rows needs {8 * n} bytes, got "
            f"{len(buffer)}")
    return np.frombuffer(buffer, dtype=_FIXED[code])


def _sizes(buffer: Buffer, n: int, cap: int
           ) -> tuple[npt.NDArray[np.int64], int]:
    """A lengths buffer and its total.  ``cap`` (the bytes in the
    frame's tail) bounds every entry, so the total cannot wrap."""
    sizes: npt.NDArray[np.int64] = _fixed(buffer, "q", n)
    # Read unsigned, a negative length is 2**63 or more: one ``max``.
    if n and int(sizes.view(np.uint64).max()) > cap:
        raise ProtocolError(
            "a length column holds a negative length or one beyond "
            "the frame")
    return sizes, int(sizes.sum())


def _decode(types: str, pos: int, take: Callable[[], Buffer], n: int,
            cap: int, depth: int = 0) -> tuple[Column, int]:
    """Decode the column whose code starts at ``types[pos]``; returns
    it with the position after its code."""
    nulls = None
    if types.startswith("?", pos):
        pos += 1
        bitmap = take()
        if len(bitmap) != (n + 7) // 8:
            raise ProtocolError(
                f"null bitmap of {len(bitmap)} bytes for {n} rows")
        nulls = np.unpackbits(np.frombuffer(bitmap, np.uint8), count=n,
                              bitorder="little").view(np.bool_)
    code = types[pos:pos + 1]
    pos += 1
    if code in _FIXED:
        return Column(code, _fixed(take(), code, n), nulls=nulls), pos
    if code == "b":
        sizes, total = _sizes(take(), n, cap)
        data = take()
        if len(data) != total:
            raise ProtocolError(
                f"'b' column lengths sum to {total} but its data "
                f"buffer holds {len(data)} bytes")
        return Column("b", data, sizes, nulls), pos
    if code == "*":
        if depth == _MAX_NESTING:
            raise ProtocolError(
                f"column lists nest deeper than {_MAX_NESTING} levels")
        sizes, total = _sizes(take(), n, cap)
        inner, pos = _decode(types, pos, take, total, cap, depth + 1)
        return Column("*", inner, sizes, nulls), pos
    if code == "j":
        end = pos
        while end < len(types) and types[end] in _DIGITS:
            end += 1
        if end - pos > 9:  # more side blobs than a frame can hold
            raise ProtocolError("bad 'j' column side-blob count")
        text = take()
        side = [take() for _ in range(int(types[pos:end] or 0))]
        try:
            items = json.loads(bytes(text))
            if not isinstance(items, list) or len(items) != n:
                raise ProtocolError(
                    f"'j' column is not a JSON list of {n} cells")
            cells = [_unpack_value(item, side) for item in items]
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"bad 'j' column: {exc}") from exc
        return Column("j", cells, nulls=nulls), end
    raise ProtocolError(f"unknown column type code {code!r}")


def _infer_rowcount(types: str, buffers: Sequence[Buffer]) -> int:
    """Rows of a standalone packed row set: read off the first
    column's first sized buffer."""
    if not types:
        return 0
    skip = types.startswith("?")
    if len(types) <= skip or len(buffers) <= skip:
        raise ProtocolError(
            "row set is missing its first column or buffer")
    if types[skip] != "j":
        return len(buffers[skip]) // 8
    try:
        return len(json.loads(bytes(buffers[skip])))
    except (ValueError, TypeError, RecursionError) as exc:
        raise ProtocolError(f"bad 'j' column: {exc}") from exc


# -- a row set ---------------------------------------------------------------

class Columns:
    """A row set held as columns.

    This is what crosses the wire *and* what the layers hand each
    other: a coordinator's merged result goes from the merge to the
    reply frame as a ``Columns``, and the client materialises row
    tuples from one only when somebody asks for them.
    """

    __slots__ = ("columns", "rowcount")

    def __init__(self, columns: list[Column], rowcount: int) -> None:
        self.columns = columns
        self.rowcount = rowcount

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[object]]) -> "Columns":
        """Columns of a list of equally long rows."""
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls([], 0)
        widths = set(map(len, rows))
        if len(widths) != 1 or 0 in widths:
            raise ProtocolError(
                "rows must all have the same, non-zero number of cells")
        return cls([Column.from_cells(cells) for cells in zip(*rows)],
                   len(rows))

    @classmethod
    def from_groups(cls, groups: Iterable[tuple[object, Sequence[object]]]
                    ) -> "Columns":
        """Columns of a grouped partial state given as ordered
        ``(group_value, [partial, ...])`` pairs: the key column, then
        one column per aggregate — ``q`` for count partials, ``*x``
        for value lists (one flat values column and the per-group
        counts)."""
        return cls.from_rows([(group, *partials)
                              for group, partials in groups])

    @classmethod
    def from_group_arrays(
            cls, keys: npt.NDArray[Any], null_group: bool,
            partials: Sequence[tuple[npt.NDArray[np.int64],
                                     npt.NDArray[Any] | None]]
    ) -> "Columns":
        """:meth:`from_groups` of a grouped partial state that is
        already held as arrays — the same columns, buffer for buffer,
        without visiting a group.  ``keys`` are the distinct non-NULL
        group keys (``null_group``: a NULL group follows them); each
        aggregate gives ``(counts, None)`` for a count partial or
        ``(counts, values)`` with the groups' values end to end."""
        groups = len(keys) + null_group
        if not groups:
            return cls([], 0)
        columns = [Column.from_cells(keys.tolist() + [None] * null_group)]
        for counts, values in partials:
            if values is None:
                columns.append(Column("q", counts))
                continue
            if values.dtype == _FLOAT64 and len(values):
                flat = Column("d", values)
            else:
                flat = Column.from_cells(values.tolist())
            columns.append(Column("*", flat, counts))
        return cls(columns, groups)

    @classmethod
    def decode(cls, types: object, buffers: Sequence[Buffer],
               rowcount: object = None) -> "Columns":
        """Validate a type string against its buffers and wrap them
        (zero-copy for ``q``/``d``/``b``).  ``rowcount=None`` reads the
        row count off the first column."""
        if not isinstance(types, str):
            raise ProtocolError(
                f"a row set's type string must be a string, got "
                f"{type(types).__name__}")
        if rowcount is None:
            rowcount = _infer_rowcount(types, buffers)
        if isinstance(rowcount, bool) or not isinstance(rowcount, int) \
                or rowcount < 0:
            raise ProtocolError(f"bad rowcount {rowcount!r}")
        if not types and rowcount:
            raise ProtocolError(
                f"{rowcount} rows announced but no columns described")
        pending = iter(buffers)

        def take() -> Buffer:
            try:
                return next(pending)
            except StopIteration:
                raise ProtocolError(
                    f"type string {types!r} describes more buffers "
                    f"than the {len(buffers)} in the frame") from None

        cap = sum(map(len, buffers))
        columns = []
        pos = 0
        while pos < len(types):
            column, pos = _decode(types, pos, take, rowcount, cap)
            columns.append(column)
        if next(pending, None) is not None:
            raise ProtocolError(
                f"type string {types!r} describes fewer buffers than "
                f"the {len(buffers)} in the frame")
        return cls(columns, rowcount)

    def encode(self) -> tuple[str, list[Buffer]]:
        """``(type string, buffers)`` for a frame header and tail."""
        buffers: list[Buffer] = []
        types = "".join([col.encode(buffers) for col in self.columns])
        return types, buffers

    def rows(self) -> list[tuple[object, ...]]:
        """The row tuples (Python scalars, ``bytes``, lists, None)."""
        return list(zip(*[col.cells() for col in self.columns]))


def pack_rows(rows: "Columns | Iterable[Sequence[object]]"
              ) -> tuple[str, list[Buffer]]:
    """Encode result or insert rows — a :class:`Columns` as it is, a
    row list through :meth:`Columns.from_rows` — into the type string
    for the frame header's ``rows`` key and the buffers for its tail."""
    if not isinstance(rows, Columns):
        rows = Columns.from_rows(rows)
    return rows.encode()


def unpack_rows(types: object, buffers: Sequence[Buffer],
                rowcount: object = None) -> list[tuple[object, ...]]:
    """Invert :func:`pack_rows` into row tuples."""
    return Columns.decode(types, buffers, rowcount).rows()
