"""The on-disk codec: SQL values, rows, schemas and statistics as bytes,
framed into length-prefixed records with a per-record CRC32.

Both durable artifacts — the snapshot (:mod:`repro.storage.snapshot`)
and the write-ahead log (:mod:`repro.storage.wal`) — are sequences of
**records**::

    [u32 payload length][u32 crc32(payload)][payload bytes]

A record is readable iff its payload is complete *and* the stored CRC
matches, so a torn write (power loss mid-append) or bit rot can never
decode into garbage data: :func:`read_record` raises
:class:`~repro.errors.StorageError` — the recovery path treats a bad
record as the end of the log, the snapshot loader treats it as a corrupt
database.

Inside a payload, values use a one-byte type tag followed by a
type-specific body.  Integers are arbitrary-precision (length-prefixed
two's complement, matching Python's ``int``), floats are IEEE-754
doubles (bit-exact round trips, NaN included), text is UTF-8.  The tag
set covers exactly the engine's value model
(:mod:`repro.datatypes`): NULL, BOOLEAN, INTEGER, FLOAT, TEXT — DATE
values are ISO-8601 strings and travel as TEXT.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, BinaryIO, Sequence

from ..datatypes import SQLType
from ..errors import StorageError
from ..schema import Attribute, Schema
from ..stats.collect import ColumnStats, TableStats

#: What the decode side reads from: raw bytes or an mmap'ed view.
ReadBuffer = bytes | memoryview

#: Sanity bound on a single record's payload (1 GiB); a larger length
#: field is treated as corruption, not an allocation request.
MAX_RECORD_BYTES = 1 << 30

_RECORD_HEADER = struct.Struct("<II")
_FLOAT = struct.Struct("<d")

# -- value tags --------------------------------------------------------------

_TAG_NULL = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_TEXT = 0x05


# -- varints (unsigned LEB128) ------------------------------------------------

def encode_varint(out: bytearray, value: int) -> None:
    """Append *value* (>= 0) as an unsigned LEB128 varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(buf: ReadBuffer, pos: int) -> tuple[int, int]:
    """Read a varint at *pos*; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise StorageError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise StorageError("varint too long")


# -- SQL values --------------------------------------------------------------

def encode_value(out: bytearray, value: Any) -> None:
    """Append one SQL value (tag + body)."""
    if value is None:
        out.append(_TAG_NULL)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        body = value.to_bytes((value.bit_length() + 8) // 8, "little",
                              signed=True)
        out.append(_TAG_INT)
        encode_varint(out, len(body))
        out += body
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _FLOAT.pack(value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_TAG_TEXT)
        encode_varint(out, len(body))
        out += body
    else:
        raise StorageError(
            f"cannot encode a {type(value).__name__} value ({value!r}); "
            f"the SQL value model is NULL/bool/int/float/str")


def decode_value(buf: ReadBuffer, pos: int) -> tuple[Any, int]:
    """Read one SQL value at *pos*; returns ``(value, next_pos)``."""
    if pos >= len(buf):
        raise StorageError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        length, pos = decode_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise StorageError("truncated integer value")
        return int.from_bytes(buf[pos:end], "little", signed=True), end
    if tag == _TAG_FLOAT:
        end = pos + 8
        if end > len(buf):
            raise StorageError("truncated float value")
        return _FLOAT.unpack(bytes(buf[pos:end]))[0], end
    if tag == _TAG_TEXT:
        length, pos = decode_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise StorageError("truncated text value")
        try:
            return bytes(buf[pos:end]).decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise StorageError(f"corrupt text value: {exc}") from None
    raise StorageError(f"unknown value tag 0x{tag:02x}")


def encode_str(out: bytearray, text: str) -> None:
    """Append a bare (untagged) UTF-8 string — names, type words."""
    body = text.encode("utf-8")
    encode_varint(out, len(body))
    out += body


def decode_str(buf: ReadBuffer, pos: int) -> tuple[str, int]:
    length, pos = decode_varint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise StorageError("truncated string")
    try:
        return bytes(buf[pos:end]).decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise StorageError(f"corrupt string: {exc}") from None


# -- rows --------------------------------------------------------------------

def encode_row(out: bytearray, row: Sequence[Any]) -> None:
    """Append one row: arity varint + each value."""
    encode_varint(out, len(row))
    for value in row:
        encode_value(out, value)


def decode_row(buf: ReadBuffer, pos: int) -> tuple[tuple, int]:
    arity, pos = decode_varint(buf, pos)
    values = []
    for _ in range(arity):
        value, pos = decode_value(buf, pos)
        values.append(value)
    return tuple(values), pos


def encode_rows(out: bytearray, rows: Sequence[Sequence[Any]]) -> None:
    """Append a row block: count varint + each row."""
    encode_varint(out, len(rows))
    for row in rows:
        encode_row(out, row)


def decode_rows(buf: bytes, pos: int) -> tuple[list[tuple], int]:
    """Decode a row block — the recovery hot path.

    The value dispatch of :func:`decode_value` is inlined into one loop
    (with the common single-byte varint lengths special-cased), because
    reopening a database decodes every stored cell through here and the
    per-call overhead dominates otherwise.  *buf* must be ``bytes``.
    """
    count, pos = decode_varint(buf, pos)
    rows: list[tuple] = []
    append = rows.append
    size = len(buf)
    int_from_bytes = int.from_bytes
    unpack_float = _FLOAT.unpack_from
    for _ in range(count):
        arity, pos = decode_varint(buf, pos)
        values = []
        add = values.append
        for _ in range(arity):
            if pos >= size:
                raise StorageError("truncated value")
            tag = buf[pos]
            pos += 1
            if tag == _TAG_INT or tag == _TAG_TEXT:
                if pos >= size:
                    raise StorageError("truncated value")
                length = buf[pos]
                pos += 1
                if length & 0x80:
                    length, pos = decode_varint(buf, pos - 1)
                end = pos + length
                if end > size:
                    raise StorageError("truncated value")
                if tag == _TAG_INT:
                    add(int_from_bytes(buf[pos:end], "little",
                                       signed=True))
                else:
                    try:
                        add(buf[pos:end].decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise StorageError(
                            f"corrupt text value: {exc}") from None
                pos = end
            elif tag == _TAG_NULL:
                add(None)
            elif tag == _TAG_FLOAT:
                if pos + 8 > size:
                    raise StorageError("truncated float value")
                add(unpack_float(buf, pos)[0])
                pos += 8
            elif tag == _TAG_TRUE:
                add(True)
            elif tag == _TAG_FALSE:
                add(False)
            else:
                raise StorageError(f"unknown value tag 0x{tag:02x}")
        append(tuple(values))
    return rows, pos


# -- columnar row blocks (snapshot tables) ------------------------------------
#
# A snapshot stores each table's rows column-wise: per column, a kind
# byte picks either a *packed* layout (int64 / float64 / text vectors,
# decoded with one struct.unpack or str slice pass — C speed) or the
# generic tagged per-value layout (mixed types, bools, big integers).
# NULLs travel in an optional bitmap.  The WAL keeps the row-wise
# encoding: its records are small deltas where framing, not decode
# speed, matters.

_COL_GENERIC = 0
_COL_INT64 = 1
_COL_FLOAT64 = 2
_COL_TEXT = 3

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _column_kind(values: Sequence[Any]) -> int:
    kind = -1
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return _COL_GENERIC
        if isinstance(value, int):
            if not _INT64_MIN <= value <= _INT64_MAX:
                return _COL_GENERIC
            this = _COL_INT64
        elif isinstance(value, float):
            this = _COL_FLOAT64
        elif isinstance(value, str):
            this = _COL_TEXT
        else:
            return _COL_GENERIC
        if kind == -1:
            kind = this
        elif kind != this:
            return _COL_GENERIC
    return _COL_INT64 if kind == -1 else kind   # all-NULL: any packed kind


def _encode_column(out: bytearray, values: list[Any]) -> None:
    kind = _column_kind(values)
    out.append(kind)
    if kind == _COL_GENERIC:
        for value in values:
            encode_value(out, value)
        return
    nulls = [i for i, value in enumerate(values) if value is None]
    if nulls:
        out.append(1)
        bitmap = bytearray((len(values) + 7) // 8)
        for i in nulls:
            bitmap[i >> 3] |= 1 << (i & 7)
        out += bitmap
        present = [value for value in values if value is not None]
    else:
        out.append(0)
        present = values
    if kind == _COL_INT64:
        out += struct.pack(f"<{len(present)}q", *present)
    elif kind == _COL_FLOAT64:
        out += struct.pack(f"<{len(present)}d", *present)
    else:
        out += struct.pack(f"<{len(present)}I",
                           *[len(text) for text in present])
        blob = "".join(present).encode("utf-8")
        encode_varint(out, len(blob))
        out += blob


#: Codec column kind -> the execution-engine column-kind names used by
#: :mod:`repro.engine.columnar` (GENERIC holds bools / big ints / mixed
#: values, so it maps to the catch-all kind with has_nulls unknown).
_KIND_NAMES = {_COL_INT64: "num", _COL_FLOAT64: "num", _COL_TEXT: "text"}


def _decode_column_full(
        buf: bytes, pos: int,
        n_rows: int) -> tuple[list[Any], str, bool, int]:
    """Decode one column, also reporting the engine column kind and
    whether NULLs are present (``"any"`` is always paired with True —
    the generic layout does not track nulls separately)."""
    if pos >= len(buf):
        raise StorageError("truncated column")
    kind = buf[pos]
    pos += 1
    if kind == _COL_GENERIC:
        values = []
        for _ in range(n_rows):
            value, pos = decode_value(buf, pos)
            values.append(value)
        return values, "any", True, pos
    if kind not in (_COL_INT64, _COL_FLOAT64, _COL_TEXT):
        raise StorageError(f"unknown column kind 0x{kind:02x}")
    if pos >= len(buf):
        raise StorageError("truncated column")
    has_nulls = buf[pos]
    pos += 1
    bitmap = b""
    count = n_rows
    if has_nulls:
        width = (n_rows + 7) // 8
        if pos + width > len(buf):
            raise StorageError("truncated null bitmap")
        bitmap = buf[pos:pos + width]
        pos += width
        count = n_rows - sum(bin(byte).count("1") for byte in bitmap)
    if kind == _COL_TEXT:
        end = pos + 4 * count
        if end > len(buf):
            raise StorageError("truncated text lengths")
        lengths = struct.unpack_from(f"<{count}I", buf, pos)
        pos = end
        blob_len, pos = decode_varint(buf, pos)
        if pos + blob_len > len(buf):
            raise StorageError("truncated text blob")
        try:
            blob = buf[pos:pos + blob_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StorageError(f"corrupt text column: {exc}") from None
        pos += blob_len
        present: list[Any] = []
        offset = 0
        for length in lengths:
            present.append(blob[offset:offset + length])
            offset += length
        if offset != len(blob):
            raise StorageError("text column lengths disagree with blob")
    else:
        width = 8 * count
        if pos + width > len(buf):
            raise StorageError("truncated packed column")
        fmt = "q" if kind == _COL_INT64 else "d"
        present = list(struct.unpack_from(f"<{count}{fmt}", buf, pos))
        pos += width
    name = _KIND_NAMES[kind]
    if not has_nulls:
        return present, name, False, pos
    values = []
    it = iter(present)
    for i in range(n_rows):
        if bitmap[i >> 3] & (1 << (i & 7)):
            values.append(None)
        else:
            values.append(next(it))
    return values, name, True, pos


def encode_columnar_rows(out: bytearray, n_columns: int,
                         rows: Sequence[tuple]) -> None:
    """Append a table's rows column-wise (see the section comment)."""
    encode_varint(out, len(rows))
    for position in range(n_columns):
        _encode_column(out, [row[position] for row in rows])


def decode_columnar_columns(
        buf: bytes, pos: int, n_columns: int
) -> tuple[list[tuple[list[Any], str, bool]], int, int]:
    """Decode a columnar block *without* transposing: per column a
    ``(values, kind, has_nulls)`` tuple ready to seed the vectorized
    engine's column cache.  Returns ``(columns, n_rows, pos)``."""
    n_rows, pos = decode_varint(buf, pos)
    columns = []
    for _ in range(n_columns):
        values, kind, has_nulls, pos = _decode_column_full(
            buf, pos, n_rows)
        columns.append((values, kind, has_nulls))
    return columns, n_rows, pos


def decode_columnar_rows(buf: bytes, pos: int,
                         n_columns: int) -> tuple[list[tuple], int]:
    columns, n_rows, pos = decode_columnar_columns(buf, pos, n_columns)
    if not columns:
        return [() for _ in range(n_rows)], pos
    return list(zip(*[values for values, _, _ in columns])), pos


# -- schemas -----------------------------------------------------------------

def encode_schema(out: bytearray, schema: Schema) -> None:
    """Append a schema: column count + (name, SQLType value) per column."""
    encode_varint(out, len(schema))
    for attribute in schema:
        encode_str(out, attribute.name)
        encode_str(out, attribute.type.value)


def decode_schema(buf: ReadBuffer, pos: int) -> tuple[Schema, int]:
    count, pos = decode_varint(buf, pos)
    attributes = []
    for _ in range(count):
        name, pos = decode_str(buf, pos)
        type_word, pos = decode_str(buf, pos)
        try:
            sql_type = SQLType(type_word)
        except ValueError:
            raise StorageError(
                f"unknown column type {type_word!r} in stored "
                f"schema") from None
        attributes.append(Attribute(name, sql_type))
    return Schema(attributes), pos


def _decode_float(buf: ReadBuffer, pos: int) -> tuple[float, int]:
    end = pos + 8
    if end > len(buf):
        raise StorageError("truncated float")
    return _FLOAT.unpack(bytes(buf[pos:end]))[0], end


# -- statistics --------------------------------------------------------------

def encode_table_stats(out: bytearray, stats: TableStats) -> None:
    """Append one table's ANALYZE statistics."""
    encode_str(out, stats.table)
    encode_varint(out, stats.row_count)
    encode_varint(out, len(stats.columns))
    for column in stats.columns.values():
        encode_str(out, column.name)
        encode_varint(out, column.n_distinct)
        out += _FLOAT.pack(column.null_frac)
        encode_value(out, column.min_value)
        encode_value(out, column.max_value)
        encode_varint(out, len(column.mcvs))
        for value, frequency in column.mcvs:
            encode_value(out, value)
            out += _FLOAT.pack(frequency)


def decode_table_stats(buf: ReadBuffer, pos: int) -> tuple[TableStats, int]:
    table, pos = decode_str(buf, pos)
    row_count, pos = decode_varint(buf, pos)
    column_count, pos = decode_varint(buf, pos)
    columns: dict[str, ColumnStats] = {}
    for _ in range(column_count):
        name, pos = decode_str(buf, pos)
        n_distinct, pos = decode_varint(buf, pos)
        null_frac, pos = _decode_float(buf, pos)
        min_value, pos = decode_value(buf, pos)
        max_value, pos = decode_value(buf, pos)
        mcv_count, pos = decode_varint(buf, pos)
        mcvs = []
        for _ in range(mcv_count):
            value, pos = decode_value(buf, pos)
            frequency, pos = _decode_float(buf, pos)
            mcvs.append((value, frequency))
        columns[name] = ColumnStats(
            name=name, n_distinct=n_distinct, null_frac=null_frac,
            min_value=min_value, max_value=max_value, mcvs=tuple(mcvs))
    return TableStats(table=table, row_count=row_count,
                      columns=columns), pos


# -- parsed-statement (view) payloads ----------------------------------------
#
# Views are stored as pickled SQL ASTs.  Loading goes through a
# restricted unpickler that only resolves the AST's own dataclass/enum
# modules: the CRC frame protects against *corruption*, this protects
# against a *crafted* database directory — opening untrusted data must
# never execute arbitrary code.

_AST_MODULES = ("repro.sql.ast", "repro.expressions.ast")


class _AstUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if module in _AST_MODULES and not name.startswith("_"):
            return super().find_class(module, name)
        raise StorageError(
            f"stored view references {module}.{name}, which is not a "
            f"SQL AST class — refusing to load it")


def dumps_ast(statement: Any) -> bytes:
    """Pickle a parsed SQL statement for a view record."""
    return pickle.dumps(statement, protocol=pickle.HIGHEST_PROTOCOL)


def loads_ast(data: bytes) -> Any:
    """Unpickle a view record, resolving only SQL AST classes."""
    try:
        return _AstUnpickler(io.BytesIO(data)).load()
    except StorageError:
        raise
    except Exception as exc:
        raise StorageError(f"corrupt view definition: {exc}") from exc


# -- record framing ----------------------------------------------------------

def frame_record(payload: bytes) -> bytes:
    """One framed record (length + CRC32 + payload) as a single buffer —
    the WAL appends it with one write call.

    The size cap is enforced on the write side too: a record the reader
    would reject as implausible must fail the commit/checkpoint *now*,
    with a clear error — never get acknowledged as durable and then be
    dropped as corruption on the next open.
    """
    if len(payload) > MAX_RECORD_BYTES:
        raise StorageError(
            f"record payload of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte per-record limit — commit the "
            f"write-set in smaller transactions")
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def write_record(fh: BinaryIO, payload: bytes) -> None:
    """Append one framed record (length + CRC32 + payload)."""
    fh.write(frame_record(payload))


def read_record(fh: BinaryIO) -> bytes | None:
    """Read the record at the current offset.

    Returns the payload, or None at a clean end of file.  Raises
    :class:`~repro.errors.StorageError` for a torn record (header or
    payload cut short) or a CRC mismatch — the caller decides whether
    that means "end of a crashed log" or "corrupt database".
    """
    header = fh.read(_RECORD_HEADER.size)
    if not header:
        return None
    if len(header) < _RECORD_HEADER.size:
        raise StorageError("torn record header")
    length, crc = _RECORD_HEADER.unpack(header)
    if length > MAX_RECORD_BYTES:
        raise StorageError(f"implausible record length {length}")
    payload = fh.read(length)
    if len(payload) < length:
        raise StorageError("torn record payload")
    if zlib.crc32(payload) != crc:
        raise StorageError("record CRC mismatch")
    return payload
