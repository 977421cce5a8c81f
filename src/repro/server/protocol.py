"""PostgreSQL wire protocol v3 codec (the subset repro serves).

Pure functions over bytes — no sockets, no sessions — shared by the
asyncio server (:mod:`repro.server.server`) and the asyncio client
(:mod:`repro.client`), and fuzz-tested on their own in
``tests/test_wire_protocol.py``.

Framing: after the startup phase every message is a one-byte type tag, a
big-endian int32 length (counting itself, not the tag), and the payload.
Startup-phase messages (StartupMessage, SSLRequest, CancelRequest) have
no tag.  :class:`MessageStream` accumulates raw socket reads and yields
complete frames, so multi-message packets and messages split across TCP
reads both decode correctly.

Every message type the server or client handles has a dataclass with an
``encode()`` method and a direction-specific parser
(:func:`parse_frontend` / :func:`parse_backend`); truncated or malformed
payloads raise :class:`~repro.errors.ProtocolError`, never an
``IndexError`` or garbage data.

Values travel in the text format (format code 0).  The type OID carried
in RowDescription / Parse maps onto :class:`~repro.datatypes.SQLType`;
:func:`encode_text` / :func:`decode_text` are the two ends of the value
codec, and :func:`sqlstate_for` / :func:`exception_for` translate the
library's DB-API error hierarchy to and from SQLSTATE codes.

Result rows are the one hot path, so they have a fused codec built on
the same per-type / per-OID value rules: :func:`encode_data_row` turns a
row of Python values into one DataRow frame without the intermediate
message object, and :func:`compile_row_decoder` resolves a
RowDescription's converters once and returns a ``payload -> tuple``
function.  The server streams results through the first, the client
receives them through the second.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..datatypes import SQLType
from ..errors import (
    AnalyzerError, AuthenticationError, BindError, CatalogError,
    ConnectionLimitError, DataError, DatabaseError, Error, ExecutionError,
    ExpressionError, IntegrityError, InterfaceError, InternalError,
    NotSupportedError, OperationalError, ProgrammingError, ProtocolError,
    ServerShutdownError, SQLSyntaxError, StorageError, TransactionError,
)
from ..schema import Schema

#: Protocol version 3.0, as sent in the StartupMessage.
PROTOCOL_VERSION = 196608
#: Magic "versions" of the tagless pre-startup requests.
SSL_REQUEST_CODE = 80877103
CANCEL_REQUEST_CODE = 80877102
GSSENC_REQUEST_CODE = 80877104

#: Hard cap on a single message; a length beyond this is treated as a
#: protocol violation rather than an allocation request.
MAX_MESSAGE_LENGTH = 64 * 1024 * 1024

_INT32 = struct.Struct(">i")
_INT16 = struct.Struct(">h")
#: tag byte + int32 length: the head of every post-startup frame
_FRAME_HEAD = struct.Struct(">ci")
#: tag + length + int16 column count: the head of a DataRow frame
_DATA_ROW_HEAD = struct.Struct(">cih")
_NULL_LENGTH = _INT32.pack(-1)

# -- type OIDs ----------------------------------------------------------------

#: PostgreSQL type OIDs for the engine's logical types (int8, float8,
#: text, bool, date; ``ANY`` travels as the pseudo-type ``unknown``).
OID_INT8 = 20
OID_FLOAT8 = 701
OID_TEXT = 25
OID_BOOL = 16
OID_DATE = 1082
OID_UNKNOWN = 705

OID_BY_TYPE = {
    SQLType.INTEGER: OID_INT8,
    SQLType.FLOAT: OID_FLOAT8,
    SQLType.TEXT: OID_TEXT,
    SQLType.BOOLEAN: OID_BOOL,
    SQLType.DATE: OID_DATE,
    SQLType.ANY: OID_UNKNOWN,
}

_INT_OIDS = frozenset((20, 21, 23, 26))
_FLOAT_OIDS = frozenset((700, 701, 1700))


#: PostgreSQL's text spelling of the non-finite floats; Python's own
#: (``inf`` / ``nan``) is rejected by other drivers.
_NONFINITE = {"inf": b"Infinity", "-inf": b"-Infinity", "nan": b"NaN"}


def _float_text(value: float) -> bytes:
    text = repr(value)
    return _NONFINITE.get(text) or text.encode("ascii")


#: Exact value type -> text-format encoder: the one set of encoding
#: rules, shared by :func:`encode_text` and :func:`encode_data_row`
#: (``bool`` precedes ``int`` for the subclass fallback).
_TEXT_ENCODERS: "dict[type, Callable[[Any], bytes]]" = {
    bool: (b"f", b"t").__getitem__,
    int: lambda value: b"%d" % value,
    float: _float_text,
    str: str.encode,
    bytes: bytes,
}


def encode_text(value: object) -> "bytes | None":
    """A SQL value in the wire text format (None stays None = SQL NULL)."""
    if value is None:
        return None
    encoder = _TEXT_ENCODERS.get(type(value))
    if encoder is None:
        for kind, encoder in _TEXT_ENCODERS.items():
            if isinstance(value, kind):
                break
        else:
            return str(value).encode("utf-8")
    return encoder(value)


_BOOL_VALUES = {
    **dict.fromkeys(("t", "true", "1", "on", "yes"), True),
    **dict.fromkeys(("f", "false", "0", "off", "no"), False),
}


def _bool_value(data: bytes) -> bool:
    try:
        return _BOOL_VALUES[data.decode("utf-8").strip().lower()]
    except KeyError:
        # repro: allow(hygiene-raise) - the converter contract: malformed
        # input is a ValueError, as from int() and float(); both callers
        # turn it into ProtocolError
        raise ValueError("invalid boolean literal") from None


def _inferred_value(data: bytes) -> "int | float | str":
    for convert in (int, float):
        try:
            return convert(data)
        except ValueError:
            pass
    return data.decode("utf-8")


def _converter_for(oid: int) -> "Callable[[bytes], Any]":
    """The text-format converter of a type OID: the one set of decoding
    rules, shared by :func:`decode_text` and :func:`compile_row_decoder`.
    A converter takes the value's bytes and raises ``ValueError``
    (``UnicodeDecodeError`` included) on a malformed one.

    OID 0 (unspecified, e.g. a parameter a driver sent without a type)
    and OID 705 (``unknown``, e.g. a computed column the engine typed as
    ``ANY``) are inferred: integer, then float, then text.  Floats accept
    both PostgreSQL's ``Infinity`` / ``NaN`` and Python's ``inf`` /
    ``nan``.
    """
    if oid in _INT_OIDS:
        return int
    if oid in _FLOAT_OIDS:
        return float
    if oid == OID_BOOL:
        return _bool_value
    if oid in (0, OID_UNKNOWN):
        return _inferred_value
    return bytes.decode


def decode_text(data: "bytes | None", oid: int) -> Any:
    """Decode a text-format value per its declared type OID (see
    :func:`_converter_for`)."""
    if data is None:
        return None
    try:
        return _converter_for(oid)(data)
    except ValueError as exc:
        raise ProtocolError(
            f"invalid value {data!r} for oid {oid}: {exc}") from None


# -- payload reader -----------------------------------------------------------

class PayloadReader:
    """Bounds-checked cursor over one message payload.

    Every read past the end raises :class:`ProtocolError` — a truncated
    message can never surface as an ``IndexError`` or as garbage."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise ProtocolError(
                f"truncated message: wanted {count} byte(s) at offset "
                f"{self.pos} of {len(self.data)}")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def int32(self) -> int:
        return _INT32.unpack(self._take(4))[0]

    def int16(self) -> int:
        return _INT16.unpack(self._take(2))[0]

    def byte(self) -> int:
        return self._take(1)[0]

    def cstring(self) -> str:
        end = self.data.find(b"\x00", self.pos)
        if end < 0:
            raise ProtocolError("unterminated string in message")
        try:
            text = self.data[self.pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid utf-8 in message: {exc}") from None
        self.pos = end + 1
        return text

    def value(self) -> bytes | None:
        """An int32-length-prefixed value (-1 = NULL)."""
        length = self.int32()
        if length == -1:
            return None
        return bytes(self._take(length))

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing byte(s) in message")


class _Writer:
    """Payload builder mirroring :class:`PayloadReader`."""

    __slots__ = ("out",)

    def __init__(self):
        self.out = bytearray()

    def int32(self, value: int) -> "_Writer":
        self.out += _INT32.pack(value)
        return self

    def int16(self, value: int) -> "_Writer":
        self.out += _INT16.pack(value)
        return self

    def byte(self, value: int) -> "_Writer":
        self.out.append(value)
        return self

    def cstring(self, text: str) -> "_Writer":
        self.out += text.encode("utf-8") + b"\x00"
        return self

    def value(self, data: bytes | None) -> "_Writer":
        if data is None:
            self.out += _INT32.pack(-1)
        else:
            self.out += _INT32.pack(len(data)) + data
        return self


def frame(tag: bytes, payload: bytes | bytearray) -> bytes:
    """One complete wire message: tag + int32 length + payload."""
    return tag + _INT32.pack(len(payload) + 4) + bytes(payload)


# -- startup-phase messages (no tag byte) -------------------------------------

@dataclass(frozen=True)
class Startup:
    """StartupMessage: protocol version + key/value parameters
    (``user`` required; ``database`` defaults to the user name)."""

    parameters: tuple[tuple[str, str], ...]

    @property
    def options(self) -> dict[str, str]:
        return dict(self.parameters)

    def encode(self) -> bytes:
        writer = _Writer().int32(PROTOCOL_VERSION)
        for key, value in self.parameters:
            writer.cstring(key).cstring(value)
        writer.byte(0)
        return _INT32.pack(len(writer.out) + 4) + bytes(writer.out)


@dataclass(frozen=True)
class SSLRequest:
    def encode(self) -> bytes:
        return _INT32.pack(8) + _INT32.pack(SSL_REQUEST_CODE)


@dataclass(frozen=True)
class GSSEncRequest:
    def encode(self) -> bytes:
        return _INT32.pack(8) + _INT32.pack(GSSENC_REQUEST_CODE)


@dataclass(frozen=True)
class CancelRequest:
    pid: int
    secret: int

    def encode(self) -> bytes:
        return (_INT32.pack(16) + _INT32.pack(CANCEL_REQUEST_CODE)
                + _INT32.pack(self.pid) + _INT32.pack(self.secret))


def parse_startup(payload: bytes):
    """Decode a startup-phase payload (already stripped of its length)."""
    reader = PayloadReader(payload)
    code = reader.int32()
    if code == SSL_REQUEST_CODE:
        reader.expect_end()
        return SSLRequest()
    if code == GSSENC_REQUEST_CODE:
        reader.expect_end()
        return GSSEncRequest()
    if code == CANCEL_REQUEST_CODE:
        request = CancelRequest(reader.int32(), reader.int32())
        reader.expect_end()
        return request
    if code != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {code >> 16}.{code & 0xFFFF}")
    parameters = []
    while True:
        if reader.pos >= len(payload):
            raise ProtocolError("startup message missing terminator")
        if payload[reader.pos] == 0:
            reader.byte()
            break
        key = reader.cstring()
        parameters.append((key, reader.cstring()))
    reader.expect_end()
    return Startup(tuple(parameters))


# -- frontend messages (client -> server) -------------------------------------

@dataclass(frozen=True)
class Password:
    password: str

    def encode(self) -> bytes:
        return frame(b"p", _Writer().cstring(self.password).out)


@dataclass(frozen=True)
class Query:
    sql: str

    def encode(self) -> bytes:
        return frame(b"Q", _Writer().cstring(self.sql).out)


@dataclass(frozen=True)
class Parse:
    name: str
    sql: str
    param_oids: tuple[int, ...] = ()

    def encode(self) -> bytes:
        writer = _Writer().cstring(self.name).cstring(self.sql)
        writer.int16(len(self.param_oids))
        for oid in self.param_oids:
            writer.int32(oid)
        return frame(b"P", writer.out)


@dataclass(frozen=True)
class Bind:
    portal: str
    statement: str
    param_formats: tuple[int, ...] = ()
    params: tuple[bytes | None, ...] = ()
    result_formats: tuple[int, ...] = ()

    def encode(self) -> bytes:
        writer = _Writer().cstring(self.portal).cstring(self.statement)
        writer.int16(len(self.param_formats))
        for code in self.param_formats:
            writer.int16(code)
        writer.int16(len(self.params))
        for value in self.params:
            writer.value(value)
        writer.int16(len(self.result_formats))
        for code in self.result_formats:
            writer.int16(code)
        return frame(b"B", writer.out)


@dataclass(frozen=True)
class Describe:
    kind: str                       # 'S' statement | 'P' portal
    name: str

    def encode(self) -> bytes:
        return frame(b"D",
                     _Writer().byte(ord(self.kind)).cstring(self.name).out)


@dataclass(frozen=True)
class Execute:
    portal: str
    max_rows: int = 0               # 0 = no limit

    def encode(self) -> bytes:
        return frame(b"E",
                     _Writer().cstring(self.portal).int32(self.max_rows).out)


@dataclass(frozen=True)
class CloseMsg:
    kind: str                       # 'S' statement | 'P' portal
    name: str

    def encode(self) -> bytes:
        return frame(b"C",
                     _Writer().byte(ord(self.kind)).cstring(self.name).out)


@dataclass(frozen=True)
class Flush:
    def encode(self) -> bytes:
        return frame(b"H", b"")


@dataclass(frozen=True)
class Sync:
    def encode(self) -> bytes:
        return frame(b"S", b"")


@dataclass(frozen=True)
class Terminate:
    def encode(self) -> bytes:
        return frame(b"X", b"")


def _parse_close_or_describe(cls, payload: bytes):
    reader = PayloadReader(payload)
    kind = chr(reader.byte())
    if kind not in ("S", "P"):
        raise ProtocolError(f"bad describe/close kind {kind!r}")
    message = cls(kind, reader.cstring())
    reader.expect_end()
    return message


def _parse_bind(payload: bytes) -> Bind:
    reader = PayloadReader(payload)
    portal = reader.cstring()
    statement = reader.cstring()
    param_formats = tuple(reader.int16()
                          for _ in range(reader.int16()))
    params = tuple(reader.value() for _ in range(reader.int16()))
    result_formats = tuple(reader.int16()
                           for _ in range(reader.int16()))
    reader.expect_end()
    for code in (*param_formats, *result_formats):
        if code not in (0, 1):
            raise ProtocolError(f"unknown format code {code}")
    return Bind(portal, statement, param_formats, params, result_formats)


def _parse_parse(payload: bytes) -> Parse:
    reader = PayloadReader(payload)
    name = reader.cstring()
    sql = reader.cstring()
    oids = tuple(reader.int32() for _ in range(reader.int16()))
    reader.expect_end()
    return Parse(name, sql, oids)


def _parse_execute(payload: bytes) -> Execute:
    reader = PayloadReader(payload)
    message = Execute(reader.cstring(), reader.int32())
    reader.expect_end()
    return message


def _one_cstring(cls, payload: bytes):
    reader = PayloadReader(payload)
    message = cls(reader.cstring())
    reader.expect_end()
    return message


def _empty(cls, payload: bytes):
    PayloadReader(payload).expect_end()
    return cls()


_FRONTEND_PARSERS = {
    b"p": lambda p: _one_cstring(Password, p),
    b"Q": lambda p: _one_cstring(Query, p),
    b"P": _parse_parse,
    b"B": _parse_bind,
    b"D": lambda p: _parse_close_or_describe(Describe, p),
    b"E": _parse_execute,
    b"C": lambda p: _parse_close_or_describe(CloseMsg, p),
    b"H": lambda p: _empty(Flush, p),
    b"S": lambda p: _empty(Sync, p),
    b"X": lambda p: _empty(Terminate, p),
}


def parse_frontend(tag: bytes, payload: bytes):
    """Decode one client-to-server message."""
    parser = _FRONTEND_PARSERS.get(tag)
    if parser is None:
        raise ProtocolError(f"unknown frontend message type {tag!r}")
    return parser(payload)


# -- backend messages (server -> client) --------------------------------------

AUTH_OK = 0
AUTH_CLEARTEXT_PASSWORD = 3


@dataclass(frozen=True)
class Authentication:
    code: int                       # AUTH_OK or AUTH_CLEARTEXT_PASSWORD

    def encode(self) -> bytes:
        return frame(b"R", _Writer().int32(self.code).out)


@dataclass(frozen=True)
class ParameterStatus:
    name: str
    value: str

    def encode(self) -> bytes:
        return frame(b"S",
                     _Writer().cstring(self.name).cstring(self.value).out)


@dataclass(frozen=True)
class BackendKeyData:
    pid: int
    secret: int

    def encode(self) -> bytes:
        return frame(b"K", _Writer().int32(self.pid).int32(self.secret).out)


@dataclass(frozen=True)
class ReadyForQuery:
    status: str                     # 'I' idle | 'T' in txn | 'E' failed txn

    def encode(self) -> bytes:
        return frame(b"Z", _Writer().byte(ord(self.status)).out)


# repro: allow(exhaustiveness-wire) - not a frame of its own: one
# column's slice of RowDescription, encoded inline by its encode().
@dataclass(frozen=True)
class FieldDescription:
    name: str
    type_oid: int
    table_oid: int = 0
    column: int = 0
    type_size: int = -1
    type_modifier: int = -1
    format_code: int = 0


@dataclass(frozen=True)
class RowDescription:
    fields: tuple[FieldDescription, ...]

    def encode(self) -> bytes:
        writer = _Writer().int16(len(self.fields))
        for f in self.fields:
            writer.cstring(f.name).int32(f.table_oid).int16(f.column)
            writer.int32(f.type_oid).int16(f.type_size)
            writer.int32(f.type_modifier).int16(f.format_code)
        return frame(b"T", writer.out)


@dataclass(frozen=True)
class DataRow:
    values: tuple[bytes | None, ...]

    def encode(self) -> bytes:
        writer = _Writer().int16(len(self.values))
        for value in self.values:
            writer.value(value)
        return frame(b"D", writer.out)


@dataclass(frozen=True)
class CommandComplete:
    tag: str

    def encode(self) -> bytes:
        return frame(b"C", _Writer().cstring(self.tag).out)


@dataclass(frozen=True)
class EmptyQueryResponse:
    def encode(self) -> bytes:
        return frame(b"I", b"")


@dataclass(frozen=True)
class ParseComplete:
    def encode(self) -> bytes:
        return frame(b"1", b"")


@dataclass(frozen=True)
class BindComplete:
    def encode(self) -> bytes:
        return frame(b"2", b"")


@dataclass(frozen=True)
class CloseComplete:
    def encode(self) -> bytes:
        return frame(b"3", b"")


@dataclass(frozen=True)
class NoData:
    def encode(self) -> bytes:
        return frame(b"n", b"")


@dataclass(frozen=True)
class PortalSuspended:
    def encode(self) -> bytes:
        return frame(b"s", b"")


@dataclass(frozen=True)
class ParameterDescription:
    oids: tuple[int, ...]

    def encode(self) -> bytes:
        writer = _Writer().int16(len(self.oids))
        for oid in self.oids:
            writer.int32(oid)
        return frame(b"t", writer.out)


@dataclass(frozen=True)
class ErrorResponse:
    """Error (or, for :class:`NoticeResponse`, notice) fields keyed by
    their one-letter field type: S severity, C sqlstate, M message."""

    fields: tuple[tuple[str, str], ...]
    TAG = b"E"

    @classmethod
    def make(cls, message: str, sqlstate: str = "XX000",
             severity: str = "ERROR"):
        return cls((("S", severity), ("V", severity), ("C", sqlstate),
                    ("M", message)))

    @property
    def options(self) -> dict[str, str]:
        return dict(self.fields)

    @property
    def message(self) -> str:
        return self.options.get("M", "")

    @property
    def sqlstate(self) -> str:
        return self.options.get("C", "XX000")

    @property
    def severity(self) -> str:
        return self.options.get("S", "ERROR")

    def encode(self) -> bytes:
        writer = _Writer()
        for key, value in self.fields:
            writer.byte(ord(key)).cstring(value)
        writer.byte(0)
        return frame(self.TAG, writer.out)


@dataclass(frozen=True)
class NoticeResponse(ErrorResponse):
    TAG = b"N"

    @classmethod
    def make(cls, message: str, sqlstate: str = "00000",
             severity: str = "NOTICE"):
        return cls((("S", severity), ("V", severity), ("C", sqlstate),
                    ("M", message)))


def error_response(exc: BaseException, fatal: bool = False) -> bytes:
    """The encoded ErrorResponse a library exception travels as."""
    return ErrorResponse.make(
        str(exc) or type(exc).__name__, sqlstate=sqlstate_for(exc),
        severity="FATAL" if fatal else "ERROR").encode()


def _parse_error_fields(cls, payload: bytes):
    reader = PayloadReader(payload)
    fields = []
    while True:
        if reader.pos >= len(payload):
            raise ProtocolError("error response missing terminator")
        code = reader.byte()
        if code == 0:
            break
        fields.append((chr(code), reader.cstring()))
    reader.expect_end()
    return cls(tuple(fields))


def _parse_row_description(payload: bytes) -> RowDescription:
    reader = PayloadReader(payload)
    fields = []
    for _ in range(reader.int16()):
        name = reader.cstring()
        fields.append(FieldDescription(
            name, table_oid=reader.int32(), column=reader.int16(),
            type_oid=reader.int32(), type_size=reader.int16(),
            type_modifier=reader.int32(), format_code=reader.int16()))
    reader.expect_end()
    return RowDescription(tuple(fields))


def _parse_data_row(payload: bytes) -> DataRow:
    reader = PayloadReader(payload)
    values = tuple(reader.value() for _ in range(reader.int16()))
    reader.expect_end()
    return DataRow(values)


def _parse_authentication(payload: bytes) -> Authentication:
    reader = PayloadReader(payload)
    code = reader.int32()
    reader.expect_end()
    if code not in (AUTH_OK, AUTH_CLEARTEXT_PASSWORD):
        raise ProtocolError(
            f"unsupported authentication request {code}")
    return Authentication(code)


def _parse_ready(payload: bytes) -> ReadyForQuery:
    reader = PayloadReader(payload)
    status = chr(reader.byte())
    reader.expect_end()
    if status not in ("I", "T", "E"):
        raise ProtocolError(f"bad transaction status {status!r}")
    return ReadyForQuery(status)


def _parse_key_data(payload: bytes) -> BackendKeyData:
    reader = PayloadReader(payload)
    message = BackendKeyData(reader.int32(), reader.int32())
    reader.expect_end()
    return message


def _parse_parameter_status(payload: bytes) -> ParameterStatus:
    reader = PayloadReader(payload)
    message = ParameterStatus(reader.cstring(), reader.cstring())
    reader.expect_end()
    return message


def _parse_parameter_description(payload: bytes) -> ParameterDescription:
    reader = PayloadReader(payload)
    oids = tuple(reader.int32() for _ in range(reader.int16()))
    reader.expect_end()
    return ParameterDescription(oids)


_BACKEND_PARSERS = {
    b"R": _parse_authentication,
    b"S": _parse_parameter_status,
    b"K": _parse_key_data,
    b"Z": _parse_ready,
    b"T": _parse_row_description,
    b"D": _parse_data_row,
    b"C": lambda p: _one_cstring(CommandComplete, p),
    b"I": lambda p: _empty(EmptyQueryResponse, p),
    b"E": lambda p: _parse_error_fields(ErrorResponse, p),
    b"N": lambda p: _parse_error_fields(NoticeResponse, p),
    b"1": lambda p: _empty(ParseComplete, p),
    b"2": lambda p: _empty(BindComplete, p),
    b"3": lambda p: _empty(CloseComplete, p),
    b"n": lambda p: _empty(NoData, p),
    b"s": lambda p: _empty(PortalSuspended, p),
    b"t": _parse_parameter_description,
}


def parse_backend(tag: bytes, payload: bytes):
    """Decode one server-to-client message."""
    parser = _BACKEND_PARSERS.get(tag)
    if parser is None:
        raise ProtocolError(f"unknown backend message type {tag!r}")
    return parser(payload)


# -- incremental framing ------------------------------------------------------

class MessageStream:
    """Accumulates raw socket bytes and yields complete frames.

    ``feed()`` whatever arrived; ``next_message()`` returns one
    ``(tag, payload)`` pair, or ``None`` until a full frame is buffered.
    During the startup phase (server side) use ``next_startup()``, which
    understands the tagless startup framing.  Both raise
    :class:`ProtocolError` on impossible lengths, so a garbage prefix
    fails fast instead of waiting for 2 GiB that will never come.

    Frames are read at a cursor; the consumed prefix is dropped once per
    ``feed()``, not once per frame.
    """

    __slots__ = ("_buffer", "_pos")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> None:
        if self._pos:
            del self._buffer[:self._pos]
            self._pos = 0
        self._buffer += data

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet consumed."""
        return len(self._buffer) - self._pos

    def _check_length(self, length: int) -> None:
        if length < 4 or length > MAX_MESSAGE_LENGTH:
            raise ProtocolError(f"impossible message length {length}")

    def next_startup(self) -> Any:
        """One startup-phase message, or None if incomplete."""
        pos = self._pos
        if len(self._buffer) - pos < 4:
            return None
        length = _INT32.unpack_from(self._buffer, pos)[0]
        self._check_length(length)
        end = pos + length
        if len(self._buffer) < end:
            return None
        self._pos = end
        return parse_startup(bytes(self._buffer[pos + 4:end]))

    def next_message(self) -> "tuple[bytes, bytes] | None":
        """One framed ``(tag, payload)``, or None if incomplete."""
        buffer, pos = self._buffer, self._pos
        if len(buffer) - pos < 5:
            return None
        tag, length = _FRAME_HEAD.unpack_from(buffer, pos)
        self._check_length(length)
        end = pos + 1 + length
        if len(buffer) < end:
            return None
        self._pos = end
        return tag, bytes(buffer[pos + 5:end])


# -- schema <-> RowDescription ------------------------------------------------

def describe_schema(schema: Schema) -> RowDescription:
    """The RowDescription for a result schema (text format, engine type
    OIDs — provenance columns describe like any other column)."""
    return RowDescription(tuple(
        FieldDescription(attr.name, OID_BY_TYPE[attr.type])
        for attr in schema))


def decode_row(row: DataRow, description: RowDescription) -> tuple:
    """Client-side: a DataRow back to Python values per the description."""
    if len(row.values) != len(description.fields):
        raise ProtocolError(
            f"DataRow carries {len(row.values)} value(s) for "
            f"{len(description.fields)} described column(s)")
    return tuple(decode_text(value, f.type_oid)
                 for value, f in zip(row.values, description.fields))


# -- the row fast path --------------------------------------------------------

def encode_data_row(row: "Sequence[object]") -> bytes:
    """One complete DataRow frame straight from a row of Python values:
    byte-identical to ``DataRow(tuple(map(encode_text, row))).encode()``
    without the message object or the payload writer."""
    parts = [b""]
    size = 6                        # the length field + the column count
    for value in row:
        if value is None:
            parts.append(_NULL_LENGTH)
            size += 4
            continue
        encoder = _TEXT_ENCODERS.get(type(value))
        data = encoder(value) if encoder is not None else encode_text(value)
        length = len(data)
        parts.append(_INT32.pack(length))
        parts.append(data)
        size += 4 + length
    parts[0] = _DATA_ROW_HEAD.pack(b"D", size, len(row))
    return b"".join(parts)


def compile_row_decoder(description: RowDescription
                        ) -> "Callable[[bytes], tuple[Any, ...]]":
    """A ``DataRow payload -> tuple of Python values`` function for one
    result: the converters are resolved here, once, so decoding a row is
    a single pass of ``unpack_from`` and converter calls.  It equals
    ``decode_row(parse_backend(b"D", payload), description)``, malformed
    payloads raising :class:`ProtocolError` alike."""
    converters = tuple(_converter_for(f.type_oid) for f in description.fields)
    length_at = _INT32.unpack_from

    def decode(payload: bytes) -> "tuple[Any, ...]":
        end = len(payload)
        if end < 2 or _INT16.unpack_from(payload)[0] != len(converters):
            raise ProtocolError(
                f"DataRow does not carry the {len(converters)} described "
                f"column(s)")
        values = []
        pos = 2
        try:
            for convert in converters:
                length = length_at(payload, pos)[0]
                pos += 4
                if length == -1:
                    values.append(None)
                    continue
                stop = pos + length
                if length < 0 or stop > end:
                    raise ProtocolError(
                        f"truncated message: value of {length} byte(s) at "
                        f"offset {pos} of {end}")
                values.append(convert(payload[pos:stop]))
                pos = stop
        except struct.error:
            raise ProtocolError(
                f"truncated message: no value length at offset {pos} of "
                f"{end}") from None
        except ValueError as exc:
            raise ProtocolError(f"invalid value in DataRow: {exc}") from None
        if pos != end:
            raise ProtocolError(f"{end - pos} trailing byte(s) in message")
        return tuple(values)

    return decode


# -- SQLSTATE mapping ---------------------------------------------------------

#: Library exception class -> SQLSTATE, most specific first (the first
#: isinstance match wins).
_SQLSTATE_FOR = (
    (AuthenticationError, "28P01"),
    (ConnectionLimitError, "53300"),
    (ServerShutdownError, "57P01"),
    (ProtocolError, "08P01"),
    (SQLSyntaxError, "42601"),
    (BindError, "07001"),
    (AnalyzerError, "42000"),
    (IntegrityError, "23505"),
    (CatalogError, "42P01"),
    (TransactionError, "40001"),
    (StorageError, "58030"),
    (NotSupportedError, "0A000"),
    (ExpressionError, "22000"),
    (DataError, "22000"),
    (ExecutionError, "XX000"),
    (ProgrammingError, "42601"),
    (InterfaceError, "08003"),
    (InternalError, "XX000"),
    (OperationalError, "58000"),
)


def sqlstate_for(exc: BaseException) -> str:
    """The SQLSTATE an error travels under (an explicit ``sqlstate``
    attribute on the exception wins over the class mapping)."""
    explicit = getattr(exc, "sqlstate", None)
    if explicit:
        return explicit
    for cls, code in _SQLSTATE_FOR:
        if isinstance(exc, cls):
            return code
    return "XX000"


#: Client side: exact SQLSTATE -> exception class.
_ERROR_FOR_SQLSTATE = {
    "28P01": AuthenticationError,
    "28000": AuthenticationError,
    "53300": ConnectionLimitError,
    "57P01": ServerShutdownError,
    "08P01": ProtocolError,
    "42601": SQLSyntaxError,
    "07001": BindError,
    "42000": AnalyzerError,
    "23505": IntegrityError,
    "42P01": CatalogError,
    "40001": TransactionError,
    "58030": StorageError,
    "0A000": NotSupportedError,
    "26000": OperationalError,      # invalid_sql_statement_name
    "34000": OperationalError,      # invalid_cursor_name
    "25P02": TransactionError,      # in_failed_sql_transaction
}

#: Class fallback by SQLSTATE class (first two characters).
_ERROR_FOR_CLASS = {
    "08": ProtocolError,
    "22": DataError,
    "23": IntegrityError,
    "25": TransactionError,
    "26": OperationalError,
    "28": AuthenticationError,
    "40": TransactionError,
    "42": ProgrammingError,
    "53": ConnectionLimitError,
    "57": ServerShutdownError,
    "0A": NotSupportedError,
}


def exception_for(sqlstate: str, message: str) -> Error:
    """Client-side: rebuild a library exception from an ErrorResponse."""
    cls = _ERROR_FOR_SQLSTATE.get(sqlstate)
    if cls is None:
        cls = _ERROR_FOR_CLASS.get(sqlstate[:2], DatabaseError)
    exc = cls(message)
    exc.sqlstate = sqlstate
    return exc
