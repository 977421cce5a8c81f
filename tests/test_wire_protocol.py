"""Property-based tests of the wire codec (hypothesis).

Mirrors ``test_storage_codec.py`` for the network layer:

1. Round trips: every frontend, backend and startup-phase message type
   — with randomized names, SQL text, parameter values (NULLs, unicode,
   binary payloads) — must survive ``encode()`` → frame split →
   ``parse_*()`` field-exactly.
2. Truncation: every strict prefix of every non-empty message payload
   raises a clean :class:`~repro.errors.ProtocolError` — never an
   ``IndexError``, ``struct.error`` or ``UnicodeDecodeError``.
3. Garbage: arbitrary bytes under any tag either parse or raise
   :class:`~repro.errors.ProtocolError`; nothing else escapes.
4. Framing: a packet carrying many messages, split across arbitrary
   TCP-read boundaries, reassembles into exactly the original message
   sequence; impossible frame lengths fail fast.
5. The row fast path: the fused DataRow encoder is byte-identical to the
   message-class encoder, the compiled row decoder equals the
   message-class decoder, and malformed DataRow payloads raise
   :class:`~repro.errors.ProtocolError` from it as from the classes.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AuthenticationError, BindError, CatalogError, ConnectionLimitError,
    IntegrityError, NotSupportedError, ProtocolError, ReproError,
    SQLSyntaxError, ServerShutdownError, TransactionError,
)
from repro.server import protocol

# -- strategies ---------------------------------------------------------------

#: text legal inside a cstring: no NUL, no surrogates.
_CTEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\x00"),
    max_size=20)
_NAME = _CTEXT
_KEY = _CTEXT.filter(bool)          # startup parameter keys are non-empty
_VALUE = st.one_of(st.none(), st.binary(max_size=24))
_VALUES = st.lists(_VALUE, max_size=5).map(tuple)
_OID = st.integers(min_value=0, max_value=2 ** 31 - 1)
_OIDS = st.lists(_OID, max_size=5).map(tuple)
_INT32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
_FORMATS = st.lists(st.sampled_from((0, 1)), max_size=4).map(tuple)
_KIND = st.sampled_from(("S", "P"))

_FIELD_DESCRIPTIONS = st.builds(
    protocol.FieldDescription,
    name=_NAME, type_oid=_OID,
    table_oid=_OID, column=st.integers(0, 1000),
    type_size=st.integers(-1, 1000), type_modifier=st.integers(-1, 1000),
    format_code=st.sampled_from((0, 1)))

#: printable single-char error-field keys (0x01..0xff, ascii letters).
_ERROR_FIELDS = st.lists(
    st.tuples(st.sampled_from("SVCMDHPW"), _CTEXT), max_size=4).map(tuple)

FRONTEND = st.one_of(
    st.builds(protocol.Password, _CTEXT),
    st.builds(protocol.Query, _CTEXT),
    st.builds(protocol.Parse, _NAME, _CTEXT, _OIDS),
    st.builds(protocol.Bind, _NAME, _NAME, _FORMATS, _VALUES, _FORMATS),
    st.builds(protocol.Describe, _KIND, _NAME),
    st.builds(protocol.Execute, _NAME, st.integers(0, 2 ** 31 - 1)),
    st.builds(protocol.CloseMsg, _KIND, _NAME),
    st.builds(protocol.Flush),
    st.builds(protocol.Sync),
    st.builds(protocol.Terminate),
)

BACKEND = st.one_of(
    st.builds(protocol.Authentication,
              st.sampled_from((protocol.AUTH_OK,
                               protocol.AUTH_CLEARTEXT_PASSWORD))),
    st.builds(protocol.ParameterStatus, _CTEXT, _CTEXT),
    st.builds(protocol.BackendKeyData, _INT32, _INT32),
    st.builds(protocol.ReadyForQuery, st.sampled_from(("I", "T", "E"))),
    st.lists(_FIELD_DESCRIPTIONS, max_size=5).map(
        lambda fields: protocol.RowDescription(tuple(fields))),
    st.builds(protocol.DataRow, _VALUES),
    st.builds(protocol.CommandComplete, _CTEXT),
    st.builds(protocol.EmptyQueryResponse),
    st.builds(protocol.ParseComplete),
    st.builds(protocol.BindComplete),
    st.builds(protocol.CloseComplete),
    st.builds(protocol.NoData),
    st.builds(protocol.PortalSuspended),
    st.builds(protocol.ParameterDescription, _OIDS),
    st.builds(protocol.ErrorResponse, _ERROR_FIELDS),
    st.builds(protocol.NoticeResponse, _ERROR_FIELDS),
)

STARTUP = st.one_of(
    st.lists(st.tuples(_KEY, _CTEXT), max_size=4).map(
        lambda pairs: protocol.Startup(tuple(pairs))),
    st.builds(protocol.SSLRequest),
    st.builds(protocol.GSSEncRequest),
    st.builds(protocol.CancelRequest, _INT32, _INT32),
)


def _split_frame(encoded: bytes) -> tuple[bytes, bytes]:
    """tag + payload of one encoded tagged message, with the length
    field checked against the actual frame size."""
    tag, length = encoded[:1], int.from_bytes(encoded[1:5], "big")
    assert length == len(encoded) - 1
    return tag, encoded[5:]


# -- round trips --------------------------------------------------------------

class TestRoundTrips:
    @settings(max_examples=120, deadline=None)
    @given(FRONTEND)
    def test_frontend(self, message):
        tag, payload = _split_frame(message.encode())
        assert protocol.parse_frontend(tag, payload) == message

    @settings(max_examples=120, deadline=None)
    @given(BACKEND)
    def test_backend(self, message):
        tag, payload = _split_frame(message.encode())
        assert protocol.parse_backend(tag, payload) == message

    @settings(max_examples=80, deadline=None)
    @given(STARTUP)
    def test_startup(self, message):
        encoded = message.encode()
        length = int.from_bytes(encoded[:4], "big")
        assert length == len(encoded)
        assert protocol.parse_startup(encoded[4:]) == message

    def test_error_response_accessors(self):
        error = protocol.ErrorResponse.make("boom", sqlstate="42601")
        tag, payload = _split_frame(error.encode())
        parsed = protocol.parse_backend(tag, payload)
        assert parsed.message == "boom"
        assert parsed.sqlstate == "42601"
        assert parsed.severity == "ERROR"
        notice = protocol.NoticeResponse.make("heads up")
        assert notice.TAG == b"N"
        assert notice.severity == "NOTICE"

    def test_every_message_type_is_covered(self):
        """The strategies above must include every registered parser, so
        a new message type cannot silently skip fuzzing."""
        frontend_tags = {m.encode()[:1] for m in (
            protocol.Password("x"), protocol.Query("q"),
            protocol.Parse("", "q"), protocol.Bind("", ""),
            protocol.Describe("S", ""), protocol.Execute(""),
            protocol.CloseMsg("S", ""), protocol.Flush(),
            protocol.Sync(), protocol.Terminate())}
        assert frontend_tags == set(protocol._FRONTEND_PARSERS)
        backend_tags = {m.encode()[:1] for m in (
            protocol.Authentication(0), protocol.ParameterStatus("a", "b"),
            protocol.BackendKeyData(1, 2), protocol.ReadyForQuery("I"),
            protocol.RowDescription(()), protocol.DataRow(()),
            protocol.CommandComplete("t"), protocol.EmptyQueryResponse(),
            protocol.ErrorResponse.make("e"),
            protocol.NoticeResponse.make("n"), protocol.ParseComplete(),
            protocol.BindComplete(), protocol.CloseComplete(),
            protocol.NoData(), protocol.PortalSuspended(),
            protocol.ParameterDescription(()))}
        assert backend_tags == set(protocol._BACKEND_PARSERS)


# -- truncation ---------------------------------------------------------------

class TestTruncation:
    @settings(max_examples=60, deadline=None)
    @given(FRONTEND)
    def test_frontend_prefixes_raise(self, message):
        tag, payload = _split_frame(message.encode())
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                protocol.parse_frontend(tag, payload[:cut])

    @settings(max_examples=60, deadline=None)
    @given(BACKEND)
    def test_backend_prefixes_raise(self, message):
        tag, payload = _split_frame(message.encode())
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                protocol.parse_backend(tag, payload[:cut])

    @settings(max_examples=40, deadline=None)
    @given(STARTUP)
    def test_startup_prefixes_raise(self, message):
        payload = message.encode()[4:]
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                protocol.parse_startup(payload[:cut])

    def test_trailing_garbage_rejected(self):
        """A payload with bytes after the message body is a framing
        error, not silently ignored."""
        _, payload = _split_frame(protocol.Execute("p", 5).encode())
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.parse_frontend(b"E", payload + b"xx")
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.parse_startup(
                protocol.SSLRequest().encode()[4:] + b"\x00")


# -- garbage ------------------------------------------------------------------

_ALL_TAGS = sorted(set(protocol._FRONTEND_PARSERS)
                   | set(protocol._BACKEND_PARSERS) | {b"?", b"\x00"})


class TestGarbage:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(_ALL_TAGS), st.binary(max_size=64))
    def test_only_protocol_error_escapes(self, tag, payload):
        """Arbitrary bytes under any tag: parse or ProtocolError —
        never IndexError / struct.error / UnicodeDecodeError."""
        for parse in (protocol.parse_frontend, protocol.parse_backend):
            try:
                parse(tag, payload)
            except ProtocolError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_startup_garbage(self, payload):
        try:
            protocol.parse_startup(payload)
        except ProtocolError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=32))
    def test_text_decode_never_crashes(self, data):
        for oid in (0, protocol.OID_INT8, protocol.OID_FLOAT8,
                    protocol.OID_TEXT, protocol.OID_BOOL,
                    protocol.OID_UNKNOWN):
            try:
                protocol.decode_text(data, oid)
            except ProtocolError:
                pass


# -- the row fast path --------------------------------------------------------

#: one (value, column OID) pair per column: NULLs, bools, big integers,
#: every float class, empty and non-BMP strings
_TYPED_VALUE = st.one_of(
    st.tuples(st.none(), st.sampled_from(
        (protocol.OID_INT8, protocol.OID_TEXT, protocol.OID_UNKNOWN))),
    st.tuples(st.booleans(), st.just(protocol.OID_BOOL)),
    st.tuples(st.integers(-2 ** 70, 2 ** 70), st.just(protocol.OID_INT8)),
    st.tuples(st.floats(allow_nan=True, allow_infinity=True)
              | st.sampled_from((-0.0, math.inf, -math.inf, math.nan)),
              st.just(protocol.OID_FLOAT8)),
    st.tuples(st.text(st.characters(blacklist_categories=("Cs",)),
                      max_size=12) | st.sampled_from(("", "\U0001f600")),
              st.just(protocol.OID_TEXT)),
)
_TYPED_ROW = st.lists(_TYPED_VALUE, max_size=6)


def _describe(oids) -> protocol.RowDescription:
    return protocol.RowDescription(tuple(
        protocol.FieldDescription(f"c{i}", oid)
        for i, oid in enumerate(oids)))


def _same(left, right) -> bool:
    """Row equality telling -0.0 from 0.0 and NaN equal to itself."""
    return repr(left) == repr(right)


class TestRowFastPath:
    @settings(max_examples=200, deadline=None)
    @given(_TYPED_ROW)
    def test_equivalent_to_the_message_classes(self, typed):
        row = tuple(value for value, _ in typed)
        description = _describe(oid for _, oid in typed)
        frame = protocol.encode_data_row(row)
        assert frame == protocol.DataRow(tuple(
            protocol.encode_text(v) for v in row)).encode()
        tag, payload = _split_frame(frame)
        decoded = protocol.compile_row_decoder(description)(payload)
        assert _same(decoded, protocol.decode_row(
            protocol.parse_backend(tag, payload), description))
        assert _same(decoded, row)

    @pytest.mark.parametrize("value,text", [
        (math.inf, b"Infinity"), (-math.inf, b"-Infinity"),
        (math.nan, b"NaN"), (-0.0, b"-0.0"), (1e300, b"1e+300")])
    def test_floats_travel_in_postgres_spelling(self, value, text):
        assert protocol.encode_text(value) == text
        assert protocol.encode_data_row((value,)).endswith(text)
        assert _same(protocol.decode_text(text, protocol.OID_FLOAT8), value)

    @pytest.mark.parametrize("text", [b"inf", b"-inf", b"nan", b"Infinity",
                                      b"-Infinity", b"NaN", b"infinity"])
    def test_either_float_spelling_decodes(self, text):
        for oid in (protocol.OID_FLOAT8, protocol.OID_UNKNOWN):
            assert not math.isfinite(protocol.decode_text(text, oid))

    @settings(max_examples=60, deadline=None)
    @given(_TYPED_ROW.filter(bool))
    def test_prefixes_raise(self, typed):
        decode = protocol.compile_row_decoder(
            _describe(oid for _, oid in typed))
        _, payload = _split_frame(protocol.encode_data_row(
            tuple(value for value, _ in typed)))
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                decode(payload[:cut])
        with pytest.raises(ProtocolError, match="trailing"):
            decode(payload + b"x")

    def test_malformed_rows_raise_protocol_error(self):
        decode = protocol.compile_row_decoder(
            _describe((protocol.OID_INT8, protocol.OID_TEXT)))
        _, good = _split_frame(protocol.encode_data_row((1, "a")))
        assert decode(good) == (1, "a")
        malformed = {
            "wrong column count": _split_frame(
                protocol.encode_data_row((1, "a", 2)))[1],
            "oversized length": good[:2] + struct.pack(">i", 2 ** 31 - 1)
            + good[6:],
            "negative length": good[:2] + struct.pack(">i", -2) + good[6:],
            "invalid utf-8": _split_frame(protocol.DataRow(
                (b"1", b"\xff\xfe")).encode())[1],
            "invalid integer": _split_frame(protocol.DataRow(
                (b"one", b"a")).encode())[1],
        }
        for payload in malformed.values():
            with pytest.raises(ProtocolError):
                decode(payload)
            with pytest.raises(ProtocolError):
                protocol.decode_row(
                    protocol.parse_backend(b"D", payload),
                    _describe((protocol.OID_INT8, protocol.OID_TEXT)))


# -- framing ------------------------------------------------------------------

class TestMessageStream:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(FRONTEND, min_size=1, max_size=6),
           st.data())
    def test_split_across_reads(self, messages, data):
        """A multi-message packet fed in arbitrary-size chunks (as TCP
        may deliver it) reassembles into the original sequence."""
        packet = b"".join(m.encode() for m in messages)
        stream = protocol.MessageStream()
        received = []
        position = 0
        while position < len(packet):
            size = data.draw(st.integers(1, len(packet) - position),
                             label="chunk")
            stream.feed(packet[position:position + size])
            position += size
            while (framed := stream.next_message()) is not None:
                received.append(protocol.parse_frontend(*framed))
        assert received == messages
        assert stream.pending == 0

    def test_startup_then_messages_one_packet(self):
        """The handshake and the first commands may arrive in a single
        read; the stream switches framing modes mid-buffer."""
        packet = (protocol.Startup((("user", "u"),)).encode()
                  + protocol.Query("SELECT 1").encode()
                  + protocol.Terminate().encode())
        stream = protocol.MessageStream()
        stream.feed(packet)
        assert stream.next_startup() == protocol.Startup((("user", "u"),))
        assert protocol.parse_frontend(*stream.next_message()) == \
            protocol.Query("SELECT 1")
        assert protocol.parse_frontend(*stream.next_message()) == \
            protocol.Terminate()
        assert stream.next_message() is None

    def test_incomplete_returns_none(self):
        encoded = protocol.Query("SELECT 1").encode()
        stream = protocol.MessageStream()
        for byte in encoded[:-1]:
            stream.feed(bytes([byte]))
            assert stream.next_message() is None
        stream.feed(encoded[-1:])
        assert stream.next_message() is not None

    @pytest.mark.parametrize("length", [-1, 0, 3,
                                        protocol.MAX_MESSAGE_LENGTH + 1])
    def test_impossible_lengths_fail_fast(self, length):
        stream = protocol.MessageStream()
        stream.feed(b"Q" + length.to_bytes(4, "big", signed=True))
        with pytest.raises(ProtocolError):
            stream.next_message()
        startup = protocol.MessageStream()
        startup.feed(length.to_bytes(4, "big", signed=True))
        with pytest.raises(ProtocolError):
            startup.next_startup()


# -- SQLSTATE mapping ---------------------------------------------------------

class TestSqlstateMapping:
    @pytest.mark.parametrize("exc_type,code", [
        (AuthenticationError, "28P01"),
        (ConnectionLimitError, "53300"),
        (ServerShutdownError, "57P01"),
        (ProtocolError, "08P01"),
        (SQLSyntaxError, "42601"),
        (BindError, "07001"),
        (IntegrityError, "23505"),
        (CatalogError, "42P01"),
        (TransactionError, "40001"),
        (NotSupportedError, "0A000"),
    ])
    def test_exception_to_code(self, exc_type, code):
        assert protocol.sqlstate_for(exc_type("x")) == code

    def test_explicit_sqlstate_attribute_wins(self):
        exc = TransactionError("aborted")
        exc.sqlstate = "25P02"
        assert protocol.sqlstate_for(exc) == "25P02"

    def test_code_to_exception_round_trip(self):
        for exc_type in (SQLSyntaxError, CatalogError, TransactionError,
                         AuthenticationError, ConnectionLimitError):
            code = protocol.sqlstate_for(exc_type("x"))
            revived = protocol.exception_for(code, "remote message")
            assert isinstance(revived, exc_type)
            assert revived.sqlstate == code
            assert "remote message" in str(revived)

    def test_unknown_code_maps_by_class_then_generic(self):
        assert isinstance(protocol.exception_for("42P99", "m"),
                          ReproError)
        fallback = protocol.exception_for("ZZ999", "m")
        assert isinstance(fallback, ReproError)
        assert fallback.sqlstate == "ZZ999"
