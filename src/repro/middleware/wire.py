"""Sans-IO wire protocol: the frame codec socket transports speak.

This module is the byte half of the invocation path's sans-IO split.
The envelope layer (:mod:`repro.middleware.envelope`) holds a call as
one envelope; this module packs it and its result into length-prefixed
binary **frames** and parses frames back — a REQUEST into the plain
positional form ``Envelope.from_wire`` rebuilds, a REPLY into the
correlation id it answers and its outcome — and knows nothing about
sockets, threads, or who is on the other end.  IO owners
(:mod:`repro.middleware.sockets`) feed received bytes in and write
returned bytes out; a future asyncio transport drives the very same
state machine.

Frame layout (everything big-endian)::

    +----+----+------+------+--------------+=============+
    | 'R'| 'W'| ver  | kind |  length u32  |   payload   |
    +----+----+------+------+--------------+=============+
      magic (2)  1      1         4          `length` bytes

The two kinds every call pays for have a fixed layout, set once here
rather than described per frame.  A REQUEST carries only what its
server reads.  Its payload is one ``struct`` header — the correlation
id (u64), the flags byte (:data:`NESTED` its only bit), and the byte
lengths of label, object id and operation (u32, :data:`ABSENT` for
``None``) — followed by those three UTF-8 strings and one tagged value
``(args, kwargs, context)``.  The call's QoS, attempt, target and
binding stay with the caller, the only side that applies them.  A
REPLY answers every REQUEST and every CONTROL: the correlation id it
answers (u64; a CONTROL carries no id, so its REPLY answers 0) and an
outcome byte (0 result, 1 error), followed by one tagged value — the
result, or the error in :func:`~repro.middleware.bus.error_to_wire`'s
form with the sender's retry verdict.  A CONTROL payload is one tagged
value.  There is no handshake: a connection's first frame is its first
REQUEST or CONTROL, and the version byte every frame header carries is
the one version agreement — a frame of another version is refused
before its payload is read.

Each frame is built in one pass: its frame header and fixed header are
one ``struct`` pack, joined once with the header strings and the
payload.

The tagged codec is closed over exactly the bus's marshal contract
(``None``/``bool``/``int``/``float``/``str``/``bytes``, lists, tuples,
string-keyed dicts, :class:`~repro.middleware.bus.ObjectRefData`), so
"marshallable" and "frame-encodable" are the same predicate.  It
encodes by dispatching on a value's exact type (only subclasses walk
the ``isinstance`` cascade) and decodes by offset over one ``bytes``
object.  Garbage magic, unknown versions or kinds, oversized frames,
over-deep nesting (:data:`MAX_DEPTH`), short headers, strings running
past the payload, invalid UTF-8, truncated or trailing payload bytes
all raise :class:`~repro.errors.ProtocolError`; so does an id or count
too wide for its header field, or a header field that is neither a
string nor ``None``, at encode time, instead of wrapping.

:class:`FrameDecoder` is an incremental state machine: bytes arrive in
arbitrary splits (half a header, three frames and a tail, ...) and
complete frames come out.  Each connection end owns one; pairing a
REPLY with its call by correlation id is the IO owner's business.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.middleware.bus import ObjectRefData
from repro.middleware.envelope import Envelope

MAGIC = b"RW"
#: version 9 opened each connection with a handshake, an opening frame
#: (kind 1) answered by an accept frame (kind 2), both carrying only
#: the version every frame header already carries;
#: version 8's REQUEST header also held the attempt, the QoS retries,
#: a oneway flag bit (0x01), the timeout's kind and value, the target
#: and the binding, and its handshake frames named their nodes, all
#: unread by the peer;
#: version 7 answered a REQUEST with a RESPONSE (kind 4, a success only)
#: or an error frame (kind 6), and a CONTROL with an outcome-dict frame
#: (kind 8); version 6's REQUEST and RESPONSE headers also held a
#: message id that nothing read; version 5's CONTROL payloads were
#: per-verb dicts of named fields; version 4's RESPONSE header held the
#: lengths of an error type and message, always absent since errors
#: crossed in error frames; version 3 had no nested bit (its flags byte
#: held the oneway flag alone); version 2 sent REQUEST and RESPONSE
#: payloads as tagged dicts; version 1 also acked a oneway with kind 5
VERSION = 10

#: every decoder refuses frames larger than this (a garbage length
#: prefix must not make it buffer gigabytes before noticing)
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: refuse values nested deeper than this — a hostile frame packing one
#: container per ~5 bytes could otherwise blow the interpreter's
#: recursion limit and surface a raw RecursionError instead of the
#: ProtocolError that poisons the decoder and drops the connection
MAX_DEPTH = 100

_HEADER = struct.Struct(">2sBBI")

# -- frame kinds -------------------------------------------------------------

REQUEST = 3  #: one routed call: fixed header + the envelope's strings and call
#: the outcome of a REQUEST or a CONTROL: fixed header (the correlation
#: id it answers, the outcome byte) + the result or the error form
REPLY = 4
CONTROL = 7  #: one node-surface verb: {"verb", "args", "kwargs"}, empty ones omitted

_KINDS = frozenset((REQUEST, REPLY, CONTROL))


# ---------------------------------------------------------------------------
# value codec (the marshal contract, in binary)
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")
#: a tag byte and the u32 that follows it (a size or an item count)
_TAGGED = struct.Struct(">cI")

#: the contract's types a value is encoded as, each standing for its
#: subclasses too, in the order a subclass is classified
_CONTRACT_TYPES = (int, float, str, bytes, list, tuple, dict, ObjectRefData)
_EXACT_TYPES = frozenset(_CONTRACT_TYPES + (type(None), bool))


def _contract_type(value: Any) -> type:
    """The contract type a subclass instance encodes as."""
    for kind in _CONTRACT_TYPES:
        if isinstance(value, kind):
            return kind
    raise ProtocolError(
        f"value of type {type(value).__name__} is outside the wire contract"
    )


def encode_value(value: Any) -> bytes:
    """Encode one marshalled value into its binary payload form."""
    out = bytearray()
    _encode_into(value, out, 0)
    return bytes(out)


def _encode_into(value: Any, out: bytearray, depth: int) -> None:
    if depth > MAX_DEPTH:
        raise ProtocolError(
            f"wire value nests deeper than {MAX_DEPTH} levels"
        )
    kind = type(value)
    if kind not in _EXACT_TYPES:
        kind = _contract_type(value)
    if kind is str:
        data = value.encode("utf-8")
        out += _TAGGED.pack(b"s", len(data))
        out += data
    elif kind is dict:
        out += _TAGGED.pack(b"d", len(value))
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise ProtocolError(
                    f"wire dict keys must be strings, got {key!r}"
                )
            data = key.encode("utf-8")
            out += _U32.pack(len(data))
            out += data
            _encode_into(item, out, depth + 1)
    elif kind is list or kind is tuple:
        out += _TAGGED.pack(b"l" if kind is list else b"t", len(value))
        for item in value:
            _encode_into(item, out, depth + 1)
    elif kind is int:
        # decimal text keeps arbitrary-precision ints exact
        text = b"%d" % value
        out += _TAGGED.pack(b"i", len(text))
        out += text
    elif value is None:
        out += b"N"
    elif kind is bool:
        out += b"T" if value else b"F"
    elif kind is float:
        out += b"f"
        out += _F64.pack(value)
    elif kind is bytes:
        out += _TAGGED.pack(b"b", len(value))
        out += value
    else:  # ObjectRefData
        out += b"r"
        for text in (value.object_id, value.type_name):
            data = text.encode("utf-8")
            out += _U32.pack(len(data))
            out += data


def decode_value(payload: bytes) -> Any:
    """Decode one binary payload; trailing bytes are a protocol error."""
    if type(payload) is not bytes:
        payload = bytes(payload)
    try:
        value, offset = _decode_from(payload, 0, 0)
    except (IndexError, struct.error):
        raise ProtocolError("truncated wire value") from None
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing byte(s) after wire value"
        )
    return value


# tag bytes, as ``payload[offset]`` reads them
_N, _T, _F, _I, _FL, _S, _B, _L, _TU, _D, _R = b"NTFifsbltdr"


def _sized(payload: bytes, offset: int) -> Tuple[bytes, int]:
    """The u32-length-prefixed bytes at ``offset``, and the offset after."""
    start = offset + 4
    end = start + _U32.unpack_from(payload, offset)[0]
    if end > len(payload):
        raise ProtocolError("truncated wire value")
    return payload[start:end], end


def _decode_from(payload: bytes, offset: int, depth: int) -> Tuple[Any, int]:
    """One value at ``offset``.  A read past the end raises
    ``IndexError`` or ``struct.error``, which :func:`decode_value`
    reports as truncation."""
    if depth > MAX_DEPTH:
        raise ProtocolError(
            f"wire value nests deeper than {MAX_DEPTH} levels"
        )
    tag = payload[offset]
    offset += 1
    if tag == _S:
        data, offset = _sized(payload, offset)
        try:
            return data.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed string payload: {exc}") from None
    if tag == _D:
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        mapping: Dict[str, Any] = {}
        for _ in range(count):
            key_data, offset = _sized(payload, offset)
            try:
                key = key_data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"malformed dict key: {exc}") from None
            mapping[key], offset = _decode_from(payload, offset, depth + 1)
        return mapping, offset
    if tag == _L or tag == _TU:
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_from(payload, offset, depth + 1)
            items.append(item)
        return (items if tag == _L else tuple(items)), offset
    if tag == _I:
        text, offset = _sized(payload, offset)
        try:
            return int(text), offset
        except ValueError as exc:
            raise ProtocolError(f"malformed integer payload: {exc}") from None
    if tag == _N:
        return None, offset
    if tag == _T:
        return True, offset
    if tag == _F:
        return False, offset
    if tag == _FL:
        return _F64.unpack_from(payload, offset)[0], offset + 8
    if tag == _B:
        return _sized(payload, offset)
    if tag == _R:
        parts = []
        for _ in range(2):
            data, offset = _sized(payload, offset)
            try:
                parts.append(data.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"malformed reference: {exc}") from None
        return ObjectRefData(parts[0], parts[1]), offset
    raise ProtocolError(f"unknown wire value tag {bytes((tag,))!r}")


# ---------------------------------------------------------------------------
# frames: REQUEST and REPLY fixed headers, CONTROL
# ---------------------------------------------------------------------------

#: the header length of a string that is ``None`` (distinct from ``""``)
ABSENT = 0xFFFFFFFF

#: correlation id, flags, then the lengths of label, object id and
#: operation
_REQUEST_HEAD = struct.Struct(">QB3I")

#: REQUEST flag, the only one: sent by a thread running for a call
#: chain that holds a dispatch permit, so the peer must not make it
#: wait for one (version 8's oneway bit, 0x01, is refused like any
#: other)
NESTED = 0x02

#: the correlation id answered, and the outcome byte: 0 result, 1 error
_REPLY_HEAD = struct.Struct(">QB")

#: the frame header followed by a kind's fixed header: what one pack
#: writes when a REQUEST or REPLY frame is built
_REQUEST_FRAME = struct.Struct(_HEADER.format + _REQUEST_HEAD.format[1:])
_REPLY_FRAME = struct.Struct(_HEADER.format + _REPLY_HEAD.format[1:])

_MALFORMED_CALL = "a request's call is not (args list, kwargs dict, context dict)"


def request_frame(envelope: Envelope, nested: bool = False) -> bytes:
    """A REQUEST frame for ``envelope``; ``nested`` sets the bit that
    lets the peer run it without a dispatch permit.  It depends on no
    connection, so a sender builds it before choosing one.

    The fields are read off the envelope, which already carries the
    call in wire values."""
    args, kwargs, context = envelope.args, envelope.kwargs, envelope.context
    if not (
        isinstance(args, list) and isinstance(kwargs, dict) and isinstance(context, dict)
    ):
        raise ProtocolError(_MALFORMED_CALL)
    # parts[0] becomes the frame and fixed header once the size is known
    parts = [b""]
    lengths = []
    size = _REQUEST_HEAD.size
    for text in (envelope.label, envelope.object_id, envelope.operation):
        if text is None:
            lengths.append(ABSENT)
            continue
        if type(text) is not str and not isinstance(text, str):
            raise ProtocolError(f"header field {text!r} is neither a string nor None")
        body = text.encode("utf-8")
        lengths.append(len(body))
        size += len(body)
        parts.append(body)
    payload = encode_value((args, kwargs, context))
    parts.append(payload)
    try:
        parts[0] = _REQUEST_FRAME.pack(
            MAGIC, VERSION, REQUEST, size + len(payload),
            envelope.correlation_id, NESTED if nested else 0, *lengths,
        )
    except struct.error as exc:
        raise ProtocolError(f"request header field out of range: {exc}") from None
    return b"".join(parts)


def response_frame(correlation_id: int, value: Any, error: bool = False) -> bytes:
    """The REPLY frame answering the REQUEST with this correlation id,
    or a CONTROL (id 0): ``value`` is its result, or with ``error`` the
    :func:`~repro.middleware.bus.error_to_wire` form of what it raised.
    A value outside the wire contract raises
    :class:`~repro.errors.ProtocolError`."""
    payload = encode_value(value)
    try:
        head = _REPLY_FRAME.pack(
            MAGIC, VERSION, REPLY, _REPLY_HEAD.size + len(payload),
            correlation_id, 1 if error else 0,
        )
    except struct.error as exc:
        raise ProtocolError(f"reply header field out of range: {exc}") from None
    return head + payload


def control_frame(payload: Any) -> bytes:
    """A CONTROL frame carrying ``payload``, one node-surface verb, as
    its one tagged value."""
    body = encode_value(payload)
    return _HEADER.pack(MAGIC, VERSION, CONTROL, len(body)) + body


def _decode_request(payload: bytes) -> Tuple[bool, tuple]:
    """A REQUEST payload as ``(nested, the positional form
    Envelope.from_wire rebuilds)``."""
    if len(payload) < _REQUEST_HEAD.size:
        raise ProtocolError(
            f"request header needs {_REQUEST_HEAD.size} bytes, got {len(payload)}"
        )
    correlation_id, flags, *lengths = _REQUEST_HEAD.unpack_from(payload)
    if flags & ~NESTED:
        raise ProtocolError(f"unknown request flag bits {flags:#04x}")
    offset = _REQUEST_HEAD.size
    texts: List[Optional[str]] = []
    for length in lengths:
        if length == ABSENT:
            texts.append(None)
            continue
        end = offset + length
        if end > len(payload):
            raise ProtocolError("header string runs past the end of the payload")
        try:
            texts.append(payload[offset:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"malformed header string: {exc}") from None
        offset = end
    call = decode_value(payload[offset:])
    if not (
        type(call) is tuple
        and len(call) == 3
        and type(call[0]) is list
        and type(call[1]) is dict
        and type(call[2]) is dict
    ):
        raise ProtocolError(_MALFORMED_CALL)
    return flags == NESTED, (correlation_id, *texts, call)


def _decode_reply(payload: bytes) -> Tuple[int, bool, Any]:
    """A REPLY payload as ``(correlation id, error, value)``."""
    if len(payload) < _REPLY_HEAD.size:
        raise ProtocolError(
            f"reply header needs {_REPLY_HEAD.size} bytes, got {len(payload)}"
        )
    correlation_id, outcome = _REPLY_HEAD.unpack_from(payload)
    if outcome > 1:
        raise ProtocolError(f"unknown reply outcome {outcome}")
    return correlation_id, outcome == 1, decode_value(payload[_REPLY_HEAD.size:])


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


class FrameDecoder:
    """Incremental frame parser: feed bytes in, complete frames out.

    Pure state machine — it owns a buffer and nothing else.  Bytes may
    arrive in any split (mid-header, several frames at once, a frame
    spread over many reads); :meth:`frames` yields every frame that has
    fully arrived and keeps the remainder buffered.  A REQUEST frame
    comes out as ``(nested bit, Envelope.from_wire form)``, a REPLY
    frame as ``(correlation id, error, value)``, a CONTROL frame as its
    decoded tagged value.  A protocol violation (bad magic, unknown
    version/kind, a length over :data:`DEFAULT_MAX_FRAME`, an
    undecodable payload) raises :class:`~repro.errors.ProtocolError`
    and poisons the decoder — the connection that fed it is beyond
    resynchronization and must be dropped by its owner.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> None:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned by an earlier violation")
        self._buffer.extend(data)

    def pending(self) -> int:
        """Buffered bytes not yet consumed by a complete frame."""
        return len(self._buffer)

    def frames(self) -> Iterator[Tuple[int, Any]]:
        """Yield every ``(kind, payload)`` fully buffered so far."""
        while True:
            frame = self._next_frame()
            if frame is None:
                return
            yield frame

    def _next_frame(self) -> Optional[Tuple[int, Any]]:
        if self._poisoned:
            raise ProtocolError("decoder is poisoned by an earlier violation")
        if len(self._buffer) < _HEADER.size:
            return None
        magic, version, kind, length = _HEADER.unpack_from(self._buffer)
        try:
            if magic != MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(magic)!r} (expected {MAGIC!r})"
                )
            if version != VERSION:
                raise ProtocolError(
                    f"unsupported wire version {version} (speaking {VERSION})"
                )
            if kind not in _KINDS:
                raise ProtocolError(f"unknown frame kind {kind}")
            if length > DEFAULT_MAX_FRAME:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{DEFAULT_MAX_FRAME}-byte limit"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return None
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            if kind == REQUEST:
                return kind, _decode_request(payload)
            if kind == REPLY:
                return kind, _decode_reply(payload)
            return kind, decode_value(payload)
        except ProtocolError:
            self._poisoned = True
            raise
