"""Sans-IO wire protocol: codec round trips, adversarial byte streams.

The frame codec is the trust boundary of the socket transport — every
test here drives it purely through bytes, no sockets anywhere.  Three
angles:

* round trips: every marshal-contract value survives encode/decode
  bit-exactly (property-style sweep over generated payloads);
* adversarial framing: split reads, interleaved frames, garbage magic,
  unknown versions/kinds, oversized lengths, truncated and trailing
  payloads all surface :class:`~repro.errors.ProtocolError` without
  crashing the decoder's owner;
* conversation rules: handshake ordering, an error reply carrying the
  sender-side retry classification across.
"""

import enum
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    MarshallingError,
    MiddlewareError,
    NodeDownError,
    OclSyntaxError,
    PreconditionViolation,
    ProtocolError,
    AccessDeniedError,
    TransactionAborted,
    ValidationError,
)
from repro.middleware.bus import (
    ObjectRefData,
    marshal,
    wire_size,
    # an error REPLY carries its error in the one error codec's form
    error_from_wire as decode_fault,
    error_to_wire as encode_fault,
)
from repro.middleware.envelope import Envelope, QoS
from repro.middleware.wire import (
    HELLO,
    MAX_DEPTH,
    REPLY,
    REQUEST,
    VERSION,
    FrameDecoder,
    WireSession,
    decode_value,
    encode_frame,
    encode_value,
    request_frame,
    response_frame,
)


# ---------------------------------------------------------------------------
# value codec round trips
# ---------------------------------------------------------------------------


SCALARS = [
    None,
    True,
    False,
    0,
    -1,
    2**80,  # arbitrary precision survives
    -(2**80),
    3.5,
    -0.0,
    1e300,
    "",
    "text",
    "unicode é中﻿",
    b"",
    b"\x00\xffbinary",
    ObjectRefData("obj-1", "Account"),
]


@pytest.mark.parametrize("value", SCALARS, ids=repr)
def test_scalar_round_trip(value):
    decoded = decode_value(encode_value(value))
    assert decoded == value
    assert type(decoded) is type(value)


def test_container_round_trip():
    value = {
        "list": [1, "two", None, [3.0, False]],
        "tuple": (1, (2, b"x")),
        "ref": ObjectRefData("obj-9", "Bank"),
        "nested": {"deep": {"deeper": [ObjectRefData("o", "T")]}},
        "empty": {},
    }
    decoded = decode_value(encode_value(value))
    assert decoded == value
    # tuples stay tuples, lists stay lists — the distinction is encoded
    assert isinstance(decoded["tuple"], tuple)
    assert isinstance(decoded["list"], list)


def _random_value(rng, depth=0):
    """One random marshal-contract value (the property-test generator)."""
    choices = ["none", "bool", "int", "float", "str", "bytes", "ref"]
    if depth < 3:
        choices += ["list", "tuple", "dict"] * 2
    kind = rng.choice(choices)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.randint(-(2**70), 2**70)
    if kind == "float":
        return rng.uniform(-1e12, 1e12)
    if kind == "str":
        return "".join(
            rng.choice("abé中 xyz0") for _ in range(rng.randint(0, 12))
        )
    if kind == "bytes":
        return bytes(rng.randint(0, 255) for _ in range(rng.randint(0, 16)))
    if kind == "ref":
        return ObjectRefData(f"obj-{rng.randint(0, 99)}", "T")
    if kind in ("list", "tuple"):
        items = [_random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if kind == "tuple" else items
    return {
        f"k{i}": _random_value(rng, depth + 1) for i in range(rng.randint(0, 4))
    }


def test_property_round_trip_over_marshalled_payloads():
    """Whatever marshal admits, the codec round-trips bit-exactly."""
    rng = random.Random(20260808)
    for _ in range(200):
        value = _random_value(rng)
        marshalled = marshal(value)  # the same contract, asserted
        assert decode_value(encode_value(marshalled)) == marshalled


# ---------------------------------------------------------------------------
# the bus's byte statistic
# ---------------------------------------------------------------------------


def _reference_wire_size(value) -> int:
    """The ``isinstance`` cascade ``wire_size`` was before it dispatched
    on exact types first: the sizes it must keep giving."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 2 + sum(_reference_wire_size(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(len(k) + _reference_wire_size(v) for k, v in value.items())
    if isinstance(value, ObjectRefData):
        return len(value.object_id) + len(value.type_name)
    return 8


class _Int(int):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


def _subclassed(value, rng):
    """``value`` with some of its ints, strs, lists and dicts (keys
    included) replaced by equal instances of subclasses."""
    swap = rng.random() < 0.5
    if type(value) is int and swap:
        return _Int(value)
    if type(value) is str and swap:
        return _Str(value)
    if type(value) in (list, tuple):
        items = [_subclassed(item, rng) for item in value]
        if type(value) is tuple:
            return tuple(items)
        return _List(items) if swap else items
    if type(value) is dict:
        items = {
            _subclassed(key, rng): _subclassed(item, rng) for key, item in value.items()
        }
        return _Dict(items) if swap else items
    return value


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=300, deadline=None)
def test_wire_size_matches_the_isinstance_cascade(rng, subclass):
    value = _random_value(rng)
    if subclass:
        value = _subclassed(value, rng)
    assert wire_size(value) == _reference_wire_size(value)
    marshalled = marshal(value)  # what the bus actually sizes
    assert wire_size(marshalled) == _reference_wire_size(marshalled)


def test_wire_size_of_every_scalar_and_subclass():
    extra = [_Int(7), _Str("sub é"), _List([1, "x"]), _Dict(k=[b"ab"]), (1, ()), 1 + 2j]
    for value in SCALARS + extra:
        assert wire_size(value) == _reference_wire_size(value), value


def test_non_string_dict_keys_are_rejected():
    with pytest.raises(ProtocolError, match="keys must be strings"):
        encode_value({1: "x"})


def test_out_of_contract_value_is_rejected():
    with pytest.raises(ProtocolError, match="outside the wire contract"):
        encode_value(object())


# ---------------------------------------------------------------------------
# marshal error reporting (the path to the offending nested value)
# ---------------------------------------------------------------------------


def test_marshal_error_names_the_nested_path():
    class Opaque:
        pass

    with pytest.raises(MarshallingError) as excinfo:
        marshal({"outer": [1, {"inner": Opaque()}]}, root="args")
    message = str(excinfo.value)
    assert "args['outer'][1]['inner']" in message
    assert "Opaque" in message


def test_marshal_accepts_bytes():
    assert marshal({"blob": b"\x00\x01"}) == {"blob": b"\x00\x01"}


# ---------------------------------------------------------------------------
# adversarial framing
# ---------------------------------------------------------------------------


def _request_frame(**overrides):
    envelope = Envelope(
        "obj-1", "deposit", [100], {}, {"user": "alice"}, QoS(retries=2), target="node-0"
    )
    return request_frame(envelope)


def test_frames_survive_arbitrary_splits():
    """Bytes fed one at a time (the worst split) still yield the frame."""
    frame = _request_frame()
    decoder = FrameDecoder()
    collected = []
    for i in range(len(frame)):
        decoder.feed(frame[i:i + 1])
        collected.extend(decoder.frames())
    assert len(collected) == 1
    kind, (nested, payload) = collected[0]
    assert kind == REQUEST and nested is False
    assert Envelope.from_wire(payload).operation == "deposit"
    assert decoder.pending() == 0


def test_interleaved_frames_in_one_read():
    """Three frames and a tail of a fourth in a single feed."""
    frames = [
        encode_frame(HELLO, {"version": VERSION, "node": "a"}),
        _request_frame(),
        response_frame(7, None),
    ]
    partial = _request_frame()
    decoder = FrameDecoder()
    decoder.feed(b"".join(frames) + partial[: len(partial) // 2])
    kinds = [kind for kind, _payload in decoder.frames()]
    assert kinds == [HELLO, REQUEST, REPLY]
    assert decoder.pending() > 0  # the tail stays buffered
    decoder.feed(partial[len(partial) // 2:])
    assert [kind for kind, _ in decoder.frames()] == [REQUEST]


def test_garbage_magic_is_a_protocol_error():
    decoder = FrameDecoder()
    decoder.feed(b"GET / HTTP/1.1\r\n\r\n")
    with pytest.raises(ProtocolError, match="bad frame magic"):
        list(decoder.frames())


def test_unknown_version_is_refused():
    frame = bytearray(_request_frame())
    frame[2] = 99  # version byte
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="unsupported wire version"):
        list(decoder.frames())


def test_unknown_kind_is_refused():
    # 5: version 1's oneway receipt; 6 and 8: version 7's error frame
    # and control reply, each folded into REPLY
    for kind in (42, 5, 6, 8):
        frame = bytearray(_request_frame())
        frame[3] = kind  # kind byte
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            list(decoder.frames())


def test_oversized_frame_is_rejected_from_the_header_alone():
    """A huge length prefix is refused before any payload is buffered."""
    header = encode_frame(HELLO, {})[:4] + (2**31).to_bytes(4, "big")
    decoder = FrameDecoder(max_frame=1024)
    decoder.feed(header)
    with pytest.raises(ProtocolError, match="exceeds the 1024-byte limit"):
        list(decoder.frames())


def test_truncated_payload_is_a_protocol_error():
    frame = bytearray(_request_frame())
    # shrink the declared length so the payload decodes short
    real_length = int.from_bytes(frame[4:8], "big")
    frame[4:8] = (real_length - 3).to_bytes(4, "big")
    decoder = FrameDecoder()
    decoder.feed(bytes(frame[: len(frame) - 3]))
    with pytest.raises(ProtocolError):
        list(decoder.frames())


def test_poisoned_decoder_stays_poisoned():
    decoder = FrameDecoder()
    decoder.feed(b"XXXXXXXXXX")
    with pytest.raises(ProtocolError):
        list(decoder.frames())
    with pytest.raises(ProtocolError, match="poisoned"):
        decoder.feed(b"more")


def test_nesting_at_the_depth_limit_round_trips():
    value = "leaf"
    for _ in range(MAX_DEPTH):
        value = [value]
    assert decode_value(encode_value(value)) == value


def test_encoder_refuses_over_deep_nesting():
    value = "leaf"
    for _ in range(MAX_DEPTH + 1):
        value = [value]
    with pytest.raises(ProtocolError, match="nests deeper"):
        encode_value(value)


def test_hostile_deep_frame_is_a_protocol_error_not_recursion():
    """A ~1MB frame nesting one list per 5 bytes must poison the decoder
    with ProtocolError — never escape as RecursionError and kill the
    serving connection thread."""
    payload = (b"l" + (1).to_bytes(4, "big")) * 200_000 + b"N"
    header = encode_frame(HELLO, {})[:4] + len(payload).to_bytes(4, "big")
    decoder = FrameDecoder()
    decoder.feed(header + payload)
    with pytest.raises(ProtocolError, match="nests deeper"):
        list(decoder.frames())
    with pytest.raises(ProtocolError, match="poisoned"):
        decoder.feed(b"more")


# ---------------------------------------------------------------------------
# session handshake rules
# ---------------------------------------------------------------------------


def test_handshake_agrees_and_exchanges_node_names():
    client = WireSession("client", node="frontend")
    server = WireSession("server", node="worker-1")
    server.feed(client.greeting())
    assert server.handshaken and server.peer == "frontend"
    client.feed(server.take_outbound())
    assert client.handshaken and client.peer == "worker-1"


def test_conversation_before_handshake_is_refused():
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="before handshake"):
        server.feed(_request_frame())


def test_version_mismatch_is_refused_at_hello():
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="wire version"):
        server.feed(encode_frame(HELLO, {"version": VERSION + 1, "node": "c"}))


def test_double_hello_is_refused():
    server = WireSession("server", node="w")
    server.feed(encode_frame(HELLO, {"version": VERSION, "node": "c"}))
    server.take_outbound()
    with pytest.raises(ProtocolError, match="unexpected HELLO"):
        server.feed(encode_frame(HELLO, {"version": VERSION, "node": "c"}))


# ---------------------------------------------------------------------------
# fault encoding: retryability crosses the wire
# ---------------------------------------------------------------------------


def test_node_down_fault_round_trips_pre_effect_and_node():
    original = NodeDownError("node 'a' is down", node="a", pre_effect=True)
    rebuilt = decode_fault(encode_fault(original))
    assert isinstance(rebuilt, NodeDownError)
    assert rebuilt.node == "a"
    assert rebuilt.pre_effect is True


def test_retryable_middleware_fault_stays_bare():
    rebuilt = decode_fault(encode_fault(MiddlewareError("injected")))
    assert type(rebuilt) is MiddlewareError
    assert not getattr(rebuilt, "_remote_rebuilt", False)


def test_library_fault_rebuilds_by_name_and_is_marked_remote():
    rebuilt = decode_fault(encode_fault(AccessDeniedError("denied")))
    assert isinstance(rebuilt, AccessDeniedError)
    assert getattr(rebuilt, "_remote_rebuilt", False)


@pytest.mark.parametrize(
    "original",
    [
        ValidationError(["bad name"]),
        TransactionAborted("tx-1", "lock conflict"),
        PreconditionViolation("self.name <> ''"),
        OclSyntaxError("unexpected token", position=4, text="a +"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_library_fault_keeps_its_type_and_text_whatever_its_constructor(original):
    """The rebuild never re-runs a constructor that takes something
    other than a message: the type survives and the text is verbatim."""
    rebuilt = decode_fault(encode_fault(original))
    assert type(rebuilt) is type(original)
    assert str(rebuilt) == str(original)
    assert getattr(rebuilt, "_remote_rebuilt", False)


def test_builtin_fault_degrades_to_remote_invocation_error():
    rebuilt = decode_fault(encode_fault(ValueError("no")))
    assert "remote raised ValueError: no" in str(rebuilt)
    assert getattr(rebuilt, "_remote_rebuilt", False)


def test_malformed_fault_decodes_to_a_protocol_error():
    for fault in ("AccessDeniedError: denied", None, [1]):
        rebuilt = decode_fault(fault)
        assert isinstance(rebuilt, ProtocolError)
        assert "malformed wire fault" in str(rebuilt)


def test_fault_frames_round_trip_through_the_codec():
    """A fault crosses as an error REPLY: outcome byte 1 and the error
    codec's form, rebuilt with its retry verdict on the far side."""
    fault = encode_fault(NodeDownError("gone", node="n", pre_effect=True))
    frame = response_frame(17, fault, error=True)
    decoder = FrameDecoder()
    decoder.feed(frame)
    [(kind, payload)] = list(decoder.frames())
    assert kind == REPLY
    assert payload == (17, True, fault)
    rebuilt = decode_fault(payload[2])
    assert isinstance(rebuilt, NodeDownError) and rebuilt.node == "n"
    assert rebuilt.pre_effect is True


def test_envelope_round_trip_preserves_correlation_and_qos():
    envelope = Envelope(
        "obj-3",
        "transfer",
        [ObjectRefData("obj-1", "Account"), 25],
        {"memo": "rent"},
        {},
        qos=QoS(retries=3, timeout_ms=500),
        target="node-2",
        binding="branch-0/Bank/0",
        label="Bank.transfer",
        attempt=2,
    )
    decoder = FrameDecoder()
    decoder.feed(request_frame(envelope))
    [(kind, (_nested, payload))] = list(decoder.frames())
    hydrated = Envelope.from_wire(payload)
    assert hydrated.correlation_id == envelope.correlation_id
    assert hydrated.attempt == 2
    assert hydrated.qos.retries == 3
    assert hydrated.binding == "branch-0/Bank/0"
    assert hydrated.args[0] == ObjectRefData("obj-1", "Account")


# ---------------------------------------------------------------------------
# the codec against the version-2 reference codec
# ---------------------------------------------------------------------------


_U32 = struct.Struct(">I")


def _reference_encode(value) -> bytes:
    """The tagged codec's encoder as it stood before it dispatched on
    exact types: the bytes the codec must keep producing."""
    out = []
    _reference_encode_into(value, out)
    return b"".join(out)


def _reference_encode_into(value, out, depth=0):
    if depth > MAX_DEPTH:
        raise ProtocolError(f"wire value nests deeper than {MAX_DEPTH} levels")
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        text = b"%d" % value
        out.append(b"i")
        out.append(_U32.pack(len(text)))
        out.append(text)
    elif isinstance(value, float):
        out.append(b"f")
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif isinstance(value, list):
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _reference_encode_into(item, out, depth + 1)
    elif isinstance(value, tuple):
        out.append(b"t")
        out.append(_U32.pack(len(value)))
        for item in value:
            _reference_encode_into(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(f"wire dict keys must be strings, got {key!r}")
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            _reference_encode_into(item, out, depth + 1)
    elif isinstance(value, ObjectRefData):
        out.append(b"r")
        for text in (value.object_id, value.type_name):
            data = text.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
    else:
        raise ProtocolError(
            f"value of type {type(value).__name__} is outside the wire contract"
        )


def _reference_decode(payload: bytes):
    """The tagged codec's decoder as it stood before it read by offset:
    a ``memoryview`` slice and a ``tobytes()`` per value."""
    value, offset = _reference_decode_from(memoryview(payload), 0)
    if offset != len(payload):
        raise ProtocolError(f"{len(payload) - offset} trailing byte(s) after wire value")
    return value


def _take(payload, offset, count):
    end = offset + count
    if end > len(payload):
        raise ProtocolError("truncated wire value")
    return payload[offset:end], end


def _reference_decode_from(payload, offset, depth=0):
    if depth > MAX_DEPTH:
        raise ProtocolError(f"wire value nests deeper than {MAX_DEPTH} levels")
    tag_view, offset = _take(payload, offset, 1)
    tag = tag_view.tobytes()
    if tag in (b"N", b"T", b"F"):
        return {b"N": None, b"T": True, b"F": False}[tag], offset
    if tag == b"f":
        raw, offset = _take(payload, offset, 8)
        return struct.unpack(">d", raw)[0], offset
    if tag in (b"i", b"s", b"b"):
        raw, offset = _take(payload, offset, 4)
        data, offset = _take(payload, offset, _U32.unpack(raw)[0])
        if tag == b"i":
            return int(data.tobytes()), offset
        if tag == b"b":
            return data.tobytes(), offset
        return data.tobytes().decode("utf-8"), offset
    if tag in (b"l", b"t"):
        raw, offset = _take(payload, offset, 4)
        items = []
        for _ in range(_U32.unpack(raw)[0]):
            item, offset = _reference_decode_from(payload, offset, depth + 1)
            items.append(item)
        return (tuple(items) if tag == b"t" else items), offset
    if tag == b"d":
        raw, offset = _take(payload, offset, 4)
        mapping = {}
        for _ in range(_U32.unpack(raw)[0]):
            raw, offset = _take(payload, offset, 4)
            key, offset = _take(payload, offset, _U32.unpack(raw)[0])
            mapping[key.tobytes().decode("utf-8")], offset = _reference_decode_from(
                payload, offset, depth + 1
            )
        return mapping, offset
    if tag == b"r":
        parts = []
        for _ in range(2):
            raw, offset = _take(payload, offset, 4)
            data, offset = _take(payload, offset, _U32.unpack(raw)[0])
            parts.append(data.tobytes().decode("utf-8"))
        return ObjectRefData(*parts), offset
    raise ProtocolError(f"unknown wire value tag {tag!r}")


class _Float(float):
    pass


class _Bytes(bytes):
    pass


class _Tuple(tuple):
    pass


class _Ref(ObjectRefData):
    pass


class _Color(enum.IntEnum):
    RED = 3


def _subclassed_everywhere(value, rng):
    """:func:`_subclassed`, plus floats, bytes, tuples, references and
    int enums, so every branch of the subclass walk is exercised."""
    value = _subclassed(value, rng)
    swap = rng.random() < 0.5
    if type(value) is float and swap:
        return _Float(value)
    if type(value) is bytes and swap:
        return _Bytes(value)
    if type(value) is ObjectRefData and swap:
        return _Ref(value.object_id, value.type_name)
    if type(value) is int and swap and value == 3:
        return _Color.RED
    if isinstance(value, tuple):
        items = [_subclassed_everywhere(item, rng) for item in value]
        return _Tuple(items) if swap else tuple(items)
    if isinstance(value, list):
        value[:] = [_subclassed_everywhere(item, rng) for item in value]
    elif isinstance(value, dict):
        for key in list(value):
            value[key] = _subclassed_everywhere(value[key], rng)
    return value


def _typed(value):
    """``value``'s exact types, recursively: ``==`` alone cannot tell
    ``True`` from ``1`` or a subclass from its base."""
    if isinstance(value, (list, tuple)):
        return (type(value), [_typed(item) for item in value])
    if isinstance(value, dict):
        return (type(value), {key: _typed(item) for key, item in value.items()})
    return (type(value), value)


@given(st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=300, deadline=None)
def test_codec_matches_the_reference_codec(rng, subclass):
    value = _random_value(rng)
    if rng.random() < 0.3:
        value = (value, 3, [3.0, b"b"], ObjectRefData("o", "T"))
    if subclass:
        value = _subclassed_everywhere(value, rng)
    encoded = encode_value(value)
    assert encoded == _reference_encode(value)
    decoded = decode_value(encoded)
    assert _typed(decoded) == _typed(_reference_decode(encoded))


def _deep(levels):
    value = "leaf"
    for _ in range(levels):
        value = [value]
    return value


_POISONS = [
    object(),
    1 + 2j,
    {"a", "b"},
    {1: "x"},
    {"ok": {(1, 2): None}},
    bytearray(b"x"),
    _deep(MAX_DEPTH + 1),
]


@given(
    st.randoms(use_true_random=False),
    st.sampled_from(range(len(_POISONS))),
    st.sampled_from(["list", "tuple", "dict", "bare"]),
)
@settings(max_examples=200, deadline=None)
def test_out_of_contract_values_raise_the_reference_error(rng, which, holder):
    poison = _POISONS[which]
    value = _random_value(rng)
    if holder == "list":
        value = [value, poison]
    elif holder == "tuple":
        value = (poison, value)
    elif holder == "dict":
        value = {"value": value, "poison": poison}
    else:
        value = poison
    with pytest.raises(ProtocolError) as reference:
        _reference_encode(value)
    with pytest.raises(ProtocolError) as new:
        encode_value(value)
    assert str(new.value) == str(reference.value)


def test_decoder_accepts_any_bytes_like_payload():
    encoded = encode_value({"k": [1, "two"]})
    assert decode_value(bytearray(encoded)) == decode_value(memoryview(encoded))


# ---------------------------------------------------------------------------
# fixed headers: REQUEST and REPLY
# ---------------------------------------------------------------------------

#: the REQUEST payload header (unchanged since version 7): correlation
#: id, attempt, QoS retries, flags (oneway 1, nested 2), timeout kind and
#: value, then the byte lengths of target, binding, label, object id and
#: operation
REQUEST_HEAD = struct.Struct(">QIIBBd5I")
#: the version-8 REPLY payload header: the correlation id answered and
#: the outcome byte (0 result, 1 error)
REPLY_HEAD = struct.Struct(">QB")
FRAME_HEADER = 8
#: where the flags byte sits in a REQUEST frame
FLAGS = FRAME_HEADER + 16
ABSENT = 0xFFFFFFFF


def _envelope(**fields):
    return Envelope(
        fields.pop("object_id", "obj-1"),
        fields.pop("operation", "deposit"),
        [100],
        {"memo": "x"},
        {"user": "alice"},
        **fields,
    )


def _decoded(frame):
    decoder = FrameDecoder()
    decoder.feed(frame)
    [(kind, payload)] = list(decoder.frames())
    return kind, payload


def test_request_header_layout_is_pinned():
    envelope = _envelope(
        qos=QoS(oneway=True, retries=2, timeout_ms=250),
        correlation_id=9,
        target="node-0",
        binding=None,
        label="",
        attempt=1,
    )
    frame = request_frame(envelope)
    assert frame[:4] == b"RW" + bytes([8, REQUEST])
    payload = frame[FRAME_HEADER:]
    assert REQUEST_HEAD.unpack_from(payload) == (
        9, 1, 2, 1, 1, 250.0, 6, ABSENT, 0, 5, 7
    )
    strings = payload[REQUEST_HEAD.size:REQUEST_HEAD.size + 18]
    assert strings == b"node-0" + b"obj-1" + b"deposit"
    assert decode_value(payload[REQUEST_HEAD.size + 18:]) == (
        [100], {"memo": "x"}, {"user": "alice"}
    )


def _poisoned(decoder):
    with pytest.raises(ProtocolError, match="poisoned"):
        decoder.feed(b"more")
    return True


def _frame_of(kind, payload):
    return struct.pack(">2sBBI", b"RW", VERSION, kind, len(payload)) + payload


@pytest.mark.parametrize("kind", [REQUEST, REPLY])
def test_header_shorter_than_its_struct_is_refused(kind):
    decoder = FrameDecoder()
    decoder.feed(_frame_of(kind, b"\x00" * (REPLY_HEAD.size - 1)))
    with pytest.raises(ProtocolError, match="header needs"):
        list(decoder.frames())
    assert _poisoned(decoder)


def test_header_string_past_the_payload_end_is_refused():
    frame = bytearray(request_frame(_envelope(target="node-0")))
    target_length = FRAME_HEADER + REQUEST_HEAD.size - 5 * 4
    assert frame[target_length:target_length + 4] == (6).to_bytes(4, "big")
    frame[target_length:target_length + 4] = (len(frame)).to_bytes(4, "big")
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="runs past the end"):
        list(decoder.frames())
    assert _poisoned(decoder)


def test_version_4_hello_is_refused():
    """Version 4's RESPONSE header ended in two error-text lengths: a
    peer still speaking it is refused at HELLO, before any frame of
    that layout is read, and the refusal poisons the session."""
    hello = _frame_of(HELLO, encode_value({"version": 4, "node": "c"}))
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="unsupported wire version 4"):
        server.feed(hello[:2] + bytes([4]) + hello[3:])
    with pytest.raises(ProtocolError, match="poisoned"):
        server.feed(b"more")


def test_version_5_hello_is_refused():
    """Version 5's CONTROL payloads were per-verb dicts of named fields:
    a peer still speaking it is refused at HELLO, and the refusal
    poisons the session."""
    hello = _frame_of(HELLO, encode_value({"version": 5, "node": "c"}))
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="unsupported wire version 5"):
        server.feed(hello[:2] + bytes([5]) + hello[3:])
    with pytest.raises(ProtocolError, match="poisoned"):
        server.feed(b"more")


def test_version_6_hello_is_refused():
    """Version 6's REQUEST and RESPONSE headers held a message id beside
    the correlation id: a peer still speaking it is refused at HELLO,
    before any frame of that layout is read, and the refusal poisons
    the session."""
    hello = _frame_of(HELLO, encode_value({"version": 6, "node": "c"}))
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="unsupported wire version 6"):
        server.feed(hello[:2] + bytes([6]) + hello[3:])
    with pytest.raises(ProtocolError, match="poisoned"):
        server.feed(b"more")


def test_version_7_hello_is_refused():
    """Version 7 answered a call with a success or an error frame and a
    control verb with a third kind: a peer still speaking it is refused
    at HELLO, before any of its replies is read, and the refusal
    poisons the session."""
    hello = _frame_of(HELLO, encode_value({"version": 7, "node": "c"}))
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="unsupported wire version 7"):
        server.feed(hello[:2] + bytes([7]) + hello[3:])
    with pytest.raises(ProtocolError, match="poisoned"):
        server.feed(b"more")


@pytest.mark.parametrize("field", ["target", "binding", "label", "operation"])
def test_invalid_utf8_in_a_header_string_is_refused(field):
    frame = request_frame(_envelope(**{field: "zz-ok"}))
    assert frame.count(b"zz-ok") == 1
    decoder = FrameDecoder()
    decoder.feed(frame.replace(b"zz-ok", b"\xff\xfe-ok"))
    with pytest.raises(ProtocolError, match="malformed header string"):
        list(decoder.frames())
    assert _poisoned(decoder)


@pytest.mark.parametrize("oneway", [False, True])
@pytest.mark.parametrize("nested", [False, True])
def test_nested_bit_round_trips_beside_oneway(oneway, nested):
    frame = request_frame(_envelope(qos=QoS(oneway=oneway)), nested=nested)
    assert frame[FLAGS] == (1 if oneway else 0) | (2 if nested else 0)
    _kind, (decoded, payload) = _decoded(frame)
    assert decoded is nested
    assert Envelope.from_wire(payload).qos.oneway is oneway


def test_malformed_flags_and_call_shape_are_refused():
    good = request_frame(_envelope())
    for offset, byte, match in (
        (FLAGS, 4, "unknown request flag bits"),
        (FLAGS + 1, 7, "malformed timeout"),
    ):
        frame = bytearray(good)
        frame[offset] = byte
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(ProtocolError, match=match):
            list(decoder.frames())
        assert _poisoned(decoder)
    head = REQUEST_HEAD.pack(1, 0, 0, 0, 0, 0.0, ABSENT, ABSENT, ABSENT, 0, 0)
    for call in ([[], {}, {}], ((), {}, {}), ([], {})):
        decoder = FrameDecoder()
        decoder.feed(_frame_of(REQUEST, head + encode_value(call)))
        with pytest.raises(ProtocolError, match="call is not"):
            list(decoder.frames())
        assert _poisoned(decoder)


@pytest.mark.parametrize(
    "fields",
    [
        {"correlation_id": 2**64},
        {"correlation_id": -1},
        {"attempt": 2**32},
        {"qos": QoS(retries=2**32)},
        {"qos": QoS(timeout_ms=2**53 + 1)},
        {"qos": QoS(timeout_ms="soon")},
    ],
    ids=repr,
)
def test_a_field_wider_than_its_header_is_refused_at_encode(fields):
    with pytest.raises(ProtocolError):
        request_frame(_envelope(**fields))


def test_a_response_id_wider_than_its_header_is_refused_at_encode():
    with pytest.raises(ProtocolError):
        response_frame(2**64, None)
    with pytest.raises(ProtocolError):
        response_frame(-1, None)


def test_widest_ids_round_trip_unwrapped():
    envelope = _envelope(correlation_id=2**64 - 1, attempt=2**32 - 1)
    _kind, (_nested, payload) = _decoded(request_frame(envelope))
    hydrated = Envelope.from_wire(payload)
    assert hydrated.correlation_id == 2**64 - 1
    assert hydrated.attempt == 2**32 - 1


@pytest.mark.parametrize("field", ["target", "binding", "label"])
@pytest.mark.parametrize("value", [None, ""])
def test_none_and_empty_header_strings_stay_distinct(field, value):
    _kind, (_nested, payload) = _decoded(
        request_frame(_envelope(**{field: value}))
    )
    assert getattr(Envelope.from_wire(payload), field) == value
    assert (getattr(Envelope.from_wire(payload), field) is None) == (value is None)


@pytest.mark.parametrize("timeout_ms", [None, 500, 0, -3, 2**53, 500.0, 0.25, float("inf")])
def test_timeout_round_trips_keeping_its_type(timeout_ms):
    envelope = _envelope(qos=QoS(timeout_ms=timeout_ms))
    _kind, (_nested, payload) = _decoded(request_frame(envelope))
    hydrated = Envelope.from_wire(payload).qos.timeout_ms
    assert hydrated == timeout_ms
    assert type(hydrated) is type(timeout_ms)


def test_response_carries_a_success_only():
    """A REPLY built from a result carries that success only: the
    correlation id, outcome byte 0 and the result, decoding as the
    result itself.  An error REPLY differs in its outcome byte alone."""
    result = {"balance": [1.5, ObjectRefData("o", "T")]}
    frame = response_frame(11, result)
    assert frame[:4] == b"RW" + bytes([8, REPLY])
    assert frame[FRAME_HEADER:FRAME_HEADER + REPLY_HEAD.size] == struct.pack(">QB", 11, 0)
    assert decode_value(frame[FRAME_HEADER + REPLY_HEAD.size:]) == result
    kind, (correlation_id, error, decoded) = _decoded(frame)
    assert kind == REPLY and correlation_id == 11 and error is False
    assert decoded == result
    failed = response_frame(11, result, error=True)
    assert failed[FRAME_HEADER + 8] == 1
    assert failed[:FRAME_HEADER + 8] + bytes([0]) + failed[FRAME_HEADER + 9:] == frame
    assert _decoded(failed) == (REPLY, (11, True, result))


def test_a_reply_with_an_unknown_outcome_is_refused():
    frame = bytearray(response_frame(11, None))
    frame[FRAME_HEADER + 8] = 2
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="unknown reply outcome 2"):
        list(decoder.frames())
    assert _poisoned(decoder)


def test_request_and_response_frames_have_no_tagged_payload_path():
    for kind in (REQUEST, REPLY):
        with pytest.raises(ProtocolError, match="fixed header"):
            encode_frame(kind, {"correlation_id": 1})


def test_version_2_hello_is_refused():
    hello = _frame_of(HELLO, encode_value({"version": 2, "node": "c"}))
    server = WireSession("server", node="w")
    with pytest.raises(ProtocolError, match="unsupported wire version 2"):
        server.feed(hello[:2] + bytes([2]) + hello[3:])
    with pytest.raises(ProtocolError, match="poisoned"):
        server.feed(b"more")


# ---------------------------------------------------------------------------
# one-pass frames against the reference framing
# ---------------------------------------------------------------------------

_FRAME_HEAD = struct.Struct(">2sBBI")


def _reference_to_wire(envelope):
    """An envelope's positional form, read as the REQUEST framing read
    it before frames were packed in one pass."""
    qos = envelope.qos
    return (
        envelope.correlation_id, envelope.attempt, qos.retries, qos.oneway,
        qos.timeout_ms, envelope.target, envelope.binding, envelope.label,
        envelope.object_id, envelope.operation,
        (envelope.args, envelope.kwargs, envelope.context),
    )


def _reference_head_parts(head, fields, texts):
    lengths, parts = [], []
    for text in texts:
        if text is None:
            lengths.append(ABSENT)
            continue
        if not isinstance(text, str):
            raise ProtocolError(f"header field {text!r} is neither a string nor None")
        data = text.encode("utf-8")
        lengths.append(len(data))
        parts.append(data)
    try:
        parts.insert(0, head.pack(*fields, *lengths))
    except struct.error as exc:
        raise ProtocolError(f"header field out of range: {exc}") from None
    return parts


def _reference_frame(kind, parts):
    parts.insert(0, _FRAME_HEAD.pack(b"RW", VERSION, kind, sum(map(len, parts))))
    return b"".join(parts)


def _reference_request_frame(envelope, nested=False):
    """A REQUEST frame as it was built field list by field list: the
    bytes :func:`request_frame` must keep producing."""
    (
        correlation_id, attempt, retries, oneway, timeout_ms,
        target, binding, label, object_id, operation, call,
    ) = _reference_to_wire(envelope)
    if timeout_ms is None:
        timeout_kind, timeout = 0, 0.0
    elif isinstance(timeout_ms, float):
        timeout_kind, timeout = 2, timeout_ms
    else:
        timeout_kind, timeout = 1, float(timeout_ms)
    parts = _reference_head_parts(
        REQUEST_HEAD,
        (correlation_id, attempt, retries,
         (1 if oneway else 0) | (2 if nested else 0), timeout_kind, timeout),
        (target, binding, label, object_id, operation),
    )
    parts.append(_reference_encode(call))
    return _reference_frame(REQUEST, parts)


def _reference_response_frame(correlation_id, value, error):
    parts = _reference_head_parts(REPLY_HEAD, (correlation_id, 1 if error else 0), ())
    parts.append(_reference_encode(value))
    return _reference_frame(REPLY, parts)


_HEADER_TEXT = st.one_of(
    st.none(),
    st.just(""),
    st.text(max_size=24),
    st.text(alphabet="é中\ufeff\U0001f600x", max_size=12),
    st.text(min_size=300, max_size=1200),
    st.text(max_size=24).map(_Str),
)
_U64 = st.integers(0, 2**64 - 1)
_U32_FIELD = st.integers(0, 2**32 - 1)
_TIMEOUT = st.one_of(
    st.none(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False),
)


@given(
    st.randoms(use_true_random=False),
    st.tuples(*[_HEADER_TEXT] * 5),
    st.tuples(_U64, _U32_FIELD, _U32_FIELD),
    _TIMEOUT,
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_request_frames_match_the_reference_framing(
    rng, texts, ids, timeout_ms, oneway, nested
):
    target, binding, label, object_id, operation = texts
    correlation_id, attempt, retries = ids
    envelope = Envelope(
        object_id,
        operation,
        [_random_value(rng) for _ in range(rng.randint(0, 3))],
        {f"k{i}": _random_value(rng) for i in range(rng.randint(0, 2))},
        {"user": _random_value(rng)} if rng.random() < 0.5 else {},
        qos=QoS(oneway=oneway, timeout_ms=timeout_ms, retries=retries),
        correlation_id=correlation_id,
        target=target,
        binding=binding,
        label=label,
        attempt=attempt,
    )
    frame = request_frame(envelope, nested)
    assert frame == _reference_request_frame(envelope, nested)


@given(st.randoms(use_true_random=False), _U64, st.booleans())
@settings(max_examples=200, deadline=None)
def test_response_frames_match_the_reference_framing(rng, correlation_id, error):
    value = encode_fault(ValueError(_random_value(rng))) if error else _random_value(rng)
    frame = response_frame(correlation_id, value, error)
    assert frame == _reference_response_frame(correlation_id, value, error)


@pytest.mark.parametrize("field", ["target", "binding", "label", "object_id", "operation"])
@pytest.mark.parametrize("bad", [7, b"node-0", ["node-0"]], ids=repr)
def test_a_non_string_header_field_is_refused(field, bad):
    """An int, a bytes or an unhashable list is no header string: it
    raises ProtocolError."""
    with pytest.raises(ProtocolError, match="neither a string nor None"):
        request_frame(_envelope(**{field: bad}))
