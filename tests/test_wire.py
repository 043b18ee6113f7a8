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
* version agreement: a frame of any other wire version is refused from
  its header alone (there is no handshake), and an error reply carries
  the sender-side retry classification across.
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
from repro.middleware.envelope import DEFAULT_QOS, Envelope, QoS
from repro.middleware import wire
from repro.middleware.wire import (
    CONTROL,
    DEFAULT_MAX_FRAME,
    MAX_DEPTH,
    REPLY,
    REQUEST,
    VERSION,
    FrameDecoder,
    control_frame,
    decode_value,
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
        control_frame({"verb": "ping"}),
        _request_frame(),
        response_frame(7, None),
    ]
    partial = _request_frame()
    decoder = FrameDecoder()
    decoder.feed(b"".join(frames) + partial[: len(partial) // 2])
    kinds = [kind for kind, _payload in decoder.frames()]
    assert kinds == [CONTROL, REQUEST, REPLY]
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
    assert wire._KINDS == {REQUEST, REPLY, CONTROL}
    # 1 and 2: version 9's HELLO and HELLO_OK, gone with the handshake;
    # 5: version 1's oneway receipt; 6 and 8: version 7's error frame
    # and control reply, each folded into REPLY
    for kind in (42, 1, 2, 5, 6, 8):
        frame = bytearray(_request_frame())
        frame[3] = kind  # kind byte
        decoder = FrameDecoder()
        decoder.feed(bytes(frame))
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            list(decoder.frames())


def test_oversized_frame_is_rejected_from_the_header_alone():
    """A length prefix one byte over the limit is refused before any
    payload is buffered."""
    header = control_frame({})[:4] + (DEFAULT_MAX_FRAME + 1).to_bytes(4, "big")
    decoder = FrameDecoder()
    decoder.feed(header)
    with pytest.raises(
        ProtocolError,
        match=f"frame of {DEFAULT_MAX_FRAME + 1} bytes exceeds the {DEFAULT_MAX_FRAME}-byte limit",
    ):
        list(decoder.frames())
    assert decoder.pending() == 8


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
    header = control_frame({})[:4] + len(payload).to_bytes(4, "big")
    decoder = FrameDecoder()
    decoder.feed(header + payload)
    with pytest.raises(ProtocolError, match="nests deeper"):
        list(decoder.frames())
    with pytest.raises(ProtocolError, match="poisoned"):
        decoder.feed(b"more")


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


def test_envelope_round_trip_preserves_correlation_and_the_call():
    """The peer rebuilds the correlation id, label, object id, operation
    and call; the caller's QoS, attempt, target and binding never
    cross, so it rebuilds the defaults."""
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
    assert (hydrated.label, hydrated.object_id, hydrated.operation) == (
        "Bank.transfer", "obj-3", "transfer"
    )
    assert hydrated.args == [ObjectRefData("obj-1", "Account"), 25]
    assert hydrated.kwargs == {"memo": "rent"}
    assert hydrated.qos is DEFAULT_QOS and hydrated.attempt == 0
    assert hydrated.target is None and hydrated.binding is None


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

#: the version-9 REQUEST payload header: correlation id, flags (nested
#: 2 the only bit), then the byte lengths of label, object id and
#: operation
REQUEST_HEAD = struct.Struct(">QB3I")
#: the version-8 REPLY payload header: the correlation id answered and
#: the outcome byte (0 result, 1 error)
REPLY_HEAD = struct.Struct(">QB")
FRAME_HEADER = 8
#: where the flags byte sits in a REQUEST frame
FLAGS = FRAME_HEADER + 8
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
    assert frame[:4] == b"RW" + bytes([10, REQUEST])
    payload = frame[FRAME_HEADER:]
    assert REQUEST_HEAD.unpack_from(payload) == (9, 0, 0, 5, 7)
    strings = payload[REQUEST_HEAD.size:REQUEST_HEAD.size + 12]
    assert strings == b"obj-1" + b"deposit"
    assert decode_value(payload[REQUEST_HEAD.size + 12:]) == (
        [100], {"memo": "x"}, {"user": "alice"}
    )
    # the echo call's REQUEST: 129 bytes at version 8, which also sent
    # the attempt, QoS retries, timeout, target and binding
    echo = Envelope(
        "obj-3", "bump", [1.0], {}, {},
        target="node-1", binding="counter-1/Counter/0", label="Counter.bump",
    )
    assert len(request_frame(echo)) == 79


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
    frame = bytearray(request_frame(_envelope(label="Account.deposit")))
    label_length = FRAME_HEADER + REQUEST_HEAD.size - 3 * 4
    assert frame[label_length:label_length + 4] == (15).to_bytes(4, "big")
    frame[label_length:label_length + 4] = (len(frame)).to_bytes(4, "big")
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="runs past the end"):
        list(decoder.frames())
    assert _poisoned(decoder)


@pytest.mark.parametrize("field", ["label", "object_id", "operation"])
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
    """The nested bit is the flags byte's only bit: a oneway QoS beside
    it sets none, and the peer rebuilds the default QoS."""
    frame = request_frame(_envelope(qos=QoS(oneway=oneway)), nested=nested)
    assert frame[FLAGS] == (2 if nested else 0)
    _kind, (decoded, payload) = _decoded(frame)
    assert decoded is nested
    assert Envelope.from_wire(payload).qos is DEFAULT_QOS


@pytest.mark.parametrize("byte", [0x01, 0x03, 0x04, 0x80], ids=hex)
def test_an_unknown_flag_bit_is_refused(byte):
    """Nested (2) is the only flag bit: version 8's oneway bit (1) is
    refused like any other, alone or beside nested."""
    frame = bytearray(request_frame(_envelope()))
    frame[FLAGS] = byte
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match=f"unknown request flag bits {byte:#04x}"):
        list(decoder.frames())
    assert _poisoned(decoder)


def test_malformed_flags_and_call_shape_are_refused():
    frame = bytearray(request_frame(_envelope()))
    frame[FLAGS] = 0xFF
    decoder = FrameDecoder()
    decoder.feed(bytes(frame))
    with pytest.raises(ProtocolError, match="unknown request flag bits"):
        list(decoder.frames())
    assert _poisoned(decoder)
    head = REQUEST_HEAD.pack(1, 0, ABSENT, 0, 0)
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
    envelope = _envelope(correlation_id=2**64 - 1)
    _kind, (_nested, payload) = _decoded(request_frame(envelope))
    assert Envelope.from_wire(payload).correlation_id == 2**64 - 1


@pytest.mark.parametrize("field", ["label", "object_id", "operation"])
@pytest.mark.parametrize("value", [None, ""])
def test_none_and_empty_header_strings_stay_distinct(field, value):
    _kind, (_nested, payload) = _decoded(
        request_frame(_envelope(**{field: value}))
    )
    assert getattr(Envelope.from_wire(payload), field) == value
    assert (getattr(Envelope.from_wire(payload), field) is None) == (value is None)


@pytest.mark.parametrize(
    "fields",
    [
        {"qos": QoS(oneway=True)},
        {"qos": QoS(retries=2**32)},
        {"qos": QoS(timeout_ms=2**53 + 1)},
        {"qos": QoS(timeout_ms="soon")},
        {"qos": QoS(timeout_ms=float("inf"))},
        {"attempt": 2**32},
        {"target": 7},
        {"binding": b"branch-0/Bank/0"},
    ],
    ids=repr,
)
def test_the_callers_policy_stays_with_the_caller(fields):
    """QoS, attempt, target and binding never reach the frame, however
    wide or odd: the frame is the plain call's, byte for byte, and the
    peer rebuilds the defaults."""
    plain = _envelope(correlation_id=5)
    frame = request_frame(_envelope(correlation_id=5, **fields))
    assert frame == request_frame(plain)
    hydrated = Envelope.from_wire(_decoded(frame)[1][1])
    assert hydrated.qos is DEFAULT_QOS and hydrated.attempt == 0
    assert hydrated.target is None and hydrated.binding is None


def test_response_carries_a_success_only():
    """A REPLY built from a result carries that success only: the
    correlation id, outcome byte 0 and the result, decoding as the
    result itself.  An error REPLY differs in its outcome byte alone."""
    result = {"balance": [1.5, ObjectRefData("o", "T")]}
    frame = response_frame(11, result)
    assert frame[:4] == b"RW" + bytes([10, REPLY])
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
    """REQUEST and REPLY frames have fixed headers and only their own
    builders: the one tagged-payload builder writes a CONTROL, whatever
    its payload holds."""
    payload = {"correlation_id": 1}
    assert _decoded(control_frame(payload)) == (CONTROL, payload)
    assert not hasattr(wire, "encode_frame")


#: version 9's first frame on every connection: a HELLO (kind 1)
#: carrying its version, which an older peer also sent its node in
_HELLO_9 = _frame_of(1, encode_value({"version": 9}))


@pytest.mark.parametrize("version", [v for v in range(1, 12) if v != VERSION])
@pytest.mark.parametrize("kind", ["request", "reply", "control", "hello"])
def test_a_frame_of_another_version_is_refused(kind, version):
    """Every frame header carries the wire version, and it is the one
    version check: a frame of any other version — each kind this
    version speaks, and an older peer's opening HELLO — is refused from
    its header alone, before a payload byte has arrived, and the
    refusal poisons the decoder."""
    frame = {
        "request": _request_frame(),
        "reply": response_frame(7, None),
        "control": control_frame({"verb": "ping"}),
        "hello": _HELLO_9,
    }[kind]
    decoder = FrameDecoder()
    decoder.feed(frame[:2] + bytes([version]) + frame[3:FRAME_HEADER])
    with pytest.raises(
        ProtocolError,
        match=rf"unsupported wire version {version} \(speaking {VERSION}\)",
    ):
        list(decoder.frames())
    assert _poisoned(decoder)


# ---------------------------------------------------------------------------
# one-pass frames against the reference framing
# ---------------------------------------------------------------------------

_FRAME_HEAD = struct.Struct(">2sBBI")


def _reference_to_wire(envelope):
    """An envelope's positional form, read as the REQUEST framing read
    it before frames were packed in one pass: the version-9 fields."""
    return (
        envelope.correlation_id, envelope.label, envelope.object_id,
        envelope.operation, (envelope.args, envelope.kwargs, envelope.context),
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
    correlation_id, label, object_id, operation, call = _reference_to_wire(envelope)
    parts = _reference_head_parts(
        REQUEST_HEAD,
        (correlation_id, 2 if nested else 0),
        (label, object_id, operation),
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
    """The caller's QoS, attempt, target and binding are drawn too, and
    leave no trace in the bytes."""
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
    assert _decoded(frame) == (REQUEST, (nested, _reference_to_wire(envelope)))


@given(st.randoms(use_true_random=False), _U64, st.booleans())
@settings(max_examples=200, deadline=None)
def test_response_frames_match_the_reference_framing(rng, correlation_id, error):
    value = encode_fault(ValueError(_random_value(rng))) if error else _random_value(rng)
    frame = response_frame(correlation_id, value, error)
    assert frame == _reference_response_frame(correlation_id, value, error)


@pytest.mark.parametrize("field", ["label", "object_id", "operation"])
@pytest.mark.parametrize("bad", [7, b"node-0", ["node-0"]], ids=repr)
def test_a_non_string_header_field_is_refused(field, bad):
    """An int, a bytes or an unhashable list is no header string: it
    raises ProtocolError."""
    with pytest.raises(ProtocolError, match="neither a string nor None"):
        request_frame(_envelope(**{field: bad}))
