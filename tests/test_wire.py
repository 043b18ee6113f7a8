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
* conversation rules: handshake ordering, fault encoding carrying the
  sender-side retry classification across.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    MarshallingError,
    MiddlewareError,
    NodeDownError,
    ProtocolError,
    AccessDeniedError,
)
from repro.middleware.bus import ObjectRefData, Request, marshal, wire_size
from repro.middleware.envelope import Envelope, QoS
from repro.middleware.wire import (
    FAULT,
    HELLO,
    MAX_DEPTH,
    REQUEST,
    RESPONSE,
    VERSION,
    FrameDecoder,
    WireSession,
    decode_fault,
    decode_value,
    encode_fault,
    encode_frame,
    encode_value,
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
    request = Request(
        object_id="obj-1",
        operation="deposit",
        args=[100],
        kwargs={},
        context={"user": "alice"},
    )
    envelope = Envelope(request=request, qos=QoS(retries=2), target="node-0")
    return encode_frame(REQUEST, envelope.to_wire())


def test_frames_survive_arbitrary_splits():
    """Bytes fed one at a time (the worst split) still yield the frame."""
    frame = _request_frame()
    decoder = FrameDecoder()
    collected = []
    for i in range(len(frame)):
        decoder.feed(frame[i:i + 1])
        collected.extend(decoder.frames())
    assert len(collected) == 1
    kind, payload = collected[0]
    assert kind == REQUEST
    assert payload["request"]["operation"] == "deposit"
    assert decoder.pending() == 0


def test_interleaved_frames_in_one_read():
    """Three frames and a tail of a fourth in a single feed."""
    frames = [
        encode_frame(HELLO, {"version": VERSION, "node": "a"}),
        _request_frame(),
        encode_frame(RESPONSE, {"correlation_id": 7, "response": {}}),
    ]
    partial = _request_frame()
    decoder = FrameDecoder()
    decoder.feed(b"".join(frames) + partial[: len(partial) // 2])
    kinds = [kind for kind, _payload in decoder.frames()]
    assert kinds == [HELLO, REQUEST, RESPONSE]
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
    for kind in (42, 5):  # 5: version 1's oneway receipt, retired
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


def test_builtin_fault_degrades_to_remote_invocation_error():
    rebuilt = decode_fault(encode_fault(ValueError("no")))
    assert "remote raised ValueError: no" in str(rebuilt)
    assert getattr(rebuilt, "_remote_rebuilt", False)


def test_fault_frames_round_trip_through_the_codec():
    session = WireSession("client", node="c")
    frame = session.send_fault(17, NodeDownError("gone", node="n", pre_effect=True))
    decoder = FrameDecoder()
    decoder.feed(frame)
    [(kind, payload)] = list(decoder.frames())
    assert kind == FAULT
    assert payload["correlation_id"] == 17
    rebuilt = decode_fault(payload["fault"])
    assert isinstance(rebuilt, NodeDownError) and rebuilt.node == "n"


def test_envelope_round_trip_preserves_correlation_and_qos():
    request = Request(
        object_id="obj-3",
        operation="transfer",
        args=[ObjectRefData("obj-1", "Account"), 25],
        kwargs={"memo": "rent"},
        context={},
    )
    envelope = Envelope(
        request=request,
        qos=QoS(retries=3, timeout_ms=500),
        target="node-2",
        binding="branch-0/Bank/0",
        label="Bank.transfer",
        attempt=2,
    )
    decoder = FrameDecoder()
    decoder.feed(encode_frame(REQUEST, envelope.to_wire()))
    [(kind, payload)] = list(decoder.frames())
    hydrated = Envelope.from_wire(payload)
    assert hydrated.correlation_id == envelope.correlation_id
    assert hydrated.attempt == 2
    assert hydrated.qos.retries == 3
    assert hydrated.binding == "branch-0/Bank/0"
    assert hydrated.request.args[0] == ObjectRefData("obj-1", "Account")
