"""Wire-protocol framing: edge cases and round-trip properties.

The decoder must survive everything a real socket produces — torn
headers, dribbling bodies, several frames per chunk — and refuse
everything a confused or hostile peer produces (oversized frames,
non-JSON bodies, wrong versions) with a *typed* error, never an
unhandled exception.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.codec import encode_value
from repro.server.protocol import (
    ACTIONS,
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    WireError,
    encode_frame,
    error_frame,
    parse_request,
    parse_response,
    request_frame,
    response_frame,
    split_frames,
)


class TestFraming:
    def test_single_frame_round_trip(self):
        frame = request_frame(7, "ping")
        messages, leftover = split_frames(frame)
        assert leftover == 0
        request = parse_request(messages[0])
        assert request.id == 7
        assert request.action == "ping"
        assert request.params == {}

    def test_partial_reads_byte_by_byte(self):
        frame = request_frame(1, "invoke", {"transaction": "t", "obj": "A"})
        decoder = FrameDecoder()
        collected = []
        for index in range(len(frame)):
            collected.extend(decoder.feed(frame[index : index + 1]))
        assert len(collected) == 1
        assert parse_request(collected[0]).action == "invoke"

    def test_torn_header_across_chunks(self):
        frame = request_frame(2, "begin")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:2]) == []       # half the length prefix
        assert decoder.pending_bytes == 2
        messages = decoder.feed(frame[2:])
        assert len(messages) == 1

    def test_many_frames_in_one_chunk(self):
        blob = b"".join(request_frame(i, "ping") for i in range(5))
        messages, leftover = split_frames(blob)
        assert [m["id"] for m in messages] == [0, 1, 2, 3, 4]
        assert leftover == 0

    def test_frames_plus_torn_tail(self):
        tail = request_frame(9, "ping")
        blob = request_frame(8, "ping") + tail[: len(tail) - 3]
        messages, leftover = split_frames(blob)
        assert [m["id"] for m in messages] == [8]
        assert leftover == len(tail) - 3

    def test_oversized_frame_is_refused_before_buffering(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        huge_header = HEADER.pack(1 << 30)
        with pytest.raises(FrameError) as excinfo:
            decoder.feed(huge_header)
        assert excinfo.value.code == "FRAME_TOO_LARGE"

    def test_malformed_json_body_poisons_decoder(self):
        body = b"this is not json"
        frame = HEADER.pack(len(body)) + body
        decoder = FrameDecoder()
        with pytest.raises(FrameError) as excinfo:
            decoder.feed(frame)
        assert excinfo.value.code == "BAD_FRAME"
        # Poisoned: even a valid frame is now refused.
        with pytest.raises(FrameError):
            decoder.feed(request_frame(1, "ping"))

    def test_non_object_body_is_refused(self):
        body = b"[1, 2, 3]"
        frame = HEADER.pack(len(body)) + body
        with pytest.raises(FrameError) as excinfo:
            FrameDecoder().feed(frame)
        assert excinfo.value.code == "BAD_FRAME"

    def test_encode_frame_enforces_the_ceiling(self):
        with pytest.raises(FrameError) as excinfo:
            encode_frame({"v": 1, "pad": "x" * (MAX_FRAME_BYTES + 1)})
        assert excinfo.value.code == "FRAME_TOO_LARGE"


class TestParseRequest:
    def frame_body(self, **overrides):
        body = {"v": PROTOCOL_VERSION, "id": 1, "action": "ping", "params": {}}
        body.update(overrides)
        return body

    def test_unknown_protocol_version(self):
        with pytest.raises(WireError) as excinfo:
            parse_request(self.frame_body(v=99))
        assert excinfo.value.code == "BAD_VERSION"

    def test_missing_version(self):
        body = self.frame_body()
        del body["v"]
        with pytest.raises(WireError) as excinfo:
            parse_request(body)
        assert excinfo.value.code == "BAD_VERSION"

    def test_non_integer_request_id(self):
        for bad in ("7", None, 1.5, True):
            with pytest.raises(WireError) as excinfo:
                parse_request(self.frame_body(id=bad))
            assert excinfo.value.code == "BAD_REQUEST"

    def test_unknown_action(self):
        with pytest.raises(WireError) as excinfo:
            parse_request(self.frame_body(action="explode"))
        assert excinfo.value.code == "BAD_REQUEST"

    def test_non_object_params(self):
        with pytest.raises(WireError) as excinfo:
            parse_request(self.frame_body(params=[1, 2]))
        assert excinfo.value.code == "BAD_REQUEST"

    def test_malformed_tagged_payload(self):
        # __fr__ must carry a [numerator, denominator] pair.
        bad = self.frame_body(params={"amount": {"__fr__": "not-a-pair"}})
        with pytest.raises(WireError) as excinfo:
            parse_request(bad)
        assert excinfo.value.code == "BAD_REQUEST"

    def test_error_code_vocabulary_is_closed(self):
        with pytest.raises(ValueError):
            WireError("NOT_A_CODE", "nope")
        with pytest.raises(ValueError):
            error_frame(1, "NOT_A_CODE")


class TestParseResponse:
    def test_success_and_error_shapes(self):
        ok, _ = split_frames(response_frame(3, {"answer": (1, 2)}))
        response = parse_response(ok[0])
        assert response.ok and response.id == 3
        assert response.result["answer"] == (1, 2)

        err, _ = split_frames(error_frame(4, "BUSY", "back off"))
        response = parse_response(err[0])
        assert not response.ok
        assert response.error_code == "BUSY"
        with pytest.raises(WireError) as excinfo:
            response.raise_for_error()
        assert excinfo.value.code == "BUSY"

    def test_malformed_error_body(self):
        with pytest.raises(WireError):
            parse_response({"v": PROTOCOL_VERSION, "id": 1, "ok": False})


# -- hypothesis round-trip properties ---------------------------------

#: JSON-codec-representable payload values: scalars, fractions, tuples,
#: frozensets, and nested dicts — everything the tagged codec preserves.
codec_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.text(max_size=20),
        st.fractions(max_denominator=10**6),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(
            st.integers(min_value=0, max_value=100), max_size=4
        ),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=12,
)

params_strategy = st.dictionaries(st.text(min_size=1, max_size=12), codec_values, max_size=4)


@given(
    request_id=st.integers(min_value=0, max_value=2**31),
    action=st.sampled_from(sorted(ACTIONS)),
    params=params_strategy,
)
@settings(max_examples=60, deadline=None)
def test_request_frame_round_trip(request_id, action, params):
    messages, leftover = split_frames(request_frame(request_id, action, params))
    assert leftover == 0
    request = parse_request(messages[0])
    assert request.id == request_id
    assert request.action == action
    assert dict(request.params) == params


@given(request_id=st.integers(min_value=0, max_value=2**31), result=params_strategy)
@settings(max_examples=60, deadline=None)
def test_response_frame_round_trip(request_id, result):
    messages, leftover = split_frames(response_frame(request_id, result))
    assert leftover == 0
    response = parse_response(messages[0])
    assert response.ok
    assert response.id == request_id
    assert dict(response.result) == result


@given(
    frames=st.lists(
        st.tuples(st.integers(min_value=0, max_value=999), params_strategy),
        min_size=1,
        max_size=6,
    ),
    chunk=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=40, deadline=None)
def test_decoder_is_chunking_invariant(frames, chunk):
    """Any chunking of a frame stream decodes to the same messages."""
    blob = b"".join(
        request_frame(request_id, "invoke", params)
        for request_id, params in frames
    )
    decoder = FrameDecoder()
    messages = []
    for start in range(0, len(blob), chunk):
        messages.extend(decoder.feed(blob[start : start + chunk]))
    assert decoder.pending_bytes == 0
    assert len(messages) == len(frames)
    for body, (request_id, params) in zip(messages, frames):
        request = parse_request(body)
        assert request.id == request_id
        assert dict(request.params) == params


def test_fraction_survives_the_wire_exactly():
    params = {"amount": Fraction(355, 113), "batch": (Fraction(1, 3), "x")}
    messages, _ = split_frames(request_frame(1, "invoke", params))
    decoded = parse_request(messages[0]).params
    assert decoded["amount"] == Fraction(355, 113)
    assert isinstance(decoded["amount"], Fraction)
    assert decoded["batch"] == (Fraction(1, 3), "x")


# -- the codec against the formula it replaced -------------------------


def reference_frame(body):
    """How a frame was encoded before the encoder was cached."""
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(payload)) + payload


#: Everything a body may carry: the tagged shapes, plus floats (with the
#: non-finite ones), lists and non-ASCII text.
wire_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(alphabet=st.characters(), max_size=12),
        st.fractions(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(st.integers() | st.text(max_size=4), max_size=4),
    ),
    max_leaves=10,
)
wire_bodies = st.dictionaries(st.text(max_size=10), wire_values, max_size=5)


@given(
    request_id=st.integers(min_value=0, max_value=2**31),
    action=st.sampled_from(sorted(ACTIONS)),
    params=st.none() | wire_bodies,
    trace=st.none()
    | st.fixed_dictionaries({"id": st.text(max_size=8), "sent": st.floats()}),
    result=st.none() | wire_bodies,
)
@settings(max_examples=150, deadline=None)
def test_frames_are_byte_identical_to_the_reference(
    request_id, action, params, trace, result
):
    body = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "action": action,
        "params": {key: encode_value(value) for key, value in (params or {}).items()},
    }
    if trace is not None:
        body["trace"] = dict(trace)
    assert request_frame(request_id, action, params, trace) == reference_frame(body)
    assert encode_frame(body) == reference_frame(body)
    reply = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": {key: encode_value(value) for key, value in (result or {}).items()},
    }
    assert response_frame(request_id, result) == reference_frame(reply)


def reference_decode(payload):
    """What a body decoded to before the scan: ``json.loads`` of its UTF-8,
    or None where the decoder must refuse it."""
    try:
        body = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    return body if isinstance(body, dict) else None


json_texts = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
).map(json.dumps)
whitespace = st.text(alphabet=" \t\n\r", max_size=3)
payloads = st.one_of(
    st.binary(max_size=40),
    st.tuples(
        whitespace,
        json_texts,
        whitespace | st.sampled_from(["x", "}", "{}", " 1", "\x00"]),
    ).map(lambda parts: "".join(parts).encode("utf-8")),
    st.tuples(json_texts, st.binary(max_size=4)).map(
        lambda parts: parts[0].encode("utf-8") + parts[1]
    ),
)


@given(payload=payloads)
@example(payload=b'{"a": 1}')
@example(payload=b'  {"a": [1, 2.5, "\xc3\xa9"]}\n')
@example(payload=b'{"a": 1} x')
@example(payload=b"\xef\xbb\xbf{}")
@example(payload=b"[" * 100_000)
@example(payload=b'{"n": ' + b"9" * 5000 + b"}")
@settings(max_examples=300, deadline=None)
def test_decoder_accepts_and_refuses_what_json_loads_does(payload):
    frame = HEADER.pack(len(payload)) + payload
    expected = reference_decode(payload)
    if expected is None:
        with pytest.raises(FrameError) as excinfo:
            FrameDecoder().feed(frame)
        assert excinfo.value.code == "BAD_FRAME"
    else:
        assert FrameDecoder().feed(frame) == [expected]


def test_frames_before_a_refused_body_are_still_yielded():
    bad = b"{} x"
    decoder = FrameDecoder()
    pings = request_frame(1, "ping") + request_frame(2, "ping")
    stream = decoder.feed_iter(pings + HEADER.pack(len(bad)) + bad)
    assert [next(stream)["id"], next(stream)["id"]] == [1, 2]
    with pytest.raises(FrameError):
        next(stream)
    assert decoder.pending_bytes == 0
