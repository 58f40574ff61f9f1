"""The versioned, length-prefixed JSON wire protocol.

Frame layout::

    +----------------+----------------------------------------+
    | 4 bytes, !I    | UTF-8 JSON body (``length`` bytes)     |
    | body length    |                                        |
    +----------------+----------------------------------------+

Every body is a JSON object carrying ``"v"`` (the protocol version,
checked per message so a single connection can never silently mix
versions) and ``"id"`` (the client-chosen request id, echoed verbatim in
the response — the key to idempotent commit-ack retry).  Payload values
JSON has no type for — operation argument tuples, fractions, horizon
sentinels, state-set frozensets — go through the tagged codec from
:mod:`repro.obs.codec`, so whatever round-trips through a trace file
round-trips over the wire byte-for-byte too; a ``str`` / ``int`` /
``float`` / ``bool`` / ``None`` value skips it both ways (the codec
returns those unchanged).

Requests name an ``action`` (``ping``, ``create``, ``begin``,
``invoke``, ``commit``, ``abort``, and the introspection ops ``stats``
and ``health``) plus action-specific ``params``; a request may also
carry an optional ``trace`` context — ``{"id": str, "sent": float}``,
the client-minted trace id and its send timestamp — which the server
threads into every ``server.*`` event it emits for the request, so an
end-to-end span can attribute each wire phase to the originating
client call.  The field is additive and ignored by older peers, so it
rides protocol version 1.  Responses are
``{"v", "id", "ok": true, "result": {...}}`` or
``{"v", "id", "ok": false, "error": {"code", "message"}}``.  Error
codes are the closed :data:`ERROR_CODES` set — a server must answer
*every* framing or semantic failure with a typed error (never by
crashing the event loop), and a client can dispatch on the code alone.

:class:`FrameDecoder` is an incremental push parser: feed it whatever
``recv`` returned — half a header, three frames and a torn fourth — and
it yields each completed message exactly once.  Each body costs one
pass of the C scanner under :func:`json.loads`, straight off the
buffered bytes; only a body that pass refuses (surrounding whitespace,
or an error) goes through ``json.loads`` itself, so leniency and error
texts are its.  Frame-level violations (oversized frame, malformed or
too deeply nested JSON, non-object body) raise :class:`FrameError` with
the error code the server should answer with before closing the
connection.  Encoding is one pass of one module-level compact
``JSONEncoder``.  :class:`Request` and :class:`Response` are slotted
classes, their fields set once at parse.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.errors import ReproError
from ..obs.codec import decode_value, encode_value

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "HEADER",
    "ACTIONS",
    "ERROR_CODES",
    "WireError",
    "FrameError",
    "Request",
    "Response",
    "encode_frame",
    "request_frame",
    "response_frame",
    "error_frame",
    "parse_request",
    "parse_response",
    "FrameDecoder",
]

#: Bump on any incompatible frame/body change; servers answer frames
#: carrying any other version with a ``BAD_VERSION`` error.
PROTOCOL_VERSION = 1

#: Default ceiling on one frame's body.  Large enough for any operation
#: batch the runtime accepts, small enough that a garbage length prefix
#: (e.g. an HTTP request aimed at our port) cannot balloon memory.
MAX_FRAME_BYTES = 1 << 20

#: The 4-byte network-order unsigned length prefix.
HEADER = struct.Struct("!I")

#: The closed set of request actions.  ``stats`` and ``health`` are the
#: in-band introspection ops: answered inline by the server (never
#: queued behind shard work), so they stay responsive under load.
ACTIONS = frozenset(
    {
        "ping",
        "create",
        "begin",
        "invoke",
        "commit",
        "abort",
        "stats",
        "health",
    }
)

#: The closed set of error codes a response may carry.
ERROR_CODES = frozenset(
    {
        "BAD_FRAME",        # undecodable body: not JSON / not an object
        "FRAME_TOO_LARGE",  # length prefix beyond the negotiated maximum
        "BAD_VERSION",      # protocol version mismatch
        "BAD_REQUEST",      # missing/unknown action or malformed params
        "UNKNOWN_OBJECT",   # no managed object by that name
        "UNKNOWN_TXN",      # no such transaction handle in this session
        "CONFLICT",         # lock refused, not waited out: abort and retry
        "WOULD_BLOCK",      # no legal outcome yet (retry)
        "ABORTED",          # transaction no longer active
        "BUSY",             # work queue past its high-water mark
        "SHUTTING_DOWN",    # server is draining; no new transactions
        "NO_VOTE",          # a 2PC participant lost the txn; aborted everywhere
        "SHARD_DOWN",       # shard worker process died; txn presumed aborted
        "INTERNAL",         # unexpected server-side failure
    }
)


class WireError(ReproError):
    """A typed protocol-level failure (client side or server side)."""

    def __init__(self, code: str, message: str = ""):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message or code)
        self.code = code
        self.message = message or code


class FrameError(WireError):
    """A frame-level violation: answer with the code, then disconnect."""


class Request:
    """One decoded client request.  ``trace`` is the optional client
    trace context ``{"id": str, "sent": float}``; its ``trace_id`` and
    ``sent`` are read out once, here, not per event emitted for it."""

    __slots__ = ("id", "action", "params", "trace", "trace_id", "sent")

    def __init__(self, id: int, action: str, params: Optional[Mapping[str, Any]] = None,
                 trace: Optional[Mapping[str, Any]] = None):
        self.id = id
        self.action = action
        self.params = {} if params is None else params
        self.trace = trace
        self.trace_id: Optional[str] = trace.get("id") if trace else None
        sent = trace.get("sent") if trace else None
        self.sent: Optional[float] = sent if isinstance(sent, (int, float)) else None


class Response:
    """One decoded server response."""

    __slots__ = ("id", "ok", "result", "error_code", "error_message")

    def __init__(self, id: Any, ok: bool, result: Optional[Mapping[str, Any]] = None,
                 error_code: Optional[str] = None, error_message: str = ""):
        self.id = id
        self.ok = ok
        self.result = {} if result is None else result
        self.error_code = error_code
        self.error_message = error_message

    def raise_for_error(self) -> "Response":
        """Raise :class:`WireError` when this is an error response."""
        if not self.ok:
            raise WireError(self.error_code or "INTERNAL", self.error_message)
        return self


#: The types JSON carries as they are: the tagged codec returns values of
#: these types unchanged, so they skip it both ways.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _tagged(values: Mapping[str, Any], codec: Callable[[Any], Any]) -> Dict[str, Any]:
    """A copy of ``values`` with ``codec`` applied to every non-scalar."""
    out = {}
    for key, value in values.items():
        out[key] = value if type(value) in _SCALARS else codec(value)
    return out


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

#: The one compact encoder: the bytes ``json.dumps(body, separators=(",",
#: ":"))`` produces, without building an encoder per frame.
_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(body: Mapping[str, Any]) -> bytes:
    """Frame one JSON-ready body: length prefix + UTF-8 JSON."""
    payload = _encode(body).encode()
    size = len(payload)
    if size > MAX_FRAME_BYTES:
        raise FrameError(
            "FRAME_TOO_LARGE", f"frame body is {size} bytes (max {MAX_FRAME_BYTES})"
        )
    return HEADER.pack(size) + payload


def request_frame(
    request_id: int,
    action: str,
    params: Optional[Mapping[str, Any]] = None,
    trace: Optional[Mapping[str, Any]] = None,
) -> bytes:
    """Encode one request; non-scalar params go through the tagged codec.

    ``trace`` is the optional client trace context (plain JSON — its
    ``id`` is a string, ``sent`` a float — so no codec pass needed).
    """
    body: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "action": action,
        "params": _tagged(params, encode_value) if params else {},
    }
    if trace is not None:
        body["trace"] = dict(trace)
    return encode_frame(body)


def response_frame(
    request_id: Any, result: Optional[Mapping[str, Any]] = None
) -> bytes:
    """Encode one success response; non-scalar results go through the
    tagged codec."""
    return encode_frame(
        {
            "v": PROTOCOL_VERSION,
            "id": request_id,
            "ok": True,
            "result": _tagged(result, encode_value) if result else {},
        }
    )


def error_frame(request_id: Any, code: str, message: str = "") -> bytes:
    """Encode one typed error response."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return encode_frame(
        {
            "v": PROTOCOL_VERSION,
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
    )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _bad_version(body: Mapping[str, Any]) -> WireError:
    return WireError(
        "BAD_VERSION",
        f"protocol version {body.get('v')!r} (this peer speaks {PROTOCOL_VERSION})",
    )


def parse_request(body: Mapping[str, Any]) -> Request:
    """Validate and decode one request body.

    Raises :class:`WireError` (``BAD_VERSION`` / ``BAD_REQUEST``) on any
    malformed message — the caller answers with the typed error and, for
    ``BAD_REQUEST``, keeps the connection alive.
    """
    if body.get("v") != PROTOCOL_VERSION:
        raise _bad_version(body)
    request_id = body.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise WireError("BAD_REQUEST", f"request id must be an integer, got {request_id!r}")
    action = body.get("action")
    if action not in ACTIONS:
        raise WireError(
            "BAD_REQUEST",
            f"unknown action {action!r}; expected one of {', '.join(sorted(ACTIONS))}",
        )
    params = body.get("params", {})
    if not isinstance(params, dict):
        raise WireError("BAD_REQUEST", "params must be an object")
    try:
        decoded = _tagged(params, decode_value)
    except (TypeError, ValueError, KeyError, ArithmeticError, RecursionError) as exc:
        raise WireError("BAD_REQUEST", f"undecodable tagged payload: {exc}") from exc
    trace = body.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise WireError("BAD_REQUEST", "trace context must be an object")
    return Request(request_id, action, decoded, trace)


def parse_response(body: Mapping[str, Any]) -> Response:
    """Validate and decode one response body (client side)."""
    if body.get("v") != PROTOCOL_VERSION:
        raise _bad_version(body)
    request_id = body.get("id")
    if body.get("ok"):
        result = body.get("result", {})
        if not isinstance(result, dict):
            raise WireError("BAD_REQUEST", "result must be an object")
        return Response(request_id, True, _tagged(result, decode_value))
    error = body.get("error")
    if not isinstance(error, dict) or "code" not in error:
        raise WireError("BAD_REQUEST", f"malformed error response: {body!r}")
    code, message = str(error.get("code")), str(error.get("message", ""))
    return Response(request_id, False, error_code=code, error_message=message)


#: The C scanner under ``json.loads``, without its whitespace regex passes.
_scan = json.JSONDecoder().scan_once


class FrameDecoder:
    """Incremental frame parser for one connection's byte stream.

    Feed arbitrary chunks; iterate the completed message bodies.  The
    decoder never assumes a frame arrives whole: a header may be torn
    across reads, a body may dribble in one byte at a time, and several
    frames may land in a single chunk — all are handled.

    Frame-level violations raise :class:`FrameError`; the decoder is
    then poisoned (the stream offset is unrecoverable) and the caller
    must close the connection after sending the typed error.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False
        #: Total complete messages decoded (for session accounting).
        self.decoded = 0

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message it completed."""
        return list(self.feed_iter(data))

    def feed_iter(self, data: bytes) -> Iterator[Dict[str, Any]]:
        """Absorb ``data``; yield each message it completed, then any violation."""
        if self._poisoned:
            raise FrameError("BAD_FRAME", "decoder already poisoned")
        buffer = self._buffer
        buffer += data
        size, start = len(buffer), 0
        try:
            while size - start >= HEADER.size:
                (length,) = HEADER.unpack_from(buffer, start)
                if length > self.max_frame_bytes:
                    self._poisoned = True
                    raise FrameError(
                        "FRAME_TOO_LARGE",
                        f"declared frame of {length} bytes"
                        f" (max {self.max_frame_bytes})",
                    )
                end = start + HEADER.size + length
                if end > size:
                    return
                payload = buffer[end - length : end]
                start = end
                try:
                    text = payload.decode()
                    body, stop = _scan(text, 0)
                    if stop != len(text) or type(body) is not dict:
                        raise ValueError
                except (StopIteration, ValueError, RecursionError):
                    body = self._refused(payload)
                self.decoded += 1
                yield body
        finally:
            del buffer[:start]

    def _refused(self, payload: bytes) -> Dict[str, Any]:
        """A body the scan refused, through ``json.loads``: what it accepts
        (surrounding whitespace) is a message, what it raises ``BAD_FRAME``."""
        try:
            body = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            self._poisoned = True
            raise FrameError("BAD_FRAME", f"undecodable frame body: {exc}") from exc
        if not isinstance(body, dict):
            self._poisoned = True
            raise FrameError(
                "BAD_FRAME", f"frame body must be an object, got {type(body).__name__}"
            )
        return body

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)


def split_frames(blob: bytes) -> Tuple[List[Dict[str, Any]], int]:
    """Decode every complete frame in ``blob`` (testing/tooling helper).

    Returns ``(messages, leftover_byte_count)``.
    """
    decoder = FrameDecoder()
    messages = decoder.feed(blob)
    return messages, decoder.pending_bytes
