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
— operation argument tuples, :class:`fractions.Fraction` balances,
horizon sentinels, state-set frozensets — are encoded with the tagged
codec from :mod:`repro.obs.codec`, so whatever round-trips through a
trace file round-trips over the wire byte-for-byte too.

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
it yields each completed message exactly once.  Frame-level violations
(oversized frame, malformed JSON, non-object body) raise
:class:`FrameError` with the error code the server should answer with
before closing the connection.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

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
        "CONFLICT",         # lock refused (retry after abort)
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


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    id: int
    action: str
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Optional client trace context: ``{"id": str, "sent": float}``.
    trace: Optional[Mapping[str, Any]] = None

    @property
    def trace_id(self) -> Optional[str]:
        """The client-minted trace id, when the request carried one."""
        return self.trace.get("id") if self.trace else None

    @property
    def sent(self) -> Optional[float]:
        """The client's send timestamp, when the request carried one."""
        value = self.trace.get("sent") if self.trace else None
        return value if isinstance(value, (int, float)) else None


@dataclass(frozen=True)
class Response:
    """One decoded server response."""

    id: Any
    ok: bool
    result: Mapping[str, Any] = field(default_factory=dict)
    error_code: Optional[str] = None
    error_message: str = ""

    def raise_for_error(self) -> "Response":
        """Raise :class:`WireError` when this is an error response."""
        if not self.ok:
            raise WireError(self.error_code or "INTERNAL", self.error_message)
        return self


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_frame(body: Mapping[str, Any]) -> bytes:
    """Frame one JSON-ready body: length prefix + UTF-8 JSON."""
    payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            "FRAME_TOO_LARGE",
            f"frame body is {len(payload)} bytes (max {MAX_FRAME_BYTES})",
        )
    return HEADER.pack(len(payload)) + payload


def request_frame(
    request_id: int,
    action: str,
    params: Optional[Mapping[str, Any]] = None,
    trace: Optional[Mapping[str, Any]] = None,
) -> bytes:
    """Encode one request; params go through the tagged codec.

    ``trace`` is the optional client trace context (plain JSON — its
    ``id`` is a string, ``sent`` a float — so no codec pass needed).
    """
    body: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "action": action,
        "params": {
            key: encode_value(value) for key, value in (params or {}).items()
        },
    }
    if trace is not None:
        body["trace"] = dict(trace)
    return encode_frame(body)


def response_frame(
    request_id: Any, result: Optional[Mapping[str, Any]] = None
) -> bytes:
    """Encode one success response; result goes through the tagged codec."""
    return encode_frame(
        {
            "v": PROTOCOL_VERSION,
            "id": request_id,
            "ok": True,
            "result": {
                key: encode_value(value) for key, value in (result or {}).items()
            },
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


def _require_version(body: Mapping[str, Any]) -> None:
    version = body.get("v")
    if version != PROTOCOL_VERSION:
        raise WireError(
            "BAD_VERSION",
            f"protocol version {version!r} (this peer speaks {PROTOCOL_VERSION})",
        )


def parse_request(body: Mapping[str, Any]) -> Request:
    """Validate and decode one request body.

    Raises :class:`WireError` (``BAD_VERSION`` / ``BAD_REQUEST``) on any
    malformed message — the caller answers with the typed error and, for
    ``BAD_REQUEST``, keeps the connection alive.
    """
    _require_version(body)
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
        decoded = {key: decode_value(value) for key, value in params.items()}
    except (TypeError, ValueError, KeyError) as exc:
        raise WireError(
            "BAD_REQUEST", f"undecodable tagged payload: {exc}"
        ) from exc
    trace = body.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise WireError("BAD_REQUEST", "trace context must be an object")
    return Request(id=request_id, action=action, params=decoded, trace=trace)


def parse_response(body: Mapping[str, Any]) -> Response:
    """Validate and decode one response body (client side)."""
    _require_version(body)
    request_id = body.get("id")
    if body.get("ok"):
        result = body.get("result", {})
        if not isinstance(result, dict):
            raise WireError("BAD_REQUEST", "result must be an object")
        return Response(
            id=request_id,
            ok=True,
            result={key: decode_value(value) for key, value in result.items()},
        )
    error = body.get("error")
    if not isinstance(error, dict) or "code" not in error:
        raise WireError("BAD_REQUEST", f"malformed error response: {body!r}")
    return Response(
        id=request_id,
        ok=False,
        error_code=str(error.get("code")),
        error_message=str(error.get("message", "")),
    )


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
        if self._poisoned:
            raise FrameError("BAD_FRAME", "decoder already poisoned")
        self._buffer.extend(data)
        while True:
            message = self._next()
            if message is None:
                return
            yield message

    def _next(self) -> Optional[Dict[str, Any]]:
        header = HEADER.size
        if len(self._buffer) < header:
            return None
        (length,) = HEADER.unpack_from(self._buffer)
        if length > self.max_frame_bytes:
            self._poisoned = True
            raise FrameError(
                "FRAME_TOO_LARGE",
                f"declared frame of {length} bytes (max {self.max_frame_bytes})",
            )
        if len(self._buffer) < header + length:
            return None
        payload = bytes(self._buffer[header : header + length])
        del self._buffer[: header + length]
        try:
            body = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._poisoned = True
            raise FrameError("BAD_FRAME", f"undecodable frame body: {exc}") from exc
        if not isinstance(body, dict):
            self._poisoned = True
            raise FrameError(
                "BAD_FRAME", f"frame body must be an object, got {type(body).__name__}"
            )
        self.decoded += 1
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
