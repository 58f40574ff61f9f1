"""The serving tier: a real socket boundary over the runtime managers.

The concurrency-control kernel (machines, managers, protocols) is pure
and synchronous; this package is where the outside world attaches:

* :mod:`~repro.server.protocol` — the versioned, length-prefixed JSON
  wire protocol (payloads through the tagged trace codec);
* :mod:`~repro.server.session` — per-connection transaction handles and
  the idempotent commit-ack cache;
* :mod:`~repro.server.engine` — the one shard engine (manager, stride,
  optional WAL; the op vocabulary and the only exception → error-code
  ladder), its in-process transport, and the shard set with the
  presumed-abort 2PC coordinator;
* :mod:`~repro.server.core` — the sans-IO serving core: sessions, BUSY
  admission, one pending FIFO per shard, request → op planning, parking
  and the round driver, for whichever transport the shards sit behind;
* :mod:`~repro.server.server` — its asyncio shell: sockets, the
  process shards' pipes, the wait-bound timer and graceful drain;
* :mod:`~repro.server.procpool` — the process transport: one WAL-backed
  engine per OS process under group commit, supervised respawn with
  recovery;
* :mod:`~repro.server.client` — sync and asyncio client libraries;
* :mod:`~repro.server.top` — the curses-free live view behind
  ``repro top``, rendered from the in-band ``stats`` op.

See ``docs/serving.md`` for the protocol and lifecycle reference; the
tier is measured from outside the process by ``benchmarks/e2e/``.
"""

from .client import AsyncClient, SyncClient
from .engine import ShardDown, ShardedTimestampGenerator, ShardEngine, shard_for
from .procpool import ShardProcess, ShardProcessPool
from .protocol import (
    ACTIONS,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    Request,
    Response,
    WireError,
    encode_frame,
    error_frame,
    parse_request,
    parse_response,
    request_frame,
    response_frame,
)
from .server import ReproServer
from .session import Session, TxnRecord
from .top import render_top, run_top

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ACTIONS",
    "ERROR_CODES",
    "WireError",
    "FrameError",
    "Request",
    "Response",
    "FrameDecoder",
    "encode_frame",
    "request_frame",
    "response_frame",
    "error_frame",
    "parse_request",
    "parse_response",
    "Session",
    "TxnRecord",
    "ReproServer",
    "ShardedTimestampGenerator",
    "shard_for",
    "ShardEngine",
    "ShardProcess",
    "ShardProcessPool",
    "ShardDown",
    "SyncClient",
    "AsyncClient",
    "render_top",
    "run_top",
]
