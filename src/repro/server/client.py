"""Client library for the serving tier: sync and asyncio variants.

Both clients speak the length-prefixed protocol of
:mod:`repro.server.protocol` and correlate responses by request id —
necessary because the server answers cheap bookkeeping requests
(``ping``, ``begin``) inline while queued work (``invoke``, ``commit``)
waits for its shard, so responses can legally overtake each other on
one connection.

Idempotent completion retry
---------------------------

``commit``/``abort`` accept an explicit ``request_id``.  Reusing the id
of an unacknowledged completion *replays the server's cached decision*
instead of re-executing it — the wire-level answer to "the commit ack
was lost; did my transaction commit?".  :meth:`SyncClient.commit` mints
the id up front and reuses it across its own retransmits for exactly
this reason.

Trace propagation
-----------------

Every request is stamped with a ``trace`` context: a client-minted
trace id (``c<client>-<seq>``) and the ``time.monotonic()`` send
timestamp.  A transaction's requests all reuse the trace id minted at
``begin``, so the server-side ``server.*`` events — and the end-to-end
span the :class:`~repro.obs.SpanBuilder` assembles from them — name one
id for the whole client call chain.  The ``sent`` timestamp is only
comparable with the server's clock when both ends share
``CLOCK_MONOTONIC`` (same machine — the benchmark and test topology);
cross-host deployments should read the ``client`` span phase as
approximate.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from typing import Any, Dict, Optional, Tuple

from .protocol import (
    FrameDecoder,
    Response,
    WireError,
    parse_response,
    request_frame,
)

__all__ = ["SyncClient", "AsyncClient"]

#: Process-wide client numbering, so the clients of one process mint
#: disjoint trace-id spaces.
_CLIENT_IDS = itertools.count(1)


class _TraceMinter:
    """Per-client trace ids plus the handle→trace binding for reuse."""

    def __init__(self) -> None:
        self._prefix = f"c{next(_CLIENT_IDS)}"
        self._seq = itertools.count(1)
        #: transaction handle -> the trace id minted at its ``begin``.
        self.by_txn: Dict[str, str] = {}

    def mint(self) -> str:
        return f"{self._prefix}-{next(self._seq)}"

    def context(self, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """The wire ``trace`` object (mints a fresh id when not given)."""
        return {
            "id": trace_id if trace_id is not None else self.mint(),
            "sent": time.monotonic(),
        }


class SyncClient:
    """A blocking client for scripts, tests, and probes.

    Not thread-safe; one instance per thread.  Responses are matched by
    request id, so a slow queued operation never corrupts the reply of a
    fast inline one.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)
        self._pending: Dict[int, Response] = {}
        self._traces = _TraceMinter()
        self.closed = False

    # -- low-level -----------------------------------------------------

    def next_id(self) -> int:
        """Mint a fresh request id (mint one yourself to retry a commit)."""
        return next(self._ids)

    def send(self, action: str, params: Optional[Dict[str, Any]] = None,
             request_id: Optional[int] = None,
             trace_id: Optional[str] = None) -> int:
        """Transmit one request; returns the id to wait on.

        Every request carries a trace context; ``trace_id`` reuses an
        existing id (a transaction's), else a fresh one is minted.
        """
        if request_id is None:
            request_id = self.next_id()
        self._sock.sendall(
            request_frame(
                request_id, action, params, self._traces.context(trace_id)
            )
        )
        return request_id

    def wait(self, request_id: int) -> Response:
        """Block until the response for ``request_id`` arrives."""
        while True:
            response = self._pending.pop(request_id, None)
            if response is not None:
                return response
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            for body in self._decoder.feed_iter(data):
                response = parse_response(body)
                self._pending[response.id] = response

    def call(self, action: str, params: Optional[Dict[str, Any]] = None,
             request_id: Optional[int] = None,
             trace_id: Optional[str] = None) -> Response:
        """Send one request and block for its (possibly error) response."""
        return self.wait(self.send(action, params, request_id, trace_id))

    # -- protocol verbs ------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Round-trip a ping; returns the server's status result."""
        return dict(self.call("ping").raise_for_error().result)

    def stats(self) -> Dict[str, Any]:
        """The server's live introspection snapshot (in-band ``stats``)."""
        return dict(self.call("stats").raise_for_error().result)

    def health(self) -> Dict[str, Any]:
        """The server's liveness summary (in-band ``health``)."""
        return dict(self.call("health").raise_for_error().result)

    def create(self, name: str, adt: str, protocol: Optional[str] = None) -> int:
        """Create ``name`` as an instance of ``adt``; returns its shard."""
        params: Dict[str, Any] = {"name": name, "adt": adt}
        if protocol:
            params["protocol"] = protocol
        return self.call("create", params).raise_for_error().result["worker"]

    def begin(self) -> str:
        """Open a transaction; returns its handle.

        The trace id minted here is reused for every later request of
        the same transaction, so the whole chain shares one trace.
        """
        trace_id = self._traces.mint()
        handle = (
            self.call("begin", trace_id=trace_id)
            .raise_for_error()
            .result["transaction"]
        )
        self._traces.by_txn[handle] = trace_id
        return handle

    def invoke(self, transaction: str, obj: str, operation: str, *args: Any) -> Any:
        """Invoke one ADT operation inside ``transaction``."""
        response = self.call(
            "invoke",
            {
                "transaction": transaction,
                "obj": obj,
                "operation": operation,
                "args": tuple(args),
            },
            trace_id=self._traces.by_txn.get(transaction),
        )
        return response.raise_for_error().result["result"]

    def commit(
        self, transaction: str, request_id: Optional[int] = None, retries: int = 3
    ) -> Any:
        """Commit; returns the commit timestamp (None for an empty txn).

        The request id is minted once and reused across retransmits, so
        a commit whose ack was lost is *replayed*, never re-decided.
        """
        if request_id is None:
            request_id = self.next_id()
        trace_id = self._traces.by_txn.get(transaction)
        for _attempt in range(max(1, retries)):
            response = self.call(
                "commit", {"transaction": transaction}, request_id, trace_id
            )
            if response.error_code != "BUSY":
                # Committed or refused, the server has closed the handle.
                self._traces.by_txn.pop(transaction, None)
                break
        return response.raise_for_error().result["timestamp"]

    def abort(self, transaction: str, request_id: Optional[int] = None) -> None:
        """Abort ``transaction`` (idempotent under request-id reuse)."""
        trace_id = self._traces.by_txn.pop(transaction, None)
        self.call(
            "abort", {"transaction": transaction}, request_id, trace_id
        ).raise_for_error()

    def close(self) -> None:
        """Close the socket (any open transactions are server-aborted)."""
        if not self.closed:
            self.closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "SyncClient":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class AsyncClient:
    """An asyncio client; safe for many in-flight requests at once.

    A background reader task resolves one future per request id, so any
    number of coroutines can share a single connection and pipeline
    their requests on it.
    """

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)
        self._futures: Dict[int, "asyncio.Future[Response]"] = {}
        self._reader_task: Optional[asyncio.Task] = None
        #: Why the read loop ended; no reply can arrive once it is set.
        self._broken: Optional[Exception] = None
        self._traces = _TraceMinter()
        self.closed = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncClient":
        """Open a connection and start the response-reader task."""
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        client._reader_task = asyncio.ensure_future(client._read_loop())
        return client

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    break
                for body in self._decoder.feed_iter(data):
                    response = parse_response(body)
                    future = self._futures.pop(response.id, None)
                    if future is not None and not future.done():
                        future.set_result(response)
        except (ConnectionError, OSError, WireError) as exc:
            self._fail_pending(exc)
            return
        self._fail_pending(ConnectionError("server closed the connection"))

    def _fail_pending(self, exc: Exception) -> None:
        self._broken = exc
        for future in self._futures.values():
            if not future.done():
                future.set_exception(exc)
        self._futures.clear()

    def next_id(self) -> int:
        """Mint a fresh request id."""
        return next(self._ids)

    async def call(
        self,
        action: str,
        params: Optional[Dict[str, Any]] = None,
        request_id: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> Response:
        """Send one request and await its (possibly error) response."""
        if self._writer is None:
            raise ConnectionError("not connected")
        if self._broken is not None:
            # The socket may still take the write (half-closed), but
            # nobody is left to deliver the reply.
            raise ConnectionError(str(self._broken)) from self._broken
        if request_id is None:
            request_id = self.next_id()
        future: "asyncio.Future[Response]" = (
            asyncio.get_running_loop().create_future()
        )
        self._futures[request_id] = future
        self._writer.write(
            request_frame(
                request_id, action, params, self._traces.context(trace_id)
            )
        )
        await self._writer.drain()
        return await future

    # -- protocol verbs ------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        """Round-trip a ping; returns the server's status result."""
        return dict((await self.call("ping")).raise_for_error().result)

    async def stats(self) -> Dict[str, Any]:
        """The server's live introspection snapshot (in-band ``stats``)."""
        return dict((await self.call("stats")).raise_for_error().result)

    async def health(self) -> Dict[str, Any]:
        """The server's liveness summary (in-band ``health``)."""
        return dict((await self.call("health")).raise_for_error().result)

    async def create(
        self, name: str, adt: str, protocol: Optional[str] = None
    ) -> int:
        """Create ``name`` as an instance of ``adt``; returns its shard."""
        params: Dict[str, Any] = {"name": name, "adt": adt}
        if protocol:
            params["protocol"] = protocol
        response = await self.call("create", params)
        return response.raise_for_error().result["worker"]

    async def begin(self) -> str:
        """Open a transaction; returns its handle (trace id reused)."""
        trace_id = self._traces.mint()
        response = await self.call("begin", trace_id=trace_id)
        handle = response.raise_for_error().result["transaction"]
        self._traces.by_txn[handle] = trace_id
        return handle

    async def invoke(
        self, transaction: str, obj: str, operation: str, *args: Any
    ) -> Any:
        """Invoke one ADT operation inside ``transaction``."""
        response = await self.call(
            "invoke",
            {
                "transaction": transaction,
                "obj": obj,
                "operation": operation,
                "args": tuple(args),
            },
            trace_id=self._traces.by_txn.get(transaction),
        )
        return response.raise_for_error().result["result"]

    async def commit(
        self, transaction: str, request_id: Optional[int] = None
    ) -> Tuple[Any, Response]:
        """Commit; returns ``(timestamp, response)``.

        Pass the same ``request_id`` again to retry an unacknowledged
        commit: the server replays its cached decision.
        """
        trace_id = self._traces.by_txn.get(transaction)
        response = await self.call(
            "commit", {"transaction": transaction}, request_id, trace_id
        )
        if response.error_code != "BUSY":
            # Committed or refused, the server has closed the handle.
            self._traces.by_txn.pop(transaction, None)
        response.raise_for_error()
        return response.result["timestamp"], response

    async def abort(
        self, transaction: str, request_id: Optional[int] = None
    ) -> None:
        """Abort ``transaction`` (idempotent under request-id reuse)."""
        trace_id = self._traces.by_txn.pop(transaction, None)
        (
            await self.call(
                "abort", {"transaction": transaction}, request_id, trace_id
            )
        ).raise_for_error()

    async def aclose(self) -> None:
        """Close the connection and stop the reader task."""
        if self.closed:
            return
        self.closed = True
        if self._writer is not None:
            try:
                self._writer.close()
            except (ConnectionError, RuntimeError, OSError):
                pass
        if self._reader_task is not None:
            try:
                await self._reader_task
            except (ConnectionError, OSError):
                pass
