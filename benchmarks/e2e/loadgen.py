"""The closed-loop load generator: one process, one thread, one
``selectors`` loop.

Each connection multiplexes several logical clients by request id; a
client sends its next request only after the previous reply, so the
load is closed-loop by construction.  The wire is spoken only through
``repro.server.protocol``'s public ``request_frame`` / ``FrameDecoder``
/ ``parse_response``, so the generator follows any protocol change.

A shipped-client-based generator (``AsyncClient``) burned as much CPU as
the server it was loading; this loop uses a third to a half of a core
(about half of that in the kernel's loopback path), and
:attr:`WindowResult.cpu_share` is checked by the harness so a generator
that became the bottleneck invalidates the run instead of hiding in it.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.server.protocol import FrameDecoder, parse_response, request_frame

from plans import ENQ_STRIDE, Txn, Workload
from spin import Timeline

#: A logical transaction is retried at once after CONFLICT/WOULD_BLOCK,
#: this many attempts in all.  Ten were exhausted by about one
#: ``mem-contended`` transaction in 6,000: two clients that each hold
#: what the other reads retry in lock step until timing noise separates
#: them, so with ten a failure count of zero could not repeat.
MAX_ATTEMPTS = 64

RETRYABLE = ("CONFLICT", "WOULD_BLOCK")

#: One applied operation: (object, operation, args, result).
Effect = Tuple[str, str, Tuple[Any, ...], Any]

_BEGIN, _OP, _COMMIT, _ABORT, _IDLE = range(5)

#: Owner of the 1 Hz in-band ``stats`` request (not a logical client).
_STATS_PROBE = object()


class GeneratorError(RuntimeError):
    """The generator lost the server or its own bookkeeping."""


class _Client:
    """One logical client: a cursor over its plan and one open request."""

    __slots__ = (
        "index", "conn", "plan", "cursor", "attempt", "step", "handle",
        "state", "started", "effects", "give_up", "requests",
    )

    def __init__(self, index: int, conn: "_Conn", plan: List[Txn]):
        self.index = index
        self.conn = conn
        self.plan = plan
        self.cursor = 0  # logical transactions started so far
        self.attempt = 0
        self.step = 0
        self.handle = ""
        self.state = _IDLE
        self.started = 0.0
        self.effects: List[Effect] = []
        self.give_up: Optional[str] = None  # error code ending this txn
        self.requests = 0  # sent for the current logical transaction


class _Conn:
    __slots__ = (
        "sock", "decoder", "pending", "out", "next_id", "writing",
        "recvs", "frames_in", "bytes_in", "bytes_out",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
        self.pending: Dict[int, Any] = {}
        self.out = bytearray()
        self.next_id = 1
        self.writing = False
        self.recvs = 0
        self.frames_in = 0
        self.bytes_in = 0
        self.bytes_out = 0


@dataclass
class Ledger:
    """What the server acknowledged, for the oracle."""

    #: (commit timestamp, effects) per acknowledged commit, ack order.
    committed: List[Tuple[Any, List[Effect]]] = field(default_factory=list)
    #: Effects of commits sent but not acknowledged (set at a crash).
    in_doubt: List[List[Effect]] = field(default_factory=list)


@dataclass
class WindowResult:
    """Raw observations of one measured window."""

    started: float
    ended: float
    #: (ack time, first-begin to commit-ack seconds) of window commits.
    latencies: List[Tuple[float, float]]
    attempts: int
    #: Request and response frames of the window's committed
    #: transactions, failed attempts included.
    txn_frames: int
    invokes: int
    retryable: Dict[str, int]
    cross_commits: int
    #: (time, parent cpu s, children cpu s) at bucket edges.
    cpu_samples: List[Tuple[float, float, float]]
    own_cpu_s: float
    recvs: int
    frames_in: int
    bytes_in: int
    bytes_out: int
    stats_samples: List[Dict[str, Any]]
    #: The box's speed over the window, attached by the harness from the
    #: spin helper's samples.
    timeline: Optional[Timeline] = None

    @property
    def commits(self) -> int:
        return len(self.latencies)

    @property
    def cpu_share(self) -> float:
        return self.own_cpu_s / (self.ended - self.started)


class LoadGenerator:
    """Drives one workload against a running server."""

    def __init__(
        self,
        host: str,
        port: int,
        workload: Workload,
        plans: List[List[Txn]],
        server_cpu: Callable[[], Tuple[float, float]],
        stamp_trace: bool = False,
        sample_stats: bool = False,
        is_cross: Optional[Callable[[Txn], bool]] = None,
    ):
        self.ledger = Ledger()
        self._server_cpu = server_cpu
        self._stamp = stamp_trace
        self._is_cross = is_cross
        self._selector = selectors.DefaultSelector()
        self._conns: List[_Conn] = []
        self._clients: List[_Client] = []
        for number in range(workload.connections):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self._conns.append(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            for slot in range(workload.in_flight):
                index = number * workload.in_flight + slot
                self._clients.append(_Client(index, conn, plans[index]))
        #: The 1 Hz in-band ``stats`` probe has a connection of its own, so
        #: the clients' frame and byte counts stay exact.
        self._stats_conn: Optional[_Conn] = None
        if sample_stats:
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setblocking(False)
            self._stats_conn = _Conn(sock)
            self._selector.register(sock, selectors.EVENT_READ, self._stats_conn)
        self._stopping = False
        self._measuring = False
        #: Whole-run tallies (warm-up and drain included): logical
        #: transactions started, and the ones that did not commit, by
        #: error code.
        self.started_txns = 0
        self.failed: Dict[str, int] = {}
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._latencies: List[Tuple[float, float]] = []
        self._attempts = 0
        self._txn_frames = 0
        self._invokes = 0
        self._retryable = {code: 0 for code in RETRYABLE}
        self._cross_commits = 0
        self._stats: List[Dict[str, Any]] = []
        for conn in self._conns:
            conn.recvs = conn.frames_in = 0
            conn.bytes_in = conn.bytes_out = 0

    # -- wire ----------------------------------------------------------

    def _send(self, client: _Client, action: str, params: Dict[str, Any]) -> None:
        conn = client.conn
        rid = conn.next_id
        conn.next_id = rid + 1
        conn.pending[rid] = client
        client.requests += 1
        trace = None
        if self._stamp:
            trace = {
                "id": f"g{client.index}-{client.cursor}",
                "sent": time.monotonic(),
            }
        conn.out += request_frame(rid, action, params, trace)

    def _flush(self, conn: _Conn) -> None:
        if not conn.out:
            return
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        conn.bytes_out += sent
        del conn.out[:sent]
        want_write = bool(conn.out)
        if want_write != conn.writing:
            conn.writing = want_write
            events = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if want_write else 0
            )
            self._selector.modify(conn.sock, events, conn)

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(262144)
        except BlockingIOError:
            return
        if not data:
            raise GeneratorError("server closed the connection")
        conn.recvs += 1
        conn.bytes_in += len(data)
        for body in conn.decoder.feed(data):
            conn.frames_in += 1
            response = parse_response(body)
            owner = conn.pending.pop(response.id, None)
            if owner is None:
                raise GeneratorError(f"reply to unknown request {response.id!r}")
            if isinstance(owner, _Client):
                self._advance(owner, response)
            else:  # the 1 Hz in-band stats probe
                self._stats.append(dict(response.raise_for_error().result))
        self._flush(conn)

    # -- the per-client state machine -----------------------------------

    def _begin(self, client: _Client) -> None:
        client.state = _BEGIN
        client.step = 0
        client.effects = []
        self._attempts += 1
        self._send(client, "begin", {})

    def _next_txn(self, client: _Client) -> None:
        if self._stopping:
            client.state = _IDLE
            return
        client.cursor += 1
        client.attempt = 0
        client.give_up = None
        client.requests = 0
        client.started = time.perf_counter()
        self.started_txns += 1
        self._begin(client)

    def _txn(self, client: _Client) -> Txn:
        return client.plan[(client.cursor - 1) % len(client.plan)]

    def _op(self, client: _Client) -> Tuple[str, str, Tuple[Any, ...]]:
        """The current step's operation, enqueued values numbered."""
        obj, operation, args = self._txn(client)[client.step]
        if operation == "Enq":
            args = (client.index * ENQ_STRIDE + client.cursor * 8 + client.step,)
        return obj, operation, args

    def _send_step(self, client: _Client) -> None:
        if client.step == len(self._txn(client)):
            client.state = _COMMIT
            self._send(client, "commit", {"transaction": client.handle})
            return
        obj, operation, args = self._op(client)
        client.state = _OP
        self._invokes += 1
        self._send(
            client,
            "invoke",
            {
                "transaction": client.handle,
                "obj": obj,
                "operation": operation,
                "args": args,
            },
        )

    def _fail(self, client: _Client, code: str) -> None:
        self.failed[code] = self.failed.get(code, 0) + 1
        self._next_txn(client)

    def _advance(self, client: _Client, response: Any) -> None:
        state = client.state
        if response.ok:
            if state == _BEGIN:
                client.handle = response.result["transaction"]
                self._send_step(client)
            elif state == _OP:
                client.effects.append(
                    (*self._op(client), response.result["result"])
                )
                client.step += 1
                self._send_step(client)
            elif state == _COMMIT:
                now = time.perf_counter()
                self.ledger.committed.append(
                    (response.result["timestamp"], client.effects)
                )
                if self._measuring:
                    self._latencies.append((now, now - client.started))
                    self._txn_frames += 2 * client.requests
                    if self._is_cross is not None and self._is_cross(
                        self._txn(client)
                    ):
                        self._cross_commits += 1
                self._next_txn(client)
            elif client.give_up is not None:  # abort after a hard error
                self._fail(client, client.give_up)
            else:  # abort after CONFLICT/WOULD_BLOCK: retry at once
                client.attempt += 1
                if client.attempt >= MAX_ATTEMPTS:
                    self._fail(client, "RETRIES_EXHAUSTED")
                else:
                    self._begin(client)
            return
        code = response.error_code or "INTERNAL"
        if state == _OP:
            if code in RETRYABLE:
                self._retryable[code] += 1
            else:
                client.give_up = code
            client.state = _ABORT
            self._send(client, "abort", {"transaction": client.handle})
        else:
            # A refused begin, or a commit/abort the server has already
            # finished: nothing is left open to clean up.
            self._fail(client, code)

    # -- phases ----------------------------------------------------------

    def _sample(self, cpu_samples: List[Tuple[float, float, float]]) -> None:
        """Read the server tree's CPU time and, when asked to, request an
        in-band ``stats`` snapshot (the reply is collected as it comes)."""
        cpu_samples.append((time.perf_counter(), *self._server_cpu()))
        conn = self._stats_conn
        if conn is not None:
            rid = conn.next_id
            conn.next_id = rid + 1
            conn.pending[rid] = _STATS_PROBE
            conn.out += request_frame(rid, "stats", {})
            self._flush(conn)

    def _loop(
        self,
        until: Optional[float],
        sample_from: Optional[float],
        cpu_samples: List[Tuple[float, float, float]],
    ) -> None:
        """Serve events until ``until`` (or, when None, until every
        client is idle); from ``sample_from`` on, sample the server's
        CPU (and in-band stats) once a second."""
        selector = self._selector
        next_sample = sample_from + 1.0 if sample_from is not None else None
        drain_deadline = time.perf_counter() + 30.0
        while True:
            now = time.perf_counter()
            if until is None:
                if all(c.state == _IDLE for c in self._clients):
                    return
                if now > drain_deadline:
                    raise GeneratorError("in-flight transactions never finished")
                deadline = now + 0.5
            elif now >= until:
                return
            else:
                deadline = until
            if next_sample is not None:
                if now >= next_sample:
                    self._sample(cpu_samples)
                    next_sample += 1.0
                    continue
                deadline = min(deadline, next_sample)
            for key, mask in selector.select(max(0.0, deadline - now)):
                conn = key.data
                if mask & selectors.EVENT_READ:
                    self._on_readable(conn)
                if mask & selectors.EVENT_WRITE:
                    self._flush(conn)

    def _start_clients(self) -> None:
        self._stopping = False
        self._measuring = False
        for client in self._clients:
            self._next_txn(client)
        for conn in self._conns:
            self._flush(conn)

    def run(self, warmup_s: float, window_s: float) -> WindowResult:
        """Warm up, measure one window, then let in-flight work finish."""
        cpu_samples: List[Tuple[float, float, float]] = []
        self._start_clients()
        self._loop(time.perf_counter() + warmup_s, None, cpu_samples)
        # -- measured window --
        self._reset_counters()
        self._measuring = True
        own_cpu = time.process_time()
        started = time.perf_counter()
        self._sample(cpu_samples)
        self._loop(started + window_s, started, cpu_samples)
        ended = time.perf_counter()
        if cpu_samples[-1][0] < ended - 0.5:
            self._sample(cpu_samples)
        own_cpu = time.process_time() - own_cpu
        result = WindowResult(
            started=started,
            ended=ended,
            latencies=self._latencies,
            attempts=self._attempts,
            txn_frames=self._txn_frames,
            invokes=self._invokes,
            retryable=dict(self._retryable),
            cross_commits=self._cross_commits,
            cpu_samples=cpu_samples,
            own_cpu_s=own_cpu,
            recvs=sum(c.recvs for c in self._conns),
            frames_in=sum(c.frames_in for c in self._conns),
            bytes_in=sum(c.bytes_in for c in self._conns),
            bytes_out=sum(c.bytes_out for c in self._conns),
            stats_samples=self._stats,
        )
        # -- drain: no new transactions; the open ones finish --
        self._measuring = False
        self._stopping = True
        self._loop(None, None, [])
        return result

    def run_until_crash(self, seconds: float, crash: Callable[[], None]) -> None:
        """Resume the load, then call ``crash`` mid-flight and record the
        commits left in doubt (sent, never acknowledged)."""
        self._start_clients()
        self._loop(time.perf_counter() + seconds, None, [])
        crash()
        self.ledger.in_doubt = [
            client.effects for client in self._clients if client.state == _COMMIT
        ]

    def close(self) -> None:
        for conn in [*self._conns, *filter(None, [self._stats_conn])]:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self._selector.close()
