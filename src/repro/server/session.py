"""Per-connection session state: transaction handles and idempotent acks.

A session is the server-side shadow of one client connection.  It owns

* the connection's *transaction handles* — short opaque strings minted at
  ``begin`` and mapped to a :class:`TxnRecord`: the *primary* shard
  (first touch) and the full *participant set* of shards the transaction
  has touched (the transaction itself lives in the shard engines, under
  the handle as its name).  Single-shard transactions have one
  participant; over process shards a transaction may touch several, and
  commit then runs two-phase commit across exactly the recorded
  participants — the
  record is the coordinator's worklist, so completion (or a worker
  death) can always clean up every shard that ever heard of the
  transaction, leaking nothing;
* the *completion-ack cache* — the protocol's answer to the classic
  "commit ack lost in flight" problem.  A ``commit`` or ``abort``
  decision is made exactly once; the response body is cached under the
  request id, and a retry of the *same* request id replays the cached
  ack instead of re-executing (the transaction is long gone from the
  manager by then).  The cache is bounded: acks are retired FIFO once
  ``ack_capacity`` decisions are remembered, which is plenty — a sane
  client retries only its most recent unacknowledged commit.

The module is deliberately pure (no sockets, no clocks): it is the part
of the serving tier that stays under the full REP104/REP106 lint
discipline, and it is unit-testable without an event loop.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional

__all__ = ["Session", "TxnRecord"]


class TxnRecord:
    """One open handle: where the transaction runs and what it touched.

    ``primary`` is the shard that first-touch began the transaction (the
    2PC decider); ``participants`` lists every shard it has touched, in
    touch order, primary first — recorded when the touching request is
    admitted, so a completion admitted behind it sees it.  An unbound
    record (``primary is None``) belongs to a transaction no invoke was
    admitted for: its completion is decided inline.  A ``completing``
    handle had its completion admitted, so no invoke of it is admitted
    any more.
    """

    __slots__ = ("primary", "participants", "completing")

    def __init__(self) -> None:
        self.primary: Optional[int] = None
        self.participants: List[int] = []
        self.completing = False

    @property
    def bound(self) -> bool:
        """Has the transaction touched any shard yet?"""
        return self.primary is not None

    @property
    def cross_shard(self) -> bool:
        """Has the transaction touched more than one shard?"""
        return len(self.participants) > 1

    @property
    def deciding(self) -> bool:
        """Does a multi-shard completion's round own the handle?"""
        return self.completing and len(self.participants) > 1

    def touch(self, worker: int) -> bool:
        """Record a touch of ``worker``; True when the shard is new."""
        if self.primary is None:
            self.primary = worker
        if worker in self.participants:
            return False
        self.participants.append(worker)
        return True


class Session:
    """State for one client connection.

    Parameters
    ----------
    session_id:
        Server-assigned, unique for the server's lifetime; embedded in
        transaction names so traces from thousands of connections never
        collide.
    peer:
        Printable remote address (trace payloads only).
    ack_capacity:
        How many completed commit/abort decisions to remember for
        idempotent retry.
    """

    __slots__ = (
        "session_id",
        "name",
        "peer",
        "transactions",
        "requests",
        "_next_txn",
        "_acks",
        "_ack_capacity",
    )

    def __init__(self, session_id: int, peer: str = "?", ack_capacity: int = 256):
        self.session_id = session_id
        #: The session's name as it appears in trace payloads.
        self.name = f"s{session_id}"
        self.peer = peer
        #: handle -> TxnRecord (primary shard, participant set).
        #: The binding is lazy: a transaction is pinned to the shard
        #: owning the first object it touches.
        self.transactions: Dict[str, TxnRecord] = {}
        #: Requests parsed on this session — counted before admission, so
        #: refused ones (BUSY, routing errors) are included.
        self.requests = 0
        self._next_txn = 0
        self._acks: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
        self._ack_capacity = ack_capacity

    # -- transaction handles -------------------------------------------

    def mint_handle(self) -> str:
        """A fresh transaction handle (globally unique via the session id)."""
        self._next_txn += 1
        return f"{self.name}.t{self._next_txn}"

    def open_transaction(self, handle: str) -> TxnRecord:
        """Register a handle minted by :meth:`mint_handle` as open."""
        record = TxnRecord()
        self.transactions[handle] = record
        return record

    def close_transaction(self, handle: str) -> None:
        """Drop a completed transaction's handle."""
        self.transactions.pop(handle, None)

    @property
    def active(self) -> int:
        """Open transaction handles on this session."""
        return len(self.transactions)

    # -- idempotent completion acks ------------------------------------

    def cached_ack(self, request_id: int) -> Optional[Dict[str, Any]]:
        """The remembered response for a completed decision, if any."""
        return self._acks.get(request_id)

    def record_ack(self, request_id: int, result: Dict[str, Any]) -> None:
        """Remember a commit/abort decision's response for retries."""
        self._acks[request_id] = result
        while len(self._acks) > self._ack_capacity:
            self._acks.popitem(last=False)
