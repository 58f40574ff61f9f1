"""The correctness oracle.

Hybrid atomicity promises that the committed transactions are
serialisable in commit-timestamp order.  The oracle therefore replays
every *acknowledged* commit, in timestamp order, through a reference
model written here (a dict of ints and lists - nothing imported from
the program under test), checks each result the server returned against
it, and then probes the live server: every object must hold exactly what
the model holds.  After a crash the probe allows the commits left in
doubt: acknowledged <= observed <= acknowledged + in doubt.

This is *process-crash* durability.  A SIGKILL leaves the operating
system's page cache intact, so unflushed pages survive; power-loss
durability cannot be observed from outside in this sandbox, and fsyncs
are counted in the layer run instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from loadgen import Effect, Ledger

OVERDRAFT = "Overdraft"

#: Requests in flight on the probe connection: well under the server's
#: default queue limit (64), beyond which it answers BUSY.
PIPELINE_DEPTH = 32


def pipelined(client: Any, requests: Sequence[Tuple[str, Dict[str, Any]]]) -> List[Any]:
    """Send ``(action, params)`` requests :data:`PIPELINE_DEPTH` at a
    time; their responses, in order.  ``client`` is a ``SyncClient`` or
    anything with its ``send`` / ``wait``."""
    responses: List[Any] = []
    for at in range(0, len(requests), PIPELINE_DEPTH):
        ids = [
            client.send(action, params)
            for action, params in requests[at : at + PIPELINE_DEPTH]
        ]
        responses.extend(client.wait(rid) for rid in ids)
    return responses


class OracleViolation(AssertionError):
    """The server's answers contradict a serial execution."""


class Model:
    """Reference state: what a serial execution would hold."""

    def __init__(self, objects: Iterable[Tuple[str, str]]):
        self.adt: Dict[str, str] = dict(objects)
        self.balance = {n: 0 for n, adt in self.adt.items() if adt == "Account"}
        self.count = {n: 0 for n, adt in self.adt.items() if adt == "Counter"}
        self.queue: Dict[str, List[Any]] = {
            n: [] for n, adt in self.adt.items() if adt == "FIFOQueue"
        }

    def apply(self, effect: Effect, problems: List[str], where: str) -> None:
        obj, operation, args, result = effect
        expected: Any = "Ok"
        if operation == "Credit":
            self.balance[obj] += args[0]
        elif operation == "Debit":
            if self.balance[obj] >= args[0]:
                self.balance[obj] -= args[0]
            else:
                expected = OVERDRAFT
        elif operation == "Inc":
            self.count[obj] += args[0]
        elif operation == "Read":
            expected = self.count[obj]
        elif operation == "Enq":
            self.queue[obj].append(args[0])
        elif operation == "Deq":
            items = self.queue[obj]
            expected = items.pop(0) if items else "<empty queue>"
        else:
            raise ValueError(f"the oracle has no model for {operation!r}")
        if result != expected:
            problems.append(
                f"{where}: {operation}{args} on {obj} answered {result!r}, "
                f"a serial execution answers {expected!r}"
            )


def replay(ledger: Ledger, objects: Iterable[Tuple[str, str]]) -> Model:
    """Replay acknowledged commits in timestamp order; raise on the first
    answers no serial execution in that order could have given."""
    model = Model(objects)
    problems: List[str] = []
    stamps: Set[Any] = set()
    for timestamp, effects in sorted(ledger.committed, key=lambda c: c[0]):
        if timestamp in stamps:
            problems.append(f"commit timestamp {timestamp} acknowledged twice")
        stamps.add(timestamp)
        for effect in effects:
            model.apply(effect, problems, f"commit@{timestamp}")
    if problems:
        raise OracleViolation(
            f"{len(problems)} answer(s) contradict timestamp order; first: "
            + "; ".join(problems[:3])
        )
    return model


def _in_doubt_credits(ledger: Ledger) -> Dict[str, List[int]]:
    pending: Dict[str, List[int]] = {}
    for effects in ledger.in_doubt:
        for obj, operation, args, _result in effects:
            if operation != "Credit":
                raise ValueError("in-doubt accounting covers Credit only")
            pending.setdefault(obj, []).append(args[0])
    return pending


def _subset_sums(values: Sequence[int]) -> List[int]:
    sums = {0}
    for size in range(1, len(values) + 1):
        sums.update(sum(combo) for combo in combinations(values, size))
    return sorted(sums, reverse=True)


def probe(client: Any, model: Model, ledger: Ledger) -> Tuple[int, int]:
    """Compare the live server with ``model`` inside one transaction that
    is then aborted, so the probe leaves no trace in the state.

    ``client`` is a ``repro.server.SyncClient`` (or anything with its
    ``begin`` / ``send`` / ``wait`` / ``abort``).  Requests are pipelined:
    the server answers one connection's queued work in order.

    Returns ``(accounts holding in-doubt credits, accounts still locked
    by an unresolved in-doubt transaction)``; raises
    :class:`OracleViolation` on any mismatch.
    """
    pending = _in_doubt_credits(ledger)
    handle = client.begin()
    problems: List[str] = []
    applied = unresolved = 0

    def invoke_all(calls: Sequence[Tuple[str, str, Tuple[Any, ...]]]) -> List[Any]:
        responses = pipelined(
            client,
            [
                (
                    "invoke",
                    {"transaction": handle, "obj": obj, "operation": op, "args": args},
                )
                for obj, op, args in calls
            ],
        )
        return [
            response.result["result"] if response.ok else response.error_code
            for response in responses
        ]

    try:
        # Accounts: Debit(acknowledged balance) must succeed ...
        names = sorted(model.balance)
        floors = invoke_all([(n, "Debit", (model.balance[n],)) for n in names])
        for name, answer in zip(names, floors):
            if answer != "Ok":
                problems.append(
                    f"{name}: acknowledged balance {model.balance[name]} is "
                    f"not there (Debit answered {answer!r})"
                )
        # ... and leave nothing behind, unless commits are in doubt.
        settled = [n for n in names if n not in pending]
        rests = invoke_all([(n, "Debit", (1,)) for n in settled])
        for name, answer in zip(settled, rests):
            if answer != OVERDRAFT:
                problems.append(
                    f"{name}: holds more than the acknowledged "
                    f"{model.balance[name]}"
                )
        for name in sorted(pending):
            # Largest candidate first: the Debit that succeeds and leaves
            # nothing behind names the applied in-doubt credits exactly.
            for candidate in _subset_sums(pending[name]):
                if invoke_all([(name, "Debit", (candidate,))]) != ["Ok"]:
                    continue
                (rest,) = invoke_all([(name, "Debit", (1,))])
                if rest == "CONFLICT":
                    # The only legal answer was Overdraft (a successful
                    # Debit conflicts with no Credit), so the balance is
                    # exact - but a recovered in-doubt transaction is
                    # still prepared and holding its Credit lock.
                    unresolved += 1
                elif rest != OVERDRAFT:
                    problems.append(
                        f"{name}: Debit(1) answered {rest!r} above the "
                        f"acknowledged {model.balance[name]} + {candidate}; no "
                        f"subset of the in-doubt credits {pending[name]} "
                        "explains the balance"
                    )
                applied += 1 if candidate else 0
                break
        # Counters.
        names = sorted(model.count)
        for name, answer in zip(names, invoke_all([(n, "Read", ()) for n in names])):
            if answer != model.count[name]:
                problems.append(
                    f"{name}: reads {answer!r}, acknowledged {model.count[name]}"
                )
        # Queues: drain; the dequeues must follow acknowledged enqueue
        # order, and one more Deq must find the queue empty.
        for name in sorted(model.queue):
            want = model.queue[name]
            got = invoke_all([(name, "Deq", ())] * (len(want) + 1))
            if got != want + ["WOULD_BLOCK"]:
                at = next(
                    (i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                    len(want),
                )
                problems.append(
                    f"{name}: dequeue {at} answered {got[at]!r}, acknowledged "
                    f"order has {want[at] if at < len(want) else 'nothing'!r}"
                )
    finally:
        client.abort(handle)
    if problems:
        raise OracleViolation(
            f"{len(problems)} object(s) differ from the acknowledged state; "
            "first: " + "; ".join(problems[:3])
        )
    return applied, unresolved
