"""A refused invocation waits for its lock holder, on every transport.

When a shard refuses an ``invoke`` with ``CONFLICT`` naming a holder that
is an open handle on the server and is not itself waiting, the core parks
the request until that handle closes, then re-executes it — from the
front of its shard's FIFO.  The cases drive the sans-IO
:class:`~repro.server.core.ServerCore` directly (``tests/server/driven.py``:
no socket, a counter for the clock) over local engines,
simulated sites and child processes — those called one batch per FIFO,
as the loop posts them — and certify the served history.  A parked
request gets exactly one reply: its re-executed one, ``CONFLICT`` once
the clock passes its deadline or when its multi-shard completion is
admitted, or — when its own handle is closed under it —
``SHUTTING_DOWN`` on a drain, ``SHARD_DOWN`` on a shard death,
``CONFLICT`` on its own completion and nothing on a lost connection.
"""

import collections
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import AtomicityChecker, TraceBus, read_jsonl
from repro.server.core import WAIT_BOUND
from repro.server.engine import LocalShard, ShardEngine, ShardSet, shard_for
from repro.server.protocol import ERROR_CODES, request_frame
from repro.sim import Site
from tests.server.driven import Driven, result

TRANSPORTS = ["local", "process", "site"]


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


def traced():
    bus = TraceBus()
    events = []
    bus.subscribe(events.append)
    return bus, events


def certify(events, tmp_path):
    """The served history (process shards trace in files of their own,
    merged by timestamp) certified hybrid atomic; returns its kinds."""
    merged = list(events)
    for path in (tmp_path / "traces").glob("*.jsonl"):
        merged.extend(read_jsonl(str(path)))
    merged.sort(key=lambda event: event.ts)
    report = AtomicityChecker().replay(merged).report()
    assert report["verdict"] == "clean", report["violations"]
    return collections.Counter(event.kind for event in merged)


def hold(client, obj="A"):
    """A transaction holding a Debit on ``obj`` (funded first)."""
    funding = client.begin()
    client.invoke(funding, obj, "Credit", 100)
    client.call("commit", transaction=funding)
    holder = client.begin()
    assert result(client.answer(client.invoke(holder, obj, "Debit", 1))) == "Ok"
    return holder


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_a_refused_debit_waits_for_its_holder(transport, outcome, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    holder = hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    assert second.answer(debit) is None and len(driven.core.parked) == 1
    assert first.call(outcome, transaction=holder)["ok"]
    assert result(second.answer(debit)) == "Ok"
    assert second.call("commit", transaction=waiter)["ok"]
    assert not driven.core.parked
    assert driven.core.stats["transactions_aborted"] == (outcome == "abort")
    kinds = certify(events, tmp_path)
    assert kinds["lock.conflict"] == kinds["lock.wait"] == 1


def test_a_request_never_waits_on_a_waiter(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A", "B"], tracer=bus)
    first, second, third = driven.connect(), driven.connect(), driven.connect()
    holder = hold(first, "A")
    waiter = hold(second, "B")  # holds B, then waits for A
    debit = second.invoke(waiter, "A", "Debit", 2)
    assert len(driven.core.parked) == 1
    refused = third.begin()
    assert result(third.answer(third.invoke(refused, "B", "Debit", 1))) == "CONFLICT"
    third.call("abort", transaction=refused)
    first.call("commit", transaction=holder)
    assert result(second.answer(debit)) == "Ok"
    second.call("commit", transaction=waiter)
    kinds = certify(events, tmp_path)
    assert (kinds["lock.conflict"], kinds["lock.wait"]) == (2, 1)


def test_the_wait_bound_answers_conflict(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    holder = hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    assert driven.core.deadline() == WAIT_BOUND
    driven.advance(WAIT_BOUND / 2)
    assert second.answer(debit) is None  # not yet
    driven.advance(WAIT_BOUND / 2)
    assert result(second.answer(debit)) == "CONFLICT"
    assert not driven.core.parked and driven.core.waits.waiter_count() == 0
    assert driven.core.deadline() is None
    second.call("abort", transaction=waiter)
    first.call("commit", transaction=holder)
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_holders_disconnect_wakes_its_waiters(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    driven.disconnect(first)  # its open holder is aborted
    assert result(second.answer(debit)) == "Ok"
    second.call("commit", transaction=waiter)
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_waiters_disconnect_cancels_its_wait(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    holder = hold(first)
    waiter = second.begin()
    second.invoke(waiter, "A", "Debit", 2)
    driven.disconnect(second)
    assert not driven.core.parked and driven.core.waits.waiter_count() == 0
    assert isinstance(first.call("commit", transaction=holder)["result"]["timestamp"], int)
    assert driven.core.stats["transactions_aborted"] == 1
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_drain_answers_parked_requests(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    driven.core.draining = True
    assert driven.abort_sessions("SHUTTING_DOWN") == 2
    assert result(second.answer(debit)) == "SHUTTING_DOWN"
    assert not driven.core.parked
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_waiters_own_completion_answers_its_parked_invoke(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    holder = hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    second.call("abort", transaction=waiter)  # pipelined behind its own parked invoke
    assert result(second.answer(debit)) == "CONFLICT"
    first.call("commit", transaction=holder)
    assert not driven.core.parked
    assert certify(events, tmp_path)["lock.wait"] == 1


@pytest.mark.parametrize("transport", ["process", "site"])
def test_a_shard_death_answers_parked_requests(transport, drive, tmp_path):
    bus, events = traced()
    driven = drive(transport, objects=["A"], tracer=bus)
    first, second = driven.connect(), driven.connect()
    holder = hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    shard = driven.pool.shards[driven.pool.shard_of("A")]
    shard.crash_hard() if isinstance(shard, Site) else shard.kill()
    invoke = first.invoke(holder, "A", "Debit", 1)
    assert [result(first.answer(invoke)), result(second.answer(debit))] == [
        "SHARD_DOWN",
        "SHARD_DOWN",
    ]
    assert not driven.core.parked and shard.alive  # respawned
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_cross_shard_holder_wakes_its_waiters_when_2pc_decides(
    transport, drive, tmp_path
):
    bus, events = traced()
    driven = drive(transport, tracer=bus)
    first, second = driven.connect(), driven.connect()
    names = {}
    for index in range(100):
        names.setdefault(driven.pool.shard_of(f"Q{index}"), f"Q{index}")
    for name in names.values():
        assert first.call("create", name=name, adt="Account")["ok"]
    holder = hold(first, names[0])
    first.invoke(holder, names[1], "Credit", 5)
    first.invoke(holder, names[1], "Debit", 1)
    waiter = second.begin()
    debit = second.invoke(waiter, names[1], "Debit", 2)
    assert len(driven.core.parked) == 1
    committed = first.call("commit", transaction=holder)  # two-phase: both shards
    assert isinstance(committed["result"]["timestamp"], int)
    assert result(second.answer(debit)) == "Ok"
    second.call("commit", transaction=waiter)
    assert driven.core.rounds == 0
    assert certify(events, tmp_path)["lock.wait"] == 1


@pytest.mark.parametrize("transport", ["local", "process"])
def test_a_multi_shard_commit_answers_its_parked_invoke(drive, transport, tmp_path):
    """A waiter's multi-shard commit is read while an invoke of it is
    parked, and its holder closes between the 2PC's prepare and its
    decision: woken, the invoke answers ``CONFLICT`` — it never runs on
    the prepared transaction."""
    bus, events = traced()
    driven = drive(transport, tracer=bus, batched=True)
    names = {}
    for index in range(100):
        names.setdefault(driven.pool.shard_of(f"Q{index}"), f"Q{index}")
    for name in names.values():
        driven.create(name)
    first, second = driven.connect(), driven.connect()
    holder = hold(first, names[1])
    waiter = second.begin()
    assert result(second.answer(second.invoke(waiter, names[0], "Credit", 1))) == "Ok"
    debit = second.invoke(waiter, names[1], "Debit", 2)
    assert second.answer(debit) is None and len(driven.core.parked) == 1
    core = driven.core
    core.feed(second, request_frame(90, "commit", {"transaction": waiter}), driven.now)
    for index in (0, 1):
        driven.call(index)  # the prepares
    core.feed(first, request_frame(91, "commit", {"transaction": holder}), driven.now)
    driven.settle_all()
    assert result(second.answer(debit)) == "CONFLICT" and not core.parked
    assert isinstance(second.answer(90)["result"]["timestamp"], int)
    assert first.answer(91)["ok"]
    certify(events, tmp_path)


@pytest.mark.parametrize("transport", ["local", "process"])
def test_an_invoke_parked_after_its_multi_shard_commit_never_runs(
    drive, transport, tmp_path
):
    """An invoke read with its transaction's multi-shard commit is refused
    in the batch of the 2PC's prepare: it cannot wait any more, so it
    answers ``CONFLICT`` at its refusal and never runs on the prepared
    transaction, whenever its holder closes."""
    bus, events = traced()
    driven = drive(transport, tracer=bus, batched=True)
    names = {}
    for index in range(100):
        names.setdefault(driven.pool.shard_of(f"Q{index}"), f"Q{index}")
    for name in names.values():
        driven.create(name)
    first, second = driven.connect(), driven.connect()
    holder = hold(first, names[1])
    waiter = second.begin()
    for name in (names[0], names[1]):  # bound to both shards
        assert result(second.answer(second.invoke(waiter, name, "Credit", 1))) == "Ok"
    debit = {"transaction": waiter, "obj": names[1], "operation": "Debit"}
    data = request_frame(60, "invoke", dict(debit, args=(2,)))
    data += request_frame(61, "commit", {"transaction": waiter})
    core = driven.core
    core.feed(second, data, driven.now)
    driven.call(1)  # the invoke is refused, shard 1 prepares
    assert result(second.answer(60)) == "CONFLICT" and not core.parked
    core.feed(first, request_frame(91, "commit", {"transaction": holder}), driven.now)
    driven.call(1)  # the holder commits before the 2PC decides
    assert second.answer(61) is None
    driven.settle_all()
    assert isinstance(second.answer(61)["result"]["timestamp"], int)
    assert first.answer(91)["ok"] and not core.parked and core.rounds == 0
    certify(events, tmp_path)


# -- the wait order ------------------------------------------------------


def test_a_woken_waiter_runs_before_requests_read_with_its_holders_commit(
    transport, drive
):
    """One read carries the holder's commit, a ``begin`` and a fresh
    conflicting invoke: the waiter the commit wakes goes to the front of
    its shard's FIFO and gets the lock (a batch ends at the commit); the
    fresh invoke parks on it."""
    driven = drive(transport, objects=["A"])
    first, second = driven.connect(), driven.connect()
    holder = hold(first)
    waiter = second.begin()
    debit = second.invoke(waiter, "A", "Debit", 2)
    assert second.answer(debit) is None and len(driven.core.parked) == 1
    fresh = f"{first.session.name}.t3"  # what the begin read with the commit mints
    params = {"transaction": fresh, "obj": "A", "operation": "Debit", "args": (3,)}
    data = request_frame(50, "commit", {"transaction": holder})
    data += request_frame(51, "begin") + request_frame(52, "invoke", params)
    assert not driven.feed(first, data)
    assert first.answer(50)["ok"] and first.answer(51)["result"]["transaction"] == fresh
    assert result(second.answer(debit)) == "Ok"
    assert first.answer(52) is None and list(driven.core.parked) == [fresh]
    assert second.call("commit", transaction=waiter)["ok"]
    assert result(first.answer(52)) == "Ok"


# -- one property: exactly one reply per admitted request -----------------

#: One hot account per shard of two, so a transaction may commit by 2PC.
HOT = [
    next(f"H{i}" for i in itertools.count() if shard_for(f"H{i}", 2) == shard)
    for shard in (0, 1)
]
#: One transaction: (account, operation) steps on the hot accounts.
txn = st.lists(
    st.tuples(st.sampled_from(HOT), st.sampled_from(["Credit", "Debit", "Post"])),
    min_size=1,
    max_size=3,
)
#: Per connection: one or two transaction sequences run side by side.
connection = st.lists(st.lists(txn, min_size=1, max_size=2), min_size=1, max_size=2)


class Agent:
    """A closed-loop client running its transactions on one connection:
    it sends its next request once the last one is answered — but it may
    send a transaction's last invoke and its commit together, as
    ``together()`` draws, and a second completion with its commit, as
    ``second()`` draws: an abort under a new id, or the commit ``again``
    under its own — and aborts a transaction an invoke of which was
    refused."""

    def __init__(self, conn, script, together, second):
        self.conn, self.script = conn, [list(steps) for steps in script]
        self.together, self.second = together, second
        self.last = self.action = self.handle = self.paired = None
        self.refused = False
        #: The ids whose replies the next request waits for.
        self.owed = []
        #: The ids of commits sent twice (each is owed two replies).
        self.retried = set()

    def ready(self):
        return all(rid in self.conn.replies for rid in self.owed)

    def next_frame(self, rid):
        """The frame of the agent's next request, as ``rid`` (None: done)."""
        if self.last is not None:
            body = self.conn.replies[self.last][0]
            if self.paired is not None:
                # The invoke sent with the commit ran, or was refused.
                invoked = self.conn.replies[self.paired][0]
                assert invoked["ok"] or invoked["error"]["code"] == "CONFLICT", invoked
                self.paired = None
            if self.action == "begin":
                self.handle = body["result"]["transaction"]
            elif self.action == "invoke" and not body["ok"]:
                assert body["error"]["code"] == "CONFLICT", body
                self.refused = True
            elif self.action in ("commit", "abort"):
                self.script.pop(0)
                self.handle, self.refused = None, False
        if not self.script:
            return None
        self.last, self.owed = rid, [rid]
        if self.handle is None:
            self.action = "begin"
            return request_frame(rid, "begin")
        if self.script[0] and not self.refused:
            obj, operation = self.script[0].pop(0)
            self.action = "invoke"
            params = {"transaction": self.handle, "obj": obj,
                      "operation": operation, "args": (1,)}
            frame = request_frame(rid, "invoke", params)
            if self.script[0] or not self.together():
                return frame
            # Its commit too, without awaiting the invoke's reply.
            self.paired, self.last, self.owed = rid, rid + 1, [rid + 1]
            return frame + self.commit(rid + 1)
        if self.refused:
            self.action = "abort"
            return request_frame(rid, "abort", {"transaction": self.handle})
        return self.commit(rid)

    def commit(self, rid):
        """The commit frame as ``rid``, and the second completion drawn."""
        self.action = "commit"
        params = {"transaction": self.handle}
        frame = request_frame(rid, "commit", params)
        second = self.second()
        if second == "again":
            self.retried.add(rid)
            return frame + frame
        if second == "abort":
            self.owed.append(rid + 1)
            return frame + request_frame(rid + 1, "abort", params)
        return frame


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(connections=st.lists(connection, min_size=2, max_size=4), data=st.data())
def test_every_admitted_request_gets_exactly_one_reply(connections, data):
    """2–4 clients (some running two transactions on one connection) on
    a hot account per shard, some sending a transaction's last invoke and
    its commit together, or a second completion with a commit; each
    connection's bytes reach the core split at drawn boundaries, shards
    are called inline or one batch per FIFO, and the clock jumps past the
    wait bound whenever nothing else can move.  Called inline, the shards
    answer each connection in request order, but for the requests that
    parked.  A transaction is decided once: no handle is answered both
    committed and aborted, and the tallies count one decision a handle."""
    bus, events = traced()
    pool = ShardSet([LocalShard(ShardEngine(i, 2, tracer=bus)) for i in range(2)])
    batched = data.draw(st.booleans(), label="batched")
    driven = Driven(pool, tracer=bus, batched=batched)
    for name in HOT:
        driven.create(name)
    parked, park = set(), driven.core._park

    def noting(channel, request, index, reply):
        if park(channel, request, index, reply):
            parked.add((channel, request.id))
            return True
        return False

    driven.core._park = noting
    agents, unsent, sent = [], {}, collections.Counter()

    def together():
        return data.draw(st.booleans(), label="together")

    def second():
        return data.draw(st.sampled_from([None, "abort", "again"]), label="second")

    for scripts in connections:
        conn = driven.connect()
        unsent[conn] = b""
        agents += [Agent(conn, script, together, second) for script in scripts]
    crew = list(agents)
    while agents or any(unsent.values()):
        moves = [("send", agent) for agent in agents if agent.ready()]
        moves += [("feed", conn) for conn, pending in unsent.items() if pending]
        if not moves:
            # Only a parked request can still be owed a reply, and only
            # its deadline can answer it now.
            assert driven.core.deadline() is not None, "a request went unanswered"
            driven.advance()  # past every deadline
            continue
        kind, who = data.draw(st.sampled_from(moves), label="move")
        if kind == "send":
            frame = who.next_frame(sent[who.conn] + 1)
            if frame is None:
                agents.remove(who)
            else:
                unsent[who.conn] += frame
                sent[who.conn] = max(who.owed)
        else:
            pending = unsent[who]
            cut = data.draw(st.integers(1, len(pending)), label="cut")
            unsent[who] = pending[cut:]
            assert not driven.feed(who, pending[:cut])
    assert not driven.core.parked and not any(driven.core.pending)
    retried = {(agent.conn, rid) for agent in crew for rid in agent.retried}
    decided = collections.defaultdict(set)  # handle -> how it was answered
    for conn in unsent:
        assert sorted(conn.replies) == list(range(1, sent[conn] + 1))
        if not batched:
            unparked = [rid for rid in conn.order if (conn, rid) not in parked]
            assert unparked == sorted(unparked), conn.order
        for rid, bodies in conn.replies.items():
            assert len(bodies) == 1 + ((conn, rid) in retried)
            for body in bodies:
                assert body["ok"] or body["error"]["code"] in ERROR_CODES
                answer = body["result"] if body["ok"] else {}
                outcome = answer.keys() & {"committed", "aborted"}
                if outcome:
                    decided[answer["transaction"]] |= outcome
    assert all(len(outcomes) == 1 for outcomes in decided.values()), decided
    stats = driven.core.stats
    counted = stats["transactions_committed"] + stats["transactions_aborted"]
    assert counted == len(decided)
    merged = sorted(events, key=lambda event: event.ts)
    report = AtomicityChecker().replay(merged).report()
    assert report["verdict"] == "clean", report["violations"]
