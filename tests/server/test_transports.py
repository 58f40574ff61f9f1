"""One 2PC participant, one decision rule, one served driver, three transports.

The serving core runs :func:`two_phase_commit` and :func:`resolve_prepared`
over whatever its shards are: local engines, child processes or simulated
sites.  Every case below sends the same frames to a driven core
(``tests/server/driven.py``) over all three and expects the same replies —
including the crash cases, which the kill switches make cheap to state: a
shard is killed at a chosen op, or while idle, and the outcome must be the
one presumed abort prescribes.  The core brings a dead shard back when it
meets it — respawned from its log, its prepared set resolved — so a case
reads that set as the kill leaves it (what the log brings back) and again
once the core has resolved it.
"""

import asyncio

import pytest

from repro.sim import Site
from repro.recovery import MemoryWAL
from repro.server import (
    AsyncClient,
    ReproServer,
    ShardDown,
    ShardEngine,
    ShardProcessPool,
    WireError,
)
from repro.server.engine import LocalShard, ShardSet, abort_round
from repro.server.protocol import request_frame
from tests.server.driven import Driven, result

TRANSPORTS = ["local", "process", "site"]


class MortalLocalShard(LocalShard):
    """A local shard with the kill switch production never needs: killing
    it drops the engine, ``spawn`` builds a fresh one over the same log."""

    def __init__(self, index, shards):
        wal, lives = MemoryWAL(), iter(range(1, 10))
        self._boot = lambda: ShardEngine(
            index, shards, wal=wal, incarnation=next(lives)
        )
        super().__init__(self._boot())

    def kill(self):
        self.alive = False
        self.call = self._down

    def _down(self, ops):
        raise ShardDown("local shard is down")

    def spawn(self):
        self.alive = True
        super().__init__(self._boot())


@pytest.fixture(params=TRANSPORTS)
def driven(request, tmp_path):
    """A driven core over two shards behind one transport, an Account
    homed on each (``driven.names[i]`` on shard ``i``), and a connection
    (``driven.conn``)."""
    if request.param == "local":
        pool = ShardSet([MortalLocalShard(index, 2) for index in range(2)])
    elif request.param == "process":
        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
    else:
        pool = ShardSet([Site(index, 2, wal=MemoryWAL()) for index in range(2)])
    built = Driven(pool, batched=request.param == "process")
    built.names = {}
    index = 0
    while len(built.names) < 2:
        built.names.setdefault(pool.shard_of(f"Q{index}"), f"Q{index}")
        index += 1
    for name in built.names.values():
        built.create(name)
    built.conn = built.connect()
    yield built
    pool.stop()


def credit_both(driven, primary=0):
    """Begin a transaction over the wire and credit 4 on each shard's
    Account, the ``primary``'s first; returns its handle."""
    conn = driven.conn
    handle = conn.begin()
    for home in (primary, 1 - primary):
        rid = conn.invoke(handle, driven.names[home], "Credit", 4)
        assert result(conn.answer(rid)) == "Ok"
    return handle


def kill(shard):
    shard.crash_hard() if isinstance(shard, Site) else shard.kill()


def kill_reading(shard):
    """Kill ``shard``; returns its prepared set as the kill leaves it."""
    left = shard.single({"op": "prepared"})["ok"]
    kill(shard)
    return left


def kill_at(shard, kind):
    """Kill ``shard`` the moment a batch holding an op of ``kind`` reaches
    it (once); returns a list that then holds its prepared set."""
    call, left = shard.call, []

    def killing(ops):
        if not any(op["op"] == kind for op in ops):
            return call(ops)
        shard.call = call
        left.append(kill_reading(shard))
        return shard.call(ops)

    shard.call = killing
    return left


def balances(driven):
    return [
        driven.pool.shards[home].single({"op": "snapshot", "obj": driven.names[home]})["ok"]
        for home in (0, 1)
    ]


def prepared(driven):
    return [shard.single({"op": "prepared"})["ok"] for shard in driven.pool.shards]


def incarnation(shard):
    return shard.single({"op": "stats"})["ok"]["incarnation"]


class TestDecisionProcedure:
    def test_commit_is_decided_on_the_primary_stride_and_applied(self, driven):
        pool, names = driven.pool, driven.names
        assert pool.catalog() == [[names[0]], [names[1]]]
        with pytest.raises(ValueError, match="already exists"):
            pool.create_object(names[0], "Account")
        x = credit_both(driven, primary=1)
        reply = driven.conn.call("commit", transaction=x)
        assert reply["result"]["timestamp"] == 1        # both voted 0; stride 1 of 2
        assert balances(driven) == [4, 4] and prepared(driven) == [[], []]
        assert [row["committed"] for row in pool.stats()] == [1, 1]
        for shard in pool.shards:
            assert shard.single({"op": "decision", "txn": x}) == {
                "ok": {"outcome": "commit", "ts": 1}
            }
        # A retransmitted verdict is an idempotent ack; an abort after the
        # fact is harmless.
        retransmit = {"op": "apply_commit", "txn": x, "ts": 1}
        assert pool.shards[0].single(retransmit) == {"ok": 1}
        for index, op in abort_round(x, [0, 1]):
            assert pool.shards[index].single(op) == {"ok": None}
        assert balances(driven) == [4, 4]
        # Neither shard mints below the decision afterwards.
        later = pool.shards[0].single(
            {"op": "txn", "name": "L", "steps": [(names[0], "Credit", (1,))]}
        )
        assert later["ok"] == 2

    def test_a_refused_vote_aborts_the_voters(self, driven):
        x = credit_both(driven)
        driven.pool.shards[1].single({"op": "abort", "txn": x})
        refused = driven.conn.call("commit", transaction=x)
        assert refused["error"] == {"code": "NO_VOTE", "message": f"no transaction {x!r}"}
        assert prepared(driven) == [[], []] and balances(driven) == [0, 0]
        prepare = {"op": "prepare", "txn": x}
        assert driven.pool.shards[0].single(prepare)["error"] == "NO_VOTE"


class TestCrashes:
    def test_participant_down_at_prepare(self, driven):
        shards = driven.pool.shards
        x = credit_both(driven)
        assert kill_reading(shards[1]) == []
        refused = driven.conn.call("commit", transaction=x)
        assert refused["error"] == {"code": "NO_VOTE", "message": "shard1 is down"}
        # The voter was aborted; the dead shard, respawned where the
        # prepare met it, had nothing prepared and presumes the abort.
        assert incarnation(shards[1]) == 2
        assert prepared(driven) == [[], []] and balances(driven) == [0, 0]
        assert shards[1].single({"op": "prepare", "txn": x})["error"] == "NO_VOTE"

    def test_primary_dies_between_prepare_and_decide(self, driven):
        shards = driven.pool.shards
        x = credit_both(driven)
        left = kill_at(shards[0], "decide")
        refused = driven.conn.call("commit", transaction=x)
        assert refused["error"] == {"code": "ABORTED", "message": "shard0 died deciding"}
        # No commit record exists anywhere: presumed abort everywhere — on
        # the participant by the 2PC's abort round, for the primary's own
        # prepared entry by its respawn's resolution.
        assert left == [[x]] and incarnation(shards[0]) == 2
        assert prepared(driven) == [[], []] and balances(driven) == [0, 0]
        for shard in shards:
            assert shard.single({"op": "decision", "txn": x}) == {
                "ok": {"outcome": "unknown"}
            }

    def test_participant_dies_after_the_decision(self, driven):
        shards = driven.pool.shards
        x = credit_both(driven)
        left = kill_at(shards[1], "apply_commit")
        # The decision is retransmitted until acked: through the death,
        # by respawning the participant, whose log still holds the vote.
        reply = driven.conn.call("commit", transaction=x)
        assert reply["result"]["timestamp"] == 2
        assert left == [[x]] and shards[1].alive and incarnation(shards[1]) == 2
        assert prepared(driven) == [[], []] and balances(driven) == [4, 4]
        replay = {"op": "apply_commit", "txn": x, "ts": 2}
        assert shards[1].single(replay) == {"ok": 2}     # idempotent
        assert balances(driven) == [4, 4]

    def test_a_checkpointed_primary_still_answers_for_its_decision(self, driven):
        # The primary decides; the participant dies before it applies the
        # decision; the primary checkpoints — folding the commit and
        # dropping its records — crashes and restarts; only then does the
        # participant come back and ask what was decided.  It used to be
        # told nothing, presume abort, and split the commit.  (The
        # coordinator is played by hand, so the core never hears of X.)
        shards, names = driven.pool.shards, driven.names
        for home in (0, 1):
            replies = shards[home].call(
                [
                    {"op": "begin", "name": "X", "quiet": home != 0},
                    {"op": "invoke", "txn": "X", "obj": names[home],
                     "operation": "Credit", "args": (4,)},
                ]
            )
            assert replies == [{"ok": "X"}, {"ok": "Ok"}]
        prepare = {"op": "prepare", "txn": "X"}
        votes = [shards[index].single(prepare)["ok"] for index in (0, 1)]
        decided = shards[0].single({"op": "decide", "txn": "X", "votes": votes})
        assert kill_reading(shards[1]) == ["X"]
        assert shards[0].single({"op": "checkpoint"}) == {"ok": 1}
        assert kill_reading(shards[0]) == []
        driven.meet(0)     # resolved while shard 1 is down
        assert shards[0].single({"op": "prepared"}) == {"ok": []}
        assert not shards[1].alive
        assert shards[0].single({"op": "stats"})["ok"]["wal_records"] == 3
        driven.meet(1)
        assert prepared(driven) == [[], []] and balances(driven) == [4, 4]
        for shard in shards:
            assert shard.single({"op": "decision", "txn": "X"}) == {
                "ok": {"outcome": "commit", "ts": decided["ok"]}
            }


@pytest.mark.parametrize("transport", ["process", "site"])
def test_a_shard_killed_under_the_server_answers_shard_down(transport, serve_over):
    """The whole ``ShardDown`` ladder behind a socket, whether the death
    met a pipe's post or reader (process shards) or the connection
    handler's own call (sites): a typed answer, the stranded handle
    cleaned up everywhere, the shard respawned and serving."""

    async def code(awaitable):
        with pytest.raises(WireError) as caught:
            await asyncio.wait_for(awaitable, 30)
        return caught.value.code

    async def scenario():
        server = await serve_over(transport)
        client = await AsyncClient.connect(server.host, server.port)
        names = {}
        for index in range(100):
            names.setdefault(server.pool.shard_of(f"Q{index}"), f"Q{index}")
        for name in names.values():
            await client.create(name, "FIFOQueue")
        # One transaction holding locks on both shards.
        stranded = await client.begin()
        await client.invoke(stranded, names[0], "Enq", 1)
        await client.invoke(stranded, names[1], "Enq", 2)
        kill(server.pool.shards[1])
        outcome = [
            await code(client.invoke(stranded, names[1], "Enq", 3)),
            await code(client.commit(stranded)),
        ]
        assert [c.session.active for c in server.core.channels.values()] == [0]
        # The survivor released the handle's locks and the dead shard is
        # back, recovered: both serve the next transaction.
        fresh = await client.begin()
        await client.invoke(fresh, names[0], "Enq", 4)
        await client.invoke(fresh, names[1], "Enq", 5)
        timestamp, _ = await client.commit(fresh)
        assert isinstance(timestamp, int)
        stats = server.pool.shards[1].single({"op": "stats"})["ok"]
        assert server.pool.shards[1].alive and stats["incarnation"] == 2
        outcome += [server.stats["errors"], server.stats["transactions_aborted"]]
        await client.aclose()
        await server.drain()
        return outcome

    # Both refusals are counted as errors; the stranded handle as aborted.
    assert asyncio.run(scenario()) == ["SHARD_DOWN", "UNKNOWN_TXN", 2, 1]


@pytest.mark.parametrize("transport", ["process", "site"])
def test_requests_queued_for_a_dying_shard_answer_shard_down(transport, drive):
    """A shard dies with a batch out and two requests queued behind it,
    one of them its transaction's first touch of the shard, while a
    transaction bound to both shards has an invoke queued on the
    survivor: all four answer ``SHARD_DOWN`` naming the dead shard, once
    each, and their handles close — nothing queued runs, and the new
    incarnation serves a fresh transaction.  A drain answers an invoke
    queued for a handle it force-aborts ``SHUTTING_DOWN``, and leaves a
    handle whose commit is out at its shard to that commit."""
    driven = drive(transport, objects=["A"], batched=True)
    core, index = driven.core, driven.pool.shard_of("A")
    other = next(
        f"B{i}" for i in range(100) if driven.pool.shard_of(f"B{i}") != index
    )
    driven.create(other)
    conn = driven.connect()
    bound, first_touch, both = conn.begin(), conn.begin(), conn.begin()
    assert result(conn.answer(conn.invoke(bound, "A", "Credit", 1))) == "Ok"
    for name in ("A", other):
        assert result(conn.answer(conn.invoke(both, name, "Credit", 1))) == "Ok"

    def credit(rid, handle, obj="A"):
        params = {"transaction": handle, "obj": obj, "operation": "Credit"}
        return request_frame(rid, "invoke", dict(params, args=(1,)))

    core.feed(conn, credit(110, bound), driven.now)
    ops = core.take(index)  # the batch out
    data = credit(111, bound) + credit(112, first_touch) + credit(113, both, other)
    core.feed(conn, data, driven.now)
    shard = driven.pool.shards[index]
    kill(shard)
    with pytest.raises(ShardDown):
        shard.call(ops)
    core.settle(index, None, driven.now)
    driven.settle_all()  # what is still queued, and the respawn's resolution
    rids = (110, 111, 112, 113)
    assert [result(conn.answer(rid)) for rid in rids] == ["SHARD_DOWN"] * 4
    for rid in rids:
        assert f"shard {index} worker died" in conn.answer(rid)["error"]["message"]
    assert not conn.session.transactions  # bound, first_touch and both
    fresh = conn.begin()
    assert result(conn.answer(conn.invoke(fresh, "A", "Credit", 5))) == "Ok"
    assert isinstance(conn.call("commit", transaction=fresh)["result"]["timestamp"], int)
    assert shard.alive and shard.single({"op": "snapshot", "obj": "A"}) == {"ok": 5}
    assert core.rounds == 0 and not any(core.pending)
    assert [len(conn.replies[rid]) for rid in rids] == [1, 1, 1, 1]
    # A drain: its straggler's queued invoke never runs, and a handle
    # whose commit is out at its shard is left to that commit.
    straggler, committing = conn.begin(), conn.begin()
    assert result(conn.answer(conn.invoke(straggler, other, "Credit", 1))) == "Ok"
    assert result(conn.answer(conn.invoke(committing, "A", "Credit", 2))) == "Ok"
    commit = request_frame(121, "commit", {"transaction": committing})
    core.feed(conn, commit, driven.now)
    ops = core.take(index)  # the commit, out at its shard
    core.feed(conn, credit(120, straggler, other), driven.now)
    assert driven.abort_sessions() == 1
    core.settle(index, shard.call(ops), driven.now)
    driven.settle_all()
    assert result(conn.answer(120)) == "SHUTTING_DOWN"
    assert isinstance(conn.answer(121)["result"]["timestamp"], int)
    assert not conn.session.transactions and not any(core.pending)
    survivor = driven.pool.shards[driven.pool.shard_of(other)]
    assert survivor.single({"op": "snapshot", "obj": other}) == {"ok": 0}
    assert shard.single({"op": "snapshot", "obj": "A"}) == {"ok": 7}


@pytest.mark.parametrize("transport", ["process", "site"])
def test_a_restarted_server_resolves_before_it_accepts(transport, tmp_path):
    """Shards that come back holding an undecided prepared ``X`` — its
    Credit locks held — are resolved before the server takes a request:
    the first client's Debit answers ``Overdraft`` from the empty
    committed balance, not ``CONFLICT``.  (The e2e benchmark's restart
    probe debits every account the moment the server is back.)"""
    if transport == "process":
        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
    else:
        pool = ShardSet([Site(index, 2, wal=MemoryWAL()) for index in range(2)])
    names = {}
    for index in range(100):
        names.setdefault(pool.shard_of(f"Q{index}"), f"Q{index}")
    for home, name in sorted(names.items()):
        pool.create_object(name, "Account")
        replies = pool.shards[home].call(
            [
                {"op": "begin", "name": "X", "quiet": home != 0},
                {"op": "invoke", "txn": "X", "obj": name,
                 "operation": "Credit", "args": (5,)},
                {"op": "prepare", "txn": "X"},
            ]
        )
        assert "ok" in replies[-1]
    if transport == "process":
        pool.stop()
        pool = ShardProcessPool(2, tmp_path / "data")
    else:
        for shard in pool.shards:
            shard.crash_hard()  # the log, prepare records included, survives

    async def scenario():
        server = ReproServer(pool=pool, drain_grace=0.5)
        await server.start()
        client = await AsyncClient.connect(server.host, server.port)
        debits = []
        for _home, name in sorted(names.items()):
            handle = await client.begin()
            debits.append(await client.invoke(handle, name, "Debit", 1))
            await client.commit(handle)
        await client.aclose()
        await server.drain()
        return debits

    assert asyncio.run(scenario()) == ["Overdraft", "Overdraft"]
