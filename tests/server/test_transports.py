"""One 2PC participant, one decision rule, three transports.

``ShardSet.commit_cross_shard`` drives :func:`two_phase_commit` over
whatever its shards are: local engines, child processes or simulated
sites.  Every case below runs the same body over all three and expects
the same replies — including the crash cases, which the site transport
makes cheap to state: a shard is killed at a chosen op and the outcome
must be the one presumed abort prescribes.
"""

import asyncio

import pytest

from repro.sim import Site
from repro.recovery import MemoryWAL
from repro.server import (
    AsyncClient,
    ShardDown,
    ShardEngine,
    ShardProcessPool,
    WireError,
)
from repro.server.engine import LocalShard, ShardSet, abort_round
from repro.server.protocol import request_frame
from tests.server.driven import result

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
def shards(request, tmp_path):
    """Two shards behind one transport, an Account homed on each, and a
    transaction ``X`` that has credited both (primary: shard 0)."""
    if request.param == "local":
        built = ShardSet([MortalLocalShard(index, 2) for index in range(2)])
    elif request.param == "process":
        built = ShardProcessPool(2, tmp_path / "data")
        built.start()
    else:
        built = ShardSet([Site(index, 2, wal=MemoryWAL()) for index in range(2)])
    built.names = {}
    index = 0
    while len(built.names) < 2:
        built.names.setdefault(built.shard_of(f"Q{index}"), f"Q{index}")
        index += 1
    for name in built.names.values():
        built.create_object(name, "Account")
    for home in (0, 1):
        replies = built.shards[home].call(
            [
                {"op": "begin", "name": "X", "quiet": home != 0},
                {"op": "invoke", "txn": "X", "obj": built.names[home],
                 "operation": "Credit", "args": (4,)},
            ]
        )
        assert replies == [{"ok": "X"}, {"ok": "Ok"}]
    yield built
    built.stop()


def kill(shard):
    shard.crash_hard() if isinstance(shard, Site) else shard.kill()


def kill_at(shard, kind):
    """Kill ``shard`` the moment it is sent an op of ``kind`` (once)."""
    deliver = shard.single

    def single(op):
        if op["op"] == kind:
            shard.single = deliver
            kill(shard)
        return deliver(op)

    shard.single = single


def balances(shards):
    return [
        shards.shards[home].single({"op": "snapshot", "obj": shards.names[home]})["ok"]
        for home in (0, 1)
    ]


def prepared(shards):
    return [shard.single({"op": "prepared"})["ok"] for shard in shards.shards]


class TestDecisionProcedure:
    def test_commit_is_decided_on_the_primary_stride_and_applied(self, shards):
        assert shards.catalog() == [[shards.names[0]], [shards.names[1]]]
        with pytest.raises(ValueError, match="already exists"):
            shards.create_object(shards.names[0], "Account")
        reply = shards.commit_cross_shard("X", [1, 0], primary=1)
        assert reply == {"ok": 1}                       # both voted 0; stride 1 of 2
        assert balances(shards) == [4, 4] and prepared(shards) == [[], []]
        assert [row["committed"] for row in shards.stats()] == [1, 1]
        for shard in shards.shards:
            assert shard.single({"op": "decision", "txn": "X"}) == {
                "ok": {"outcome": "commit", "ts": 1}
            }
        # A retransmitted verdict is an idempotent ack; an abort after the
        # fact is harmless.
        retransmit = {"op": "apply_commit", "txn": "X", "ts": 1}
        assert shards.shards[0].single(retransmit) == {"ok": 1}
        for index, op in abort_round("X", [0, 1]):
            assert shards.deliver(index, op) == {"ok": None}
        assert balances(shards) == [4, 4]
        # Neither shard mints below the decision afterwards.
        later = shards.shards[0].single(
            {"op": "txn", "name": "L", "steps": [(shards.names[0], "Credit", (1,))]}
        )
        assert later["ok"] == 2

    def test_a_refused_vote_aborts_the_voters(self, shards):
        shards.shards[1].single({"op": "abort", "txn": "X"})
        refused = shards.commit_cross_shard("X", [0, 1], primary=0)
        assert refused == {"error": "NO_VOTE", "message": "no transaction 'X'"}
        assert prepared(shards) == [[], []] and balances(shards) == [0, 0]
        assert shards.shards[0].single({"op": "prepare", "txn": "X"})["error"] == "NO_VOTE"


class TestCrashes:
    def test_participant_down_at_prepare(self, shards):
        kill(shards.shards[1])
        refused = shards.commit_cross_shard("X", [0, 1], primary=0)
        assert refused == {"error": "NO_VOTE", "message": "shard1 is down"}
        # The voter was aborted; the dead shard presumes it on recovery.
        assert shards.shards[0].single({"op": "prepared"}) == {"ok": []}
        assert shards.respawn(1) == []
        assert prepared(shards) == [[], []] and balances(shards) == [0, 0]
        assert shards.shards[1].single({"op": "prepare", "txn": "X"})["error"] == "NO_VOTE"

    def test_primary_dies_between_prepare_and_decide(self, shards):
        kill_at(shards.shards[0], "decide")
        refused = shards.commit_cross_shard("X", [0, 1], primary=0)
        assert refused == {"error": "ABORTED", "message": "shard0 died deciding"}
        # No commit record exists anywhere: presumed abort everywhere —
        # at once on the participant, on respawn for the primary's own
        # prepared entry.
        assert shards.shards[1].single({"op": "prepared"}) == {"ok": []}
        assert shards.respawn(0) == ["X"]
        assert prepared(shards) == [[], []] and balances(shards) == [0, 0]
        for shard in shards.shards:
            assert shard.single({"op": "decision", "txn": "X"}) == {
                "ok": {"outcome": "unknown"}
            }

    def test_participant_dies_after_the_decision(self, shards):
        kill_at(shards.shards[1], "apply_commit")
        # The decision is retransmitted until acked: through the death,
        # by respawning the participant, whose log still holds the vote.
        assert shards.commit_cross_shard("X", [0, 1], primary=0) == {"ok": 2}
        assert shards.shards[1].alive
        assert shards.shards[1].single({"op": "stats"})["ok"]["incarnation"] == 2
        assert prepared(shards) == [[], []] and balances(shards) == [4, 4]
        replay = {"op": "apply_commit", "txn": "X", "ts": 2}
        assert shards.shards[1].single(replay) == {"ok": 2}     # idempotent
        assert balances(shards) == [4, 4]

    def test_a_checkpointed_primary_still_answers_for_its_decision(self, shards):
        # The primary decides; the participant dies before it applies the
        # decision; the primary checkpoints — folding the commit and
        # dropping its records — crashes and restarts; only then does the
        # participant come back and ask what was decided.  It used to be
        # told nothing, presume abort, and split the commit.
        prepare = {"op": "prepare", "txn": "X"}
        votes = [shards.shards[index].single(prepare)["ok"] for index in (0, 1)]
        decided = shards.shards[0].single({"op": "decide", "txn": "X", "votes": votes})
        kill(shards.shards[1])
        assert shards.shards[0].single({"op": "checkpoint"}) == {"ok": 1}
        kill(shards.shards[0])
        assert shards.respawn(0) == []
        assert shards.shards[0].single({"op": "stats"})["ok"]["wal_records"] == 3
        assert shards.respawn(1) == ["X"]
        assert prepared(shards) == [[], []] and balances(shards) == [4, 4]
        for shard in shards.shards:
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
