"""The shard engine, driven in-process: every op of the vocabulary.

No sockets, no child processes: a :class:`ShardEngine` over a
:class:`MemoryWAL` is the whole fixture, which is what makes the 2PC ops
(``prepare`` / ``decide`` / ``apply_commit`` / ``decision`` /
``prepared``) and recovery reachable without forking anything.
"""

import asyncio
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import CompactingLockMachine
from repro.recovery.wal import GroupCommitWAL, MemoryWAL
from repro.server import AsyncClient, ShardEngine, ShardProcessPool, WireError
from repro.server.engine import EngineCrash, LocalShard, ShardSet, abort_round
from repro.server.procpool import ShardDown
from tests.server.driven import Driven, result

OPS = (
    "create begin invoke commit abort txn prepare decide apply_commit "
    "snapshot stats catalog prepared decision checkpoint crash"
).split()


def engine_with(*objects, shard=0, shards=1, wal=None, adt="Account"):
    engine = ShardEngine(shard, shards, wal=MemoryWAL() if wal is None else wal)
    for name in objects:
        assert engine.execute({"op": "create", "name": name, "adt": adt}) == {
            "ok": name
        }
    return engine


def invoke(engine, txn, obj, operation, *args):
    return engine.execute(
        {"op": "invoke", "txn": txn, "obj": obj, "operation": operation, "args": args}
    )


class TestSingleShardOps:
    def test_create_catalog_and_duplicate(self):
        engine = engine_with("a", "b")
        assert engine.execute({"op": "catalog"}) == {"ok": ["a", "b"]}
        again = engine.execute({"op": "create", "name": "a", "adt": "Account"})
        assert again["error"] == "BAD_REQUEST" and "already exists" in again["message"]
        unknown_adt = engine.execute({"op": "create", "name": "c", "adt": "Nope"})
        assert unknown_adt["error"] == "BAD_REQUEST"
        unknown_protocol = engine.execute(
            {"op": "create", "name": "c", "adt": "Account", "protocol": "nope"}
        )
        assert unknown_protocol["error"] == "BAD_REQUEST"

    def test_begin_invoke_commit_snapshot(self):
        engine = engine_with("a")
        assert engine.execute({"op": "begin", "name": "t1"}) == {"ok": "t1"}
        assert invoke(engine, "t1", "a", "Credit", 5) == {"ok": "Ok"}
        committed = engine.execute({"op": "commit", "txn": "t1"})
        assert committed == {"ok": 1}
        assert engine.execute({"op": "snapshot", "obj": "a"})["ok"] == 5
        # The handle is gone: late ops answer UNKNOWN_TXN, a late abort
        # is the presumed-abort no-op.
        assert invoke(engine, "t1", "a", "Credit", 1)["error"] == "UNKNOWN_TXN"
        assert engine.execute({"op": "commit", "txn": "t1"})["error"] == "UNKNOWN_TXN"
        assert engine.execute({"op": "abort", "txn": "t1"}) == {"ok": None}

    def test_abort_releases_locks_and_counts(self):
        engine = engine_with("a")
        engine.execute({"op": "txn", "name": "seed", "steps": [("a", "Credit", (3,))]})
        engine.execute({"op": "begin", "name": "t1"})
        engine.execute({"op": "begin", "name": "t2"})
        assert invoke(engine, "t1", "a", "Debit", 1) == {"ok": "Ok"}
        assert invoke(engine, "t2", "a", "Debit", 1)["error"] == "CONFLICT"
        assert engine.execute({"op": "abort", "txn": "t1"}) == {"ok": None}
        assert invoke(engine, "t2", "a", "Debit", 1) == {"ok": "Ok"}
        stats = engine.execute({"op": "stats"})["ok"]
        assert (stats["committed"], stats["aborted"]) == (1, 1)

    def test_would_block_is_typed(self):
        engine = engine_with("q", adt="FIFOQueue")
        engine.execute({"op": "begin", "name": "t1"})
        assert invoke(engine, "t1", "q", "Deq")["error"] == "WOULD_BLOCK"

    def test_txn_fast_path_and_stride(self):
        engine = engine_with("a", shard=1, shards=3)
        reply = engine.execute(
            {"op": "txn", "name": "T", "steps": [("a", "Credit", (2,)), ("a", "Credit", (3,))]}
        )
        assert reply["results"] == ["Ok", "Ok"]
        assert reply["ok"] % 3 == 1
        assert engine.execute({"op": "snapshot", "obj": "a"})["ok"] == 5

    def test_stats_shape(self):
        engine = engine_with("a", wal=GroupCommitWAL(MemoryWAL()))
        engine.execute_batch(
            [{"op": "txn", "name": "T", "steps": [("a", "Credit", (1,))]}]
        )
        stats = engine.execute({"op": "stats"})["ok"]
        assert stats["shard"] == 0 and stats["shards"] == 1
        assert stats["incarnation"] == 1
        assert stats["objects"] == 1 and stats["prepared"] == []
        assert stats["wal_records"] == 3          # meta, create, commit
        assert stats["batches"] == 1
        # Without a log every counter still answers.
        bare = ShardEngine().execute({"op": "stats"})["ok"]
        assert bare["wal_records"] == 0 and bare["batches"] is None

    def test_checkpoint_truncates_and_the_next_life_starts_above_it(self):
        wal = MemoryWAL()
        engine = ShardEngine(1, 2, wal=wal)
        for name in ("a", "b"):
            engine.execute({"op": "create", "name": name, "adt": "Account"})
        for i in range(3):
            engine.execute({"op": "txn", "name": f"T{i}", "steps": [("a", "Credit", (1,))]})
        before = len(wal)
        assert engine.execute({"op": "checkpoint"}) == {"ok": 2}
        assert len(wal) < before
        recovered = ShardEngine(1, 2, wal=wal, incarnation=2)
        assert recovered.recovery.from_checkpoint
        assert recovered.execute({"op": "snapshot", "obj": "a"})["ok"] == 3
        # The folded commits are gone from the log, not from the floor.
        later = recovered.execute(
            {"op": "txn", "name": "L", "steps": [("b", "Credit", (1,))]}
        )
        assert later["ok"] == 7
        # Without a log the op is refused, typed.
        refused = ShardEngine().execute({"op": "checkpoint"})
        assert refused["error"] == "BAD_REQUEST"
        assert "write-ahead log" in refused["message"]

    def test_unknown_op_and_crash(self):
        engine = engine_with()
        assert engine.execute({"op": "frobnicate"})["error"] == "BAD_REQUEST"
        with pytest.raises(EngineCrash):
            engine.execute({"op": "crash"})


class TestErrorLadder:
    """The one exception → code mapping, op by op."""

    @pytest.mark.parametrize(
        "operation, args, code",
        [
            ("Credit", (), "BAD_REQUEST"),          # wrong arity: ValueError
            ("Credit", (1, 2), "BAD_REQUEST"),
            ("Credit", ([25],), "INTERNAL"),        # TypeError inside the spec
        ],
    )
    def test_malformed_invocations(self, operation, args, code):
        engine = engine_with("a")
        engine.execute({"op": "begin", "name": "t"})
        reply = invoke(engine, "t", "a", operation, *args)
        assert reply["error"] == code, reply
        # The transaction survives a refused operation.
        assert invoke(engine, "t", "a", "Credit", 1) == {"ok": "Ok"}

    def test_queue_arity_and_unknown_object(self):
        engine = engine_with("q", adt="FIFOQueue")
        engine.execute({"op": "begin", "name": "t"})
        assert invoke(engine, "t", "q", "Enq")["error"] == "BAD_REQUEST"
        assert invoke(engine, "t", "nope", "Enq", 1)["error"] == "BAD_REQUEST"
        assert engine.execute({"op": "snapshot", "obj": "nope"})["error"] == "BAD_REQUEST"

    def test_duplicate_begin_is_bad_request(self):
        engine = engine_with()
        engine.execute({"op": "begin", "name": "t"})
        assert engine.execute({"op": "begin", "name": "t"})["error"] == "BAD_REQUEST"


class TestLockingProtocolsOnly:
    """The engine's ops (votes, checkpoints, recovery) are defined for lock
    machines: a protocol of another engine is refused, never served on a
    lock machine under its name (which would also switch the checker's
    conflict-acceptance family off for an object that is taking locks)."""

    def test_constructor_refuses(self):
        with pytest.raises(ValueError, match="locking protocols only"):
            ShardEngine(protocol="optimistic")

    def test_create_op_refuses_and_the_name_stays_free(self):
        engine = engine_with()
        create = {"op": "create", "name": "A", "adt": "Account"}
        refused = engine.execute({**create, "protocol": "optimistic"})
        assert refused["error"] == "BAD_REQUEST"
        assert "locking protocols only" in refused["message"]
        assert engine.execute({"op": "catalog"}) == {"ok": []}
        assert engine.execute({**create, "protocol": "commutativity"}) == {"ok": "A"}
        assert type(engine.manager.object("A").machine) is CompactingLockMachine

    def test_process_pool_reports_it_as_the_start_up_cause(self, tmp_path):
        pool = ShardProcessPool(2, tmp_path / "data", protocol="optimistic")
        try:
            pool.start()
            with pytest.raises(ShardDown, match="locking protocols only"):
                pool.shards[0].single({"op": "stats"})
        finally:
            pool.stop()

    @pytest.mark.parametrize("transport", ["local", "process"])
    def test_create_over_the_wire_is_bad_request(self, transport, serve_over):
        async def scenario():
            server = await serve_over(transport)
            client = await AsyncClient.connect(server.host, server.port)
            with pytest.raises(WireError) as caught:
                await client.create("A", "Account", protocol="optimistic")
            # Refused, not half-registered: the same name is still free.
            await client.create("A", "Account", protocol="hybrid")
            await client.aclose()
            await server.drain()
            return caught.value.code

        assert asyncio.run(scenario()) == "BAD_REQUEST"


class TestConflictNamesItsHolder:
    """A ``CONFLICT`` reply names the lock's holder (what a blocking
    client waits on); the wire's error frame stays code + message."""

    def test_reply_carries_the_holder(self):
        engine = engine_with("a")
        engine.execute({"op": "txn", "name": "seed", "steps": [("a", "Credit", (3,))]})
        engine.execute({"op": "begin", "name": "t1"})
        engine.execute({"op": "begin", "name": "t2"})
        assert invoke(engine, "t1", "a", "Debit", 1) == {"ok": "Ok"}
        reply = invoke(engine, "t2", "a", "Debit", 1)
        assert reply["error"] == "CONFLICT"
        assert reply["holder"] == "t1"

    def test_the_wire_error_frame_keys_are_unchanged(self):
        from repro.server import ReproServer
        from repro.server.protocol import FrameDecoder

        async def scenario():
            server = ReproServer(workers=1, drain_grace=0.5)
            await server.start()
            server.create_object("A", "Account")
            holder = await AsyncClient.connect(server.host, server.port)
            seed = await holder.begin()
            await holder.invoke(seed, "A", "Credit", 3)
            await holder.commit(seed)
            await holder.invoke(await holder.begin(), "A", "Debit", 1)
            refused = await AsyncClient.connect(server.host, server.port)
            handle = await refused.begin()
            frames = []
            connection = list(server.core.channels.values())[-1]
            write = connection.transport.write
            connection.transport.write = lambda data: (frames.append(data), write(data))
            with pytest.raises(WireError) as caught:
                await refused.invoke(handle, "A", "Debit", 1)
            for client in (holder, refused):
                await client.aclose()
            await server.drain()
            return caught.value.code, FrameDecoder().feed(b"".join(frames))

        code, (frame,) = asyncio.run(scenario())
        assert code == "CONFLICT"
        assert set(frame) == {"v", "id", "ok", "error"}
        assert set(frame["error"]) == {"code", "message"}


class TestTxnOpLeak:
    """Satellite regression: a failed step must not strand the transaction."""

    @pytest.mark.parametrize(
        "bad_step, code",
        [
            (("nope", "Credit", (1,)), "BAD_REQUEST"),      # KeyError
            (("a", "Credit", ([1],)), "INTERNAL"),          # TypeError
            (("a", "Credit", ()), "BAD_REQUEST"),           # ValueError
        ],
    )
    def test_failed_step_aborts_before_answering(self, bad_step, code):
        engine = engine_with("a")
        engine.execute({"op": "txn", "name": "seed", "steps": [("a", "Credit", (5,))]})
        reply = engine.execute(
            {"op": "txn", "name": "t1", "steps": [("a", "Debit", (1,)), bad_step]}
        )
        assert reply["error"] == code, reply
        assert engine.manager.transaction("t1") is None
        assert engine.execute({"op": "stats"})["ok"]["aborted"] == 1
        # Its Debit lock is gone: the next Debit is not refused ...
        after = engine.execute(
            {"op": "txn", "name": "t2", "steps": [("a", "Debit", (1,))]}
        )
        assert after["results"] == ["Ok"]
        assert engine.execute({"op": "snapshot", "obj": "a"})["ok"] == 4
        # ... and the same name can be begun again (it used to answer
        # "already exists"; the machine at ``a`` still remembers the
        # aborted name, as the formal model's ``s.aborted`` does).
        assert engine.execute({"op": "begin", "name": "t1"}) == {"ok": "t1"}
        assert engine.execute({"op": "abort", "txn": "t1"}) == {"ok": None}

    def test_conflicting_step_still_aborts(self):
        engine = engine_with("a")
        engine.execute({"op": "txn", "name": "seed", "steps": [("a", "Credit", (5,))]})
        engine.execute({"op": "begin", "name": "holder"})
        invoke(engine, "holder", "a", "Debit", 1)
        reply = engine.execute(
            {"op": "txn", "name": "t1", "steps": [("a", "Debit", (1,))]}
        )
        assert reply["error"] == "CONFLICT"
        assert engine.manager.transaction("t1") is None


class TestTwoPhaseCommit:
    """The participant and primary roles, one engine each."""

    @staticmethod
    def pair():
        primary = engine_with("a", shard=0, shards=2)
        participant = engine_with("b", shard=1, shards=2)
        primary.execute({"op": "begin", "name": "X"})
        participant.execute({"op": "begin", "name": "X", "quiet": True})
        assert invoke(primary, "X", "a", "Credit", 1) == {"ok": "Ok"}
        assert invoke(participant, "X", "b", "Credit", 2) == {"ok": "Ok"}
        return primary, participant

    def test_prepare_decide_apply(self):
        primary, participant = self.pair()
        votes = [
            primary.execute({"op": "prepare", "txn": "X"})["ok"],
            participant.execute({"op": "prepare", "txn": "X"})["ok"],
        ]
        assert participant.execute({"op": "prepared"}) == {"ok": ["X"]}
        assert participant.execute({"op": "decision", "txn": "X"}) == {
            "ok": {"outcome": "unknown"}
        }
        decided = primary.execute({"op": "decide", "txn": "X", "votes": votes})["ok"]
        assert decided > max(votes) and decided % 2 == 0    # primary's stride
        assert primary.execute({"op": "decision", "txn": "X"}) == {
            "ok": {"outcome": "commit", "ts": decided}
        }
        applied = participant.execute({"op": "apply_commit", "txn": "X", "ts": decided})
        assert applied == {"ok": decided}
        assert participant.execute({"op": "prepared"}) == {"ok": []}
        assert participant.execute({"op": "snapshot", "obj": "b"})["ok"] == 2
        # The participant never mints below a decision it applied.
        later = participant.execute(
            {"op": "txn", "name": "L", "steps": [("b", "Credit", (1,))]}
        )
        assert later["ok"] > decided and later["ok"] % 2 == 1

    def test_apply_commit_retransmit_is_idempotent(self):
        primary, participant = self.pair()
        votes = [
            primary.execute({"op": "prepare", "txn": "X"})["ok"],
            participant.execute({"op": "prepare", "txn": "X"})["ok"],
        ]
        decided = primary.execute({"op": "decide", "txn": "X", "votes": votes})["ok"]
        apply = {"op": "apply_commit", "txn": "X", "ts": decided}
        assert participant.execute(apply) == {"ok": decided}
        assert participant.execute(apply) == {"ok": decided}       # the retransmit
        assert participant.execute({"op": "snapshot", "obj": "b"})["ok"] == 2
        # A different timestamp for a finished transaction is not an ack.
        wrong = participant.execute({"op": "apply_commit", "txn": "X", "ts": decided + 2})
        assert wrong["error"] == "UNKNOWN_TXN"

    def test_missing_transaction_answers(self):
        engine = engine_with("a")
        assert engine.execute({"op": "prepare", "txn": "Z"})["error"] == "NO_VOTE"
        assert engine.execute({"op": "decide", "txn": "Z", "votes": [1]})["error"] == (
            "UNKNOWN_TXN"
        )
        assert engine.execute({"op": "apply_commit", "txn": "Z", "ts": 4})["error"] == (
            "UNKNOWN_TXN"
        )

    def test_unprepared_apply_is_refused(self):
        primary, _ = self.pair()
        reply = primary.execute({"op": "apply_commit", "txn": "X", "ts": 10})
        assert reply["error"] == "BAD_REQUEST" and "never prepared" in reply["message"]

    def test_prepared_transaction_survives_recovery(self):
        wal = MemoryWAL()
        engine = engine_with("b", shard=1, shards=2, wal=wal)
        engine.execute({"op": "begin", "name": "X"})
        invoke(engine, "X", "b", "Credit", 2)
        vote = engine.execute({"op": "prepare", "txn": "X"})["ok"]
        recovered = ShardEngine(1, 2, wal=wal, incarnation=2)
        assert recovered.execute({"op": "catalog"}) == {"ok": ["b"]}
        assert recovered.execute({"op": "prepared"}) == {"ok": ["X"]}
        # Its Credit lock came back with it.
        recovered.execute({"op": "begin", "name": "Y"})
        assert invoke(recovered, "Y", "b", "Debit", 1)["error"] == "CONFLICT"
        applied = recovered.execute({"op": "apply_commit", "txn": "X", "ts": vote + 3})
        assert applied == {"ok": vote + 3}
        # A third life rebuilds the decision from the commit record.
        third = ShardEngine(1, 2, wal=wal, incarnation=3)
        assert third.execute({"op": "decision", "txn": "X"})["ok"] == {
            "outcome": "commit",
            "ts": vote + 3,
        }
        assert third.execute({"op": "stats"})["ok"]["incarnation"] == 3

    def test_a_restart_remembers_two_phase_decisions_only(self):
        """``decided`` is for peers resolving a prepared transaction;
        a single-shard commit has none — live, and after any restart."""
        wal = MemoryWAL()
        engine = engine_with("b", shard=1, shards=2, wal=wal)
        for index in range(100):
            steps = [("b", "Credit", (1,))]
            assert "ok" in engine.execute({"op": "txn", "name": f"s{index}", "steps": steps})
        engine.execute({"op": "begin", "name": "X", "quiet": True})
        invoke(engine, "X", "b", "Credit", 2)
        vote = engine.execute({"op": "prepare", "txn": "X"})["ok"]
        apply = {"op": "apply_commit", "txn": "X", "ts": vote + 3}
        assert engine.execute(apply) == {"ok": vote + 3}
        assert engine.decided == {"X": vote + 3}
        recovered = ShardEngine(1, 2, wal=wal, incarnation=2)
        assert recovered.decided == {"X": vote + 3}
        assert recovered.execute({"op": "decision", "txn": "X"})["ok"] == {
            "outcome": "commit",
            "ts": vote + 3,
        }
        assert recovered.execute({"op": "decision", "txn": "s7"})["ok"] == {
            "outcome": "unknown"
        }
        assert recovered.execute(apply) == {"ok": vote + 3}      # the retransmit
        assert recovered.execute({"op": "snapshot", "obj": "b"})["ok"] == 102

    def test_stride_mismatch_is_refused(self):
        wal = MemoryWAL()
        engine_with("a", shard=0, shards=2, wal=wal)
        with pytest.raises(Exception, match="stride"):
            ShardEngine(0, 3, wal=wal)


class TestBatchAndShardSet:
    def test_batch_flushes_once_after_every_op(self):
        base = MemoryWAL()
        wal = GroupCommitWAL(base)
        engine = engine_with("a", wal=wal)
        wal.flush()
        before = wal.batches
        replies = engine.execute_batch(
            [
                {"op": "txn", "name": f"B{i}", "steps": [("a", "Credit", (1,))]}
                for i in range(8)
            ]
        )
        assert all("ok" in reply for reply in replies)
        assert wal.batches == before + 1
        assert len(base) == len(wal)            # nothing left staged

    def test_coordinator_over_local_shards(self):
        shards = ShardSet(
            [LocalShard(ShardEngine(index, 2, wal=MemoryWAL())) for index in range(2)]
        )
        names = {}
        index = 0
        while len(names) < 2:
            names.setdefault(shards.shard_of(f"Q{index}"), f"Q{index}")
            index += 1
        for name in names.values():
            shards.create_object(name, "Account")
        assert shards.catalog() == [[names[0]], [names[1]]]
        with pytest.raises(ValueError, match="already exists"):
            shards.create_object(names[0], "Account")
        # The served driver runs the 2PC: a transaction whose primary is
        # shard 1 commits on its stride, everywhere.
        driven = Driven(shards)
        conn = driven.connect()
        for name in names.values():
            driven.core.catalog[name] = shards.shard_of(name)

        def transaction(*homes):
            handle = conn.begin()
            for home in homes:
                rid = conn.invoke(handle, names[home], "Credit", 4)
                assert result(conn.answer(rid)) == "Ok"
            return handle

        x = transaction(1, 0)
        reply = conn.call("commit", transaction=x)
        assert reply["result"]["timestamp"] % 2 == 1
        assert [row["committed"] for row in shards.stats()] == [1, 1]
        # An abort everywhere is harmless after the fact, and a prepare
        # nobody can vote on aborts the rest.
        for index, op in abort_round(x, [0, 1]):
            assert shards.shards[index].single(op) == {"ok": None}
        y = transaction(0, 1)
        shards.shards[1].single({"op": "abort", "txn": y})
        refused = conn.call("commit", transaction=y)
        assert refused["error"]["code"] == "NO_VOTE"
        assert shards.shards[0].engine.manager.transaction(y) is None
        assert not shards.blocking


# ----------------------------------------------------------------------
# "execute never raises": hypothesis-generated malformed ops
# ----------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.text(max_size=4),
    st.sampled_from(["a", "q", "t", "nope", "Credit", "Debit", "Enq", "Deq"]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ),
    max_leaves=6,
)
_fields = st.sampled_from(
    ["op", "name", "txn", "obj", "operation", "args", "steps", "votes", "ts",
     "adt", "protocol", "quiet"]
)
_malformed_ops = st.one_of(
    _values,                                                # not even a dict
    st.dictionaries(_fields, _values, max_size=6),          # any op, any shape
    st.builds(                                              # a real op, bent
        lambda kind, rest: {**rest, "op": kind},
        st.sampled_from(OPS),
        st.dictionaries(_fields, _values, max_size=6),
    ),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_malformed_ops, min_size=1, max_size=6))
def test_execute_never_raises(ops):
    engine = engine_with("a")
    engine.execute({"op": "create", "name": "q", "adt": "FIFOQueue"})
    engine.execute({"op": "begin", "name": "t"})
    for op in ops:
        try:
            reply = engine.execute(op)
        except EngineCrash:
            assert op["op"] == "crash"          # the one sanctioned escape
            continue
        assert set(reply) in ({"ok"}, {"ok", "results"}, {"error", "message"}), reply
    # Whatever came before, the engine still serves.
    assert engine.execute({"op": "catalog"})["ok"][:1] == ["a"]


def test_vocabulary_is_the_documented_one():
    # Every op named in the module docstring is dispatched (none answers
    # "unknown op"), so the docstring cannot drift from the ladder.
    engine = engine_with("a")
    for kind in OPS:
        if kind == "crash":
            continue
        reply = engine.execute({"op": kind})
        assert "unknown op" not in reply.get("message", ""), kind


class TestFailingSink:
    def test_a_sink_that_raises_cannot_split_an_atomic_commit(self):
        """A trace sink on a full disk raises between the two objects of
        one commit: both still commit, at one timestamp, the reply is
        ``ok`` — and the bus, not the machine, hears about it."""
        import errno

        from repro.obs import TraceBus

        seen = []

        def full_disk(event):
            if event.kind == "compaction.advance":
                raise OSError(errno.ENOSPC, "No space left on device")

        bus = TraceBus()
        bus.subscribe(full_disk)
        bus.subscribe(seen.append)
        engine = ShardEngine(0, 1, wal=MemoryWAL(), tracer=bus)
        for name in ("a", "b"):
            engine.execute({"op": "create", "name": name, "adt": "Account"})
        engine.execute({"op": "begin", "name": "t1"})
        assert invoke(engine, "t1", "a", "Credit", 5) == {"ok": "Ok"}
        assert invoke(engine, "t1", "b", "Credit", 7) == {"ok": "Ok"}
        assert engine.execute({"op": "commit", "txn": "t1"}) == {"ok": 1}
        assert engine.execute({"op": "snapshot", "obj": "a"})["ok"] == 5
        assert engine.execute({"op": "snapshot", "obj": "b"})["ok"] == 7
        # One transaction, one timestamp: nothing is left to commit again.
        assert engine.execute({"op": "commit", "txn": "t1"})["error"] == "UNKNOWN_TXN"
        commits = [event for event in seen if event.kind == "txn.commit"]
        assert [event.data["timestamp"] for event in commits] == [1]
        # The failing sink is detached with its exception kept; the
        # healthy one saw both objects' compaction and keeps listening.
        ((sink, error),) = bus.failures
        assert sink is full_disk and error.errno == errno.ENOSPC
        assert [e.data["obj"] for e in seen if e.kind == "compaction.advance"] == [
            "a",
            "b",
        ]
        engine.execute({"op": "begin", "name": "t2"})
        assert seen[-1].kind == "txn.begin"


class TestRetainedState:
    """Section 6, served: what a shard keeps does not grow with the
    transactions it has committed (ROADMAP item 5)."""

    @staticmethod
    def retained(engine):
        """Entries in every list / dict / set the engine, its manager, its
        timestamp generator and its machines hold."""
        holders = [engine, engine.manager, engine.generator]
        holders += [managed.machine for managed in engine.manager.objects.values()]
        return sum(
            len(value)
            for holder in holders
            for value in vars(holder).values()
            if isinstance(value, (list, dict, set))
        )

    def test_committed_transactions_leave_nothing_behind(self, tmp_path, monkeypatch):
        from repro.core import lock_machine
        from repro.obs import (
            WIRE_LATENCY_BUCKETS,
            FlightRecorder,
            MetricsRegistry,
            RegistrySink,
            TraceBus,
        )

        built = []
        for name in ("InvocationEvent", "ResponseEvent", "CommitEvent", "AbortEvent"):
            monkeypatch.setattr(
                lock_machine, name, lambda *fields, _name=name: built.append(_name)
            )
        # The sinks `repro serve` attaches by default.
        bus = TraceBus()
        bus.subscribe(RegistrySink(MetricsRegistry(), WIRE_LATENCY_BUCKETS))
        bus.subscribe(FlightRecorder(tmp_path, queue_high_water=64, emit_to=bus))
        engine = ShardEngine(0, 1, wal=None, tracer=bus)
        for name in ("a", "b"):
            engine.execute({"op": "create", "name": name, "adt": "Account"})

        def serve(first, last):
            for index in range(first, last):
                steps = [("a", "Credit", (1,)), ("b", "Credit", (1,))]
                op = {"op": "txn", "name": f"t{index}", "steps": steps}
                assert engine.execute(op)["ok"] == index + 1

        serve(0, 1000)
        after_1000 = self.retained(engine)
        serve(1000, 3000)
        assert self.retained(engine) == after_1000
        assert engine.decided == {}
        # The production machine built no core.events object on the way.
        assert built == []
        # Still open (item 5 b): an abort leaves its name in the
        # machine's ``aborted`` set for ever — one entry each, nothing else.
        for index in range(10):
            engine.execute({"op": "begin", "name": f"x{index}"})
            assert invoke(engine, f"x{index}", "a", "Credit", 1) == {"ok": "Ok"}
            assert engine.execute({"op": "abort", "txn": f"x{index}"}) == {"ok": None}
        assert self.retained(engine) == after_1000 + 10


class TestOneRedoRecordPerTransaction:
    """§5.1 keeps one thing on stable storage — the intentions list,
    written when the transaction completes: the log holds a record per
    *transaction*, never per operation (counted, not timed)."""

    @staticmethod
    def kinds(engine):
        return [record["kind"] for record in engine.manager.wal.records()]

    @pytest.mark.parametrize("k", [1, 4])
    def test_k_operations_commit_as_one_record(self, k):
        engine = engine_with("a")
        engine.execute({"op": "begin", "name": "t"})
        for _ in range(k):
            assert invoke(engine, "t", "a", "Credit", 1) == {"ok": "Ok"}
        assert self.kinds(engine) == ["meta", "create"]     # nothing yet
        assert "ok" in engine.execute({"op": "commit", "txn": "t"})
        assert self.kinds(engine) == ["meta", "create", "commit"]
        assert len(engine.manager.wal.records()[-1]["intentions"]["a"]) == k

    def test_two_phase_commit_is_prepare_plus_commit_on_each_shard(self):
        primary, participant = TestTwoPhaseCommit.pair()
        votes = [
            shard.execute({"op": "prepare", "txn": "X"})["ok"]
            for shard in (primary, participant)
        ]
        decided = primary.execute({"op": "decide", "txn": "X", "votes": votes})["ok"]
        participant.execute({"op": "apply_commit", "txn": "X", "ts": decided})
        for shard in (primary, participant):
            assert self.kinds(shard) == ["meta", "create", "prepare", "commit"]

    def test_abort_of_a_touched_transaction_is_one_record(self):
        engine = engine_with("a")
        engine.execute({"op": "begin", "name": "t"})
        for _ in range(3):
            invoke(engine, "t", "a", "Credit", 1)
        assert engine.execute({"op": "abort", "txn": "t"}) == {"ok": None}
        # One that touched nothing leaves nothing.
        engine.execute({"op": "begin", "name": "u"})
        engine.execute({"op": "abort", "txn": "u"})
        assert self.kinds(engine) == ["meta", "create", "abort"]

    def test_plain_file_wal_pays_one_fsync_per_commit(self, tmp_path):
        from repro.recovery import FileWAL

        wal = FileWAL(tmp_path)
        engine = engine_with("a", wal=wal)
        for index in range(3):
            syncs, appends = wal.syncs, wal.appends
            steps = [("a", "Credit", (1,))] * 4
            assert "ok" in engine.execute({"op": "txn", "name": f"t{index}", "steps": steps})
            assert (wal.syncs, wal.appends) == (syncs + 1, appends + 1)


def test_a_torn_final_write_survives_the_restart_after_next(tmp_path):
    """Two crash / restart rounds over one directory, the second crash
    tearing the last line: the shard that reopens over the tear must cut
    it off before appending, or the restart *after* it finds its first
    record fused onto the fragment and refuses the log for good."""
    from repro.recovery import FileWAL

    def life(incarnation):
        return ShardEngine(0, 1, wal=FileWAL(tmp_path), incarnation=incarnation)

    def credit(engine, name):
        return engine.execute({"op": "txn", "name": name, "steps": [("a", "Credit", (1,))]})

    first = life(1)
    first.execute({"op": "create", "name": "a", "adt": "Account"})
    assert "ok" in credit(first, "t0")
    second = life(2)                                # crash 1: clean
    assert "ok" in credit(second, "t1")
    path = tmp_path / FileWAL.FILENAME
    os.truncate(path, path.stat().st_size - 20)     # crash 2: t1's write torn
    third = life(3)
    assert third.execute({"op": "snapshot", "obj": "a"})["ok"] == 1
    assert "ok" in credit(third, "t2")
    fourth = life(4)
    assert fourth.execute({"op": "snapshot", "obj": "a"})["ok"] == 2
    kinds = [record["kind"] for record in FileWAL(tmp_path).records()]
    assert kinds == ["meta", "create", "commit", "commit"]
