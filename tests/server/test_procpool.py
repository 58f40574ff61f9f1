"""Shared-nothing shard processes: routing, 2PC, supervision, cleanup.

Covers the multi-process serving tier end to end — real child processes,
real pipes, real WALs in a tmp directory — plus the two session-hygiene
regressions: a refused 2PC (in-loop mode) and a worker death (pool
mode) must leak no session state and strand no queued request.
"""

import asyncio
import concurrent.futures
import itertools
import os
import signal

import pytest

from repro.obs import AtomicityChecker, JSONLSink, RingBufferSink, TraceBus, read_jsonl
from repro.server import (
    AsyncClient,
    ReproServer,
    Session,
    ShardDown,
    ShardProcessPool,
    WireError,
)
from tests.server.driven import Driven
from tests.server.running import run


def corrupt_first_line(wal):
    """Overwrite the first line of log file ``wal`` with garbage, so that
    recovery refuses it (a corrupt line before the last is not a torn
    write); returns the line, to put back."""
    first, *rest = wal.read_text(encoding="utf-8").splitlines(keepends=True)
    wal.write_text("garbage\n" + "".join(rest), encoding="utf-8")
    return first


def two_shard_names(pool):
    """Object names landing on shard 0 and shard 1 respectively."""
    names = {}
    index = 0
    while len(names) < 2:
        candidate = f"Q{index}"
        names.setdefault(pool.shard_of(candidate), candidate)
        index += 1
    return names[0], names[1]


@pytest.fixture()
def pool(tmp_path):
    built = ShardProcessPool(2, tmp_path / "data", trace_dir=tmp_path / "traces")
    built.start()
    yield built
    built.stop()


@pytest.fixture()
def served(pool):
    """A driven core over ``pool`` (one batch per shard call) with a
    connection (``served.conn``); ``served.meet(i)`` brings killed shard
    ``i`` back, as the core does."""
    driven = Driven(pool, batched=True)
    driven.conn = driven.connect()
    return driven


class TestPoolDirect:
    def test_single_shard_txn_fast_path(self, pool):
        a, _ = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        reply = pool.shards[0].single(
            {"op": "txn", "name": "T1", "steps": [(a, "Enq", (1,)), (a, "Enq", (2,))]}
        )
        assert reply["results"] == ["Ok", "Ok"]
        # Shard 0 mints on its own stride.
        assert reply["ok"] % pool.workers == 0
        snapshot = pool.shards[0].single({"op": "snapshot", "obj": a})
        assert snapshot["ok"] == (1, 2)

    def test_cross_shard_2pc_commits_everywhere(self, pool, served):
        a, b = two_shard_names(pool)
        served.create(a, "FIFOQueue")
        served.create(b, "FIFOQueue")
        conn = served.conn
        x = conn.begin()
        conn.invoke(x, a, "Enq", 7)
        conn.invoke(x, b, "Enq", 8)
        reply = conn.call("commit", transaction=x)
        assert reply["ok"]
        # The decision lands on the primary's stride and both shards
        # applied it.
        assert reply["result"]["timestamp"] % pool.workers == 0
        assert pool.shards[0].single({"op": "snapshot", "obj": a})["ok"] == (7,)
        assert pool.shards[1].single({"op": "snapshot", "obj": b})["ok"] == (8,)

    def test_killed_shard_recovers_committed_state_from_wal(self, pool, served):
        a, _ = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        pool.shards[0].single(
            {"op": "txn", "name": "T1", "steps": [(a, "Enq", (5,))]}
        )
        pool.shards[0].kill()
        with pytest.raises(ShardDown):
            pool.shards[0].single({"op": "stats"})
        served.meet(0)
        assert pool.shards[0].single({"op": "snapshot", "obj": a})["ok"] == (5,)
        stats = pool.shards[0].single({"op": "stats"})["ok"]
        assert stats["incarnation"] == 2

    def test_group_commit_amortises_fsyncs_across_a_batch(self, pool):
        a, _ = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        before = pool.shards[0].single({"op": "stats"})["ok"]
        ops = [
            {"op": "txn", "name": f"B{i}", "steps": [(a, "Enq", (i,))]}
            for i in range(8)
        ]
        replies = pool.shards[0].call(ops)
        assert all("ok" in reply for reply in replies)
        after = pool.shards[0].single({"op": "stats"})["ok"]
        # 8 transactions × 1 record (the commit carries the intentions)
        # in ONE durable batch: exactly one more fsync, eight more appends.
        assert after["wal_syncs"] == before["wal_syncs"] + 1
        assert after["wal_appends"] == before["wal_appends"] + 8

    def test_a_shard_checkpoints_and_restarts_from_it(self, pool, served):
        a, _ = two_shard_names(pool)
        pool.create_object(a, "Account")
        shard = pool.shards[0]
        for i in range(4):
            shard.single({"op": "txn", "name": f"T{i}", "steps": [(a, "Credit", (i,))]})
        assert shard.single({"op": "checkpoint"}) == {"ok": 1}
        # The log is meta, one create and the checkpoint: nothing else.
        assert shard.single({"op": "stats"})["ok"]["wal_records"] == 3
        before = shard.single({"op": "snapshot", "obj": a})
        shard.kill()
        served.meet(0)
        assert shard.single({"op": "snapshot", "obj": a}) == before == {"ok": 6}
        later = shard.single({"op": "txn", "name": "L", "steps": [(a, "Credit", (1,))]})
        assert later["ok"] == 10        # above the four folded commits, 2 to 8
        (recovered,) = [
            event
            for event in read_jsonl(str(shard.trace_paths[-1]))
            if event.kind == "site.recover"
        ]
        assert recovered.data["from_checkpoint"] is True
        assert recovered.data["replayed_records"] == 0
        events = [
            event
            for each in pool.shards
            for path in each.trace_paths
            for event in read_jsonl(str(path))
        ]
        events.sort(key=lambda event: event.ts)
        report = AtomicityChecker().replay(events).report()
        assert report["verdict"] == "clean", report["violations"]

    def test_prepared_transaction_survives_crash_and_resolves_commit(
        self, pool, served
    ):
        a, b = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        pool.create_object(b, "FIFOQueue")
        pool.shards[0].single({"op": "begin", "name": "X"})
        pool.shards[1].single({"op": "begin", "name": "X", "quiet": True})
        pool.shards[0].single(
            {"op": "invoke", "txn": "X", "obj": a, "operation": "Enq", "args": (1,)}
        )
        pool.shards[1].single(
            {"op": "invoke", "txn": "X", "obj": b, "operation": "Enq", "args": (2,)}
        )
        v0 = pool.shards[0].single({"op": "prepare", "txn": "X"})["ok"]
        v1 = pool.shards[1].single({"op": "prepare", "txn": "X"})["ok"]
        # Primary decides and commits locally; participant crashes before
        # the decision reaches it.
        decided = pool.shards[0].single(
            {"op": "decide", "txn": "X", "votes": [v0, v1]}
        )["ok"]
        assert pool.shards[1].single({"op": "prepared"})["ok"] == ["X"]
        pool.shards[1].kill()
        served.meet(1)
        assert pool.shards[1].single({"op": "prepared"})["ok"] == []
        verdict = pool.shards[1].single({"op": "decision", "txn": "X"})["ok"]
        assert verdict == {"outcome": "commit", "ts": decided}
        assert pool.shards[1].single({"op": "snapshot", "obj": b})["ok"] == (2,)

    def test_prepared_transaction_presumed_abort_without_decision(self, pool, served):
        a, b = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        pool.create_object(b, "FIFOQueue")
        pool.shards[0].single({"op": "begin", "name": "X"})
        pool.shards[1].single({"op": "begin", "name": "X", "quiet": True})
        pool.shards[1].single(
            {"op": "invoke", "txn": "X", "obj": b, "operation": "Enq", "args": (2,)}
        )
        pool.shards[1].single({"op": "prepare", "txn": "X"})
        # No shard ever logged a commit: crash + respawn resolves the
        # prepared transaction by presumed abort, releasing its locks.
        assert pool.shards[1].single({"op": "prepared"})["ok"] == ["X"]
        pool.shards[1].kill()
        served.meet(1)
        verdict = pool.shards[1].single({"op": "decision", "txn": "X"})["ok"]
        assert verdict == {"outcome": "unknown"}
        assert pool.shards[1].single({"op": "snapshot", "obj": b})["ok"] == ()
        assert pool.shards[1].single({"op": "prepared"})["ok"] == []

    def test_coordinator_crash_between_prepare_and_decide(self, pool, served):
        """Fault injection: both shards prepared, the coordinator dies
        before deciding anywhere — no commit record exists, so recovery
        resolves the transaction by presumed abort on every shard."""
        a, b = two_shard_names(pool)
        served.create(a, "FIFOQueue")
        served.create(b, "FIFOQueue")
        pool.shards[0].single({"op": "begin", "name": "X"})
        pool.shards[1].single({"op": "begin", "name": "X", "quiet": True})
        for home, name in ((0, a), (1, b)):
            pool.shards[home].single(
                {
                    "op": "invoke",
                    "txn": "X",
                    "obj": name,
                    "operation": "Enq",
                    "args": (7,),
                }
            )
            pool.shards[home].single({"op": "prepare", "txn": "X"})
        # The coordinator (parent) "crashes": kill both participants
        # before any decide lands, then bring them back — the core meets
        # shard 0 dead, and shard 1 when shard 0's resolution asks it.
        for shard in pool.shards:
            assert shard.single({"op": "prepared"})["ok"] == ["X"]
            shard.kill()
        served.meet(0)
        for home, name in ((0, a), (1, b)):
            assert pool.shards[home].incarnation == 2
            assert pool.shards[home].single(
                {"op": "decision", "txn": "X"}
            )["ok"] == {"outcome": "unknown"}
            assert pool.shards[home].single(
                {"op": "snapshot", "obj": name}
            )["ok"] == ()
            assert pool.shards[home].single({"op": "prepared"})["ok"] == []
        # Both shards are consistent and unlocked: the same pair commits.
        conn = served.conn
        y = conn.begin()
        for name in (b, a):  # primary: shard 1
            conn.invoke(y, name, "Enq", 8)
        assert conn.call("commit", transaction=y)["ok"]

    def test_crash_op_loses_only_the_unflushed_batch(self, pool, served):
        """Fault injection: a hard crash mid-batch (before the group
        flush) loses exactly the unacknowledged batch — earlier acked
        batches survive via the WAL."""
        a, _ = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        acked = pool.shards[0].call(
            [
                {"op": "txn", "name": "A1", "steps": [(a, "Enq", (1,))]},
                {"op": "txn", "name": "A2", "steps": [(a, "Enq", (2,))]},
            ]
        )
        assert all("ok" in reply for reply in acked)
        # The crash op dies via os._exit before the batch's WAL flush:
        # the whole batch — including the txns ahead of it — was never
        # acknowledged, and must be lost.
        with pytest.raises(ShardDown):
            pool.shards[0].call(
                [
                    {"op": "txn", "name": "B1", "steps": [(a, "Enq", (3,))]},
                    {"op": "crash"},
                ]
            )
        served.meet(0)
        assert pool.shards[0].single({"op": "snapshot", "obj": a})["ok"] == (1, 2)

    def test_stride_mismatch_is_refused_on_respawn(self, tmp_path):
        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
        a, _ = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        pool.shards[0].single({"op": "txn", "name": "T1", "steps": [(a, "Enq", (1,))]})
        pool.stop()
        # Reopening shard 0's log as shard 0 *of 3* must be refused: a
        # resized pool would mint colliding timestamps.
        resized = ShardProcessPool(3, tmp_path / "data")
        try:
            resized.start()
            with pytest.raises(ShardDown, match="stride"):
                resized.shards[0].single({"op": "stats"})
        finally:
            resized.stop()


class TestPoolServer:
    """The asyncio front end over the process pool, on real sockets."""

    async def _started(self, tmp_path, **kwargs):
        pool = ShardProcessPool(2, tmp_path / "data", trace_dir=tmp_path / "traces")
        server = ReproServer(pool=pool, drain_grace=0.5, **kwargs)
        await server.start()
        client = await AsyncClient.connect(server.host, server.port)
        return pool, server, client

    def test_cross_shard_transaction_commits_over_the_wire(self, tmp_path):
        async def scenario():
            pool, server, client = await self._started(tmp_path)
            a, b = two_shard_names(pool)
            await client.create(a, "FIFOQueue")
            await client.create(b, "FIFOQueue")
            txn = await client.begin()
            await client.invoke(txn, a, "Enq", 1)
            await client.invoke(txn, b, "Enq", 2)
            timestamp, _ = await client.commit(txn)
            assert isinstance(timestamp, int)
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_worker_death_answers_shard_down_and_leaks_nothing(self, tmp_path):
        """Satellite regression: worker death strands and leaks nothing.

        The in-flight request gets a typed SHARD_DOWN, the handle that
        touched the dead shard is closed (later use answers UNKNOWN_TXN,
        not a hang), locks on the surviving participant are released,
        and the shard comes back recovered.
        """

        async def scenario():
            pool, server, client = await self._started(tmp_path)
            a, b = two_shard_names(pool)
            await client.create(a, "FIFOQueue")
            await client.create(b, "FIFOQueue")
            # A cross-shard transaction holding locks on both shards.
            txn = await client.begin()
            await client.invoke(txn, a, "Enq", 1)
            await client.invoke(txn, b, "Enq", 2)
            pool.shards[1].kill()
            with pytest.raises(WireError) as caught:
                await asyncio.wait_for(client.invoke(txn, b, "Enq", 3), 30)
            assert caught.value.code == "SHARD_DOWN"
            # The handle was cleaned everywhere, not leaked.
            with pytest.raises(WireError) as caught:
                await client.invoke(txn, a, "Enq", 4)
            assert caught.value.code == "UNKNOWN_TXN"
            for connection in server.core.channels.values():
                assert connection.session.active == 0
            # Shard 0's locks were released: a new transaction can lock a.
            txn2 = await client.begin()
            await client.invoke(txn2, a, "Enq", 5)
            # And the dead shard is back, recovered, serving.
            await client.invoke(txn2, b, "Enq", 6)
            timestamp, _ = await client.commit(txn2)
            assert isinstance(timestamp, int)
            stats = await client.stats()
            assert stats["pool"]["alive"] == [True, True]
            assert stats["pool"]["incarnations"][1] == 2
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_a_shard_that_cannot_restart_stays_down_and_answers(self, tmp_path):
        """A respawn whose child cannot start (its log's first line is
        garbage, so recovery refuses it) leaves the shard down: every
        request for it answers ``SHARD_DOWN``, it is not forked again per
        batch, the other shard serves, and the drain finishes."""

        async def scenario():
            pool, server, client = await self._started(tmp_path)
            a, b = two_shard_names(pool)
            await client.create(a, "Account")
            await client.create(b, "Account")
            txn = await client.begin()
            await client.invoke(txn, b, "Credit", 1)
            await client.commit(txn)
            pool.shards[1].kill()
            corrupt_first_line(tmp_path / "data" / "shard1" / "wal.jsonl")
            for _ in range(3):
                txn = await client.begin()
                with pytest.raises(WireError) as caught:
                    await asyncio.wait_for(client.invoke(txn, b, "Credit", 1), 30)
                assert caught.value.code == "SHARD_DOWN"
            assert pool.shards[1].incarnation == 2  # one fatal child, no more
            txn = await client.begin()
            await client.invoke(txn, a, "Credit", 1)
            timestamp, _ = await client.commit(txn)
            assert isinstance(timestamp, int)
            await client.aclose()
            await asyncio.wait_for(server.drain(), 30)

        run(scenario())

    def test_merged_trace_certifies_clean_through_worker_death(self, tmp_path):
        parent_trace = tmp_path / "parent.jsonl"

        async def scenario():
            bus = TraceBus()
            sink = bus.subscribe(JSONLSink(str(parent_trace)))
            pool = ShardProcessPool(
                2, tmp_path / "data", trace_dir=tmp_path / "traces"
            )
            server = ReproServer(
                pool=pool, tracer=bus, drain_grace=0.5, flush_on_drain=[sink]
            )
            await server.start()
            client = await AsyncClient.connect(server.host, server.port)
            a, b = two_shard_names(pool)
            await client.create(a, "FIFOQueue")
            await client.create(b, "FIFOQueue")
            for value in range(3):
                txn = await client.begin()
                await client.invoke(txn, a, "Enq", value)
                await client.invoke(txn, b, "Enq", value)
                await client.commit(txn)
            pool.shards[1].kill()
            txn = await client.begin()
            with pytest.raises(WireError):
                await client.invoke(txn, b, "Enq", 99)
            txn = await client.begin()
            await client.invoke(txn, b, "Enq", 100)
            await client.commit(txn)
            await client.aclose()
            await server.drain()
            return pool

        pool = run(scenario())
        events = read_jsonl(str(parent_trace))
        for shard in pool.shards:
            for path in shard.trace_paths:
                events.extend(read_jsonl(str(path)))
        events.sort(key=lambda event: event.ts)
        report = AtomicityChecker().replay(events).report()
        assert report["verdict"] == "clean", report["violations"]

    def test_drain_flushes_and_joins_the_pool(self, tmp_path):
        async def scenario():
            pool, server, client = await self._started(tmp_path)
            a, _ = two_shard_names(pool)
            await client.create(a, "FIFOQueue")
            txn = await client.begin()
            await client.invoke(txn, a, "Enq", 1)
            # Leave the transaction open: drain force-aborts it.
            await client.aclose()
            report = await server.drain()
            assert report["aborted"] >= 0
            assert all(not shard.alive for shard in pool.shards)
            # The WAL directories survive for the next incarnation.
            assert (tmp_path / "data" / "shard0" / "wal.jsonl").exists()

        run(scenario())


class TestTwoPhaseCommitOnTheLoop:
    """A process shard's pipe is watched by the loop, and a cross-shard
    commit's rounds ride the shards' FIFOs through the core's round
    driver: it owns its handle until it decides, and stalls no shard."""

    async def _started(self, tmp_path, **kwargs):
        bus = TraceBus()
        sink = bus.subscribe(JSONLSink(str(tmp_path / "parent.jsonl")))
        pool = ShardProcessPool(2, tmp_path / "data", trace_dir=tmp_path / "traces")
        pool.start()
        server = ReproServer(
            pool=pool, tracer=bus, drain_grace=0.5, flush_on_drain=[sink], **kwargs
        )
        a, b = two_shard_names(pool)
        server.create_object(a, "Account")
        server.create_object(b, "Account")
        await server.start()
        client = await AsyncClient.connect(server.host, server.port)
        return pool, server, client, a, b

    @staticmethod
    async def _transfer(client, a, b):
        """A transaction crediting 5 on shard 0 (its primary) and 7 on 1."""
        txn = await client.begin()
        await client.invoke(txn, a, "Credit", 5)
        await client.invoke(txn, b, "Credit", 7)
        return txn

    @staticmethod
    def _certified(tmp_path, pool):
        events = read_jsonl(str(tmp_path / "parent.jsonl"))
        for shard in pool.shards:
            for path in shard.trace_paths:
                events.extend(read_jsonl(str(path)))
        events.sort(key=lambda event: event.ts)
        return AtomicityChecker().replay(events).report()["verdict"] == "clean"

    @staticmethod
    def _balances(tmp_path, a, b):
        """Both accounts as a restart over the same logs finds them (its
        core's start-up resolution included)."""
        reopened = ShardProcessPool(2, tmp_path / "data")
        reopened.start()
        try:
            Driven(reopened, batched=True)
            return [
                reopened.shards[home].single({"op": "snapshot", "obj": name})["ok"]
                for home, name in ((0, a), (1, b))
            ]
        finally:
            reopened.stop()

    def test_a_client_hanging_up_mid_commit_cannot_split_it(self, tmp_path, hold):
        async def scenario():
            pool, server, client, a, b = await self._started(tmp_path)
            txn = await self._transfer(client, a, b)
            entered, release = hold(pool.shards[1], "apply_commit")
            commit = asyncio.ensure_future(client.commit(txn))
            await entered.wait()  # shard 0 decided commit; shard 1 is prepared
            await client.aclose()  # the handler's sweep must leave it alone
            with pytest.raises(ConnectionError):
                await commit
            while server.core.channels:
                await asyncio.sleep(0.01)  # the handler has finished
            release.set()
            while not server.stats["transactions_committed"]:
                await asyncio.sleep(0.01)  # the 2PC's own reply closes it
            assert server.stats["transactions_aborted"] == 0
            await server.drain()
            return pool

        pool = run(scenario())
        assert self._certified(tmp_path, pool)
        a, b = two_shard_names(pool)
        assert self._balances(tmp_path, a, b) == [5, 7]

    def test_a_drain_past_its_grace_cannot_split_a_commit_in_flight(
        self, tmp_path, hold
    ):
        async def scenario():
            pool, server, client, a, b = await self._started(tmp_path)
            txn = await self._transfer(client, a, b)
            entered, release = hold(pool.shards[1], "apply_commit")
            commit = asyncio.ensure_future(client.commit(txn))
            await entered.wait()
            server.drain_grace = 0.0
            drain = asyncio.ensure_future(server.drain())
            while not server.core.stopping:
                await asyncio.sleep(0.01)  # force-aborting is over
            release.set()
            timestamp, _ = await commit  # the 2PC's own answer
            report = await drain
            await client.aclose()
            return pool, timestamp, report

        pool, timestamp, report = run(scenario())
        assert isinstance(timestamp, int) and report["aborted"] == 0
        assert self._certified(tmp_path, pool)
        a, b = two_shard_names(pool)
        assert self._balances(tmp_path, a, b) == [5, 7]

    def test_a_2pc_in_flight_does_not_block_its_primary(self, tmp_path, hold):
        async def scenario():
            pool, server, client, a, b = await self._started(tmp_path)
            txn = await self._transfer(client, a, b)
            entered, release = hold(pool.shards[1], "apply_commit")
            commit = asyncio.ensure_future(client.commit(txn))
            await entered.wait()
            # Shard 0 is the 2PC's primary; it still serves.
            other = await client.begin()
            await asyncio.wait_for(client.invoke(other, a, "Credit", 1), 10)
            single, _ = await asyncio.wait_for(client.commit(other), 10)
            assert not commit.done()
            release.set()
            decided, _ = await commit
            await client.aclose()
            await server.drain()
            return pool, single, decided

        pool, single, decided = run(scenario())
        assert single > decided  # the decision was applied before it
        assert self._certified(tmp_path, pool)

    def test_a_commit_verdict_for_a_shard_that_stays_down_is_not_resent(
        self, tmp_path, hold
    ):
        """The primary decided; the participant dies before applying and
        its new child cannot start.  The commit is answered, the verdict
        is not posted in a loop, the drain finishes — and the decision
        reaches the participant at its next start."""
        wal = tmp_path / "data" / "shard1" / "wal.jsonl"

        async def scenario():
            pool, server, client, a, b = await self._started(tmp_path)
            txn = await self._transfer(client, a, b)
            entered, release = hold(pool.shards[1], "apply_commit")
            commit = asyncio.ensure_future(client.commit(txn))
            await entered.wait()
            pool.shards[1].kill()
            first = corrupt_first_line(wal)
            release.set()
            timestamp, _ = await asyncio.wait_for(commit, 30)
            assert pool.shards[1].incarnation == 2
            await client.aclose()
            await asyncio.wait_for(server.drain(), 30)
            return pool, timestamp, first

        pool, timestamp, first = run(scenario())
        assert isinstance(timestamp, int)
        wal.write_text(first + wal.read_text(encoding="utf-8").split("\n", 1)[1])
        a, b = two_shard_names(pool)
        assert self._balances(tmp_path, a, b) == [5, 7]

    def test_two_shards_dying_together_do_not_wait_on_each_other(self, tmp_path):
        """No shard waits on another shard's queue: each dead shard's
        sweep posts its survivors' aborts and goes on to its respawn."""

        async def scenario():
            pool, server, client, a, b = await self._started(tmp_path)
            first = await self._transfer(client, a, b)
            second = await self._transfer(client, a, b)
            pool.shards[0].kill()
            pool.shards[1].kill()
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    client.invoke(first, a, "Credit", 1),
                    client.invoke(second, b, "Credit", 1),
                    return_exceptions=True,
                ),
                30,
            )
            # The first death's sweep may close the other handle before
            # the second shard's batch is posted.
            codes = [error.code for error in outcomes]
            assert codes[0] == "SHARD_DOWN"
            assert codes[1] in ("SHARD_DOWN", "UNKNOWN_TXN")
            assert [c.session.active for c in server.core.channels.values()] == [0]
            txn = await self._transfer(client, a, b)
            timestamp, _ = await asyncio.wait_for(client.commit(txn), 30)
            assert [shard.incarnation for shard in pool.shards] == [2, 2]
            await client.aclose()
            await server.drain()
            return pool, timestamp

        pool, timestamp = run(scenario())
        assert isinstance(timestamp, int)
        assert self._certified(tmp_path, pool)

    def test_a_respawns_resolution_rides_the_peers_batch(self, tmp_path, hold):
        """A respawned shard's prepared set is resolved by the core's round
        driver, whose queries ride the peers' posted batches: no executor job, no
        blocking call on a pipe, and nobody waits for it."""

        class NoExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                raise AssertionError("an executor job on the served path")

        async def scenario():
            asyncio.get_running_loop().set_default_executor(NoExecutor())
            pool, server, client, a, b = await self._started(tmp_path)
            # X: prepared on both shards, decided on shard 1 only (the
            # server is quiet: these blocking calls have the pipes).
            votes = []
            for home, name in ((0, a), (1, b)):
                pool.shards[home].call(
                    [
                        {"op": "begin", "name": "X", "quiet": home == 0},
                        {"op": "invoke", "txn": "X", "obj": name,
                         "operation": "Credit", "args": (3,)},
                    ]
                )
                vote = pool.shards[home].single({"op": "prepare", "txn": "X"})
                votes.append(vote["ok"])
            pool.shards[1].single({"op": "decide", "txn": "X", "votes": votes})
            pool.shards[0].kill()
            entered, release = hold(pool.shards[1], "decision")
            txn = await client.begin()
            with pytest.raises(WireError) as caught:
                await asyncio.wait_for(client.invoke(txn, a, "Credit", 1), 30)
            assert caught.value.code == "SHARD_DOWN"
            await asyncio.wait_for(entered.wait(), 30)  # in shard 1's batch
            assert server.core.rounds  # the resolution waits for it
            release.set()
            while server.core.rounds:
                await asyncio.sleep(0.01)
            assert pool.shards[0].single({"op": "prepared"})["ok"] == []
            assert pool.shards[0].single({"op": "snapshot", "obj": a})["ok"] == 3
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_a_blocking_call_mid_batch_refuses(self, tmp_path):
        """While the loop has a batch posted on a pipe, a blocking
        ``call`` on the same pipe raises instead of interleaving with it."""

        async def scenario():
            pool, server, client, a, _b = await self._started(tmp_path)
            shard = pool.shards[0]
            os.kill(shard._process.pid, signal.SIGSTOP)
            try:
                txn = await client.begin()
                invoked = asyncio.ensure_future(client.invoke(txn, a, "Credit", 1))
                while not shard.posted:
                    await asyncio.sleep(0.005)
                with pytest.raises(RuntimeError, match="interleave"):
                    shard.single({"op": "stats"})
            finally:
                os.kill(shard._process.pid, signal.SIGCONT)
            assert await invoked == "Ok"
            await client.commit(txn)
            await client.aclose()
            await server.drain()

        run(scenario())

    def test_create_object_after_start_names_the_wire_create(self, tmp_path):
        async def scenario():
            pool, server, client, a, b = await self._started(tmp_path)
            name = next(
                f"R{i}" for i in itertools.count() if pool.shard_of(f"R{i}") == 0
            )
            with pytest.raises(RuntimeError, match="`create`"):
                server.create_object(name, "Account")
            txn = await self._transfer(client, a, b)
            # Over the wire, in the middle of traffic on the same shard.
            _, home = await asyncio.gather(
                client.invoke(txn, a, "Credit", 1), client.create(name, "Account")
            )
            assert home == 0
            await client.invoke(txn, name, "Credit", 2)
            timestamp, _ = await client.commit(txn)
            assert isinstance(timestamp, int)
            await client.aclose()
            await server.drain()
            return pool

        pool = run(scenario())
        assert self._certified(tmp_path, pool)


class TestCrossShardRefusalHygiene:
    """Satellite regression: a refused in-loop 2PC leaks nothing."""

    def test_refusal_leaves_no_half_bound_state(self, tmp_path):
        async def scenario():
            server = ReproServer(workers=2, drain_grace=0.5)
            await server.start()
            client = await AsyncClient.connect(server.host, server.port)
            a, b = two_shard_names(server.pool)
            await client.create(a, "FIFOQueue")
            await client.create(b, "FIFOQueue")
            txn = await client.begin()
            await client.invoke(txn, a, "Enq", 1)
            await client.invoke(txn, b, "Enq", 2)
            # Shard b loses the transaction behind the server's back (what
            # a crash does to an unprepared transaction): its vote is no.
            server.pool.shards[1].single({"op": "abort", "txn": txn})
            with pytest.raises(WireError) as caught:
                await client.commit(txn)
            assert caught.value.code == "NO_VOTE"
            # The refusal aborted the voter and closed the handle: no
            # session leak, no prepared transaction, no lock left behind.
            assert server.core.channels["s1"].session.active == 0
            assert [row["prepared"] for row in server.pool.stats()] == [[], []]
            other = await client.begin()
            await client.invoke(other, a, "Enq", 9)
            await client.invoke(other, b, "Enq", 9)
            timestamp, _ = await client.commit(other)
            assert isinstance(timestamp, int)
            snapshots = [
                server.pool.shards[i].single({"op": "snapshot", "obj": name})["ok"]
                for i, name in enumerate((a, b))
            ]
            assert snapshots == [(9,), (9,)]
            await client.aclose()
            await server.drain()

        run(scenario())


class TestSessionRecords:
    def test_touch_tracks_primary_and_participants(self):
        session = Session(1)
        handle = session.mint_handle()
        record = session.open_transaction(handle)
        assert not record.bound and not record.cross_shard
        assert record.touch(2) is True
        assert record.primary == 2
        assert record.touch(2) is False
        assert record.touch(0) is True
        assert record.cross_shard
        assert record.participants == [2, 0]


class TestRestartResolvesPrepared:
    """A *full* restart settles the prepared sets: the core resolves every
    shard's before it serves a request.  A pool stopped (or killed) with a
    prepared, undecided cross-shard transaction used to come back holding
    its locks for ever.
    """

    @staticmethod
    def _prepared_on_both(tmp_path):
        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
        a, b = two_shard_names(pool)
        pool.create_object(a, "Account")
        pool.create_object(b, "Account")
        pool.shards[0].single({"op": "begin", "name": "X"})
        pool.shards[1].single({"op": "begin", "name": "X", "quiet": True})
        votes = []
        for home, name in ((0, a), (1, b)):
            pool.shards[home].single(
                {
                    "op": "invoke",
                    "txn": "X",
                    "obj": name,
                    "operation": "Credit",
                    "args": (5,),
                }
            )
            votes.append(pool.shards[home].single({"op": "prepare", "txn": "X"})["ok"])
        return pool, a, b, votes

    def test_decision_logged_on_primary_commits_participant(self, tmp_path):
        pool, a, b, votes = self._prepared_on_both(tmp_path)
        decided = pool.shards[0].single(
            {"op": "decide", "txn": "X", "votes": votes}
        )["ok"]
        pool.stop()  # the decision never reached shard 1
        reopened = ShardProcessPool(2, tmp_path / "data")
        reopened.start()
        try:
            assert reopened.shards[1].single({"op": "prepared"})["ok"] == ["X"]
            Driven(reopened, batched=True)  # the core's start-up resolution
            assert reopened.shards[1].single({"op": "prepared"})["ok"] == []
            verdict = reopened.shards[1].single({"op": "decision", "txn": "X"})["ok"]
            assert verdict == {"outcome": "commit", "ts": decided}
            assert reopened.shards[1].single({"op": "snapshot", "obj": b})["ok"] == 5
            assert reopened.shards[0].single({"op": "snapshot", "obj": a})["ok"] == 5
        finally:
            reopened.stop()

    def test_undecided_is_presumed_aborted_and_unlocked(self, tmp_path):
        pool, a, b, _votes = self._prepared_on_both(tmp_path)
        pool.stop()  # no shard ever logged a decision
        reopened = ShardProcessPool(2, tmp_path / "data")
        reopened.start()
        try:
            Driven(reopened, batched=True)  # the core's start-up resolution
            for home, name in ((0, a), (1, b)):
                shard = reopened.shards[home]
                assert shard.single({"op": "prepared"})["ok"] == []
                assert shard.single({"op": "decision", "txn": "X"})["ok"] == {
                    "outcome": "unknown"
                }
                # The Credit lock went with it: Debit answers from the
                # (empty) committed balance instead of CONFLICT.
                probe = shard.single(
                    {"op": "txn", "name": "probe", "steps": [(name, "Debit", (1,))]}
                )
                assert probe["results"] == ["Overdraft"], probe
        finally:
            reopened.stop()

    def test_a_second_start_is_a_no_op(self, tmp_path):
        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
        try:
            before = [shard.incarnation for shard in pool.shards]
            pool.start()
            assert [shard.incarnation for shard in pool.shards] == before
        finally:
            pool.stop()

    def test_fatal_startup_cause_survives_the_first_caller(self, tmp_path):
        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
        a, _ = two_shard_names(pool)
        pool.create_object(a, "FIFOQueue")
        pool.stop()
        bus = TraceBus()
        events = bus.subscribe(RingBufferSink())
        resized = ShardProcessPool(3, tmp_path / "data", tracer=bus)
        try:
            resized.start()
            Driven(resized, batched=True)  # its resolution meets the refusal
            # Both logs were written under stride 2: the core meets each
            # refusal, announces the crash and tries one revive.
            crashed = [e.data["site"] for e in events.events() if e.kind == "site.crash"]
            assert crashed == ["shard0", "shard1"]
            for _ in range(2):
                with pytest.raises(ShardDown, match="stride"):
                    resized.shards[0].single({"op": "stats"})
        finally:
            resized.stop()
