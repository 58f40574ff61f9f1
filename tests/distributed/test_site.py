"""The simulated transport: what a Site adds to the engine it hosts.

Everything a site answers is the shard engine's answer (pinned op by op
in ``tests/server/test_engine.py`` and, across all three transports, in
``tests/server/test_transports.py``); these tests cover the host: it
speaks the transport contract, it can be taken down softly or hard, and
it comes back from its own log.
"""

import pytest

from repro.sim import Site
from repro.recovery import MemoryWAL
from repro.server import ShardDown


def account_site(wal=None):
    site = Site(wal=wal)
    assert site.single({"op": "create", "name": "A", "adt": "Account"}) == {"ok": "A"}
    return site


def invoke(site, txn, obj, operation, *args):
    ops = [
        {"op": "invoke", "txn": txn, "obj": obj, "operation": operation, "args": args}
    ]
    if site.engine.manager.transaction(txn) is None:
        ops.insert(0, {"op": "begin", "name": txn})
    return site.call(ops)[-1]


class TestHandlers:
    def test_invoke_conflict(self):
        site = account_site()
        assert invoke(site, "T1", "A", "Debit", 5) == {"ok": "Overdraft"}
        assert invoke(site, "T2", "A", "Credit", 5)["error"] == "CONFLICT"

    def test_invoke_block(self):
        site = Site()
        site.single({"op": "create", "name": "Q", "adt": "FIFOQueue"})
        assert invoke(site, "T1", "Q", "Deq")["error"] == "WOULD_BLOCK"

    def test_prepare_votes_yes_with_clock(self):
        # The vote *is* the piggybacked clock: the site's timestamp floor.
        site = account_site()
        site.single({"op": "txn", "name": "T0", "steps": [("A", "Credit", (1,))]})
        invoke(site, "T1", "A", "Credit", 5)
        assert site.single({"op": "prepare", "txn": "T1"}) == {"ok": 1}

    def test_commit_applies_and_advances_clock(self):
        site = account_site()
        invoke(site, "T1", "A", "Credit", 5)
        site.single({"op": "prepare", "txn": "T1"})
        assert site.single({"op": "apply_commit", "txn": "T1", "ts": 7}) == {"ok": 7}
        assert site.snapshot("A") == 5
        invoke(site, "T2", "A", "Credit", 1)
        assert site.single({"op": "prepare", "txn": "T2"}) == {"ok": 7}

    def test_abort_releases(self):
        site = account_site()
        invoke(site, "T1", "A", "Debit", 5)
        site.single({"op": "abort", "txn": "T1"})
        assert invoke(site, "T2", "A", "Credit", 5) == {"ok": "Ok"}

    def test_duplicate_object_rejected(self):
        site = account_site()
        again = site.single({"op": "create", "name": "A", "adt": "Account"})
        assert again["error"] == "BAD_REQUEST" and "already exists" in again["message"]

    def test_speaks_the_transport_contract(self):
        site = account_site()
        assert site.alive and not site.blocking and site.name == "shard0"
        assert site.objects() == ["A"] and site.adt("A").name == "Account"
        assert site.checkpoint()["error"] == "BAD_REQUEST"   # no log
        site.stop()


class TestCrash:
    def test_crash_aborts_unprepared(self):
        site = account_site()
        invoke(site, "T1", "A", "Credit", 5)
        assert site.crash() == ["T1"]
        # Presumed abort: a later prepare is voted down, a later invoke
        # finds no transaction.
        assert site.single({"op": "prepare", "txn": "T1"})["error"] == "NO_VOTE"
        late = site.single(
            {"op": "invoke", "txn": "T1", "obj": "A", "operation": "Credit", "args": (1,)}
        )
        assert late["error"] == "UNKNOWN_TXN"

    def test_prepared_transactions_survive_crash(self):
        site = account_site()
        invoke(site, "T1", "A", "Credit", 5)
        site.single({"op": "prepare", "txn": "T1"})  # stable log
        assert site.crash() == []
        site.single({"op": "apply_commit", "txn": "T1", "ts": 3})
        assert site.snapshot("A") == 5

    def test_committed_state_survives_crash(self):
        site = account_site()
        site.single({"op": "txn", "name": "T1", "steps": [("A", "Credit", (9,))]})
        site.crash()
        assert site.snapshot("A") == 9

    def test_down_site_raises_shard_down_until_recovered(self):
        site = account_site(wal=MemoryWAL())
        site.single({"op": "txn", "name": "T1", "steps": [("A", "Credit", (9,))]})
        site.crash_hard()
        assert not site.alive
        with pytest.raises(ShardDown):
            site.single({"op": "catalog"})
        report = site.recover()
        assert report.recovered_objects == ("A",) and site.incarnation == 2
        assert site.snapshot("A") == 9

    def test_crash_op_takes_the_site_down_mid_request(self):
        site = account_site(wal=MemoryWAL())
        with pytest.raises(ShardDown, match="died mid-request"):
            site.call([{"op": "catalog"}, {"op": "crash"}])
        assert not site.alive
        site.spawn()
        assert site.single({"op": "catalog"}) == {"ok": ["A"]}
