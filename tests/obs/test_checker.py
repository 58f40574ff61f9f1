"""The streaming atomicity checker: clean runs certify, mutations refute.

Two halves:

* **certification** — every execution engine in the repo (locking
  protocols, optimistic, read-only multiversion, replicated quorums,
  the multi-site bank with and without crashes) runs with the oracle
  attached and comes out ``ok``;
* **refutation** — recorded traces are mutated the way real bugs would
  corrupt them (swapped commit timestamps, a dropped conflict refusal,
  a rewound compaction horizon, an uncommitted transaction folded into
  a version) and the oracle must catch each one, with a small witness.
"""

import dataclasses

import pytest

from repro.adts import make_account_adt
from repro.obs import AtomicityChecker, JSONLSink, TraceBus, read_jsonl
from repro.protocols import ALL_PROTOCOLS, HYBRID, get_protocol
from repro.runtime import TransactionManager
from repro.sim import AccountWorkload, QueueWorkload, run_experiment


def certify(workload, protocol, **kwargs):
    bus = TraceBus()
    checker = bus.subscribe(AtomicityChecker(emit_to=bus))
    kwargs.setdefault("duration", 80.0)
    kwargs.setdefault("seed", 11)
    run_experiment(workload, protocol, tracer=bus, **kwargs)
    return checker


def recorded(build):
    """Run ``build(bus)`` and return the event list it emitted."""
    bus = TraceBus()
    events = []
    bus.subscribe(events.append)
    build(bus)
    return events


def replayed(events):
    return AtomicityChecker().replay(events)


class TestCleanRuns:
    def test_sim_account_hybrid(self):
        checker = certify(AccountWorkload(), HYBRID)
        assert checker.ok, checker.render_report()
        report = checker.report()
        assert report["verdict"] == "clean"
        assert report["transactions"]["committed"] > 0
        assert all(
            info["legality_checked"] and info["conflict_checked"]
            for info in report["objects"].values()
        )

    @pytest.mark.parametrize(
        "protocol", ALL_PROTOCOLS, ids=lambda p: p.name
    )
    def test_every_locking_protocol(self, protocol):
        checker = certify(QueueWorkload(), protocol, duration=60.0)
        assert checker.ok, checker.render_report()

    def test_optimistic_engine(self):
        checker = certify(
            AccountWorkload(), get_protocol("optimistic"), duration=60.0
        )
        assert checker.ok, checker.render_report()

    def test_crashy_manager_run(self):
        checker = certify(
            AccountWorkload(), HYBRID, duration=120.0, crash_rate=0.05
        )
        assert checker.ok, checker.render_report()
        assert checker.kind_counts["site.crash"] > 0

    def test_readonly_multiversion_reader(self):
        from repro.adts import make_file_adt

        def build(bus):
            manager = TransactionManager(tracer=bus)
            manager.create_object("F", make_file_adt())
            writer = manager.begin()
            manager.invoke(writer, "F", "Write", 1)
            manager.commit(writer)
            reader = manager.begin_readonly()
            manager.invoke(reader, "F", "Read")
            writer2 = manager.begin()
            manager.invoke(writer2, "F", "Write", 2)
            manager.commit(writer2)
            manager.commit(reader)

        checker = replayed(recorded(build))
        assert checker.ok, checker.render_report()
        # The reader really did commit *inside* the established order.
        report = checker.report()
        assert report["transactions"]["committed"] == 3

    def test_replicated_manager(self):
        from repro.replication import QuorumAssignment, ReplicatedTransactionManager

        def build(bus):
            manager = ReplicatedTransactionManager(tracer=bus)
            assignment = QuorumAssignment.majority(3, ["Credit", "Post", "Debit"])
            manager.create_object("A", make_account_adt(), assignment)
            for amount in (100, 25, 3):
                txn = manager.begin()
                manager.invoke(txn, "A", "Credit", amount)
                manager.commit(txn)
            loser = manager.begin()
            manager.invoke(loser, "A", "Debit", 1)
            manager.abort(loser)

        checker = replayed(recorded(build))
        assert checker.ok, checker.render_report()
        assert checker.kind_counts["quorum.assemble"] > 0

    def test_distributed_clean_and_crashy(self):
        from repro.distributed import run_distributed_experiment

        for crash_rate in (0.0, 0.03):
            bus = TraceBus()
            checker = bus.subscribe(AtomicityChecker(emit_to=bus))
            run_distributed_experiment(
                site_count=2,
                clients=3,
                duration=120.0,
                seed=5,
                crash_rate=crash_rate,
                crash_seed=3,
                durable=True,
                tracer=bus,
            )
            assert checker.ok, checker.render_report()
            if crash_rate:
                assert checker.kind_counts["site.recover"] > 0

    def test_file_timestamps_compare_as_they_are(self, tmp_path):
        # A distributed run read back from JSONL: commit timestamps are
        # ints issued on several sites' strides, and compaction horizons
        # start at -inf — the checker orders both without normalising.
        from repro.core.compaction import NEG_INFINITY
        from repro.distributed import run_distributed_experiment

        path = str(tmp_path / "distributed.jsonl")
        bus = TraceBus()
        with JSONLSink(path) as sink:
            bus.subscribe(sink)
            run_distributed_experiment(
                site_count=2, clients=3, duration=120.0, seed=5, durable=True, tracer=bus
            )
        events = read_jsonl(path)
        stamps = {e.data["timestamp"] for e in events if e.kind == "txn.commit"}
        assert stamps and all(type(stamp) is int for stamp in stamps)
        assert NEG_INFINITY in {
            e.data["old_horizon"] for e in events if e.kind == "compaction.advance"
        }
        checker = replayed(events)
        assert checker.ok, checker.render_report()

    def test_jsonl_round_trip_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = TraceBus()
        live = bus.subscribe(AtomicityChecker())
        with JSONLSink(str(path)) as sink:
            bus.subscribe(sink)
            run_experiment(
                AccountWorkload(), HYBRID, duration=80.0, seed=11, tracer=bus
            )
        assert live.ok
        offline = AtomicityChecker().replay(read_jsonl(str(path)))
        assert offline.ok, offline.render_report()
        assert offline.report()["events"] == live.report()["events"]


def manager_commit_pair():
    """Two sequential committed transactions at one Account object."""

    def build(bus):
        manager = TransactionManager(tracer=bus)
        manager.create_object("A", make_account_adt())
        t1 = manager.begin()
        manager.invoke(t1, "A", "Credit", 100)
        manager.commit(t1)
        t2 = manager.begin()
        manager.invoke(t2, "A", "Debit", 50)
        manager.commit(t2)

    return recorded(build)


class TestMutations:
    def test_swapped_commit_timestamps_are_caught(self):
        events = manager_commit_pair()
        assert replayed(events).ok  # the unmutated trace certifies

        commits = [
            i for i, e in enumerate(events) if e.kind == "txn.commit"
        ]
        assert len(commits) == 2
        i, j = commits
        mutated = list(events)
        mutated[i] = dataclasses.replace(
            events[i],
            data={**events[i].data, "timestamp": events[j].data["timestamp"]},
        )
        mutated[j] = dataclasses.replace(
            events[j],
            data={**events[j].data, "timestamp": events[i].data["timestamp"]},
        )
        checker = replayed(mutated)
        assert not checker.ok
        rules = {v.rule for v in checker.violations}
        # Debit(50) observed Credit's commit, so its rewound timestamp
        # breaks §3.3; re-sorting also puts the overdraft-free Debit
        # before the Credit, which is serially illegal.
        assert rules & {"commit-timestamp", "serial-order"}

    def test_dropped_conflict_refusal_is_caught(self):
        held = {}

        def build(bus):
            manager = TransactionManager(tracer=bus)
            manager.create_object("A", make_account_adt())
            t0 = manager.begin()
            manager.invoke(t0, "A", "Credit", 100)
            manager.commit(t0)
            t1 = manager.begin()
            manager.invoke(t1, "A", "Debit", 5)
            t2 = manager.begin()
            held["t2"] = t2.name
            with pytest.raises(Exception):
                manager.invoke(t2, "A", "Debit", 3)

        events = recorded(build)
        refusals = [
            i for i, e in enumerate(events) if e.kind == "lock.conflict"
        ]
        assert refusals, "the second Debit should have been refused"
        assert replayed(events).ok

        # Mutate: the machine *accepts* the conflicting Debit instead of
        # refusing it — splice in the invoke/respond pair the buggy run
        # would have produced (same operation the holder holds).
        accepted = next(
            e for e in events if e.kind == "txn.invoke"
            and e.data.get("operation") == "Debit"
        )
        response = next(
            e for e in events if e.kind == "txn.respond"
            and e.data.get("transaction") == accepted.data["transaction"]
        )
        spliced = [
            dataclasses.replace(
                accepted,
                data={**accepted.data, "transaction": held["t2"], "args": (3,)},
            ),
            dataclasses.replace(
                response, data={**response.data, "transaction": held["t2"]}
            ),
        ]
        mutated = (
            events[: refusals[0]] + spliced + events[refusals[0] + 1:]
        )
        checker = replayed(mutated)
        assert not checker.ok
        assert any(v.rule == "conflict-acceptance" for v in checker.violations)

    def sim_trace(self):
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        run_experiment(
            AccountWorkload(), HYBRID, duration=150.0, seed=3, tracer=bus
        )
        return events

    def test_rewound_horizon_is_caught(self):
        events = self.sim_trace()
        assert replayed(events).ok
        compactions = [
            i for i, e in enumerate(events)
            if e.kind == "compaction.advance"
            and isinstance(e.data.get("old_horizon"), int)
        ]
        assert compactions, "the account run should compact"
        index = compactions[-1]
        data = dict(events[index].data)
        data["new_horizon"] = data["old_horizon"] - 1
        mutated = list(events)
        mutated[index] = dataclasses.replace(events[index], data=data)
        checker = replayed(mutated)
        assert not checker.ok
        assert any(
            v.rule == "compaction" and "rewound" in v.message
            for v in checker.violations
        )

    def test_collapsed_uncommitted_transaction_is_caught(self):
        events = self.sim_trace()
        begun = {
            e.data["transaction"]
            for e in events
            if e.kind == "txn.begin"
        }
        committed = {
            e.data.get("transaction")
            for e in events
            if e.kind == "txn.commit"
        }
        uncommitted = sorted(begun - committed)
        assert uncommitted, "some transaction should have aborted"
        index = next(
            i for i, e in enumerate(events) if e.kind == "compaction.advance"
        )
        data = dict(events[index].data)
        data["forgotten"] = tuple(data["forgotten"]) + (uncommitted[0],)
        mutated = list(events)
        mutated[index] = dataclasses.replace(events[index], data=data)
        checker = replayed(mutated)
        assert not checker.ok
        assert any(
            v.rule == "compaction" and "never committed" in v.message
            for v in checker.violations
        )

    def test_witness_is_minimal_and_published(self):
        events = manager_commit_pair()
        commits = [
            i for i, e in enumerate(events) if e.kind == "txn.commit"
        ]
        i, j = commits
        mutated = list(events)
        mutated[i] = dataclasses.replace(
            events[i],
            data={**events[i].data, "timestamp": events[j].data["timestamp"]},
        )
        mutated[j] = dataclasses.replace(
            events[j],
            data={**events[j].data, "timestamp": events[i].data["timestamp"]},
        )
        bus = TraceBus()
        published = []
        bus.subscribe(published.append)
        checker = AtomicityChecker(emit_to=bus).replay(mutated)
        assert not checker.ok
        # The refutation landed back on the bus as a first-class event.
        assert any(e.kind == "check.violation" for e in published)
        violation = checker.violations[0]
        # Delta debugging keeps only what reproduces the refutation —
        # far fewer events than the trace, and replaying the witness
        # through a fresh checker refutes again.
        assert 0 < len(violation.witness) < len(mutated)
        fresh = AtomicityChecker().replay(violation.witness)
        assert any(v.rule == violation.rule for v in fresh.violations)
