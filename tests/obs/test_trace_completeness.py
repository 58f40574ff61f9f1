"""Trace completeness: every finished transaction yields one good span.

These are the subsystem's end-to-end guarantees: seeded simulation runs
(including aborts, read-only transactions, crash injection, distributed
2PC, and WAL recovery) produce event streams whose per-transaction spans
are exactly one per finished transaction and well formed — begin first,
invokes matched by responses, terminal last.
"""

import collections

from repro.adts import get_adt
from repro.obs import (
    MetricsRegistry,
    RingBufferSink,
    SpanBuilder,
    TraceBus,
)
from repro.obs.events import EVENT_KINDS
from repro.obs.spans import SPAN_IRRELEVANT_KINDS, WIRE_SPAN_KINDS
from repro.recovery import CrashPlan, MemoryWAL, recover_manager
from repro.runtime.manager import TransactionManager
from repro.sim import (
    AccountWorkload,
    BankWorkload,
    ClientParams,
    QueueWorkload,
    run_experiment,
)


def traced_run(workload, **kwargs):
    bus = TraceBus()
    builder = bus.subscribe(SpanBuilder())
    registry = MetricsRegistry()
    metrics = run_experiment(workload, tracer=bus, registry=registry, **kwargs).metrics
    return metrics, builder, registry


def assert_spans_match(metrics, builder):
    committed = builder.committed()
    aborted = builder.aborted()
    assert len(committed) == metrics.committed
    assert len(aborted) == metrics.aborted
    names = [span.transaction for span in builder.spans]
    assert len(names) == len(set(names)), "a transaction produced two spans"
    for span in builder.spans:
        assert span.well_formed, (
            f"{span.transaction}: {span.violations()} ({span.kinds})"
        )


class TestSimulationCompleteness:
    def test_account_run_all_spans_well_formed(self):
        metrics, builder, _ = traced_run(
            AccountWorkload(), duration=120.0, seed=1
        )
        assert metrics.committed > 0
        assert_spans_match(metrics, builder)

    def test_contended_queue_run_has_aborts_and_matches(self):
        metrics, builder, _ = traced_run(
            QueueWorkload(), duration=200.0, seed=2
        )
        assert metrics.aborted > 0, "want the abort path exercised"
        assert_spans_match(metrics, builder)

    def test_block_policy_run_matches(self):
        metrics, builder, _ = traced_run(
            AccountWorkload(),
            duration=150.0,
            seed=3,
            params=ClientParams(wait_policy="block"),
        )
        assert_spans_match(metrics, builder)

    def test_crash_injected_run_matches(self):
        metrics, builder, registry = traced_run(
            AccountWorkload(),
            duration=200.0,
            seed=4,
            crashes=CrashPlan.soft(4, ["shard0"], 200.0, rate=0.05),
            wals=[MemoryWAL()],
        )
        assert metrics.crashes > 0
        assert registry.counter("site.crashes").value == metrics.crashes
        assert_spans_match(metrics, builder)

    def test_registry_agrees_with_metrics(self):
        metrics, _, registry = traced_run(
            AccountWorkload(), duration=120.0, seed=5
        )
        assert registry.counter("txn.committed").value == metrics.committed
        assert registry.counter("txn.aborted").value == metrics.aborted
        assert registry.counter("lock.conflicts").value == metrics.conflicts
        # absorb_metrics imported the classic row alongside
        assert registry.counter("committed").value == metrics.committed
        assert registry.gauge("retained_intentions").value == (
            metrics.retained_intentions
        )
        assert registry.histogram("txn.latency").total == metrics.committed

    def test_compaction_events_name_horizon_motion(self):
        bus = TraceBus()
        ring = bus.subscribe(RingBufferSink())
        run_experiment(AccountWorkload(), duration=120.0, seed=1, tracer=bus)
        advances = [e for e in ring.events() if e.kind == "compaction.advance"]
        assert advances, "compaction never advanced"
        for event in advances:
            assert event.data["new_horizon"] >= event.data["old_horizon"]
            assert event.data["collapsed"] >= 1
            assert event.data["forgotten"]


class TestServingKindCoverage:
    """Every serving-tier kind must be *classified* by the span builder.

    ``server.*`` and ``flight.*`` events either fold into a span's wire
    phases (:data:`WIRE_SPAN_KINDS`) or are declared span-irrelevant
    (:data:`SPAN_IRRELEVANT_KINDS`).  A new kind added to the taxonomy
    without a classification would silently fall into the builder's
    generic transaction path — this test makes that a loud failure.
    """

    def test_every_server_kind_is_classified(self):
        serving = {
            kind
            for kind in EVENT_KINDS
            if kind.startswith(("server.", "flight."))
        }
        classified = WIRE_SPAN_KINDS | SPAN_IRRELEVANT_KINDS
        unclassified = serving - classified
        assert not unclassified, (
            f"serving-tier kinds unknown to the span builder: "
            f"{sorted(unclassified)} — add each to WIRE_SPAN_KINDS or "
            "SPAN_IRRELEVANT_KINDS in repro.obs.spans"
        )

    def test_classifications_name_real_kinds(self):
        ghosts = (WIRE_SPAN_KINDS | SPAN_IRRELEVANT_KINDS) - EVENT_KINDS
        assert not ghosts, f"span classifications for retired kinds: {ghosts}"

    def test_classifications_do_not_overlap(self):
        assert not WIRE_SPAN_KINDS & SPAN_IRRELEVANT_KINDS


class TestReadOnlyPath:
    def test_readonly_transaction_yields_one_readonly_span(self):
        bus = TraceBus(clock=lambda: 0.0)
        builder = bus.subscribe(SpanBuilder())
        manager = TransactionManager(tracer=bus)
        manager.create_object("C", get_adt("Counter"))
        writer = manager.begin()
        manager.invoke(writer, "C", "Inc", 10)
        manager.commit(writer)
        reader = manager.begin_readonly()
        assert manager.invoke(reader, "C", "Read") == 10
        manager.commit(reader)
        readonly = [span for span in builder.spans if span.read_only]
        assert len(readonly) == 1
        assert readonly[0].outcome == "committed"
        assert readonly[0].well_formed


class TestRecoveryPath:
    def test_recovery_emits_replay_and_recover_events(self):
        wal = MemoryWAL()
        metrics = run_experiment(
            AccountWorkload(), duration=80.0, seed=6, wals=[wal]
        ).metrics
        assert metrics.committed > 0
        bus = TraceBus()
        ring = bus.subscribe(RingBufferSink())
        manager, report = recover_manager(wal, tracer=bus)
        kinds = collections.Counter(e.kind for e in ring.events())
        assert kinds["wal.replay"] == report.replayed_records
        assert kinds["site.recover"] == 1
        recover_event = next(
            e for e in ring.events() if e.kind == "site.recover"
        )
        assert recover_event.data["replayed_records"] == report.replayed_records
        # The rebuilt machines carry the tracer for post-recovery tracing.
        for managed in manager.objects.values():
            assert managed.machine.tracer is bus


class TestDistributedPath:
    def test_distributed_run_spans_and_network_events(self):
        bus = TraceBus()
        builder = bus.subscribe(SpanBuilder())
        registry = MetricsRegistry()
        run = run_experiment(
            BankWorkload(sites=2, clients=4),
            duration=150.0,
            seed=7,
            tracer=bus,
            registry=registry,
        )
        metrics = run.metrics
        assert metrics.committed > 0
        # Spans close at the deciding site; the client counts the commit
        # when it hears of it, so a reply still in flight at the cut-off
        # is a span ahead (the two ``open<site>`` spans fund the accounts).
        committed = [
            span for span in builder.committed() if span.transaction.startswith("C")
        ]
        assert 0 <= len(committed) - metrics.committed <= 4
        names = [span.transaction for span in builder.spans]
        assert len(names) == len(set(names))
        for span in committed:
            assert span.well_formed, (
                f"{span.transaction}: {span.violations()}"
            )
        # Participants apply the commit after the primary has decided it.
        assert sum(span.extra_events for span in committed) > 0
        assert registry.counter("net.messages").value == run.network.total_messages
