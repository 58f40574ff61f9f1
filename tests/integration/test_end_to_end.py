"""Multi-object, multi-protocol end-to-end scenarios with verification."""

import random

import pytest

from repro.adts import (
    make_account_adt,
    make_directory_adt,
    make_queue_adt,
    make_semiqueue_adt,
    make_set_adt,
)
from repro.core import (
    LockConflict,
    SkewedTimestampGenerator,
    WouldBlock,
    is_hybrid_atomic,
    timestamps_respect_precedes,
)
from repro.obs import HistorySink, TraceBus
from repro.protocols import ALL_PROTOCOLS, COMMUTATIVITY, HYBRID
from repro.runtime import TransactionManager


class TestBankTransfers:
    def test_transfers_conserve_money(self):
        manager = TransactionManager()
        manager.create_object("a", make_account_adt())
        manager.create_object("b", make_account_adt())
        manager.run_transaction(lambda ctx: ctx.invoke("a", "Credit", 1000))

        def transfer(amount):
            def body(ctx):
                if ctx.invoke("a", "Debit", amount) == "Overdraft":
                    return False
                ctx.invoke("b", "Credit", amount)
                return True

            return body

        for amount in (100, 250, 300):
            assert manager.run_transaction(transfer(amount))
        assert manager.object("a").snapshot() == 1000 - 650
        assert manager.object("b").snapshot() == 650

    def test_overdraft_leaves_balances_untouched(self):
        manager = TransactionManager()
        manager.create_object("a", make_account_adt())
        manager.create_object("b", make_account_adt())
        manager.run_transaction(lambda ctx: ctx.invoke("a", "Credit", 10))

        def body(ctx):
            if ctx.invoke("a", "Debit", 100) == "Overdraft":
                raise RuntimeError("insufficient funds")
            ctx.invoke("b", "Credit", 100)

        with pytest.raises(RuntimeError):
            manager.run_transaction(body)
        assert manager.object("a").snapshot() == 10
        assert manager.object("b").snapshot() == 0


class TestRandomisedVerification:
    """Random multi-object workloads stay hybrid atomic under every
    protocol and both timestamp generators (a slow but thorough check)."""

    OPS = [
        ("Q", "Enq", lambda rng: (rng.randint(1, 5),)),
        ("Q", "Deq", lambda rng: ()),
        ("S", "Ins", lambda rng: (rng.randint(1, 5),)),
        ("S", "Rem", lambda rng: ()),
        ("A", "Credit", lambda rng: (rng.randint(1, 9),)),
        ("A", "Debit", lambda rng: (rng.randint(1, 9),)),
        ("A", "Post", lambda rng: (50,)),
        ("D", "Bind", lambda rng: (rng.choice("xy"), rng.randint(1, 3))),
        ("D", "Unbind", lambda rng: (rng.choice("xy"),)),
        ("D", "Lookup", lambda rng: (rng.choice("xy"),)),
    ]

    def run_one(self, protocol, generator, seed):
        rng = random.Random(seed)
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = TransactionManager(tracer=bus, generator=generator)
        manager.create_object("Q", make_queue_adt(), protocol=protocol)
        manager.create_object("S", make_semiqueue_adt(), protocol=protocol)
        manager.create_object("A", make_account_adt(), protocol=protocol)
        manager.create_object("D", make_directory_adt(), protocol=protocol)
        active = {}
        for step in range(120):
            name = f"T{rng.randint(1, 6)}#{step}"
            if rng.random() < 0.25 and active:
                victim = rng.choice(sorted(active))
                txn = active.pop(victim)
                if rng.random() < 0.25:
                    manager.abort(txn)
                else:
                    manager.commit(txn)
                continue
            if len(active) < 4:
                txn = manager.begin(name)
                active[name] = txn
            else:
                victim = rng.choice(sorted(active))
                txn = active[victim]
            obj, operation, args = self.OPS[rng.randrange(len(self.OPS))]
            try:
                manager.invoke(txn, obj, operation, *args(rng))
            except (LockConflict, WouldBlock):
                pass
        for txn in active.values():
            manager.commit(txn)
        return manager, recorded

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS, ids=lambda p: p.name)
    def test_monotone_timestamps(self, protocol):
        manager, recorded = self.run_one(protocol, None, seed=11)
        h = recorded.history()
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, manager.specs())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_skewed_timestamps(self, seed):
        manager, recorded = self.run_one(
            HYBRID, SkewedTimestampGenerator(seed=seed), seed=seed
        )
        h = recorded.history()
        assert timestamps_respect_precedes(h)
        assert is_hybrid_atomic(h, manager.specs())
