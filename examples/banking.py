#!/usr/bin/env python3
"""A small bank built on hybrid atomic Accounts (the appendix scenario).

Maintains several accounts, runs a randomized day of traffic — deposits,
withdrawals (with overdraft refusal), transfers, and end-of-day interest
posting — while recording the global history, then verifies the run is
hybrid atomic against the serial specifications.  Balances are exact
rational numbers (Fractions), never floats.

Run:  python examples/banking.py
"""

import random
from fractions import Fraction

from repro import (
    LockConflict,
    SkewedTimestampGenerator,
    TransactionManager,
    WouldBlock,
    is_hybrid_atomic,
)
from repro.adts import make_account_adt
from repro.obs import HistorySink, TraceBus

ACCOUNTS = ["alice", "bob", "carol"]


def deposit(manager, account, amount):
    return manager.run_transaction(lambda ctx: ctx.invoke(account, "Credit", amount))


def withdraw(manager, account, amount):
    def body(ctx):
        return ctx.invoke(account, "Debit", amount)

    return manager.run_transaction(body)


def transfer(manager, source, target, amount):
    def body(ctx):
        if ctx.invoke(source, "Debit", amount) == "Overdraft":
            return False
        ctx.invoke(target, "Credit", amount)
        return True

    return manager.run_transaction(body)


def post_interest(manager, percent):
    def body(ctx):
        for account in ACCOUNTS:
            ctx.invoke(account, "Post", percent)

    manager.run_transaction(body)


def main() -> None:
    rng = random.Random(2026)
    # Skewed timestamps exercise the interesting merge-by-timestamp paths.
    # The global history is folded off the trace bus.
    bus = TraceBus()
    recorded = bus.subscribe(HistorySink())
    manager = TransactionManager(
        generator=SkewedTimestampGenerator(seed=2026), tracer=bus
    )
    for account in ACCOUNTS:
        manager.create_object(account, make_account_adt())

    for account in ACCOUNTS:
        deposit(manager, account, 1000)

    deposits = withdrawals = refused = transfers = 0
    for _ in range(60):
        action = rng.random()
        account = rng.choice(ACCOUNTS)
        try:
            if action < 0.4:
                deposit(manager, account, rng.randint(1, 200))
                deposits += 1
            elif action < 0.75:
                if withdraw(manager, account, rng.randint(1, 400)) == "Overdraft":
                    refused += 1
                else:
                    withdrawals += 1
            else:
                target = rng.choice([a for a in ACCOUNTS if a != account])
                if transfer(manager, account, target, rng.randint(1, 300)):
                    transfers += 1
        except (LockConflict, WouldBlock):
            pass  # gave up after retries; transaction was aborted cleanly

    post_interest(manager, 5)

    print(f"deposits={deposits} withdrawals={withdrawals} "
          f"refused-overdrafts={refused} transfers={transfers}")
    total = Fraction(0)
    for account in ACCOUNTS:
        balance = manager.object(account).snapshot()
        total += balance
        print(f"  {account:>6}: {float(balance):10.2f}")
    print(f"  total : {float(total):10.2f}")

    history = recorded.history()
    print(f"\nrecorded events: {len(history)}")
    print("hybrid atomic  :", is_hybrid_atomic(history, manager.specs()))


if __name__ == "__main__":
    main()
