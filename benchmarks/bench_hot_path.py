"""Hot-path benchmark — the LOCK machine's per-operation cost.

The LOCK machine's response check advances a cached view state-set by
one ``spec.step`` per appended operation, so an operation costs the same
whatever the intentions list holds (the counted gate is
``tests/properties/test_incremental_equivalence.py::TestViewCacheCounts``).
This benchmark puts wall-clock numbers on that and writes two
machine-readable artifacts (validated by ``bench_schema.py``):

* ``BENCH_hot_path.json`` — the intentions-list length sweep (ops/sec and
  p50/p99 per-op latency) on Account, whose state is one number; the
  state-*size* sweep (an ``execute`` + ``commit`` on a FIFOQueue holding
  0 / 100 / 1,000 items, and the ratio largest : empty — what is left is
  the queue's own ``items + (value,)`` copy and hash, once per operation);
  commit-churn throughput for the plain and compacting machines,
  relation-memo enumeration rates, and a checker-certified manager churn
  run.
* ``BENCH_machine_micro.json`` — the machine × protocol commit-churn grid
  (the ``bench_machine_micro.py`` numbers, in a schema'd envelope), plus
  the conflict-relation micro-benchmark: ``related()`` call rates for the
  class table the machines lock with vs the bare hand-written predicate
  it is tabulated from, and commit churn against a pack of live
  lock-holding transactions so every executed operation pays real
  conflict checks — each on operations inside the declared universe and
  outside it (where four served operations in five fall).  The schema
  enforces the floor: the table must not be slower than the predicate on
  either side.

Run directly::

    PYTHONPATH=src python benchmarks/bench_hot_path.py [--smoke] [--output-dir DIR]

``--smoke`` shrinks repeats and sweep lengths for CI; the full run's
artifacts are committed at the repository root.  Every run is certified:
the manager-churn section drives a :class:`repro.obs.AtomicityChecker`
and the script fails if the oracle reports a violation.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.adts import ACCOUNT_CONFLICT, get_adt, make_account_adt
from repro.core import CompactingLockMachine, Invocation, LockMachine, Operation
from repro.core.conflict import PredicateRelation
from repro.obs import AtomicityChecker, TraceBus
from repro.protocols import ALL_PROTOCOLS
from repro.runtime import TransactionManager

SCHEMA_VERSION = 1
REPO_ROOT = Path(__file__).resolve().parents[1]

SWEEP_LENGTHS = (25, 50, 100, 200, 400)
SMOKE_SWEEP_LENGTHS = (25, 50, 200)
STATE_SIZES = (0, 100, 1000)
STATE_SIZE_TRANSACTIONS = 400
SMOKE_STATE_SIZE_TRANSACTIONS = 100
CHURN_TRANSACTIONS = 150
CERTIFIED_TRANSACTIONS = 100
MEMO_ROUNDS = 200
SMOKE_MEMO_ROUNDS = 20
RELATION_ROUNDS = 2000
SMOKE_RELATION_ROUNDS = 200
#: Live lock-holding transactions the relation-churn rows run against:
#: every executed operation checks conflicts with each holder's held
#: operation, so the relation lookup dominates instead of vanishing.
RELATION_HOLDERS = 24


def _percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


def _latency_stats(latencies, elapsed):
    ranked = sorted(latencies)
    return {
        "operations": len(latencies),
        "elapsed_seconds": elapsed,
        "ops_per_second": len(latencies) / elapsed,
        "p50_latency_us": _percentile(ranked, 0.50) * 1e6,
        "p99_latency_us": _percentile(ranked, 0.99) * 1e6,
    }


def long_transaction(machine, length):
    """One transaction appending ``length`` operations; per-op latency."""
    latencies = []
    started = time.perf_counter()
    for _ in range(length):
        before = time.perf_counter()
        machine.execute("T", Invocation("Credit", (1,)))
        latencies.append(time.perf_counter() - before)
    return latencies, time.perf_counter() - started


def sweep_intentions_length(adt, lengths, repeats):
    """Single-transaction sweep over intentions lengths.

    The machine does one ``spec.step`` per response check, so ops/sec
    should not fall as the intentions list grows.  Best-of-``repeats``.
    """
    rows = []
    for length in lengths:
        stats = None
        for _ in range(repeats):
            machine = LockMachine(adt.spec, adt.conflict)
            latencies, elapsed = long_transaction(machine, length)
            candidate = _latency_stats(latencies, elapsed)
            if stats is None or candidate["elapsed_seconds"] < stats["elapsed_seconds"]:
                stats = candidate
        rows.append({"length": length, **stats})
    return rows


def sweep_state_size(sizes, transactions):
    """One-operation transactions on a queue that already holds ``items``.

    Each timed sample is the served shape — ``execute`` an ``Enq``, then
    ``commit`` (which folds it into the version) — on a compacting
    machine; an untimed ``Deq`` transaction between samples keeps the
    queue at its size.  The machine steps the operation once and adopts
    the result at commit and at the fold, so the p50 should move with the
    size only by the queue's own tuple copy and hash.
    """
    adt = get_adt("FIFOQueue")
    enq, deq = Invocation("Enq", (7,)), Invocation("Deq")
    rows = []
    for items in sizes:
        machine = CompactingLockMachine(adt.spec, adt.conflict)
        if items:
            machine.restore_version(frozenset({tuple(range(items))}))
        latencies = []
        for index in range(transactions):
            before = time.perf_counter()
            machine.execute(f"E{index}", enq)
            machine.commit(f"E{index}", 2 * index + 1)
            latencies.append(time.perf_counter() - before)
            machine.execute(f"D{index}", deq)
            machine.commit(f"D{index}", 2 * index + 2)
        ranked = sorted(latencies)
        rows.append(
            {
                "items": items,
                "transactions": transactions,
                "p50_latency_us": _percentile(ranked, 0.50) * 1e6,
                "p99_latency_us": _percentile(ranked, 0.99) * 1e6,
            }
        )
    return {
        "adt": adt.name,
        "rows": rows,
        "largest_over_empty": rows[-1]["p50_latency_us"] / rows[0]["p50_latency_us"],
    }


def churn(machine, transactions=CHURN_TRANSACTIONS):
    for index in range(transactions):
        name = f"T{index}"
        machine.execute(name, Invocation("Credit", (1,)))
        machine.commit(name, index + 1)


def best_of(build, repeats, transactions=CHURN_TRANSACTIONS):
    best = float("inf")
    for _ in range(repeats):
        machine = build()
        started = time.perf_counter()
        churn(machine, transactions)
        best = min(best, time.perf_counter() - started)
    return best


def commit_churn(adt, repeats):
    """Sequential one-op transactions: the many-small-transactions shape."""
    variants = {
        "plain": lambda: LockMachine(adt.spec, adt.conflict),
        "compacting": lambda: CompactingLockMachine(adt.spec, adt.conflict),
    }
    results = {}
    for name, build in variants.items():
        elapsed = best_of(build, repeats)
        results[name] = {
            "transactions": CHURN_TRANSACTIONS,
            "elapsed_seconds": elapsed,
            "txn_per_second": CHURN_TRANSACTIONS / elapsed,
        }
    return results


def relation_memo(adt, rounds):
    """Pair-grid enumeration: memoised relation vs a cold one per round.

    ``Relation.pairs`` memoises per (instance, universe); building a
    fresh relation each round re-pays the |U|² predicate grid, which is what the bounded derivations used to do on every
    restriction.
    """
    universe = adt.universe()
    warm_relation = PredicateRelation(adt.conflict.related, name="warm")
    warm_relation.pairs(universe)  # populate the memo before timing
    started = time.perf_counter()
    for _ in range(rounds):
        warm_relation.pairs(universe)
    warm = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(rounds):
        PredicateRelation(adt.conflict.related, name="cold").pairs(universe)
    cold = time.perf_counter() - started
    return {
        "universe_size": len(universe),
        "rounds": rounds,
        "warm_enumerations_per_second": rounds / warm,
        "cold_enumerations_per_second": rounds / cold,
        "warm_over_cold": cold / warm,
    }


#: Credit/Debit amounts outside Account's declared universe (amounts 2, 3).
OUTSIDE_AMOUNT = 57


def churn_with_holders(
    machine, amount, holders=RELATION_HOLDERS, transactions=CHURN_TRANSACTIONS
):
    """Commit churn with ``holders`` transactions holding live locks.

    The holders execute one ``Credit(amount)`` each and never finish, so
    every subsequent operation's lock acquisition walks all held
    operations through ``conflict.related``.  Credits commute under the
    hybrid table, so nothing blocks and the loop measures pure relation
    cost.
    """
    held = Invocation("Credit", (amount,))
    for index in range(holders):
        machine.execute(f"H{index}", held)
    for index in range(transactions):
        name = f"T{index}"
        machine.execute(name, held)
        machine.commit(name, index + 1)


def relation_micro(adt, rounds, repeats):
    """Class table vs bare predicate ``related()``: call rates and churn.

    ``calls`` times raw ``related()`` over a pair grid and ``churn`` runs
    the holder-heavy commit loop on a plain LOCK machine, each with the
    class table ``adt.conflict`` and with the hand-written relation it was
    tabulated from.  ``inside`` uses the table's own universe; ``outside``
    uses the same operation classes with an amount the universe does not
    hold.  Best-of-``repeats`` per variant.
    """
    relations = {"compiled": adt.conflict, "predicate": ACCOUNT_CONFLICT}
    inside = adt.conflict.universe
    outside = [
        Operation(Invocation(op.name, (OUTSIDE_AMOUNT,)), op.result)
        for op in inside
    ]
    assert not set(outside) & set(inside)
    amounts = {"inside": 2, "outside": OUTSIDE_AMOUNT}

    def call_rate(relation, pairs):
        best = float("inf")
        related = relation.related
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(rounds):
                for q, p in pairs:
                    related(q, p)
            best = min(best, time.perf_counter() - started)
        return rounds * len(pairs) / best

    calls = {}
    churn_rows = {"holders": RELATION_HOLDERS}
    for where, operations in (("inside", inside), ("outside", outside)):
        pairs = [(q, p) for q in operations for p in operations]
        rates = {
            key: call_rate(relation, pairs) for key, relation in relations.items()
        }
        calls[where] = {
            "compiled_calls_per_second": rates["compiled"],
            "predicate_calls_per_second": rates["predicate"],
            "compiled_over_predicate": rates["compiled"] / rates["predicate"],
        }
        rows = {}
        for key, relation in relations.items():
            best = float("inf")
            for _ in range(max(repeats, 3)):
                machine = LockMachine(adt.spec, relation)
                started = time.perf_counter()
                churn_with_holders(machine, amounts[where])
                best = min(best, time.perf_counter() - started)
            rows[key] = {
                "transactions": CHURN_TRANSACTIONS,
                "elapsed_seconds": best,
                "txn_per_second": CHURN_TRANSACTIONS / best,
            }
        rows["compiled_over_predicate"] = (
            rows["compiled"]["txn_per_second"] / rows["predicate"]["txn_per_second"]
        )
        churn_rows[where] = rows
    return {
        "universe_size": len(inside),
        "rounds": rounds,
        "calls": calls,
        "churn": churn_rows,
    }


def certified_churn(adt, transactions=CERTIFIED_TRANSACTIONS):
    """Manager commit churn with the streaming atomicity oracle attached.

    The benchmark numbers are only worth reporting if the run they came
    from is hybrid atomic — the checker certifies it online and its
    verdict is embedded in the artifact.
    """
    bus = TraceBus()
    checker = bus.subscribe(AtomicityChecker(emit_to=bus))
    manager = TransactionManager(tracer=bus)
    manager.create_object("A", adt)
    started = time.perf_counter()
    for _ in range(transactions):
        txn = manager.begin()
        manager.invoke(txn, "A", "Credit", 1)
        manager.commit(txn)
    elapsed = time.perf_counter() - started
    report = checker.report()
    if not report["ok"]:
        raise AssertionError(checker.render_report())
    return {
        "transactions": transactions,
        "elapsed_seconds": elapsed,
        "txn_per_second": transactions / elapsed,
        "certification": {
            "verdict": report["verdict"],
            "ok": report["ok"],
            "events": report["events"],
            "transactions": report["transactions"],
            "violations": report["violations"],
        },
    }


def machine_micro_grid(adt, repeats):
    """The ``bench_machine_micro`` grid: machine × protocol churn rates."""
    results = {}
    for label, build in (
        ("plain machine", lambda c: LockMachine(adt.spec, c)),
        ("compacting machine", lambda c: CompactingLockMachine(adt.spec, c)),
    ):
        for protocol in ALL_PROTOCOLS:
            conflict = protocol.conflict_for(adt)
            elapsed = min(
                _timed_churn(build, conflict) for _ in range(repeats)
            )
            results[f"{label}/{protocol.name}"] = {
                "elapsed_seconds": elapsed,
                "txn_per_second": CHURN_TRANSACTIONS / elapsed,
            }
    return results


def _timed_churn(build, conflict):
    machine = build(conflict)
    started = time.perf_counter()
    churn(machine)
    return time.perf_counter() - started


def run_benchmarks(smoke=False, output_dir=REPO_ROOT):
    adt = make_account_adt()
    lengths = SMOKE_SWEEP_LENGTHS if smoke else SWEEP_LENGTHS
    repeats = 1 if smoke else 3
    memo_rounds = SMOKE_MEMO_ROUNDS if smoke else MEMO_ROUNDS
    relation_rounds = SMOKE_RELATION_ROUNDS if smoke else RELATION_ROUNDS
    sized = SMOKE_STATE_SIZE_TRANSACTIONS if smoke else STATE_SIZE_TRANSACTIONS

    # Warm up bytecode caches before any timing.
    churn(LockMachine(adt.spec, adt.conflict), 30)

    hot_path = {
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "adt": adt.name,
        "sweep": sweep_intentions_length(adt, lengths, repeats),
        "state_size": sweep_state_size(STATE_SIZES, sized),
        "commit_churn": commit_churn(adt, repeats),
        "relation_memo": relation_memo(adt, memo_rounds),
        "certified_churn": certified_churn(adt),
    }
    machine_micro = {
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "transactions": CHURN_TRANSACTIONS,
        "results": machine_micro_grid(adt, repeats),
        "relation_micro": relation_micro(adt, relation_rounds, repeats),
    }

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "BENCH_hot_path.json": hot_path,
        "BENCH_machine_micro.json": machine_micro,
    }
    for name, data in artifacts.items():
        (output_dir / name).write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
    return hot_path, machine_micro


def render_summary(hot_path, machine_micro=None):
    lines = ["hot path: single-transaction sweep over intentions length"]
    for row in hot_path["sweep"]:
        lines.append(
            f"  n={row['length']:>4}: {row['ops_per_second']:>10,.0f} op/s"
            f" (p50 {row['p50_latency_us']:>6,.1f}us,"
            f" p99 {row['p99_latency_us']:>8,.1f}us)"
        )
    sized = hot_path["state_size"]
    lines.append(
        f"state size ({sized['adt']} execute + commit, p50): "
        + ", ".join(
            f"{row['items']:,} items {row['p50_latency_us']:,.1f}us"
            for row in sized["rows"]
        )
        + f" (largest : empty {sized['largest_over_empty']:.2f}x)"
    )
    chn = hot_path["commit_churn"]
    lines.append(
        "commit churn: "
        + ", ".join(
            f"{name} {entry['txn_per_second']:,.0f} txn/s"
            for name, entry in sorted(chn.items())
        )
    )
    memo = hot_path["relation_memo"]
    lines.append(
        f"relation memo: warm {memo['warm_enumerations_per_second']:,.0f}"
        f" vs cold {memo['cold_enumerations_per_second']:,.0f} enum/s"
        f" ({memo['warm_over_cold']:.0f}x)"
    )
    cert = hot_path["certified_churn"]
    lines.append(
        f"certified churn: {cert['txn_per_second']:,.0f} txn/s, verdict"
        f" {cert['certification']['verdict']!r}"
    )
    if machine_micro and "relation_micro" in machine_micro:
        micro = machine_micro["relation_micro"]
        for where in ("inside", "outside"):
            calls = micro["calls"][where]
            churn_rows = micro["churn"][where]
            lines.append(
                f"relation {where} the declared universe: class table"
                f" {calls['compiled_calls_per_second']:,.0f} vs predicate"
                f" {calls['predicate_calls_per_second']:,.0f} calls/s"
                f" ({calls['compiled_over_predicate']:.2f}x);"
                f" {micro['churn']['holders']}-holder churn"
                f" {churn_rows['compiled']['txn_per_second']:,.0f} vs"
                f" {churn_rows['predicate']['txn_per_second']:,.0f} txn/s"
                f" ({churn_rows['compiled_over_predicate']:.2f}x)"
            )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink sweep lengths and repeats for CI smoke runs",
    )
    parser.add_argument(
        "--output-dir",
        default=str(REPO_ROOT),
        help="directory for BENCH_*.json artifacts (default: repo root)",
    )
    args = parser.parse_args(argv)
    hot_path, machine_micro = run_benchmarks(
        smoke=args.smoke, output_dir=args.output_dir
    )
    from bench_schema import validate_artifact

    validate_artifact("BENCH_hot_path.json", hot_path)
    validate_artifact("BENCH_machine_micro.json", machine_micro)
    print(render_summary(hot_path, machine_micro))
    return 0


def test_hot_path_smoke(tmp_path, save_artifact):
    """Smoke-sized run under pytest: artifacts validate and the oracle
    certifies the run the numbers came from."""
    from bench_schema import validate_artifact

    hot_path, machine_micro = run_benchmarks(smoke=True, output_dir=tmp_path)
    validate_artifact("BENCH_hot_path.json", hot_path)
    validate_artifact("BENCH_machine_micro.json", machine_micro)
    assert max(row["length"] for row in hot_path["sweep"]) >= 200
    assert [row["items"] for row in hot_path["state_size"]["rows"]] == [0, 100, 1000]
    assert hot_path["certified_churn"]["certification"]["ok"]
    micro = machine_micro["relation_micro"]
    for where in ("inside", "outside"):
        assert micro["calls"][where]["compiled_over_predicate"] >= 1.0
    save_artifact(
        "hot_path_smoke",
        render_summary(hot_path, machine_micro),
        data=hot_path,
    )


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
