"""Hand-rolled schema validation for the BENCH_*.json artifacts.

CI's perf-smoke job regenerates the artifacts and validates them here
before uploading; the committed copies at the repository root are checked
by the same code.  Deliberately dependency-free (no ``jsonschema``): a
schema is a nested dict of ``key -> checker`` where a checker is a type,
a tuple of types, a nested schema dict, or a callable returning an error
string (or None).  Extra keys are rejected so stale fields can't linger
unnoticed.

Run directly::

    python benchmarks/bench_schema.py BENCH_hot_path.json [BENCH_machine_micro.json ...]
"""

import json
import sys
from pathlib import Path

NUMBER = (int, float)


def positive(value):
    if not isinstance(value, NUMBER) or isinstance(value, bool) or value <= 0:
        return f"expected a positive number, got {value!r}"
    return None


def non_negative_int(value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        return f"expected a non-negative integer, got {value!r}"
    return None


def non_negative_or_null(value):
    """A median phase latency: >= 0, or null when no span carried it."""
    if value is None:
        return None
    if not isinstance(value, NUMBER) or isinstance(value, bool) or value < 0:
        return f"expected a non-negative number or null, got {value!r}"
    return None


def string_or_null(value):
    if value is None or isinstance(value, str):
        return None
    return f"expected a string or null, got {value!r}"


def non_negative(value):
    if not isinstance(value, NUMBER) or isinstance(value, bool) or value < 0:
        return f"expected a non-negative number, got {value!r}"
    return None


def fraction(value):
    if (
        not isinstance(value, NUMBER)
        or isinstance(value, bool)
        or not 0.0 <= value <= 1.0
    ):
        return f"expected a fraction in [0, 1], got {value!r}"
    return None


LATENCY_STATS = {
    "operations": non_negative_int,
    "elapsed_seconds": positive,
    "ops_per_second": positive,
    "p50_latency_us": positive,
    "p99_latency_us": positive,
}

CHURN_STATS = {
    "transactions": non_negative_int,
    "elapsed_seconds": positive,
    "txn_per_second": positive,
}

SWEEP_ROW = {
    "length": non_negative_int,
    "cached": LATENCY_STATS,
    "naive": LATENCY_STATS,
    "speedup": positive,
}

#: The atomicity checker's embedded verdict (shared by every benchmark
#: that certifies the run its numbers came from).
CERTIFICATION = {
    "verdict": str,
    "ok": bool,
    "events": non_negative_int,
    "transactions": {
        "total": non_negative_int,
        "committed": non_negative_int,
        "aborted": non_negative_int,
        "active": non_negative_int,
    },
    "violations": list,
}

HOT_PATH_SCHEMA = {
    "schema_version": non_negative_int,
    "smoke": bool,
    "adt": str,
    "sweep": [SWEEP_ROW],
    "commit_churn": {
        "plain_cached": CHURN_STATS,
        "plain_naive": CHURN_STATS,
        "compacting_cached": CHURN_STATS,
        "compacting_naive": CHURN_STATS,
    },
    "relation_memo": {
        "universe_size": non_negative_int,
        "rounds": non_negative_int,
        "warm_enumerations_per_second": positive,
        "cold_enumerations_per_second": positive,
        "warm_over_cold": positive,
    },
    "certified_churn": {
        "transactions": non_negative_int,
        "elapsed_seconds": positive,
        "txn_per_second": positive,
        "certification": CERTIFICATION,
    },
}

SERVE_TXN_STATS = {
    "transactions": non_negative_int,
    "elapsed_seconds": positive,
    "txn_per_second": positive,
    "p50_latency_ms": positive,
    "p99_latency_ms": positive,
}

SERVE_CLOSED_ROW = {
    "clients": positive,
    "committed": non_negative_int,
    # error-code -> count; the code set is the protocol's, not the schema's.
    "errors": dict,
    "stats": SERVE_TXN_STATS,
}

SERVE_OPEN_ROW = {
    "offered_txn_per_second": positive,
    "pool": positive,
    "offered": non_negative_int,
    "committed": non_negative_int,
    "errors": dict,
    "stats": SERVE_TXN_STATS,
}

SERVE_SCHEMA = {
    "schema_version": non_negative_int,
    "smoke": bool,
    "adt": str,
    "config": {
        "workers": positive,
        "queue_limit": positive,
        "objects": positive,
        "ops_per_txn": positive,
        "duration_seconds": positive,
    },
    "max_concurrent_clients": positive,
    "closed_loop": [SERVE_CLOSED_ROW],
    "open_loop": [SERVE_OPEN_ROW],
    "server": {
        "connections": non_negative_int,
        "requests": non_negative_int,
        "busy": non_negative_int,
        "errors": non_negative_int,
        "transactions_committed": non_negative_int,
        "transactions_aborted": non_negative_int,
    },
    "drain": {
        "sessions": non_negative_int,
        "finished": non_negative_int,
        "aborted": non_negative_int,
    },
    # End-to-end span breakdown from the replayed trace: where a
    # committed transaction's wall time went, by wire phase.
    "span_breakdown": {
        "committed_spans": non_negative_int,
        "with_trace": non_negative_int,
        "median_phase_ms": {
            "client": non_negative_or_null,
            "queue": non_negative_or_null,
            "execute": non_negative_or_null,
            "respond": non_negative_or_null,
        },
    },
    # Critical-path attribution over the committed spans (milliseconds):
    # which phase gated each transaction, the per-phase p50/p99 budget,
    # and the coz-lite what-if estimates.
    "critical_path": {
        "spans": non_negative_int,
        "attributed": non_negative_int,
        "attributed_fraction": fraction,
        # phase -> gated-span count; the phase key set is the profiler's.
        "gating": dict,
        # phase -> {p50, p99, total}; checked structurally below.
        "phase_budget": dict,
        "total": {"p50": non_negative, "p99": non_negative},
        # phase -> {p99_without, p99_drop}; checked structurally below.
        "what_if": dict,
    },
    # Blocked time attributed to (object, op-pair, relation) triples —
    # the conflict-relation compiler's target list.
    "contention": {
        "events": non_negative_int,
        "blocked_time": non_negative,
        "pairs": non_negative_int,
        "rows": list,
    },
    # Flight-recorder status at the end of the run (the drain trigger
    # guarantees at least one dump).
    "flight": {
        "dumps": non_negative_int,
        "last_reason": string_or_null,
        "last_path": string_or_null,
        "retained": non_negative_int,
        "seen": non_negative_int,
        "dropped_events": non_negative_int,
        "profile_snapshots": non_negative_int,
    },
    "certification": CERTIFICATION,
}

#: Conflict-relation micro-benchmark: raw ``related()`` call rates and
#: holder-heavy commit churn for the class table the machines lock with
#: vs the bare hand-written predicate it is tabulated from, on operations
#: inside and outside the declared universe.
RELATION_CALLS = {
    "compiled_calls_per_second": positive,
    "predicate_calls_per_second": positive,
    "compiled_over_predicate": positive,
}
RELATION_CHURN = {
    "compiled": CHURN_STATS,
    "predicate": CHURN_STATS,
    "compiled_over_predicate": positive,
}
RELATION_MICRO = {
    "universe_size": non_negative_int,
    "rounds": non_negative_int,
    "calls": {"inside": RELATION_CALLS, "outside": RELATION_CALLS},
    "churn": {
        "holders": non_negative_int,
        "inside": RELATION_CHURN,
        "outside": RELATION_CHURN,
    },
}

MACHINE_MICRO_SCHEMA = {
    "schema_version": non_negative_int,
    "smoke": bool,
    "transactions": non_negative_int,
    # "results" is checked structurally below: the machine/protocol key
    # set depends on the registered protocols, not the schema.
    "results": dict,
    "relation_micro": RELATION_MICRO,
}

#: One shard-pool measurement row: a worker/durability configuration
#: driven at a fixed pipe-batch submission depth, with the fsync count
#: taken from the shard WALs' own counters.
SHARD_ROW = {
    "workers": positive,
    "durability": str,
    "batch_depth": positive,
    "transactions": non_negative_int,
    "elapsed_seconds": positive,
    "txn_per_second": positive,
    "fsyncs": non_negative_int,
    "fsyncs_per_txn": non_negative,
}

SHARD_SCHEMA = {
    "schema_version": non_negative_int,
    "smoke": bool,
    "adt": str,
    "config": {
        "ops_per_txn": positive,
        "txns_per_worker": positive,
        "batch_depth": positive,
    },
    # One worker, one durable write per WAL append: the honest
    # denominator for the headline speedup.
    "baseline": SHARD_ROW,
    # Group-commit worker sweep at the same submission depth.
    "scaling": [SHARD_ROW],
    "speedup_vs_baseline": positive,
    # fsync amortisation as the submission depth grows (1 worker).
    "depth_sweep": [SHARD_ROW],
    "cross_shard": {
        "workers": positive,
        "transactions": non_negative_int,
        "elapsed_seconds": positive,
        "txn_per_second": positive,
    },
    "certification": CERTIFICATION,
}

ARTIFACT_SCHEMAS = {
    "BENCH_hot_path.json": HOT_PATH_SCHEMA,
    "BENCH_machine_micro.json": MACHINE_MICRO_SCHEMA,
    "BENCH_serve.json": SERVE_SCHEMA,
    "BENCH_shard.json": SHARD_SCHEMA,
}


def _check(checker, value, path, errors):
    if isinstance(checker, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected an object, got {type(value).__name__}")
            return
        for key in checker:
            if key not in value:
                errors.append(f"{path}.{key}: missing")
        for key in value:
            if key not in checker:
                errors.append(f"{path}.{key}: unexpected key")
        for key, sub in checker.items():
            if key in value:
                _check(sub, value[key], f"{path}.{key}", errors)
    elif isinstance(checker, list):
        if not isinstance(value, list) or not value:
            errors.append(f"{path}: expected a non-empty array")
            return
        for index, item in enumerate(value):
            _check(checker[0], item, f"{path}[{index}]", errors)
    elif isinstance(checker, (type, tuple)):
        if checker is bool:
            ok = isinstance(value, bool)
        else:
            ok = isinstance(value, checker) and not isinstance(value, bool)
        if not ok:
            errors.append(
                f"{path}: expected {checker!r}, got {type(value).__name__}"
            )
    else:  # callable checker
        message = checker(value)
        if message:
            errors.append(f"{path}: {message}")


def validate_artifact(name, data):
    """Validate one artifact dict against its schema; raises ValueError."""
    schema = ARTIFACT_SCHEMAS.get(name)
    if schema is None:
        raise ValueError(f"no schema registered for {name!r}")
    errors = []
    _check(schema, data, name, errors)
    if name == "BENCH_machine_micro.json" and isinstance(data.get("results"), dict):
        if not data["results"]:
            errors.append(f"{name}.results: must not be empty")
        for key, row in data["results"].items():
            _check(
                {"elapsed_seconds": positive, "txn_per_second": positive},
                row,
                f"{name}.results[{key}]",
                errors,
            )
        # The class table's floor: it must not be slower than the bare
        # predicate it is tabulated from, inside the declared universe or
        # outside it.
        micro = data.get("relation_micro")
        if isinstance(micro, dict) and isinstance(micro.get("calls"), dict):
            for where, calls in sorted(micro["calls"].items()):
                ratio = calls.get("compiled_over_predicate")
                if isinstance(ratio, NUMBER) and ratio < 1.0:
                    errors.append(
                        f"{name}.relation_micro.calls.{where}."
                        f"compiled_over_predicate: class-table related() is "
                        f"slower than the hand-written predicate "
                        f"({ratio:.3f}x, floor 1.0)"
                    )
    if name == "BENCH_serve.json" and not errors:
        # Structural floors the type checks can't express: the sweep must
        # reach 64 concurrent connections, commit work there, and carry a
        # passing certification (numbers from an uncertified run are
        # worthless).
        floor = data["max_concurrent_clients"]
        if floor < 64:
            errors.append(
                f"{name}.max_concurrent_clients: sweep must reach 64 "
                f"concurrent clients, got {floor}"
            )
        top = next(
            (row for row in data["closed_loop"] if row["clients"] == floor),
            None,
        )
        if top is None:
            errors.append(
                f"{name}.closed_loop: no row at {floor} clients"
            )
        elif top["committed"] <= 0:
            errors.append(
                f"{name}.closed_loop: nothing committed at {floor} clients"
            )
        if data["certification"]["ok"] is not True:
            errors.append(f"{name}.certification.ok: served run must certify")
        breakdown = data["span_breakdown"]
        if breakdown["committed_spans"] <= 0:
            errors.append(
                f"{name}.span_breakdown: no committed spans in the trace"
            )
        elif breakdown["with_trace"] <= 0:
            errors.append(
                f"{name}.span_breakdown: no span carried a client trace id "
                "(wire trace propagation broken)"
            )
        if data["flight"]["dumps"] < 1:
            errors.append(
                f"{name}.flight: the drain trigger must leave at least "
                "one flight dump"
            )
        critical = data["critical_path"]
        for phase, row in critical["phase_budget"].items():
            _check(
                {"p50": non_negative, "p99": non_negative, "total": non_negative},
                row,
                f"{name}.critical_path.phase_budget[{phase}]",
                errors,
            )
        for phase, row in critical["what_if"].items():
            _check(
                {"p99_without": non_negative, "p99_drop": non_negative},
                row,
                f"{name}.critical_path.what_if[{phase}]",
                errors,
            )
        # The profiler must explain the run: ≥95% of committed spans get
        # a gating phase, and the hot-object debit mix must have fed the
        # contention profiler at least one blocked interval.
        if breakdown["committed_spans"] > 0:
            if critical["attributed_fraction"] < 0.95:
                errors.append(
                    f"{name}.critical_path: only "
                    f"{critical['attributed_fraction']:.1%} of spans got a "
                    "gating phase (floor: 95%)"
                )
            if data["contention"]["events"] < 1:
                errors.append(
                    f"{name}.contention: no blocked events attributed — "
                    "the hot-object debit mix should conflict"
                )
    if name == "BENCH_shard.json" and not errors:
        # The sharding tentpole's acceptance floors: the merged sharded
        # run must certify, group commit at the top worker count must
        # beat the durable-per-append baseline (>= 2.5x in a full run;
        # smoke gets headroom for noisy shared runners), and fsyncs/txn
        # must amortise below one at submission depth >= 4.
        if data["certification"]["ok"] is not True:
            errors.append(f"{name}.certification.ok: sharded run must certify")
        floor = 1.5 if data["smoke"] else 2.5
        speedup = data["speedup_vs_baseline"]
        if isinstance(speedup, NUMBER) and speedup < floor:
            errors.append(
                f"{name}.speedup_vs_baseline: group commit is only "
                f"{speedup:.2f}x the per-append baseline (floor {floor}x)"
            )
        amortised = [
            row["fsyncs_per_txn"]
            for row in data["depth_sweep"]
            if isinstance(row.get("batch_depth"), NUMBER)
            and row["batch_depth"] >= 4
            and isinstance(row.get("fsyncs_per_txn"), NUMBER)
        ]
        if not amortised or min(amortised) >= 1.0:
            errors.append(
                f"{name}.depth_sweep: fsyncs/txn never dropped below 1.0 "
                "at submission depth >= 4 (group commit not amortising)"
            )
    if errors:
        raise ValueError("\n".join(errors))


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for argument in argv:
        path = Path(argument)
        try:
            validate_artifact(path.name, json.loads(path.read_text()))
        except (OSError, ValueError) as failure:
            print(f"FAIL {path}: {failure}", file=sys.stderr)
            status = 1
        else:
            print(f"ok {path}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
