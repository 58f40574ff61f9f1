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

SWEEP_ROW = {"length": non_negative_int, **LATENCY_STATS}

#: An operation may not cost the size of what the object holds: the p50
#: of ``execute`` + ``commit`` on a 1,000-item queue over that on an empty
#: one.  It was ~16-44x while ``results_for`` ranked a one-state view by
#: its canonical string and the commit and the fold replayed; what is left
#: (the queue's own tuple copy and hash) keeps it under 3x.
STATE_SIZE_CEILING = 4.0


def within_state_size_ceiling(value):
    if positive(value) or value > STATE_SIZE_CEILING:
        return (
            f"expected a positive ratio at most {STATE_SIZE_CEILING}, got"
            f" {value!r}: an operation's cost grows with the object's state"
        )
    return None


STATE_SIZE = {
    "adt": str,
    "rows": [
        {
            "items": non_negative_int,
            "transactions": non_negative_int,
            "p50_latency_us": positive,
            "p99_latency_us": positive,
        }
    ],
    "largest_over_empty": within_state_size_ceiling,
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
    "state_size": STATE_SIZE,
    "commit_churn": {
        "plain": CHURN_STATS,
        "compacting": CHURN_STATS,
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

ARTIFACT_SCHEMAS = {
    "BENCH_hot_path.json": HOT_PATH_SCHEMA,
    "BENCH_machine_micro.json": MACHINE_MICRO_SCHEMA,
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
