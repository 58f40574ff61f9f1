"""Self-tests of the end-to-end benchmark.

    python -m pytest benchmarks/e2e -q

Not collected by the tier-1 suite (its ``testpaths`` is ``tests``).
The last test runs the whole suite in ``--smoke`` mode (about a minute).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

import agree  # noqa: E402
import oracle  # noqa: E402
import plans  # noqa: E402
from layers import SpanRecorder  # noqa: E402
from loadgen import Ledger  # noqa: E402
from spin import Timeline  # noqa: E402

DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- plans ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(plans.WORKLOADS))
def test_same_seed_gives_byte_identical_plans(name):
    workload = plans.WORKLOADS[name]
    first = plans.plan_bytes(plans.build_plans(workload, seed=7, txns=64))
    again = plans.plan_bytes(plans.build_plans(workload, seed=7, txns=64))
    other = plans.plan_bytes(plans.build_plans(workload, seed=8, txns=64))
    assert first == again
    assert first != other


def test_wal_pool_plan_is_one_tenth_cross_shard():
    plan = plans.build_plans(plans.WORKLOADS["wal-pool"], seed=1)
    txns = [txn for client in plan for txn in client]
    share = sum(map(plans.cross_shard, txns)) / len(txns)
    assert 0.08 < share < 0.12


# -- normalisation ---------------------------------------------------------


def test_normalisation_on_a_synthetic_timeline():
    # Second 0 runs at reference speed, second 1 at half speed.
    timeline = Timeline(origin=100.0, ref_spin_s=0.010)
    for at, spin_s in ((100.1, 0.010), (100.6, 0.010), (101.1, 0.020), (101.6, 0.020)):
        timeline.add(at, spin_s)
    assert timeline.factor(0) == pytest.approx(1.0)
    assert timeline.factor(1) == pytest.approx(0.5)
    # Two wall seconds hold 1.0 + 0.5 reference seconds...
    assert timeline.ref_interval(100.0, 102.0) == pytest.approx(1.5)
    # ...partial buckets count by their share...
    assert timeline.ref_interval(100.5, 101.5) == pytest.approx(0.5 + 0.25)
    # ...a latency is scaled by the bucket it completed in...
    assert timeline.ref_duration(101.2, 0.008) == pytest.approx(0.004)
    # ...and an unsampled bucket borrows its nearest neighbour.
    assert timeline.factor(5) == pytest.approx(0.5)
    assert timeline.factor(-3) == pytest.approx(1.0)


# -- spans -----------------------------------------------------------------


def test_span_self_time_subtracts_children():
    recorder = SpanRecorder()
    # parent [0, 10] with children [1, 4] and [5, 7]; a grandchild [2, 3].
    recorder.spans = [
        ["manager", -1, 0.0, 10.0],
        ["machine", 0, 1.0, 4.0],
        ["spec", 1, 2.0, 3.0],
        ["machine", 0, 5.0, 7.0],
    ]
    own = recorder.self_times()
    assert own == {"manager": 5.0, "machine": 4.0, "spec": 1.0}
    assert sum(own.values()) == 10.0  # self times add up to the root span
    assert recorder.counts() == {"manager": 1, "machine": 2, "spec": 1}


def test_span_recorder_nests_live_calls():
    recorder = SpanRecorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    assert [span[:2] for span in recorder.spans] == [["outer", -1], ["inner", 0]]
    assert recorder.self_times()["outer"] >= 0.0


# -- oracle ----------------------------------------------------------------


class FakeServer:
    """A serial in-memory stand-in with ``SyncClient``'s probe surface."""

    class Reply:
        def __init__(self, result=None, error=None):
            self.ok = error is None
            self.result = {"result": result}
            self.error_code = error

    def __init__(self, objects):
        self.adt = dict(objects)
        self.state = {
            name: [] if adt == "FIFOQueue" else 0 for name, adt in objects
        }
        self._replies = {}
        self._next = 0

    def apply(self, obj, operation, args):
        adt, state = self.adt[obj], self.state
        if operation in ("Credit", "Inc"):
            state[obj] += args[0]
            return self.Reply("Ok")
        if operation == "Debit":
            if state[obj] < args[0]:
                return self.Reply("Overdraft")
            state[obj] -= args[0]
            return self.Reply("Ok")
        if operation == "Read":
            return self.Reply(state[obj])
        if operation == "Enq":
            state[obj].append(args[0])
            return self.Reply("Ok")
        assert adt == "FIFOQueue" and operation == "Deq"
        if not state[obj]:
            return self.Reply(error="WOULD_BLOCK")
        return self.Reply(state[obj].pop(0))

    # SyncClient surface used by oracle.probe -------------------------
    def begin(self):
        self._saved = json.dumps(self.state)
        return "probe"

    def send(self, _action, params):
        self._next += 1
        self._replies[self._next] = self.apply(
            params["obj"], params["operation"], tuple(params["args"])
        )
        return self._next

    def wait(self, rid):
        return self._replies.pop(rid)

    def abort(self, _handle):
        self.state = json.loads(self._saved)


OBJECTS = (("acct", "Account"), ("ctr", "Counter"), ("q", "FIFOQueue"))


def _ledger(server):
    """A ledger of three acknowledged commits, applied to ``server``."""
    ledger = Ledger()
    for stamp, effects in (
        (1, [("acct", "Credit", (40,)), ("q", "Enq", (11,))]),
        (2, [("ctr", "Inc", (3,)), ("q", "Enq", (22,))]),
        (3, [("acct", "Debit", (1,)), ("ctr", "Read", ())]),
    ):
        done = []
        for obj, operation, args in effects:
            reply = server.apply(obj, operation, args)
            done.append((obj, operation, args, reply.result["result"]))
        ledger.committed.append((stamp, done))
    return ledger


def test_oracle_accepts_a_faithful_server():
    server = FakeServer(OBJECTS)
    ledger = _ledger(server)
    model = oracle.replay(ledger, OBJECTS)
    assert oracle.probe(server, model, ledger) == (0, 0)
    assert server.state == {"acct": 39, "ctr": 3, "q": [11, 22]}  # probe aborted


def test_oracle_catches_a_planted_lost_commit():
    server = FakeServer(OBJECTS)
    ledger = _ledger(server)
    server.state["acct"] -= 39  # the acknowledged credit never made it
    model = oracle.replay(ledger, OBJECTS)
    with pytest.raises(oracle.OracleViolation, match="acct"):
        oracle.probe(server, model, ledger)


def test_oracle_catches_a_planted_reordered_dequeue():
    server = FakeServer(OBJECTS)
    ledger = _ledger(server)
    server.state["q"].reverse()
    model = oracle.replay(ledger, OBJECTS)
    with pytest.raises(oracle.OracleViolation, match="dequeue 0"):
        oracle.probe(server, model, ledger)


def test_oracle_catches_an_answer_no_serial_order_gives():
    ledger = Ledger()
    ledger.committed = [
        (1, [("ctr", "Inc", (2,), "Ok")]),
        (2, [("ctr", "Read", (), 5)]),  # a serial execution reads 2
    ]
    with pytest.raises(oracle.OracleViolation, match="serial execution answers 2"):
        oracle.replay(ledger, OBJECTS)


def test_oracle_bounds_in_doubt_commits():
    server = FakeServer(OBJECTS)
    ledger = _ledger(server)
    ledger.in_doubt = [[("acct", "Credit", (7,), "Ok")], [("acct", "Credit", (5,), "Ok")]]
    model = oracle.replay(ledger, OBJECTS)
    server.state["acct"] += 5  # one of the two in-doubt commits landed
    assert oracle.probe(server, model, ledger) == (1, 0)
    server.state["acct"] += 1  # 6 is no subset of {7, 5}
    with pytest.raises(oracle.OracleViolation, match="no subset"):
        oracle.probe(server, model, ledger)


# -- agree.py ----------------------------------------------------------------


def test_agree_verdicts():
    steady = [100, 101, 99, 100, 102, 100, 99, 101, 100, 100]
    assert agree.verdict(steady, [x * 1.05 for x in steady], "lower", 0.10)[0] == "within"
    assert agree.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10)[0] == "outside"
    assert agree.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10)[0] == "outside"
    noisy = [60, 140, 100, 80, 120, 70, 130, 90, 110, 100]
    assert agree.verdict(noisy, noisy, "lower", 0.10)[0] == "unresolved"
    assert agree.verdict(noisy, [x / 10 for x in noisy], "lower", 0.10)[0] == "within"


def test_agree_refuses_smoke_results(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps({"runs": [{"stamp": {"smoke": True}}]}))
    assert agree.main([str(path), str(path)]) == 2


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_names_and_workloads():
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(plans.WORKLOADS)
    for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        names.append(entry["name"])
        assert unit_ok.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry
    assert all(name_ok.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < entry["bound"] <= 0.25 for entry in DECLARED["end_to_end"])
    setup = next(e for e in DECLARED["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_smoke_suite_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    runs = json.loads(out.read_text())["runs"]
    assert all(run["stamp"]["smoke"] and run["correct"] for run in runs)
    end_to_end = {entry["name"] for entry in DECLARED["end_to_end"]}
    per_layer = {entry["name"] for entry in DECLARED["per_layer"]}
    for workload in plans.WORKLOADS:
        mine = {run["trace"]: set(run["metrics"]) for run in runs if run["workload"] == workload}
        assert mine == {0: end_to_end, 1: per_layer}
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert agree.main([str(out), str(out)]) == 2  # smoke results are refused
