"""CLI tests (invoking main() in-process)."""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Account" in out
        assert "hybrid" in out
        assert "optimistic" in out
        assert "queue" in out


class TestDerive:
    def test_derive_file(self, capsys):
        assert main(["derive", "File"]) == 0
        out = capsys.readouterr().out
        assert "matches paper table : True" in out
        assert "failure to commute" in out
        assert "concurrency scores" in out

    def test_derive_with_custom_values(self, capsys):
        assert main(["derive", "Set", "--values", "7", "8", "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "Member,True" in out

    def test_unknown_adt(self, capsys):
        assert main(["derive", "Blob"]) == 2
        assert "unknown ADT" in capsys.readouterr().err


class TestAudit:
    def test_audit_one_type(self, capsys):
        assert main(["audit", "File"]) == 0
        captured = capsys.readouterr()
        assert "File: verified 2 table(s)" in captured.out
        assert "audit: 2 table(s) of 1 type(s) verified" in captured.out
        assert captured.err == ""

    def test_audit_unknown_type(self, capsys):
        assert main(["audit", "Blob"]) == 2
        assert "unknown ADT" in capsys.readouterr().err

    def test_audit_with_minimality(self, capsys):
        assert main(["audit", "SemiQueue", "--minimal"]) == 0
        assert "minimal" in capsys.readouterr().out
        # Invalidated-by is not minimal for the bounded queue; only the
        # opt-in check objects, and objecting fails the run.
        assert main(["audit", "BoundedQueue"]) == 0
        assert main(["audit", "BoundedQueue", "--minimal"]) == 1
        assert "[error] BoundedQueue.dependency" in capsys.readouterr().err

    def test_audit_fails_on_a_deleted_conflict(self, capsys, monkeypatch):
        # Drop Read/Write from File's figure, as a mis-transcription would:
        # the verb must go red and quote the history that breaks.
        import repro.adts.file as file_module
        from repro.core import CompiledRelation, EMPTY_RELATION

        monkeypatch.setitem(
            file_module.COMPILED_TABLES,
            "CONFLICT",
            CompiledRelation(
                EMPTY_RELATION, file_module.file_universe(), name="mutant"
            ),
        )
        assert main(["audit"]) == 1
        captured = capsys.readouterr()
        assert "[error] File.CONFLICT: not a dependency relation" in captured.err
        assert "against the history" in captured.err
        assert "audit: 17 table(s) of 9 type(s) verified" in captured.out


class TestSimulate:
    def test_simulate_default_protocols(self, capsys):
        assert main(["simulate", "queue", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        assert "serial" in out
        assert "throughput" in out

    def test_simulate_optimistic(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "account",
                    "--protocol",
                    "optimistic",
                    "--duration",
                    "60",
                ]
            )
            == 0
        )
        assert "optimistic" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["simulate", "blob"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_unknown_protocol(self, capsys):
        assert main(["simulate", "queue", "--protocol", "mvcc"]) == 2
        assert "unknown protocol" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_depth_default(self):
        args = build_parser().parse_args(["derive", "File"])
        assert args.depth == 3

    def test_the_bench_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "serve"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_serve_durability_is_group_commit_only(self, capsys):
        # Still accepted: benchmarks/e2e passes ``--durability group``.
        build_parser().parse_args(["serve", "--durability", "group"])
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--durability", "append"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'append'" in capsys.readouterr().err

    def test_serve_takes_locking_protocols_only(self, capsys):
        # A shard runs lock machines; serving one under another engine's
        # name would mislabel it to the checker.
        for name in ("hybrid", "commutativity", "rw-2pl", "serial"):
            build_parser().parse_args(["serve", "--protocol", name])
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--protocol", "optimistic"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'optimistic'" in capsys.readouterr().err


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Audit matrix" in out
        assert "all audits pass" in out
        assert "Figure 4-5" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--output", str(target)]) == 0
        assert "Audit matrix" in target.read_text()

    def test_report_splices_artifacts(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "demo.txt").write_text("demo artifact body")
        assert main(["report", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "Benchmark artifacts" in out
        assert "demo artifact body" in out

class TestTrace:
    def test_jsonl_to_stdout_names_conflict_pairs(self, capsys):
        import json

        assert main(["trace", "account", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line]
        kinds = {record["kind"] for record in records}
        assert {"txn.begin", "txn.invoke", "txn.commit"} <= kinds
        conflicts = [r for r in records if r["kind"] == "lock.conflict"]
        assert conflicts, "seeded account run should conflict"
        for record in conflicts:
            assert record["operation"] and record["held"] and record["relation"]

    def test_jsonl_to_file(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace",
                    "queue",
                    "--duration",
                    "40",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        assert "trace written to" in capsys.readouterr().out
        from repro.obs import read_jsonl

        events = read_jsonl(str(target))
        # The trace opens with the object registration the atomicity
        # checker reads the serial spec from, then the first begin.
        assert events and events[0].kind == "obj.create"
        assert any(event.kind == "txn.begin" for event in events)

    def test_spans_format(self, capsys):
        assert (
            main(["trace", "account", "--duration", "60", "--format", "spans"])
            == 0
        )
        out = capsys.readouterr().out
        assert "transaction" in out and "committed" in out

    def test_summary_format(self, capsys):
        assert (
            main(["trace", "account", "--duration", "60", "--format", "summary"])
            == 0
        )
        out = capsys.readouterr().out
        assert "txn.commit" in out and "span(s)" in out

    def test_traces_the_optimistic_engine(self, capsys):
        run = ["account", "--protocol", "optimistic", "--duration", "60"]
        assert main(["trace", *run, "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "validation.success" in out and " 0 malformed" in out
        # An optimistic object holds no locks, so it has no lock table.
        assert main(["stats", *run, "--crash-rate", "0.05"]) == 0
        captured = capsys.readouterr()
        assert "txn.committed" in captured.out
        assert "(no active transactions hold locks)" in captured.out
        assert "locking engines only" in captured.err


class TestStats:
    def test_human_output(self, capsys):
        assert main(["stats", "account", "--duration", "80"]) == 0
        out = capsys.readouterr().out
        assert "txn.latency" in out
        assert "conflicts by operation pair" in out
        assert "compaction.horizon" in out
        assert "lock tables at the duration cutoff" in out
        assert "waits-for graph" in out

    def test_block_policy_shows_waits(self, capsys):
        assert (
            main(
                [
                    "stats",
                    "account",
                    "--duration",
                    "80",
                    "--wait-policy",
                    "block",
                    "--spans",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "lock.waits" in out
        assert "transaction" in out  # the spans table

    def test_json_output(self, capsys):
        import json

        assert main(["stats", "queue", "--duration", "40", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["txn.committed"] > 0
        assert "txn.latency" in snapshot["histograms"]
        assert "lock_tables" in snapshot and "waits_for" in snapshot
        assert any(
            name.startswith("compaction.horizon[") for name in snapshot["gauges"]
        )


class TestSimulateObservability:
    def test_verbose_prints_breakdowns(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "account",
                    "--protocol",
                    "hybrid",
                    "--duration",
                    "60",
                    "--verbose",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[hybrid]" in out
        assert "conflicts by operation pair" in out
        assert "compaction.horizon" in out

    def test_trace_file_written(self, tmp_path, capsys):
        target = tmp_path / "sim.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "queue",
                    "--protocol",
                    "hybrid",
                    "--duration",
                    "40",
                    "--trace-file",
                    str(target),
                ]
            )
            == 0
        )
        assert "trace written to" in capsys.readouterr().out
        assert target.exists() and target.read_text().strip()

    def test_trace_file_of_several_protocols_is_refused(self, tmp_path, capsys):
        # Their runs reuse transaction and object names: one file of two
        # runs could not be certified.
        target = tmp_path / "two.jsonl"
        argv = ["simulate", "account", "--duration", "20", "--trace-file", str(target),
                "--protocol", "hybrid", "commutativity"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "repro trace" in captured.err and not captured.out
        assert not target.exists()


class TestRecoverObservability:
    def seed_wal(self, tmp_path):
        wal_dir = tmp_path / "wals"
        assert (
            main(
                [
                    "simulate",
                    "account",
                    "--protocol",
                    "hybrid",
                    "--duration",
                    "40",
                    "--wal-dir",
                    str(wal_dir),
                ]
            )
            == 0
        )
        return wal_dir / "hybrid"

    def test_verbose_lists_replays(self, tmp_path, capsys):
        logdir = self.seed_wal(tmp_path)
        capsys.readouterr()
        assert main(["recover", str(logdir), "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "wal.replay" in out
        assert "site.recover" in out

    def test_trace_file_round_trips(self, tmp_path, capsys):
        logdir = self.seed_wal(tmp_path)
        target = tmp_path / "recovery.jsonl"
        assert (
            main(["recover", str(logdir), "--trace-file", str(target)]) == 0
        )
        from repro.obs import read_jsonl

        kinds = [event.kind for event in read_jsonl(str(target))]
        assert "wal.replay" in kinds
        assert kinds[-1] == "site.recover"

    def test_a_used_wal_dir_is_refused(self, tmp_path, capsys):
        logdir = self.seed_wal(tmp_path)
        before = (logdir / "wal.jsonl").read_text()
        capsys.readouterr()
        argv = ["simulate", "account", "--protocol", "hybrid", "--duration", "40"]
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--wal-dir", str(logdir.parent)])
        assert exited.value.code == 2
        assert "wal.jsonl is not empty" in capsys.readouterr().err
        assert (logdir / "wal.jsonl").read_text() == before


class TestRecover:
    def test_recovers_each_log_a_process_pool_wrote(self, tmp_path, capsys):
        # Each shard's log pins its stride; recover offers that stride
        # instead of refusing the log (it used to exit 1 on every one).
        from repro.server import ShardProcessPool

        pool = ShardProcessPool(2, tmp_path / "data")
        pool.start()
        try:
            names = {}
            for index in range(100):
                names.setdefault(pool.shard_of(f"Q{index}"), f"Q{index}")
            for home, name in names.items():
                pool.create_object(name, "Account")
                steps = [(name, "Credit", (home + 5,))]
                pool.shards[home].single({"op": "txn", "name": f"T{home}", "steps": steps})
            pool.shards[0].single({"op": "checkpoint"})   # read back below
        finally:
            pool.stop()
        capsys.readouterr()
        for home, name in sorted(names.items()):
            assert main(["recover", str(tmp_path / "data" / f"shard{home}")]) == 0
            out = capsys.readouterr().out
            assert ("+ checkpoint" in out) == (home == 0)
            assert [name, str(home + 5)] in [line.split() for line in out.splitlines()]


class TestCheck:
    def test_live_certification(self, capsys):
        assert main(["check", "account", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "certified hybrid atomic" in out
        assert "committed" in out

    def test_live_optimistic(self, capsys):
        assert (
            main(
                [
                    "check",
                    "account",
                    "--protocol",
                    "optimistic",
                    "--duration",
                    "40",
                ]
            )
            == 0
        )
        assert "certified hybrid atomic" in capsys.readouterr().out

    def test_offline_trace_file(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "queue",
                    "--protocol",
                    "hybrid",
                    "--duration",
                    "40",
                    "--trace-file",
                    str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["check", "--trace-file", str(target)]) == 0
        assert "certified hybrid atomic" in capsys.readouterr().out

    def test_json_verdict(self, capsys):
        import json

        assert main(["check", "queue", "--duration", "40", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["verdict"] == "clean"
        assert report["transactions"]["committed"] > 0

    def test_refuted_trace_exits_one(self, tmp_path, capsys):
        from repro.obs import JSONLSink, TraceEvent

        target = tmp_path / "bad.jsonl"
        with JSONLSink(str(target)) as sink:
            sink(TraceEvent(0.0, "txn.begin", {"transaction": "T1"}))
            sink(TraceEvent(1.0, "txn.abort", {"transaction": "T1"}))
            sink(
                TraceEvent(
                    2.0,
                    "txn.commit",
                    {"transaction": "T1", "timestamp": 1, "objects": []},
                )
            )
        assert main(["check", "--trace-file", str(target)]) == 1
        out = capsys.readouterr().out
        assert "REFUTED" in out
        assert "committed after aborting" in out

    def test_usage_errors(self, tmp_path, capsys):
        assert main(["check"]) == 2
        assert "need a workload" in capsys.readouterr().err
        assert (
            main(["check", "queue", "--trace-file", "whatever.jsonl"]) == 2
        )
        assert "not both" in capsys.readouterr().err
        assert (
            main(["check", "--trace-file", str(tmp_path / "missing.jsonl")])
            == 2
        )
        assert "no such trace file" in capsys.readouterr().err
        assert main(["check", "blob"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_simulate_with_check_flag(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "account",
                    "--protocol",
                    "hybrid",
                    "--duration",
                    "40",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[hybrid]" in out
        assert "certified hybrid atomic" in out


class TestStatsArgumentHandling:
    def test_needs_workload_or_connect(self, capsys):
        assert main(["stats"]) == 2
        assert "workload or --connect" in capsys.readouterr().err

    def test_rejects_both_workload_and_connect(self, capsys):
        assert main(["stats", "account", "--connect", "127.0.0.1:1"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_prometheus_requires_connect(self, capsys):
        assert main(["stats", "account", "--prometheus"]) == 2
        assert "--prometheus needs --connect" in capsys.readouterr().err

    def test_bad_connect_address(self, capsys):
        assert main(["stats", "--connect", "nonsense"]) == 2
        assert "bad --connect address" in capsys.readouterr().err

    def test_unreachable_server_exits_1(self, capsys):
        # Port 1 on localhost: connection refused, reported, not a crash.
        assert main(["stats", "--connect", "127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


class TestTopArgumentHandling:
    def test_bad_connect_address(self, capsys):
        assert main(["top", "--connect", "nonsense"]) == 2
        assert "bad --connect address" in capsys.readouterr().err

    def test_unreachable_server_exits_1(self, capsys):
        assert main(["top", "--connect", "127.0.0.1:1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_nonpositive_iterations_rejected(self, capsys):
        assert (
            main(["top", "--connect", "127.0.0.1:1", "--iterations", "0"]) == 2
        )
        assert "must be positive" in capsys.readouterr().err


class TestAnalyze:
    def make_trace(self, tmp_path):
        from repro.obs import JSONLSink, TraceBus

        path = tmp_path / "trace.jsonl"
        clock = [0.0]
        bus = TraceBus(clock=lambda: clock[0])
        sink = bus.subscribe(JSONLSink(str(path)))
        bus.emit("txn.begin", transaction="t1")
        clock[0] += 2.0
        bus.emit("txn.invoke", transaction="t1", obj="A", operation="Enq")
        bus.emit("txn.respond", transaction="t1", obj="A", result="ok")
        bus.emit("txn.commit", transaction="t1", timestamp=1)
        sink.close()
        return bus, path

    def test_postmortem_output(self, tmp_path, capsys):
        _, path = self.make_trace(tmp_path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "== postmortem ==" in out
        assert "1 committed" in out
        assert "no checker violations in trace" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        _, path = self.make_trace(tmp_path)
        assert main(["analyze", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["transactions"]["committed"] == 1
        assert report["slowest"][0]["transaction"] == "t1"

    def test_violation_trace_exits_1(self, tmp_path, capsys):
        from repro.obs import JSONLSink, TraceBus

        path = tmp_path / "bad.jsonl"
        bus = TraceBus(clock=lambda: 0.0)
        sink = bus.subscribe(JSONLSink(str(path)))
        bus.emit("check.violation", rule="r", txn="t1", obj="A")
        sink.close()
        assert main(["analyze", str(path)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "/no/such/trace.jsonl"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_empty_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["analyze", str(path)]) == 1
        assert "holds no events" in capsys.readouterr().err


class TestServe:
    """``repro serve`` as its own process: boot, serve, drain on SIGTERM,
    and leave a trace and a flight dump the other verbs read —
    over local shards and over shard processes."""

    @pytest.mark.parametrize(
        "shards",
        [
            pytest.param(["--workers", "2"], id="workers"),
            pytest.param(["--processes", "2", "--data-dir", "shards"], id="processes"),
        ],
    )
    def test_serves_drains_and_leaves_its_artifacts(self, shards, tmp_path, capsys):
        import os
        import signal
        import subprocess
        import sys

        import repro
        from repro.server import SyncClient

        trace, flight = tmp_path / "trace.jsonl", tmp_path / "flight"
        source = os.path.dirname(os.path.dirname(repro.__file__))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *shards, "--object", "a:Account",
             "--trace-file", str(trace), "--flight-dir", str(flight)],
            stdout=subprocess.PIPE, text=True, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": source},
        )
        try:
            banner = server.stdout.readline()
            assert banner.startswith("serving on 127.0.0.1:"), banner
            port = int(banner.split()[2].rpartition(":")[2])
            with SyncClient("127.0.0.1", port) as client:
                assert client.ping()["objects"] == ["a"]
                for amount in range(1, 31):
                    handle = client.begin()
                    client.invoke(handle, "a", "Credit", amount)
                    client.invoke(handle, "a", "Debit", 1)
                    client.commit(handle)
            server.send_signal(signal.SIGTERM)
            drained, _ = server.communicate(timeout=20)
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 0
        assert "drained: " in drained and " 30 committed" in drained

        if "--processes" in shards:
            # The kernel's events are in the children's trace files.
            from repro.obs import JSONLSink, read_jsonl

            events = read_jsonl(str(trace))
            for path in (tmp_path / "shards" / "traces").glob("*.jsonl"):
                events.extend(read_jsonl(str(path)))
            trace = tmp_path / "merged.jsonl"
            with JSONLSink(str(trace)) as sink:
                for event in sorted(events, key=lambda event: event.ts):
                    sink(event)
        assert main(["check", "--trace-file", str(trace)]) == 0
        assert main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        for section in ("== postmortem ==", "critical path:", "contention:",
                        "no checker violations in trace"):
            assert section in out
        assert "wire phases (median):" not in out
        assert [path.name for path in flight.glob("*drain*")]

    def test_a_shard_that_cannot_start_exits_2_with_its_cause(self, tmp_path, capsys):
        """Three processes over a two-shard data directory: shards 0 and 1
        refuse their logs' stride.  ``serve`` says why on one line, stops
        every child it started, and exits 2 — no traceback."""
        import multiprocessing

        from repro.server import ShardProcessPool

        data = tmp_path / "data"
        pool = ShardProcessPool(2, data)
        pool.start()
        pool.create_object("a", "Account")
        pool.stop()
        capsys.readouterr()
        argv = ["serve", "--processes", "3", "--data-dir", str(data), "--port", "0",
                "--flight-dir", str(tmp_path / "flight")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("serve: shard0 failed to start: RecoveryError:")
        assert "stride mismatch" in captured.err and captured.err.count("\n") == 1
        assert multiprocessing.active_children() == []
