"""One served run: scratch space, set-up, measured window, oracle,
crash and recovery, teardown.

Everything the benchmark writes goes under ``<checkout>/.bench_build/e2e``
(bytecode cache, per-run data/flight/trace directories); per-run
directories are removed on every exit path.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.server import SyncClient

import oracle
from loadgen import Effect, LoadGenerator, WindowResult
from plans import ENQ_STRIDE, QUEUE_SEED_ITEMS, Workload, build_plans, cross_shard
from serverproc import REPO_ROOT, SRC_DIR, BenchError, ServerTree, server_env
from spin import Timeline

SCRATCH = REPO_ROOT / ".bench_build" / "e2e"
PYCACHE = SCRATCH / "pycache"

#: ``loadgen.cpu_share`` above this means the generator, not the server,
#: set the pace: the run is invalid.  The generator has a CPU to itself
#: (see :func:`place`), so this is how much of *its own* core it may use.
MAX_LOADGEN_CPU_SHARE = 0.75

_ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def place(workload: Workload) -> Optional[Set[int]]:
    """Pin this process for ``workload`` and return the server tree's
    CPUs: the first allowed CPU is the server's, the second the
    generator's - unless the workload colocates them.  Left to itself
    the scheduler sometimes stacks both on one CPU and sometimes does
    not, which moved ``solo-latency`` p50 from 0.8 to 1.8 ms between
    otherwise identical runs.  With one CPU nothing is pinned."""
    if len(_ALLOWED_CPUS) < 2:
        return None
    server = {_ALLOWED_CPUS[0]}
    os.sched_setaffinity(0, server if workload.colocate else {_ALLOWED_CPUS[1]})
    return server


def place_alone() -> None:
    """Pin this process to the generator's CPU (the layer run's home:
    nothing else of the benchmark runs there)."""
    if len(_ALLOWED_CPUS) >= 2:
        os.sched_setaffinity(0, {_ALLOWED_CPUS[1]})


def prepare_build() -> None:
    """Byte-compile ``src/`` into the scratch cache (the "build"), so the
    first server start of a checkout costs what every later one does."""
    PYCACHE.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC_DIR)],
        env=server_env(PYCACHE),
        check=True,
        stdout=subprocess.DEVNULL,
    )


class Spinner:
    """The calibration helper (``spin.py``): one per run, on the server's
    CPU, sampling the box's speed for as long as the run lasts."""

    def __init__(self, rundir: Path):
        self._path = rundir / "spins.txt"
        cpu = str(_ALLOWED_CPUS[0]) if len(_ALLOWED_CPUS) >= 2 else "-"
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spin.py")), cpu, str(self._path)]
        )

    def timeline(self, origin: float = 0.0) -> Timeline:
        """Every sample so far, on a timeline whose buckets start at
        ``origin``."""
        timeline = Timeline(origin)
        if self._path.exists():
            for line in self._path.read_text().splitlines():
                at, spin_s = line.split()
                timeline.add(float(at), float(spin_s))
        return timeline

    def ref_seconds(self, start: float, end: float) -> float:
        """The wall interval ``[start, end]`` at reference speed.  Waits
        for a sample taken after ``end`` so the interval is covered."""
        deadline = time.perf_counter() + 5.0
        while True:
            timeline = self.timeline(start)
            if timeline.samples and timeline.samples[-1][0] >= end:
                return timeline.ref_interval(start, end)
            if self._process.poll() is not None or time.perf_counter() > deadline:
                raise BenchError("the spin helper stopped sampling")
            time.sleep(0.02)

    def __enter__(self) -> "Spinner":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self._process.kill()
        self._process.wait()


class RunDir:
    """A per-run directory that always goes away."""

    def __init__(self, label: str):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        self.path = SCRATCH / f"run-{os.getpid()}-{label}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir()

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *_exc: Any) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass
class Served:
    """A set-up server: process tree, address, and what set-up committed."""

    tree: ServerTree
    setup_s: float  # spawn to last set-up acknowledgement, wall seconds
    seeded: List[Tuple[Any, List[Effect]]] = field(default_factory=list)


def server_args(workload: Workload, rundir: Path, trace_file: Optional[Path]) -> List[str]:
    args = list(workload.server_args) + ["--flight-dir", str(rundir / "flight")]
    if workload.durable:
        args += ["--data-dir", str(rundir / "data")]
    if trace_file is not None:
        args += ["--trace-file", str(trace_file)]
    return args


def _all_ok(client: SyncClient, requests: Sequence[Tuple[str, Dict[str, Any]]]) -> None:
    for response in oracle.pipelined(client, requests):
        response.raise_for_error()


def set_up(
    workload: Workload, rundir: Path, trace_file: Optional[Path] = None
) -> Served:
    """Spawn ``repro serve`` and create (and seed) the workload's objects."""
    tree = ServerTree(
        server_args(workload, rundir, trace_file), rundir, PYCACHE, place(workload)
    )
    spawned = time.perf_counter()
    tree.start()
    try:
        seeded: List[Tuple[Any, List[Effect]]] = []
        with SyncClient(tree.host, tree.port) as client:
            objects = workload.objects
            _all_ok(
                client,
                [("create", {"name": name, "adt": adt}) for name, adt in objects],
            )
            queues = [name for name, adt in objects if adt == "FIFOQueue"]
            if queues:
                handle = client.begin()
                effects: List[Effect] = [
                    (name, "Enq", (ENQ_STRIDE * 999 + index * 64 + item,), "Ok")
                    for index, name in enumerate(queues)
                    for item in range(QUEUE_SEED_ITEMS)
                ]
                _all_ok(
                    client,
                    [
                        (
                            "invoke",
                            {
                                "transaction": handle,
                                "obj": obj,
                                "operation": operation,
                                "args": args,
                            },
                        )
                        for obj, operation, args, _result in effects
                    ],
                )
                seeded.append((client.commit(handle), effects))
        return Served(tree, time.perf_counter() - spawned, seeded)
    except BaseException:
        tree.close()
        raise


def timed_set_ups(
    workload: Workload, rundir: Path, spinner: Spinner, repeats: int
) -> List[float]:
    """Set up and tear down ``repeats`` times; reference seconds each."""
    results = []
    for number in range(repeats):
        sub = rundir / f"setup-{number}"
        sub.mkdir()
        started = time.perf_counter()
        served = set_up(workload, sub)
        served.tree.close()
        results.append(spinner.ref_seconds(started, started + served.setup_s))
        shutil.rmtree(sub, ignore_errors=True)
    return results


@dataclass
class Crash:
    """What the SIGKILL-and-restart leg observed."""

    in_doubt: int  # commits sent, never acknowledged
    in_doubt_accounts: int  # accounts found holding in-doubt credits
    unresolved_accounts: int  # accounts an in-doubt txn still locks
    acked_commits: int
    restart_s: float  # kill to first answered ping, wall seconds
    restart_ref_s: float  # the same at reference speed


@dataclass
class RunOutcome:
    window: WindowResult
    started_txns: int
    failed: Dict[str, int]
    #: The data dir right after the window: records, bytes, and the
    #: commits acknowledged so far that they belong to.
    wal_records: int = 0
    wal_bytes: int = 0
    wal_commits: int = 0
    crash: Optional[Crash] = None
    #: What the ``live_probe`` / ``read_trace`` hooks returned.
    live: Dict[str, Any] = field(default_factory=dict)
    trace_metrics: Dict[str, Any] = field(default_factory=dict)


def _wal_size(data_dir: Path) -> Tuple[int, int]:
    records = size = 0
    for log in data_dir.glob("shard*/wal.jsonl"):
        size += log.stat().st_size
        with open(log, "rb") as handle:
            records += sum(1 for _ in handle)
    return records, size


def _crash_and_recover(
    workload: Workload,
    rundir: Path,
    tree: ServerTree,
    generator: LoadGenerator,
    spinner: Spinner,
) -> Tuple[Crash, ServerTree]:
    """SIGKILL the whole tree under load, restart it on the same data
    directory, and hold the recovered state to the ledger."""
    killed_at = 0.0

    def crash() -> None:
        nonlocal killed_at
        tree.kill()
        killed_at = time.perf_counter()

    generator.run_until_crash(0.5, crash)
    ledger = generator.ledger
    restarted = ServerTree(
        server_args(workload, rundir, None), rundir, PYCACHE, tree.cpus
    )
    restarted.start()
    try:
        with SyncClient(restarted.host, restarted.port) as client:
            client.ping()
            restart_s = time.perf_counter() - killed_at
            model = oracle.replay(ledger, workload.objects)
            applied, unresolved = oracle.probe(client, model, ledger)
    except BaseException:
        restarted.close()
        raise
    return (
        Crash(
            in_doubt=len(ledger.in_doubt),
            in_doubt_accounts=applied,
            unresolved_accounts=unresolved,
            acked_commits=len(ledger.committed),
            restart_s=restart_s,
            restart_ref_s=spinner.ref_seconds(killed_at, killed_at + restart_s),
        ),
        restarted,
    )


def serve_and_measure(
    workload: Workload,
    seed: int,
    rundir: Path,
    spinner: Spinner,
    warmup_s: float,
    window_s: float,
    live_probe: Optional[Callable[..., Dict[str, Any]]] = None,
    read_trace: Optional[Callable[[Sequence[Path]], Dict[str, Any]]] = None,
) -> RunOutcome:
    """Fresh server, one window, the oracle, and - untraced durable
    workloads - a SIGKILL of the whole tree under load followed by a
    restart on the same data.  The (last) server is drained gracefully.

    The traced run's two legs pass a hook each.  With ``live_probe`` the
    window also samples in-band ``stats`` once a second, and
    ``live_probe(tree, workload, ledger, spinner)`` runs against the idle
    server after the oracle (what it commits it appends to the ledger).
    With ``read_trace`` the server runs under ``--trace-file``, the
    generator stamps the wire ``trace`` context, and ``read_trace`` gets
    the trace files once the drain has completed them."""
    traced = read_trace is not None
    plans = build_plans(workload, seed)
    trace_file = rundir / "serve_trace.jsonl" if traced else None
    served = set_up(workload, rundir, trace_file)
    trees = [served.tree]
    generator: Optional[LoadGenerator] = None
    try:
        tree = served.tree
        generator = LoadGenerator(
            tree.host,
            tree.port,
            workload,
            plans,
            tree.cpu_seconds,
            stamp_trace=traced,
            sample_stats=live_probe is not None,
            is_cross=cross_shard if workload.durable else None,
        )
        generator.ledger.committed.extend(served.seeded)
        window = generator.run(warmup_s, window_s)
        spinner.ref_seconds(window.started, window.ended)  # wait for coverage
        window.timeline = spinner.timeline(window.started)
        if window.cpu_share >= MAX_LOADGEN_CPU_SHARE:
            raise BenchError(
                f"load generator used {window.cpu_share:.2f} of a core "
                f"(limit {MAX_LOADGEN_CPU_SHARE}): it was the bottleneck"
            )
        outcome = RunOutcome(window, 0, {})
        if workload.durable:
            outcome.wal_records, outcome.wal_bytes = _wal_size(rundir / "data")
            outcome.wal_commits = len(generator.ledger.committed)
        model = oracle.replay(generator.ledger, workload.objects)
        with SyncClient(tree.host, tree.port) as client:
            oracle.probe(client, model, generator.ledger)
        if live_probe is not None:
            outcome.live = live_probe(tree, workload, generator.ledger, spinner)
        if workload.durable and not traced:
            outcome.crash, tree = _crash_and_recover(
                workload, rundir, tree, generator, spinner
            )
            trees.append(tree)
        outcome.started_txns = generator.started_txns
        outcome.failed = dict(generator.failed)
        tree.drain()
        if read_trace is not None:
            outcome.trace_metrics = read_trace(
                [trace_file, *sorted((rundir / "data" / "traces").glob("shard*.jsonl"))]
            )
        return outcome
    finally:
        if generator is not None:
            generator.close()
        for tree in trees:
            tree.close()
