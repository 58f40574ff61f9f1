"""Launching, measuring and killing ``python -m repro serve`` as a
separate process tree.

The server runs in its own session, so one ``killpg`` reaches the parent
and every shard child; :meth:`ServerTree.close` is safe on every exit
path and waits until each process has ended.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

_BANNER = re.compile(r"serving on ([0-9.]+):(\d+)")
_TICK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce a valid result."""


def _proc_stat(pid: int) -> Optional[Tuple[int, float]]:
    """``(ppid, utime+stime seconds)`` of ``pid``, or None once it ended."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    fields = text[text.rindex(")") + 2 :].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def children_of(pid: int) -> List[int]:
    found = []
    for candidate in _all_pids():
        stat = _proc_stat(candidate)
        if stat is not None and stat[0] == pid:
            found.append(candidate)
    return found


def stray_servers() -> List[int]:
    """PIDs of any ``repro serve`` already running on this machine."""
    strays = []
    for pid in _all_pids():
        if pid == os.getpid():
            continue
        try:
            argv = Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")
        except (FileNotFoundError, ProcessLookupError):
            continue
        for index in range(len(argv) - 2):
            if argv[index : index + 3] == [b"-m", b"repro", b"serve"]:
                strays.append(pid)
                break
    return strays


def refuse_strays() -> None:
    """A leftover server would share the box and skew the run: fail
    loudly instead."""
    strays = stray_servers()
    if strays:
        raise BenchError(
            f"`repro serve` already running (pid {strays}); stop it and rerun"
        )


def server_env(pycache: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    # Keep bytecode out of src/: everything the benchmark writes stays
    # in its own scratch directory.
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


class ServerTree:
    """One ``repro serve`` process plus its shard children."""

    def __init__(
        self,
        args: Sequence[str],
        workdir: Path,
        pycache: Path,
        cpus: Optional[Set[int]] = None,
    ):
        self.args = list(args)
        self.workdir = workdir
        #: CPUs the whole tree is confined to (None: wherever it lands).
        self.cpus = cpus
        self._env = server_env(pycache)
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        self.child_pids: List[int] = []
        self._stderr = None

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and wait for the ``serving on host:port`` banner."""
        self._stderr = open(self.workdir / "server.stderr", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *self.args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=self.workdir,
            env=self._env,
            start_new_session=True,
        )
        if self.cpus:
            # Before the server forks its shard children: they inherit it.
            os.sched_setaffinity(self.process.pid, self.cpus)
        deadline = time.monotonic() + timeout
        buffered = b""
        fd = self.process.stdout.fileno()
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                self.close()
                raise BenchError(
                    f"server did not start: {self.stderr_tail() or buffered!r}"
                )
            if select.select([fd], [], [], min(remaining, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buffered += chunk
        match = _BANNER.search(buffered.decode("utf-8", "replace"))
        if match is None:
            self.close()
            raise BenchError(f"unexpected server banner: {buffered!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.child_pids = children_of(self.process.pid)

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> Tuple[float, float]:
        """``(parent, children)`` CPU seconds consumed so far."""
        parent = _proc_stat(self.pid)
        kids = [_proc_stat(pid) for pid in self.child_pids]
        return (
            parent[1] if parent else 0.0,
            sum(stat[1] for stat in kids if stat is not None),
        )

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return (self.workdir / "server.stderr").read_text()[-limit:]
        except OSError:
            return ""

    def drain(self, timeout: float = 30.0) -> str:
        """SIGTERM; returns what the server printed while draining."""
        self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.close()
            raise BenchError("server did not drain") from None
        self._wait_gone()
        if self.process.returncode != 0:
            raise BenchError(
                f"server exited {self.process.returncode}: {self.stderr_tail()}"
            )
        return out.decode("utf-8", "replace")

    def kill(self) -> None:
        """SIGKILL the whole tree (crash injection and last resort)."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._wait_gone()

    def _wait_gone(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while any(_proc_stat(pid) is not None for pid in self.child_pids):
            if time.monotonic() > deadline:
                raise BenchError(f"shard children {self.child_pids} outlived kill")
            time.sleep(0.01)

    def close(self) -> None:
        """Idempotent teardown for ``finally`` blocks."""
        if self.process is not None:
            self.kill()
            if self.process.stdout is not None:
                self.process.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
