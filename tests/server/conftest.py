"""Served deployments for the server tests: two shards per transport, for
tests that run one body over all of them, and a server on a thread of its
own for blocking clients."""

import asyncio
import threading

import pytest

from repro.sim import Site
from repro.recovery import MemoryWAL
from repro.server import ReproServer, ShardProcessPool
from repro.server.engine import ShardSet


@pytest.fixture
def serve_over(tmp_path):
    """``await serve_over(transport, objects=(), **kwargs)``: a started
    :class:`ReproServer` over two shards behind ``transport`` — ``"local"``
    engines, ``"process"`` children or simulated ``"site"`` hosts (each
    with a log, so a killed one can be respawned) — holding an Account
    for each name in ``objects``, created before the server starts.  A
    traced server's process shards trace too (``shard.trace_paths``)."""

    async def start(transport, objects=(), **kwargs):
        kwargs.setdefault("drain_grace", 0.5)
        if transport == "local":
            kwargs["workers"] = 2
        elif transport == "process":
            kwargs["pool"] = ShardProcessPool(
                2,
                tmp_path / "data",
                trace_dir=tmp_path / "traces" if "tracer" in kwargs else None,
            )
        else:
            kwargs["pool"] = ShardSet(
                [Site(index, 2, wal=MemoryWAL()) for index in range(2)]
            )
        server = ReproServer(**kwargs)
        if objects:
            server.pool.start()  # process shards: up, to take the creates
        for name in objects:
            server.create_object(name, "Account")
        await server.start()
        return server

    return start


@pytest.fixture
def threaded_server():
    """A live server over two local shards on its own event-loop thread
    (SyncClient's shape), drained afterwards."""
    box = {}
    ready = threading.Event()

    def runner():
        async def main():
            server = ReproServer(workers=2, drain_grace=1.0)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(timeout=5)
    try:
        yield box["server"]
    finally:
        asyncio.run_coroutine_threadsafe(
            box["server"].drain(), box["loop"]
        ).result(timeout=5)
        thread.join(timeout=5)


@pytest.fixture
def hold():
    """``entered, release = hold(shard, kind=None)``: the worker of process
    shard ``shard`` holds its next batch — the next one carrying an op of
    ``kind``, when given — before sending it, until ``release.set()``;
    ``entered`` is set once it holds.  Gates the worker's pipe call
    (``ShardProcess.acall``, the pipe's one user while serving), once."""

    def gate(shard, kind=None):
        acall = shard.acall
        entered, release = asyncio.Event(), asyncio.Event()

        async def held(ops):
            if kind is None or any(op["op"] == kind for op in ops):
                shard.acall = acall
                entered.set()
                await release.wait()
            return await acall(ops)

        shard.acall = held
        return entered, release

    return gate
