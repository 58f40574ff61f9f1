"""Served deployments for the server tests: two shards per transport, for
tests that run one body over all of them — behind a socket server or a
driven core — and a server on a thread of its own for blocking clients."""

import asyncio
import threading

import pytest

from repro.sim import Site
from repro.recovery import MemoryWAL
from repro.server import ReproServer, ShardDown, ShardProcessPool
from repro.server.engine import ShardSet
from tests.server.driven import Driven, shards


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
    """``entered, release = hold(shard, kind=None)``: process shard
    ``shard``'s next posted batch — the next one carrying an op of
    ``kind``, when given — is held back instead of sent, until
    ``release.set()``; ``entered`` is set once it is held.  Gates the
    post (``ShardProcess.post``, which the event loop sends a batch
    with), once.  The held batch is out meanwhile: the shard's FIFO
    queues behind it.  A child that dies while it is held settles it
    (its EOF), and it is dropped; one whose death its release meets
    (``ShardDown``) leaves it to the reader's EOF, as a batch the child
    died under."""

    sends = []  # the held batches' send tasks, referenced until the end

    def gate(shard, kind=None):
        post = shard.post
        entered, release = asyncio.Event(), asyncio.Event()

        async def send(ops, incarnation):
            await release.wait()
            if shard.posted and shard.incarnation == incarnation:
                try:
                    post(ops)
                except ShardDown:
                    pass  # still posted: the reader's EOF settles it

        def held(ops):
            if kind is not None and not any(op["op"] == kind for op in ops):
                return post(ops)
            del shard.post
            shard.posted = True
            entered.set()
            sends.append(asyncio.ensure_future(send(ops, shard.incarnation)))

        shard.post = held
        return entered, release

    return gate


@pytest.fixture
def drive(tmp_path):
    """``drive(transport, objects=(), tracer=None, batched=None, **kwargs)``:
    a driven core (``tests/server/driven.py``) over two shards behind
    ``transport``, an Account per name in ``objects``; process shards are
    served one batch per FIFO (``batched`` overrides that) and stopped
    afterwards.  ``kwargs`` go to the core (``queue_limit=``)."""
    pools = []

    def start(transport, objects=(), tracer=None, batched=None, **kwargs):
        pool = shards(transport, tmp_path, tracer)
        pools.append(pool)
        if batched is None:
            batched = transport == "process"
        driven = Driven(pool, tracer=tracer, batched=batched, **kwargs)
        for name in objects:
            driven.create(name)
        return driven

    yield start
    for pool in pools:
        pool.stop()
