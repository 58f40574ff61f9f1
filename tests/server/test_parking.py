"""A refused invocation waits for its lock holder, on every transport.

When a shard refuses an ``invoke`` with ``CONFLICT`` naming a holder that
is an open handle on the server and is not itself waiting, the server
parks the request until that handle closes, then re-executes it.  Every
case runs over local engines, child processes and simulated sites, and
certifies the served history.  A parked request gets exactly one reply:
its re-executed one, ``CONFLICT`` at the wait bound, or — when its own
handle is closed under it — ``SHUTTING_DOWN`` on a drain, ``SHARD_DOWN``
on a shard death, ``CONFLICT`` on its own completion and nothing on a
lost connection.
"""

import asyncio
import collections

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import AtomicityChecker, TraceBus, read_jsonl
from repro.recovery import MemoryWAL
from repro.server import AsyncClient, ReproServer, WireError
from repro.server import server as server_module
from repro.server.engine import ShardSet
from repro.server.protocol import FrameDecoder
from repro.sim import Site

TRANSPORTS = ["local", "process", "site"]


def traced():
    bus = TraceBus()
    events = []
    bus.subscribe(events.append)
    return bus, events


def certify(events, tmp_path):
    """The served history (process shards trace in files of their own,
    merged by timestamp) certified hybrid atomic; returns its kinds."""
    merged = list(events)
    for path in (tmp_path / "traces").glob("*.jsonl"):
        merged.extend(read_jsonl(str(path)))
    merged.sort(key=lambda event: event.ts)
    report = AtomicityChecker().replay(merged).report()
    assert report["verdict"] == "clean", report["violations"]
    return collections.Counter(event.kind for event in merged)


async def parked(client, count):
    """Wait until the server has ``count`` parked requests."""
    for _ in range(5000):
        if (await client.stats())["server"]["parked"] == count:
            return
        await asyncio.sleep(0.001)
    raise AssertionError(f"never {count} parked")


async def code(awaitable):
    with pytest.raises(WireError) as caught:
        await asyncio.wait_for(awaitable, 10)
    return caught.value.code


async def clients(server, count):
    return [await AsyncClient.connect(server.host, server.port) for _ in range(count)]


async def hold(client, obj="A"):
    """A transaction holding a Debit on ``obj`` (funded first)."""
    funding = await client.begin()
    await client.invoke(funding, obj, "Credit", 100)
    await client.commit(funding)
    holder = await client.begin()
    await client.invoke(holder, obj, "Debit", 1)
    return holder


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


@pytest.fixture
def serve(serve_over):
    """``serve_over``, with simulated sites that trace to the server's bus
    too, so every transport's kernel events reach the checker."""

    async def start(transport, objects=(), **kwargs):
        if transport != "site":
            return await serve_over(transport, objects, **kwargs)
        kwargs.setdefault("drain_grace", 0.5)
        tracer = kwargs["tracer"]
        sites = [Site(index, 2, wal=MemoryWAL(), tracer=tracer) for index in range(2)]
        server = ReproServer(pool=ShardSet(sites), **kwargs)
        for name in objects:
            server.create_object(name, "Account")
        await server.start()
        return server

    return start


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_a_refused_debit_waits_for_its_holder(transport, outcome, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus)
        first, second = await clients(server, 2)
        holder = await hold(first)
        waiter = await second.begin()
        debit = asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(first, 1)
        assert not debit.done()
        await getattr(first, outcome)(holder)
        result = await asyncio.wait_for(debit, 10)
        await second.commit(waiter)
        left = (await first.stats())["server"]["parked"]
        for client in (first, second):
            await client.aclose()
        await server.drain()
        return result, left, server.stats["transactions_aborted"]

    result, left, aborted = asyncio.run(scenario())
    assert (result, left) == ("Ok", 0)
    assert aborted == (outcome == "abort")
    kinds = certify(events, tmp_path)
    assert kinds["lock.conflict"] == kinds["lock.wait"] == 1


def test_a_request_never_waits_on_a_waiter(transport, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A", "B"], tracer=bus)
        first, second, third = await clients(server, 3)
        holder = await hold(first, "A")
        waiter = await hold(second, "B")  # holds B, then waits for A
        debit = asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(first, 1)
        refused = await third.begin()
        answer = await code(third.invoke(refused, "B", "Debit", 1))
        await third.abort(refused)
        await first.commit(holder)
        result = await asyncio.wait_for(debit, 10)
        await second.commit(waiter)
        for client in (first, second, third):
            await client.aclose()
        await server.drain()
        return answer, result

    assert asyncio.run(scenario()) == ("CONFLICT", "Ok")
    kinds = certify(events, tmp_path)
    assert (kinds["lock.conflict"], kinds["lock.wait"]) == (2, 1)


def test_the_wait_bound_answers_conflict(transport, serve, tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "WAIT_BOUND", 0.05)
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus)
        first, second = await clients(server, 2)
        holder = await hold(first)
        waiter = await second.begin()
        answer = await code(second.invoke(waiter, "A", "Debit", 2))
        left = (await first.stats())["server"]["parked"]
        await second.abort(waiter)
        await first.commit(holder)
        for client in (first, second):
            await client.aclose()
        await server.drain()
        return answer, left, server.waits.waiter_count()

    assert asyncio.run(scenario()) == ("CONFLICT", 0, 0)
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_holders_disconnect_wakes_its_waiters(transport, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus)
        first, second = await clients(server, 2)
        await hold(first)
        waiter = await second.begin()
        debit = asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(second, 1)
        await first.aclose()  # its open holder is aborted
        result = await asyncio.wait_for(debit, 10)
        await second.commit(waiter)
        await second.aclose()
        await server.drain()
        return result

    assert asyncio.run(scenario()) == "Ok"
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_waiters_disconnect_cancels_its_wait(transport, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus)
        first, second = await clients(server, 2)
        holder = await hold(first)
        waiter = await second.begin()
        asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(first, 1)
        await second.aclose()
        await parked(first, 0)
        waiting = server.waits.waiter_count()
        timestamp, _ = await first.commit(holder)
        await first.aclose()
        await server.drain()
        return waiting, isinstance(timestamp, int), server.stats["transactions_aborted"]

    assert asyncio.run(scenario()) == (0, True, 1)
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_drain_answers_parked_requests(transport, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus, drain_grace=0.05)
        first, second = await clients(server, 2)
        await hold(first)
        waiter = await second.begin()
        debit = asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(first, 1)
        report = await server.drain()
        answer = await code(debit)
        for client in (first, second):
            await client.aclose()
        return answer, report["aborted"], len(server._parked)

    assert asyncio.run(scenario()) == ("SHUTTING_DOWN", 2, 0)
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_waiters_own_completion_answers_its_parked_invoke(transport, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus)
        first, second = await clients(server, 2)
        holder = await hold(first)
        waiter = await second.begin()
        debit = asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(first, 1)
        await second.abort(waiter)  # pipelined behind its own parked invoke
        answer = await code(debit)
        await first.commit(holder)
        for client in (first, second):
            await client.aclose()
        await server.drain()
        return answer, len(server._parked)

    assert asyncio.run(scenario()) == ("CONFLICT", 0)
    assert certify(events, tmp_path)["lock.wait"] == 1


@pytest.mark.parametrize("transport", ["process", "site"])
def test_a_shard_death_answers_parked_requests(transport, serve, tmp_path):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, objects=["A"], tracer=bus)
        first, second = await clients(server, 2)
        holder = await hold(first)
        waiter = await second.begin()
        debit = asyncio.ensure_future(second.invoke(waiter, "A", "Debit", 2))
        await parked(first, 1)
        shard = server.pool.shards[server.pool.shard_of("A")]
        shard.crash_hard() if isinstance(shard, Site) else shard.kill()
        answers = [
            await code(first.invoke(holder, "A", "Debit", 1)),
            await code(debit),
        ]
        for client in (first, second):
            await client.aclose()
        await server.drain()
        return answers, len(server._parked)

    assert asyncio.run(scenario()) == (["SHARD_DOWN", "SHARD_DOWN"], 0)
    assert certify(events, tmp_path)["lock.wait"] == 1


def test_a_cross_shard_holder_wakes_its_waiters_when_2pc_decides(
    transport, serve, tmp_path
):
    bus, events = traced()

    async def scenario():
        server = await serve(transport, tracer=bus)
        first, second = await clients(server, 2)
        names = {}
        for index in range(100):
            names.setdefault(server.pool.shard_of(f"Q{index}"), f"Q{index}")
        for name in names.values():
            await first.create(name, "Account")
        holder = await hold(first, names[0])
        await first.invoke(holder, names[1], "Credit", 5)
        await first.invoke(holder, names[1], "Debit", 1)
        waiter = await second.begin()
        debit = asyncio.ensure_future(second.invoke(waiter, names[1], "Debit", 2))
        await parked(first, 1)
        timestamp, _ = await first.commit(holder)  # two-phase: both shards
        result = await asyncio.wait_for(debit, 10)
        await second.commit(waiter)
        for client in (first, second):
            await client.aclose()
        await server.drain()
        return isinstance(timestamp, int), result

    assert asyncio.run(scenario()) == (True, "Ok")
    assert certify(events, tmp_path)["lock.wait"] == 1


# -- one property: exactly one reply per admitted request -----------------

#: One transaction: (account, operation) steps on two hot accounts.
txn = st.lists(
    st.tuples(st.sampled_from(["H0", "H1"]), st.sampled_from(["Credit", "Debit", "Post"])),
    min_size=1,
    max_size=3,
)
scripts = st.lists(st.lists(txn, min_size=1, max_size=3), min_size=2, max_size=4)


def count_replies(server):
    """Reply frames the server writes, per (session, request id)."""
    counts = collections.Counter()
    for connection in server._connections:
        decoder, write = FrameDecoder(), connection.transport.write
        name = connection.session.name

        def counted(data, decoder=decoder, write=write, name=name):
            for body in decoder.feed_iter(data):
                counts[name, body.get("id")] += 1
            write(data)

        connection.transport.write = counted
    return counts


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scripts=scripts)
def test_every_admitted_request_gets_exactly_one_reply(scripts, monkeypatch):
    monkeypatch.setattr(server_module, "WAIT_BOUND", 0.05)
    bus, events = traced()

    async def run(client, script):
        for steps in script:
            handle = await client.begin()
            try:
                for obj, operation in steps:
                    await asyncio.wait_for(client.invoke(handle, obj, operation, 1), 10)
                await asyncio.wait_for(client.commit(handle), 10)
            except WireError as exc:
                assert exc.code == "CONFLICT", exc
                await client.abort(handle)

    async def scenario():
        server = ReproServer(workers=2, tracer=bus, drain_grace=0.5)
        for name in ("H0", "H1"):
            server.create_object(name, "Account")
        await server.start()
        connected = await clients(server, len(scripts))
        for client in connected:
            await client.ping()
        counts = count_replies(server)
        await asyncio.gather(*(run(c, s) for c, s in zip(connected, scripts)))
        left = (await connected[0].stats())["server"]["parked"]
        requests = {c.session.name: c.session.requests for c in server._connections}
        for client in connected:
            await client.aclose()
        await server.drain()
        return counts, requests, left

    counts, requests, left = asyncio.run(scenario())
    assert left == 0
    assert set(counts.values()) == {1}
    for name, number in requests.items():
        answered = sum(1 for session, _ in counts if session == name)
        assert answered == number - 1  # all but the ping before counting
    merged = sorted(events, key=lambda event: event.ts)
    report = AtomicityChecker().replay(merged).report()
    assert report["verdict"] == "clean", report["violations"]
