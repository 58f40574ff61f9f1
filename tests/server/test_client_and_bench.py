"""The client libraries: sync (real cross-thread sockets) and asyncio.

(The file name is historical: the in-process load harness it also
covered is gone; the served benchmark is ``benchmarks/e2e``.)
"""

import asyncio

import pytest

from repro.server import AsyncClient, ReproServer, SyncClient, WireError


class TestSyncClient:
    def test_full_transaction_lifecycle(self, threaded_server):
        server = threaded_server
        with SyncClient(server.host, server.port) as client:
            assert client.ping()["workers"] == 2
            client.create("sync-acct", "Account")
            handle = client.begin()
            assert client.invoke(handle, "sync-acct", "Credit", 7) == "Ok"
            timestamp = client.commit(handle)
            assert isinstance(timestamp, int)

    def test_commit_retry_reuses_the_request_id(self, threaded_server):
        server = threaded_server
        with SyncClient(server.host, server.port) as client:
            client.create("retry-acct", "Account")
            handle = client.begin()
            client.invoke(handle, "retry-acct", "Credit", 1)
            request_id = client.next_id()
            first = client.commit(handle, request_id=request_id)
            # The "did my commit land?" retransmit: same id, same answer.
            second = client.commit(handle, request_id=request_id)
            assert first == second
            # A fresh id is a fresh request — and the handle is gone.
            with pytest.raises(WireError) as excinfo:
                client.commit(handle)
            assert excinfo.value.code == "UNKNOWN_TXN"

    def test_typed_errors_surface_as_wire_errors(self, threaded_server):
        server = threaded_server
        with SyncClient(server.host, server.port) as client:
            handle = client.begin()
            with pytest.raises(WireError) as excinfo:
                client.invoke(handle, "no-such-object", "Credit", 1)
            assert excinfo.value.code == "UNKNOWN_OBJECT"
            client.abort(handle)


class TestRefusedCommit:
    """A refused commit closed the handle on the server; the client must
    not keep its handle -> trace binding.  (The raw ``abort`` closes the
    handle behind the client's back, so the commit is ``UNKNOWN_TXN``.)"""

    def test_sync_client_drops_the_binding(self, threaded_server):
        server = threaded_server
        with SyncClient(server.host, server.port) as client:
            handle = client.begin()
            client.call("abort", {"transaction": handle}).raise_for_error()
            assert handle in client._traces.by_txn
            with pytest.raises(WireError) as excinfo:
                client.commit(handle)
            assert excinfo.value.code == "UNKNOWN_TXN"
            assert client._traces.by_txn == {}

    def test_async_client_drops_the_binding(self):
        async def scenario():
            server = ReproServer(workers=1, drain_grace=0.5)
            await server.start()
            client = await AsyncClient.connect(server.host, server.port)
            handle = await client.begin()
            raw = await client.call("abort", {"transaction": handle})
            raw.raise_for_error()
            assert handle in client._traces.by_txn
            with pytest.raises(WireError) as excinfo:
                await client.commit(handle)
            assert excinfo.value.code == "UNKNOWN_TXN"
            assert client._traces.by_txn == {}
            await client.aclose()
            await server.drain()

        asyncio.run(scenario())


class TestAsyncClientAfterHangUp:
    def test_call_raises_instead_of_waiting_for_ever(self):
        async def scenario():
            server = ReproServer(workers=1, drain_grace=0.5)
            await server.start()
            client = await AsyncClient.connect(server.host, server.port)
            await client.ping()
            await server.aclose()
            # The first call may still race the EOF (and be failed by
            # it); the second certainly finds the read loop finished,
            # and used to register a future nobody would ever resolve.
            for _ in range(2):
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.call("ping"), 2.0)
            await client.aclose()

        asyncio.run(scenario())
