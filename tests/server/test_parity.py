"""Error-code parity: one body, both transports, one table of answers.

The engine's exception → code ladder is the only one in the package, so
a malformed request must be refused with the *same* code whether the
shard is a local engine or a child process.  Each case runs over a real
socket against both.
"""

import asyncio

import pytest

from repro.server import AsyncClient, ReproServer, ShardProcessPool, WireError

#: request label -> the code every transport must answer.
EXPECTED = {
    "Credit()": "BAD_REQUEST",
    "Credit(1, 2)": "BAD_REQUEST",
    "Enq()": "BAD_REQUEST",
    "Credit([25])": "INTERNAL",
    "unknown object": "UNKNOWN_OBJECT",
    "unknown handle": "UNKNOWN_TXN",
    "commit, new id, closed handle": "UNKNOWN_TXN",
}


async def _code(awaitable):
    with pytest.raises(WireError) as caught:
        await awaitable
    return caught.value.code


@pytest.mark.parametrize("transport", ["local", "process"])
def test_both_transports_answer_the_same_codes(transport, tmp_path):
    async def scenario():
        if transport == "local":
            server = ReproServer(workers=2, drain_grace=0.5)
        else:
            server = ReproServer(
                pool=ShardProcessPool(2, tmp_path / "data"), drain_grace=0.5
            )
        await server.start()
        client = await AsyncClient.connect(server.host, server.port)
        await client.create("acct", "Account")
        await client.create("queue", "FIFOQueue")
        codes = {}
        txn = await client.begin()
        codes["Credit()"] = await _code(client.invoke(txn, "acct", "Credit"))
        codes["Credit(1, 2)"] = await _code(client.invoke(txn, "acct", "Credit", 1, 2))
        codes["Credit([25])"] = await _code(client.invoke(txn, "acct", "Credit", [25]))
        codes["unknown object"] = await _code(client.invoke(txn, "nope", "Credit", 1))
        codes["unknown handle"] = await _code(client.invoke("s9.t9", "acct", "Credit", 1))
        # None of the refusals cost the transaction its life.
        assert await client.invoke(txn, "acct", "Credit", 5) == "Ok"
        timestamp, response = await client.commit(txn)
        # A retransmitted commit id replays the decision; a new id does not.
        replay = await client.call("commit", {"transaction": txn}, response.id)
        assert replay.ok and replay.result == dict(response.result)
        codes["commit, new id, closed handle"] = await _code(client.commit(txn))
        other = await client.begin()
        codes["Enq()"] = await _code(client.invoke(other, "queue", "Enq"))
        await client.abort(other)
        assert server.stats["transactions_committed"] == 1
        assert server.stats["errors"] >= 1          # the INTERNAL was counted
        await client.aclose()
        await server.drain()
        return codes

    assert asyncio.run(scenario()) == EXPECTED
