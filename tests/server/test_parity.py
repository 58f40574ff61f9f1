"""Answer parity: one body, three transports, one table of answers.

The engine's exception → code ladder is the only one in the package and
the 2PC decision procedure is written once, so a request must get the
*same* answer whether the shard is a local engine, a child process or a
simulated site.  Each case runs over a real socket against all three.
"""

import asyncio

import pytest

from repro.server import AsyncClient, WireError

#: request label -> what every transport must answer.
EXPECTED = {
    "Credit()": "BAD_REQUEST",
    "Credit(1, 2)": "BAD_REQUEST",
    "Enq()": "BAD_REQUEST",
    "Credit([25])": "INTERNAL",
    "unknown object": "UNKNOWN_OBJECT",
    "unknown handle": "UNKNOWN_TXN",
    "commit, new id, closed handle": "UNKNOWN_TXN",
    "cross-shard transfer": "committed on the primary's stride",
    "cross-shard commit, participant lost it": "NO_VOTE",
}


async def _code(awaitable):
    with pytest.raises(WireError) as caught:
        await awaitable
    return caught.value.code


@pytest.mark.parametrize("transport", ["local", "process", "site"])
def test_both_transports_answer_the_same_codes(transport, serve_over):
    async def scenario():
        server = await serve_over(transport)
        client = await AsyncClient.connect(server.host, server.port)
        await client.create("acct", "Account")
        await client.create("queue", "FIFOQueue")
        home, away = server.pool.shard_of("acct"), server.pool.shard_of("queue")
        assert home != away                     # the names split the shards
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
        # One transaction on both shards: presumed-abort 2PC on commit.
        transfer = await client.begin()
        await client.invoke(transfer, "acct", "Debit", 2)
        await client.invoke(transfer, "queue", "Enq", 2)
        decided, _ = await client.commit(transfer)
        assert decided > timestamp and decided % 2 == home
        codes["cross-shard transfer"] = "committed on the primary's stride"
        # ... and refused when a participant lost the transaction.
        lost = await client.begin()
        await client.invoke(lost, "acct", "Credit", 1)
        await client.invoke(lost, "queue", "Enq", 3)
        server.pool.shards[away].single({"op": "abort", "txn": lost})
        codes["cross-shard commit, participant lost it"] = await _code(
            client.commit(lost)
        )
        assert server.pool.shards[home].single({"op": "snapshot", "obj": "acct"}) == {
            "ok": 3
        }
        assert server.stats["transactions_committed"] == 2
        assert server.stats["errors"] >= 1          # the INTERNAL was counted
        await client.aclose()
        await server.drain()
        return codes

    assert asyncio.run(scenario()) == EXPECTED
