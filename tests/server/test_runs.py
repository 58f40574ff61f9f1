"""One shard call per run of a read, pinned on the driven core.

:meth:`~repro.server.core.ServerCore.feed` admits every frame of a read in
order and kicks a shard once per *run*: the consecutive frames routed to
that shard, up to a frame routed elsewhere, a frame answered at admission,
``min(BATCH_LIMIT, queue_limit)`` frames, a ``create`` or a multi-shard
completion, or the end of the read.  A local
shard or a site takes the run as one batch.  Admission plans each request
(its ops, its transaction's participants), so a completion pipelined
behind invokes of its transaction sees every shard they went to, on every
transport; a second completion pipelined behind one decides nothing.
"""

import math

import pytest

from repro.server.core import BATCH_LIMIT
from repro.server.protocol import request_frame
from tests.server.driven import result

INLINE = ["local", "site"]


def invoke(rid, handle, obj="A", operation="Credit", amount=1):
    params = {"transaction": handle, "obj": obj, "operation": operation,
              "args": (amount,)}
    return request_frame(rid, "invoke", params)


@pytest.mark.parametrize("transport", INLINE)
def test_a_read_of_invokes_from_n_transactions_is_one_shard_call(transport, drive):
    n = 8
    driven = drive(transport, objects=["A"])
    conn = driven.connect()
    handles = [conn.begin() for _ in range(n)]
    before = driven.calls
    rids = range(100, 100 + n)
    assert not driven.feed(
        conn, b"".join(invoke(rid, handle) for rid, handle in zip(rids, handles))
    )
    assert driven.calls - before == 1
    assert [result(conn.answer(rid)) for rid in rids] == ["Ok"] * n
    assert conn.order[-n:] == list(rids)
    assert not any(driven.core.pending)


@pytest.mark.parametrize("transport", INLINE)
@pytest.mark.parametrize("queue_limit", [64, 4])
def test_pipelined_invokes_in_one_read_are_never_busy(transport, queue_limit, drive):
    count = 100
    driven = drive(transport, objects=["A"], queue_limit=queue_limit)
    conn = driven.connect()
    handle = conn.begin()
    before = driven.calls
    rids = range(100, 100 + count)
    assert not driven.feed(conn, b"".join(invoke(rid, handle) for rid in rids))
    assert [result(conn.answer(rid)) for rid in rids] == ["Ok"] * count
    assert driven.core.stats["busy"] == 0
    # A run is cut at the smaller of the batch and the BUSY mark.
    runs = math.ceil(count / min(BATCH_LIMIT, queue_limit))
    assert driven.calls - before == runs
    assert conn.call("commit", transaction=handle)["ok"]


#: Every drive: inline (local, site) and one batch per FIFO (local, process).
DRIVES = pytest.mark.parametrize(
    "transport, batched",
    [("local", False), ("local", True), ("site", False), ("process", True)],
    ids=["local", "local-batched", "site", "process"],
)


@DRIVES
def test_a_commit_in_the_read_of_its_first_invoke_follows_it(
    transport, batched, drive
):
    """The commit is admitted before the invoke has run anywhere: it is
    routed behind the invoke, to its shard, not decided at admission."""
    driven = drive(transport, objects=["A"], batched=batched)
    conn = driven.connect()
    handle = conn.begin()
    commit = request_frame(51, "commit", {"transaction": handle})
    assert not driven.feed(conn, invoke(50, handle) + commit)
    assert result(conn.answer(50)) == "Ok"
    committed = conn.answer(51)
    assert committed["ok"] and committed["result"]["timestamp"] is not None
    assert handle not in conn.session.transactions
    assert driven.pool.shards[driven.pool.shard_of("A")].single(
        {"op": "snapshot", "obj": "A"}
    ) == {"ok": 1}


@pytest.mark.parametrize("transport", INLINE)
def test_a_completion_whose_invoke_never_ran_is_decided_without_the_shard(
    transport, drive
):
    """An invoke refused at admission leaves the handle unbound: the
    commit behind it is decided there too, without a shard."""
    driven = drive(transport, objects=["A"])
    conn = driven.connect()
    handle = conn.begin()
    bad = request_frame(
        50,
        "invoke",
        {"transaction": handle, "obj": "A", "operation": "Credit", "args": 1},
    )
    commit = request_frame(51, "commit", {"transaction": handle})
    assert not driven.feed(conn, bad + commit)
    assert result(conn.answer(50)) == "BAD_REQUEST"
    committed = conn.answer(51)
    assert committed["ok"] and committed["result"]["timestamp"] is None
    assert conn.order[-2:] == [50, 51]


@pytest.mark.parametrize("transport", INLINE)
def test_answers_at_admission_cut_the_run_and_keep_request_order(transport, drive):
    driven = drive(transport, objects=["A"])
    conn = driven.connect()
    first, second = conn.begin(), conn.begin()
    before = driven.calls
    data = (
        invoke(10, first)
        + invoke(11, second)
        + request_frame(12, "ping")
        + invoke(13, first)
        + request_frame(14, "begin")
        + invoke(15, second)
        + request_frame(16, "commit", {"transaction": first})
    )
    assert not driven.feed(conn, data)
    assert conn.order[-7:] == list(range(10, 17))
    # [10, 11] | ping | [13] | begin | [15, 16]
    assert driven.calls - before == 3


def one_account_per_shard(driven):
    """An Account on each of the two shards, by shard index."""
    names = {}
    for index in range(100):
        names.setdefault(driven.pool.shard_of(f"Q{index}"), f"Q{index}")
    for name in names.values():
        driven.create(name)
    return names


def credited(driven, name):
    """The committed balance of Account ``name``, read on its shard."""
    shard = driven.pool.shards[driven.pool.shard_of(name)]
    return shard.single({"op": "snapshot", "obj": name})["ok"]


@DRIVES
def test_a_run_ends_at_a_shard_switch_and_a_multi_shard_commit(
    transport, batched, drive
):
    """Frames routed to another shard cut the run; so does a commit that
    runs 2PC, which answers before the frames read behind it (inline) and
    over every shard its transaction's invokes were admitted to."""
    driven = drive(transport, batched=batched)
    names = one_account_per_shard(driven)
    conn = driven.connect()
    cross, single = conn.begin(), conn.begin()
    data = (
        invoke(10, cross, names[0])
        + invoke(11, cross, names[1])
        + invoke(12, single, names[0])
        + request_frame(13, "commit", {"transaction": cross})
        + invoke(14, single, names[0])
    )
    assert not driven.feed(conn, data)
    if not batched:
        assert conn.order[-5:] == [10, 11, 12, 13, 14]
    assert isinstance(conn.answer(13)["result"]["timestamp"], int)
    assert [result(conn.answer(rid)) for rid in (10, 11, 12, 14)] == ["Ok"] * 4
    assert driven.core.rounds == 0 and not any(driven.core.pending)
    assert conn.call("commit", transaction=single)["ok"]
    assert [credited(driven, names[0]), credited(driven, names[1])] == [3, 1]


@DRIVES
def test_a_commit_read_with_an_invoke_on_a_new_shard_commits_both(
    transport, batched, drive
):
    """A transaction already bound to shard 0 sends its first shard-1
    invoke and its commit in one read: the commit is a 2PC over both
    shards, and the invoke's effect is in it."""
    driven = drive(transport, batched=batched)
    names = one_account_per_shard(driven)
    conn = driven.connect()
    handle = conn.begin()
    assert result(conn.answer(conn.invoke(handle, names[0], "Credit", 1))) == "Ok"
    commit = request_frame(51, "commit", {"transaction": handle})
    assert not driven.feed(conn, invoke(50, handle, names[1]) + commit)
    assert result(conn.answer(50)) == "Ok"
    assert isinstance(conn.answer(51)["result"]["timestamp"], int)
    assert handle not in conn.session.transactions
    assert [credited(driven, names[0]), credited(driven, names[1])] == [1, 1]


@pytest.mark.parametrize("transport", INLINE)
def test_a_run_ends_at_a_create(transport, drive):
    """An invoke read behind the ``create`` of its object routes by the
    catalog entry the create made."""
    driven = drive(transport)
    conn = driven.connect()
    handle = conn.begin()
    create = request_frame(10, "create", {"name": "B", "adt": "Account"})
    assert not driven.feed(conn, create + invoke(11, handle, "B"))
    assert conn.answer(10)["ok"] and result(conn.answer(11)) == "Ok"


@DRIVES
def test_a_frame_read_behind_its_transactions_commit_is_refused(
    transport, batched, drive
):
    """A completion fixes its transaction's participants: an invoke read
    behind the commit — here the first touch of another shard — answers
    ``UNKNOWN_TXN`` and leaves nothing behind on that shard, whichever
    shard is served first."""
    driven = drive(transport, batched=batched)
    names = one_account_per_shard(driven)
    conn = driven.connect()
    handle = conn.begin()
    assert result(conn.answer(conn.invoke(handle, names[1], "Credit", 1))) == "Ok"
    commit = request_frame(50, "commit", {"transaction": handle})
    assert not driven.feed(conn, commit + invoke(51, handle, names[0]))
    assert isinstance(conn.answer(50)["result"]["timestamp"], int)
    assert result(conn.answer(51)) == "UNKNOWN_TXN"
    # No transaction was left holding a lock on shard 0.
    other = conn.begin()
    assert conn.answer(conn.invoke(other, names[0], "Debit", 1))["ok"]  # no CONFLICT
    assert [credited(driven, names[0]), credited(driven, names[1])] == [0, 1]


@pytest.mark.parametrize("transport", ["local", "process"])
def test_a_commit_retransmitted_while_in_flight_gets_its_decision(transport, drive):
    """A client retries a single-shard commit under the same request id
    while the original is out at its shard: the retry queues behind it
    and replays the cached decision."""
    driven = drive(transport, objects=["A"], batched=True)
    core, index = driven.core, driven.pool.shard_of("A")
    conn = driven.connect()
    handle = conn.begin()
    assert result(conn.answer(conn.invoke(handle, "A", "Credit", 1))) == "Ok"
    commit = request_frame(50, "commit", {"transaction": handle})
    core.feed(conn, commit, driven.now)
    ops = core.take(index)  # the original, out at the shard
    core.feed(conn, commit, driven.now)  # its retransmit
    core.settle(index, driven.pool.shards[index].call(ops), driven.now)
    driven.settle_all()
    original, retry = conn.replies[50]
    assert original == retry and isinstance(original["result"]["timestamp"], int)
    assert credited(driven, "A") == 1


@DRIVES
@pytest.mark.parametrize("second", ["abort", "retry"])
def test_a_second_completion_read_behind_a_commit_decides_nothing(
    second, transport, batched, drive
):
    """A single-shard transaction's commit and a second completion in one
    read — its abort under a new id, or the commit again under its own:
    the commit decides it, and the second, reaching the shard after the
    handle closed, answers the cached ack (the retry) or ``UNKNOWN_TXN``
    (the abort) and is not counted."""
    driven = drive(transport, objects=["A"], batched=batched)
    conn = driven.connect()
    handle = conn.begin()
    assert result(conn.answer(conn.invoke(handle, "A", "Credit", 1))) == "Ok"
    commit = request_frame(50, "commit", {"transaction": handle})
    if second == "retry":
        assert not driven.feed(conn, commit + commit)
        original, retry = conn.replies[50]
        assert original == retry
    else:
        abort = request_frame(51, "abort", {"transaction": handle})
        assert not driven.feed(conn, commit + abort)
        assert result(conn.answer(51)) == "UNKNOWN_TXN"
    assert isinstance(conn.replies[50][0]["result"]["timestamp"], int)
    stats = driven.core.stats
    assert (stats["transactions_committed"], stats["transactions_aborted"]) == (1, 0)
    assert credited(driven, "A") == 1
