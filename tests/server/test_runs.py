"""One shard call per run of a read, pinned on the driven core.

:meth:`~repro.server.core.ServerCore.feed` admits every frame of a read in
order and kicks a shard once per *run*: the consecutive frames routed to
that shard, up to a frame routed elsewhere, a frame answered at admission,
``min(BATCH_LIMIT, queue_limit)`` frames, a ``create`` or a multi-shard
completion, or the end of the read.  A local
shard or a site takes the run as one batch; a completion pipelined behind
its transaction's first invoke follows that invoke to its shard, on every
transport.
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


@pytest.mark.parametrize(
    "transport, batched",
    [("local", False), ("local", True), ("site", False), ("process", True)],
    ids=["local", "local-batched", "site", "process"],
)
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
    """An invoke answered without its shard leaves the handle unbound: the
    commit behind it is routed there and then decided inline."""
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


def test_a_run_ends_at_a_shard_switch_and_a_multi_shard_commit(drive):
    """Frames routed to another shard cut the run; so does a commit that
    runs 2PC, which answers before the frames read behind it."""
    driven = drive("local")
    conn = driven.connect()
    names = {}
    for index in range(100):
        names.setdefault(driven.pool.shard_of(f"Q{index}"), f"Q{index}")
    for name in names.values():
        driven.create(name)
    cross, single = conn.begin(), conn.begin()
    data = (
        invoke(10, cross, names[0])
        + invoke(11, cross, names[1])
        + invoke(12, single, names[0])
        + request_frame(13, "commit", {"transaction": cross})
        + invoke(14, single, names[0])
    )
    assert not driven.feed(conn, data)
    assert conn.order[-5:] == [10, 11, 12, 13, 14]
    assert isinstance(conn.answer(13)["result"]["timestamp"], int)
    assert [result(conn.answer(rid)) for rid in (10, 11, 12, 14)] == ["Ok"] * 4
    assert driven.core.rounds == 0 and not any(driven.core.pending)



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
