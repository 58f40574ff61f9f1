"""Write-ahead log: encoding round-trips, checksums, torn writes, backends."""

import json
import os
import pathlib
import subprocess
import sys
import zlib
from fractions import Fraction

import pytest

from repro import obs
from repro.core import Invocation, Operation
from repro.core.compaction import NEG_INFINITY
from repro.recovery import (
    FileWAL,
    MemoryWAL,
    WalCorruption,
    abort_record,
    checkpoint_record,
    commit_record,
    create_record,
    decode_operation,
    decode_states,
    decode_value,
    encode_operation,
    encode_states,
    encode_value,
    meta_record,
    prepare_record,
)
from repro.recovery.wal import _encode_line


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            -3,
            1.5,
            "hello",
            (1, "T1"),
            (1, (2, 3)),
            [1, 2, [3]],
            frozenset({1, 2}),
            frozenset({(1, 2), (3, 4)}),
            {1, 2},
            Fraction(7, 3),
            NEG_INFINITY,
            ((), (1,), frozenset()),
        ],
    )
    def test_roundtrip(self, value):
        encoded = encode_value(value)
        assert decode_value(encoded) == value
        # The trace / wire codec walks the same tags with the same walker.
        assert obs.encode_value(value) == encoded
        assert obs.decode_value(encoded) == value

    def test_tuple_vs_list_distinguished(self):
        assert decode_value(encode_value((1, 2))) == (1, 2)
        assert decode_value(encode_value([1, 2])) == [1, 2]
        assert decode_value(encode_value((1, 2))) != [1, 2]

    def test_neg_infinity_identity(self):
        assert decode_value(encode_value(NEG_INFINITY)) is NEG_INFINITY

    def test_unencodable_rejected(self):
        # Strict at every depth — including what the trace codec tags
        # leniently (a dict as ``__d__``, anything else as ``__r__``).
        for value in (object(), {"k": 1}, (1, [object()]), frozenset({(1, b"x")})):
            with pytest.raises(TypeError):
                encode_value(value)
        assert obs.decode_value(obs.encode_value((1, {"k": (2,)}))) == (1, {"k": (2,)})

    def test_unknown_tag_rejected(self):
        for data in ({"__mystery__": 1}, {"__t__": [{"__d__": []}]}, {"__r__": "x"}):
            with pytest.raises(WalCorruption):
                decode_value(data)
        # ...which the trace codec reads as a pre-codec payload.
        assert obs.decode_value({"__mystery__": 1}) == {"__mystery__": 1}

    def test_operation_roundtrip(self):
        op = Operation(Invocation("Debit", (5,)), "Ok")
        assert decode_operation(encode_operation(op)) == op

    def test_states_roundtrip(self):
        states = frozenset({Fraction(10), Fraction(3, 2)})
        assert decode_states(encode_states(states)) == states

    def test_set_states_encode_to_the_same_bytes_under_any_hash_seed(self):
        # A Set state is a frozenset of strings, so a state-*set* is a
        # frozenset of frozensets: ordering it by ``repr`` followed hash
        # iteration, and the log / checkpoint bytes changed with the seed.
        script = (
            "import json\n"
            "from repro.adts.set import SetSpec, insert\n"
            "from repro.recovery import encode_states\n"
            "spec = SetSpec()\n"
            "words = (('pear', 'fig'), ('kiwi', 'plum', 'lime'), ('date', 'fig'))\n"
            "states = frozenset().union(*(\n"
            "    spec.run([insert(item) for item in items]) for items in words\n"
            "))\n"
            "assert len(states) == 3\n"
            "print(json.dumps(encode_states(states)))\n"
        )
        source = str(pathlib.Path(obs.__file__).parents[2])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": source, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("1", "2", "3")
        }
        assert len(outputs) == 1
        assert decode_states(json.loads(outputs.pop())) == frozenset(
            {
                frozenset({"pear", "fig"}),
                frozenset({"kiwi", "plum", "lime"}),
                frozenset({"date", "fig"}),
            }
        )

    def test_encoding_is_json_safe(self):
        record = commit_record(
            "T1",
            (3, "T1"),
            {"A": [Operation(Invocation("Credit", (5,)), "Ok")]},
        )
        assert json.loads(json.dumps(record)) == record


class TestRecords:
    def test_record_kinds(self):
        ops = {"A": [Operation(Invocation("Credit", (1,)), "Ok")]}
        assert meta_record("site", "S0")["kind"] == "meta"
        assert create_record("A", "Account", "hybrid", frozenset({0}))["kind"] == "create"
        assert prepare_record("T1", 4, ops)["kind"] == "prepare"
        assert commit_record("T1", (5, "T1"), ops)["kind"] == "commit"
        assert abort_record("T1")["kind"] == "abort"


def _reference_line(seq, record):
    """The line encoding before it cached its encoders: dump, reload, dump."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8"))
    return json.dumps({"seq": seq, "crc": crc, "rec": json.loads(body)}, sort_keys=True)


class TestLineEncoding:
    OPS = {
        "B": [Operation(Invocation("Deq", ()), "\u00e9t\u00e9")],
        "A": [
            Operation(Invocation("Credit", (Fraction(7, 3),)), "Ok"),
            Operation(Invocation("Debit", (2.5,)), ("Insufficient", None)),
        ],
    }

    @pytest.mark.parametrize(
        "record",
        [
            meta_record("site", "S0"),
            meta_record("shard", "S1", shard=1, shards=4),
            create_record("A", "FIFOQueue", "hybrid", frozenset({(1, 2), ()})),
            prepare_record("s1.t9", (4, "s1.t9"), OPS),
            commit_record("s1.t9", 12, OPS),
            commit_record("T1", NEG_INFINITY, {}),
            abort_record("T\u00fc"),
            checkpoint_record(
                {
                    "A": (7, (9, "T9"), frozenset({(1, 2), (3,)})),
                    "B": (NEG_INFINITY, NEG_INFINITY, frozenset({0, 1})),
                },
                floor=12,
                decided={"s2.t1": 11, "s1.t4": (5, "s1.t4")},
            ),
        ],
        ids=lambda record: record["kind"],
    )
    def test_every_record_kind_encodes_to_the_reference_bytes(self, record):
        for seq in (0, 7, 123456):
            assert _encode_line(seq, record) == _reference_line(seq, record)


def fill(wal, n=5):
    for i in range(n):
        wal.append(abort_record(f"T{i}"))


class TestMemoryWAL:
    def test_append_and_read_back(self):
        wal = MemoryWAL()
        fill(wal, 4)
        records = wal.records()
        assert len(records) == len(wal) == 4
        assert [r["txn"] for r in records] == ["T0", "T1", "T2", "T3"]

    def test_torn_final_line_dropped(self):
        wal = MemoryWAL()
        fill(wal, 3)
        wal._store[-1] = wal._store[-1][: len(wal._store[-1]) // 2]
        assert len(wal.records()) == 2

    def test_mid_log_corruption_raises(self):
        wal = MemoryWAL()
        fill(wal, 3)
        line = json.loads(wal._store[1])
        line["rec"]["txn"] = "tampered"
        wal._store[1] = json.dumps(line)
        with pytest.raises(WalCorruption):
            wal.records()

    def test_sequence_gap_raises(self):
        wal = MemoryWAL()
        fill(wal, 4)
        del wal._store[1]  # the gap is not at the tail: must raise
        with pytest.raises(WalCorruption):
            wal.records()

    def test_rewrite_renumbers(self):
        wal = MemoryWAL()
        fill(wal, 5)
        kept = wal.records()[::2]
        wal.rewrite(kept)
        assert wal.records() == kept


class TestFileWAL:
    def test_persists_across_instances(self, tmp_path):
        wal = FileWAL(tmp_path)
        fill(wal, 3)
        reopened = FileWAL(tmp_path)
        assert len(reopened) == 3
        assert reopened.records() == wal.records()

    def test_append_after_reopen_continues_sequence(self, tmp_path):
        fill(FileWAL(tmp_path), 2)
        reopened = FileWAL(tmp_path)
        fill(reopened, 1)
        assert len(FileWAL(tmp_path).records()) == 3

    def test_torn_tail_tolerated(self, tmp_path):
        wal = FileWAL(tmp_path)
        fill(wal, 3)
        text = wal.path.read_text()
        wal.path.write_text(text[: len(text) - 20])
        assert len(FileWAL(tmp_path).records()) == 2

    @pytest.mark.parametrize("cut", [20, 1])
    def test_append_after_a_torn_tail_continues_from_the_good_prefix(
        self, tmp_path, cut
    ):
        # cut=20 tears the last record mid-line; cut=1 takes only its
        # terminator (the record itself is whole and must be kept).
        wal = FileWAL(tmp_path)
        fill(wal, 3)
        wal.close()
        size = wal.path.stat().st_size
        os.truncate(wal.path, size - cut)
        reopened = FileWAL(tmp_path)
        good = len(reopened.records())
        assert good == len(reopened) == (2 if cut == 20 else 3)
        assert reopened.append(abort_record("N0")) == good      # next seq
        assert reopened.append(abort_record("N1")) == good + 1
        # One fsync to cut the fragment off, one per append.
        assert reopened.syncs == (3 if cut == 20 else 2)
        reopened.close()
        # The second restart reads prefix + new records, in sequence (it
        # raised WalCorruption when the append landed after the fragment).
        names = [record["txn"] for record in FileWAL(tmp_path).records()]
        assert names == [f"T{i}" for i in range(good)] + ["N0", "N1"]

    def test_mid_file_corruption_is_never_trimmed(self, tmp_path):
        wal = FileWAL(tmp_path)
        fill(wal, 3)
        wal.close()
        lines = wal.path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:-20] + "\n"
        wal.path.write_text("".join(lines))
        reopened = FileWAL(tmp_path)
        reopened.append(abort_record("N0"))
        assert reopened.path.read_text().startswith("".join(lines))
        with pytest.raises(WalCorruption):
            FileWAL(tmp_path).records()

    def test_rewrite_is_atomic_replacement(self, tmp_path):
        wal = FileWAL(tmp_path)
        fill(wal, 6)
        wal.rewrite(wal.records()[:2])
        assert len(FileWAL(tmp_path).records()) == 2
        assert not wal.path.with_suffix(".tmp").exists()
