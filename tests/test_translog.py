"""Transparency log tests.

Roots are checked against a naive oracle that re-parses the raw records file
with struct and rebuilds the tree recursively from hashlib alone, so these
tests do not trust the kernels the log itself uses.  Proofs and historical
roots are compared byte for byte with the recursive RFC 9162 oracles of
``test_kernels``.
"""

import bisect
import contextlib
import errno
import hashlib
import io
import itertools
import json
import os
import random
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from hypothesis import strategies as st
from test_kernels import oracle_leaf, oracle_path, oracle_root

from manifestd import translog

from manifestd import _kernels
from manifestd.errors import EncodingError, OutOfRange, StorageError
from manifestd.manifest import Manifest, ManifestDigest, digest
from manifestd.translog import (
    CHECKPOINTS_NAME,
    LEAVES_NAME,
    MAX_RECORD_BYTES,
    OFFSETS_NAME,
    RECORDS_NAME,
    LogEntry,
    MerkleProof,
    MerkleRoot,
    ReopenReport,
    TransparencyLog,
    atomic_write_bytes,
    check_integrity,
    empty_root,
    verify_consistency,
    verify_inclusion,
)

_LEN = struct.Struct(">I")


def spec_record(index, digest_value, signature, key_id, appended_at):
    """One record as README "Log format" lays it out, built with struct alone.

    Big-endian: tag 1 (1 B), index (u64), appended_at (i64), the 32-byte
    digest, the signature's length (u32) and the signature, the key id's
    length (u32) and its UTF-8 bytes.
    """
    key = key_id.encode("utf-8")
    return (
        struct.pack(">BQq32sI", 1, index, appended_at, digest_value, len(signature))
        + signature
        + struct.pack(">I", len(key))
        + key
    )


def with_u32(record, at, value):
    """``record`` with the big-endian u32 at byte ``at`` replaced by ``value``."""
    return record[:at] + struct.pack(">I", value) + record[at + 4 :]


#: The record of README "Log format"'s example entry, byte for byte.
RECORD_VECTOR = bytes.fromhex(
    "01" "0000000000000003" "0000018bcfe56800"
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    "00000002" "abcd" "00000005" "6f702dc3a9"
)

#: A record the layout tests change, and where its two lengths sit.
GOOD_RECORD = spec_record(12, bytes.fromhex("ab12" * 16), b"\xab\xcd", "kA", 5)
_SIGNED_AT = 1 + 8 + 8 + 32
_KEYED_AT = _SIGNED_AT + _LEN.size + 2

#: The framed length of every record ``fill`` appends: a 16-byte signature
#: and a 2-byte key id.
FILL_FRAMED = _LEN.size + len(spec_record(0, bytes(32), b"\x01\x02" * 8, "k0", 0))

#: An entry count that test sizes sit around: the records ``fill`` writes
#: that one default read of ``log.records`` holds whole, so sizes next to it
#: put the end of a read next to a record boundary.
SPAN = translog._CHUNK // FILL_FRAMED

#: Bytes per read of ``log.records`` that tests patch in as ``translog._CHUNK``:
#: the small ones put a read boundary next to every entry.
CHUNKS = (7, 64, 200, translog._CHUNK)


def naive_records(directory):
    """Parse the records file with no help from the package."""
    data = (directory / RECORDS_NAME).read_bytes()
    records, pos = [], 0
    while pos < len(data):
        (length,) = _LEN.unpack_from(data, pos)
        pos += _LEN.size
        records.append(data[pos : pos + length])
        pos += length
    return records


def naive_offsets(directory):
    """What ``log.offsets`` holds for the records file: each record's end, 8 bytes little-endian."""
    ends, end = [], 0
    for record in naive_records(directory):
        end += _LEN.size + len(record)
        ends.append(struct.pack("<Q", end))
    return b"".join(ends)


def naive_root(records):
    def leaf(r):
        return hashlib.sha256(b"\x00" + r).digest()

    def node(hashes):
        if len(hashes) == 1:
            return hashes[0]
        k = 1
        while k * 2 < len(hashes):
            k *= 2
        combined = b"\x01" + node(hashes[:k]) + node(hashes[k:])
        return hashlib.sha256(combined).digest()

    if not records:
        return hashlib.sha256(b"").digest()
    return node([leaf(r) for r in records])


def last_line(directory):
    """The last checkpoint line in ``directory``, as ``(size, root)``."""
    size, root_hex = (directory / CHECKPOINTS_NAME).read_text().splitlines()[-1].split(" ")
    return int(size), bytes.fromhex(root_hex)


def fill(log, n, start=0):
    roots = []
    for i in range(start, start + n):
        m = Manifest({"query": f"q{i}"}, {"system_prompt": "s"}, 1_000 + i, "t")
        idx, root = log.append(digest(m), b"\x01\x02" * 8, "k%d" % (i % 3), appended_at=2_000 + i)
        assert idx == i
        roots.append(root)
    return roots


def oracle_subproof(m, hashes, complete=True):
    """RFC 9162 SUBPROOF(m, D[n], b) over leaf hashes, recursively."""
    n = len(hashes)
    if m == n:
        return [] if complete else [oracle_root(hashes)]
    k = 1
    while k * 2 < n:
        k *= 2
    if m <= k:
        return oracle_subproof(m, hashes[:k], complete) + [oracle_root(hashes[k:])]
    return oracle_subproof(m - k, hashes[k:], False) + [oracle_root(hashes[:k])]


class TestAppendAndRoots:
    def test_empty_log(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            assert log.size == 0
            assert log.current_root() == empty_root()
            assert log.current_root().value == hashlib.sha256(b"").digest()
        assert (tmp_path / CHECKPOINTS_NAME).read_bytes() == b""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 20, 33])
    def test_root_matches_naive_rebuild(self, tmp_path, n):
        with TransparencyLog(tmp_path) as log:
            fill(log, n)
            expected = naive_root(naive_records(tmp_path))
            assert log.current_root().value == expected
            assert log.current_root().tree_size == n

    def test_last_line_matches_naive_rebuild(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 17)
            assert last_line(tmp_path) == (17, naive_root(naive_records(tmp_path)))

    def test_intermediate_roots_match_prefix_rebuilds(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            roots = fill(log, 12)
            records = naive_records(tmp_path)
            for k in range(1, 13):
                assert roots[k - 1].value == naive_root(records[:k])
                assert log.root_at(k).value == naive_root(records[:k])
            assert log.root_at(0) == empty_root()

    def test_checkpoint_file_has_one_line_per_append(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            roots = fill(log, 5)
            lines = (tmp_path / CHECKPOINTS_NAME).read_text().splitlines()
            assert len(lines) == 5
            for i, line in enumerate(lines):
                assert line == f"{i + 1} {roots[i].hex}"

    def test_entry_round_trip(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 9)
            e = log.entry(4)
            assert e.index == 4
            assert e.key_id == "k1"
            assert e.appended_at == 2_004

    def test_record_round_trip_is_exact(self):
        m = Manifest({"q": "x"}, {}, 1, "t")
        entry = LogEntry(3, digest(m), b"\xab\xcd", "key-9", 777)
        assert LogEntry.from_record(entry.to_record()) == entry
        with pytest.raises(StorageError):
            LogEntry.from_record(b"{not json")

    def test_the_pinned_record_vector(self):
        # README "Log format" pins the same bytes
        entry = LogEntry(
            3, ManifestDigest(bytes(range(32))), b"\xab\xcd", "op-\xe9", 1_700_000_000_000
        )
        assert entry.to_record() == RECORD_VECTOR
        assert LogEntry.from_record(RECORD_VECTOR) == entry
        assert spec_record(3, bytes(range(32)), b"\xab\xcd", "op-\xe9", 1_700_000_000_000) == (
            RECORD_VECTOR
        )

    def test_readme_pins_the_same_record_vector(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        block = readme.split("this 64-byte record (spaces between the fields):\n\n", 1)[1]
        assert bytes.fromhex(block.split("\n\n", 1)[0]) == RECORD_VECTOR

    @settings(max_examples=300)
    @given(
        key_id=st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
        index=st.integers(0, 2**64 - 1),
        appended_at=st.integers(-(2**63), 2**63 - 1),
        signature=st.binary(max_size=80),
    )
    def test_record_bytes_are_the_spec_bytes(self, key_id, index, appended_at, signature):
        # quotes, backslashes, control and non-ASCII characters included
        dig = ManifestDigest(bytes.fromhex("5e" * 32))
        expected = spec_record(index, dig.value, signature, key_id, appended_at)
        assert LogEntry(index, dig, signature, key_id, appended_at).to_record() == expected

    @pytest.mark.parametrize(
        "index, appended_at",
        [(2**64, 0), (-1, 0), (0, 2**63), (0, -(2**63) - 1)],
    )
    def test_a_field_out_of_range_is_not_encoded(self, index, appended_at):
        entry = LogEntry(index, ManifestDigest(bytes(32)), b"", "k", appended_at)
        with pytest.raises(EncodingError, match="does not fit"):
            entry.to_record()

    @settings(max_examples=300)
    @given(
        key_id=st.text(
            alphabet=st.one_of(
                st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001f600"]),
                st.characters(blacklist_categories=("Cs",)),
            )
        ),
        index=st.integers(0, 2**64 - 1),
        appended_at=st.integers(-(2**63), 2**63 - 1),
        signature=st.binary(max_size=80),
    )
    def test_decoding_inverts_encoding(self, key_id, index, appended_at, signature):
        dig = ManifestDigest(bytes.fromhex("a7" * 32))
        entry = LogEntry(index, dig, signature, key_id, appended_at)
        record = entry.to_record()
        decoded = LogEntry.from_record(record)
        assert decoded == entry
        assert type(decoded.manifest_digest) is ManifestDigest
        assert decoded.to_record() == record

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(b"", id="empty"),
            pytest.param(GOOD_RECORD[: _SIGNED_AT], id="head-cut"),
            pytest.param(GOOD_RECORD[: _SIGNED_AT - 16], id="digest-cut"),
            # the head and signature are whole; the key id's length is cut
            pytest.param(GOOD_RECORD[: _KEYED_AT + 2], id="key-length-cut"),
            pytest.param(GOOD_RECORD[:-1], id="one-byte-short"),
            pytest.param(GOOD_RECORD + b"\x00", id="trailing-byte"),
            pytest.param(b"\x00" + GOOD_RECORD[1:], id="tag-0"),
            pytest.param(b"\x02" + GOOD_RECORD[1:], id="tag-2"),
            pytest.param(b"{" + GOOD_RECORD[1:], id="tag-brace"),
            pytest.param(with_u32(GOOD_RECORD, _SIGNED_AT, 1), id="signature-length-short"),
            pytest.param(with_u32(GOOD_RECORD, _SIGNED_AT, 3), id="signature-length-long"),
            pytest.param(with_u32(GOOD_RECORD, _SIGNED_AT, 2**32 - 1), id="signature-length-max"),
            pytest.param(with_u32(GOOD_RECORD, _KEYED_AT, 1), id="key-length-short"),
            pytest.param(with_u32(GOOD_RECORD, _KEYED_AT, 3), id="key-length-long"),
            pytest.param(with_u32(GOOD_RECORD, _KEYED_AT, 2**32 - 1), id="key-length-max"),
            # the signature swallows the key id's length: the lengths no longer add up
            pytest.param(with_u32(GOOD_RECORD, _SIGNED_AT, 2 + _LEN.size), id="lengths-shifted"),
            pytest.param(GOOD_RECORD[:-2] + b"k\xff", id="invalid-utf8"),
            pytest.param(GOOD_RECORD[:-2] + b"\xc1\x81", id="overlong-utf8"),
            pytest.param(
                with_u32(GOOD_RECORD[:-2] + b"\xed\xa0\x80", _KEYED_AT, 3), id="encoded-surrogate"
            ),
            # U+1F600 as two encoded surrogates (CESU-8), not its one 4-byte form
            pytest.param(
                with_u32(GOOD_RECORD[:-2] + b"\xed\xa0\xbd\xed\xb8\x80", _KEYED_AT, 6),
                id="encoded-surrogate-pair",
            ),
            pytest.param(
                with_u32(GOOD_RECORD[:-2] + b"k\xf0\x9f\x98", _KEYED_AT, 4), id="utf8-sequence-cut"
            ),
            pytest.param(
                json.dumps(
                    {"index": 12, "manifest_digest": "ab12" * 16, "signature": "abcd",
                     "key_id": "kA", "appended_at": 5},
                    separators=(",", ":"),
                ).encode(),
                id="json-layout",
            ),
        ],
    )
    def test_only_the_record_layout_is_read(self, bad):
        assert LogEntry.from_record(GOOD_RECORD).to_record() == GOOD_RECORD
        with pytest.raises(StorageError):
            LogEntry.from_record(bad)

    @settings(max_examples=500)
    @given(data=st.data())
    def test_any_record_read_encodes_back_to_its_bytes(self, data):
        # one change anywhere in a record: it is refused, or it is another
        # record that encodes back to exactly these bytes
        blob = bytearray(GOOD_RECORD)
        at = data.draw(st.integers(0, len(blob)), label="at")
        kind = data.draw(st.sampled_from(["flip", "insert", "delete"]), label="kind")
        if kind == "flip" and at < len(blob):
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
        elif kind == "insert":
            blob.insert(at, data.draw(st.integers(0, 255), label="byte"))
        else:
            del blob[at : at + 1]
        try:
            entry = LogEntry.from_record(bytes(blob))
        except StorageError:
            return
        fields = (entry.index, entry.manifest_digest, entry.signature, entry.key_id,
                  entry.appended_at)
        assert LogEntry(*fields).to_record() == bytes(blob)

    def test_oversized_record_refused_before_write(self, tmp_path):
        m = Manifest({"q": "x"}, {}, 1, "t")
        with TransparencyLog(tmp_path) as log:
            with pytest.raises(StorageError):
                log.append(digest(m), b"\x00" * (MAX_RECORD_BYTES + 1), "k")
            # the refused append must leave no partial state behind
            assert log.size == 0
        assert check_integrity(tmp_path).ok

    def test_out_of_range_accessors(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 3)
            with pytest.raises(OutOfRange):
                log.entry(3)
            with pytest.raises(OutOfRange):
                log.leaf_hash(-1)
            with pytest.raises(OutOfRange):
                log.root_at(4)
            with pytest.raises(OutOfRange):
                log.prove_inclusion(0, 4)
            with pytest.raises(OutOfRange):
                log.prove_consistency(2, 4)


#: Every file of a log directory.
LOG_FILES = (RECORDS_NAME, CHECKPOINTS_NAME, LEAVES_NAME, OFFSETS_NAME)


def log_files(directory):
    """The bytes of the four log files, a missing one as None."""
    return {
        name: (directory / name).read_bytes() if (directory / name).exists() else None
        for name in LOG_FILES
    }


class TestAppendInputs:
    """``append`` writes only entries that read back exactly as given."""

    DIG = ManifestDigest(bytes.fromhex("3c" * 32))

    @pytest.mark.parametrize(
        "signature, key_id, appended_at",
        [
            pytest.param(b"\x01", "k", 1.5, id="float-time"),
            pytest.param(b"\x01", "k", 1.0, id="integral-float-time"),
            pytest.param(b"\x01", "k", True, id="true-time"),
            pytest.param(b"\x01", "k", False, id="false-time"),
            pytest.param(b"\x01", "k", "1", id="str-time"),
            pytest.param(b"\x01", 5, 1, id="int-key"),
            pytest.param(b"\x01", b"k", 1, id="bytes-key"),
            pytest.param(b"\x01", None, 1, id="no-key"),
            pytest.param(b"\x01", "lone \ud800 surrogate", 1, id="surrogate-key"),
            pytest.param(b"\x01", "\udfff", None, id="surrogate-key-now"),
            pytest.param(b"\x01", "k", 2**63, id="time-above-i64"),
            pytest.param(b"\x01", "k", -(2**63) - 1, id="time-below-i64"),
            pytest.param("01", "k", 1, id="str-signature"),
            pytest.param(bytearray(b"\x01"), "k", 1, id="bytearray-signature"),
            pytest.param(None, "k", 1, id="no-signature"),
        ],
    )
    def test_refused_entry_leaves_the_log_unchanged(self, tmp_path, signature, key_id, appended_at):
        with TransparencyLog(tmp_path) as log:
            fill(log, 3)
        before = log_files(tmp_path)
        with TransparencyLog(tmp_path) as log:
            root = log.current_root()
            with pytest.raises(EncodingError):
                log.append(self.DIG, signature, key_id, appended_at=appended_at)
            assert log.size == 3 and log.current_root() == root
        assert log_files(tmp_path) == before
        with TransparencyLog(tmp_path) as log:
            assert log.append(self.DIG, b"\x01", "k", appended_at=4)[0] == 3
        assert check_integrity(tmp_path).ok

    @pytest.mark.parametrize(
        "dig",
        [
            pytest.param(bytes(32), id="raw-bytes"),
            pytest.param("3c" * 32, id="hex-str"),
            pytest.param(None, id="none"),
        ],
    )
    def test_refused_digest_leaves_the_log_unchanged(self, tmp_path, dig):
        with TransparencyLog(tmp_path) as log:
            fill(log, 3)
        before = log_files(tmp_path)
        with TransparencyLog(tmp_path) as log:
            root = log.current_root()
            with pytest.raises(EncodingError, match="must be a ManifestDigest"):
                log.append(dig, b"\x01", "k", appended_at=4)
            assert log.size == 3 and log.current_root() == root
        assert log_files(tmp_path) == before
        assert check_integrity(tmp_path).ok

    @settings(max_examples=200, deadline=None)
    @given(
        signature=st.one_of(st.binary(max_size=80), st.text(max_size=4), st.none()),
        key_id=st.one_of(
            st.text(), st.text(alphabet=st.characters(min_codepoint=0xD7F0, max_codepoint=0xE010)),
            st.integers(), st.binary(max_size=4),
        ),
        appended_at=st.one_of(
            st.none(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.booleans()
        ),
    )
    def test_every_accepted_entry_reads_back_and_rehashes(self, signature, key_id, appended_at):
        with tempfile.TemporaryDirectory() as tmp, TransparencyLog(tmp) as log:
            fill(log, 2)
            try:
                index, root = log.append(self.DIG, signature, key_id, appended_at=appended_at)
            except EncodingError:
                assert log.size == 2
                log.close()
                assert check_integrity(Path(tmp)).ok
                return
            entry = log.entry(index)
            # what the auditor checks: the re-encoded entry hashes to the stored leaf
            assert _kernels.hash_leaf(entry.to_record()) == log.leaf_hash(index)
            assert (entry.signature, entry.key_id) == (signature, key_id)
            if appended_at is not None:
                assert entry.appended_at == appended_at
            assert log.root_at(index + 1) == root


def append_hashes(size):
    """Tree hashes of the append that takes a log from ``size`` to ``size + 1`` entries.

    A leaf hash, a merge per trailing one-bit of ``size``, and
    popcount(size + 1) - 1 folds for the new root.
    """
    trailing_ones = (~size & (size + 1)).bit_length() - 1
    return 1 + trailing_ones + (size + 1).bit_count() - 1


#: Every append up to this size is counted hash by hash.
COUNTED = 1 << 11


class TestAppendCost:
    DIG = ManifestDigest(bytes.fromhex("a7" * 32))

    def test_each_append_costs_exactly_its_hashes(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            for size in range(COUNTED):
                before = _kernels.ops()
                log.append(self.DIG, b"\x30" * 71, "k", appended_at=size)
                assert _kernels.ops() - before == append_hashes(size), size

    def test_each_append_after_a_reopen_costs_exactly_its_hashes(self, tmp_path):
        for size in range(COUNTED):
            with TransparencyLog(tmp_path) as log:
                assert log.size == size
                before = _kernels.ops()
                log.append(self.DIG, b"\x30" * 71, "k", appended_at=size)
                assert _kernels.ops() - before == append_hashes(size), size

    @pytest.mark.parametrize("n", [1, 255, 1000, 4097])
    def test_n_seeded_appends_cost_the_closed_form(self, tmp_path, n):
        # a leaf hash each, n - popcount(n) merges in all, and
        # popcount(k) - 1 folds for the root at every size k
        rng = random.Random(n)
        before = _kernels.ops()
        with TransparencyLog(tmp_path) as log:
            for i in range(n):
                log.append(ManifestDigest(rng.randbytes(32)), rng.randbytes(71),
                           f"key-{i % 4}", appended_at=rng.randrange(1 << 41))
        folds = sum(k.bit_count() - 1 for k in range(1, n + 1))
        assert _kernels.ops() - before == n + (n - n.bit_count()) + folds

    def test_each_append_makes_one_write_per_file(self, tmp_path, monkeypatch):
        written = []
        real_write = os.write

        def write(fd, data):
            written.append((fd, bytes(data)))
            return real_write(fd, data)

        with TransparencyLog(tmp_path) as log:
            files = {log._records_fd: RECORDS_NAME, log._checkpoints_fd: CHECKPOINTS_NAME}
            monkeypatch.setattr(os, "write", write)
            # no append writes the index: close() does
            for i in range(SPAN + 3):
                log.append(self.DIG, b"\x30" * 71, "k", appended_at=i)
                assert [files.get(fd) for fd, _ in written[-2:]] == [
                    RECORDS_NAME, CHECKPOINTS_NAME
                ]
                assert len(written) == 2 * (i + 1)
            monkeypatch.undo()
            assert not (tmp_path / LEAVES_NAME).exists()
            assert not (tmp_path / OFFSETS_NAME).exists()
        # the writes are the files, byte for byte
        for fd, name in files.items():
            assert b"".join(data for to, data in written if to == fd) == (
                (tmp_path / name).read_bytes()
            )


#: SHA-256 of each log file ``golden_log`` writes: they pin the on-disk
#: format.  Its records are also rebuilt by ``spec_record``.
GOLDEN_FILES = {
    RECORDS_NAME: "47a2e7cbff18f3baed20b8a2c95c2c4c0f99734d2b8913d9395fa7d28520f327",
    CHECKPOINTS_NAME: "6cb6f9a0697e6a09fc2343e67195474ad4bb2ea34e3fc89fba3893404d841657",
    LEAVES_NAME: "32e8e250669c0125ae68fe8eee87da2053d8c3d095de8acbe85ee83743fb39b2",
}

GOLDEN_KEY_IDS = [
    "k", "", 'quo"te', "back\\slash", "ctl \x00\x01\x08\x0c\x1f\x7f \n\r\t",
    "non-ascii \xe9\xdf\u4e2d \u2028\u2029", "astral \U0001f512\U00010000", "\"\\/",
]
GOLDEN_TIMES = [0, -1, -(2**63), 2**63 - 1]
GOLDEN_SIGNATURE_LENGTHS = [0, 1, 64, 70, 71, 72, 255]


def golden_entries(entries=700):
    """A fixed sequence of entries over the awkward cases of the record format."""
    for i in range(entries):
        dig = hashlib.sha256(b"golden %d" % i).digest()
        length = GOLDEN_SIGNATURE_LENGTHS[i % len(GOLDEN_SIGNATURE_LENGTHS)]
        signature = bytes((i + j) & 0xFF for j in range(length))
        at = GOLDEN_TIMES[i // 5 % len(GOLDEN_TIMES)] if i % 5 == 0 else 1_700_000_000_000 + i
        yield i, dig, signature, GOLDEN_KEY_IDS[i % len(GOLDEN_KEY_IDS)], at


def golden_log(directory):
    with TransparencyLog(directory) as log:
        for _, dig, signature, key_id, at in golden_entries():
            log.append(ManifestDigest(dig), signature, key_id, appended_at=at)


def test_log_files_match_the_golden_digests(tmp_path):
    golden_log(tmp_path)
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_FILES
    } == GOLDEN_FILES
    assert naive_records(tmp_path) == [spec_record(*entry) for entry in golden_entries()]
    assert (tmp_path / OFFSETS_NAME).read_bytes() == naive_offsets(tmp_path)


def test_every_golden_record_reads_back_in_its_one_layout(tmp_path):
    # the strict decoder takes every record append wrote, awkward key ids too
    golden_log(tmp_path)
    with TransparencyLog(tmp_path) as log:
        for index, record in enumerate(naive_records(tmp_path)):
            entry = log.entry(index)
            assert entry.to_record() == record
            assert entry == LogEntry(
                index, entry.manifest_digest, entry.signature, entry.key_id, entry.appended_at
            )
            assert entry.key_id == GOLDEN_KEY_IDS[index % len(GOLDEN_KEY_IDS)]


class TestInclusionProofs:
    def test_all_proofs_verify_at_all_sizes(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 33)
            for tree_size in range(1, 34):
                root = log.root_at(tree_size)
                for index in range(tree_size):
                    proof = log.prove_inclusion(index, tree_size)
                    assert verify_inclusion(log.leaf_hash(index), proof, root)

    def test_path_length_is_logarithmic(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 64)
            for k in (1, 2, 4, 8, 16, 32, 64):
                proof = log.prove_inclusion(k // 2, k)
                assert len(proof.path) == (k - 1).bit_length()

    def test_wrong_leaf_rejected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
            proof = log.prove_inclusion(3)
            assert not verify_inclusion(log.leaf_hash(4), proof, log.current_root())

    def test_wrong_root_rejected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
            proof = log.prove_inclusion(3)
            old = log.root_at(9)
            assert not verify_inclusion(log.leaf_hash(3), proof, old)

    def test_tampered_path_rejected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
            proof = log.prove_inclusion(3)
            evil = list(proof.path)
            evil[0] = hashlib.sha256(b"swap").digest()
            forged = MerkleProof(proof.leaf_index, proof.tree_size, tuple(evil))
            assert not verify_inclusion(log.leaf_hash(3), forged, log.current_root())

    def test_size_mismatch_rejected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
            proof = log.prove_inclusion(3, 8)
            assert not verify_inclusion(log.leaf_hash(3), proof, log.current_root())

    def test_historical_proofs_survive_growth(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 8)
            root8 = log.current_root()
            proof = log.prove_inclusion(5, 8)
            fill(log, 25, start=8)
            assert verify_inclusion(log.leaf_hash(5), proof, root8)
            assert verify_inclusion(log.leaf_hash(5), log.prove_inclusion(5), log.current_root())


SWEEP = 70


@pytest.fixture(params=["live", "reopened", "reopened-then-appended"])
def swept_log(request, tmp_path):
    """A 70-entry log, read after the given history, and its oracle leaf hashes."""
    first = SWEEP // 2 if request.param == "reopened-then-appended" else SWEEP
    log = TransparencyLog(tmp_path)
    fill(log, first)
    if request.param != "live":
        log.close()
        log = TransparencyLog(tmp_path)
        fill(log, SWEEP - first, start=first)
    with log:
        yield log, [oracle_leaf(r) for r in naive_records(tmp_path)]


class TestStoredHashReads:
    """Every read equals the recursive oracle, at every size up to SWEEP."""

    def test_inclusion_paths_match_oracle(self, swept_log):
        log, hashes = swept_log
        for n in range(1, SWEEP + 1):
            for index in range(n):
                assert list(log.prove_inclusion(index, n).path) == oracle_path(hashes[:n], index)

    def test_consistency_proofs_match_oracle(self, swept_log):
        log, hashes = swept_log
        for n in range(1, SWEEP + 1):
            for m in range(1, n + 1):
                assert log.prove_consistency(m, n) == tuple(oracle_subproof(m, hashes[:n]))

    def test_historical_roots_match_oracle(self, swept_log):
        log, hashes = swept_log
        for m in range(SWEEP + 1):
            assert log.root_at(m) == MerkleRoot(oracle_root(hashes[:m]), m)
        assert log.current_root() == log.root_at(SWEEP)

    def test_leaf_hashes_match_oracle(self, swept_log):
        log, hashes = swept_log
        assert [log.leaf_hash(i) for i in range(SWEEP)] == hashes

    def test_each_read_costs_logarithmic_hashes(self, tmp_path):
        # at most 2 * ceil(log2 n) hash operations per proof or root; a
        # rebuild from the leaves would cost about n
        top = 1 << 13
        sizes = sorted({n for k in range(14) for n in (2**k - 1, 2**k, 2**k + 1)} - {0})

        def ops_of(read, *args):
            before = _kernels.ops()
            read(*args)
            return _kernels.ops() - before

        with TransparencyLog(tmp_path) as log:
            fill(log, top + 1)
            for n in sizes:
                picks = {0, 1, n // 3, n // 2, n - 2, n - 1} & set(range(n))
                costs = [ops_of(log.root_at, n)]
                costs += [ops_of(log.prove_inclusion, i, n) for i in picks]
                costs += [ops_of(log.prove_consistency, m, n) for m in picks if m]
                assert max(costs) <= 2 * (n - 1).bit_length(), n

    @pytest.mark.parametrize("reopen", [False, True])
    def test_reads_at_the_current_size_cost_no_hashes(self, tmp_path, reopen):
        # the current tree's right edge is kept; an older tree's costs one
        # hash per peak after its first
        log = TransparencyLog(tmp_path)
        for n in (1, 2, 3, 64, 100, 1023, 1024, 1025):
            fill(log, n - log.size, start=log.size)
            if reopen:
                log.close()
                log = TransparencyLog(tmp_path)
            log.root_at(n)
            before = _kernels.ops()
            for i in range(n):
                log.prove_inclusion(i)
            for m in range(1, n + 1):
                log.prove_consistency(m, n)
            assert log.root_at(n) == log.current_root()
            assert _kernels.ops() == before, n
            for m in range(1, n):
                before = _kernels.ops()
                log.root_at(m)
                assert _kernels.ops() - before == m.bit_count() - 1, (n, m)
                before = _kernels.ops()
                log.prove_inclusion(m // 2, m)
                log.prove_consistency(max(1, m // 3), m)
                assert _kernels.ops() - before <= 2 * (m.bit_count() - 1), (n, m)
        log.close()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["append", "root", "inclusion", "consistency"]),
                st.integers(0, 1 << 16),
                st.integers(0, 1 << 16),
            ),
            max_size=80,
        )
    )
    def test_reads_between_appends_match_oracle(self, ops):
        # a kept right edge that went stale would show here: reads at the
        # current size and at older sizes, interleaved with appends
        with tempfile.TemporaryDirectory() as tmp, TransparencyLog(tmp) as log:
            hashes = []
            for op, a, b in ops:
                n = log.size
                if op == "append" or n == 0:
                    fill(log, 1, start=n)
                    hashes.append(oracle_leaf(naive_records(Path(tmp))[-1]))
                    continue
                size = n - b % 2 * (b % n)  # the current size half of the time
                if op == "root":
                    assert log.root_at(size) == MerkleRoot(oracle_root(hashes[:size]), size)
                elif op == "inclusion":
                    index = a % size
                    path = oracle_path(hashes[:size], index)
                    assert list(log.prove_inclusion(index, size).path) == path
                else:
                    m = 1 + a % size
                    assert log.prove_consistency(m, size) == tuple(
                        oracle_subproof(m, hashes[:size])
                    )
            assert log.current_root() == MerkleRoot(oracle_root(hashes), len(hashes))


#: Every read of a log, which a closed log must refuse.
CLOSED_READS = {
    "size": lambda log: log.size,
    "storage_bytes": lambda log: log.storage_bytes,
    "current_root": lambda log: log.current_root(),
    "root_at": lambda log: log.root_at(1),
    "leaf_hash": lambda log: log.leaf_hash(0),
    "entry": lambda log: log.entry(1),
    "prove_inclusion": lambda log: log.prove_inclusion(0, 2),
    "prove_consistency": lambda log: log.prove_consistency(1, 2),
    "growth_series": lambda log: log.growth_series(),
}


class TestReadHandle:
    @pytest.mark.parametrize("offset", ["body", "length prefix"])
    def test_entry_fails_closed_on_a_record_changed_after_open(self, tmp_path, offset):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
            start = log.growth_series([3])[0][1]
            at = start + (_LEN.size + 10 if offset == "body" else _LEN.size - 1)
            with open(tmp_path / RECORDS_NAME, "r+b") as fh:
                fh.seek(at)
                byte = fh.read(1)
                fh.seek(at)
                fh.write(bytes([byte[0] ^ 0x01]))
            with pytest.raises(StorageError, match="record 3"):
                log.entry(3)
            assert log.entry(2).index == 2
            assert log.entry(4).index == 4

    def test_entry_fails_closed_on_a_truncated_file(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 4)
            os.truncate(tmp_path / RECORDS_NAME, log.storage_bytes - 1)
            with pytest.raises(StorageError, match="record 3"):
                log.entry(3)
            assert log.entry(2).index == 2

    def test_entry_reads_what_was_just_appended(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            for i in range(5):
                fill(log, 1, start=i)
                assert log.entry(i).appended_at == 2_000 + i

    @pytest.mark.parametrize("read", CLOSED_READS.values(), ids=CLOSED_READS)
    def test_every_read_after_close_raises_storage_error(self, tmp_path, read):
        with TransparencyLog(tmp_path) as log:
            fill(log, 1)
        log = TransparencyLog(tmp_path)
        fill(log, 1, start=1)
        log.close()
        for _ in range(2):
            with pytest.raises(StorageError, match="closed"):
                read(log)
            log.close()  # a second close does nothing
        assert log.reopened == ReopenReport(1, 0, "kept", 1)
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(2, 0, "kept", 2)

    def test_append_after_close_raises_storage_error_and_writes_nothing(self, tmp_path):
        log = TransparencyLog(tmp_path)
        fill(log, 2)
        log.close()
        before = log_files(tmp_path)
        # a file opened now may take the closed descriptors' numbers
        with open(tmp_path / "other", "wb") as other:
            with pytest.raises(StorageError, match="closed"):
                fill(log, 1, start=2)
            other.flush()
        assert (tmp_path / "other").read_bytes() == b""
        assert log_files(tmp_path) == before

    def test_failed_open_closes_what_it_opened(self, tmp_path, monkeypatch):
        opened = []

        def failing_open(path, mode="r", *args, **kwargs):
            if mode == "rb":
                raise PermissionError("refused")
            fh = open(path, mode, *args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(translog, "open", failing_open, raising=False)
        with pytest.raises(StorageError):
            TransparencyLog(tmp_path)
        # the records and checkpoints writers, opened before the reader
        assert len(opened) == 2
        assert all(fh.closed for fh in opened)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_open_read_close_cycles_leak_no_descriptor(self, tmp_path):
        def cycle(i):
            with TransparencyLog(tmp_path) as log:
                fill(log, 1, start=i)
                log.entry(i)

        cycle(0)
        before = len(os.listdir("/proc/self/fd"))
        for i in range(1, 201):
            cycle(i)
        assert len(os.listdir("/proc/self/fd")) == before


class TestConsistencyProofs:
    def test_every_size_pair_verifies(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 32)
            for old in range(1, 33):
                for new in range(old, 33):
                    proof = log.prove_consistency(old, new)
                    assert verify_consistency(log.root_at(old), log.root_at(new), proof)

    def test_equal_sizes_use_empty_proof(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
            assert log.prove_consistency(6, 6) == ()
            assert verify_consistency(log.root_at(6), log.root_at(6), ())

    def test_swapped_roots_rejected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 20)
            proof = log.prove_consistency(7, 20)
            assert not verify_consistency(log.root_at(20), log.root_at(7), proof)

    def test_forked_history_rejected(self, tmp_path, tmp_path_factory):
        with TransparencyLog(tmp_path) as log:
            fill(log, 20)
            proof = log.prove_consistency(7, 20)
            other_dir = tmp_path_factory.mktemp("fork")
            with TransparencyLog(other_dir) as fork:
                m = Manifest({"query": "divergent"}, {}, 1, "t")
                for i in range(7):
                    fork.append(digest(m), b"\x00", "k", appended_at=i)
                assert not verify_consistency(fork.current_root(), log.current_root(), proof)

    def test_tampered_proof_rejected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 20)
            proof = list(log.prove_consistency(7, 20))
            proof[0] = hashlib.sha256(b"junk").digest()
            assert not verify_consistency(log.root_at(7), log.root_at(20), tuple(proof))

    def test_truncated_proof_rejected_not_raised(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 20)
            proof = log.prove_consistency(7, 20)
            assert not verify_consistency(log.root_at(7), log.root_at(20), proof[:-1])
            assert not verify_consistency(log.root_at(7), log.root_at(20), ())
            garbage = (b"short", 7)
            assert not verify_consistency(log.root_at(7), log.root_at(20), garbage)


def fail_write(monkeypatch, fd, at, how):
    """Make the ``at``-th ``os.write`` on ``fd`` from now on fail.

    ``how`` is an errno to raise, or ``"short"`` to write only half the bytes.
    """
    real_write = os.write
    calls = 0

    def write(target, data):
        nonlocal calls
        if target == fd:
            calls += 1
            if calls == at:
                if how == "short":
                    return real_write(target, bytes(data)[: len(data) // 2])
                raise OSError(how, os.strerror(how))
        return real_write(target, data)

    monkeypatch.setattr(os, "write", write)


#: Where ``fail_index`` makes the index write of ``close`` fail.
INDEX_FAILURES = ("open", "write", "truncate")


class FailingIndex:
    """The writer ``close`` opens on ``log.leaves``, failing at ``at``.

    ``"write"`` writes half the bytes, then raises; ``"truncate"`` raises
    after the whole write.
    """

    def __init__(self, fh, at):
        self.fh, self.at = fh, at

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def seek(self, pos):
        return self.fh.seek(pos)

    def write(self, data):
        if self.at == "write":
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)

    def truncate(self):
        if self.at == "truncate":
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return self.fh.truncate()


def fail_index(monkeypatch, at):
    """Make the index write of the next ``close`` fail at ``at``, one of ``INDEX_FAILURES``.

    ``close`` opens ``log.leaves`` with ``os.open`` and wraps the descriptor
    in ``open(fd, "wb")``, the only ``"wb"`` open in ``translog``.
    """

    def failing_open(file, mode="r", *args, **kwargs):
        if mode != "wb":
            return open(file, mode, *args, **kwargs)
        if at == "open":
            os.close(file)
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))
        return FailingIndex(open(file, mode, *args, **kwargs), at)

    monkeypatch.setattr(translog, "open", failing_open, raising=False)


def assert_log_whole(directory, size, root):
    """Reopening restores ``size`` and ``root``, and the files check out."""
    with TransparencyLog(directory) as log:
        assert (log.size, log.current_root()) == (size, root)
        assert [log.entry(i).index for i in range(size)] == list(range(size))
    report = check_integrity(directory)
    assert report.ok, report


class TestFailedAppend:
    """A write that fails inside ``append`` leaves the log as it was."""

    DIG = ManifestDigest(bytes.fromhex("6d" * 32))

    def test_enospc_on_the_fourth_checkpoint_write_is_rolled_back(self, tmp_path, monkeypatch):
        with TransparencyLog(tmp_path) as log:
            fail_write(monkeypatch, log._checkpoints_fd, 4, errno.ENOSPC)
            fill(log, 3)
            before, root = log_files(tmp_path), log.current_root()
            with pytest.raises(StorageError, match="entry 3"):
                log.append(self.DIG, b"\x01", "k", appended_at=3)
            assert (log.size, log.current_root()) == (3, root)
            assert log_files(tmp_path) == before
            index, root = log.append(self.DIG, b"\x01", "k", appended_at=3)
            assert index == 3 and log.entry(3).manifest_digest == self.DIG
        assert_log_whole(tmp_path, 4, root)

    @pytest.mark.parametrize(
        "at, report",
        [
            # each derived file keeps the first session's entry
            ("open", ReopenReport(1, 2, "extended", 1)),
            # half of the two new entries reached each
            ("write", ReopenReport(2, 1, "extended", 2)),
            ("truncate", ReopenReport(3, 0, "kept", 3)),
        ],
    )
    def test_a_failed_index_write_at_close_is_not_raised(self, tmp_path, monkeypatch, at, report):
        with TransparencyLog(tmp_path) as log:
            fill(log, 1)
        with TransparencyLog(tmp_path) as log:
            fill(log, 2, start=1)
            root = log.current_root()
            fail_index(monkeypatch, at)
        monkeypatch.undo()
        leaves = b"".join(oracle_leaf(r) for r in naive_records(tmp_path))
        assert leaves.startswith((tmp_path / LEAVES_NAME).read_bytes())
        assert naive_offsets(tmp_path).startswith((tmp_path / OFFSETS_NAME).read_bytes())
        with TransparencyLog(tmp_path) as log:
            # the derived files lag, and reopening extends them
            assert log.reopened == report
        assert_log_whole(tmp_path, 3, root)

    @pytest.mark.parametrize("name", [RECORDS_NAME, CHECKPOINTS_NAME])
    @pytest.mark.parametrize("how", [errno.ENOSPC, errno.EIO, "short"])
    def test_each_failed_write_leaves_the_files_as_they_were(
        self, tmp_path, monkeypatch, name, how
    ):
        with TransparencyLog(tmp_path) as log:
            fill(log, 5)
            fd = log._records_fd if name == RECORDS_NAME else log._checkpoints_fd
            before, root = log_files(tmp_path), log.current_root()
            fail_write(monkeypatch, fd, 1, how)
            with pytest.raises(StorageError, match="short write" if how == "short" else "failed"):
                log.append(self.DIG, b"\x01", "k", appended_at=5)
            assert (log.size, log.current_root()) == (5, root)
            assert log_files(tmp_path) == before
            index, root = log.append(self.DIG, b"\x01", "k", appended_at=5)
            assert index == 5
        assert_log_whole(tmp_path, 6, root)

    def test_a_failed_roll_back_refuses_later_appends_and_keeps_reads(
        self, tmp_path, monkeypatch
    ):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
            root = log.current_root()
            proof = log.prove_inclusion(2)
            fail_write(monkeypatch, log._checkpoints_fd, 1, "short")
            monkeypatch.setattr(os, "ftruncate", mock.Mock(side_effect=OSError(errno.EIO, "io")))
            with pytest.raises(StorageError, match="entry 6") as first:
                log.append(self.DIG, b"\x01", "k", appended_at=6)
            monkeypatch.undo()
            for _ in range(2):
                with pytest.raises(StorageError) as later:
                    log.append(self.DIG, b"\x01", "k", appended_at=6)
                assert str(later.value) == str(first.value)
            assert "short write" in str(first.value)
            assert (log.size, log.current_root()) == (6, root)
            assert log.prove_inclusion(2) == proof
            assert [log.entry(i).index for i in range(6)] == list(range(6))
        # the part-written entry is left on disk, where reopening refuses it
        with pytest.raises(StorageError):
            TransparencyLog(tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(0, 40),
        name=st.sampled_from([RECORDS_NAME, CHECKPOINTS_NAME, LEAVES_NAME]),
        at=st.integers(1, 3),
        how=st.sampled_from([errno.ENOSPC, errno.EIO, "short"]),
    )
    def test_any_injected_failure_leaves_a_log_that_reads_back(self, size, name, at, how):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
            directory = Path(tmp)
            with TransparencyLog(directory) as log:
                fill(log, size)
                if name == LEAVES_NAME:
                    fail_index(monkeypatch, INDEX_FAILURES[at - 1])
                else:
                    fd = log._records_fd if name == RECORDS_NAME else log._checkpoints_fd
                    fail_write(monkeypatch, fd, at, how)
                for i in range(3):
                    committed = (log.size, log.current_root(), log_files(directory))
                    try:
                        index, root = log.append(self.DIG, b"\x02", "k", appended_at=i)
                    except StorageError:
                        assert name != LEAVES_NAME
                        assert (log.size, log.current_root(), log_files(directory)) == committed
                        continue
                    assert index == committed[0]
                # the next append after a failure succeeds and reads back
                index, root = log.append(self.DIG, b"\x03", "k", appended_at=-1)
                assert log.entry(index).signature == b"\x03"
            monkeypatch.undo()
            assert_log_whole(directory, index + 1, root)


class TestPersistence:
    @pytest.mark.parametrize("under", [False, True])
    def test_a_directory_path_that_is_a_file_is_a_storage_error(self, tmp_path, under):
        path = tmp_path / "file"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="cannot open log files"):
            TransparencyLog(path / "sub" if under else path)
        assert path.read_bytes() == b""

    def test_reopen_restores_state(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 13)
            size, root = log.size, log.current_root()

        with TransparencyLog(tmp_path) as reopened:
            assert reopened.size == size
            assert reopened.current_root() == root
            assert reopened.entry(7).index == 7
            # the tree goes on from the peaks reopening restored
            fill(reopened, 1, start=size)
            assert last_line(tmp_path) == (size + 1, naive_root(naive_records(tmp_path)))

    def test_appends_after_restart_extend_the_same_tree(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 9)
            root9 = log.current_root()

        with TransparencyLog(tmp_path) as log:
            fill(log, 6, start=9)
            assert log.size == 15
            assert log.current_root().value == naive_root(naive_records(tmp_path))
            proof = log.prove_consistency(9, 15)
            assert verify_consistency(root9, log.current_root(), proof)

    def test_reopen_cross_checks_final_checkpoint(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 5)
        path = tmp_path / CHECKPOINTS_NAME
        lines = path.read_text().splitlines()
        head, root_hex = lines[-1].split()
        forged = root_hex[:-1] + ("0" if root_hex[-1] != "0" else "1")
        lines[-1] = f"{head} {forged}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StorageError):
            TransparencyLog(tmp_path)

    def test_a_log_with_three_field_lines_is_refused(self, tmp_path):
        # lines that also carry a running hash chain after the root,
        # chain_i = SHA-256(chain_{i-1} || leaf_i), as logs once held
        with TransparencyLog(tmp_path) as log:
            fill(log, 5)
        records = naive_records(tmp_path)
        chain, lines = bytes(32), []
        for size, record in enumerate(records, 1):
            chain = hashlib.sha256(chain + oracle_leaf(record)).digest()
            lines.append(f"{size} {naive_root(records[:size]).hex()} {chain.hex()}\n")
        (tmp_path / CHECKPOINTS_NAME).write_text("".join(lines))
        with pytest.raises(StorageError, match="<tree size> <root hex>"):
            TransparencyLog(tmp_path)
        report = check_integrity(tmp_path)
        assert (report.ok, report.tampered_at) == (False, 0)
        assert "checkpoint line 0 malformed" in report.detail

    def test_a_log_in_the_json_record_layout_is_refused_and_left_as_it_was(self, tmp_path):
        # all four files as a closed writer of the JSON layout left them,
        # built with json and hashlib alone
        records = [
            json.dumps(
                {"index": i, "manifest_digest": hashlib.sha256(b"%d" % i).hexdigest(),
                 "signature": bytes([i] * 9).hex(), "key_id": 'op-"\xe9"',
                 "appended_at": 1_700_000_000_000 + i},
                separators=(",", ":"), ensure_ascii=False,
            ).encode("utf-8")
            for i in range(5)
        ]
        (tmp_path / RECORDS_NAME).write_bytes(b"".join(_LEN.pack(len(r)) + r for r in records))
        (tmp_path / CHECKPOINTS_NAME).write_text(
            "".join(f"{k} {naive_root(records[:k]).hex()}\n" for k in range(1, 6))
        )
        (tmp_path / LEAVES_NAME).write_bytes(b"".join(oracle_leaf(r) for r in records))
        (tmp_path / OFFSETS_NAME).write_bytes(naive_offsets(tmp_path))
        before = log_files(tmp_path)
        with pytest.raises(StorageError, match="JSON layout"):
            TransparencyLog(tmp_path)
        assert log_files(tmp_path) == before
        # the check frames and hashes records without decoding them
        assert check_integrity(tmp_path) == translog.IntegrityReport(
            True, None, "5 entries verified"
        )
        assert log_files(tmp_path) == before

    def test_a_log_whose_first_record_has_another_tag_is_refused(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 5)
        with open(tmp_path / RECORDS_NAME, "r+b") as fh:
            fh.seek(_LEN.size)
            fh.write(b"\x02")
        before = log_files(tmp_path)
        with pytest.raises(StorageError, match="record 0 has tag 0x02, not the tag 0x01"):
            TransparencyLog(tmp_path)
        assert log_files(tmp_path) == before
        assert check_integrity(tmp_path).tampered_at == 0

    @pytest.mark.parametrize("code", [errno.EMFILE, errno.ENOSPC])
    def test_a_first_open_that_stopped_after_the_records_file_left_the_empty_log(
        self, tmp_path, monkeypatch, code
    ):
        real_open = os.open

        def failing_open(path, *args, **kwargs):
            if Path(path).name == CHECKPOINTS_NAME:
                raise OSError(code, os.strerror(code))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", failing_open)
        with pytest.raises(StorageError):
            TransparencyLog(tmp_path)
        monkeypatch.undo()
        assert (tmp_path / RECORDS_NAME).read_bytes() == b""
        assert not (tmp_path / CHECKPOINTS_NAME).exists()
        report = check_integrity(tmp_path)
        assert (report.ok, report.tampered_at, report.detail) == (True, None, "0 entries verified")
        with TransparencyLog(tmp_path) as log:
            assert (log.size, log.current_root()) == (0, empty_root())
            roots = fill(log, 3)
        with TransparencyLog(tmp_path) as log:
            assert (log.size, log.current_root()) == (3, roots[-1])
        assert check_integrity(tmp_path).ok

    def test_a_missing_checkpoints_file_next_to_records_stays_an_error(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 2)
        (tmp_path / CHECKPOINTS_NAME).unlink()
        with pytest.raises(translog.LogDamage):
            TransparencyLog(tmp_path)
        report = check_integrity(tmp_path)
        assert not report.ok and "cannot read log files" in report.detail

    def test_reopen_rejects_truncated_records(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 5)
        records_path = tmp_path / RECORDS_NAME
        data = records_path.read_bytes()
        records_path.write_bytes(data[:-3])
        with pytest.raises(StorageError):
            TransparencyLog(tmp_path)

    def test_growth_series_is_linear_in_entries(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 64)
            series = log.growth_series()
            assert [n for n, _ in series] == [1, 2, 4, 8, 16, 32, 64]
            sizes = dict(series)
            # identical records here, so bytes per entry are exactly constant
            per_entry = sizes[64] / 64
            for n, total in series:
                assert total == pytest.approx(n * per_entry, rel=0.01)
            assert log.storage_bytes == (tmp_path / RECORDS_NAME).stat().st_size

    def test_reader_memory_does_not_grow_with_the_log(self, tmp_path):
        # the files are streamed: only the peaks, O(log n) of them, grow
        dig = ManifestDigest(bytes.fromhex("5e" * 32))
        peak = {}
        for n in (1 << 10, 1 << 14):
            with TransparencyLog(tmp_path / str(n)) as log:
                for i in range(n):
                    log.append(dig, b"\x30" * 71, "k", appended_at=i)
            tracemalloc.start()
            try:
                assert check_integrity(tmp_path / str(n)).ok
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[1 << 14] < 1 << 20
        assert peak[1 << 14] <= peak[1 << 10] + 4096


def log_state(log):
    """Everything reopening restores: stored levels, offsets, peak states, edge."""
    return (
        [bytes(level) for level in log._levels],
        list(log._offsets),
        [state.digest() for state in log._states],
        list(log._edge),
    )


def log_reads(log):
    """Every root, and every inclusion and consistency proof at the current size."""
    n = log.size
    return (
        [log.root_at(m) for m in range(n + 1)],
        [log.prove_inclusion(i) for i in range(n)],
        [log.prove_consistency(m, n) for m in range(1, n + 1)],
    )


#: More than twice SPAN entries.
INDEXED = 2 * SPAN + 88

#: Entries of the first session of the crashed writer.
CRASHED_AFTER = 300


@pytest.fixture(scope="module")
def indexed_log(tmp_path_factory):
    """A closed INDEXED-entry log's files, and what a replay without index restores."""
    directory = tmp_path_factory.mktemp("indexed")
    with TransparencyLog(directory) as log:
        fill(log, INDEXED)
        live = log_state(log)
    files = log_files(directory)
    assert files[LEAVES_NAME] == b"".join(oracle_leaf(r) for r in naive_records(directory))
    assert files[OFFSETS_NAME] == naive_offsets(directory)
    (directory / LEAVES_NAME).unlink()
    with TransparencyLog(directory) as replayed:
        assert replayed.reopened == ReopenReport(0, INDEXED, "extended", 0)
        expected = (log_state(replayed), log_reads(replayed))
    assert expected[0] == live
    return files, expected, check_integrity(directory)


def reopen_with_index(files, index):
    """Reopen the log's files with ``index`` as its index, or with none, and
    its complete ``log.offsets``.

    Returns the restored state and reads, the reopen report, the files left
    behind by that reading handle, the integrity report afterwards, and the
    derived files and reopen report after one more handle appends one entry.
    """
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name in (RECORDS_NAME, CHECKPOINTS_NAME, OFFSETS_NAME):
            (directory / name).write_bytes(files[name])
        if index is not None:
            (directory / LEAVES_NAME).write_bytes(index)
        with TransparencyLog(directory) as log:
            restored = (log_state(log), log_reads(log))
            report = log.reopened
        left = log_files(directory)
        integrity = check_integrity(directory)
        with TransparencyLog(directory) as log:
            fill(log, 1, start=log.size)
        with TransparencyLog(directory) as log:
            appended = (log_files(directory), log.reopened)
        return restored, report, left, integrity, appended


class TestAtomicWrite:
    """``atomic_write_bytes``, the one writer of whole files, and its one error."""

    def test_writes_the_bytes_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]

    def test_stale_temp_file_is_replaced(self, tmp_path):
        path = tmp_path / "out.bin"
        (tmp_path / "out.bin.tmp").write_bytes(b"left by a crash, and longer than the data")
        atomic_write_bytes(path, b"data")
        assert path.read_bytes() == b"data"
        assert not (tmp_path / "out.bin.tmp").exists()

    def test_missing_directory_is_a_storage_error(self, tmp_path):
        path = tmp_path / "no-such-dir" / "out.bin"
        with pytest.raises(StorageError, match=f"cannot write {re.escape(str(path))}: "):
            atomic_write_bytes(path, b"data")
        assert not (tmp_path / "no-such-dir").exists()

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"old")
        # a directory where the temp file goes can be neither removed nor opened
        (tmp_path / "out.bin.tmp").mkdir()
        with pytest.raises(StorageError, match="cannot write"):
            atomic_write_bytes(path, b"new")
        assert path.read_bytes() == b"old"
        # a stale temp file it could not remove is not its own to remove
        assert (tmp_path / "out.bin.tmp").is_dir()

    @pytest.mark.parametrize("fails", ["rename", "write"])
    def test_a_failure_after_the_temp_file_is_made_removes_it(self, tmp_path, fails):
        path = tmp_path / "out"
        if fails == "rename":
            path.mkdir()  # os.replace cannot put a file over a directory
            with pytest.raises(StorageError, match="cannot write"):
                atomic_write_bytes(path, b"x")
        else:
            with pytest.raises(TypeError):
                atomic_write_bytes(path, "not bytes")
        assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if fails == "rename" else [])


class TestLeafIndex:
    """A damaged, missing or stale ``log.leaves`` restores the no-index state.

    Reading leaves it as it was; ``close`` after an append writes it whole.
    The stored record ends, complete here, are taken for the leaves the
    index gives, and for none when it is rebuilt.
    """

    def check(self, indexed_log, index, report):
        files, expected, integrity = indexed_log
        restored, got_report, left, got_integrity, appended = reopen_with_index(files, index)
        assert got_report == report
        assert restored == expected
        assert left == {**files, LEAVES_NAME: index}
        assert got_integrity == integrity
        written, reopened = appended
        leaf = written[LEAVES_NAME][INDEXED * _kernels.HASH_SIZE :]
        end = written[OFFSETS_NAME][INDEXED * 8 :]
        assert written[LEAVES_NAME] == files[LEAVES_NAME] + leaf
        assert written[OFFSETS_NAME] == files[OFFSETS_NAME] + end
        assert reopened == ReopenReport(INDEXED + 1, 0, "kept", INDEXED + 1)
        assert (len(leaf), len(end)) == (_kernels.HASH_SIZE, 8)

    def test_missing_index(self, indexed_log):
        self.check(indexed_log, None, ReopenReport(0, INDEXED, "extended", 0))

    def test_complete_index_is_kept(self, indexed_log):
        files = indexed_log[0]
        self.check(indexed_log, files[LEAVES_NAME], ReopenReport(INDEXED, 0, "kept", INDEXED))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_cut_at_any_byte(self, indexed_log, data):
        index = indexed_log[0][LEAVES_NAME]
        cut = data.draw(st.integers(0, len(index) - 1))
        k = cut // _kernels.HASH_SIZE
        self.check(indexed_log, index[:cut], ReopenReport(k, INDEXED - k, "extended", k))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_with_extra_bytes(self, indexed_log, data):
        index = indexed_log[0][LEAVES_NAME]
        extra = data.draw(st.binary(min_size=1, max_size=3 * _kernels.HASH_SIZE))
        self.check(indexed_log, index + extra, ReopenReport(INDEXED, 0, "trimmed", INDEXED))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_with_any_byte_flipped(self, indexed_log, data):
        index = bytearray(indexed_log[0][LEAVES_NAME])
        at = data.draw(st.integers(0, len(index) - 1))
        index[at] ^= data.draw(st.integers(1, 255))
        self.check(indexed_log, bytes(index), ReopenReport(0, INDEXED, "rebuilt", 0))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_with_two_leaves_swapped(self, indexed_log, data):
        index = indexed_log[0][LEAVES_NAME]
        leaves = [index[at : at + 32] for at in range(0, len(index), 32)]
        i = data.draw(st.integers(0, INDEXED - 1))
        j = data.draw(st.integers(0, INDEXED - 1).filter(lambda j: j != i))
        leaves[i], leaves[j] = leaves[j], leaves[i]
        self.check(indexed_log, b"".join(leaves), ReopenReport(0, INDEXED, "rebuilt", 0))

    def test_crash_after_the_checkpoint_before_the_index_is_written(self, indexed_log, tmp_path):
        # the writer of a second session dies without closing: the index
        # holds the first session's leaves and none of the second's
        files = indexed_log[0]
        script = (
            "import os, sys\n"
            "from test_translog import fill\n"
            "from manifestd.translog import TransparencyLog\n"
            "with TransparencyLog(sys.argv[1]) as log:\n"
            f"    fill(log, {CRASHED_AFTER})\n"
            "log = TransparencyLog(sys.argv[1])\n"
            f"fill(log, {INDEXED - CRASHED_AFTER}, start={CRASHED_AFTER})\n"
            "os._exit(0)\n"
        )
        package_root = Path(translog.__file__).resolve().parent.parent
        path = os.pathsep.join([str(package_root), str(Path(__file__).parent)])
        subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            check=True,
            timeout=120,
        )
        for name in (RECORDS_NAME, CHECKPOINTS_NAME):
            assert (tmp_path / name).read_bytes() == files[name]
        written = (tmp_path / LEAVES_NAME).read_bytes()
        assert written == files[LEAVES_NAME][: CRASHED_AFTER * _kernels.HASH_SIZE]
        assert (tmp_path / OFFSETS_NAME).read_bytes() == files[OFFSETS_NAME][: CRASHED_AFTER * 8]
        self.check(
            indexed_log,
            written,
            ReopenReport(CRASHED_AFTER, INDEXED - CRASHED_AFTER, "extended", CRASHED_AFTER),
        )

    @pytest.mark.parametrize("before", [0, 300])
    def test_a_reader_leaves_a_live_writers_index_alone(self, tmp_path, before):
        with TransparencyLog(tmp_path) as log:
            fill(log, before)
        with TransparencyLog(tmp_path) as writer:
            fill(writer, 300, start=before)
            with TransparencyLog(tmp_path) as reader:
                assert reader.reopened == ReopenReport(before, 300, "extended", before)
                assert reader.current_root() == writer.current_root()
            fill(writer, 300, start=before + 300)
        leaves = b"".join(oracle_leaf(r) for r in naive_records(tmp_path))
        assert len(leaves) == (before + 600) * _kernels.HASH_SIZE
        assert (tmp_path / LEAVES_NAME).read_bytes() == leaves
        assert (tmp_path / OFFSETS_NAME).read_bytes() == naive_offsets(tmp_path)
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(before + 600, 0, "kept", before + 600)

    @pytest.mark.parametrize("name", [LEAVES_NAME, OFFSETS_NAME])
    @pytest.mark.parametrize("left", [None, 1000])
    def test_an_index_cut_under_a_live_writer_is_written_whole(self, tmp_path, left, name):
        # close used to write from the entries its reopen verified, leaving a
        # hole of zero bytes where the file had lost them
        with TransparencyLog(tmp_path) as log:
            fill(log, 300)
        derived = tmp_path / name
        with TransparencyLog(tmp_path) as writer:
            assert writer.reopened == ReopenReport(300, 0, "kept", 300)
            if left is None:
                derived.unlink()
            else:
                os.truncate(derived, left)
            fill(writer, 300, start=300)
        leaves = b"".join(oracle_leaf(r) for r in naive_records(tmp_path))
        assert (tmp_path / LEAVES_NAME).read_bytes() == leaves
        assert (tmp_path / OFFSETS_NAME).read_bytes() == naive_offsets(tmp_path)
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(600, 0, "kept", 600)

    def test_a_second_close_writes_nothing(self, tmp_path):
        log = TransparencyLog(tmp_path)
        fill(log, 3)
        log.close()
        for name in (LEAVES_NAME, OFFSETS_NAME):
            (tmp_path / name).unlink()
        log.close()
        assert [name for name in LOG_FILES if (tmp_path / name).exists()] == [
            RECORDS_NAME, CHECKPOINTS_NAME
        ]

    def test_index_follows_appends_after_a_reopen(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 300)
        with TransparencyLog(tmp_path) as log:
            fill(log, 300, start=300)
        leaves = b"".join(oracle_leaf(r) for r in naive_records(tmp_path))
        assert (tmp_path / LEAVES_NAME).read_bytes() == leaves
        assert (tmp_path / OFFSETS_NAME).read_bytes() == naive_offsets(tmp_path)
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(600, 0, "kept", 600)

    @pytest.mark.parametrize("empty_records", [False, True])
    def test_a_new_log_drops_a_stale_index(self, tmp_path, empty_records):
        with TransparencyLog(tmp_path) as log:
            fill(log, 5)
        for name in (RECORDS_NAME, CHECKPOINTS_NAME):
            (tmp_path / name).unlink()
        if empty_records:
            (tmp_path / RECORDS_NAME).write_bytes(b"")
            (tmp_path / CHECKPOINTS_NAME).write_bytes(b"")
        with TransparencyLog(tmp_path) as log:
            fill(log, 3)
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(3, 0, "kept", 3)
            assert log.current_root().value == naive_root(naive_records(tmp_path))

    @pytest.mark.parametrize("n", [1, 2, 3, SPAN - 1, SPAN, SPAN + 1, 1000])
    def test_reopen_hash_costs(self, tmp_path, monkeypatch, n):
        # with a complete index no record is hashed: n - 1 interior hashes
        # rebuild the tree
        with TransparencyLog(tmp_path) as log:
            fill(log, n)
        hash_leaf = _kernels.hash_leaf
        leaf_hashes = []
        monkeypatch.setattr(_kernels, "hash_leaf", lambda d: leaf_hashes.append(d) or hash_leaf(d))
        before = _kernels.ops()
        with TransparencyLog(tmp_path) as log:
            assert _kernels.ops() - before == n - 1
            assert log.reopened == ReopenReport(n, 0, "kept", n)
        assert leaf_hashes == []
        (tmp_path / LEAVES_NAME).unlink()
        before = _kernels.ops()
        with TransparencyLog(tmp_path) as log:
            assert _kernels.ops() - before == n + (n - 1)
        assert len(leaf_hashes) == n

    def test_same_size_record_change_reopens_but_is_refused(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 12)
            at = log.growth_series([5])[0][1] + _LEN.size + 10
        with open(tmp_path / RECORDS_NAME, "r+b") as fh:
            fh.seek(at)
            byte = fh.read(1)
            fh.seek(at)
            fh.write(bytes([byte[0] ^ 0x01]))
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(12, 0, "kept", 12)
            with pytest.raises(StorageError, match="record 5"):
                log.entry(5)
            assert log.entry(4).index == 4 and log.entry(6).index == 6
        assert check_integrity(tmp_path).tampered_at == 5

    def test_same_size_checkpoint_change_reopens_but_is_reported(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 12)
            root = log.current_root()
        path = tmp_path / CHECKPOINTS_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        lines[4] = lines[4][:-2] + (b"0" if lines[4][-2:-1] != b"0" else b"1") + b"\n"
        path.write_bytes(b"".join(lines))
        with TransparencyLog(tmp_path) as log:
            assert log.current_root() == root
        assert check_integrity(tmp_path).tampered_at == 4

    @pytest.mark.parametrize("change", ["removed", "doubled"])
    def test_reopen_refuses_a_middle_line_removed_or_doubled(self, tmp_path, change):
        # the last line still reads right; only the file's length shows it
        with TransparencyLog(tmp_path) as log:
            fill(log, 12)
        path = tmp_path / CHECKPOINTS_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5:6] = [] if change == "removed" else [lines[5]] * 2
        path.write_bytes(b"".join(lines))
        with pytest.raises(StorageError, match="checkpoint lines"):
            TransparencyLog(tmp_path)
        assert check_integrity(tmp_path).tampered_at == 5 + (change == "doubled")

    def test_reopen_memory_is_below_the_full_replay(self, tmp_path):
        # the full record replay this replaced peaked at 1.79 MB here on
        # Python 3.11; the index adds no copy of a whole level
        dig = ManifestDigest(bytes.fromhex("5e" * 32))
        with TransparencyLog(tmp_path) as log:
            for i in range(1 << 14):
                log.append(dig, b"\x30" * 71, "k", appended_at=i)
        tracemalloc.start()
        try:
            log = TransparencyLog(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        log.close()
        assert log.reopened == ReopenReport(1 << 14, 0, "kept", 1 << 14)
        assert peak <= 1_800_000

    def test_a_reopen_holds_one_tree(self, tmp_path):
        # a restart that keeps its closed handle, and a reopen that rejects
        # its index and rebuilds, hold one tree at their peak; two would be
        # 1.8x a clean reopen's peak at 2^14 entries (at 2^12 the reads of
        # log.records are half the peak, and two trees read only 1.5x)
        dig = ManifestDigest(bytes.fromhex("5e" * 32))
        with TransparencyLog(tmp_path) as log:
            for i in range(1 << 14):
                log.append(dig, b"\x30" * 71, "k", appended_at=i)

        def peak_of_reopen():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            log = TransparencyLog(tmp_path)
            return log, tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            closed, clean = peak_of_reopen()
            closed.close()
            again, _ = peak_of_reopen()
            restart = tracemalloc.get_traced_memory()[1] - base
            again.close()
            with open(tmp_path / LEAVES_NAME, "r+b") as fh:
                fh.seek(100)
                byte = fh.read(1)
                fh.seek(100)
                fh.write(bytes([byte[0] ^ 0x01]))
            rebuilt, rebuild = peak_of_reopen()
            rebuilt.close()
        finally:
            tracemalloc.stop()
        assert closed.reopened.index == again.reopened.index == "kept"
        assert rebuilt.reopened == ReopenReport(0, 1 << 14, "rebuilt", 0)
        assert restart < 1.5 * clean
        assert rebuild < 1.5 * clean


class TestTamperDetection:
    def test_clean_log_verifies(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 20)
        report = check_integrity(tmp_path)
        assert report.ok
        assert report.tampered_at is None

    def test_every_record_byte_flip_is_detected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 12)
        path = tmp_path / RECORDS_NAME
        original = path.read_bytes()
        # map each byte offset to the record it belongs to
        owner = {}
        pos, idx = 0, 0
        while pos < len(original):
            (length,) = _LEN.unpack_from(original, pos)
            for off in range(pos + _LEN.size, pos + _LEN.size + length):
                owner[off] = idx
            pos += _LEN.size + length
            idx += 1
        for offset in owner:
            corrupted = bytearray(original)
            corrupted[offset] ^= 0x01
            path.write_bytes(bytes(corrupted))
            report = check_integrity(tmp_path)
            assert not report.ok
            assert report.tampered_at == owner[offset]
        path.write_bytes(original)
        assert check_integrity(tmp_path).ok

    def test_length_prefix_damage_is_detected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
        path = tmp_path / RECORDS_NAME
        original = path.read_bytes()
        corrupted = bytearray(original)
        corrupted[0] ^= 0xFF  # first record's length prefix
        path.write_bytes(bytes(corrupted))
        assert not check_integrity(tmp_path).ok

    def test_checkpoint_flips_are_detected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
        path = tmp_path / CHECKPOINTS_NAME
        original = path.read_text()
        lines = original.splitlines()
        for lineno in (0, 4, 9):
            size, root_hex = lines[lineno].split()
            doctored = list(lines)
            doctored[lineno] = f"{size} {'0' if root_hex[0] != '0' else '1'}{root_hex[1:]}"
            path.write_text("\n".join(doctored) + "\n")
            report = check_integrity(tmp_path)
            assert not report.ok
            assert report.tampered_at == lineno
        path.write_text(original)
        assert check_integrity(tmp_path).ok

    def test_every_checkpoint_substitution_is_detected(self, tmp_path):
        # Case flips and whitespace swaps leave a line that a lenient parser
        # reads back as the same values; every one must still be reported.
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
        path = tmp_path / CHECKPOINTS_NAME
        original = path.read_bytes()
        missed = []
        for pos, byte in enumerate(original):
            line = original.count(b"\n", 0, pos)
            swaps = {bytes([byte]).swapcase()[0], byte ^ 1, *b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "}
            for new in swaps - {byte}:
                path.write_bytes(original[:pos] + bytes([new]) + original[pos + 1 :])
                report = check_integrity(tmp_path)
                if report.ok or report.tampered_at != line:
                    missed.append((pos, byte, new))
        path.write_bytes(original)
        assert check_integrity(tmp_path).ok
        assert missed == []

    def test_every_cut_of_the_last_append_is_detected(self, tmp_path):
        # a crash in the middle of the last append leaves one file cut short
        with TransparencyLog(tmp_path) as log:
            fill(log, 10)
        records, checkpoints = tmp_path / RECORDS_NAME, tmp_path / CHECKPOINTS_NAME
        original_records, original_checkpoints = records.read_bytes(), checkpoints.read_bytes()
        last_record = naive_records(tmp_path)[-1]
        record_start = len(original_records) - _LEN.size - len(last_record)
        line_start = original_checkpoints.rindex(b"\n", 0, -1) + 1
        cuts = [(records, original_records, cut) for cut in range(record_start, len(original_records))]
        cuts += [
            (checkpoints, original_checkpoints, cut)
            for cut in range(line_start, len(original_checkpoints))
        ]
        for path, original, cut in cuts:
            path.write_bytes(original[:cut])
            assert check_integrity(tmp_path).tampered_at == 9, (path.name, cut)
            with pytest.raises(StorageError):
                TransparencyLog(tmp_path)
            path.write_bytes(original)
        assert check_integrity(tmp_path).ok

    def test_record_removal_is_detected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
        path = tmp_path / RECORDS_NAME
        data = path.read_bytes()
        (first_len,) = _LEN.unpack_from(data, 0)
        path.write_bytes(data[_LEN.size + first_len :])
        assert not check_integrity(tmp_path).ok

    def test_checkpoint_truncation_is_detected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
        path = tmp_path / CHECKPOINTS_NAME
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert not check_integrity(tmp_path).ok

    def test_record_swap_is_detected(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 6)
        path = tmp_path / RECORDS_NAME
        records = naive_records(tmp_path)
        records[1], records[2] = records[2], records[1]
        blob = b"".join(_LEN.pack(len(r)) + r for r in records)
        path.write_bytes(blob)
        report = check_integrity(tmp_path)
        assert not report.ok
        assert report.tampered_at == 1

    def test_missing_files_reported(self, tmp_path):
        assert not check_integrity(tmp_path).ok

    def test_ops_stay_logarithmic_per_append(self, tmp_path):
        _kernels.reset_ops()
        with TransparencyLog(tmp_path) as log:
            fill(log, 1024)
        per_append = _kernels.ops() / 1024
        # leaf + peak merges amortize to ~2 + popcount churn; root
        # folding adds the peak count. A naive rebuild would cost ~n per
        # append, three orders of magnitude more at this size.
        assert per_append < 15


#: A checkpoint line exactly as ``append`` writes it, for the reference replay.
_REFERENCE_LINE = re.compile(rb"([1-9][0-9]*) (?P<root>[0-9a-f]{64})\n")


class _Damaged(Exception):
    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def _reference_frames(data):
    """The records of a records file in order; ``_Damaged`` at the first one that breaks."""
    pos = index = 0
    while pos < len(data):
        if len(data) - pos < _LEN.size:
            raise _Damaged(index, f"truncated length prefix at record {index}")
        (length,) = _LEN.unpack_from(data, pos)
        end = pos + _LEN.size + length
        if length > MAX_RECORD_BYTES or end > len(data):
            raise _Damaged(index, f"truncated or oversized record {index}")
        yield data[pos + _LEN.size : end]
        pos, index = end, index + 1


def reference_check(directory):
    """``(ok, tampered_at)`` of an entry-by-entry replay: the first entry that fails.

    Entry i fails when its record does not frame, when line i is missing or
    not exactly as ``append`` writes it for size i + 1, or when its root
    differs from the replay's; a line after the last record fails at its
    own index.
    """
    try:
        records = (directory / RECORDS_NAME).read_bytes()
        checkpoints = io.BytesIO((directory / CHECKPOINTS_NAME).read_bytes())
    except OSError:
        return False, None
    peaks, index = [], 0
    try:
        for record in _reference_frames(records):
            line = _REFERENCE_LINE.fullmatch(checkpoints.readline(256))
            if line is None or int(line[1]) != index + 1:
                return False, index
            node = hashlib.sha256(b"\x00" + record).digest()
            trailing = index
            while trailing & 1:
                node = hashlib.sha256(b"\x01" + peaks.pop() + node).digest()
                trailing >>= 1
            peaks.append(node)
            root = peaks[-1]
            for peak in reversed(peaks[:-1]):
                root = hashlib.sha256(b"\x01" + peak + root).digest()
            if line["root"] != root.hex().encode():
                return False, index
            index += 1
    except _Damaged as exc:
        return False, exc.index
    if checkpoints.read(1):
        return False, index
    return True, None


#: Entries of the log that the reopen framing property damages.
FRAMED = 40


@pytest.fixture(scope="module")
def framed_log(tmp_path_factory):
    """A closed FRAMED-entry log's files, and the state reopening it restores."""
    directory = tmp_path_factory.mktemp("framed")
    with TransparencyLog(directory) as log:
        fill(log, FRAMED)
    files = log_files(directory)
    with TransparencyLog(directory) as log:
        restored = log_state(log)
        starts = [start for _, start in log.growth_series(range(FRAMED))]
    return files, restored, starts


@contextlib.contextmanager
def reads_of(chunk):
    """``log.records`` read ``chunk`` bytes at a time, both to frame records and
    to check stored record ends; the default chunk keeps both defaults."""
    ends_read = translog._ENDS_READ if chunk == translog._CHUNK else chunk
    with mock.patch.object(translog, "_CHUNK", chunk), mock.patch.object(
        translog, "_ENDS_READ", ends_read
    ):
        yield


def stored_ends_taken(leaves, ends, true_ends):
    """``offsets_from_index`` of a reopen that takes ``leaves`` from the index
    and finds ``ends`` in ``log.offsets``, when the records end at ``true_ends``.

    The first min(stored ends, leaves) ends are taken if every one is right,
    and none otherwise.
    """
    taken = min(len(ends) // 8, leaves)
    return taken if ends[: 8 * taken] == true_ends[: 8 * taken] else 0


class TestReopenFraming:
    """Reopen frames damaged records exactly as the reference framer does,
    whatever ``log.offsets`` holds."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_damage_fails_at_the_reference_index(self, framed_log, data):
        files, restored, starts = framed_log
        records = bytearray(files[RECORDS_NAME])
        kind = data.draw(
            st.sampled_from(["none", "cut", "prefix flip", "garbage"]), label="kind"
        )
        if kind == "cut":
            del records[data.draw(st.integers(0, len(records)), label="at") :]
        elif kind == "prefix flip":
            at = data.draw(st.sampled_from(starts), label="record") + data.draw(
                st.integers(0, _LEN.size - 1), label="byte"
            )
            records[at] ^= data.draw(st.integers(1, 255), label="mask")
        elif kind == "garbage":
            records += data.draw(st.binary(min_size=1, max_size=2 * _LEN.size), label="garbage")
        leaves = files[LEAVES_NAME]
        index = data.draw(st.sampled_from(["complete", "cut", "absent"]), label="index")
        if index == "cut":
            leaves = leaves[: data.draw(st.integers(0, len(leaves) - 1), label="index cut")]
        ends = bytearray(files[OFFSETS_NAME])
        offsets = data.draw(
            st.sampled_from(["complete", "cut", "flipped", "shifted", "absent"]), label="offsets"
        )
        if offsets == "cut":
            del ends[data.draw(st.integers(0, len(ends) - 1), label="offsets cut") :]
        elif offsets == "flipped":
            at = data.draw(st.integers(0, len(ends) - 1), label="offsets byte")
            ends[at] ^= data.draw(st.integers(1, 255), label="offsets mask")
        elif offsets == "shifted":
            # spaced as the records are, but each end is off by the shift
            shift = data.draw(st.integers(-3, 3).filter(bool), label="shift")
            ends = b"".join(
                struct.pack("<Q", end + shift)
                for (end,) in struct.iter_unpack("<Q", ends)
            )
        # small chunks put record ends and length prefixes across reads
        chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")
        try:
            for _ in _reference_frames(bytes(records)):
                pass
        except _Damaged as exc:
            damaged = exc
        else:
            damaged = None
        with tempfile.TemporaryDirectory() as tmp, reads_of(chunk):
            directory = Path(tmp)
            (directory / RECORDS_NAME).write_bytes(records)
            (directory / CHECKPOINTS_NAME).write_bytes(files[CHECKPOINTS_NAME])
            if index != "absent":
                (directory / LEAVES_NAME).write_bytes(leaves)
            if offsets != "absent":
                (directory / OFFSETS_NAME).write_bytes(ends)
            before = log_files(directory)
            if damaged is not None:
                with pytest.raises(translog.LogDamage) as raised:
                    TransparencyLog(directory)
                assert (raised.value.index, str(raised.value)) == (damaged.index, str(damaged))
                # a refused reopen leaves every file as it was
                assert log_files(directory) == before
            elif records == files[RECORDS_NAME]:
                with TransparencyLog(directory) as log:
                    assert log_state(log) == restored
                    taken = stored_ends_taken(
                        len(leaves) // _kernels.HASH_SIZE if index != "absent" else 0,
                        ends if offsets != "absent" else b"",
                        files[OFFSETS_NAME],
                    )
                    assert log.reopened.offsets_from_index == taken
                    if index == "complete" and offsets in ("flipped", "shifted"):
                        assert taken == 0
            else:
                # frames cleanly into other records: the checkpoints disagree
                with pytest.raises(StorageError) as raised:
                    TransparencyLog(directory)
                assert not isinstance(raised.value, translog.LogDamage)

    def test_a_stored_end_past_an_oversized_record_is_refused(self, tmp_path):
        # every stored end matches its length prefix, but the last prefix is
        # over the cap: framing refuses that record, and so does the check
        with TransparencyLog(tmp_path) as log:
            fill(log, 3)
            end = log.storage_bytes
        body = bytes(MAX_RECORD_BYTES + 1)
        for name, data in ((RECORDS_NAME, _LEN.pack(len(body)) + body),
                           (OFFSETS_NAME, struct.pack("<Q", end + _LEN.size + len(body))),
                           (LEAVES_NAME, oracle_leaf(body))):
            with open(tmp_path / name, "ab") as fh:
                fh.write(data)
        with pytest.raises(translog.LogDamage, match="^truncated or oversized record 3$") as raised:
            TransparencyLog(tmp_path)
        assert raised.value.index == 3


#: Three times SPAN entries and a few more: three default reads of
#: ``log.records`` and the start of a fourth.
CHECKED = 3 * SPAN + 4


@pytest.fixture(scope="module")
def checked_log(tmp_path_factory):
    """The records and checkpoint lines of a closed CHECKED-entry log."""
    directory = tmp_path_factory.mktemp("checked")
    with TransparencyLog(directory) as log:
        fill(log, CHECKED)
    records = naive_records(directory)
    lines = (directory / CHECKPOINTS_NAME).read_bytes().splitlines(keepends=True)
    assert len(records) == len(lines) == CHECKED
    return records, lines


def damaged(records, lines, kind, entry, at):
    """The two files of a log of ``records`` and ``lines``, damaged once at ``entry``.

    ``at`` picks a byte of the entry's framed record or line where the kind
    needs one.
    """
    framed = [_LEN.pack(len(r)) + r for r in records]
    lines = list(lines)
    if kind == "record flip":
        blob = bytearray(framed[entry])
        blob[at % len(blob)] ^= 0x01
        framed[entry] = bytes(blob)
    elif kind == "byte inserted":
        blob = framed[entry]
        pos = at % len(blob)
        # unlike the byte it precedes, so the entry's own record changes
        framed[entry] = blob[:pos] + bytes([blob[pos] ^ (at % 255 + 1)]) + blob[pos:]
    elif kind == "byte deleted":
        blob = framed[entry]
        pos = at % len(blob)
        framed[entry] = blob[:pos] + blob[pos + 1 :]
    elif kind == "record cut":
        framed[entry] = framed[entry][: at % len(framed[entry])]
        del framed[entry + 1 :]
    elif kind == "line cut":
        lines[entry] = lines[entry][: at % len(lines[entry])]
        del lines[entry + 1 :]
    elif kind == "line byte":
        line = bytearray(lines[entry])
        pos = at % len(line)
        # a case flip or a whitespace swap, or any other byte
        line[pos] = b" \t"[line[pos] == 0x20] if at % 3 == 0 else (line[pos] ^ (at % 255 + 1))
        lines[entry] = bytes(line)
    elif kind == "line removed":
        del lines[entry]
    elif kind == "line doubled":
        lines.insert(entry, lines[entry])
    elif kind == "record swap":
        other = entry + 1 if entry + 1 < len(framed) else entry - 1
        framed[entry], framed[other] = framed[other], framed[entry]
    elif kind in GARBAGE_KINDS:
        # one to eight bytes after the last entry: four zero bytes frame an empty record
        garbage = (at & 0xFF).to_bytes(1, "big") * (at % 8 + 1)
        (framed if kind == "records garbage" else lines).append(garbage)
    else:
        raise AssertionError(kind)
    return b"".join(framed), b"".join(lines)


DAMAGE_KINDS = (
    "record flip", "record cut", "line cut", "line byte", "line removed", "line doubled",
    "record swap", "byte inserted", "byte deleted",
)

#: Kinds that change bytes of the entry's own framed record, length prefix
#: included, and nothing before it: the check names that entry.
RECORD_DAMAGE = ("record flip", "byte inserted", "byte deleted")

#: Bytes appended to either file; ``damaged`` ignores the entry for these.
GARBAGE_KINDS = ("records garbage", "checkpoints garbage")


def write_log(directory, records_blob, checkpoints_blob):
    (directory / RECORDS_NAME).write_bytes(records_blob)
    (directory / CHECKPOINTS_NAME).write_bytes(checkpoints_blob)


def clean_files(records, lines, n):
    """The two files of the first ``n`` entries of a log of ``records`` and ``lines``."""
    return b"".join(_LEN.pack(len(r)) + r for r in records[:n]), b"".join(lines[:n])


def full_check_hashes(n):
    """The hashes of a full check of n entries.

    A leaf hash per entry, n - popcount(n) merges in all, and
    popcount(m) - 1 folds for the root at every size m.
    """
    return 2 * n - n.bit_count() + sum(m.bit_count() - 1 for m in range(1, n + 1))


def report_of(directory):
    report = check_integrity(directory)
    return report.ok, report.tampered_at, report.detail


def check_both(records_blob, checkpoints_blob):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_log(directory, records_blob, checkpoints_blob)
        report = check_integrity(directory)
        return (report.ok, report.tampered_at), reference_check(directory)


def first_read_holds(records, chunk):
    """How many of ``records`` the first read of ``log.records`` holds whole, at ``chunk`` bytes a read."""
    return bisect.bisect_right(list(itertools.accumulate(_LEN.size + len(r) for r in records)), chunk)


class TestReadCheck:
    """``check_integrity`` one read of ``log.records`` at a time: the same hashes and the same reports."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("n", [0, 1, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN - 1, 4 * SPAN + 1])
    def test_hash_count_is_the_entry_by_entry_count(self, tmp_path, chunk, n):
        dig = ManifestDigest(bytes.fromhex("a7" * 32))
        with TransparencyLog(tmp_path) as log:
            for i in range(n):
                log.append(dig, b"\x30" * 71, "k", appended_at=i)
        before = _kernels.ops()
        with mock.patch.object(translog, "_CHUNK", chunk):
            assert check_integrity(tmp_path).ok
        assert _kernels.ops() - before == full_check_hashes(n)

    @pytest.mark.parametrize("n", [0, 1, SPAN - 1, SPAN, SPAN + 1, CHECKED])
    def test_clean_prefixes_verify(self, checked_log, n):
        records, lines = checked_log
        framed = b"".join(_LEN.pack(len(r)) + r for r in records[:n])
        got, want = check_both(framed, b"".join(lines[:n]))
        assert got == want == (True, None)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("past", [1, 2])
    @pytest.mark.parametrize("kind", DAMAGE_KINDS)
    def test_damage_next_to_a_read_boundary_is_reported_as_before(
        self, checked_log, chunk, past, kind
    ):
        records, lines = checked_log
        # the first read ends inside entry `split`; a chunk shorter than a
        # record ends a read inside every one
        split = max(first_read_holds(records, chunk), 2)
        n = split + past
        with mock.patch.object(translog, "_CHUNK", chunk):
            for entry in range(split - 2, n):
                for at in (0, 3, 5, 40, 130):
                    got, want = check_both(*damaged(records[:n], lines[:n], kind, entry, at))
                    assert got == want, (kind, entry, at)
                    assert not got[0]
                    if kind in RECORD_DAMAGE:
                        assert got[1] == entry, (kind, entry, at)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_damage_is_reported_as_before(self, checked_log, data):
        records, lines = checked_log
        kind = data.draw(st.sampled_from(DAMAGE_KINDS), label="kind")
        # a swap needs two records
        n = data.draw(st.integers(2 if kind == "record swap" else 1, CHECKED), label="entries")
        chunk = data.draw(st.sampled_from(CHUNKS), label="chunk")
        split = first_read_holds(records, chunk)
        near_boundary = [split + step for step in (-2, -1, 0, 1) if 0 <= split + step < n]
        entry = data.draw(
            st.sampled_from(near_boundary) if near_boundary and data.draw(st.booleans())
            else st.integers(0, n - 1),
            label="entry",
        )
        at = data.draw(st.integers(0, 1 << 16), label="at")
        with mock.patch.object(translog, "_CHUNK", chunk):
            got, want = check_both(*damaged(records[:n], lines[:n], kind, entry, at))
        assert got == want
        assert not got[0]
        if kind in RECORD_DAMAGE:
            assert got[1] == entry

    def test_reads_only_the_records_and_checkpoints_and_writes_nothing(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, SPAN + 3)
        for name in (LEAVES_NAME, OFFSETS_NAME):
            (tmp_path / name).write_bytes(b"\xff" * 7)
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
        assert check_integrity(tmp_path).ok
        for name in (LEAVES_NAME, OFFSETS_NAME):
            (tmp_path / name).unlink()
            del before[name]
        assert check_integrity(tmp_path).ok
        after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in tmp_path.iterdir()}
        assert after == before


class TestResumedCheck:
    """A re-check resumes after the last ok check of its directory, reporting as a full check."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_resumed_check_reports_as_a_full_check(self, checked_log, data):
        records, lines = checked_log
        kind = data.draw(st.sampled_from(DAMAGE_KINDS + GARBAGE_KINDS), label="kind")
        # a swap needs two records
        n = data.draw(st.integers(2 if kind == "record swap" else 1, CHECKED), label="entries")
        held = data.draw(st.integers(0, n), label="held")
        # damage on either side of the held size
        sides = [st.integers(0, held - 1)] if held else []
        if held < n:
            sides.append(st.integers(held, n - 1))
        entry = data.draw(st.one_of(sides), label="entry")
        at = data.draw(st.integers(0, 1 << 16), label="at")
        blobs = damaged(records[:n], lines[:n], kind, entry, at)
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as fresh:
            directory = Path(tmp)
            write_log(directory, *clean_files(records, lines, held))
            assert report_of(directory) == (True, None, f"{held} entries verified")
            write_log(directory, *blobs)
            got = report_of(directory)
            assert got[:2] == reference_check(directory)
            write_log(Path(fresh), *blobs)
            assert got == report_of(Path(fresh))
            assert not got[0]
            if kind in RECORD_DAMAGE:
                assert got[1] == entry

    @pytest.mark.parametrize(
        "held, n",
        [(0, 0), (0, 1), (5, 5), (1, SPAN), (SPAN - 1, SPAN + 1),
         (SPAN, 2 * SPAN), (300, CHECKED), (CHECKED, CHECKED)],
    )
    def test_a_clean_resumed_check_costs_the_new_entries_hashes(
        self, checked_log, tmp_path, held, n
    ):
        records, lines = checked_log
        write_log(tmp_path, *clean_files(records, lines, held))
        assert check_integrity(tmp_path).ok
        write_log(tmp_path, *clean_files(records, lines, n))
        for cost in (full_check_hashes(n) - full_check_hashes(held), 0):
            before = _kernels.ops()
            assert report_of(tmp_path) == (True, None, f"{n} entries verified")
            assert _kernels.ops() - before == cost

    def test_a_log_grown_by_appends_is_rechecked_at_the_new_entries_cost(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 300)
            assert check_integrity(tmp_path).ok
            fill(log, 200, start=300)
            before = _kernels.ops()
            assert check_integrity(tmp_path).ok
            assert _kernels.ops() - before == full_check_hashes(500) - full_check_hashes(300)

    @pytest.mark.parametrize("name, at", [(RECORDS_NAME, 10), (RECORDS_NAME, -10),
                                          (CHECKPOINTS_NAME, 5), (CHECKPOINTS_NAME, -5)])
    def test_a_damaged_then_restored_log_is_checked_exactly(self, tmp_path, name, at):
        with TransparencyLog(tmp_path) as log:
            fill(log, SPAN + 9)
        path = tmp_path / name
        clean = path.read_bytes()
        assert check_integrity(tmp_path).ok
        broken = bytearray(clean)
        broken[at] ^= 0x01
        path.write_bytes(broken)
        report = check_integrity(tmp_path)
        assert (report.ok, report.tampered_at) == reference_check(tmp_path)
        assert not report.ok
        path.write_bytes(clean)
        # the failed check dropped the held state: the full check runs, then holds again
        for cost in (full_check_hashes(SPAN + 9), 0):
            before = _kernels.ops()
            assert check_integrity(tmp_path).ok
            assert _kernels.ops() - before == cost

    def test_at_most_held_checks_directories_are_held(self, tmp_path):
        directories = [tmp_path / str(i) for i in range(translog.HELD_CHECKS + 3)]
        for directory in directories:
            TransparencyLog(directory).close()
            assert check_integrity(directory).ok
        assert list(translog._held)[-translog.HELD_CHECKS:] == [
            os.path.realpath(d) for d in directories[-translog.HELD_CHECKS:]
        ]
        assert len(translog._held) == translog.HELD_CHECKS


#: Key ids the log machine appends with: one is not ASCII.
MACHINE_KEYS = ("k", "op-1", 'q"\\é')

_MACHINE_DIG = ManifestDigest(bytes(32))

#: Appends the log machine makes that must be refused: the error and the
#: arguments.  The oversized one's record is ``MAX_RECORD_BYTES + 1`` bytes.
REFUSED_APPENDS = {
    "raw-digest": (EncodingError, (bytes(32), b"\x01", "k", 1)),
    "str-signature": (EncodingError, (_MACHINE_DIG, "01", "k", 1)),
    "bytes-key": (EncodingError, (_MACHINE_DIG, b"\x01", b"k", 1)),
    "float-time": (EncodingError, (_MACHINE_DIG, b"\x01", "k", 1.0)),
    "bool-time": (EncodingError, (_MACHINE_DIG, b"\x01", "k", True)),
    "oversized": (
        StorageError,
        (_MACHINE_DIG, bytes(MAX_RECORD_BYTES + 1 - len(spec_record(0, bytes(32), b"", "k", 1))),
         "k", 1),
    ),
    "lone-surrogate": (EncodingError, (_MACHINE_DIG, b"\x01", "k\ud800", 1)),
    "time-2^63": (EncodingError, (_MACHINE_DIG, b"\x01", "k", 2**63)),
}


class LogMachine(RuleBasedStateMachine):
    """Appends, reads, reopens, checks and damage in any order, against the entries appended.

    A record's bytes are rebuilt by ``spec_record`` and its leaf and root by
    the oracles, so the model needs nothing from the package.  A flipped
    byte of ``log.records`` or ``log.checkpoints`` is damage until it is
    flipped back; a flipped byte of, a cut of or a missing ``log.leaves`` or
    ``log.offsets`` is not, and a reopen reports what it found in each.
    """

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.records: list[bytes] = []
        self.leaves: list[bytes] = []
        # where each framed record and each checkpoint line starts, and the
        # ends of both files
        self.starts = {RECORDS_NAME: [0], CHECKPOINTS_NAME: [0]}
        self.flips: list[tuple[str, int, int]] = []
        self.log = TransparencyLog(self.dir)
        # what the open handle's reopen must report, when the model knows it
        self.reopened = None

    def teardown(self):
        if self.log is not None:
            self.log.close()
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()

    @precondition(lambda self: self.log is not None)
    @rule(count=st.integers(1, 40), at=st.integers(-(1 << 41), 1 << 41))
    def append(self, count, at):
        for _ in range(count):
            index = len(self.leaves)
            key = MACHINE_KEYS[index % len(MACHINE_KEYS)]
            dig, signature = hashlib.sha256(b"%d" % index).digest(), bytes([index % 256]) * 9
            self.log.append(ManifestDigest(dig), signature, key, appended_at=at + index)
            self.records.append(spec_record(index, dig, signature, key, at + index))
            self.leaves.append(oracle_leaf(self.records[-1]))
            for name, length in ((RECORDS_NAME, _LEN.size + len(self.records[-1])),
                                 (CHECKPOINTS_NAME, len(b"%d " % (index + 1)) + 65)):
                self.starts[name].append(self.starts[name][-1] + length)

    @precondition(lambda self: self.log is not None)
    @rule(case=st.sampled_from(sorted(REFUSED_APPENDS)))
    def refused_append(self, case):
        error, args = REFUSED_APPENDS[case]
        before = log_files(self.dir)
        with pytest.raises(error):
            self.log.append(*args[:3], appended_at=args[3])
        assert self.log.size == len(self.leaves)
        assert self.log.current_root().value == oracle_root(self.leaves)
        assert log_files(self.dir) == before

    @rule(chunk=st.sampled_from(CHUNKS), read=st.sampled_from(sorted(CLOSED_READS)))
    def reopen(self, chunk, read):
        # the closed handle stays referenced through the reopen, as in a restart
        closed, self.log = self.log, None
        if closed is not None:
            closed.close()
        self.reopened = None if self.flips else self.expected_reopen()
        with reads_of(chunk):
            try:
                self.log = TransparencyLog(self.dir)
            except StorageError:
                # only damage refuses a reopen; the invariant checks what loads
                assert self.flips
        if closed is not None:
            with pytest.raises(StorageError, match="closed"):
                CLOSED_READS[read](closed)

    @precondition(lambda self: self.log is not None and self.leaves and not self.flips)
    @rule(data=st.data())
    def read(self, data):
        size = data.draw(st.integers(1, len(self.leaves)), label="size")
        index = data.draw(st.integers(0, size - 1), label="index")
        root = MerkleRoot(oracle_root(self.leaves[:size]), size)
        assert self.log.root_at(size) == root
        entry = self.log.entry(index)
        fields = (entry.index, entry.manifest_digest, entry.signature, entry.key_id,
                  entry.appended_at)
        assert LogEntry(*fields).to_record() == self.records[index]
        proof = self.log.prove_inclusion(index, size)
        assert verify_inclusion(self.leaves[index], proof, root)

    @rule(chunk=st.sampled_from(CHUNKS), times=st.integers(1, 2))
    def check(self, chunk, times):
        # a second check re-checks from the state the first one held
        for _ in range(times):
            with mock.patch.object(translog, "_CHUNK", chunk):
                report = check_integrity(self.dir)
            assert (report.ok, report.tampered_at) == reference_check(self.dir)
            if not self.flips:
                assert report == translog.IntegrityReport(
                    True, None, f"{len(self.leaves)} entries verified"
                )

    @precondition(lambda self: self.leaves)
    @rule(name=st.sampled_from([RECORDS_NAME, CHECKPOINTS_NAME]), data=st.data())
    def flip(self, name, data):
        path = self.dir / name
        blob = bytearray(path.read_bytes())
        # any byte, or one next to where a record or a line starts: a length
        # prefix, a newline
        starts = self.starts[name]
        near = [start + step for start in starts for step in (-1, 0, 1, 2, 3)]
        at = data.draw(
            st.one_of(st.integers(0, len(blob) - 1),
                      st.sampled_from([at for at in near if 0 <= at < len(blob)])),
            label="at",
        )
        mask = data.draw(st.integers(1, 255), label="mask")
        blob[at] ^= mask
        path.write_bytes(blob)
        self.flips.append((name, at, mask))

    @precondition(lambda self: self.flips)
    @rule()
    def restore(self):
        for name, at, mask in reversed(self.flips):
            path = self.dir / name
            blob = bytearray(path.read_bytes())
            blob[at] ^= mask
            path.write_bytes(blob)
        self.flips.clear()

    def expected_reopen(self):
        """The report of a reopen of the log's files as they are now, none damaged.

        Leaves are taken from the index up to as many as the records file
        could hold; if one is wrong the tree is rebuilt without either
        derived file.  Otherwise the index is kept when it holds exactly the
        leaves, and the stored ends are taken for the leaves it gives.
        """
        derived = {name: (self.dir / name).read_bytes() if (self.dir / name).exists() else b""
                   for name in (LEAVES_NAME, OFFSETS_NAME)}
        index, n = derived[LEAVES_NAME], len(self.leaves)
        stored = min(len(index) // _kernels.HASH_SIZE, self.starts[RECORDS_NAME][-1] // _LEN.size)
        taken = min(stored, n)
        if index[: taken * _kernels.HASH_SIZE] != b"".join(self.leaves[:taken]):
            return ReopenReport(0, n, "rebuilt", 0)
        if len(index) == n * _kernels.HASH_SIZE:
            action = "kept"
        else:
            action = "extended" if taken < n else "trimmed"
        true_ends = b"".join(struct.pack("<Q", end) for end in self.starts[RECORDS_NAME][1:])
        return ReopenReport(
            taken, n - taken, action, stored_ends_taken(stored, derived[OFFSETS_NAME], true_ends)
        )

    @rule(name=st.sampled_from([LEAVES_NAME, OFFSETS_NAME]), delete=st.booleans(),
          data=st.data())
    def cut_derived(self, name, delete, data):
        path = self.dir / name
        if not path.exists():
            return
        if delete:
            path.unlink()
        else:
            os.truncate(path, data.draw(st.integers(0, path.stat().st_size), label="keep"))

    @rule(name=st.sampled_from([LEAVES_NAME, OFFSETS_NAME]), data=st.data())
    def flip_derived(self, name, data):
        path = self.dir / name
        blob = bytearray(path.read_bytes()) if path.exists() else b""
        if not blob:
            return
        blob[data.draw(st.integers(0, len(blob) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="mask"
        )
        path.write_bytes(blob)

    @invariant()
    def handle_holds_the_model(self):
        if self.log is not None:
            assert self.log.size == len(self.leaves)
            assert self.log.current_root().value == oracle_root(self.leaves)

    @invariant()
    def reopen_reports_what_each_derived_file_held(self):
        if self.log is not None and self.reopened is not None:
            assert self.log.reopened == self.reopened


LogMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
TestLogMachine = LogMachine.TestCase
