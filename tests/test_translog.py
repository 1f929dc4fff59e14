"""Transparency log tests.

Roots are checked against a naive oracle that re-parses the raw records file
with struct and rebuilds the tree recursively from hashlib alone, so these
tests do not trust the kernels the log itself uses.  Proofs and historical
roots are compared byte for byte with the recursive RFC 9162 oracles of
``test_kernels``.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import oracle_leaf, oracle_path, oracle_root

from manifestd import translog

from manifestd import _kernels
from manifestd.errors import OutOfRange, StorageError
from manifestd.manifest import Manifest, ManifestDigest, digest
from manifestd.translog import (
    CHAIN_GENESIS,
    CHECKPOINTS_NAME,
    LEAVES_NAME,
    MAX_RECORD_BYTES,
    RECORDS_NAME,
    TILE_LEAVES,
    LogEntry,
    MerkleProof,
    MerkleRoot,
    ReopenReport,
    TransparencyLog,
    check_integrity,
    empty_root,
    verify_consistency,
    verify_inclusion,
)

_LEN = struct.Struct(">I")


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


def naive_chain(records):
    state = bytes(32)
    for r in records:
        state = hashlib.sha256(state + hashlib.sha256(b"\x00" + r).digest()).digest()
    return state


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
            assert log.chain_value() == CHAIN_GENESIS

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 20, 33])
    def test_root_matches_naive_rebuild(self, tmp_path, n):
        with TransparencyLog(tmp_path) as log:
            fill(log, n)
            expected = naive_root(naive_records(tmp_path))
            assert log.current_root().value == expected
            assert log.current_root().tree_size == n

    def test_chain_matches_naive_rebuild(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 17)
            assert log.chain_value() == naive_chain(naive_records(tmp_path))

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
                size, root_hex, chain_hex = line.split()
                assert int(size) == i + 1
                assert root_hex == roots[i].hex
                assert len(chain_hex) == 64

    def test_entry_round_trip(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 9)
            e = log.entry(4)
            assert e.index == 4
            assert e.key_id == "k1"
            assert e.appended_at == 2_004
            listed = list(log.entries(2, 5))
            assert [x.index for x in listed] == [2, 3, 4]

    def test_record_round_trip_is_exact(self):
        m = Manifest({"q": "x"}, {}, 1, "t")
        entry = LogEntry(3, digest(m), b"\xab\xcd", "key-9", 777)
        assert LogEntry.from_record(entry.to_record()) == entry
        with pytest.raises(StorageError):
            LogEntry.from_record(b"{not json")

    @settings(max_examples=300)
    @given(
        key_id=st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
        index=st.integers(0, 2**80),
        appended_at=st.integers(-(2**80), 2**80),
        signature=st.binary(max_size=80),
    )
    def test_record_bytes_are_json_dumps_bytes(self, key_id, index, appended_at, signature):
        # quotes, backslashes, control and non-ASCII characters included
        dig = ManifestDigest.from_hex("5e" * 32)
        obj = {
            "index": index,
            "manifest_digest": dig.hex,
            "signature": signature.hex(),
            "key_id": key_id,
            "appended_at": appended_at,
        }
        expected = json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
        assert LogEntry(index, dig, signature, key_id, appended_at).to_record() == expected

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
            sibling, side = evil[0]
            evil[0] = (hashlib.sha256(b"swap").digest(), side)
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

    def test_entry_after_close_raises_storage_error(self, tmp_path):
        log = TransparencyLog(tmp_path)
        fill(log, 2)
        log.close()
        with pytest.raises(StorageError):
            log.entry(1)

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
        # the records, checkpoints and index writers, opened before the reader
        assert len(opened) == 3
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


class TestPersistence:
    def test_reopen_restores_state(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 13)
            size, root, chain = log.size, log.current_root(), log.chain_value()

        with TransparencyLog(tmp_path) as reopened:
            assert reopened.size == size
            assert reopened.current_root() == root
            assert reopened.chain_value() == chain
            assert reopened.entry(7).index == 7

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
        head, root_hex, chain_hex = lines[-1].split()
        forged = root_hex[:-1] + ("0" if root_hex[-1] != "0" else "1")
        lines[-1] = f"{head} {forged} {chain_hex}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StorageError):
            TransparencyLog(tmp_path)

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
        dig = ManifestDigest.from_hex("5e" * 32)
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
    """Everything reopening restores: stored levels, offsets, peaks, edge, chain."""
    return (
        [bytes(level) for level in log._levels],
        list(log._offsets),
        list(log._peaks),
        list(log._edge),
        log.chain_value(),
    )


def log_reads(log):
    """Every root, and every inclusion and consistency proof at the current size."""
    n = log.size
    return (
        [log.root_at(m) for m in range(n + 1)],
        [log.prove_inclusion(i) for i in range(n)],
        [log.prove_consistency(m, n) for m in range(1, n + 1)],
    )


#: More than two full tiles of the index and a partial one.
INDEXED = 2 * TILE_LEAVES + 88


@pytest.fixture(scope="module")
def indexed_log(tmp_path_factory):
    """A closed INDEXED-entry log's files, and what a replay without index restores."""
    directory = tmp_path_factory.mktemp("indexed")
    with TransparencyLog(directory) as log:
        fill(log, INDEXED)
        live = log_state(log)
    files = {
        name: (directory / name).read_bytes()
        for name in (RECORDS_NAME, CHECKPOINTS_NAME, LEAVES_NAME)
    }
    assert files[LEAVES_NAME] == b"".join(oracle_leaf(r) for r in naive_records(directory))
    (directory / LEAVES_NAME).unlink()
    with TransparencyLog(directory) as replayed:
        assert replayed.reopened == ReopenReport(0, INDEXED, "extended")
        expected = (log_state(replayed), log_reads(replayed))
    assert expected[0] == live
    return files, expected, check_integrity(directory)


def reopen_with_index(files, index):
    """Reopen the log's files with ``index`` as its index, or with none.

    Returns the restored state and reads, the reopen report, the index file
    left behind, and the integrity report afterwards.
    """
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name in (RECORDS_NAME, CHECKPOINTS_NAME):
            (directory / name).write_bytes(files[name])
        if index is not None:
            (directory / LEAVES_NAME).write_bytes(index)
        with TransparencyLog(directory) as log:
            restored = (log_state(log), log_reads(log))
            report = log.reopened
        return restored, report, (directory / LEAVES_NAME).read_bytes(), check_integrity(directory)


class TestLeafIndex:
    """A damaged, missing or stale ``log.leaves`` restores the no-index state and is repaired."""

    def check(self, indexed_log, index, report):
        files, expected, integrity = indexed_log
        restored, got_report, left, got_integrity = reopen_with_index(files, index)
        assert got_report == report
        assert restored == expected
        assert left == files[LEAVES_NAME]
        assert got_integrity == integrity

    def test_missing_index(self, indexed_log):
        self.check(indexed_log, None, ReopenReport(0, INDEXED, "extended"))

    def test_complete_index_is_kept(self, indexed_log):
        files = indexed_log[0]
        self.check(indexed_log, files[LEAVES_NAME], ReopenReport(INDEXED, 0, "kept"))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_cut_at_any_byte(self, indexed_log, data):
        index = indexed_log[0][LEAVES_NAME]
        cut = data.draw(st.integers(0, len(index) - 1))
        k = cut // _kernels.HASH_SIZE
        self.check(indexed_log, index[:cut], ReopenReport(k, INDEXED - k, "extended"))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_with_extra_bytes(self, indexed_log, data):
        index = indexed_log[0][LEAVES_NAME]
        extra = data.draw(st.binary(min_size=1, max_size=3 * _kernels.HASH_SIZE))
        self.check(indexed_log, index + extra, ReopenReport(INDEXED, 0, "trimmed"))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_with_any_byte_flipped(self, indexed_log, data):
        index = bytearray(indexed_log[0][LEAVES_NAME])
        at = data.draw(st.integers(0, len(index) - 1))
        index[at] ^= data.draw(st.integers(1, 255))
        self.check(indexed_log, bytes(index), ReopenReport(0, INDEXED, "rebuilt"))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_index_with_two_leaves_swapped(self, indexed_log, data):
        index = indexed_log[0][LEAVES_NAME]
        leaves = [index[at : at + 32] for at in range(0, len(index), 32)]
        i = data.draw(st.integers(0, INDEXED - 1))
        j = data.draw(st.integers(0, INDEXED - 1).filter(lambda j: j != i))
        leaves[i], leaves[j] = leaves[j], leaves[i]
        self.check(indexed_log, b"".join(leaves), ReopenReport(0, INDEXED, "rebuilt"))

    def test_crash_after_the_checkpoint_before_the_index_is_written(self, indexed_log, tmp_path):
        # the writer dies without closing: the buffered tail of the index is lost
        files = indexed_log[0]
        script = (
            "import os, sys\n"
            "from test_translog import fill\n"
            "from manifestd.translog import TransparencyLog\n"
            "log = TransparencyLog(sys.argv[1])\n"
            f"fill(log, {INDEXED})\n"
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
        # whole tiles only, and not the last, partial one
        assert len(written) == INDEXED // TILE_LEAVES * TILE_LEAVES * _kernels.HASH_SIZE
        assert files[LEAVES_NAME].startswith(written)
        k = len(written) // _kernels.HASH_SIZE
        self.check(indexed_log, written, ReopenReport(k, INDEXED - k, "extended"))

    def test_index_follows_appends_after_a_reopen(self, tmp_path):
        with TransparencyLog(tmp_path) as log:
            fill(log, 300)
        with TransparencyLog(tmp_path) as log:
            fill(log, 300, start=300)
        leaves = b"".join(oracle_leaf(r) for r in naive_records(tmp_path))
        assert (tmp_path / LEAVES_NAME).read_bytes() == leaves
        with TransparencyLog(tmp_path) as log:
            assert log.reopened == ReopenReport(600, 0, "kept")

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
            assert log.reopened == ReopenReport(3, 0, "kept")
            assert log.current_root().value == naive_root(naive_records(tmp_path))

    @pytest.mark.parametrize("n", [1, 2, 3, TILE_LEAVES - 1, TILE_LEAVES, TILE_LEAVES + 1, 1000])
    def test_reopen_hash_costs(self, tmp_path, monkeypatch, n):
        # with a complete index no record is hashed: n - 1 interior hashes
        # rebuild the tree and n chain hashes the chain
        with TransparencyLog(tmp_path) as log:
            fill(log, n)
        hash_leaf = _kernels.hash_leaf
        leaf_hashes = []
        monkeypatch.setattr(_kernels, "hash_leaf", lambda d: leaf_hashes.append(d) or hash_leaf(d))
        before = _kernels.ops()
        with TransparencyLog(tmp_path) as log:
            assert _kernels.ops() - before == (n - 1) + n
            assert log.reopened == ReopenReport(n, 0, "kept")
        assert leaf_hashes == []
        (tmp_path / LEAVES_NAME).unlink()
        before = _kernels.ops()
        with TransparencyLog(tmp_path) as log:
            assert _kernels.ops() - before == n + (n - 1) + n
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
            assert log.reopened == ReopenReport(12, 0, "kept")
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
        dig = ManifestDigest.from_hex("5e" * 32)
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
        assert log.reopened == ReopenReport(1 << 14, 0, "kept")
        assert peak <= 1_800_000


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
            for field in (1, 2):
                parts = lines[lineno].split()
                value = parts[field]
                parts[field] = ("0" if value[0] != "0" else "1") + value[1:]
                doctored = list(lines)
                doctored[lineno] = " ".join(parts)
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
        # leaf + chain + peak merges amortize to ~2 + popcount churn; root
        # folding adds the peak count. A naive rebuild would cost ~n per
        # append, three orders of magnitude more at this size.
        assert per_append < 15
