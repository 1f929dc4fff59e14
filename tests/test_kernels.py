"""Hash kernel tests.

Every tree root, inclusion path and peak fold is checked against a naive
recursive oracle built here from hashlib alone, which has a different shape
from the iterative code under test.  Whole-tree roots and inclusion paths
come from the log's stored subtree hashes, and the checkpoint replay is
``check_integrity``'s, so those are checked on a log.
"""

import hashlib

import pytest

from manifestd import _kernels
from manifestd.manifest import Manifest, digest
from manifestd.translog import CHECKPOINTS_NAME, TransparencyLog, check_integrity


def oracle_leaf(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def oracle_interior(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def oracle_root(hashes):
    # Recursive split at the largest power of two strictly below n. This is
    # deliberately a different shape from the iterative level-promote code
    # under test; the two must agree on every size.
    n = len(hashes)
    if n == 0:
        return hashlib.sha256(b"").digest()
    if n == 1:
        return hashes[0]
    k = 1
    while k * 2 < n:
        k *= 2
    return oracle_interior(oracle_root(hashes[:k]), oracle_root(hashes[k:]))


def oracle_path(hashes, index):
    n = len(hashes)
    if n == 1:
        return []
    k = 1
    while k * 2 < n:
        k *= 2
    if index < k:
        # leaf in the left block, sibling subtree root sits to the right
        return oracle_path(hashes[:k], index) + [(oracle_root(hashes[k:]), 1)]
    return oracle_path(hashes[k:], index - k) + [(oracle_root(hashes[:k]), 0)]


def leaves_for(n):
    return [b"entry-%d" % i for i in range(n)]


def log_with(directory, n):
    """An open log of n entries and the oracle's hashes of its records."""
    log = TransparencyLog(directory)
    m = Manifest({"query": "q"}, {}, 1, "t")
    for i in range(n):
        log.append(digest(m), b"\x01", "k", appended_at=i)
    return log, [oracle_leaf(e.to_record()) for e in log.entries()]


# One parameter named after the backend keeps the test ids stable.
@pytest.mark.parametrize("kern", [_kernels], ids=[_kernels.BACKEND])
class TestBackend:
    def test_sha256_nist_vectors(self, kern):
        assert kern.sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )
        assert kern.sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        two_blocks = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert kern.sha256(two_blocks).hex() == (
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    def test_leaf_and_interior_match_domain_separation(self, kern):
        data = b"payload"
        assert kern.hash_leaf(data) == oracle_leaf(data)
        left, right = oracle_leaf(b"a"), oracle_leaf(b"b")
        assert kern.hash_interior(left, right) == oracle_interior(left, right)
        # leaf and interior prefixes differ, so a leaf can never be replayed
        # as an interior node
        assert kern.hash_leaf(left + right) != kern.hash_interior(left, right)

    def test_interior_rejects_bad_digest_length(self, kern):
        good = oracle_leaf(b"x")
        with pytest.raises(ValueError):
            kern.hash_interior(good[:31], good)
        with pytest.raises(ValueError):
            kern.hash_interior(good, good + b"\x00")

    def test_hash_leaves_matches_single_calls(self, kern, tmp_path):
        log, _ = log_with(tmp_path, 9)
        with log:
            for i, entry in enumerate(log.entries()):
                assert log.leaf_hash(i) == kern.hash_leaf(entry.to_record())

    @pytest.mark.parametrize("n", list(range(0, 20)) + [31, 32, 33, 64])
    def test_merkle_root_matches_recursive_oracle(self, kern, n, tmp_path):
        log, hashes = log_with(tmp_path, n)
        with log:
            assert log.root_at(n).value == oracle_root(hashes)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 33])
    def test_inclusion_paths_match_oracle_and_fold(self, kern, n, tmp_path):
        log, hashes = log_with(tmp_path, n)
        with log:
            for i in range(n):
                path = list(log.prove_inclusion(i).path)
                assert path == oracle_path(hashes, i)
                assert len(path) <= max(1, n - 1).bit_length()
                assert kern.fold_path(hashes[i], path) == oracle_root(hashes)

    def test_fold_rejects_wrong_sibling(self, kern):
        hashes = [kern.hash_leaf(d) for d in leaves_for(8)]
        root = oracle_root(hashes)
        path = oracle_path(hashes, 3)
        assert kern.fold_path(hashes[3], path) == root
        bad = [(kern.sha256(b"evil"), side) for _, side in path]
        assert kern.fold_path(hashes[3], bad) != root

    def test_chain_update_is_prefix_hash(self, kern):
        state = bytes(32)
        leaf = oracle_leaf(b"first")
        expected = hashlib.sha256(state + leaf).digest()
        assert kern.chain_update(state, leaf) == expected
        with pytest.raises(ValueError):
            kern.chain_update(state[:-1], leaf)

    def test_verify_checkpoints_accepts_honest_sequence(self, kern, tmp_path):
        log, hashes = log_with(tmp_path, 24)
        log.close()
        lines = (tmp_path / CHECKPOINTS_NAME).read_text().splitlines()
        assert [line.split()[1] for line in lines] == [
            oracle_root(hashes[: i + 1]).hex() for i in range(24)
        ]
        assert check_integrity(tmp_path).ok

    @pytest.mark.parametrize("bad_at", [0, 1, 7, 23])
    def test_verify_checkpoints_reports_first_bad_index(self, kern, bad_at, tmp_path):
        log, _ = log_with(tmp_path, 24)
        log.close()
        path = tmp_path / CHECKPOINTS_NAME
        honest = path.read_text().splitlines()
        # field 1 is the root, field 2 the chain value
        for field in (1, 2):
            lines = list(honest)
            parts = lines[bad_at].split()
            parts[field] = kern.sha256(b"forged %d" % field).hex()
            lines[bad_at] = " ".join(parts)
            path.write_text("\n".join(lines) + "\n")
            report = check_integrity(tmp_path)
            assert not report.ok
            assert report.tampered_at == bad_at

    def test_byte_histogram(self, kern):
        counts = kern.byte_histogram(b"\x00\x00\x01\xff")
        assert len(counts) == 256
        assert counts[0] == 2 and counts[1] == 1 and counts[255] == 1
        assert sum(counts) == 4


@pytest.mark.parametrize("n", list(range(0, 40)) + [63, 64, 65])
def test_peaks_fold_to_the_oracle_root(n):
    hashes = [_kernels.hash_leaf(d) for d in leaves_for(n)]
    peaks = []
    for count, leaf in enumerate(hashes):
        _kernels.push_peak(peaks, count, leaf)
    assert len(peaks) == bin(n).count("1")
    # element j of the right edge folds peaks[j:], the leaves after the larger
    # peaks, so element 0 is the root
    _kernels.reset_ops()
    edge = _kernels.right_edge(peaks)
    assert _kernels.ops() == max(len(peaks) - 1, 0)
    # the peak on level k starts where n's bits above k end
    starts = [n >> k + 1 << k + 1 for k in range(n.bit_length() - 1, -1, -1) if n >> k & 1]
    assert edge == [oracle_root(hashes[start:]) for start in starts]


def test_push_peak_returns_the_subtrees_each_leaf_completes():
    hashes = [_kernels.hash_leaf(d) for d in leaves_for(70)]
    peaks = []
    for count, leaf in enumerate(hashes):
        nodes = _kernels.push_peak(peaks, count, leaf)
        end = count + 1
        # node k is the root of the 2^k leaves ending here, and those are
        # exactly the perfect subtrees that end at this leaf
        assert len(nodes) == (end & -end).bit_length()
        for k, node in enumerate(nodes):
            assert node == oracle_root(hashes[end - (1 << k) : end])


def test_push_peak_hashes_once_per_merge():
    peaks = []
    for count, leaf in enumerate([_kernels.hash_leaf(d) for d in leaves_for(7)]):
        _kernels.push_peak(peaks, count, leaf)
    _kernels.reset_ops()
    # 7 = 0b111: the eighth leaf merges with all three peaks
    nodes = _kernels.push_peak(peaks, 7, _kernels.sha256(b"eighth"))
    assert _kernels.ops() == 3
    assert len(peaks) == 1
    # the leaf and the roots of the 2-, 4- and 8-leaf subtrees it completes
    assert len(nodes) == 4 and nodes[-1] == peaks[0]


@pytest.mark.parametrize("pairs", [0, 1, 2, 7])
def test_hash_pairs_matches_single_interior_hashes(pairs):
    hashes = [_kernels.sha256(d) for d in leaves_for(2 * pairs)]
    packed = b"".join(hashes)
    _kernels.reset_ops()
    for nodes in (packed, bytearray(packed), memoryview(packed)):
        assert _kernels.hash_pairs(nodes) == b"".join(
            oracle_interior(hashes[i], hashes[i + 1]) for i in range(0, 2 * pairs, 2)
        )
    assert _kernels.ops() == 3 * pairs
    with pytest.raises(ValueError):
        _kernels.hash_pairs(packed + bytes(32))


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_fold_chain_matches_chain_updates(n):
    hashes = [_kernels.sha256(d) for d in leaves_for(n)]
    expected = bytes(32)
    for leaf in hashes:
        expected = hashlib.sha256(expected + leaf).digest()
    _kernels.reset_ops()
    for leaves in (b"".join(hashes), memoryview(b"".join(hashes))):
        assert _kernels.fold_chain(bytes(32), leaves) == expected
    assert _kernels.ops() == 2 * n
    with pytest.raises(ValueError):
        _kernels.fold_chain(bytes(32), bytes(31))
    with pytest.raises(ValueError):
        _kernels.fold_chain(bytes(31), b"")


def test_ops_counter_counts_tree_work_only():
    kern = _kernels
    kern.reset_ops()
    kern.sha256(b"not counted")
    assert kern.ops() == 0
    hashes = [kern.hash_leaf(d) for d in leaves_for(4)]
    assert kern.ops() == 4
    # the 3 interior nodes of a 4-leaf tree
    kern.hash_interior(kern.hash_interior(*hashes[:2]), kern.hash_interior(*hashes[2:]))
    assert kern.ops() == 7
    kern.chain_update(bytes(32), hashes[0])
    assert kern.ops() == 8


def test_selected_backend_exports_everything():
    for name in (
        "sha256",
        "hash_leaf",
        "hash_interior",
        "chain_update",
        "fold_path",
        "push_peak",
        "right_edge",
        "hash_pairs",
        "fold_chain",
        "byte_histogram",
        "ops",
        "reset_ops",
    ):
        assert callable(getattr(_kernels, name))
    assert _kernels.BACKEND == "pure-python"
    assert _kernels.LEAF_PREFIX == b"\x00"
    assert _kernels.INTERIOR_PREFIX == b"\x01"
