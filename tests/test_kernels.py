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
from manifestd.translog import (
    CHECKPOINTS_NAME,
    MerkleRoot,
    TransparencyLog,
    check_integrity,
    verify_inclusion,
)


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
    # RFC 9162 §2.1.3.1 PATH: sibling hashes only, bottom-up
    n = len(hashes)
    if n == 1:
        return []
    k = 1
    while k * 2 < n:
        k *= 2
    if index < k:
        # leaf in the left block, sibling subtree root sits to the right
        return oracle_path(hashes[:k], index) + [oracle_root(hashes[k:])]
    return oracle_path(hashes[k:], index - k) + [oracle_root(hashes[:k])]


def leaves_for(n):
    return [b"entry-%d" % i for i in range(n)]


def log_with(directory, n):
    """An open log of n entries and the oracle's hashes of its records."""
    log = TransparencyLog(directory)
    m = Manifest({"query": "q"}, {}, 1, "t")
    for i in range(n):
        log.append(digest(m), b"\x01", "k", appended_at=i)
    return log, [oracle_leaf(log.entry(i).to_record()) for i in range(n)]


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
        # one fold step is one interior hash, the sibling on the side its bit gives
        assert kern.fold_path(right, [left], 0) == oracle_interior(left, right)
        assert kern.fold_path(left, [right], 1) == oracle_interior(left, right)
        # leaf and interior prefixes differ, so a leaf can never be replayed
        # as an interior node
        assert kern.hash_leaf(left + right) != kern.fold_path(left, [right], 1)

    def test_interior_rejects_bad_digest_length(self, kern):
        good = oracle_leaf(b"x")
        for node, path in (
            (good[:31], [good]),
            (good + b"\x00", []),
            (good, [good, good[:31]]),
            (good, [good + b"\x00"]),
        ):
            with pytest.raises(ValueError):
                kern.fold_path(node, path, 0b10)
        # a sibling is bytes-like
        with pytest.raises(TypeError):
            kern.fold_path(good, [good.hex()[:32]], 0)

    def test_hash_leaves_matches_single_calls(self, kern, tmp_path):
        log, _ = log_with(tmp_path, 9)
        with log:
            for i in range(log.size):
                assert log.leaf_hash(i) == kern.hash_leaf(log.entry(i).to_record())

    @pytest.mark.parametrize("n", list(range(0, 20)) + [31, 32, 33, 64])
    def test_merkle_root_matches_recursive_oracle(self, kern, n, tmp_path):
        log, hashes = log_with(tmp_path, n)
        with log:
            assert log.root_at(n).value == oracle_root(hashes)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 33])
    def test_inclusion_paths_match_oracle_and_fold(self, kern, n, tmp_path):
        log, hashes = log_with(tmp_path, n)
        with log:
            root = MerkleRoot(oracle_root(hashes), n)
            for i in range(n):
                proof = log.prove_inclusion(i)
                assert list(proof.path) == oracle_path(hashes, i)
                assert len(proof.path) <= max(1, n - 1).bit_length()
                assert verify_inclusion(hashes[i], proof, root)

    def test_fold_rejects_wrong_sibling(self, kern):
        hashes = [kern.hash_leaf(d) for d in leaves_for(8)]
        root = oracle_root(hashes)
        path = oracle_path(hashes, 3)
        # leaf 3 = 0b011 of 8: siblings on the left, the left, then the right
        assert kern.fold_path(hashes[3], path, 0b100) == root
        bad = [kern.sha256(b"evil")] * len(path)
        assert kern.fold_path(hashes[3], bad, 0b100) != root

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
        lines = path.read_text().splitlines()
        size, _ = lines[bad_at].split()
        lines[bad_at] = f"{size} {kern.sha256(b'forged').hex()}"
        path.write_text("\n".join(lines) + "\n")
        report = check_integrity(tmp_path)
        assert not report.ok
        assert report.tampered_at == bad_at


def peak_digests(states):
    """What each peak state has taken: the interior prefix and its peak."""
    return [state.digest() for state in states]


@pytest.mark.parametrize("n", list(range(0, 40)) + [63, 64, 65])
def test_peaks_fold_to_the_oracle_root(n):
    hashes = [_kernels.hash_leaf(d) for d in leaves_for(n)]
    states, edge = [], []
    for count, leaf in enumerate(hashes):
        before = _kernels.ops()
        _, edge = _kernels.push_node(states, count, leaf)
        # the merges, then one fold per peak but the last
        merges = (count + 1 & -(count + 1)).bit_length() - 1
        assert _kernels.ops() - before == merges + len(states) - 1
    assert len(states) == bin(n).count("1")
    # the peak on level k starts where n's bits above k end
    starts = [n >> k + 1 << k + 1 for k in range(n.bit_length() - 1, -1, -1) if n >> k & 1]
    ends = starts[1:] + [n]
    assert peak_digests(states) == [
        hashlib.sha256(b"\x01" + oracle_root(hashes[s:e])).digest() for s, e in zip(starts, ends)
    ]
    # element j of the right edge folds peaks[j:], the leaves after the larger
    # peaks, so element 0 is the root
    assert edge == [oracle_root(hashes[start:]) for start in starts]


def test_push_node_returns_the_subtrees_each_leaf_completes():
    hashes = [_kernels.hash_leaf(d) for d in leaves_for(70)]
    states = []
    for count, leaf in enumerate(hashes):
        nodes, _ = _kernels.push_node(states, count, leaf)
        end = count + 1
        # node k is the root of the 2^k leaves ending here, and those are
        # exactly the perfect subtrees that end at this leaf
        assert len(nodes) == (end & -end).bit_length()
        for k, node in enumerate(nodes):
            assert node == oracle_root(hashes[end - (1 << k) : end])


def test_push_node_hashes_once_per_merge_and_leaves_old_states_alone():
    states = []
    for count, leaf in enumerate([_kernels.hash_leaf(d) for d in leaves_for(7)]):
        _kernels.push_node(states, count, leaf)
    kept = list(states)
    digests = peak_digests(kept)
    _kernels.reset_ops()
    # 7 = 0b111: the eighth leaf merges with all three peaks, and one peak
    # is left to fold
    nodes, edge = _kernels.push_node(states, 7, _kernels.sha256(b"eighth"))
    assert _kernels.ops() == 3
    assert len(states) == 1 and edge == [nodes[-1]]
    # the leaf and the roots of the 2-, 4- and 8-leaf subtrees it completes
    assert len(nodes) == 4
    assert peak_digests(states) == [hashlib.sha256(b"\x01" + nodes[-1]).digest()]
    # a merge copies a state before it adds to it: a list taken before the
    # push still holds the old tree
    assert peak_digests(kept) == digests
    assert _kernels.push_node(kept, 7, _kernels.sha256(b"eighth")) == (nodes, edge)


#: The bytes-like types the batch kernels take: bytes, and the bytearray
#: levels of the log and views into them.
PACKED_TYPES = (bytes, bytearray, memoryview)


@pytest.mark.parametrize("pairs", [0, 1, 2, 7])
def test_hash_pairs_matches_single_interior_hashes(pairs):
    hashes = [_kernels.sha256(d) for d in leaves_for(2 * pairs)]
    packed = b"".join(hashes)
    expected = b"".join(
        oracle_interior(hashes[i], hashes[i + 1]) for i in range(0, 2 * pairs, 2)
    )
    for packed_type in PACKED_TYPES:
        before = _kernels.ops()
        assert _kernels.hash_pairs(packed_type(packed)) == expected, packed_type
        assert _kernels.ops() - before == pairs, packed_type
        for partial in (packed + bytes(32), packed + bytes(65)):
            before = _kernels.ops()
            with pytest.raises(ValueError):
                _kernels.hash_pairs(packed_type(partial))
            assert _kernels.ops() == before, packed_type


@pytest.mark.parametrize("count", [0, 1, 5, 7, 8, 255, 256])
@pytest.mark.parametrize("batch", [0, 1, 2, 9, 256, 257])
def test_prefix_roots_does_the_hashes_of_a_push_and_fold_per_leaf(count, batch):
    hashes = [_kernels.sha256(d) for d in leaves_for(count + batch)]
    states = []
    for size, leaf in enumerate(hashes[:count]):
        _kernels.push_node(states, size, leaf)
    expected_states, roots = list(states), []
    _kernels.reset_ops()
    for size, leaf in enumerate(hashes[count:], count):
        roots.append(_kernels.push_node(expected_states, size, leaf)[1][0])
    per_leaf = _kernels.ops()
    _kernels.reset_ops()
    assert _kernels.prefix_roots(states, count, hashes[count:]) == roots
    assert _kernels.ops() == per_leaf
    assert peak_digests(states) == peak_digests(expected_states)
    assert roots == [oracle_root(hashes[:size]) for size in range(count + 1, count + batch + 1)]


def test_ops_counter_counts_tree_work_only():
    kern = _kernels
    kern.reset_ops()
    kern.sha256(b"not counted")
    assert kern.ops() == 0
    hashes = [kern.hash_leaf(d) for d in leaves_for(4)]
    assert kern.ops() == 4
    # the 3 interior nodes of a 4-leaf tree: the path of leaf 0 and one more
    kern.fold_path(hashes[0], [hashes[1], oracle_interior(*hashes[2:])], 0b11)
    assert kern.ops() == 6
    kern.fold_path(hashes[2], [hashes[3]], 1)
    assert kern.ops() == 7
    # a refused path counts the hashes made before the element it refused
    with pytest.raises(ValueError):
        kern.fold_path(hashes[0], [hashes[1], hashes[2], hashes[3][:31]], 0b111)
    assert kern.ops() == 9


def test_selected_backend_exports_everything():
    for name in (
        "sha256",
        "hash_leaf",
        "fold_path",
        "push_node",
        "hash_pairs",
        "prefix_roots",
        "ops",
        "reset_ops",
    ):
        assert callable(getattr(_kernels, name))
    assert _kernels.BACKEND == "pure-python"
    assert _kernels.LEAF_PREFIX == b"\x00"
    assert _kernels.INTERIOR_PREFIX == b"\x01"
