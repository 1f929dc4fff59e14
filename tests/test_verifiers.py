"""The proof verifiers against their step-by-step reference.

``reference_verify_inclusion`` is RFC 9162 §2.1.3.2's algorithm, and
``reference_verify_consistency`` the consistency verifier as it was written
before it folded through ``_kernels.fold_path``; each makes one
length-checked interior hash per step, counted here.  Over honest proofs
from a log of up to 2^10 entries and mutations of them, the verifiers must
accept exactly what the reference accepts (a reference that raises accepts
nothing), and an accepted proof must cost the same hashes.
"""

import functools
import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from manifestd import _kernels
from manifestd.manifest import ManifestDigest
from manifestd.translog import (
    MerkleProof,
    MerkleRoot,
    TransparencyLog,
    verify_consistency,
    verify_inclusion,
)

LOG_SIZE = 1 << 10

# the module-scoped log is read, never changed, by every example
FIXTURE = HealthCheck.function_scoped_fixture


class Counted:
    """Interior hashes of the reference, each checking its children's lengths."""

    def __init__(self):
        self.hashes = 0

    def interior(self, left, right):
        if len(left) != 32 or len(right) != 32:
            raise ValueError("interior children must be 32-byte digests")
        self.hashes += 1
        return hashlib.sha256(b"\x01" + left + right).digest()


def reference_verify_inclusion(leaf_hash, proof, root, counted):
    # RFC 9162 §2.1.3.2, step by step: fn and sn walk up from the leaf and
    # from the last leaf, and their bits place each element
    if proof.tree_size != root.tree_size:
        return False
    if not 0 <= proof.leaf_index < proof.tree_size:
        return False
    fn, sn = proof.leaf_index, proof.tree_size - 1
    r = leaf_hash
    for p in proof.path:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            r = counted.interior(p, r)
            while not fn & 1 and fn:
                fn >>= 1
                sn >>= 1
        else:
            r = counted.interior(r, p)
        fn >>= 1
        sn >>= 1
    return sn == 0 and r == root.value


def reference_verify_consistency(old_root, new_root, proof, counted):
    m, n = old_root.tree_size, new_root.tree_size
    if m == n:
        return not proof and old_root.value == new_root.value
    if not 0 < m < n:
        return False
    nodes = iter(proof)
    node, last = m - 1, n - 1
    while node % 2 == 1:
        node //= 2
        last //= 2
    try:
        if node:
            fr = sr = next(nodes)
        else:
            fr = sr = old_root.value
        while node:
            if node % 2 == 1:
                sibling = next(nodes)
                fr = counted.interior(sibling, fr)
                sr = counted.interior(sibling, sr)
            elif node < last:
                sr = counted.interior(sr, next(nodes))
            node //= 2
            last //= 2
        while last:
            sr = counted.interior(sr, next(nodes))
            last //= 2
    except StopIteration:
        return False
    except (TypeError, ValueError):
        return False
    if next(nodes, None) is not None:
        return False
    return fr == old_root.value and sr == new_root.value


def accepts(reference, *args):
    """The reference's verdict, a raise counting as a refusal, and its hash count."""
    counted = Counted()
    try:
        return reference(*args, counted) is True, counted.hashes
    except Exception:
        return False, counted.hashes


def with_cost(call, *args):
    """What ``call`` returns, and the hashes it made."""
    before = _kernels.ops()
    result = call(*args)
    return result, _kernels.ops() - before


@pytest.fixture(scope="module")
def log(tmp_path_factory):
    rng = random.Random(12)
    with TransparencyLog(tmp_path_factory.mktemp("verifiers")) as log:
        for i in range(LOG_SIZE):
            log.append(ManifestDigest(rng.randbytes(32)), rng.randbytes(8), f"k{i % 3}", i)
        yield log


def mutate(elements, kind, rng):
    """``elements`` (a list) changed by one mutation of the named kind."""
    out = list(elements)
    if kind == "none" or not out and kind not in ("add", "non-bytes"):
        return out
    at = rng.randrange(len(out)) if out else 0
    if kind == "flip":
        node = bytearray(out[at])
        node[rng.randrange(len(node))] ^= 1 << rng.randrange(8)
        out[at] = bytes(node)
    elif kind == "drop":
        del out[at]
    elif kind == "add":
        out.insert(rng.randrange(len(out) + 1), rng.randbytes(32))
    elif kind == "swap":
        other = rng.randrange(len(out))
        out[at], out[other] = out[other], out[at]
    elif kind == "short":
        out[at] = out[at][:31]
    elif kind == "long":
        out[at] = out[at] + b"\x00"
    elif kind == "non-bytes":
        value = rng.choice([None, 7, "00" * 32, (1 << 255), [b"\x00" * 32]])
        if out:
            out[at] = value
        else:
            out.append(value)
    return out


MUTATIONS = ["none", "flip", "drop", "add", "swap", "short", "long", "non-bytes"]


@settings(max_examples=400, deadline=None, suppress_health_check=[FIXTURE])
@given(
    size=st.integers(1, LOG_SIZE),
    pick=st.integers(0, LOG_SIZE),
    kind=st.sampled_from(MUTATIONS + ["index", "tree-size"]),
    seed=st.integers(0, 2**32),
)
def test_inclusion_verdicts_and_costs_match_the_reference(log, size, pick, kind, seed):
    rng = random.Random(seed)
    index = pick % size
    proof = log.prove_inclusion(index, size)
    root = log.root_at(size)
    label, path = index, list(proof.path)
    if kind == "index":
        label = rng.randrange(size)
    elif kind == "tree-size":
        root = MerkleRoot(root.value, size + rng.choice([-1, 1]))
    else:
        path = mutate(path, kind, rng)
    proof = MerkleProof(label, size, tuple(path))
    leaf = log.leaf_hash(index)
    expected, hashes = accepts(reference_verify_inclusion, leaf, proof, root)
    verdict, cost = with_cost(verify_inclusion, leaf, proof, root)
    assert verdict is expected
    if kind == "none":
        assert verdict
    if verdict:
        assert cost == hashes == len(path)


def test_a_proof_holds_for_its_own_index_only(log):
    # the honest proof of leaf i, relabelled as any j != i, is refused: every
    # pair in trees of up to 64 entries, and sampled pairs up to 2^10
    rng = random.Random(5)
    triples = [(n, i, j) for n in range(1, 65) for i in range(n) for j in range(n) if i != j]
    for _ in range(2000):
        n = rng.randrange(65, LOG_SIZE + 1)
        i, j = rng.sample(range(n), 2)
        triples.append((n, i, j))
    for n, i, j in triples:
        proof, root, leaf = log.prove_inclusion(i, n), log.root_at(n), log.leaf_hash(i)
        relabelled = MerkleProof(j, n, proof.path)
        assert not verify_inclusion(leaf, relabelled, root), (n, i, j)
        assert not accepts(reference_verify_inclusion, leaf, relabelled, root)[0]


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 9, 64, 100, 1023, LOG_SIZE])
def test_a_path_of_the_wrong_length_costs_no_hash(log, size):
    root = log.root_at(size)
    for index in {0, 1, size // 2, size - 2, size - 1} & set(range(size)):
        proof = log.prove_inclusion(index, size)
        leaf = log.leaf_hash(index)
        assert with_cost(verify_inclusion, leaf, proof, root) == (True, len(proof.path))
        wrong = [proof.path + (hashlib.sha256(b"extra").digest(),)]
        if proof.path:
            wrong.append(proof.path[:-1])
        for path in wrong:
            forged = MerkleProof(index, size, path)
            assert with_cost(verify_inclusion, leaf, forged, root) == (False, 0)


@pytest.mark.parametrize(
    "bad", [2.0, True, False, "2", None], ids=["float", "true", "false", "str", "none"]
)
def test_an_index_or_size_that_is_not_an_int_is_refused(log, bad):
    # a float or bool equal to a valid index or size would otherwise pass for
    # the int it equals, or reach the bit arithmetic and raise
    proof, root = log.prove_inclusion(2, 8), log.root_at(8)
    leaf = log.leaf_hash(2)
    assert not verify_inclusion(leaf, MerkleProof(bad, 8, proof.path), root)
    assert not verify_inclusion(leaf, MerkleProof(2, bad, proof.path), MerkleRoot(root.value, bad))
    old = log.root_at(3)
    link = log.prove_consistency(3, 8)
    assert not verify_consistency(MerkleRoot(old.value, bad), root, link)
    assert not verify_consistency(old, MerkleRoot(root.value, bad), link)
    # True equals 1, so an empty proof between one-entry trees would pass
    one = log.root_at(1)
    assert not verify_consistency(MerkleRoot(one.value, bad), one, ())


def test_every_inclusion_path_is_the_rfc_9162_path(log):
    # PATH of RFC 9162 §2.1.3.1 for every leaf of every tree of up to 2^10
    # entries, from one memoized subtree hash per leaf range
    leaves = [log.leaf_hash(i) for i in range(LOG_SIZE)]

    @functools.lru_cache(maxsize=None)
    def mth(start, end):
        if end - start == 1:
            return leaves[start]
        k = 1 << (end - start - 1).bit_length() - 1
        return hashlib.sha256(b"\x01" + mth(start, start + k) + mth(start + k, end)).digest()

    def paths(start, end):
        # the paths of leaves start..end-1 in the subtree over that range
        if end - start == 1:
            return [()]
        k = 1 << (end - start - 1).bit_length() - 1
        left, right = mth(start + k, end), mth(start, start + k)
        return [path + (left,) for path in perfect(start, start + k)] + [
            path + (right,) for path in paths(start + k, end)
        ]

    # the left part of a range is a perfect subtree, shared by many trees
    perfect = functools.lru_cache(maxsize=None)(paths)

    for n in range(1, LOG_SIZE + 1):
        expected = paths(0, n)
        for index in range(n):
            path = log.prove_inclusion(index, n).path
            assert path == expected[index], (n, index)
        assert all(type(h) is bytes and len(h) == 32 for h in path)


@settings(max_examples=400, deadline=None, suppress_health_check=[FIXTURE])
@given(
    size=st.integers(1, LOG_SIZE),
    pick=st.integers(0, LOG_SIZE),
    kind=st.sampled_from(MUTATIONS + ["tree-size"]),
    seed=st.integers(0, 2**32),
)
def test_consistency_verdicts_and_costs_match_the_reference(log, size, pick, kind, seed):
    rng = random.Random(seed)
    old_size = 1 + pick % size
    old, new = log.root_at(old_size), log.root_at(size)
    proof = list(log.prove_consistency(old_size, size))
    if kind == "tree-size":
        old = MerkleRoot(old.value, old_size + rng.choice([-1, 1]))
    else:
        proof = mutate(proof, kind, rng)
    for shape in (tuple, list):
        expected, hashes = accepts(reference_verify_consistency, old, new, shape(proof))
        verdict, cost = with_cost(verify_consistency, old, new, shape(proof))
        assert verdict is expected
        if kind == "none":
            assert verdict
        if verdict:
            assert cost == hashes


@pytest.mark.parametrize("old_size", [1, 2, 3, 7, 8, 9, 100, 511, 512, 513, 1000, 1023])
def test_every_consistency_element_is_a_counted_fold_step(log, old_size):
    # honest proofs into every larger size: same verdict, same hashes
    for size in range(old_size, LOG_SIZE + 1, 7):
        args = (log.root_at(old_size), log.root_at(size), log.prove_consistency(old_size, size))
        expected = accepts(reference_verify_consistency, *args)
        assert expected[0] and with_cost(verify_consistency, *args) == expected


def test_a_trailing_none_is_refused(log):
    # the reference read one element past the proof with next(nodes, None), so
    # it took a trailing None for the end of the proof and accepted
    old, new = log.root_at(5), log.root_at(LOG_SIZE)
    proof = log.prove_consistency(5, LOG_SIZE) + (None,)
    assert accepts(reference_verify_consistency, old, new, proof)[0]
    assert not verify_consistency(old, new, proof)


@settings(max_examples=200, deadline=None, suppress_health_check=[FIXTURE])
@given(size=st.integers(1, LOG_SIZE - 1), pick=st.integers(0, LOG_SIZE))
def test_older_roots_fold_their_peaks_and_proofs_at_the_current_size_cost_nothing(
    log, size, pick
):
    _, cost = with_cost(log.root_at, size)
    assert cost == size.bit_count() - 1
    for read, args in (
        (log.prove_inclusion, (pick % LOG_SIZE,)),
        (log.prove_consistency, (1 + pick % LOG_SIZE, LOG_SIZE)),
        (log.root_at, (LOG_SIZE,)),
    ):
        assert with_cost(read, *args)[1] == 0
    # at an older size only the one range that is not a stored node is folded
    for read, args in (
        (log.prove_inclusion, (pick % size, size)),
        (log.prove_consistency, (1 + pick % size, size)),
    ):
        assert with_cost(read, *args)[1] <= max(size.bit_count() - 1, 0)
