"""The proof verifiers against their step-by-step reference.

``reference_verify_inclusion`` and ``reference_verify_consistency`` are the
verifiers as they were written before both folded through
``_kernels.fold_path``: a validation pass, then one length-checked interior
hash per step, counted here.  Over honest proofs from a log of up to 2^10
entries and mutations of them, the verifiers must accept exactly what the
reference accepts (a reference that raises accepts nothing), and an
accepted proof must cost the same hashes.
"""

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
    if proof.tree_size != root.tree_size:
        return False
    if not 0 <= proof.leaf_index < proof.tree_size:
        return False
    if len(leaf_hash) != 32:
        return False
    for sibling, side in proof.path:
        if len(sibling) != 32 or side not in (0, 1):
            return False
    node = leaf_hash
    for sibling, side in proof.path:
        node = counted.interior(sibling, node) if side == 0 else counted.interior(node, sibling)
    return node == root.value


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
    kind=st.sampled_from(MUTATIONS + ["side", "tree-size"]),
    seed=st.integers(0, 2**32),
)
def test_inclusion_verdicts_and_costs_match_the_reference(log, size, pick, kind, seed):
    rng = random.Random(seed)
    index = pick % size
    proof = log.prove_inclusion(index, size)
    root = log.root_at(size)
    path = list(proof.path)
    if kind == "side" and path:
        at = rng.randrange(len(path))
        path[at] = (path[at][0], 2)
    elif kind == "tree-size":
        root = MerkleRoot(root.value, size + rng.choice([-1, 1]))
    elif kind != "side":
        siblings = mutate([sibling for sibling, _ in path], kind, rng)
        sides = [side for _, side in path]
        sides += [rng.randrange(2) for _ in range(len(siblings) - len(sides))]
        path = list(zip(siblings, sides))
    proof = MerkleProof(proof.leaf_index, proof.tree_size, tuple(path))
    leaf = log.leaf_hash(index)
    expected, hashes = accepts(reference_verify_inclusion, leaf, proof, root)
    verdict, cost = with_cost(verify_inclusion, leaf, proof, root)
    assert verdict is expected
    if kind == "none":
        assert verdict
    if verdict:
        assert cost == hashes == len(path)


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
