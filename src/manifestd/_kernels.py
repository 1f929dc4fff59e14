"""Hash kernels: the tree and chain primitives of the transparency log.

All digests are SHA-256 from ``hashlib``.  Leaf and interior hashes are
domain-separated with one-byte prefixes so a leaf can never be reinterpreted
as an interior node.  A growing tree is tracked by its peaks, the roots of
its perfect subtrees from left to right, one per set bit of the leaf count
(the "compact range" of a transparency log): ``push_peak`` adds a leaf and
``right_edge`` folds the peaks from the right into the tree root, keeping
every partial fold.  ``hash_pairs`` and ``fold_chain`` are batch forms of
``hash_interior`` and ``chain_update`` over packed 32-byte hashes, for
rebuilding a whole tree from its leaf hashes.
"""

from __future__ import annotations

import hashlib

BACKEND = "pure-python"

LEAF_PREFIX = b"\x00"
INTERIOR_PREFIX = b"\x01"

HASH_SIZE = 32

_ops = 0


def ops() -> int:
    """Cumulative count of tree-hash operations (leaf, interior, chain)."""
    return _ops


def reset_ops() -> None:
    global _ops
    _ops = 0


def sha256(data: bytes) -> bytes:
    """Plain SHA-256; not counted as a tree operation."""
    return hashlib.sha256(data).digest()


def hash_leaf(data: bytes) -> bytes:
    global _ops
    _ops += 1
    return hashlib.sha256(LEAF_PREFIX + data).digest()


def hash_interior(left: bytes, right: bytes) -> bytes:
    if len(left) != HASH_SIZE or len(right) != HASH_SIZE:
        raise ValueError("interior children must be 32-byte digests")
    global _ops
    _ops += 1
    return hashlib.sha256(INTERIOR_PREFIX + left + right).digest()


def chain_update(prev: bytes, leaf_hash: bytes) -> bytes:
    if len(prev) != HASH_SIZE or len(leaf_hash) != HASH_SIZE:
        raise ValueError("chain inputs must be 32-byte digests")
    global _ops
    _ops += 1
    return hashlib.sha256(prev + leaf_hash).digest()


def hash_pairs(nodes) -> bytes:
    """Interior hash of each pair of consecutive 32-byte nodes, packed.

    ``nodes`` is any bytes-like object holding whole pairs; one hash per
    pair, so the result is half its length.
    """
    pair = 2 * HASH_SIZE
    if len(nodes) % pair:
        raise ValueError("hash_pairs needs whole pairs of 32-byte digests")
    sha256 = hashlib.sha256
    out = b"".join(
        [sha256(INTERIOR_PREFIX + nodes[at : at + pair]).digest()
         for at in range(0, len(nodes), pair)]
    )
    global _ops
    _ops += len(nodes) // pair
    return out


def fold_chain(prev: bytes, leaves) -> bytes:
    """``chain_update`` applied to each 32-byte leaf hash packed in ``leaves``, in order."""
    if len(prev) != HASH_SIZE or len(leaves) % HASH_SIZE:
        raise ValueError("chain inputs must be 32-byte digests")
    sha256 = hashlib.sha256
    for at in range(0, len(leaves), HASH_SIZE):
        prev = sha256(prev + leaves[at : at + HASH_SIZE]).digest()
    global _ops
    _ops += len(leaves) // HASH_SIZE
    return prev


def fold_path(leaf_hash: bytes, path: list[tuple[bytes, int]]) -> bytes:
    """Recompute the root implied by a leaf hash and its sibling path."""
    node = leaf_hash
    for sibling, side in path:
        node = hash_interior(sibling, node) if side == 0 else hash_interior(node, sibling)
    return node


def push_peak(peaks: list[bytes], count: int, leaf: bytes) -> list[bytes]:
    """Add a leaf, in place, to the peaks of a tree holding ``count`` leaves.

    Each trailing one-bit of ``count`` is a peak as large as the running
    node, so the new leaf merges with that many peaks from the right.
    Returns the nodes the leaf completes, bottom-up: element k is the root
    of the perfect subtree of 2^k leaves that now ends with this leaf.
    """
    nodes = [leaf]
    node = leaf
    while count & 1:
        node = hash_interior(peaks.pop(), node)
        nodes.append(node)
        count >>= 1
    peaks.append(node)
    return nodes


def right_edge(peaks: list[bytes]) -> list[bytes]:
    """The folds of every suffix of the peaks, longest first.

    Element j is the root of the leaves that ``peaks[j:]`` cover, so element
    0 is the tree root; ``len(peaks) - 1`` hashes, an empty list for no peaks.
    """
    if not peaks:
        return []
    nodes = reversed(peaks)
    node = next(nodes)
    edge = [node]
    for peak in nodes:
        node = hash_interior(peak, node)
        edge.append(node)
    edge.reverse()
    return edge


def byte_histogram(data: bytes) -> list[int]:
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    return counts
