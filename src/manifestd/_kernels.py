"""Hash kernels: the tree primitives of the transparency log.

All digests are SHA-256 from ``hashlib``.  Leaf and interior hashes are
domain-separated with one-byte prefixes so a leaf can never be reinterpreted
as an interior node.  A growing tree is tracked by its peaks, the roots of
its perfect subtrees from left to right, one per set bit of the leaf count
(the "compact range" of a transparency log).  Each peak is held as a SHA-256
state that has already taken the interior prefix and the peak, so merging
or folding it with a right child is a ``copy``, an ``update`` and a
``digest``, with no 65-byte concatenation.  ``push_node``, the one
incremental kernel, adds a leaf to those states and returns the nodes it
completes and the tree's right edge: every partial fold of the peaks from
the right, the first being the root.  ``fold_path`` folds a node up a path
of sibling hashes, each on the side a bit of a mask gives: the check of an
inclusion or consistency proof, and the fold of an older tree's peaks.
``hash_pairs`` is the batch form of the interior hash over packed 32-byte
hashes, for rebuilding a whole tree from its leaf hashes; ``prefix_roots``
is the batch form of ``push_node``, giving the root at every size while
leaves are added.

Every kernel counts its hashes in ``ops``, one per SHA-256 of a leaf or an
interior node; the kernels that loop add their count once per call.
Starting a peak's state is not counted: its hash is finished only by the
merge or fold that copies it.  Input lengths are checked where digests may
come from outside the tree code: ``fold_path`` takes only 32-byte digests,
``hash_pairs`` only whole packed ones.  ``push_node`` and ``prefix_roots``
check nothing: the states and leaf hashes they are given are ones the log
made itself.
"""

from __future__ import annotations

import hashlib
import struct

BACKEND = "pure-python"

LEAF_PREFIX = b"\x00"
INTERIOR_PREFIX = b"\x01"

HASH_SIZE = 32

#: One packed pair of digests, read out as ``bytes``.
_PAIR = struct.Struct(f"{2 * HASH_SIZE}s")

_ops = 0


def ops() -> int:
    """Cumulative count of tree-hash operations (leaf and interior)."""
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


def hash_pairs(nodes) -> bytes:
    """Interior hash of each pair of consecutive 32-byte nodes, packed.

    ``nodes`` is any bytes-like object holding whole pairs; one hash per
    pair, so the result is half its length.  Each pair is read out whole by
    ``struct.iter_unpack`` and hashed on a copy of a state that has already
    taken the interior prefix.
    """
    if len(nodes) % _PAIR.size:
        raise ValueError("hash_pairs needs whole pairs of 32-byte digests")
    prefixed = hashlib.sha256(INTERIOR_PREFIX).copy
    out = []
    digest = out.append
    for (pair,) in _PAIR.iter_unpack(nodes):
        node = prefixed()
        node.update(pair)
        digest(node.digest())
    global _ops
    _ops += len(out)
    return b"".join(out)


def fold_path(node: bytes, path, right: int) -> bytes:
    """The root that ``node`` folds to up ``path``, a sequence of sibling hashes.

    Bit k of ``right`` puts sibling k right of the running node, a clear bit
    left; each step is one interior hash.  The node and every sibling must
    be 32-byte digests.  Each sibling is checked as the fold reaches it: a
    bad one raises ``ValueError`` (``TypeError`` if it is not bytes-like),
    and only the hashes made before it are counted.
    """
    if len(node) != HASH_SIZE:
        raise ValueError("fold_path takes only 32-byte digests")
    sha256 = hashlib.sha256
    global _ops
    done = 0
    try:
        for done, sibling in enumerate(path):
            if len(sibling) != HASH_SIZE:
                raise ValueError("fold_path takes only 32-byte digests")
            if right >> done & 1:
                node = sha256(INTERIOR_PREFIX + node + sibling).digest()
            else:
                node = sha256(INTERIOR_PREFIX + sibling + node).digest()
    except (TypeError, ValueError):
        _ops += done
        raise
    _ops += len(path)
    return node


def push_node(states: list, count: int, node: bytes) -> tuple[list[bytes], list[bytes]]:
    """Add a node, in place, to the peak states of a tree of ``count`` such nodes.

    ``states`` holds one SHA-256 state per peak, left to right, each having
    taken the interior prefix and its peak; a leaf is a node of level 0 and
    ``count`` the leaf count.  Each trailing one-bit of ``count`` is a peak as
    large as the running node, so the node merges with that many peaks from
    the right, and the new peak's state is added.  A merge or a fold copies a
    state and adds the right child: no state is changed, so a copy of the
    list taken before the call still holds the old tree.

    Returns the nodes the push completes, bottom-up, and the right edge.
    Node k is the root of the perfect subtree of 2^k pushed nodes that now
    ends with this one.  Element j of the edge is the fold of the peaks from
    j on, so element 0 is the tree root: one hash per merge, and one per
    peak but the last to fold the edge.
    """
    nodes = [node]
    while count & 1:
        merge = states.pop().copy()
        merge.update(node)
        node = merge.digest()
        nodes.append(node)
        count >>= 1
    edge = [node]
    for state in reversed(states):
        fold = state.copy()
        fold.update(node)
        node = fold.digest()
        edge.append(node)
    edge.reverse()
    states.append(hashlib.sha256(INTERIOR_PREFIX + nodes[-1]))
    global _ops
    _ops += len(nodes) + len(edge) - 2
    return nodes, edge


def prefix_roots(states: list, count: int, leaves: list[bytes]) -> list[bytes]:
    """The tree root after each of ``leaves``, added in order.

    ``states`` are the peak states of a tree holding ``count`` leaves, as
    ``push_node`` keeps them, and are updated in place the same way.  Each
    leaf costs exactly the hashes of ``push_node``: one per merge, and
    popcount(size) - 1 to fold the root.  Only the root of each size is
    kept, so the loop is ``push_node``'s without its node and edge lists.
    """
    sha256 = hashlib.sha256
    roots = []
    # the merges: a tree of m leaves has merged m - popcount(m) times
    end = count + len(leaves)
    hashes = (end - end.bit_count()) - (count - count.bit_count())
    for leaf in leaves:
        node = leaf
        trailing = count
        while trailing & 1:
            merge = states.pop().copy()
            merge.update(node)
            node = merge.digest()
            trailing >>= 1
        count += 1
        root = node
        for state in reversed(states):
            fold = state.copy()
            fold.update(root)
            root = fold.digest()
        hashes += len(states)
        states.append(sha256(INTERIOR_PREFIX + node))
        roots.append(root)
    global _ops
    _ops += hashes
    return roots
