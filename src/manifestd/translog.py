"""Append-only Merkle transparency log with dual integrity tracking.

Every accepted manifest becomes a length-prefixed record in an append-only
file.  Two structures are maintained over the records:

* a Merkle tree (leaf/interior hashes domain-separated) whose root commits
  to the whole history and supports O(log n) inclusion proofs, and
* a sequential hash chain, giving cheap forward integrity.

The log keeps the hash of every complete subtree in memory, in the layout of
Cox's "Transparent Logs for Skeptical Clients": ``_levels[k]`` holds 32 bytes
per perfect subtree of 2^k leaves, in append order, so level 0 is the leaf
hashes and node i of level k covers leaves ``[i * 2^k, (i + 1) * 2^k)``.  An
append merges the new leaf with the right-edge subtree roots ("peaks", one
per set bit of the entry count) and records exactly the nodes it completes:
O(log n) hashes.  The fold of the peaks from the right gives the root, and
the log keeps every partial fold of the current tree (its "right edge").  A
range of the RFC 6962 split whose length is a power of two is one stored
node; any other range ends at the tree size and is an element of that
tree's right edge.  So an inclusion or consistency proof (RFC 9162 format)
or a root at the current size reads stored nodes only, 0 hashes, and at an
older size m folds m's stored peaks once: at most popcount(m) - 1 hashes.

A log directory holds three files.  ``log.records`` holds the records, each
a 4-byte big-endian length and that many bytes.  ``log.checkpoints`` holds
one line ``<tree_size> <root hex> <chain hex>`` per append.  ``log.leaves``,
the index, holds level 0 of the stored hashes, 32 bytes per entry in append
order; it is derived data, buffered one 256-leaf tile at a time and written
out by ``close``, so it may lag behind the other two files.

An open log holds one read-only descriptor on the records file; ``entry``
reads a record with one ``os.pread`` at its stored offset and checks it
against its stored leaf hash, so a record changed after open is refused.

Reopening frames every record (each length prefix, the record size cap, and
that the records end exactly at the end of the file), checks that the
checkpoints file is exactly as long as that many lines, and parses its last
line.  It takes the leaf hashes the index holds, hashes only the records
after them, rebuilds every level and the chain from the leaves (n - 1
interior and n chain hashes) and compares the root and chain with the last
line.  If they differ it retries once without the index, and if that agrees
the index was at fault and is rewritten.  So reopening trusts nothing it
has not checked against the last checkpoint, but it does not re-hash a
record the index covers: a same-size change inside such a record body, or
inside any checkpoint line but the last, does not fail reopening.  ``entry``
refuses such a record, and ``check_integrity``, which reads only the records
and checkpoints, reports it.  ``check_integrity`` streams both files in step
through one reader, ``_read_log``, and compares every checkpoint's root and
chain with a full replay, O(n log n) hashes, reporting the first entry that
fails; its memory does not grow with the log.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from . import _kernels
from .errors import EncodingError, OutOfRange, StorageError
from .manifest import ManifestDigest

RECORDS_NAME = "log.records"
CHECKPOINTS_NAME = "log.checkpoints"
LEAVES_NAME = "log.leaves"

CHAIN_GENESIS = bytes(32)

_LEN = struct.Struct(">I")

#: Hard cap on one record's size; a length prefix above this is corruption.
MAX_RECORD_BYTES = 1 << 20

#: Leaves per tile: the index writer buffers one tile, 8 KiB, between writes.
TILE_LEAVES = 256

#: Bytes of ``log.records`` read per call while framing records.
_CHUNK = 1 << 16

#: Nodes hashed per batch call while rebuilding a level, bounding the
#: transient memory of one call.
_BATCH_NODES = 1 << 12

#: The one encoder of record bytes; ``json.dumps`` would build a new one per call.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


@dataclass(frozen=True)
class MerkleRoot:
    """Tree root together with the size it commits to."""

    value: bytes
    tree_size: int

    @property
    def hex(self) -> str:
        return self.value.hex()


def _record_bytes(
    index: int, manifest_digest: ManifestDigest, signature: bytes, key_id: str, appended_at: int
) -> bytes:
    """The bytes of one record, as ``LogEntry.to_record`` returns them."""
    # Fixed field order and compact separators: these bytes are what the
    # leaf hash commits to, so the serialization must be stable.
    obj = {
        "index": index,
        "manifest_digest": manifest_digest.hex,
        "signature": signature.hex(),
        "key_id": key_id,
        "appended_at": appended_at,
    }
    return _RECORD_ENCODER.encode(obj).encode("utf-8")


@dataclass(frozen=True)
class LogEntry:
    """One appended record: digest provenance plus signing context."""

    index: int
    manifest_digest: ManifestDigest
    signature: bytes
    key_id: str
    appended_at: int

    def to_record(self) -> bytes:
        return _record_bytes(
            self.index, self.manifest_digest, self.signature, self.key_id, self.appended_at
        )

    @classmethod
    def from_record(cls, data: bytes) -> "LogEntry":
        try:
            obj = json.loads(data.decode("utf-8"))
            return cls(
                index=int(obj["index"]),
                manifest_digest=ManifestDigest.from_hex(obj["manifest_digest"]),
                signature=bytes.fromhex(obj["signature"]),
                key_id=str(obj["key_id"]),
                appended_at=int(obj["appended_at"]),
            )
        except (ValueError, KeyError, UnicodeDecodeError, EncodingError) as exc:
            raise StorageError(f"unreadable log record: {exc}") from exc


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: sibling hashes bottom-up with their sides.

    Side 0 means the sibling is left of the running node, side 1 right.
    """

    leaf_index: int
    tree_size: int
    path: tuple[tuple[bytes, int], ...]


@dataclass(frozen=True)
class IntegrityReport:
    ok: bool
    tampered_at: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class ReopenReport:
    """What reopening a log did with its leaf-hash index.

    ``index`` is ``"kept"`` when the file held exactly the verified leaves,
    ``"extended"`` when it held fewer (missing, cut or behind the records),
    ``"trimmed"`` when it held them and more, and ``"rebuilt"`` when its
    leaves failed the check against the last checkpoint.  In every case but
    the first the file has been rewritten to the verified leaves.
    """

    leaves_from_index: int
    leaves_rehashed: int
    index: str


def empty_root() -> MerkleRoot:
    return MerkleRoot(_kernels.sha256(b""), 0)


class TransparencyLog:
    """Single-writer log over one directory, checked against its last checkpoint on reopen."""

    def __init__(self, directory: Union[str, Path]):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._records_path = self._dir / RECORDS_NAME
        self._checkpoints_path = self._dir / CHECKPOINTS_NAME
        self._leaves_path = self._dir / LEAVES_NAME
        # _levels[k] holds the roots of the complete subtrees of 2^k leaves.
        self._levels: list[bytearray] = [bytearray()]
        # _offsets[i] is the file offset where record i starts; the final
        # element is the current end of file.
        self._offsets = array("q", [0])
        self._peaks: list[bytes] = []
        # _edge is _kernels.right_edge(_peaks): the roots of the suffixes of
        # the current tree's peaks, kept by every append at no extra hash.
        self._edge: list[bytes] = []
        self._chain: bytes = CHAIN_GENESIS
        self._reopened: Optional[ReopenReport] = None
        if self._records_path.exists():
            self._reopened = self._reopen()
        elif self._checkpoints_path.exists():
            raise StorageError(f"{self._dir}: checkpoint file present without records file")
        opened = []
        try:
            opened.append(open(self._records_path, "ab"))
            opened.append(open(self._checkpoints_path, "a", encoding="ascii", newline="\n"))
            # the index holds exactly the verified leaves now, or is started afresh
            opened.append(
                open(self._leaves_path, "ab" if self.size else "wb",
                     buffering=TILE_LEAVES * _kernels.HASH_SIZE)
            )
            # the one read handle: entry() reads its descriptor with os.pread
            opened.append(open(self._records_path, "rb", buffering=0))
        except OSError as exc:
            for fh in opened:
                fh.close()
            raise StorageError(f"cannot open log files in {self._dir}: {exc}") from exc
        self._records_fh, self._checkpoints_fh, self._leaves_fh, self._reader = opened

    # -- state ------------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def size(self) -> int:
        return len(self._offsets) - 1

    @property
    def storage_bytes(self) -> int:
        return self._offsets[-1]

    def current_root(self) -> MerkleRoot:
        return self.root_at(self.size)

    def chain_value(self) -> bytes:
        return self._chain

    @property
    def reopened(self) -> Optional[ReopenReport]:
        """What opening this log did with its index; None for a new log."""
        return self._reopened

    def close(self) -> None:
        self._records_fh.close()
        self._checkpoints_fh.close()
        self._reader.close()
        # last: writing out the buffered tail of the index can fail
        self._leaves_fh.close()

    def __enter__(self) -> "TransparencyLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing ----------------------------------------------------------

    def append(
        self,
        manifest_digest: ManifestDigest,
        signature: bytes,
        key_id: str,
        appended_at: Optional[int] = None,
    ) -> tuple[int, MerkleRoot]:
        """Durably append one entry; returns its index and the new root."""
        if appended_at is None:
            appended_at = int(time.time() * 1000)
        index = self.size
        record = _record_bytes(index, manifest_digest, signature, key_id, appended_at)
        if len(record) > MAX_RECORD_BYTES:
            # refuse to write what replay would refuse to read
            raise StorageError(
                f"record of {len(record)} bytes exceeds the {MAX_RECORD_BYTES} byte limit"
            )
        leaf = _kernels.hash_leaf(record)
        chain = _kernels.chain_update(self._chain, leaf)
        peaks = list(self._peaks)
        nodes = _kernels.push_peak(peaks, index, leaf)
        edge = _kernels.right_edge(peaks)
        merkle = MerkleRoot(edge[0], index + 1)
        try:
            self._records_fh.write(_LEN.pack(len(record)) + record)
            self._records_fh.flush()
            self._checkpoints_fh.write(f"{merkle.tree_size} {merkle.hex} {chain.hex()}\n")
            self._checkpoints_fh.flush()
            # derived data, never flushed here: reopening checks what it holds
            self._leaves_fh.write(leaf)
        except OSError as exc:
            raise StorageError(f"append to {self._dir} failed: {exc}") from exc
        # Commit in-memory state only after the files took the write.
        self._store(nodes)
        self._offsets.append(self._offsets[-1] + _LEN.size + len(record))
        self._peaks = peaks
        self._edge = edge
        self._chain = chain
        return index, merkle

    def _store(self, nodes: list[bytes]) -> None:
        """Record the subtree roots one leaf completed; ``nodes[k]`` is on level k."""
        levels = self._levels
        if len(nodes) > len(levels):
            # one leaf can start at most one new level
            levels.append(bytearray())
        for level, node in enumerate(nodes):
            levels[level] += node

    # -- reading ----------------------------------------------------------

    def leaf_hash(self, index: int) -> bytes:
        if not 0 <= index < self.size:
            raise OutOfRange(f"index {index} outside log of size {self.size}")
        return self._node(0, index)

    def _node(self, level: int, index: int) -> bytes:
        """Stored root of leaves ``[index * 2^level, (index + 1) * 2^level)``."""
        at = index * _kernels.HASH_SIZE
        return bytes(self._levels[level][at : at + _kernels.HASH_SIZE])

    def _stored_peaks(self, tree_size: int) -> list[bytes]:
        """The peaks of the tree at ``tree_size``: stored nodes, one per set bit."""
        return [
            self._node(level, (tree_size >> level) - 1)
            for level in range(tree_size.bit_length() - 1, -1, -1)
            if tree_size >> level & 1
        ]

    def _right_edge(self, tree_size: int) -> list[bytes]:
        """``_kernels.right_edge`` of the tree at ``tree_size``.

        The current tree's is kept; an older tree's costs popcount - 1 hashes.
        """
        if tree_size == self.size:
            return self._edge
        return _kernels.right_edge(self._stored_peaks(tree_size))

    def _range_root(self, start: int, end: int, edge: list[bytes]) -> bytes:
        """Root of leaves ``[start, end)``, a range of the RFC 6962 split.

        ``start`` is a multiple of a power of two no smaller than the range.
        A range whose length is a power of two is one stored node.  Any other
        range ends at the tree size and covers its peaks below some level:
        an element of the tree's right edge, which ``edge`` must be.
        """
        length = end - start
        if length & (length - 1):
            return edge[len(edge) - length.bit_count()]
        level = length.bit_length() - 1
        return self._node(level, start >> level)

    def entry(self, index: int) -> LogEntry:
        """Entry ``index``, read with one ``pread`` and checked against its leaf hash."""
        if not 0 <= index < self.size:
            raise OutOfRange(f"index {index} outside log of size {self.size}")
        start, end = self._offsets[index], self._offsets[index + 1]
        try:
            data = os.pread(self._reader.fileno(), end - start, start)
        except (OSError, ValueError) as exc:
            # ValueError: the log is closed
            raise StorageError(f"cannot read record {index}: {exc}") from exc
        if len(data) != end - start or _LEN.unpack_from(data)[0] != len(data) - _LEN.size:
            raise StorageError(f"record {index} no longer spans its offsets")
        record = data[_LEN.size :]
        if _kernels.hash_leaf(record) != self._node(0, index):
            raise StorageError(f"record {index} changed since it was appended")
        entry = LogEntry.from_record(record)
        if entry.index != index:
            raise StorageError(f"record at position {index} claims index {entry.index}")
        return entry

    def entries(self, start: int = 0, end: Optional[int] = None) -> Iterator[LogEntry]:
        end = self.size if end is None else end
        for index in range(start, end):
            yield self.entry(index)

    def root_at(self, tree_size: int) -> MerkleRoot:
        if not 0 <= tree_size <= self.size:
            raise OutOfRange(f"tree size {tree_size} outside log of size {self.size}")
        if not tree_size:
            return empty_root()
        return MerkleRoot(self._right_edge(tree_size)[0], tree_size)

    def prove_inclusion(self, index: int, tree_size: Optional[int] = None) -> MerkleProof:
        """Inclusion proof for entry ``index`` in the tree at ``tree_size``.

        Walks bottom-up.  The leaf lies in the peak on level ``top``, the
        highest bit where ``index`` and ``tree_size`` differ; below it the
        siblings are stored nodes.  Above it the sibling on the right is the
        fold of the lower peaks, then each higher peak is a sibling on the left.
        """
        if tree_size is None:
            tree_size = self.size
        if not 0 < tree_size <= self.size:
            raise OutOfRange(f"tree size {tree_size} outside log of size {self.size}")
        if not 0 <= index < tree_size:
            raise OutOfRange(f"index {index} outside tree of size {tree_size}")
        node = self._node
        top = (index ^ tree_size).bit_length() - 1
        path = []
        for level in range(top):
            i = index >> level
            path.append((node(level, i ^ 1), (i & 1) ^ 1))
        if tree_size & ((1 << top) - 1):
            edge = self._right_edge(tree_size)
            path.append((edge[(tree_size >> top).bit_count()], 1))
        for level in range(top + 1, tree_size.bit_length()):
            if tree_size >> level & 1:
                path.append((node(level, (tree_size >> level) - 1), 0))
        return MerkleProof(leaf_index=index, tree_size=tree_size, path=tuple(path))

    def growth_series(self, sample_sizes: Optional[Sequence[int]] = None) -> list[tuple[int, int]]:
        """(entry count, cumulative record-file bytes) at each sampled size."""
        if sample_sizes is None:
            sample_sizes = [1 << k for k in range((self.size).bit_length())]
            if self.size and self.size not in sample_sizes:
                sample_sizes.append(self.size)
        series = []
        for n in sorted(set(sample_sizes)):
            if not 0 <= n <= self.size:
                raise OutOfRange(f"sample size {n} outside log of size {self.size}")
            series.append((n, self._offsets[n]))
        return series

    # -- consistency ------------------------------------------------------

    def prove_consistency(self, old_size: int, new_size: int) -> tuple[bytes, ...]:
        """Proof that the tree at ``new_size`` extends the tree at ``old_size``.

        RFC 9162 SUBPROOF, unrolled: the split is walked top-down and the
        nodes, found outermost first, are returned innermost first.
        """
        if not 0 < old_size <= new_size <= self.size:
            raise OutOfRange(
                f"need 0 < old <= new <= {self.size}, got old={old_size} new={new_size}"
            )
        if old_size == new_size:
            return ()
        edge = self._right_edge(new_size)
        nodes = []
        m, start, end, complete = old_size, 0, new_size, True
        while m != end - start:
            k = 1 << ((end - start - 1).bit_length() - 1)
            if m <= k:
                nodes.append(self._range_root(start + k, end, edge))
                end = start + k
            else:
                nodes.append(self._range_root(start, start + k, edge))
                m -= k
                start += k
                complete = False
        if not complete:
            nodes.append(self._range_root(start, end, edge))
        nodes.reverse()
        return tuple(nodes)

    # -- reopen -----------------------------------------------------------

    def _reopen(self) -> ReopenReport:
        """Restore the state of an existing log and bring its index in line.

        The index is read up to the number of records the records file can
        hold at most, so a runaway index costs no memory.
        """
        try:
            index_bytes = self._leaves_path.stat().st_size
        except FileNotFoundError:
            index_bytes = 0
        stored = min(
            index_bytes // _kernels.HASH_SIZE, self._records_path.stat().st_size // _LEN.size
        )
        line = None
        for start in [stored, 0] if stored else [0]:
            leaves, offsets = self._leaf_level(start)
            size = len(offsets) - 1
            if start == stored:
                line = _final_checkpoint(self._checkpoints_path, size)
            levels = _levels_over(leaves)
            self._levels, self._offsets = levels, offsets
            peaks = self._stored_peaks(size)
            edge = _kernels.right_edge(peaks)
            chain = _kernels.fold_chain(CHAIN_GENESIS, leaves)
            if line is None or (
                line["root"] == edge[0].hex().encode() and line["chain"] == chain.hex().encode()
            ):
                break
        else:
            raise StorageError(
                f"{self._dir}: replayed state disagrees with final checkpoint; "
                "run an integrity check"
            )
        self._peaks, self._edge, self._chain = peaks, edge, chain
        from_index = min(start, size)
        if start != stored:
            action = "rebuilt"
        elif index_bytes == len(leaves):
            action = "kept"
        else:
            action = "extended" if from_index < size else "trimmed"
        if action != "kept":
            try:
                atomic_write_bytes(self._leaves_path, leaves)
            except OSError as exc:
                raise StorageError(f"cannot rewrite {self._leaves_path}: {exc}") from exc
        return ReopenReport(from_index, size - from_index, action)

    def _leaf_level(self, start: int) -> tuple[bytearray, array]:
        """Frame every record; return the leaf hashes and the record offsets.

        Leaves before ``start`` come from the index, the rest are hashed from
        their records; ``start`` may exceed the number of records.
        """
        leaves = bytearray(start * _kernels.HASH_SIZE)
        offsets = array("q", [0])
        hash_leaf, append = _kernels.hash_leaf, offsets.append
        end = 0
        try:
            if start:
                with open(self._leaves_path, "rb") as fh:
                    if fh.readinto(leaves) != len(leaves):
                        raise OSError(f"{LEAVES_NAME} shrank while it was read")
            with open(self._records_path, "rb") as records:
                for index, record in enumerate(_frames(records)):
                    end += _LEN.size + len(record)
                    append(end)
                    if index >= start:
                        leaves += hash_leaf(record)
        except OSError as exc:
            raise LogDamage(None, f"cannot read log files in {self._dir}: {exc}") from exc
        del leaves[(len(offsets) - 1) * _kernels.HASH_SIZE :]
        return leaves, offsets


def _levels_over(leaves: bytearray) -> list[bytearray]:
    """Every level of stored hashes, level 0 being ``leaves`` itself.

    Each level is hashed pairwise from the one below, ``_BATCH_NODES`` nodes
    per batch call, straight into a level of its final size; an odd last
    node waits for its sibling.
    """
    levels = [leaves]
    batch = _BATCH_NODES * _kernels.HASH_SIZE
    while len(levels[-1]) >= 2 * _kernels.HASH_SIZE:
        below = levels[-1]
        level = bytearray(len(below) // (2 * _kernels.HASH_SIZE) * _kernels.HASH_SIZE)
        paired = 2 * len(level)
        with memoryview(below) as view:
            for at in range(0, paired, batch):
                level[at // 2 : (at + batch) // 2] = _kernels.hash_pairs(
                    view[at : min(at + batch, paired)]
                )
        levels.append(level)
    return levels


def atomic_write_bytes(path: Union[str, Path], data) -> None:
    """Write ``data`` to a sibling temp file, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def verify_inclusion(leaf_hash: bytes, proof: MerkleProof, root: MerkleRoot) -> bool:
    """Accept iff the proof folds from the leaf hash to exactly this root."""
    if proof.tree_size != root.tree_size:
        return False
    if not 0 <= proof.leaf_index < proof.tree_size:
        return False
    if len(leaf_hash) != _kernels.HASH_SIZE:
        return False
    for sibling, side in proof.path:
        if len(sibling) != _kernels.HASH_SIZE or side not in (0, 1):
            return False
    return _kernels.fold_path(leaf_hash, list(proof.path)) == root.value


def verify_consistency(
    old_root: MerkleRoot,
    new_root: MerkleRoot,
    proof: Sequence[bytes],
) -> bool:
    """Accept iff ``new_root`` extends ``old_root`` per the supplied proof."""
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
                fr = _kernels.hash_interior(sibling, fr)
                sr = _kernels.hash_interior(sibling, sr)
            elif node < last:
                sr = _kernels.hash_interior(sr, next(nodes))
            node //= 2
            last //= 2
        while last:
            sr = _kernels.hash_interior(sr, next(nodes))
            last //= 2
    except StopIteration:
        return False
    except (TypeError, ValueError):
        # Malformed proof elements are rejections, not errors.
        return False
    if next(nodes, None) is not None:
        return False
    return fr == old_root.value and sr == new_root.value


class LogDamage(StorageError):
    """The log files break their format or disagree on the entry count.

    ``index`` is the first entry the damage affects, or None when a file
    cannot be read at all.
    """

    def __init__(self, index: Optional[int], detail: str):
        super().__init__(detail)
        self.index = index


#: One checkpoint line exactly as ``append`` writes it.
_CHECKPOINT_LINE = re.compile(
    rb"([1-9][0-9]*) (?P<root>[0-9a-f]{64}) (?P<chain>[0-9a-f]{64})\n"
)


#: Longer than any checkpoint line, so a line is read in one bounded call.
_MAX_LINE = 256


def _frames(records) -> Iterator[memoryview]:
    """Yield the body of every record of an open records file, in order.

    Record i is a 4-byte big-endian length, at most ``MAX_RECORD_BYTES``,
    and that many bytes, and the last record ends at the end of the file;
    any breach raises ``LogDamage`` at the first record it affects.  The file
    is read ``_CHUNK`` bytes at a time, or one record's worth when a record
    is longer, so memory does not grow with the log.  A yielded body is a
    view into the chunk that holds it.
    """
    data = b""
    view = memoryview(data)
    pos = index = 0
    while True:
        end = pos + _LEN.size
        if end <= len(data):
            (length,) = _LEN.unpack_from(data, pos)
            if length > MAX_RECORD_BYTES:
                raise LogDamage(index, f"truncated or oversized record {index}")
            end += length
            if end <= len(data):
                yield view[pos + _LEN.size : end]
                pos = end
                index += 1
                continue
        more = records.read(max(_CHUNK, end - len(data)))
        if not more:
            if pos == len(data):
                return
            if len(data) - pos < _LEN.size:
                raise LogDamage(index, f"truncated length prefix at record {index}")
            raise LogDamage(index, f"truncated or oversized record {index}")
        data = data[pos:] + more
        view = memoryview(data)
        pos = 0


def _checkpoints_size(size: int) -> int:
    """Length of the first ``size`` checkpoint lines.

    Line i is the decimal i + 1, a space, 64 hex digits, a space, 64 hex
    digits and a newline: 131 bytes and the digits of i + 1.
    """
    total = (2 * 2 * _kernels.HASH_SIZE + 3) * size
    low = 1
    while low <= size:
        total += size - low + 1  # one more digit for every count from low on
        low *= 10
    return total


def _final_checkpoint(path: Path, size: int) -> Optional[re.Match[bytes]]:
    """The last of exactly ``size`` checkpoint lines; None when ``size`` is 0.

    Only the file's length and the form of its last line are checked; every
    other line is ``check_integrity``'s work.
    """
    expected = _checkpoints_size(size)
    try:
        with open(path, "rb") as fh:
            length = os.fstat(fh.fileno()).st_size
            if length != expected:
                raise StorageError(
                    f"{path} holds {length} bytes, not the {expected} of {size} "
                    "checkpoint lines; run an integrity check"
                )
            if not size:
                return None
            fh.seek(_checkpoints_size(size - 1))
            raw = fh.read(_MAX_LINE)
    except OSError as exc:
        raise LogDamage(None, f"cannot read log files in {path.parent}: {exc}") from exc
    line = _CHECKPOINT_LINE.fullmatch(raw)
    if line is None or int(line[1]) != size:
        raise LogDamage(size - 1, f"checkpoint line {size - 1} malformed")
    return line


def _read_log(directory: Path) -> Iterator[tuple[memoryview, re.Match[bytes]]]:
    """Yield every record of a log directory with its checkpoint line, in step.

    Records are framed by ``_frames``.  Checkpoint line i is exactly ``{i+1}
    {root hex} {chain hex}`` and a newline, in lowercase hex with single
    spaces, so no substitution can leave a line that still parses to the
    same values.  Both files hold the same number of entries.  Any breach
    raises ``LogDamage`` at the first entry it affects; comparing the root
    and chain groups of a line with the replay is left to the caller.  Both
    files are streamed, so memory does not grow with the log.
    """
    try:
        with open(directory / RECORDS_NAME, "rb") as records, open(
            directory / CHECKPOINTS_NAME, "rb"
        ) as checkpoints:
            index = 0
            for record in _frames(records):
                raw = checkpoints.readline(_MAX_LINE)
                line = _CHECKPOINT_LINE.fullmatch(raw)
                if line is None or int(line[1]) != index + 1:
                    state = "malformed" if raw else "missing"
                    raise LogDamage(index, f"checkpoint line {index} {state}")
                yield record, line
                index += 1
            if checkpoints.read(1):
                raise LogDamage(index, f"checkpoint line {index} has no record")
    except OSError as exc:
        raise LogDamage(None, f"cannot read log files in {directory}: {exc}") from exc


def check_integrity(directory: Union[str, Path]) -> IntegrityReport:
    """Replay a log directory and report the first index that fails to verify.

    Recomputes every leaf hash, chain value and per-append root from the raw
    records and compares each with its checkpoint line, keeping only the
    peaks.  Damage to the framing, the line form or the entry count is
    reported first, at the entry where it starts; otherwise the first entry
    whose stored root or chain differs.  Any single-byte change to either
    file (including truncation) surfaces as a non-ok report.
    """
    hash_leaf, chain_update, push_peak, right_edge = (
        _kernels.hash_leaf, _kernels.chain_update, _kernels.push_peak, _kernels.right_edge
    )
    chain = CHAIN_GENESIS
    peaks: list[bytes] = []
    size = 0
    diverged: Optional[int] = None
    try:
        for size, (record, line) in enumerate(_read_log(Path(directory)), 1):
            if diverged is not None:
                continue
            leaf = hash_leaf(record)
            chain = chain_update(chain, leaf)
            push_peak(peaks, size - 1, leaf)
            if (
                line["chain"] != chain.hex().encode()
                or line["root"] != right_edge(peaks)[0].hex().encode()
            ):
                diverged = size - 1
    except LogDamage as exc:
        return IntegrityReport(False, exc.index, str(exc))
    if diverged is not None:
        return IntegrityReport(False, diverged, "stored root or chain value diverges from replay")
    return IntegrityReport(True, None, f"{size} entries verified")
