"""Append-only Merkle transparency log.

Every accepted manifest becomes a length-prefixed record in an append-only
file.  A Merkle tree over the records (leaf and interior hashes
domain-separated) commits to the whole history with its root, and supports
O(log n) inclusion and consistency proofs.  After each append the log
records the tree size and root, the one commitment to the entries so far.

The log keeps the hash of every complete subtree in memory, in the layout of
Cox's "Transparent Logs for Skeptical Clients": ``_levels[k]`` holds 32 bytes
per perfect subtree of 2^k leaves, in append order, so level 0 is the leaf
hashes and node i of level k covers leaves ``[i * 2^k, (i + 1) * 2^k)``.  An
append merges the new leaf with the right-edge subtree roots ("peaks", one
per set bit of the entry count) and records exactly the nodes it completes:
O(log n) hashes.  The fold of the peaks from the right gives the root, and
the log keeps every partial fold of the current tree (its "right edge").
Each peak is also kept as a SHA-256 state that has taken the interior prefix
and the peak, and ``_kernels.push_node`` does the merges and the fold on
copies of those states.
An inclusion proof (RFC 9162 format) is the sibling hashes from the leaf
up: stored nodes, except at most one, the fold of the peaks below some
level, which at the current size is an element of the right edge.  A
consistency proof is the same walk from the largest perfect subtree that
ends at the old size.  So a proof or a root at the current size reads
stored nodes only, 0 hashes, and at an older size m folds m's stored peaks
once: at most popcount(m) - 1 hashes.  Neither proof carries sides:
``_sides`` derives them, and both verifiers are ``_kernels.fold_path``
walks.

A log directory holds three files.  ``log.records`` holds the records, each
a 4-byte big-endian length and that many bytes in one fixed JSON layout,
``_RECORD``.  ``log.checkpoints`` holds one line ``<tree_size> <root hex>``
per append, ``_CHECKPOINT``.  ``log.leaves``, the index, holds level 0 of
the stored hashes, 32 bytes per entry in append order; it is derived data,
written only by ``close`` of a handle that appended, so it lags behind the
other two files while that handle is open, or when it died unclosed.

An open log holds one ``O_WRONLY | O_APPEND`` descriptor on each of the
records and checkpoints files, for ``append``, and one read-only descriptor
on the records file, for ``entry``.  In memory it holds 72 B per entry: 64 B
of stored hashes (the leaf and, on average, one node of the levels above)
and the 8-byte offset of its record.  ``close`` lets go of the descriptors
and of those bytes, so a restart that reopens a log holds one tree, not two;
every read of a closed log then raises ``StorageError``.

Reopening frames every record (each length prefix, the record size cap, and
that the records end exactly at the end of the file), checks that the
checkpoints file is exactly as long as that many lines, and parses its last
line.  It takes the leaf hashes the index holds, hashes only the records
after them, rebuilds every level from the leaves (n - 1 interior hashes)
and compares the root with the last line.  If they differ it drops that
tree and retries once without the index, and if that agrees the index was
at fault; either way it mends the index in memory only.  So reopening
trusts nothing it has not checked against the last checkpoint, but it does
not re-hash a record the index covers, and frames it by its length prefix
alone: a same-size change inside such a record body, or inside any
checkpoint line but the last, does not fail reopening.  ``entry`` refuses
such a record, and ``check_integrity``, which reads only the records and
checkpoints, reports it.

``check_integrity`` replays the whole log against every checkpoint line, as
its docstring says.  On an ok report this process holds, in memory only and
for at most ``HELD_CHECKS`` directories, what it verified: the entry count
m, the records file's length at m, the SHA-256 digests of both files up to
m, and the peak states at m (an RFC 9162 §8.3 monitor's last verified tree
head).  Only an ok report of this process makes it, and no file holds it.
The next check of that directory hashes each held prefix; if both digests
match, the check resumes at entry m with the held states, so a re-check
costs one SHA-256 pass over both files plus the hashes of the entries after
m.  Otherwise the full check runs and localizes, and a report that is not ok
drops the held state.  The reports are those of the full check on every
input.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import threading
import time
from array import array
from binascii import hexlify, unhexlify
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import count
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator, NoReturn, Optional, Sequence, Union

from . import _kernels
from .errors import EncodingError, OutOfRange, StorageError
from .manifest import ManifestDigest

RECORDS_NAME = "log.records"
CHECKPOINTS_NAME = "log.checkpoints"
LEAVES_NAME = "log.leaves"

_LEN = struct.Struct(">I")

#: One stored node: ``_NODE.unpack_from(level, i * HASH_SIZE)[0]`` is node i
#: of a level as ``bytes``, read without an intermediate copy.
_NODE = struct.Struct(f"{_kernels.HASH_SIZE}s")

#: Hard cap on one record's size; a length prefix above this is corruption.
MAX_RECORD_BYTES = 1 << 20

#: Bytes of ``log.records`` read per call while framing records, and of
#: either file while ``check_integrity`` hashes what it verified before.
_CHUNK = 1 << 16

#: Most log directories whose last ok ``check_integrity`` this process holds.
HELD_CHECKS = 16

#: Nodes hashed per batch call while rebuilding a level, bounding the
#: transient memory of one call.
_BATCH_NODES = 1 << 12

#: One record: the JSON object ``json.dumps`` writes with compact separators
#: and ``ensure_ascii=False``, fields in this order.  The leaf hash commits to
#: these bytes, so the layout is fixed.
_RECORD = b'{"index":%d,"manifest_digest":"%s","signature":"%s","key_id":%s,"appended_at":%d}'

#: ``_RECORD``'s layout and no other: decimal integers without a sign or
#: leading zero (``appended_at`` may be negative), lowercase hex, and the key
#: id's JSON string body, with no raw quote, backslash or control byte.
_RECORD_FORM = re.compile(
    rb'\{"index":(0|[1-9][0-9]*),"manifest_digest":"([0-9a-f]{64})",'
    rb'"signature":"([0-9a-f]*)","key_id":"((?:[^"\\\x00-\x1f]|\\.)*)",'
    rb'"appended_at":(0|-?[1-9][0-9]*)\}'
)

#: One checkpoint line: tree size and root hex.
_CHECKPOINT = b"%d %s\n"


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
    """The bytes of one record, as ``LogEntry.to_record`` returns them.

    ``encode_basestring`` is the quoting ``json`` applies to a string with
    ``ensure_ascii=False``; a ``key_id`` with a lone surrogate raises
    ``UnicodeEncodeError``.
    """
    return _RECORD % (
        index,
        hexlify(manifest_digest.value),
        hexlify(signature),
        encode_basestring(key_id).encode("utf-8"),
        appended_at,
    )


@dataclass(frozen=True)
class LogEntry:
    """One appended record: digest provenance plus signing context."""

    index: int
    manifest_digest: ManifestDigest
    signature: bytes
    key_id: str
    appended_at: int
    # the bytes a decoded entry was read from, exactly what to_record would make
    _record: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def to_record(self) -> bytes:
        if self._record is not None:
            return self._record
        return _record_bytes(
            self.index, self.manifest_digest, self.signature, self.key_id, self.appended_at
        )

    @classmethod
    def from_record(cls, data: bytes) -> "LogEntry":
        """The entry whose ``to_record`` is exactly ``data``, which it keeps.

        Only bytes in ``_RECORD``'s layout are read, so decoding and encoding
        are inverses; any other bytes raise ``StorageError``.  A key id with
        an escape is decoded by ``json`` and must quote back to the same
        bytes; any other key id is its own UTF-8 text.
        """
        match = _RECORD_FORM.fullmatch(data)
        if match is None:
            raise StorageError("log record is not in the record layout")
        index, digest_hex, signature_hex, key_id, appended_at = match.groups()
        try:
            if b"\\" in key_id:
                quoted = b'"' + key_id + b'"'
                key_id = json.loads(quoted.decode("utf-8"))
                if encode_basestring(key_id).encode("utf-8") != quoted:
                    raise ValueError("key id is not in its one quoted form")
            else:
                key_id = key_id.decode("utf-8")
            signature = unhexlify(signature_hex)
        except ValueError as exc:
            # bad UTF-8 or escape, a lone surrogate, odd-length hex
            raise StorageError(f"unreadable log record: {exc}") from exc
        # Every value already has the form the constructors check, so both
        # frozen instances are filled in directly, skipping a guarded
        # object.__setattr__ per field: about a fifth of a decode.
        manifest_digest = object.__new__(ManifestDigest)
        vars(manifest_digest)["value"] = unhexlify(digest_hex)
        entry = object.__new__(cls)
        vars(entry).update(
            index=int(index),
            manifest_digest=manifest_digest,
            signature=signature,
            key_id=key_id,
            appended_at=int(appended_at),
            _record=bytes(data),
        )
        return entry


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the sibling hashes from the leaf up, as RFC 9162 §2.1.3.

    Where each sibling sits follows from ``leaf_index`` and ``tree_size``.
    """

    leaf_index: int
    tree_size: int
    path: tuple[bytes, ...]


@dataclass(frozen=True)
class IntegrityReport:
    """What ``check_integrity`` found.

    ``tampered_at`` is the first entry whose record fails to frame or whose
    checkpoint line differs from what ``append`` wrote, None when ``ok`` or
    when the files cannot be read; ``detail`` says which.
    """

    ok: bool
    tampered_at: Optional[int] = None
    detail: str = ""


@dataclass(frozen=True)
class ReopenReport:
    """What reopening a log did with its leaf-hash index.

    ``index`` is ``"kept"`` when the file held exactly the verified leaves,
    ``"extended"`` when it held fewer (missing, cut or behind the records),
    ``"trimmed"`` when it held them and more, and ``"rebuilt"`` when its
    leaves failed the check against the last checkpoint.  Reopening writes
    no file: ``leaves_from_index`` leading leaves of the file are verified,
    and ``close`` of a handle that appends writes level 0 after them.
    """

    leaves_from_index: int
    leaves_rehashed: int
    index: str


def empty_root() -> MerkleRoot:
    return MerkleRoot(_kernels.sha256(b""), 0)


class _Released:
    """What a closed log holds in place of its stored hashes and offsets.

    Every read starts by taking the length of, or indexing, one of them, so
    this one object makes each read of a closed log raise ``StorageError``
    at no cost to an open one.
    """

    def __init__(self, reason: str) -> None:
        self._reason = reason

    def __len__(self) -> NoReturn:
        raise StorageError(self._reason)

    def __getitem__(self, key) -> NoReturn:
        raise StorageError(self._reason)


class TransparencyLog:
    """Single-writer log over one directory, checked against its last checkpoint on reopen."""

    def __init__(self, directory: Union[str, Path]):
        self._dir = Path(directory)
        self._records_path = self._dir / RECORDS_NAME
        self._checkpoints_path = self._dir / CHECKPOINTS_NAME
        self._leaves_path = self._dir / LEAVES_NAME
        # _levels[k] holds the roots of the complete subtrees of 2^k leaves.
        self._levels: list[bytearray] = [bytearray()]
        # _offsets[i] is the file offset where record i starts; the final
        # element is the current end of file.
        self._offsets = array("q", [0])
        # _states and _edge are what _kernels.push_node keeps and returns: a
        # SHA-256 state per peak of the current tree, and the roots of the
        # suffixes of its peaks, the first being the tree root.
        self._states: list = []
        self._edge: list[bytes] = []
        self._reopened: Optional[ReopenReport] = None
        # why appends are refused: the log is closed, or a failed append
        # could not be undone
        self._refused: Optional[str] = None
        # close() writes the index only after this handle appended
        self._appended = False
        if self._records_path.exists():
            self._reopened = self._reopen()
        elif self._checkpoints_path.exists():
            raise StorageError(f"{self._dir}: checkpoint file present without records file")
        opened = []
        appending = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            # a directory path that is a file, or lies under one, fails here
            self._dir.mkdir(parents=True, exist_ok=True)
            # append takes one os.write on each of these two descriptors; an
            # unbuffered file object owns each one and closes it
            for path in (self._records_path, self._checkpoints_path):
                opened.append(open(os.open(path, appending, 0o666), "ab", buffering=0))
            # the one read handle: entry() reads its descriptor with os.pread
            opened.append(open(self._records_path, "rb", buffering=0))
        except OSError as exc:
            for fh in opened:
                fh.close()
            raise StorageError(f"cannot open log files in {self._dir}: {exc}") from exc
        self._records_out, self._checkpoints_out, self._reader = opened
        self._records_fd = self._records_out.fileno()
        self._checkpoints_fd = self._checkpoints_out.fileno()

    # -- state ------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._offsets) - 1

    @property
    def storage_bytes(self) -> int:
        return self._offsets[-1]

    def current_root(self) -> MerkleRoot:
        return self.root_at(self.size)

    @property
    def reopened(self) -> Optional[ReopenReport]:
        """What opening this log did with its index; None for a new log."""
        return self._reopened

    def close(self) -> None:
        """Close the log; the one writer of ``log.leaves``, after an append only.

        It writes level 0 after the leaves the file holds as verified
        (``ReopenReport.leaves_from_index``), or after all the whole leaves it
        holds now if it was cut or removed since, and cuts the file there; a
        failure is dropped, leaving an index that reopening extends.  Then
        it lets go of the stored hashes and offsets: every read of a closed
        log raises ``StorageError``, ``reopened`` alone still answers, and a
        second ``close`` does nothing.
        """
        # a closed descriptor's number can be reused by another file
        self._refused = f"{self._dir}: the log is closed"
        self._records_out.close()
        self._checkpoints_out.close()
        self._reader.close()
        if self._appended:
            self._appended = False
            start = self._reopened.leaves_from_index if self._reopened else 0
            try:
                # O_CREAT without O_TRUNC: the verified leaves before start stay
                fd = os.open(self._leaves_path, os.O_WRONLY | os.O_CREAT, 0o666)
                with open(fd, "wb") as fh:
                    start = min(start, os.fstat(fd).st_size // _kernels.HASH_SIZE)
                    start *= _kernels.HASH_SIZE
                    fh.seek(start)
                    with memoryview(self._levels[0]) as leaves:
                        fh.write(leaves[start:])
                    fh.truncate()
            except OSError:
                pass  # the index lags, and reopening extends it
        self._levels = self._offsets = _Released(self._refused)
        self._states, self._edge = [], []

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
        """Append one entry; returns its index and the new root.

        The length-prefixed record reaches the operating system in one
        ``os.write`` on ``log.records``, then its checkpoint line in one on
        ``log.checkpoints``; neither is fsynced, so a crash of the machine
        can lose them (crash durability is open in ROADMAP.md).  The leaf
        hash is kept in memory only until ``close`` writes the index: a
        handle that dies unclosed leaves its leaves out of the index, and
        reopening hashes their records again.

        A failed or short write to either file cuts both back to their
        lengths before the append and raises ``StorageError``, leaving the
        log as it was.  If that cut fails too, the handle takes no more
        appends: each raises ``StorageError`` naming the first failure, while
        reads keep serving the entries appended before it.

        ``appended_at`` defaults to now, in milliseconds.  An entry that would
        not read back as given (a ``manifest_digest`` that is not a
        ``ManifestDigest``, a ``key_id`` that is not a UTF-8-encodable
        ``str``, a ``signature`` that is not ``bytes``, an ``appended_at``
        that is not an ``int`` or is a ``bool``) raises ``EncodingError``
        before anything is written.
        """
        if self._refused is not None:
            raise StorageError(self._refused)
        if not isinstance(manifest_digest, ManifestDigest):
            raise EncodingError(
                f"manifest digest must be a ManifestDigest, not {type(manifest_digest).__name__}"
            )
        if appended_at is None:
            appended_at = int(time.time() * 1000)
        elif not isinstance(appended_at, int) or isinstance(appended_at, bool):
            raise EncodingError(f"appended_at must be an int, not {type(appended_at).__name__}")
        if not isinstance(key_id, str):
            raise EncodingError(f"key id must be a str, not {type(key_id).__name__}")
        if not isinstance(signature, bytes):
            raise EncodingError(f"signature must be bytes, not {type(signature).__name__}")
        index = len(self._offsets) - 1
        try:
            record = _record_bytes(index, manifest_digest, signature, key_id, appended_at)
        except UnicodeEncodeError as exc:
            raise EncodingError(f"key id is not encodable as UTF-8: {exc}") from exc
        if len(record) > MAX_RECORD_BYTES:
            # refuse to write what replay would refuse to read
            raise StorageError(
                f"record of {len(record)} bytes exceeds the {MAX_RECORD_BYTES} byte limit"
            )
        leaf = _kernels.hash_leaf(record)
        states = list(self._states)
        nodes, edge = _kernels.push_node(states, index, leaf)
        framed = _LEN.pack(len(record)) + record
        line = _CHECKPOINT % (index + 1, hexlify(edge[0]))
        try:
            if os.write(self._records_fd, framed) != len(framed):
                raise OSError(f"short write to {RECORDS_NAME}")
            if os.write(self._checkpoints_fd, line) != len(line):
                raise OSError(f"short write to {CHECKPOINTS_NAME}")
        except OSError as exc:
            self._roll_back(index, exc)
        # Commit in-memory state only after the files took the write.
        self._store(nodes)
        self._offsets.append(self._offsets[-1] + len(framed))
        self._states = states
        self._edge = edge
        self._appended = True
        return index, MerkleRoot(edge[0], index + 1)

    def _store(self, nodes: list[bytes]) -> None:
        """Record the subtree roots one leaf completed; ``nodes[k]`` is on level k."""
        levels = self._levels
        if len(nodes) > len(levels):
            # one leaf can start at most one new level
            levels.append(bytearray())
        for level, node in enumerate(nodes):
            levels[level] += node

    def _roll_back(self, index: int, failure: OSError) -> NoReturn:
        """Cut both files back to their first ``index`` entries and raise ``StorageError``.

        If the cut fails, the log's files may hold part of the failed entry,
        so the handle refuses every later append.
        """
        reason = f"append of entry {index} to {self._dir} failed: {failure}"
        try:
            os.ftruncate(self._records_fd, self._offsets[-1])
            os.ftruncate(self._checkpoints_fd, _checkpoints_size(index))
        except OSError as exc:
            self._refused = f"{reason}; cutting the files back failed too: {exc}"
            raise StorageError(self._refused) from failure
        raise StorageError(reason) from failure

    # -- reading ----------------------------------------------------------

    def leaf_hash(self, index: int) -> bytes:
        if not 0 <= index < self.size:
            raise OutOfRange(f"index {index} outside log of size {self.size}")
        return _NODE.unpack_from(self._levels[0], index * _kernels.HASH_SIZE)[0]

    def _peaks_root(self, tree_size: int, below: int) -> bytes:
        """Root of the leaves covered by the peaks of ``tree_size`` on levels below ``below``.

        ``tree_size`` has at least one such peak.  The current tree's is an
        element of the kept right edge; an older tree's folds its stored
        peaks from the lowest up, one hash per peak after the first.
        """
        if tree_size == len(self._offsets) - 1:
            return self._edge[(tree_size >> below).bit_count()]
        peaks = _peaks_below(self._levels, tree_size, below)
        return _kernels.fold_path(peaks[0], peaks[1:], 0)

    def entry(self, index: int) -> LogEntry:
        """Entry ``index``, read with one ``pread`` and checked against its leaf hash."""
        offsets = self._offsets
        if not 0 <= index < len(offsets) - 1:
            raise OutOfRange(f"index {index} outside log of size {self.size}")
        start = offsets[index]
        length = offsets[index + 1] - start
        try:
            data = os.pread(self._reader.fileno(), length, start)
        except OSError as exc:
            raise StorageError(f"cannot read record {index}: {exc}") from exc
        record = data[_LEN.size :]
        if len(data) != length or _LEN.unpack_from(data)[0] != len(record):
            raise StorageError(f"record {index} no longer spans its offsets")
        if _kernels.hash_leaf(record) != _NODE.unpack_from(
            self._levels[0], index * _kernels.HASH_SIZE
        )[0]:
            raise StorageError(f"record {index} changed since it was appended")
        entry = LogEntry.from_record(record)
        if entry.index != index:
            raise StorageError(f"record at position {index} claims index {entry.index}")
        return entry

    def root_at(self, tree_size: int) -> MerkleRoot:
        if not 0 <= tree_size <= self.size:
            raise OutOfRange(f"tree size {tree_size} outside log of size {self.size}")
        if not tree_size:
            return empty_root()
        return MerkleRoot(self._peaks_root(tree_size, tree_size.bit_length()), tree_size)

    def prove_inclusion(self, index: int, tree_size: Optional[int] = None) -> MerkleProof:
        """Inclusion proof for entry ``index`` in the tree at ``tree_size``."""
        size = len(self._offsets) - 1
        if tree_size is None:
            tree_size = size
        if not 0 < tree_size <= size:
            raise OutOfRange(f"tree size {tree_size} outside log of size {size}")
        if not 0 <= index < tree_size:
            raise OutOfRange(f"index {index} outside tree of size {tree_size}")
        return MerkleProof(index, tree_size, tuple(self._path(index, 0, tree_size)))

    def _path(self, index: int, level: int, tree_size: int) -> list[bytes]:
        """The siblings, bottom-up, from stored node ``index`` on ``level`` to
        the root of the tree at ``tree_size``, which holds it.

        The node lies in the peak on level ``top``, the highest bit where its
        first leaf and ``tree_size`` differ; below it the siblings are stored
        nodes.  Above it the sibling on the right is the fold of the lower
        peaks, then each higher peak is a sibling on the left.
        """
        levels, node = self._levels, _NODE.unpack_from
        top = (index << level ^ tree_size).bit_length() - 1
        path = [
            node(levels[level + up], (index >> up ^ 1) * _kernels.HASH_SIZE)[0]
            for up in range(top - level)
        ]
        if tree_size & ((1 << top) - 1):
            path.append(self._peaks_root(tree_size, top))
        for peak in range(top + 1, tree_size.bit_length()):
            if tree_size >> peak & 1:
                at = ((tree_size >> peak) - 1) * _kernels.HASH_SIZE
                path.append(node(levels[peak], at)[0])
        return path

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

        RFC 9162 SUBPROOF, read bottom-up: the largest perfect subtree that
        ends at ``old_size`` (omitted when it is the whole old tree, whose root
        the verifier holds), then the siblings of its inclusion path in the
        tree at ``new_size``.
        """
        if not 0 < old_size <= new_size <= self.size:
            raise OutOfRange(
                f"need 0 < old <= new <= {self.size}, got old={old_size} new={new_size}"
            )
        if old_size == new_size:
            return ()
        level = (old_size & -old_size).bit_length() - 1
        index = (old_size - 1) >> level
        nodes = self._path(index, level, new_size)
        if index:
            nodes.insert(0, _NODE.unpack_from(self._levels[level], index * _kernels.HASH_SIZE)[0])
        return tuple(nodes)

    # -- reopen -----------------------------------------------------------

    def _reopen(self) -> ReopenReport:
        """Restore the state of an existing log and say what its index held.

        The index is read up to the number of records the records file can
        hold at most, so a runaway index costs no memory.  No file is written.
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
            states, edge = _peak_states(levels, size)
            if line is None or line["root"] == hexlify(edge[0]):
                break
            # the retry without the index builds its tree with this one gone
            del leaves, offsets, levels
        else:
            raise StorageError(
                f"{self._dir}: replayed state disagrees with final checkpoint; "
                "run an integrity check"
            )
        self._levels, self._offsets = levels, offsets
        self._states, self._edge = states, edge
        from_index = min(start, size)
        if start != stored:
            action = "rebuilt"
        elif index_bytes == len(leaves):
            action = "kept"
        else:
            action = "extended" if from_index < size else "trimmed"
        return ReopenReport(from_index, size - from_index, action)

    def _leaf_level(self, start: int) -> tuple[bytearray, array]:
        """Frame every record; return the leaf hashes and the record offsets.

        Leaves before ``start`` come from the index, the rest are hashed from
        their records; ``start`` may exceed the number of records.  A record
        the index covers is framed by its length prefix alone: its body is
        neither hashed nor sliced out of its chunk.
        """
        leaves = bytearray(start * _kernels.HASH_SIZE)
        offsets = array("q", [0])
        try:
            if start:
                with open(self._leaves_path, "rb") as fh:
                    if fh.readinto(leaves) != len(leaves):
                        raise OSError(f"{LEAVES_NAME} shrank while it was read")
            with open(self._records_path, "rb") as records:
                for data, base in _chunks(records, offsets):
                    leaves += b"".join(_leaf_hashes(data, base, offsets, start))
                    start = max(start, len(offsets) - 1)
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


def _peaks_below(levels: list[bytearray], tree_size: int, below: int) -> list[bytes]:
    """The stored peaks of the tree at ``tree_size`` on levels below ``below``, lowest first."""
    return [
        _NODE.unpack_from(levels[level], ((tree_size >> level) - 1) * _kernels.HASH_SIZE)[0]
        for level in range(below)
        if tree_size >> level & 1
    ]


def _peak_states(levels: list[bytearray], tree_size: int) -> tuple[list, list[bytes]]:
    """The peak states and right edge of the tree at ``tree_size``, from its stored peaks.

    The lowest peak, on level k, is pushed onto the states of the others as
    node ``(tree_size >> k) - 1`` of its level, an even count, so it merges
    with none and only the edge is folded: popcount(tree_size) - 1 hashes.
    """
    if not tree_size:
        return [], []
    lowest, *higher = _peaks_below(levels, tree_size, tree_size.bit_length())
    states = [hashlib.sha256(_kernels.INTERIOR_PREFIX + peak) for peak in reversed(higher)]
    low = (tree_size & -tree_size).bit_length() - 1
    return states, _kernels.push_node(states, (tree_size >> low) - 1, lowest)[1]


def atomic_write_bytes(path: Union[str, Path], data, mode: int = 0o666) -> None:
    """Write ``data`` to a new sibling temp file, then rename it over ``path``.

    The temp file is created afresh with ``mode`` (less the umask): a stale
    one left by an earlier crash is removed first, so its mode, and so the
    mode of ``path``, is never inherited from it.  Any failure, a missing
    directory, a full disk or a ``path`` that is a directory, raises
    ``StorageError``.  A failure after the temp file was created removes it;
    a stale one that could not be removed is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _sides(node: int, last: int) -> tuple[int, int]:
    """The path length from ``node`` to the root over nodes 0 to ``last`` of
    its level, and a mask whose bit k puts sibling k on the right.

    RFC 9162 §2.1.3.2: below the highest bit where the two differ, each
    level holds one sibling, on the right where ``node``'s bit is clear;
    above it, each set bit of ``node`` is a sibling on the left.
    """
    differ = (node ^ last).bit_length()
    return differ + (node >> differ).bit_count(), ~node & ((1 << differ) - 1)


def verify_inclusion(leaf_hash: bytes, proof: MerkleProof, root: MerkleRoot) -> bool:
    """Accept iff the proof folds from the leaf hash to exactly this root.

    ``_sides`` gives the path's length and sides from the leaf index and
    tree size, so a proof holds for its own index only.  A malformed proof
    (an index or size that is not an ``int``, a path of the wrong length,
    which costs no hash, or an element that is not a 32-byte digest) is
    refused, never an error.
    """
    index, size = proof.leaf_index, proof.tree_size
    if type(index) is not int or type(size) is not int:
        return False
    if size != root.tree_size or not 0 <= index < size:
        return False
    length, right = _sides(index, size - 1)
    try:
        if len(proof.path) != length:
            return False
        return _kernels.fold_path(leaf_hash, proof.path, right) == root.value
    except (TypeError, ValueError):
        return False


def verify_consistency(
    old_root: MerkleRoot,
    new_root: MerkleRoot,
    proof: Sequence[bytes],
) -> bool:
    """Accept iff ``new_root`` extends ``old_root`` per the supplied proof.

    RFC 9162's check, with the role of each element worked out from the two
    sizes alone.  The first element, unless the old size is a power of two
    (then the old root), seeds two folds: ``fr`` towards the old root and
    ``sr`` towards the new.  The rest is the inclusion path of the old
    tree's last perfect subtree in the new tree, sided by ``_sides``: a left
    sibling is one of both folds, a right one of ``sr`` only, so the proof
    is two ``fold_path`` calls with the hashes of the step-by-step check.  A
    size that is not an ``int``, a proof of the wrong length or a malformed
    element is refused, never an error.
    """
    m, n = old_root.tree_size, new_root.tree_size
    if type(m) is not int or type(n) is not int:
        return False
    if m == n:
        return not proof and old_root.value == new_root.value
    if not 0 < m < n:
        return False
    # the proof starts from the old tree's last perfect subtree, node
    # (m - 1) >> level on the level of m's lowest set bit (prove_consistency)
    level = (m & -m).bit_length() - 1
    node, last = (m - 1) >> level, (n - 1) >> level
    length, right = _sides(node, last)
    seeded = node != 0
    if len(proof) != seeded + length:
        return False
    seed = proof[0] if seeded else old_root.value
    path = proof[seeded:]
    try:
        fr = _kernels.fold_path(seed, [p for k, p in enumerate(path) if not right >> k & 1], 0)
        sr = _kernels.fold_path(seed, path, right)
    except (TypeError, ValueError):
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


#: One checkpoint line exactly as ``append`` writes it with ``_CHECKPOINT``.
_CHECKPOINT_LINE = re.compile(rb"([1-9][0-9]*) (?P<root>[0-9a-f]{64})\n")


#: Longer than any checkpoint line, so a line is read in one bounded call.
_MAX_LINE = 256


def _chunks(records, ends, index: int = 0) -> Iterator[tuple[bytes, int]]:
    """Frame the records of an open records file, one read at a time.

    The file is positioned at record ``index``.  Record i is a 4-byte
    big-endian length, at most ``MAX_RECORD_BYTES``, and that many bytes, and
    the last record ends at the end of the file; any breach raises
    ``LogDamage`` at the first record it affects, once the records before it
    have been given.  The file is read ``_CHUNK`` bytes at a time, or one
    record's worth when a record is longer, so memory does not grow with the
    log.

    Each chunk begins with a record's length prefix.  For every record a
    chunk holds whole, the offset where the record ends, counted from the
    file's starting position, is appended to ``ends``; then the chunk is
    yielded with the offset it starts at.  Only length prefixes are read
    here: reopen and ``check_integrity`` hash the bodies with
    ``_leaf_hashes``.
    """
    append, unpack_from, prefix = ends.append, _LEN.unpack_from, _LEN.size
    data = b""
    base = pos = 0
    while True:
        size = len(data)
        before = len(ends)
        oversized = False
        while True:
            end = pos + prefix
            if end > size:
                break
            (length,) = unpack_from(data, pos)
            if length > MAX_RECORD_BYTES:
                oversized = True
                break
            end += length
            if end > size:
                break
            append(base + end)
            pos = end
        framed = len(ends) - before
        index += framed
        if framed:
            yield data, base
        if oversized:
            raise LogDamage(index, f"truncated or oversized record {index}")
        more = records.read(max(_CHUNK, end - size))
        if not more:
            if pos == size:
                return
            if size - pos < prefix:
                raise LogDamage(index, f"truncated length prefix at record {index}")
            raise LogDamage(index, f"truncated or oversized record {index}")
        base += pos
        data = data[pos:] + more
        pos = 0


def _leaf_hashes(data: bytes, base: int, offsets, start: int) -> list[bytes]:
    """The leaf hashes of records ``start`` on, which one read of ``_chunks`` framed.

    ``data`` is the read, at file offset ``base``; record i spans ``offsets[i]``
    to ``offsets[i + 1]``, and the read holds records ``start`` on whole.
    """
    hash_leaf, prefix, view = _kernels.hash_leaf, _LEN.size, memoryview(data)
    return [
        hash_leaf(view[offsets[i] - base + prefix : offsets[i + 1] - base])
        for i in range(start, len(offsets) - 1)
    ]


def _checkpoints_size(size: int) -> int:
    """Length of the first ``size`` checkpoint lines.

    Line i is the decimal i + 1, a space, the 64 hex digits of the root and
    a newline: 66 bytes and the digits of i + 1.
    """
    total = (2 * _kernels.HASH_SIZE + 2) * size
    low = 1
    while low <= size:
        total += size - low + 1  # one more digit for every count from low on
        low *= 10
    return total


def _final_checkpoint(path: Path, size: int) -> Optional[re.Match[bytes]]:
    """The last of exactly ``size`` checkpoint lines; None when ``size`` is 0.

    Only the file's length and the form of its last line are checked; every
    other line is ``check_integrity``'s work.  With no records the file may
    be missing: a first open that stopped after creating ``log.records``
    left the empty log.
    """
    expected = _checkpoints_size(size)
    if not size and not path.exists():
        return None
    try:
        with open(path, "rb") as fh:
            length = os.fstat(fh.fileno()).st_size
            if length != expected:
                raise StorageError(
                    f"{path} holds {length} bytes, not the {expected} of {size} "
                    "checkpoint lines of the form '<tree size> <root hex>'; "
                    "run an integrity check"
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


@dataclass(frozen=True)
class _Verified:
    """The first ``size`` entries of a log, as an ok ``check_integrity`` report found them.

    The records file was ``records_bytes`` long up to there and the
    checkpoints file ``_checkpoints_size(size)``, with these SHA-256 digests;
    ``states`` are the peak states of the tree at ``size``.
    """

    size: int
    records_bytes: int
    records_digest: bytes
    checkpoints_digest: bytes
    states: tuple


#: The last ok check of each of at most ``HELD_CHECKS`` directories, by
#: resolved path, least recently checked first.
_held: dict[str, _Verified] = {}
_held_lock = threading.Lock()


def check_integrity(directory: Union[str, Path]) -> IntegrityReport:
    """Replay a log directory and report the first entry that fails to verify.

    Recomputes every leaf hash and per-append root from the raw records and
    compares each root with its checkpoint line, keeping only the peaks.
    Entry i fails when its record does not frame, or when checkpoint line i
    is missing, malformed or holds another root; a line after the last
    record fails at its own index.  The first entry that fails, of any
    kind, is reported, so any single-byte change to either file (including
    truncation, an inserted or a deleted byte) is reported where it is.

    The check runs one read of ``log.records`` at a time: it hashes the
    records the read holds whole, computes the root at every size they add
    with ``_kernels.prefix_roots``, builds the checkpoint lines ``append``
    would have written for them and compares those bytes with the same
    range of the checkpoints file.  A line has one valid form, so equal
    bytes check the form, the size and the root at once, with the hashes of
    an entry-at-a-time replay.  Only a read whose lines differ is looked at
    line by line, to name its first bad entry.

    An ok report leaves this process holding what it verified, in memory
    only (see the module docstring).  A later check of the same directory
    whose files still begin with exactly those bytes, checked by one SHA-256
    pass over each, resumes the read loop after them: it costs that pass and
    the hashes of the new entries alone, 0 for an unchanged log.  Any other
    check is the full one, and a report that is not ok drops the held state.
    An empty ``log.records`` with no ``log.checkpoints`` is the empty log.
    """
    directory = Path(directory)
    held_key = os.path.realpath(directory)
    with _held_lock:
        held = _held.get(held_key)
    verified = None
    try:
        with open(directory / RECORDS_NAME, "rb") as records:
            try:
                checkpoints = open(directory / CHECKPOINTS_NAME, "rb")
            except FileNotFoundError:
                if os.fstat(records.fileno()).st_size:
                    raise
                # a first open that stopped after creating log.records
                report = IntegrityReport(True, None, "0 entries verified")
            else:
                with checkpoints:
                    report, verified = _check_reads(records, checkpoints, held)
    except OSError as exc:
        report = IntegrityReport(False, None, f"cannot read log files in {directory}: {exc}")
    with _held_lock:
        _held.pop(held_key, None)
        if verified is not None:
            _held[held_key] = verified
            if len(_held) > HELD_CHECKS:
                del _held[next(iter(_held))]
    return report


class _Digesting:
    """An open file read through ``read`` alone, every byte read also going into ``digest``."""

    def __init__(self, fh, digest) -> None:
        self._fh, self._digest = fh, digest

    def read(self, size: int) -> bytes:
        data = self._fh.read(size)
        self._digest.update(data)
        return data


def _held_prefixes(records, checkpoints, held: _Verified) -> Optional[list]:
    """SHA-256 states over the bytes of the two open log files that ``held`` verified.

    None unless each file, positioned at 0, is at least as long as it was
    and its first bytes up to there hash to the held digest; the files are
    then positioned after those bytes.
    """
    buffer = memoryview(bytearray(_CHUNK))
    states = []
    for fh, length, digest in (
        (records, held.records_bytes, held.records_digest),
        (checkpoints, _checkpoints_size(held.size), held.checkpoints_digest),
    ):
        state = hashlib.sha256()
        while length:
            got = fh.readinto(buffer[: min(length, len(buffer))])
            if not got:
                return None
            state.update(buffer[:got])
            length -= got
        if state.digest() != digest:
            return None
        states.append(state)
    return states


def _check_reads(
    records, checkpoints, held: Optional[_Verified]
) -> tuple[IntegrityReport, Optional[_Verified]]:
    """``check_integrity`` over the open log files, one read of ``log.records`` at a time.

    It resumes after ``held`` when both files begin with the bytes it
    verified, and returns what an ok report verified.  The lines of a
    read's records are compared with those ``append`` wrote for them in one
    compare, and only when they differ does ``_first_bad_line`` look for
    the one that does.  ``_chunks`` gives every record before the first
    that fails to frame, so framing damage is the first failure when every
    line before it matches.
    """
    digests = None if held is None else _held_prefixes(records, checkpoints, held)
    if digests is not None:
        size, records_at = held.size, held.records_bytes
        states = list(held.states)
    else:
        records.seek(0)
        checkpoints.seek(0)
        digests = [hashlib.sha256(), hashlib.sha256()]
        size = records_at = 0
        states = []
    records_digest, checkpoints_digest = digests
    # where records end, counted from records_at; cut to the last after each read
    ends = [0]
    try:
        for data, base in _chunks(_Digesting(records, records_digest), ends, size):
            roots = _kernels.prefix_roots(states, size, _leaf_hashes(data, base, ends, 0))
            del ends[:-1]
            expected = b"".join(
                [_CHECKPOINT % (n, hexlify(root)) for n, root in zip(count(size + 1), roots)]
            )
            got = checkpoints.read(len(expected))
            if got != expected:
                return _first_bad_line(got, roots, size), None
            checkpoints_digest.update(expected)
            size += len(roots)
    except LogDamage as exc:
        return IntegrityReport(False, exc.index, str(exc)), None
    if checkpoints.read(1):
        return IntegrityReport(False, size, f"checkpoint line {size} has no record"), None
    verified = _Verified(
        size, records_at + ends[-1], records_digest.digest(), checkpoints_digest.digest(),
        tuple(states),
    )
    return IntegrityReport(True, None, f"{size} entries verified"), verified


def _first_bad_line(got: bytes, roots: list[bytes], size: int) -> IntegrityReport:
    """The report on the first line, from entry ``size`` on, that ``got`` does not hold.

    ``got`` is what the checkpoints file holds where ``append`` wrote the
    lines of the roots ``roots``.  A line of the one valid form and the
    right size holds another root; anything else there is malformed, and
    nothing at all is a missing line.
    """
    pos = 0
    for index, root in enumerate(roots, size):
        line = _CHECKPOINT % (index + 1, hexlify(root))
        end = pos + len(line)
        if not got.startswith(line, pos):
            break
        pos = end
    parsed = _CHECKPOINT_LINE.fullmatch(got, pos, end)
    if parsed is not None and int(parsed[1]) == index + 1:
        return IntegrityReport(False, index, "stored root diverges from replay")
    state = "malformed" if pos < len(got) else "missing"
    return IntegrityReport(False, index, f"checkpoint line {index} {state}")
