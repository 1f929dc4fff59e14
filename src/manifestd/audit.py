"""Audit evidence tuples, the chance that audits miss, and pipeline overhead.

Each execution can be sampled for audit with probability p (the harness and
``manifestd audit`` draw the samples); ``undetected_probability`` is the
chance that n sampled violations all escape.  A sampled execution yields an
evidence tuple binding the log root and the tree size it commits to, the
output digest, and the two stage timings into a single digest.  The tree
size enters as an 8-byte big-endian integer; timings enter at fixed
millisecond precision (three decimals) so that a tuple serialized and re-read
reproduces its digest exactly.  A line is read back only with an integer tree
size, finite timings of at least 0 and 32-byte digests, the values
``build_evidence`` makes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import _kernels
from .errors import DomainError, EncodingError
from .translog import MerkleRoot

TIMING_DECIMALS = 3


def _canonical_timing(value_ms: float) -> bytes:
    return format(value_ms, f".{TIMING_DECIMALS}f").encode("ascii")


@dataclass(frozen=True)
class EvidenceTuple:
    """Audit evidence for one sampled execution."""

    merkle_root: MerkleRoot
    output_digest: bytes
    exec_time_ms: float
    verify_time_ms: float
    evidence_digest: bytes

    def to_json_dict(self) -> dict:
        return {
            "root": self.merkle_root.hex,
            "tree_size": self.merkle_root.tree_size,
            "output_digest": self.output_digest.hex(),
            "exec_ms": self.exec_time_ms,
            "verify_ms": self.verify_time_ms,
            "evidence_digest": self.evidence_digest.hex(),
        }

    @classmethod
    def from_json_line(cls, line: str) -> "EvidenceTuple":
        """The evidence of one JSON line holding a ``to_json_dict`` object.

        ``tree_size`` must be a JSON integer, each timing a finite number of
        at least 0 and each digest 64 hex digits.  Anything else raises
        ``EncodingError`` rather than being coerced (``5.9`` or ``true`` to a
        tree size, ``"12.5"`` to a timing).
        """
        try:
            obj = json.loads(line)
            tree_size = obj["tree_size"]
            if type(tree_size) is not int:
                raise TypeError(f"tree_size {tree_size!r} is not an integer")
            timings = [obj["exec_ms"], obj["verify_ms"]]
            for value in timings:
                if not _is_timing(value):
                    raise ValueError(f"timing {value!r} is not a finite number >= 0")
            digests = [
                bytes.fromhex(obj[key]) for key in ("root", "output_digest", "evidence_digest")
            ]
            if any(len(digest) != _kernels.HASH_SIZE for digest in digests):
                raise ValueError("a digest is not 32 bytes")
        except (ValueError, KeyError, TypeError) as exc:
            raise EncodingError(f"bad evidence line: {exc}") from exc
        root, output_digest, evidence_digest = digests
        return cls(
            merkle_root=MerkleRoot(root, tree_size),
            output_digest=output_digest,
            exec_time_ms=float(timings[0]),
            verify_time_ms=float(timings[1]),
            evidence_digest=evidence_digest,
        )


def _is_timing(value) -> bool:
    """True for a stage timing ``build_evidence`` takes: a finite number of at least 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value) and value >= 0
    except OverflowError:
        # an int beyond the float range, which the canonical timing cannot format
        return False


def evidence_digest_of(
    root: MerkleRoot, output_digest: bytes, exec_time_ms: float, verify_time_ms: float
) -> bytes:
    if not 0 <= root.tree_size < 1 << 64:
        raise DomainError(f"tree size {root.tree_size} does not fit the 8-byte digest field")
    return _kernels.sha256(
        root.value
        + root.tree_size.to_bytes(8, "big")
        + output_digest
        + _canonical_timing(exec_time_ms)
        + _canonical_timing(verify_time_ms)
    )


def build_evidence(
    root: MerkleRoot, output: bytes, exec_time_ms: float, verify_time_ms: float
) -> EvidenceTuple:
    for value in (exec_time_ms, verify_time_ms):
        if not _is_timing(value):
            raise DomainError("stage timings must be finite and not negative")
    output_digest = _kernels.sha256(output)
    return EvidenceTuple(
        merkle_root=root,
        output_digest=output_digest,
        exec_time_ms=exec_time_ms,
        verify_time_ms=verify_time_ms,
        evidence_digest=evidence_digest_of(root, output_digest, exec_time_ms, verify_time_ms),
    )


def recheck_evidence(evidence: EvidenceTuple) -> bool:
    """True iff the stored digest matches a recomputation from the fields.

    Timings ``build_evidence`` refuses (non-finite or negative) never recheck.
    """
    if not (_is_timing(evidence.exec_time_ms) and _is_timing(evidence.verify_time_ms)):
        return False
    try:
        expected = evidence_digest_of(
            evidence.merkle_root,
            evidence.output_digest,
            evidence.exec_time_ms,
            evidence.verify_time_ms,
        )
    except DomainError:
        # no digest was ever made over a tree size that cannot be encoded
        return False
    return expected == evidence.evidence_digest


def undetected_probability(detection_probability: float, rounds: int) -> float:
    """Chance that n independently sampled violations all escape audit."""
    p = detection_probability
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not math.isfinite(p):
        raise DomainError("detection probability must be a finite number")
    if not 0.0 < p <= 1.0:
        raise DomainError(f"detection probability {p} outside (0, 1]")
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 0:
        raise DomainError("rounds must be a non-negative integer")
    return (1.0 - p) ** rounds


def overhead(baseline_ms: float, secure_ms: float) -> float:
    """Relative slowdown of the full pipeline over the stripped baseline."""
    if not math.isfinite(baseline_ms) or baseline_ms <= 0:
        raise DomainError("baseline time must be positive")
    if not math.isfinite(secure_ms) or secure_ms < 0:
        raise DomainError("secure time must not be negative")
    return (secure_ms - baseline_ms) / baseline_ms
