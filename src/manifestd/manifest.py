"""Manifest data model and canonical byte encoding.

A manifest is one tool-invocation request: a user-visible field partition, a
model-facing field partition (the two must not share keys), a millisecond
timestamp, and a tool identifier.  ``canonical_encode`` maps a manifest to a
unique byte sequence so that equal manifests always hash to equal digests:
fixed top-level order, lexicographically sorted keys inside each partition,
no whitespace, UTF-8, shortest round-trip float form, no NaN/Inf.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Union

from . import _kernels
from .errors import DisjointnessViolation, EmptyEncoding, EncodingError

Scalar = Union[str, int, float, bool]

DIGEST_SIZE = 32

#: Maximum per-byte entropy of the encoding alphabet, in bits.
MAX_ENTROPY_BITS = 8.0

_FIELD_TYPES = (str, int, float, bool)


def _check_utf8(where: str, text: str) -> None:
    # Lone surrogates are valid str but have no UTF-8 encoding.
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncodingError(f"{where} cannot be encoded as UTF-8: {exc.reason}") from exc


def _normalized(partition: str, fields: Mapping[str, Scalar]) -> Mapping[str, Scalar]:
    if not isinstance(fields, Mapping):
        raise EncodingError(f"{partition} must be a mapping, got {type(fields).__name__}")
    out: dict[str, Scalar] = {}
    for key in sorted(fields):
        if not isinstance(key, str):
            raise EncodingError(f"{partition} key {key!r} is not a string")
        _check_utf8(f"{partition} key {key!r}", key)
        value = fields[key]
        if not isinstance(value, _FIELD_TYPES):
            raise EncodingError(
                f"{partition}[{key!r}] has unrepresentable type {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise EncodingError(f"{partition}[{key!r}] is not a finite number")
        if isinstance(value, str):
            _check_utf8(f"{partition}[{key!r}]", value)
        out[key] = value
    return MappingProxyType(out)


@dataclass(frozen=True)
class Manifest:
    """One tool-invocation request.

    Field mappings are normalized to sorted key order at construction and
    exposed read-only, so two manifests built from the same fields in any
    insertion order are equal and encode to identical bytes.  Equality is
    equality of the canonical encodings, so ``True``, ``1`` and ``1.0`` (which
    encode and digest differently) are told apart.
    """

    user_fields: Mapping[str, Scalar]
    model_fields: Mapping[str, Scalar]
    timestamp: int
    tool_id: str

    def __post_init__(self) -> None:
        user = _normalized("user_fields", self.user_fields)
        model = _normalized("model_fields", self.model_fields)
        shared = sorted(user.keys() & model.keys())
        if shared:
            raise DisjointnessViolation(f"keys present in both partitions: {shared}")
        if isinstance(self.timestamp, bool) or not isinstance(self.timestamp, int):
            raise EncodingError("timestamp must be an integer millisecond count")
        if self.timestamp < 0:
            raise EncodingError("timestamp must not be negative")
        if not isinstance(self.tool_id, str) or not self.tool_id:
            raise EncodingError("tool_id must be a non-empty string")
        _check_utf8("tool_id", self.tool_id)
        object.__setattr__(self, "user_fields", user)
        object.__setattr__(self, "model_fields", model)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Manifest):
            return NotImplemented
        return canonical_encode(self) == canonical_encode(other)


@dataclass(frozen=True)
class ManifestDigest:
    """SHA-256 digest of a canonical manifest encoding."""

    value: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.value, bytes) or len(self.value) != DIGEST_SIZE:
            raise EncodingError("digest must be exactly 32 bytes")

    @property
    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, text: str) -> "ManifestDigest":
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise EncodingError(f"invalid digest hex: {exc}") from exc
        return cls(raw)


@dataclass(frozen=True)
class UserView:
    """User-visible projection of a manifest; model-facing fields removed."""

    user_fields: Mapping[str, Scalar]
    timestamp: int
    tool_id: str

    def encode(self) -> bytes:
        payload = {
            "user_fields": dict(self.user_fields),
            "timestamp": self.timestamp,
            "tool_id": self.tool_id,
        }
        return json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


@dataclass(frozen=True)
class EncodingStats:
    """Byte-level statistics of one canonical encoding."""

    size_bytes: int
    entropy_bits: float
    redundancy: float


def manifest_to_dict(manifest: Manifest) -> dict:
    """Plain-dict form with the fixed canonical top-level order."""
    return {
        "user_fields": dict(manifest.user_fields),
        "model_fields": dict(manifest.model_fields),
        "timestamp": manifest.timestamp,
        "tool_id": manifest.tool_id,
    }


def canonical_encode(manifest: Manifest) -> bytes:
    """Unique byte form of a manifest.

    Equal manifests encode to equal bytes; any change to any field changes
    the encoding (and therefore the digest).
    """
    try:
        return json.dumps(
            manifest_to_dict(manifest),
            separators=(",", ":"),
            ensure_ascii=False,
            allow_nan=False,
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        # ValueError includes UnicodeEncodeError from lone surrogates
        raise EncodingError(str(exc)) from exc


def manifest_from_dict(obj: object) -> Manifest:
    if not isinstance(obj, dict):
        raise EncodingError("manifest must be a JSON object")
    expected = {"user_fields", "model_fields", "timestamp", "tool_id"}
    if set(obj) != expected:
        missing = sorted(expected - set(obj))
        extra = sorted(set(obj) - expected)
        raise EncodingError(f"manifest object keys wrong; missing={missing} extra={extra}")
    return Manifest(
        user_fields=obj["user_fields"],
        model_fields=obj["model_fields"],
        timestamp=obj["timestamp"],
        tool_id=obj["tool_id"],
    )


def parse_manifest(text: Union[str, bytes]) -> Manifest:
    """Lenient parse: accepts any key order and whitespace."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"manifest is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"manifest is not valid JSON: {exc}") from exc
    return manifest_from_dict(obj)


def canonical_decode(data: bytes) -> Manifest:
    """Strict inverse of ``canonical_encode``.

    Rejects any byte sequence that is not already in canonical form, so
    decode(encode(m)) == m and encode(decode(b)) == b both hold.
    """
    manifest = parse_manifest(data)
    if canonical_encode(manifest) != data:
        raise EncodingError("byte sequence is not a canonical manifest encoding")
    return manifest


def digest(manifest: Manifest) -> ManifestDigest:
    return ManifestDigest(_kernels.sha256(canonical_encode(manifest)))


def redact_for_user(manifest: Manifest) -> UserView:
    return UserView(
        user_fields=manifest.user_fields,
        timestamp=manifest.timestamp,
        tool_id=manifest.tool_id,
    )


def byte_entropy_bits(data: bytes) -> float:
    """Shannon entropy of the byte distribution, in bits per byte."""
    if not data:
        raise EmptyEncoding("cannot compute entropy of an empty byte sequence")
    total = len(data)
    entropy = 0.0
    for count in _kernels.byte_histogram(data):
        if count:
            p = count / total
            entropy -= p * math.log2(p)
    return min(max(entropy, 0.0), MAX_ENTROPY_BITS)


def encoding_stats(manifest: Manifest) -> EncodingStats:
    """Size, entropy, and redundancy of the canonical encoding.

    Redundancy is measured against the full byte alphabet: 1 - H/8.
    """
    data = canonical_encode(manifest)
    entropy = byte_entropy_bits(data)
    return EncodingStats(
        size_bytes=len(data),
        entropy_bits=entropy,
        redundancy=1.0 - entropy / MAX_ENTROPY_BITS,
    )
