"""Manifest data model and canonical byte encoding.

A manifest is one tool-invocation request: a user-visible field partition, a
model-facing field partition (the two must not share keys), a millisecond
timestamp, and a tool identifier.  ``canonical_encode`` maps a manifest to a
unique byte sequence so that equal manifests always hash to equal digests:
fixed top-level order, lexicographically sorted keys inside each partition,
no whitespace, UTF-8, shortest round-trip float form, no NaN/Inf.
"""

from __future__ import annotations

import collections.abc
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Union

from . import _kernels
from .errors import DisjointnessViolation, EncodingError

Scalar = Union[str, int, float, bool]

DIGEST_SIZE = 32

_FIELD_TYPES = (str, int, float, bool)

#: The one encoder behind every canonical encoding.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def _normalized(partition: str, fields: Mapping[str, Scalar]) -> dict[str, Scalar]:
    # collections.abc, not typing: typing.Mapping's isinstance is about 3x slower
    if not isinstance(fields, collections.abc.Mapping):
        raise EncodingError(f"{partition} must be a mapping, got {type(fields).__name__}")
    items = list(fields.items())
    for key, value in items:
        if not isinstance(key, str):
            raise EncodingError(f"{partition} key {key!r} is not a string")
        if not isinstance(value, _FIELD_TYPES):
            raise EncodingError(
                f"{partition}[{key!r}] has unrepresentable type {type(value).__name__}"
            )
    items.sort()  # the keys are distinct, so no two values are ever compared
    return dict(items)


def _unencodable(user: dict, model: dict, tool_id: str, exc: ValueError) -> str:
    """Name the field that the canonical encoding could not represent."""
    named = []
    for partition, fields in (("user_fields", user), ("model_fields", model)):
        for key, value in fields.items():
            named += [(f"{partition} key {key!r}", key), (f"{partition}[{key!r}]", value)]
    for where, value in named + [("tool_id", tool_id)]:
        if isinstance(value, float) and not math.isfinite(value):
            return f"{where} is not a finite number"
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as err:  # a lone surrogate: valid str, no UTF-8 form
                return f"{where} cannot be encoded as UTF-8: {err.reason}"
    return f"manifest has no canonical encoding: {exc}"


@dataclass(frozen=True)
class Manifest:
    """One tool-invocation request.

    Field mappings are normalized to sorted key order at construction and
    exposed read-only, so two manifests built from the same fields in any
    insertion order are equal and encode to identical bytes.  The encoding is
    made once, at construction.  Equality and hashing are those of the
    encodings, so ``True``, ``1`` and ``1.0`` (which encode and digest
    differently) are told apart.
    """

    user_fields: Mapping[str, Scalar]
    model_fields: Mapping[str, Scalar]
    timestamp: int
    tool_id: str
    _encoded: bytes = field(init=False, repr=False, compare=False)

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
        document = {"user_fields": user, "model_fields": model,
                    "timestamp": self.timestamp, "tool_id": self.tool_id}
        try:
            encoded = _ENCODER.encode(document).encode("utf-8")
        except ValueError as exc:
            # non-finite floats, lone surrogates, ints past the digit limit
            raise EncodingError(_unencodable(user, model, self.tool_id, exc)) from exc
        object.__setattr__(self, "user_fields", MappingProxyType(user))
        object.__setattr__(self, "model_fields", MappingProxyType(model))
        object.__setattr__(self, "_encoded", encoded)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Manifest):
            return NotImplemented
        return self._encoded == other._encoded

    def __hash__(self) -> int:
        return hash(self._encoded)

    def __reduce__(self):
        # rebuilt from plain fields: the read-only partitions cannot be pickled
        return Manifest, (
            dict(self.user_fields), dict(self.model_fields), self.timestamp, self.tool_id
        )


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


@dataclass(frozen=True)
class UserView:
    """User-visible projection of a manifest; model-facing fields removed."""

    user_fields: Mapping[str, Scalar]
    timestamp: int
    tool_id: str

    def encode(self) -> bytes:
        payload = {"user_fields": dict(self.user_fields),
                   "timestamp": self.timestamp, "tool_id": self.tool_id}
        return _ENCODER.encode(payload).encode("utf-8")


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
    return manifest._encoded


def manifest_from_dict(obj: object) -> Manifest:
    if not isinstance(obj, dict):
        raise EncodingError("manifest must be a JSON object")
    expected = {"user_fields", "model_fields", "timestamp", "tool_id"}
    if set(obj) != expected:
        missing = sorted(expected - set(obj))
        extra = sorted(set(obj) - expected)
        raise EncodingError(f"manifest object keys wrong; missing={missing} extra={extra}")
    return Manifest(obj["user_fields"], obj["model_fields"], obj["timestamp"], obj["tool_id"])


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


def digest(manifest: Manifest) -> ManifestDigest:
    return ManifestDigest(_kernels.sha256(manifest._encoded))


def redact_for_user(manifest: Manifest) -> UserView:
    return UserView(
        user_fields=manifest.user_fields,
        timestamp=manifest.timestamp,
        tool_id=manifest.tool_id,
    )
