"""Software keystore: key generation, signing, verification, revocation, rotation.

Private keys live only inside :class:`Keystore` instances (and, when saved,
in the keystore file, optionally passphrase-encrypted).  No public method
returns private key material.  Signatures are made over 32-byte manifest
digests.  Verification is fail-closed: unknown key, revoked key, and bad
signature are all rejections, each with a distinct reason.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519

from .errors import (
    ConfigError,
    DuplicateKeyId,
    KeyRevoked,
    NoUsableKey,
    StorageError,
    UnknownKey,
)
from .manifest import ManifestDigest
from .translog import atomic_write_bytes

DEFAULT_SCHEME = "ecdsa-p256"
_ECDSA_SHA256 = ec.ECDSA(hashes.SHA256())  # stateless, so one serves every call


class RejectReason(enum.Enum):
    SIGNATURE_INVALID = "signature-invalid"
    KEY_REVOKED = "key-revoked"
    UNKNOWN_KEY = "unknown-key"


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[RejectReason] = None


ACCEPT = VerifyResult(True, None)


@dataclass(frozen=True)
class KeyHandle:
    """Public view of one key; carries no private material."""

    key_id: str
    scheme: str
    public_key: bytes
    created_at: int
    revoked: bool

    @property
    def public_key_hex(self) -> str:
        return self.public_key.hex()


@dataclass(frozen=True)
class RotationPolicy:
    """The signing keys ``Keystore.select_key`` draws from, uniformly."""

    key_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        key_ids = tuple(self.key_ids)
        object.__setattr__(self, "key_ids", key_ids)
        if not key_ids:
            raise ConfigError("rotation policy needs at least one key")
        if len(set(key_ids)) != len(key_ids):
            raise ConfigError("rotation policy key ids must be unique")

    @classmethod
    def uniform(cls, key_ids: Sequence[str]) -> "RotationPolicy":
        return cls(key_ids=tuple(key_ids))


class _Ecdsa:
    name = "ecdsa-p256"

    @staticmethod
    def generate():
        return ec.generate_private_key(ec.SECP256R1())

    @staticmethod
    def fits(private_key) -> bool:
        # only an EC key has a curve
        return isinstance(getattr(private_key, "curve", None), ec.SECP256R1)

    @staticmethod
    def sign(private_key, data: bytes) -> bytes:
        return private_key.sign(data, _ECDSA_SHA256)

    @staticmethod
    def verify(public_key, signature: bytes, data: bytes) -> None:
        public_key.verify(signature, data, _ECDSA_SHA256)


class _Ed25519:
    name = "ed25519"

    @staticmethod
    def generate():
        return ed25519.Ed25519PrivateKey.generate()

    @staticmethod
    def fits(private_key) -> bool:
        return isinstance(private_key, ed25519.Ed25519PrivateKey)

    @staticmethod
    def sign(private_key, data: bytes) -> bytes:
        return private_key.sign(data)

    @staticmethod
    def verify(public_key, signature: bytes, data: bytes) -> None:
        public_key.verify(signature, data)


_SCHEMES = {cls.name: cls for cls in (_Ecdsa, _Ed25519)}


@dataclass
class _KeyRecord:
    key_id: str
    private_key: object
    created_at: int
    revoked: bool
    # derived once from the private key, not on every verification
    public_key: object = field(init=False)
    public_bytes: bytes = field(init=False)

    def __post_init__(self) -> None:
        self.public_key = self.private_key.public_key()
        self.public_bytes = self.public_key.public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )


class Keystore:
    """Holds signing keys for one scheme; revocation is permanent."""

    def __init__(self, scheme: str = DEFAULT_SCHEME):
        if scheme not in _SCHEMES:
            raise ConfigError(f"unknown signature scheme {scheme!r}; known: {sorted(_SCHEMES)}")
        self._scheme = _SCHEMES[scheme]
        self._keys: dict[str, _KeyRecord] = {}

    @property
    def scheme(self) -> str:
        return self._scheme.name

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key_id: str) -> bool:
        return key_id in self._keys

    def keygen(self, key_id: str, created_at: int = 0) -> KeyHandle:
        if not key_id:
            raise ConfigError("key_id must be non-empty")
        if key_id in self._keys:
            raise DuplicateKeyId(f"key {key_id!r} already exists")
        private_key = self._scheme.generate()
        record = _KeyRecord(
            key_id=key_id,
            private_key=private_key,
            created_at=created_at,
            revoked=False,
        )
        self._keys[key_id] = record
        return self._handle(record)

    def _record(self, key_id: str) -> _KeyRecord:
        try:
            return self._keys[key_id]
        except KeyError:
            raise UnknownKey(f"no key {key_id!r} in keystore") from None

    def _handle(self, record: _KeyRecord) -> KeyHandle:
        return KeyHandle(
            key_id=record.key_id,
            scheme=self._scheme.name,
            public_key=record.public_bytes,
            created_at=record.created_at,
            revoked=record.revoked,
        )

    def list_keys(self) -> list[KeyHandle]:
        return [self._handle(r) for r in self._keys.values()]

    def revoke(self, key_id: str) -> None:
        self._record(key_id).revoked = True

    def sign(self, dig: ManifestDigest, key_id: str) -> bytes:
        record = self._record(key_id)
        if record.revoked:
            raise KeyRevoked(f"key {key_id!r} is revoked")
        return self._scheme.sign(record.private_key, dig.value)

    def verify(self, dig: ManifestDigest, signature: bytes, key_id: str) -> VerifyResult:
        """Fail-closed: every path that is not a clean match is a rejection."""
        record = self._keys.get(key_id)
        if record is None:
            return VerifyResult(False, RejectReason.UNKNOWN_KEY)
        if record.revoked:
            return VerifyResult(False, RejectReason.KEY_REVOKED)
        try:
            self._scheme.verify(record.public_key, signature, dig.value)
        except InvalidSignature:
            return VerifyResult(False, RejectReason.SIGNATURE_INVALID)
        except Exception:
            # Garbage signature encodings land here; still a plain rejection.
            return VerifyResult(False, RejectReason.SIGNATURE_INVALID)
        return ACCEPT

    def select_key(self, policy: RotationPolicy, rng) -> str:
        """Draw one key id uniformly from the policy's unrevoked keys in this keystore."""
        usable = []
        for key_id in policy.key_ids:
            record = self._keys.get(key_id)
            if record is not None and not record.revoked:
                usable.append(key_id)
        if not usable:
            raise NoUsableKey("rotation policy has no unrevoked key in this keystore")
        return usable[int(rng.random() * len(usable))]

    def save(self, path: Union[str, Path], passphrase: Optional[str] = None) -> None:
        if passphrase:
            encryption = serialization.BestAvailableEncryption(passphrase.encode("utf-8"))
        else:
            encryption = serialization.NoEncryption()
        keys = []
        for record in self._keys.values():
            pem = record.private_key.private_bytes(
                serialization.Encoding.PEM,
                serialization.PrivateFormat.PKCS8,
                encryption,
            )
            keys.append(
                {
                    "key_id": record.key_id,
                    "public_key": record.public_bytes.hex(),
                    "created_at": record.created_at,
                    "revoked": record.revoked,
                    "private_pem": pem.decode("ascii"),
                }
            )
        payload = json.dumps({"version": 1, "scheme": self._scheme.name, "keys": keys}, indent=2)
        # the file holds the private keys: owner-only, whatever was there before
        atomic_write_bytes(path, (payload + "\n").encode("utf-8"), mode=0o600)

    @classmethod
    def load(cls, path: Union[str, Path], passphrase: Optional[str] = None) -> "Keystore":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise StorageError(f"cannot read keystore {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StorageError(f"keystore {path} is not valid JSON: {exc}") from exc
        if (
            not isinstance(obj, dict)
            or obj.get("version") != 1
            or not isinstance(obj.get("scheme", DEFAULT_SCHEME), str)
            or not isinstance(obj.get("keys", []), list)
        ):
            raise StorageError(f"keystore {path} has unsupported format")
        store = cls(scheme=obj.get("scheme", DEFAULT_SCHEME))
        password = passphrase.encode("utf-8") if passphrase else None
        for position, raw in enumerate(obj.get("keys", [])):
            if not (
                isinstance(raw, dict)
                and isinstance(raw.get("key_id"), str)
                and isinstance(raw.get("private_pem"), str)
            ):
                raise StorageError(
                    f"keystore {path}: key entry {position} needs string key_id and private_pem"
                )
            created_at, revoked = raw.get("created_at", 0), raw.get("revoked", False)
            try:
                # JSON's own types: no string, float or bool is read as another
                if type(created_at) is not int:
                    raise ValueError(f"created_at must be an integer, not {created_at!r}")
                if type(revoked) is not bool:
                    raise ValueError(f"revoked must be true or false, not {revoked!r}")
                private_key = serialization.load_pem_private_key(
                    raw["private_pem"].encode("ascii"), password=password
                )
                if not store._scheme.fits(private_key):
                    raise ValueError(f"not a {store.scheme} key")
                record = _KeyRecord(
                    key_id=raw["key_id"],
                    private_key=private_key,
                    created_at=created_at,
                    revoked=revoked,
                )
            except (TypeError, ValueError) as exc:
                raise StorageError(
                    f"keystore {path}: cannot load key {raw['key_id']!r}: {exc}"
                ) from exc
            if record.key_id in store._keys:
                raise StorageError(f"keystore {path}: duplicate key id {record.key_id!r}")
            store._keys[record.key_id] = record
        return store
