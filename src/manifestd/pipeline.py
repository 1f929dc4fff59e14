"""The secure pass's stage order, written once.

A manifest is digested and policy-checked before anything signs it
(:func:`admit`), and it enters a transparency log only after its signature
verifies (:func:`accept`).  The harness and the CLI run their manifests
through these two functions, so neither can reorder or skip a stage.
"""

from __future__ import annotations

from typing import Optional

from .keystore import Keystore, VerifyResult
from .manifest import Manifest, ManifestDigest, digest
from .policy import ComplianceReport, PolicySet, evaluate
from .translog import MerkleRoot, TransparencyLog


def admit(
    manifest: Manifest, policy: PolicySet, now_ms: int
) -> tuple[ManifestDigest, ComplianceReport]:
    """Digest, then policy: what runs before any signature is made."""
    return digest(manifest), evaluate(manifest, policy, now_ms=now_ms)


def accept(
    keystore: Keystore,
    log: TransparencyLog,
    dig: ManifestDigest,
    signature: bytes,
    key_id: str,
    appended_at: int,
) -> tuple[VerifyResult, Optional[tuple[int, MerkleRoot]]]:
    """Verify, then append to ``log`` only if the verdict accepts.

    Returns the verdict and what ``log.append`` returned, or None when the
    verdict rejects and the log was left untouched.
    """
    verdict = keystore.verify(dig, signature, key_id)
    if not verdict.accepted:
        return verdict, None
    return verdict, log.append(dig, signature, key_id, appended_at=appended_at)
