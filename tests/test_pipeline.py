"""The stage sequence: admit runs digest then policy; accept appends only what verifies."""

import pytest

from manifestd.keystore import Keystore, RejectReason
from manifestd.manifest import Manifest, digest
from manifestd.pipeline import accept, admit
from manifestd.policy import PolicyRule, PolicySet, RuleKind, evaluate
from manifestd.translog import CHECKPOINTS_NAME, LEAVES_NAME, RECORDS_NAME, TransparencyLog

NOW = 1_755_000_000_000
LOG_FILES = (RECORDS_NAME, CHECKPOINTS_NAME, LEAVES_NAME)


def make_manifest(tag="q", timestamp=NOW - 1_000, tool_id="demo-tool"):
    return Manifest({"query": tag}, {"system_prompt": "s"}, timestamp, tool_id)


def snapshot(directory):
    return {name: (directory / name).read_bytes() for name in LOG_FILES}


@pytest.fixture(params=["ecdsa-p256", "ed25519"])
def keystore(request):
    ks = Keystore(request.param)
    ks.keygen("k1")
    ks.keygen("k2")
    return ks


def _signed(keystore, case):
    dig = digest(make_manifest("rejected"))
    if case == "unknown-key":
        return dig, keystore.sign(dig, "k1"), "nobody"
    if case == "revoked-key":
        # a valid signature, made while the key was still live
        signature = keystore.sign(dig, "k2")
        keystore.revoke("k2")
        return dig, signature, "k2"
    if case == "flipped-bit":
        signature = bytearray(keystore.sign(dig, "k1"))
        signature[len(signature) // 2] ^= 0x01
        return dig, bytes(signature), "k1"
    return dig, b"\x00\xffnot a signature", "k1"


@pytest.mark.parametrize(
    "case, reason",
    [
        ("unknown-key", RejectReason.UNKNOWN_KEY),
        ("revoked-key", RejectReason.KEY_REVOKED),
        ("flipped-bit", RejectReason.SIGNATURE_INVALID),
        ("garbage-bytes", RejectReason.SIGNATURE_INVALID),
    ],
)
def test_a_rejected_signature_leaves_the_log_untouched(keystore, tmp_path, case, reason):
    with TransparencyLog(tmp_path) as log:
        for i in range(3):
            dig = digest(make_manifest(f"kept {i}"))
            log.append(dig, keystore.sign(dig, "k1"), "k1", appended_at=NOW + i)
    before = snapshot(tmp_path)
    dig, signature, key_id = _signed(keystore, case)
    with TransparencyLog(tmp_path) as log:
        verdict, appended = accept(keystore, log, dig, signature, key_id, NOW + 10)
        assert log.size == 3
    assert appended is None
    assert not verdict.accepted and verdict.reason is reason
    assert snapshot(tmp_path) == before


def test_accept_returns_exactly_what_append_returns(keystore, tmp_path):
    with TransparencyLog(tmp_path / "a") as via_accept, TransparencyLog(tmp_path / "b") as direct:
        for i in range(5):
            dig = digest(make_manifest(f"entry {i}"))
            signature = keystore.sign(dig, "k1")
            verdict, appended = accept(keystore, via_accept, dig, signature, "k1", NOW + i)
            assert verdict.accepted and verdict.reason is None
            assert appended == direct.append(dig, signature, "k1", appended_at=NOW + i)
    assert snapshot(tmp_path / "a") == snapshot(tmp_path / "b")


POLICY = PolicySet(
    (
        PolicyRule("needs-query", RuleKind.REQUIRED_FIELD, {"field": "query", "partition": "user"}),
        PolicyRule("known-tool", RuleKind.TOOL_ALLOWLIST, {"tools": ["demo-tool"]}),
        PolicyRule("fresh", RuleKind.FRESHNESS_WINDOW, {}),
    ),
    epoch_ms=60_000,
    clock_skew_ms=2_000,
)


@pytest.mark.parametrize(
    "manifest",
    [
        make_manifest(),
        make_manifest(tool_id="rogue-tool"),
        make_manifest(timestamp=NOW - 3_600_000),
    ],
    ids=["passes", "unknown-tool", "stale"],
)
def test_admit_is_digest_then_policy(manifest):
    assert admit(manifest, POLICY, NOW) == (digest(manifest), evaluate(manifest, POLICY, NOW))
