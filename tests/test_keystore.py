"""Keystore, signature, and rotation tests."""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec, ed25519

from manifestd.errors import (
    ConfigError,
    DuplicateKeyId,
    KeyRevoked,
    NoUsableKey,
    StorageError,
    UnknownKey,
)
from manifestd.keystore import Keystore, RejectReason, RotationPolicy
from manifestd.manifest import Manifest, digest

SCHEMES = ["ecdsa-p256", "ed25519"]


def make_digest(tag="hello"):
    m = Manifest({"query": tag}, {"system_prompt": "s"}, 1_755_000_000_000, "t")
    return digest(m)


def handles(ks):
    """The keystore's key handles by key id, as ``list_keys`` gives them."""
    return {h.key_id: h for h in ks.list_keys()}


@pytest.mark.parametrize("scheme", SCHEMES)
class TestSignVerify:
    def test_round_trip(self, scheme):
        ks = Keystore(scheme)
        ks.keygen("k1")
        d = make_digest()
        sig = ks.sign(d, "k1")
        result = ks.verify(d, sig, "k1")
        assert result.accepted and result.reason is None

    def test_flipped_signature_bit_rejected(self, scheme):
        ks = Keystore(scheme)
        ks.keygen("k1")
        d = make_digest()
        sig = bytearray(ks.sign(d, "k1"))
        sig[-1] ^= 0x01
        result = ks.verify(d, bytes(sig), "k1")
        assert not result.accepted
        assert result.reason is RejectReason.SIGNATURE_INVALID

    def test_signature_does_not_transfer_between_digests(self, scheme):
        ks = Keystore(scheme)
        ks.keygen("k1")
        sig = ks.sign(make_digest("a"), "k1")
        assert not ks.verify(make_digest("b"), sig, "k1").accepted

    def test_signature_does_not_transfer_between_keys(self, scheme):
        ks = Keystore(scheme)
        ks.keygen("k1")
        ks.keygen("k2")
        sig = ks.sign(make_digest(), "k1")
        result = ks.verify(make_digest(), sig, "k2")
        assert not result.accepted
        assert result.reason is RejectReason.SIGNATURE_INVALID

    @pytest.mark.parametrize("junk", [b"", b"\x00", b"not a signature", b"\xff" * 96])
    def test_garbage_signatures_rejected_not_raised(self, scheme, junk):
        ks = Keystore(scheme)
        ks.keygen("k1")
        result = ks.verify(make_digest(), junk, "k1")
        assert not result.accepted
        assert result.reason is RejectReason.SIGNATURE_INVALID


class TestLifecycle:
    def test_duplicate_keygen_rejected(self):
        ks = Keystore()
        ks.keygen("k1")
        with pytest.raises(DuplicateKeyId):
            ks.keygen("k1")

    def test_unknown_key_paths(self):
        ks = Keystore()
        with pytest.raises(UnknownKey):
            ks.sign(make_digest(), "ghost")
        with pytest.raises(UnknownKey):
            ks.revoke("ghost")
        result = ks.verify(make_digest(), b"sig", "ghost")
        assert not result.accepted
        assert result.reason is RejectReason.UNKNOWN_KEY

    def test_revoked_key_cannot_sign(self):
        ks = Keystore()
        ks.keygen("k1")
        ks.revoke("k1")
        with pytest.raises(KeyRevoked):
            ks.sign(make_digest(), "k1")

    def test_signature_made_before_revocation_is_rejected_after(self):
        ks = Keystore()
        ks.keygen("k1")
        d = make_digest()
        sig = ks.sign(d, "k1")
        assert ks.verify(d, sig, "k1").accepted
        ks.revoke("k1")
        result = ks.verify(d, sig, "k1")
        assert not result.accepted
        assert result.reason is RejectReason.KEY_REVOKED

    def test_handles_report_revocation(self):
        ks = Keystore()
        ks.keygen("k1", created_at=123)
        ks.keygen("k2")
        ks.revoke("k2")
        listed = handles(ks)
        assert listed["k1"].created_at == 123
        assert not listed["k1"].revoked
        assert listed["k2"].revoked
        assert len(ks) == 2 and "k1" in ks

    def test_public_api_never_exposes_private_material(self):
        # every externally reachable value must stay on the public side
        ks = Keystore()
        ks.keygen("k1")
        d = make_digest()
        reachable = [
            ks.list_keys()[0],
            ks.sign(d, "k1"),
            ks.verify(d, ks.sign(d, "k1"), "k1"),
        ]
        for value in reachable:
            text = repr(value)
            assert "PrivateKey" not in text
            assert "PRIVATE" not in text
        handle = handles(ks)["k1"]
        assert isinstance(handle.public_key, bytes)
        assert b"PRIVATE" not in handle.public_key


class TestRotation:
    @pytest.mark.parametrize("key_ids", [(), ("a", "b", "a")], ids=["empty", "repeated"])
    def test_key_ids_must_be_present_and_unique(self, key_ids):
        with pytest.raises(ConfigError):
            RotationPolicy.uniform(key_ids)

    def test_uniform_selection_frequencies(self):
        ks = Keystore()
        ks.keygen("a")
        ks.keygen("b")
        policy = RotationPolicy.uniform(["a", "b"])
        rng = np.random.Generator(np.random.Philox(42))
        counts = Counter(ks.select_key(policy, rng) for _ in range(20_000))
        assert counts["a"] / 20_000 == pytest.approx(0.5, abs=0.015)
        assert counts["b"] / 20_000 == pytest.approx(0.5, abs=0.015)

    @pytest.mark.parametrize(
        "key_ids", [("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")], ids=["2", "3", "4"]
    )
    def test_stored_weights_draw_the_keys_recomputed_weights_draw(self, key_ids):
        # the uniform draw picks, from one RNG stream, the keys that the
        # cumulative 1/K-weight draw picks
        policy = RotationPolicy.uniform(key_ids)
        base = 1.0 / len(key_ids)

        def reference_pick(revoked, rng):
            usable = [(k, base) for k in key_ids if k not in revoked]
            r = rng.random() * sum(w for _, w in usable)
            acc = 0.0
            for key_id, weight in usable:
                acc += weight
                if r < acc:
                    return key_id
            return usable[-1][0]

        ks = Keystore()
        for kid in key_ids:
            ks.keygen(kid)
        for revoked in ((), ("b",)):
            for kid in revoked:
                ks.revoke(kid)
            rng, ref_rng = (np.random.Generator(np.random.Philox(45)) for _ in range(2))
            picks = [ks.select_key(policy, rng) for _ in range(2_000)]
            assert picks == [reference_pick(revoked, ref_rng) for _ in range(2_000)]

    def test_draws_are_pinned(self):
        # the first 1,000 draws at seed 7 from four keys, dev-k2 revoked after
        # 400: any change to the weights or to select_key's arithmetic shows
        key_ids = ("dev-k1", "dev-k2", "dev-k3", "dev-k4")
        ks = Keystore()
        for kid in key_ids:
            ks.keygen(kid)
        policy = RotationPolicy.uniform(key_ids)
        rng = np.random.Generator(np.random.Philox(7))
        picks = []
        for draw in range(1_000):
            if draw == 400:
                ks.revoke("dev-k2")
            picks.append(ks.select_key(policy, rng))
        assert "dev-k2" not in picks[400:]
        assert hashlib.sha256(",".join(picks).encode()).hexdigest() == (
            "06fefaf913154c00b72969f8c7516d453f88d3e7eb8c5e61f0fae36bd4898556"
        )

    def test_selection_renormalizes_after_revocation(self):
        ks = Keystore()
        for kid in ("a", "b", "c"):
            ks.keygen(kid)
        ks.revoke("b")
        policy = RotationPolicy.uniform(["a", "b", "c"])
        rng = np.random.Generator(np.random.Philox(44))
        picks = {ks.select_key(policy, rng) for _ in range(500)}
        assert picks == {"a", "c"}

    def test_no_usable_key(self):
        ks = Keystore()
        ks.keygen("a")
        ks.revoke("a")
        rng = np.random.Generator(np.random.Philox(45))
        with pytest.raises(NoUsableKey):
            ks.select_key(RotationPolicy.uniform(["a"]), rng)


@pytest.mark.parametrize("scheme", SCHEMES)
class TestPublicKeyCache:
    def test_verify_uses_the_key_built_at_keygen(self, scheme):
        ks = Keystore(scheme)
        ks.keygen("k1")
        d = make_digest()
        sig = ks.sign(d, "k1")
        # verification needs no private key once the public key is built
        ks._keys["k1"].private_key = None
        assert ks.verify(d, sig, "k1").accepted
        assert not ks.verify(make_digest("other"), sig, "k1").accepted
        ks.revoke("k1")
        assert ks.verify(d, sig, "k1").reason is RejectReason.KEY_REVOKED

    def test_loaded_key_verifies_without_its_private_key(self, tmp_path, scheme):
        ks = Keystore(scheme)
        ks.keygen("k1")
        d = make_digest()
        sig = ks.sign(d, "k1")
        ks.save(tmp_path / "keys.json")
        loaded = Keystore.load(tmp_path / "keys.json")
        loaded._keys["k1"].private_key = None
        assert loaded.verify(d, sig, "k1").accepted
        assert handles(loaded)["k1"].public_key == handles(ks)["k1"].public_key


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "keys.pem"
        ks = Keystore()
        ks.keygen("k1", created_at=7)
        ks.keygen("k2")
        ks.revoke("k2")
        d = make_digest()
        sig = ks.sign(d, "k1")
        ks.save(path)

        loaded = Keystore.load(path)
        assert loaded.scheme == ks.scheme
        assert {h.key_id for h in loaded.list_keys()} == {"k1", "k2"}
        assert handles(loaded)["k2"].revoked
        assert handles(loaded)["k1"].created_at == 7
        assert loaded.verify(d, sig, "k1").accepted
        # the reloaded private key must produce verifiable fresh signatures
        assert ks.verify(d, loaded.sign(d, "k1"), "k1").accepted

    def test_keystore_file_is_owner_only(self, tmp_path):
        path = tmp_path / "keys.pem"
        ks = Keystore()
        ks.keygen("k1")
        ks.save(path)
        assert (path.stat().st_mode & 0o777) == 0o600

    def test_stale_temp_file_does_not_widen_the_mode(self, tmp_path):
        # a crash can leave the temp file behind, readable by everyone
        path = tmp_path / "keys.json"
        stale = tmp_path / "keys.json.tmp"
        stale.write_text("stale", encoding="utf-8")
        stale.chmod(0o644)
        ks = Keystore()
        ks.keygen("k1")
        ks.save(path)
        assert (path.stat().st_mode & 0o777) == 0o600
        assert not stale.exists()
        assert list(handles(Keystore.load(path))) == ["k1"]

    def test_unwritable_temp_path_is_a_storage_error(self, tmp_path):
        (tmp_path / "keys.json.tmp").mkdir()
        ks = Keystore()
        ks.keygen("k1")
        with pytest.raises(StorageError):
            ks.save(tmp_path / "keys.json")

    def test_save_into_missing_directory_is_a_storage_error(self, tmp_path):
        path = tmp_path / "no-such-dir" / "keys.json"
        ks = Keystore()
        ks.keygen("k1")
        with pytest.raises(StorageError, match="cannot write"):
            ks.save(path)
        assert not path.parent.exists()

    def test_passphrase_round_trip(self, tmp_path):
        path = tmp_path / "keys.pem"
        ks = Keystore("ed25519")
        ks.keygen("k1")
        ks.save(path, passphrase="correct horse")
        loaded = Keystore.load(path, passphrase="correct horse")
        d = make_digest()
        assert loaded.verify(d, loaded.sign(d, "k1"), "k1").accepted
        with pytest.raises(StorageError):
            Keystore.load(path, passphrase="wrong")
        with pytest.raises(StorageError):
            Keystore.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            Keystore.load(tmp_path / "absent.pem")

    @pytest.mark.parametrize(
        "scheme, key",
        [
            ("ecdsa-p256", ed25519.Ed25519PrivateKey.generate),
            ("ecdsa-p256", lambda: ec.generate_private_key(ec.SECP384R1())),
            ("ed25519", lambda: ec.generate_private_key(ec.SECP256R1())),
        ],
        ids=["ed25519-in-p256", "p384-in-p256", "p256-in-ed25519"],
    )
    def test_a_key_of_another_scheme_is_refused(self, tmp_path, scheme, key):
        # a P-384 key in an ecdsa-p256 file used to load and sign
        path = tmp_path / "keys.json"
        ks = Keystore(scheme)
        ks.keygen("good")
        ks.keygen("odd")
        ks.save(path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["keys"][1]["private_pem"] = key().private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        ).decode("ascii")
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(StorageError, match=f"cannot load key 'odd': not a {scheme} key"):
            Keystore.load(path)

    @pytest.mark.parametrize(
        "field, value",
        [("revoked", "false"), ("revoked", 0), ("revoked", None),
         ("created_at", 1.9), ("created_at", True), ("created_at", "7")],
    )
    def test_a_key_field_of_another_json_type_is_refused(self, tmp_path, field, value):
        # "false" used to load as revoked, and 1.9 as created_at 1
        path = tmp_path / "keys.json"
        ks = Keystore()
        ks.keygen("good")
        ks.keygen("k1")
        ks.save(path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["keys"][1][field] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(StorageError, match=f"cannot load key 'k1': {field} must be"):
            Keystore.load(path)

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "keys.pem"
        ks = Keystore()
        ks.keygen("k1")
        ks.save(path)
        path.write_text(path.read_text()[:50], encoding="utf-8")
        with pytest.raises(StorageError):
            Keystore.load(path)
