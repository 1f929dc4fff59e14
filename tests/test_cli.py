"""Command-line interface tests, driven through main(argv)."""

import hashlib
import json
import math
import os

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from manifestd import _kernels
from manifestd.audit import build_evidence
from manifestd.cli import (
    EXIT_CONFIG,
    EXIT_KEY,
    EXIT_OK,
    EXIT_POLICY,
    EXIT_STORAGE,
    EXIT_VERIFY,
    LOG_DIR_ENV,
    main,
)
from manifestd.harness import (
    OUTCOME_COLUMNS,
    AuditRecord,
    ErrorKind,
    ExecutionOutcome,
    RunResult,
    ScaleReport,
    Status,
    WorkloadConfig,
    config_to_dict,
)
from manifestd.manifest import ManifestDigest
from manifestd.policy import Severity
from manifestd.translog import (
    CHECKPOINTS_NAME,
    LEAVES_NAME,
    OFFSETS_NAME,
    RECORDS_NAME,
    MerkleProof,
    MerkleRoot,
    TransparencyLog,
    verify_inclusion,
)

NOW = 1_755_000_000_000
DEFAULT_BACKENDS = config_to_dict(WorkloadConfig())["backends"]


def first_backend(**models):
    """The default backends as config JSON, with models of the first one replaced."""
    return [{**DEFAULT_BACKENDS[0], **models}, *DEFAULT_BACKENDS[1:]]


def emitted(capsys):
    """Parse every JSON line the command printed to stdout."""
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    return [json.loads(line) for line in lines]


def write_policy(path):
    policy = {
        "epoch_ms": 60_000,
        "clock_skew_ms": 2_000,
        "rules": [
            {"rule_id": "needs-query", "kind": "required-field",
             "params": {"field": "query", "partition": "user"}},
            {"rule_id": "query-shape", "kind": "field-pattern",
             "params": {"field": "query", "pattern": r"[\w\- ]{1,64}"}, "severity_on_fail": "warn"},
            {"rule_id": "known-tool", "kind": "tool-allowlist", "params": {"tools": ["demo-tool"]}},
            {"rule_id": "fresh", "kind": "freshness-window"},
        ],
    }
    path.write_text(json.dumps(policy), encoding="utf-8")


def write_outcomes(path, scale="10"):
    """Two successful outcome rows on two backends: the least `stats` summarizes."""
    rows = [
        ["w", scale, str(i), f"b{i}", "k1", "success", "", "ok", "1.0", "1.0", "10", "1.0", str(i)]
        for i in range(2)
    ]
    path.write_text("".join(",".join(row) + "\n" for row in [OUTCOME_COLUMNS, *rows]),
                    encoding="utf-8")


def manifest_obj(query="find the train schedule", timestamp=NOW - 1_000):
    return {
        "user_fields": {"query": query, "priority": 2},
        "model_fields": {"system_prompt": "short answers"},
        "timestamp": timestamp,
        "tool_id": "demo-tool",
    }


@pytest.fixture()
def workspace(tmp_path, capsys):
    """Keystore with one key, a policy file, and a signed batch on disk."""
    ks = tmp_path / "keys.pem"
    policy = tmp_path / "policy.json"
    manifests = tmp_path / "manifests.ndjson"
    signed = tmp_path / "signed.ndjson"
    write_policy(policy)
    assert main(["key-gen", "--keystore", str(ks), "--key-id", "op-1", "--now", str(NOW)]) == EXIT_OK
    batch = [manifest_obj(f"task number {i}") for i in range(5)]
    manifests.write_text("".join(json.dumps(m) + "\n" for m in batch), encoding="utf-8")
    rc = main([
        "sign", "--manifest", str(manifests), "--policy", str(policy),
        "--keystore", str(ks), "--key-id", "op-1", "--now", str(NOW),
        "--out", str(signed),
    ])
    assert rc == EXIT_OK
    capsys.readouterr()
    return tmp_path


class TestKeyCommands:
    def test_key_gen_creates_restricted_file(self, tmp_path, capsys):
        ks = tmp_path / "keys.pem"
        rc = main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        assert rc == EXIT_OK
        assert ks.exists()
        assert (ks.stat().st_mode & 0o777) == 0o600
        out = emitted(capsys)
        assert out[-1]["key_id"] == "k1"
        assert out[-1]["scheme"] == "ecdsa-p256"

    def test_duplicate_key_gen_exits_3(self, tmp_path, capsys):
        ks = tmp_path / "keys.pem"
        assert main(["key-gen", "--keystore", str(ks), "--key-id", "k1"]) == EXIT_OK
        assert main(["key-gen", "--keystore", str(ks), "--key-id", "k1"]) == EXIT_KEY

    def test_key_list_and_revoke(self, tmp_path, capsys):
        ks = tmp_path / "keys.pem"
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        main(["key-gen", "--keystore", str(ks), "--key-id", "k2"])
        assert main(["key-revoke", "--keystore", str(ks), "--key-id", "k2"]) == EXIT_OK
        capsys.readouterr()
        assert main(["key-list", "--keystore", str(ks)]) == EXIT_OK
        rows = {row["key_id"]: row for row in emitted(capsys)}
        assert not rows["k1"]["revoked"]
        assert rows["k2"]["revoked"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda store: store.update(keys=5),
            lambda store: store.update(scheme=[1]),
            lambda store: store["keys"].append(7),
            lambda store: store["keys"][0].pop("key_id"),
            lambda store: store["keys"][0].pop("private_pem"),
            lambda store: store["keys"][0].update(key_id=5),
            lambda store: store["keys"][0].update(private_pem=5),
            lambda store: store["keys"][0].update(created_at="x"),
            lambda store: store["keys"][0].update(created_at=1.9),
            lambda store: store["keys"][0].update(revoked="false"),
        ],
        ids=["keys-not-list", "scheme-not-string", "entry-not-object", "no-key-id",
             "no-pem", "key-id-not-string", "pem-not-string", "bad-created-at",
             "float-created-at", "string-revoked"],
    )
    def test_malformed_keystore_exits_5(self, tmp_path, capsys, edit):
        ks = tmp_path / "keys.pem"
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        store = json.loads(ks.read_text())
        edit(store)
        ks.write_text(json.dumps(store))
        capsys.readouterr()
        assert main(["key-list", "--keystore", str(ks)]) == EXIT_STORAGE
        captured = capsys.readouterr()
        assert "keystore" in captured.err
        assert not captured.out

    def test_revoke_unknown_key_exits_3(self, tmp_path):
        ks = tmp_path / "keys.pem"
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        assert main(["key-revoke", "--keystore", str(ks), "--key-id", "nope"]) == EXIT_KEY

    def test_passphrase_env_round_trip(self, tmp_path, monkeypatch, capsys):
        ks = tmp_path / "keys.pem"
        monkeypatch.setenv("KS_PASS", "sesame")
        rc = main(["key-gen", "--keystore", str(ks), "--key-id", "k1",
                   "--passphrase-env", "KS_PASS"])
        assert rc == EXIT_OK
        assert main(["key-list", "--keystore", str(ks), "--passphrase-env", "KS_PASS"]) == EXIT_OK
        monkeypatch.setenv("KS_PASS", "wrong")
        assert main(["key-list", "--keystore", str(ks), "--passphrase-env", "KS_PASS"]) == EXIT_STORAGE


class TestSign:
    def test_policy_rejection_exits_2(self, tmp_path, capsys):
        ks = tmp_path / "keys.pem"
        policy = tmp_path / "policy.json"
        manifests = tmp_path / "m.json"
        write_policy(policy)
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        capsys.readouterr()
        # stale by more than the 60 s epoch
        manifests.write_text(json.dumps(manifest_obj(timestamp=NOW - 90_000)), encoding="utf-8")
        rc = main(["sign", "--manifest", str(manifests), "--policy", str(policy),
                   "--keystore", str(ks), "--key-id", "k1", "--now", str(NOW)])
        assert rc == EXIT_POLICY
        out = emitted(capsys)
        rejection = out[0]
        assert rejection["status"] == "rejected"
        assert any(f["rule_id"] == "fresh" for f in rejection["failed_rules"])
        assert out[-1] == {"status": "partial", "signed": 0, "rejected": 1}

    def test_mixed_batch_signs_the_clean_ones(self, tmp_path, capsys):
        ks = tmp_path / "keys.pem"
        policy = tmp_path / "policy.json"
        manifests = tmp_path / "m.ndjson"
        out = tmp_path / "signed.ndjson"
        write_policy(policy)
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        rows = [manifest_obj("good one"), manifest_obj(timestamp=NOW - 90_000), manifest_obj("also fine")]
        manifests.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = main(["sign", "--manifest", str(manifests), "--policy", str(policy),
                   "--keystore", str(ks), "--key-id", "k1", "--now", str(NOW),
                   "--out", str(out)])
        assert rc == EXIT_POLICY
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"epoch_ms": math.nan},
            {"clock_skew_ms": math.inf},
            {"epoch_ms": "60000"},
            {"epoch_ms": True},
            {"rules": [{"rule_id": "r", "kind": "required-field", "params": "x"}]},
            {"rules": [{"rule_id": None, "kind": "freshness-window"}]},
        ],
        ids=["epoch-nan", "skew-inf", "epoch-str", "epoch-bool", "params-str", "rule-id-null"],
    )
    def test_a_malformed_policy_signs_nothing(self, tmp_path, capsys, change):
        ks = tmp_path / "keys.pem"
        policy = tmp_path / "policy.json"
        manifests = tmp_path / "m.json"
        out = tmp_path / "signed.ndjson"
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        capsys.readouterr()
        # json.dumps writes NaN and Infinity as the literals json.loads reads;
        # a NaN epoch once signed a manifest of any age
        document = {"rules": [{"rule_id": "fresh", "kind": "freshness-window"}], **change}
        policy.write_text(json.dumps(document), encoding="utf-8")
        manifests.write_text(json.dumps(manifest_obj(timestamp=1000)), encoding="utf-8")
        rc = main(["sign", "--manifest", str(manifests), "--policy", str(policy),
                   "--keystore", str(ks), "--key-id", "k1", "--now", "99999999999",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_a_key_of_another_scheme_exits_5(self, tmp_path, capsys):
        ks = tmp_path / "keys.pem"
        policy = tmp_path / "policy.json"
        manifests = tmp_path / "m.json"
        write_policy(policy)
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        obj = json.loads(ks.read_text(encoding="utf-8"))
        assert obj["scheme"] == "ecdsa-p256"
        obj["keys"][0]["private_pem"] = ed25519.Ed25519PrivateKey.generate().private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        ).decode("ascii")
        ks.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        manifests.write_text(json.dumps(manifest_obj()), encoding="utf-8")
        rc = main(["sign", "--manifest", str(manifests), "--policy", str(policy),
                   "--keystore", str(ks), "--key-id", "k1", "--now", str(NOW)])
        assert rc == EXIT_STORAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'k1'" in err

    def test_missing_manifest_file_exits_1(self, tmp_path):
        ks = tmp_path / "keys.pem"
        policy = tmp_path / "policy.json"
        write_policy(policy)
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        rc = main(["sign", "--manifest", str(tmp_path / "absent.json"), "--policy", str(policy),
                   "--keystore", str(ks), "--key-id", "k1"])
        assert rc == EXIT_CONFIG


class TestVerify:
    def test_accepts_and_logs(self, workspace, capsys):
        log_dir = workspace / "log"
        rc = main(["verify", "--in", str(workspace / "signed.ndjson"),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(log_dir), "--now", str(NOW),
                   "--receipts", str(workspace / "receipts.ndjson")])
        assert rc == EXIT_OK
        out = emitted(capsys)
        assert out[-1] == {"status": "ok", "accepted": 5, "rejected": 0}
        receipts = [json.loads(l) for l in (workspace / "receipts.ndjson").read_text().splitlines()]
        assert [r["index"] for r in receipts] == [0, 1, 2, 3, 4]
        with TransparencyLog(log_dir) as log:
            assert log.size == 5
            assert log.current_root().hex == receipts[-1]["root"]

    def test_forged_line_exits_4_and_is_not_logged(self, workspace, capsys):
        signed = workspace / "signed.ndjson"
        lines = signed.read_text().splitlines()
        obj = json.loads(lines[2])
        sig = bytearray(bytes.fromhex(obj["signature"]))
        sig[-1] ^= 0x01
        obj["signature"] = bytes(sig).hex()
        lines[2] = json.dumps(obj)
        signed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        log_dir = workspace / "log"
        rc = main(["verify", "--in", str(signed),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(log_dir), "--now", str(NOW)])
        assert rc == EXIT_VERIFY
        out = emitted(capsys)
        rejected = [o for o in out if o.get("status") == "rejected"]
        assert len(rejected) == 1
        assert rejected[0]["reason"] == "signature-invalid"
        assert rejected[0]["line"] == 3
        with TransparencyLog(log_dir) as log:
            assert log.size == 4

    def test_unknown_key_exits_4(self, workspace, capsys):
        signed = workspace / "signed.ndjson"
        lines = signed.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["key_id"] = "stranger"
        signed.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        rc = main(["verify", "--in", str(signed),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(workspace / "log"), "--now", str(NOW)])
        assert rc == EXIT_VERIFY
        out = emitted(capsys)
        assert out[0]["reason"] == "unknown-key"

    def test_malformed_line_exits_4(self, workspace, capsys):
        signed = workspace / "signed.ndjson"
        signed.write_text("{broken\n", encoding="utf-8")
        rc = main(["verify", "--in", str(signed),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(workspace / "log"), "--now", str(NOW)])
        assert rc == EXIT_VERIFY
        assert emitted(capsys)[0]["reason"] == "malformed-encoding"

    def test_badly_typed_lines_are_rejected_and_the_batch_goes_on(self, workspace, capsys):
        signed = workspace / "signed.ndjson"
        good = signed.read_text().splitlines()
        bad_signature = json.loads(good[1])
        bad_signature["signature"] = 5
        lines = [good[0], "[1]", json.dumps(bad_signature), good[2]]
        signed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        receipts_path = workspace / "receipts.ndjson"
        rc = main(["verify", "--in", str(signed),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(workspace / "log"), "--now", str(NOW),
                   "--receipts", str(receipts_path)])
        assert rc == EXIT_VERIFY
        out = emitted(capsys)
        rejected = [o for o in out if o.get("status") == "rejected"]
        assert [(o["line"], o["reason"]) for o in rejected] == [
            (2, "malformed-encoding"), (3, "malformed-encoding")
        ]
        assert out[-1] == {"status": "partial", "accepted": 2, "rejected": 2}
        receipts = [json.loads(l) for l in receipts_path.read_text().splitlines()]
        assert [(r["line"], r["index"]) for r in receipts] == [(1, 0), (4, 1)]

    @pytest.mark.parametrize("under", [False, True])
    def test_a_log_dir_that_cannot_be_a_directory_exits_5(self, workspace, capsys, under):
        # a file, or a path under one: a traceback and exit 1 before
        log_dir = workspace / "signed.ndjson"
        rc = main(["verify", "--in", str(workspace / "signed.ndjson"),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(log_dir / "sub" if under else log_dir), "--now", str(NOW)])
        assert rc == EXIT_STORAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot open log files"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("receipts", ["nodir/r.ndjson", "log"])
    def test_unwritable_receipts_path_exits_5_before_logging(self, logged, capsys, receipts):
        workspace = logged.parent
        rc = main(["verify", "--in", str(workspace / "signed.ndjson"),
                   "--keystore", str(workspace / "keys.pem"),
                   "--log-dir", str(logged), "--now", str(NOW),
                   "--receipts", str(workspace / receipts)])
        assert rc == EXIT_STORAGE
        assert f"cannot write {workspace / receipts}" in capsys.readouterr().err
        with TransparencyLog(logged) as log:
            assert log.size == 5

    def test_log_dir_env_fallback(self, workspace, monkeypatch, capsys):
        log_dir = workspace / "env-log"
        monkeypatch.setenv(LOG_DIR_ENV, str(log_dir))
        rc = main(["verify", "--in", str(workspace / "signed.ndjson"),
                   "--keystore", str(workspace / "keys.pem"), "--now", str(NOW)])
        assert rc == EXIT_OK
        assert (log_dir / RECORDS_NAME).exists()

    def test_no_log_dir_anywhere_exits_1(self, workspace, monkeypatch):
        monkeypatch.delenv(LOG_DIR_ENV, raising=False)
        rc = main(["verify", "--in", str(workspace / "signed.ndjson"),
                   "--keystore", str(workspace / "keys.pem"), "--now", str(NOW)])
        assert rc == EXIT_CONFIG


@pytest.fixture()
def logged(workspace, capsys):
    log_dir = workspace / "log"
    rc = main(["verify", "--in", str(workspace / "signed.ndjson"),
               "--keystore", str(workspace / "keys.pem"),
               "--log-dir", str(log_dir), "--now", str(NOW)])
    assert rc == EXIT_OK
    capsys.readouterr()
    return log_dir


class TestLogCommands:
    def test_log_verify_clean(self, logged, capsys):
        assert main(["log-verify", "--log-dir", str(logged)]) == EXIT_OK
        assert emitted(capsys)[-1]["ok"] is True

    def test_log_verify_detects_tamper(self, logged, capsys):
        records = logged / RECORDS_NAME
        blob = bytearray(records.read_bytes())
        blob[15] ^= 0x01
        records.write_bytes(bytes(blob))
        assert main(["log-verify", "--log-dir", str(logged)]) == EXIT_VERIFY
        report = emitted(capsys)[-1]
        assert report["ok"] is False
        assert report["tampered_at"] == 0

    def test_log_prove_emits_verifiable_proof(self, logged, capsys):
        assert main(["log-prove", "--log-dir", str(logged), "--index", "2"]) == EXIT_OK
        proof = emitted(capsys)[-1]
        # the printed proof is all a verifier needs: hashes, index and size
        path = tuple(bytes.fromhex(h) for h in proof["path"])
        size = proof["tree_size"]
        assert size == 5 and proof["leaf_index"] == 2
        assert verify_inclusion(
            bytes.fromhex(proof["leaf_hash"]),
            MerkleProof(proof["leaf_index"], size, path),
            MerkleRoot(bytes.fromhex(proof["root"]), size),
        )

    def test_log_prove_out_of_range_exits_1(self, logged):
        assert main(["log-prove", "--log-dir", str(logged), "--index", "99"]) == EXIT_CONFIG

    def test_log_stats_growth(self, logged, capsys):
        assert main(["log-stats", "--log-dir", str(logged), "--samples", "1,3,5"]) == EXIT_OK
        stats = emitted(capsys)[-1]
        assert stats["tree_size"] == 5
        assert [n for n, _ in stats["growth"]] == [1, 3, 5]
        totals = [b for _, b in stats["growth"]]
        assert totals == sorted(totals)

    def test_log_stats_reports_what_reopening_did(self, logged, capsys):
        assert main(["log-stats", "--log-dir", str(logged)]) == EXIT_OK
        stats = emitted(capsys)[-1]
        assert (stats["index_bytes"], stats["offsets_bytes"]) == (5 * _kernels.HASH_SIZE, 5 * 8)
        assert stats["reopen"] == {
            "leaves_from_index": 5, "leaves_rehashed": 0, "index": "kept", "offsets_from_index": 5
        }
        (logged / LEAVES_NAME).unlink()
        # a read writes no index back, so the second run finds none either;
        # the stored ends are taken only for leaves the index gives
        for _ in range(2):
            assert main(["log-stats", "--log-dir", str(logged)]) == EXIT_OK
            stats = emitted(capsys)[-1]
            assert stats["reopen"] == {
                "leaves_from_index": 0, "leaves_rehashed": 5, "index": "extended",
                "offsets_from_index": 0,
            }
            assert (stats["index_bytes"], stats["offsets_bytes"]) == (0, 5 * 8)
        assert not (logged / LEAVES_NAME).exists()

    @pytest.mark.parametrize("damage", ["missing", "flipped"])
    def test_log_stats_reports_the_stored_record_ends(self, logged, capsys, damage):
        offsets = logged / OFFSETS_NAME
        if damage == "missing":
            offsets.unlink()
        else:
            stored = offsets.read_bytes()
            offsets.write_bytes(stored[:9] + bytes([stored[9] ^ 1]) + stored[10:])
        assert main(["log-stats", "--log-dir", str(logged)]) == EXIT_OK
        stats = emitted(capsys)[-1]
        # a stored end that fails its length prefix drops them all
        assert stats["offsets_bytes"] == (0 if damage == "missing" else 5 * 8)
        assert stats["reopen"] == {
            "leaves_from_index": 5, "leaves_rehashed": 0, "index": "kept", "offsets_from_index": 0
        }

    @pytest.mark.parametrize("derived", [LEAVES_NAME, OFFSETS_NAME])
    @pytest.mark.parametrize("index", ["exact", "missing", "cut", "over-long", "flipped"])
    @pytest.mark.parametrize(
        "read",
        [
            ["log-prove", "--index", "3"],
            ["log-stats"],
            ["audit", "--probability", "1", "--seed", "1", "--out", "evidence.ndjson"],
            "open and close",
        ],
    )
    def test_reads_write_nothing(self, logged, capsys, monkeypatch, read, index, derived):
        assert sorted(p.name for p in logged.iterdir()) == sorted(
            [RECORDS_NAME, CHECKPOINTS_NAME, LEAVES_NAME, OFFSETS_NAME]
        )
        path = logged / derived
        stored = path.read_bytes()
        if index == "missing":
            path.unlink()
        elif index == "cut":
            path.write_bytes(stored[:-12])
        elif index == "over-long":
            path.write_bytes(stored + bytes(40))
        elif index == "flipped":
            path.write_bytes(stored[:17] + bytes([stored[17] ^ 1]) + stored[18:])
        for path in logged.iterdir():
            # an old mtime, so that any write shows in it
            os.utime(path, ns=(NOW * 10**6, NOW * 10**6))
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in logged.iterdir()}
        monkeypatch.chdir(logged.parent)
        if read == "open and close":
            with TransparencyLog(logged) as log:
                assert log.entry(3).index == 3 and log.prove_inclusion(3, 4)
        else:
            assert main([*read, "--log-dir", str(logged)]) == EXIT_OK
        after = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in logged.iterdir()}
        assert after == before

    @pytest.mark.parametrize(
        "command",
        [
            ["log-stats"],
            ["log-prove", "--index", "0"],
            ["audit", "--probability", "1", "--seed", "1", "--out", "evidence.ndjson"],
        ],
    )
    @pytest.mark.parametrize("exists", [False, True])
    def test_read_only_commands_create_no_log(self, tmp_path, monkeypatch, command, exists):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(LOG_DIR_ENV, raising=False)
        log_dir = tmp_path / "no" / "log"
        if exists:
            log_dir.mkdir(parents=True)
        assert main([*command, "--log-dir", str(log_dir)]) == EXIT_STORAGE
        assert sorted(tmp_path.rglob("*")) == ([tmp_path / "no", log_dir] if exists else [])

    def test_missing_log_dir_exits_storage(self, tmp_path, monkeypatch):
        monkeypatch.delenv(LOG_DIR_ENV, raising=False)
        rc = main(["log-verify", "--log-dir", str(tmp_path / "nothing")])
        assert rc == EXIT_VERIFY


class TestAudit:
    def test_probability_zero_writes_empty_file(self, logged, capsys):
        out = logged.parent / "evidence.ndjson"
        rc = main(["audit", "--log-dir", str(logged), "--probability", "0",
                   "--seed", "9", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text() == ""
        assert emitted(capsys)[-1]["sampled"] == 0

    def test_full_probability_samples_every_entry(self, logged, capsys):
        out = logged.parent / "evidence.ndjson"
        receipts = logged.parent / "audit-receipts.ndjson"
        rc = main(["audit", "--log-dir", str(logged), "--probability", "1",
                   "--seed", "9", "--out", str(out), "--receipts", str(receipts)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        from manifestd.audit import EvidenceTuple, recheck_evidence

        for line in lines:
            assert recheck_evidence(EvidenceTuple.from_json_line(line))
        receipt_rows = [json.loads(l) for l in receipts.read_text().splitlines()]
        assert [r["log_index"] for r in receipt_rows] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("unwritable", ["out", "receipts"])
    @pytest.mark.parametrize("path", ["nodir/x.ndjson", "log"])
    def test_an_unwritable_output_exits_5_and_writes_neither_file(
        self, logged, capsys, unwritable, path
    ):
        workspace = logged.parent
        paths = {"out": workspace / "evidence.ndjson", "receipts": workspace / "receipts.ndjson"}
        paths[unwritable] = workspace / path
        before = sorted(workspace.iterdir())
        rc = main(["audit", "--log-dir", str(logged), "--probability", "1", "--seed", "9",
                   "--out", str(paths["out"]), "--receipts", str(paths["receipts"])])
        assert rc == EXIT_STORAGE
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert sorted(workspace.iterdir()) == before

    def test_same_seed_reproduces_identical_bytes(self, logged, capsys):
        a = logged.parent / "a.ndjson"
        b = logged.parent / "b.ndjson"
        for path in (a, b):
            rc = main(["audit", "--log-dir", str(logged), "--probability", "0.6",
                       "--seed", "31", "--out", str(path)])
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_frequency_is_refused(self, logged):
        out = logged.parent / "x.ndjson"
        rc = main(["audit", "--log-dir", str(logged), "--probability", "1",
                   "--seed", "1", "--frequency", "2", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_bad_probability_exits_1(self, logged):
        out = logged.parent / "x.ndjson"
        rc = main(["audit", "--log-dir", str(logged), "--probability", "1.5",
                   "--seed", "1", "--out", str(out)])
        assert rc == EXIT_CONFIG


class TestBenchAndStats:
    def test_bench_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--out", str(out), "--sizes", "50,100",
                   "--seed", "99", "--audit-probability", "0.3"])
        assert rc == EXIT_OK
        for name in ("outcomes.csv", "metrics.csv",
                     "evidence.ndjson", "receipts.ndjson", "stats.json", "run-report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "run-report.json").read_text())
        assert report["seed"] == 99
        assert [s["scale"] for s in report["scales"]] == [50, 100]
        stats = json.loads((out / "stats.json").read_text())
        assert stats["scales"] == [50, 100]
        # 150 outcome rows plus the header
        assert len((out / "outcomes.csv").read_text().splitlines()) == 151
        summary = emitted(capsys)[-1]
        assert summary["status"] == "ok"
        assert summary["kernel_backend"] == _kernels.BACKEND

    def test_bench_revocation_scenario(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main(["bench", "--out", str(out), "--sizes", "100,200",
                   "--scenario", "revocation", "--seed", "7"])
        assert rc == EXIT_OK
        rows = (out / "outcomes.csv").read_text().splitlines()
        assert any("key-revoked" in row for row in rows)

    def test_bench_with_config_file(self, tmp_path, capsys):
        from manifestd.harness import WorkloadConfig, config_to_dict

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config_to_dict(WorkloadConfig(sizes=(60,), seed=3))))
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--config", str(cfg_path)]) == EXIT_OK
        report = json.loads((out / "run-report.json").read_text())
        assert report["seed"] == 3

    def test_a_flag_overrides_a_config_value_refused_on_its_own(self, tmp_path, capsys):
        # 0.9 of ten requests cannot all be revoked-key traffic; 0.1 can
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sizes": [10, 20], "invalid_fraction": 0.9,
                                        "adversary_mix": {"revoked-key-use": 1.0}}))
        out = tmp_path / "bench"
        rc = main(["bench", "--out", str(out), "--config", str(cfg_path),
                   "--invalid-fraction", "0.1"])
        assert rc == EXIT_OK
        report = json.loads((out / "run-report.json").read_text())
        assert report["config"]["invalid_fraction"] == 0.1
        assert report["config"]["sizes"] == [10, 20]

    def test_bad_config_file_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{oops", encoding="utf-8")
        rc = main(["bench", "--out", str(tmp_path / "b"), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize(
        "bad",
        [{"sizes": 5}, {"sizes": ["a"]}, {"key_ids": 5}, {"backends": 5}, {"seed": "x"},
         {"invalid_fracton": 0.5},
         {"jitter_epsilon_ms": float("nan")}, {"jitter_epsilon_ms": float("inf")},
         {"base_time_ms": "x"}, {"base_time_ms": True}, {"base_time_ms": 1.5e12},
         {"adversary_mix": {"expired-timestamp": float("nan"), "forged-signature": 0.5,
                            "malformed-manifest": 0.25, "revoked-key-use": 0.25}},
         {"backends": first_backend(exec_latency=[float("nan"), 6.0, 12.0])},
         {"backends": first_backend(output=[float("inf"), 96.0, 0.15])},
         {"key_ids": [1, 2], "revoke_key": 2}, {"scheme": "rsa-1024"},
         {"backends": DEFAULT_BACKENDS[:1], "sizes": [50]},
         {"backends": [{**b, "backend_id": i} for i, b in enumerate(DEFAULT_BACKENDS)]},
         {"sizes": [50.7]}, {"sizes": [True]},
         {"sizes": [10, 20], "invalid_ramp": [0.0, 0.5], "revoke_key": None},
         {"sizes": [10, 20], "adversary_mix": {"revoked-key-use": 1.0},
          "invalid_fraction": 0.9}],
        ids=["sizes-not-list", "size-not-number", "key-ids-not-list", "backends-not-list",
             "seed-not-integer", "unknown-key", "jitter-nan", "jitter-inf",
             "base-time-not-number", "base-time-bool", "base-time-float", "mix-weight-nan",
             "latency-nan", "output-inf", "key-ids-not-strings", "unknown-scheme",
             "one-backend", "backend-ids-not-strings", "size-float", "size-bool",
             "revoked-traffic-at-rank-1-without-key", "revoked-tail-too-short"],
    )
    def test_malformed_config_field_exits_1(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad), encoding="utf-8")
        rc = main(["bench", "--out", str(tmp_path / "b"), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "args",
        [["--sizes", "50", "--invalid-fraction", "1"], ["--sizes", "1"]],
        ids=["no-successes", "one-outcome"],
    )
    def test_a_run_whose_statistics_fail_writes_no_export(self, tmp_path, capsys, args):
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), *args]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["logs"]

    @pytest.mark.parametrize(
        "scenario, outcomes_sha, stats_sha",
        [
            ("default",
             "c6c89ee7f831037a6e3d09574bb6af6c042aa8b7f265e6e4524d61e35eb5fba9",
             "0481db8404642f3eeeac6da59fae9f818c43f35c11481d3bef1da49e623ad6f2"),
            ("revocation",
             "0ba9bd02dbc999cc71dcad69cf89b0f4c621571bdb175966abb1a597a78b3d4b",
             "4973f5f655749b979e34375bcb85db11fa0ccdfbcb979995e4367c0c5a5137d0"),
        ],
    )
    def test_bench_outputs_are_pinned(self, tmp_path, capsys, scenario, outcomes_sha, stats_sha):
        # the two seeded outputs of `bench --sizes 100,500 --seed 7`: any change
        # to request generation, the policy, key selection or the CSV and
        # stats formats shows
        out = tmp_path / "bench"
        assert main(["bench", "--out", str(out), "--sizes", "100,500", "--seed", "7",
                     "--scenario", scenario]) == EXIT_OK
        assert hashlib.sha256((out / "outcomes.csv").read_bytes()).hexdigest() == outcomes_sha
        assert hashlib.sha256((out / "stats.json").read_bytes()).hexdigest() == stats_sha

    def test_stats_over_outcomes(self, tmp_path, capsys):
        out = tmp_path / "bench"
        main(["bench", "--out", str(out), "--sizes", "50,100", "--seed", "5"])
        capsys.readouterr()
        stats_path = tmp_path / "restated.json"
        rc = main(["stats", "--outcomes", str(out / "outcomes.csv"), "--out", str(stats_path)])
        assert rc == EXIT_OK
        restated = json.loads(stats_path.read_text())
        original = json.loads((out / "stats.json").read_text())
        assert restated == original


class TestUsage:
    def test_no_arguments_exits_1(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["key-list", "--bogus"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, code, reading",
        [
            (["sign", "--manifest", "{bad}", "--policy", "{ws}/policy.json", "--keystore",
              "{ws}/keys.pem", "--key-id", "op-1"], EXIT_CONFIG, "manifest file"),
            (["verify", "--in", "{bad}", "--keystore", "{ws}/keys.pem", "--log-dir", "{ws}/log"],
             EXIT_CONFIG, ""),
            (["sign", "--manifest", "{ws}/manifests.ndjson", "--policy", "{bad}", "--keystore",
              "{ws}/keys.pem", "--key-id", "op-1"], EXIT_CONFIG, "policy file"),
            (["bench", "--out", "{ws}/bench", "--config", "{bad}"], EXIT_CONFIG, "config"),
            (["key-list", "--keystore", "{bad}"], EXIT_STORAGE, "keystore"),
            (["stats", "--outcomes", "{bad}"], EXIT_CONFIG, "outcomes file"),
        ],
        ids=["manifest", "verify-in", "policy", "config", "keystore", "outcomes"],
    )
    def test_input_that_is_not_utf8_is_an_error_line(self, workspace, capsys, argv, code,
                                                     reading):
        bad = workspace / "bad.json"
        bad.write_bytes(b"\xff" + json.dumps(manifest_obj()).encode("utf-8"))
        assert main([arg.format(bad=bad, ws=workspace) for arg in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {reading}".rstrip()), err
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sign", "--manifest", "{ws}/manifests.ndjson", "--policy", "{ws}/policy.json",
             "--keystore", "{ws}/keys.pem", "--key-id", "op-1", "--now", str(NOW),
             "--out", "{missing}"],
            ["verify", "--in", "{ws}/signed.ndjson", "--keystore", "{ws}/keys.pem",
             "--log-dir", "{ws}/log", "--now", str(NOW), "--receipts", "{missing}"],
            ["audit", "--log-dir", "{ws}/log", "--probability", "1", "--seed", "9",
             "--out", "{missing}"],
            ["audit", "--log-dir", "{ws}/log", "--probability", "1", "--seed", "9",
             "--out", "{ws}/evidence.ndjson", "--receipts", "{missing}"],
            ["stats", "--outcomes", "{ws}/outcomes.csv", "--out", "{missing}"],
            # a directory cannot be made where a file is
            ["bench", "--sizes", "50", "--out", "{ws}/policy.json"],
        ],
        ids=["sign-out", "verify-receipts", "audit-out", "audit-receipts", "stats-out",
             "bench-out"],
    )
    def test_output_that_cannot_be_written_is_an_error_line(self, logged, capsys, argv):
        workspace = logged.parent
        write_outcomes(workspace / "outcomes.csv")
        missing = workspace / "no-such-dir" / "out.ndjson"
        assert main([arg.format(ws=workspace, missing=missing) for arg in argv]) == EXIT_STORAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write "), err

    @pytest.mark.parametrize(
        "write, reading",
        [
            (lambda path: None, "cannot read outcomes file"),
            (lambda path: path.write_text("scale,status\n10,success\n"), "header is not"),
            (lambda path: write_outcomes(path, scale="ten"), "line 2: invalid literal for int()"),
        ],
        ids=["missing", "no-outcome-columns", "scale-not-a-number"],
    )
    def test_outcomes_that_do_not_parse_are_an_error_line(self, tmp_path, capsys, write,
                                                          reading):
        path = tmp_path / "outcomes.csv"
        write(path)
        assert main(["stats", "--outcomes", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reading in err, err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "manifestd" in capsys.readouterr().out


def golden_run(out_dir):
    """A hand-built two-scale run: fixed outcomes, reports and audit evidence."""
    outcomes = []
    for scale in (4, 8):
        for i in range(scale):
            ok = i % 4 != 3
            outcomes.append(ExecutionOutcome(
                workload_id=f"w{scale}", scale=scale, request_index=i,
                backend_id=f"b{i % 3}", key_id="" if i % 8 == 7 else f"k{i % 2}",
                status=Status.SUCCESS if ok else Status.FAILURE,
                error_kind=None if ok else ErrorKind.KEY_REVOKED,
                severity=Severity.WARN if i == 1 else Severity.OK if ok else Severity.BLOCK,
                exec_time_ms=50.0 + i / 7 if ok else 0.0, verify_time_ms=2.0 + i / 9,
                output_bytes=500 + i if ok else 0,
                timestamp=1_755_000_000_000.0 + i + (i * i) / 13,
                log_index=i - i // 4 if ok else -1,
            ))
    reports = [
        ScaleReport(workload_id=f"w{scale}", scale=scale, requests=scale,
                    successes=scale * 3 // 4, failures=scale // 4,
                    logged_entries=scale * 3 // 4, baseline_wall_ms=scale / 3,
                    secure_wall_ms=scale / 2.9, overhead_delta=1 / 29 + scale / 7e4,
                    modeled_exec_ms=scale * 50.123456, modeled_verify_ms=scale * 2.0987654,
                    log_bytes=scale * 211, final_root_hex=bytes([scale] * 32).hex(),
                    hash_ops=scale * 5, audited=1)
        for scale in (4, 8)
    ]
    audits = []
    for scale, log_index, size in ((4, 1, 3), (8, 4, 6)):
        root = MerkleRoot(bytes(range(size, size + 32)), size)
        evidence = build_evidence(root, b"output %d" % scale, 51.0 + 1 / 3, 2.5 / 3)
        audits.append(AuditRecord(scale=scale, log_index=log_index, evidence=evidence))
    return RunResult(
        config=WorkloadConfig(sizes=(4, 8)), outcomes=outcomes, scale_reports=reports,
        audits=audits, wall_ms_total=12.5, out_dir=out_dir,
    )


class TestExportBytes:
    """The bytes of every export, from fixed inputs through the CLI's writers."""

    BENCH_SHA = {
        "outcomes.csv":
            "c0890e12f240341aa7e4cf9b2ebd2e022d0747fb48a63fc9c4dd68585e972e1c",
        "metrics.csv":
            "5bf7fd7986064322f02bc3761788f6e69f8aeeb001edd76da4fe50e0d865f1f2",
        "evidence.ndjson":
            "944be6f12fc62c03cb1257922420e1e067b4a7638655d3b458e7d40e37c8eba1",
        "receipts.ndjson":
            "ca8d2add4e4208a458886f5174c7707c1f4b65a562d4ed853f09eb4dd405aca7",
        "stats.json":
            "f9de80ab10cfad8f738394fc7642830c852c66fabd8a8dd51001db98e62af83f",
    }
    AUDIT_SHA = {
        "evidence.ndjson":
            "0ea2001ae4bd79d8c61812ed27112a79e1a7d53ca3159d1f2ea8d724e4a29524",
        "receipts.ndjson":
            "76a5d3ec418f040c281cc5cfb45dacdcd3f263c6c1c6bde076ca11890ea5d1f3",
    }

    def test_bench_exports_are_pinned(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "bench"
        run = golden_run(out)
        monkeypatch.setattr("manifestd.cli.run_pipeline", lambda cfg, out_dir: run)
        assert main(["bench", "--out", str(out), "--sizes", "4,8"]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.BENCH_SHA}
        assert digests == self.BENCH_SHA

    def test_audit_exports_are_pinned(self, tmp_path, capsys):
        log_dir = tmp_path / "log"
        with TransparencyLog(log_dir) as log:
            for i in range(8):
                log.append(ManifestDigest(bytes([i] * 32)), bytes([0xA0 + i] * 64),
                           f"op-{i % 2}", NOW + i)
        out, receipts = tmp_path / "evidence.ndjson", tmp_path / "receipts.ndjson"
        assert main(["audit", "--log-dir", str(log_dir), "--probability", "0.5", "--seed", "4",
                     "--out", str(out), "--receipts", str(receipts)]) == EXIT_OK
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, receipts)}
        assert digests == self.AUDIT_SHA
        assert out.read_text() and receipts.read_text()
