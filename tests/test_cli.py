"""Command-line interface tests, driven through main(argv)."""

import json

import pytest

from manifestd import _kernels
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
from manifestd.policy import PolicyRule, PolicySet, RuleKind, Severity, save_policy_file
from manifestd.translog import LEAVES_NAME, RECORDS_NAME, TransparencyLog

NOW = 1_755_000_000_000


def emitted(capsys):
    """Parse every JSON line the command printed to stdout."""
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    return [json.loads(line) for line in lines]


def write_policy(path):
    policy = PolicySet(
        (
            PolicyRule("needs-query", RuleKind.REQUIRED_FIELD, {"field": "query", "partition": "user"}),
            PolicyRule("query-shape", RuleKind.FIELD_PATTERN,
                       {"field": "query", "pattern": r"[\w\- ]{1,64}"}, Severity.WARN),
            PolicyRule("known-tool", RuleKind.TOOL_ALLOWLIST, {"tools": ["demo-tool"]}),
            PolicyRule("fresh", RuleKind.FRESHNESS_WINDOW, {}),
        ),
        epoch_ms=60_000,
        clock_skew_ms=2_000,
    )
    save_policy_file(policy, path)


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
        ],
        ids=["keys-not-list", "scheme-not-string", "entry-not-object", "no-key-id",
             "no-pem", "key-id-not-string", "pem-not-string", "bad-created-at"],
    )
    def test_malformed_keystore_exits_5(self, tmp_path, capsys, edit):
        ks = tmp_path / "keys.pem"
        main(["key-gen", "--keystore", str(ks), "--key-id", "k1"])
        store = json.loads(ks.read_text())
        edit(store)
        ks.write_text(json.dumps(store))
        capsys.readouterr()
        assert main(["key-list", "--keystore", str(ks)]) == EXIT_STORAGE
        assert "keystore" in capsys.readouterr().err

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
        node = bytes.fromhex(proof["leaf_hash"])
        path = [(bytes.fromhex(h), side) for h, side in proof["path"]]
        assert _kernels.fold_path(node, path).hex() == proof["root"]
        assert proof["tree_size"] == 5

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
        assert stats["index_bytes"] == 5 * _kernels.HASH_SIZE
        assert stats["reopen"] == {"leaves_from_index": 5, "leaves_rehashed": 0, "index": "kept"}
        (logged / LEAVES_NAME).unlink()
        assert main(["log-stats", "--log-dir", str(logged)]) == EXIT_OK
        stats = emitted(capsys)[-1]
        assert stats["reopen"] == {
            "leaves_from_index": 0, "leaves_rehashed": 5, "index": "extended"
        }
        assert stats["index_bytes"] == 5 * _kernels.HASH_SIZE

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

    def test_same_seed_reproduces_identical_bytes(self, logged, capsys):
        a = logged.parent / "a.ndjson"
        b = logged.parent / "b.ndjson"
        for path in (a, b):
            rc = main(["audit", "--log-dir", str(logged), "--probability", "0.6",
                       "--seed", "31", "--out", str(path)])
            assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

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
        for name in ("outcomes.csv", "metrics.csv", "growth.csv",
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

    def test_bad_config_file_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{oops", encoding="utf-8")
        rc = main(["bench", "--out", str(tmp_path / "b"), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err

    @pytest.mark.parametrize(
        "bad",
        [{"sizes": 5}, {"sizes": ["a"]}, {"key_ids": 5}, {"backends": 5}, {"seed": "x"}],
        ids=["sizes-not-list", "size-not-number", "key-ids-not-list", "backends-not-list",
             "seed-not-integer"],
    )
    def test_malformed_config_field_exits_1(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad), encoding="utf-8")
        rc = main(["bench", "--out", str(tmp_path / "b"), "--config", str(cfg_path)])
        assert rc == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "manifestd" in capsys.readouterr().out
