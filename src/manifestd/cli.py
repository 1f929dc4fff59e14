"""Command-line interface.

Exit codes: 0 success, 1 configuration or usage problem, 2 policy rejection,
3 key error (duplicate, unknown, revoked, none usable), 4 verification or
integrity failure, 5 storage failure.  Machine-readable results are printed
as single-line JSON objects; bulk outputs go to files and are written
atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .audit import AuditConfig, build_evidence
from .errors import (
    ConfigError,
    DomainError,
    DuplicateKeyId,
    EncodingError,
    KeyRevoked,
    ManifestdError,
    NoUsableKey,
    OutOfRange,
    StorageError,
    UnknownKey,
)
from .harness import (
    WorkloadConfig,
    atomic_write_text,
    config_to_dict,
    load_config_file,
    read_outcome_rows,
    revocation_preset,
    run_pipeline,
    run_report_dict,
    write_audit_receipts,
    write_evidence_ndjson,
    write_growth_csv,
    write_metrics_csv,
    write_outcomes_csv,
)
from .keystore import Keystore
from .manifest import (
    Manifest,
    digest as manifest_digest,
    manifest_from_dict,
    manifest_to_dict,
    parse_manifest,
)
from .policy import evaluate, load_policy_file
from .stats import report_from_rows
from .translog import LEAVES_NAME, RECORDS_NAME, TransparencyLog, check_integrity

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POLICY = 2
EXIT_KEY = 3
EXIT_VERIFY = 4
EXIT_STORAGE = 5

LOG_DIR_ENV = "MANIFESTD_LOG_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the config exit code, not argparse's 2."""

    def error(self, message):
        raise _UsageError(message)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _now_ms(args) -> int:
    if getattr(args, "now", None) is not None:
        return int(args.now)
    return int(time.time() * 1000)


def _passphrase(args) -> Optional[str]:
    env = getattr(args, "passphrase_env", None)
    if not env:
        return None
    value = os.environ.get(env)
    if value is None:
        raise ConfigError(f"environment variable {env} is not set")
    return value


def _log_dir(args) -> Path:
    if getattr(args, "log_dir", None):
        return Path(args.log_dir)
    env = os.environ.get(LOG_DIR_ENV)
    if env:
        return Path(env)
    raise ConfigError(f"no log directory: pass --log-dir or set {LOG_DIR_ENV}")


def _existing_log(args) -> TransparencyLog:
    """The log a read-only command reads; refused, creating nothing, if absent."""
    directory = _log_dir(args)
    if not (directory / RECORDS_NAME).is_file():
        raise StorageError(f"no log in {directory}: {RECORDS_NAME} is missing")
    return TransparencyLog(directory)


def _read_manifests(path: Path) -> list[Manifest]:
    """One JSON document per file, or one per line."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read manifest file {path}: {exc}") from exc
    try:
        return [manifest_from_dict(json.loads(text))]
    except json.JSONDecodeError:
        pass
    manifests = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            manifests.append(parse_manifest(line))
        except EncodingError as exc:
            raise EncodingError(f"{path}:{lineno}: {exc}") from exc
    if not manifests:
        raise ConfigError(f"manifest file {path} holds no manifests")
    return manifests


# -- subcommands ------------------------------------------------------------


def cmd_sign(args) -> int:
    policy = load_policy_file(args.policy)
    keystore = Keystore.load(args.keystore, passphrase=_passphrase(args))
    manifests = _read_manifests(Path(args.manifest))
    now = _now_ms(args)
    lines = []
    rejected = 0
    for position, manifest in enumerate(manifests):
        report = evaluate(manifest, policy, now_ms=now)
        if not report.passed:
            rejected += 1
            _emit(
                {
                    "status": "rejected",
                    "stage": "policy",
                    "position": position,
                    "severity": report.severity.value,
                    "failed_rules": [
                        {"rule_id": rule_id, "severity": sev.value}
                        for rule_id, sev in report.failed_rules
                    ],
                }
            )
            continue
        signed = keystore.sign_manifest(manifest, args.key_id)
        lines.append(
            json.dumps(
                {
                    "manifest": manifest_to_dict(manifest),
                    "digest": signed.digest.hex,
                    "signature": signed.signature.hex(),
                    "key_id": signed.key_id,
                },
                separators=(",", ":"),
                ensure_ascii=False,
            )
        )
    if args.out:
        atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    else:
        for line in lines:
            print(line)
    _emit({"status": "ok" if not rejected else "partial",
           "signed": len(lines), "rejected": rejected})
    return EXIT_POLICY if rejected else EXIT_OK


def cmd_verify(args) -> int:
    keystore = Keystore.load(args.keystore, passphrase=_passphrase(args))
    try:
        text = Path(args.infile).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {args.infile}: {exc}") from exc
    now = _now_ms(args)
    receipts = []
    rejected = 0
    with TransparencyLog(_log_dir(args)) as log:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                manifest = manifest_from_dict(obj["manifest"])
                signature = bytes.fromhex(obj["signature"])
                key_id = str(obj["key_id"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, EncodingError) as exc:
                rejected += 1
                _emit({"status": "rejected", "line": lineno,
                       "reason": "malformed-encoding", "detail": str(exc)})
                continue
            dig = manifest_digest(manifest)
            verdict = keystore.verify(dig, signature, key_id)
            if not verdict.accepted:
                rejected += 1
                _emit({"status": "rejected", "line": lineno,
                       "reason": verdict.reason.value, "key_id": key_id})
                continue
            index, root = log.append(dig, signature, key_id, appended_at=now)
            receipt = {
                "status": "accepted",
                "line": lineno,
                "index": index,
                "tree_size": root.tree_size,
                "root": root.hex,
            }
            receipts.append(receipt)
            _emit(receipt)
    if args.receipts:
        atomic_write_text(
            args.receipts,
            "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in receipts),
        )
    _emit({"status": "ok" if not rejected else "partial",
           "accepted": len(receipts), "rejected": rejected})
    return EXIT_VERIFY if rejected else EXIT_OK


def cmd_audit(args) -> int:
    probability = float(args.probability)
    if not 0.0 <= probability <= 1.0:
        raise ConfigError(f"audit probability {probability} outside [0, 1]")
    with _existing_log(args) as log:
        size = log.size
        root = log.current_root()
        evidence_lines: list[str] = []
        receipt_lines: list[str] = []
        sampled = 0
        if probability > 0.0 and size > 0:
            AuditConfig(probability, args.frequency)
            seeds = np.random.SeedSequence([int(args.seed)]).spawn(3)
            rng_pick = np.random.Generator(np.random.Philox(seeds[0]))
            rng_content = np.random.Generator(np.random.Philox(seeds[1]))
            rng_times = np.random.Generator(np.random.Philox(seeds[2]))
            for index in range(size):
                if rng_pick.random() >= probability:
                    continue
                sampled += 1
                entry = log.entry(index)
                # Simulated re-execution: output bytes and stage timings are
                # drawn deterministically from the audit seed.
                output = entry.manifest_digest.value + rng_content.bytes(224)
                exec_ms = 50.0 + abs(rng_times.normal(0.0, 5.0))
                verify_ms = 3.0 + abs(rng_times.normal(0.0, 0.5))
                evidence = build_evidence(root, output, exec_ms, verify_ms)
                evidence_lines.append(evidence.to_json_line())
                receipt_lines.append(
                    json.dumps(
                        {
                            "log_index": index,
                            "tree_size": root.tree_size,
                            "evidence_digest": evidence.evidence_digest.hex(),
                        },
                        separators=(",", ":"),
                    )
                )
    atomic_write_text(args.out, "".join(line + "\n" for line in evidence_lines))
    if args.receipts:
        atomic_write_text(args.receipts, "".join(line + "\n" for line in receipt_lines))
    _emit(
        {
            "status": "ok",
            "seed": int(args.seed),
            "probability": probability,
            "tree_size": size,
            "sampled": sampled,
            "out": str(args.out),
        }
    )
    return EXIT_OK


def _bench_config(args) -> WorkloadConfig:
    if args.config:
        cfg = load_config_file(args.config)
    else:
        cfg = WorkloadConfig()
    overrides: dict = {}
    if args.sizes:
        try:
            overrides["sizes"] = tuple(int(s) for s in args.sizes.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --sizes value: {exc}") from exc
    if args.invalid_fraction is not None:
        overrides["invalid_fraction"] = args.invalid_fraction
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jitter is not None:
        overrides["jitter_epsilon_ms"] = args.jitter
    if args.audit_probability is not None:
        overrides["audit_probability"] = args.audit_probability
    if overrides:
        from dataclasses import replace

        try:
            cfg = replace(cfg, **overrides)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
    if args.scenario == "revocation":
        cfg = revocation_preset(cfg)
    return cfg


def cmd_bench(args) -> int:
    cfg = _bench_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_pipeline(cfg, out_dir=out_dir)
    write_outcomes_csv(result.outcomes, out_dir / "outcomes.csv")
    write_metrics_csv(result.scale_reports, out_dir / "metrics.csv")
    write_growth_csv(result.growth, out_dir / "growth.csv")
    write_evidence_ndjson(result.audits, out_dir / "evidence.ndjson")
    write_audit_receipts(result.audits, out_dir / "receipts.ndjson")
    rows = [outcome.to_row() for outcome in result.outcomes]
    report = report_from_rows(rows)
    atomic_write_text(out_dir / "stats.json", json.dumps(report.to_json_dict(), indent=2) + "\n")
    atomic_write_text(
        out_dir / "run-report.json", json.dumps(run_report_dict(result), indent=2) + "\n"
    )
    for scale_report in result.scale_reports:
        _emit(
            {
                "workload": scale_report.workload_id,
                "scale": scale_report.scale,
                "successes": scale_report.successes,
                "failures": scale_report.failures,
                "logged": scale_report.logged_entries,
                "secure_wall_ms": round(scale_report.secure_wall_ms, 3),
                "overhead_delta": round(scale_report.overhead_delta, 4),
            }
        )
    _emit(
        {
            "status": "ok",
            "seed": cfg.seed,
            "scenario": args.scenario,
            "kernel_backend": result.kernel_backend,
            "out": str(out_dir),
            "wall_ms_total": round(result.wall_ms_total, 3),
        }
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    rows = read_outcome_rows(args.outcomes)
    report = report_from_rows(rows)
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        _emit({"status": "ok", "out": str(args.out)})
    else:
        print(text, end="")
    return EXIT_OK


def _load_or_new_keystore(path: Path, scheme: str, passphrase: Optional[str]) -> Keystore:
    if path.exists():
        return Keystore.load(path, passphrase=passphrase)
    return Keystore(scheme)


def cmd_key_gen(args) -> int:
    path = Path(args.keystore)
    passphrase = _passphrase(args)
    keystore = _load_or_new_keystore(path, args.scheme, passphrase)
    handle = keystore.keygen(args.key_id, created_at=_now_ms(args))
    keystore.save(path, passphrase=passphrase)
    _emit(
        {
            "status": "ok",
            "key_id": handle.key_id,
            "scheme": handle.scheme,
            "public_key": handle.public_key_hex,
        }
    )
    return EXIT_OK


def cmd_key_revoke(args) -> int:
    path = Path(args.keystore)
    passphrase = _passphrase(args)
    keystore = Keystore.load(path, passphrase=passphrase)
    keystore.revoke(args.key_id)
    keystore.save(path, passphrase=passphrase)
    _emit({"status": "ok", "key_id": args.key_id, "revoked": True})
    return EXIT_OK


def cmd_key_list(args) -> int:
    keystore = Keystore.load(args.keystore, passphrase=_passphrase(args))
    for handle in keystore.list_keys():
        _emit(
            {
                "key_id": handle.key_id,
                "scheme": handle.scheme,
                "created_at": handle.created_at,
                "revoked": handle.revoked,
                "public_key": handle.public_key_hex,
            }
        )
    return EXIT_OK


def cmd_log_verify(args) -> int:
    report = check_integrity(_log_dir(args))
    if report.ok:
        _emit({"ok": True, "detail": report.detail})
        return EXIT_OK
    _emit({"ok": False, "tampered_at": report.tampered_at, "detail": report.detail})
    return EXIT_VERIFY


def cmd_log_prove(args) -> int:
    with _existing_log(args) as log:
        tree_size = args.size if args.size is not None else log.size
        proof = log.prove_inclusion(args.index, tree_size)
        root = log.root_at(tree_size)
        leaf = log.leaf_hash(args.index)
    _emit(
        {
            "leaf_index": proof.leaf_index,
            "tree_size": proof.tree_size,
            "leaf_hash": leaf.hex(),
            "root": root.hex,
            "path": [[sibling.hex(), side] for sibling, side in proof.path],
        }
    )
    return EXIT_OK


def cmd_log_stats(args) -> int:
    with _existing_log(args) as log:
        samples = None
        if args.samples:
            try:
                samples = [int(s) for s in args.samples.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --samples value: {exc}") from exc
        series = log.growth_series(samples)
        _emit(
            {
                "tree_size": log.size,
                "bytes": log.storage_bytes,
                "root": log.current_root().hex,
                "growth": [[n, b] for n, b in series],
                "index_bytes": (log.directory / LEAVES_NAME).stat().st_size,
                "reopen": dataclasses.asdict(log.reopened),
            }
        )
    return EXIT_OK


# -- wiring ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="manifestd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"manifestd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign", help="policy-check and sign manifests")
    p.add_argument("--manifest", required=True, help="manifest JSON file (single or one per line)")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--keystore", required=True)
    p.add_argument("--key-id", required=True)
    p.add_argument("--passphrase-env", help="env var holding the keystore passphrase")
    p.add_argument("--now", type=int, help="verifier clock in epoch ms (defaults to wall clock)")
    p.add_argument("--out", help="write signed manifests here instead of stdout")
    p.set_defaults(func=cmd_sign)

    p = sub.add_parser("verify", help="verify signed manifests and append them to the log")
    p.add_argument("--in", dest="infile", required=True, help="signed-manifest NDJSON file")
    p.add_argument("--keystore", required=True)
    p.add_argument("--passphrase-env")
    p.add_argument("--log-dir", help=f"log directory (default: ${LOG_DIR_ENV})")
    p.add_argument("--now", type=int)
    p.add_argument("--receipts", help="also write acceptance receipts to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="sample log entries and emit evidence tuples")
    p.add_argument("--log-dir", help=f"log directory (default: ${LOG_DIR_ENV})")
    p.add_argument("--probability", required=True, type=float)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--frequency", type=float, default=1.0, help="audits per second (metadata)")
    p.add_argument("--out", required=True, help="evidence NDJSON output")
    p.add_argument("--receipts", help="write per-sample receipts to this file")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bench", help="run the workload ladder and export results")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="workload config JSON file")
    p.add_argument("--sizes", help="comma-separated batch sizes")
    p.add_argument("--invalid-fraction", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--jitter", type=float, help="timing jitter half-width in ms")
    p.add_argument("--audit-probability", type=float)
    p.add_argument("--scenario", choices=["default", "revocation"], default="default")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("stats", help="summarize an outcomes CSV")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("key-gen", help="generate a key")
    p.add_argument("--keystore", required=True)
    p.add_argument("--key-id", required=True)
    p.add_argument("--scheme", default="ecdsa-p256", choices=["ecdsa-p256", "ed25519"])
    p.add_argument("--passphrase-env")
    p.add_argument("--now", type=int)
    p.set_defaults(func=cmd_key_gen)

    p = sub.add_parser("key-revoke", help="revoke a key")
    p.add_argument("--keystore", required=True)
    p.add_argument("--key-id", required=True)
    p.add_argument("--passphrase-env")
    p.set_defaults(func=cmd_key_revoke)

    p = sub.add_parser("key-list", help="list key handles")
    p.add_argument("--keystore", required=True)
    p.add_argument("--passphrase-env")
    p.set_defaults(func=cmd_key_list)

    p = sub.add_parser("log-verify", help="check log integrity")
    p.add_argument("--log-dir", help=f"log directory (default: ${LOG_DIR_ENV})")
    p.set_defaults(func=cmd_log_verify)

    p = sub.add_parser("log-prove", help="emit an inclusion proof")
    p.add_argument("--log-dir", help=f"log directory (default: ${LOG_DIR_ENV})")
    p.add_argument("--index", required=True, type=int)
    p.add_argument("--size", type=int, help="tree size to prove against (default: current)")
    p.set_defaults(func=cmd_log_prove)

    p = sub.add_parser("log-stats", help="entry count, storage bytes, growth series")
    p.add_argument("--log-dir", help=f"log directory (default: ${LOG_DIR_ENV})")
    p.add_argument("--samples", help="comma-separated entry counts to sample")
    p.set_defaults(func=cmd_log_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, EncodingError, DomainError, OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DuplicateKeyId, UnknownKey, KeyRevoked, NoUsableKey) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KEY
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORAGE
    except ManifestdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
