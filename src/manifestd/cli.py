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
import tempfile
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, _kernels
from .audit import build_evidence
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
    ExecutionOutcome,
    ScaleReport,
    WorkloadConfig,
    atomic_write_text,
    audit_receipt,
    config_from_dict,
    json_line,
    read_outcome_rows,
    revocation_preset,
    run_pipeline,
    run_report_dict,
    write_ndjson,
    write_records_csv,
)
from .keystore import Keystore
from .manifest import (
    Manifest,
    digest as manifest_digest,
    manifest_from_dict,
    manifest_to_dict,
    parse_manifest,
)
from .pipeline import accept, admit
from .policy import load_policy_file, read_json_file
from .stats import report_from_rows
from .translog import (
    LEAVES_NAME,
    OFFSETS_NAME,
    RECORDS_NAME,
    TransparencyLog,
    check_integrity,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_POLICY = 2
EXIT_KEY = 3
EXIT_VERIFY = 4
EXIT_STORAGE = 5

LOG_DIR_ENV = "MANIFESTD_LOG_DIR"


class _UsageError(Exception):
    pass


# The exit code of each error, by the first entry its class matches: the
# ManifestdError catch-all comes last, after StorageError and the key errors.
_EXIT_CODES = (
    ((_UsageError, ConfigError, EncodingError, DomainError, OutOfRange), EXIT_CONFIG),
    ((DuplicateKeyId, UnknownKey, KeyRevoked, NoUsableKey), EXIT_KEY),
    (StorageError, EXIT_STORAGE),
    (ManifestdError, EXIT_CONFIG),
)


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the config exit code, not argparse's 2."""

    def error(self, message):
        raise _UsageError(message)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _json_text(obj) -> str:
    """The indented JSON of a summary file."""
    return json.dumps(obj, indent=2) + "\n"


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


def _refuse_unwritable(*paths) -> None:
    """Refuse, creating no file, an output path that cannot take a new file."""
    for path in map(Path, filter(None, paths)):
        try:
            if path.is_dir():
                raise IsADirectoryError("is a directory")
            tempfile.TemporaryFile(dir=path.parent).close()
        except OSError as exc:
            raise StorageError(f"cannot write {path}: {exc}") from exc


def _existing_log(args) -> TransparencyLog:
    """The log a read-only command reads, writing no file; refused if absent."""
    directory = _log_dir(args)
    if not (directory / RECORDS_NAME).is_file():
        raise StorageError(f"no log in {directory}: {RECORDS_NAME} is missing")
    return TransparencyLog(directory)


def _read_manifests(path: Path) -> list[Manifest]:
    """One JSON document per file, or one per line."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    signed = []
    rejected = 0
    for position, manifest in enumerate(manifests):
        dig, report = admit(manifest, policy, now)
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
        signed.append({
            "manifest": manifest_to_dict(manifest),
            "digest": dig.hex,
            "signature": keystore.sign(dig, args.key_id).hex(),
            "key_id": args.key_id,
        })
    if args.out:
        write_ndjson(args.out, signed)
    else:
        for obj in signed:
            print(json_line(obj))
    _emit({"status": "ok" if not rejected else "partial",
           "signed": len(signed), "rejected": rejected})
    return EXIT_POLICY if rejected else EXIT_OK


def cmd_verify(args) -> int:
    keystore = Keystore.load(args.keystore, passphrase=_passphrase(args))
    try:
        text = Path(args.infile).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.infile}: {exc}") from exc
    now = _now_ms(args)
    # an unwritable receipts path fails here, before anything is logged
    _refuse_unwritable(args.receipts)
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
            verdict, appended = accept(
                keystore, log, manifest_digest(manifest), signature, key_id, now
            )
            if appended is None:
                rejected += 1
                _emit({"status": "rejected", "line": lineno,
                       "reason": verdict.reason.value, "key_id": key_id})
                continue
            index, root = appended
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
        write_ndjson(args.receipts, receipts)
    _emit({"status": "ok" if not rejected else "partial",
           "accepted": len(receipts), "rejected": rejected})
    return EXIT_VERIFY if rejected else EXIT_OK


def cmd_audit(args) -> int:
    probability = float(args.probability)
    if not 0.0 <= probability <= 1.0:
        raise ConfigError(f"audit probability {probability} outside [0, 1]")
    # an unwritable output path fails here, before either file is written
    _refuse_unwritable(args.out, args.receipts)
    with _existing_log(args) as log:
        size = log.size
        root = log.current_root()
        sampled = []
        if probability > 0.0 and size > 0:
            seeds = np.random.SeedSequence([int(args.seed)]).spawn(3)
            rng_pick = np.random.Generator(np.random.Philox(seeds[0]))
            rng_content = np.random.Generator(np.random.Philox(seeds[1]))
            rng_times = np.random.Generator(np.random.Philox(seeds[2]))
            for index in range(size):
                if rng_pick.random() >= probability:
                    continue
                entry = log.entry(index)
                # Simulated re-execution: output bytes and stage timings are
                # drawn deterministically from the audit seed.
                output = entry.manifest_digest.value + rng_content.bytes(224)
                exec_ms = 50.0 + abs(rng_times.normal(0.0, 5.0))
                verify_ms = 3.0 + abs(rng_times.normal(0.0, 0.5))
                sampled.append((index, build_evidence(root, output, exec_ms, verify_ms)))
    write_ndjson(args.out, (evidence.to_json_dict() for _, evidence in sampled))
    if args.receipts:
        write_ndjson(args.receipts, (audit_receipt(i, evidence) for i, evidence in sampled))
    _emit(
        {
            "status": "ok",
            "seed": int(args.seed),
            "probability": probability,
            "tree_size": size,
            "sampled": len(sampled),
            "out": str(args.out),
        }
    )
    return EXIT_OK


def _bench_config(args) -> WorkloadConfig:
    # the flags override the file's keys before either is checked, so a flag
    # can correct a value the file holds
    obj = read_json_file(args.config, "config") if args.config else {}
    overrides: dict = {}
    if args.sizes:
        try:
            overrides["sizes"] = [int(s) for s in args.sizes.split(",")]
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
    if isinstance(obj, dict):  # config_from_dict refuses anything else
        obj.update(overrides)
    cfg = config_from_dict(obj)
    if args.scenario == "revocation":
        cfg = revocation_preset(cfg)
    return cfg


def cmd_bench(args) -> int:
    cfg = _bench_config(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot write {out_dir}: {exc}") from exc
    result = run_pipeline(cfg, out_dir)
    # the statistics can still fail; exports are written only once they exist
    report = report_from_rows([outcome.to_row() for outcome in result.outcomes])
    write_records_csv(out_dir / "outcomes.csv", ExecutionOutcome, result.outcomes)
    write_records_csv(out_dir / "metrics.csv", ScaleReport, result.scale_reports)
    write_ndjson(out_dir / "evidence.ndjson", (a.evidence.to_json_dict() for a in result.audits))
    write_ndjson(
        out_dir / "receipts.ndjson",
        ({"scale": a.scale, **audit_receipt(a.log_index, a.evidence)} for a in result.audits),
    )
    atomic_write_text(out_dir / "stats.json", _json_text(dataclasses.asdict(report)))
    atomic_write_text(out_dir / "run-report.json", _json_text(run_report_dict(result)))
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
            "kernel_backend": _kernels.BACKEND,
            "out": str(out_dir),
            "wall_ms_total": round(result.wall_ms_total, 3),
        }
    )
    return EXIT_OK


def cmd_stats(args) -> int:
    rows = read_outcome_rows(args.outcomes)
    text = _json_text(dataclasses.asdict(report_from_rows(rows)))
    if args.out:
        atomic_write_text(args.out, text)
        _emit({"status": "ok", "out": str(args.out)})
    else:
        print(text, end="")
    return EXIT_OK


def cmd_key_gen(args) -> int:
    path = Path(args.keystore)
    passphrase = _passphrase(args)
    if path.exists():
        keystore = Keystore.load(path, passphrase=passphrase)
    else:
        keystore = Keystore(args.scheme)
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
            "path": [sibling.hex() for sibling in proof.path],
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
        derived = {}
        for key, name in (("index_bytes", LEAVES_NAME), ("offsets_bytes", OFFSETS_NAME)):
            try:
                derived[key] = (_log_dir(args) / name).stat().st_size
            except FileNotFoundError:
                derived[key] = 0  # only close() after an append writes it
        _emit(
            {
                "tree_size": log.size,
                "bytes": log.storage_bytes,
                "root": log.current_root().hex,
                "growth": [[n, b] for n, b in series],
                **derived,
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, ManifestdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
