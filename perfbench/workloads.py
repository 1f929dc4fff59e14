"""The three benchmark workloads, driven through manifestd's public functions.

Every workload is a closed loop with one caller on one thread: the next call
is made only after the previous one returned, as a tool host that calls the
library synchronously once per tool call would.  Inputs come from
``harness.generate_batch`` with the default adversarial mix and a seed; the
library sees only those inputs.

* ``sign-pipeline`` runs rounds of the harness secure pass, each into a fresh
  keystore and a fresh log: Manifest() -> digest -> evaluate -> select_key ->
  sign -> verify -> append -> build_evidence (p = 0.1).  ``dev-k2`` is revoked
  40 % into each round; revoked-key traffic was signed before that.
* ``log-audit`` builds a 10^5-entry log from real signed entries during set-up,
  then answers auditor queries over uniformly drawn indices, restarting (a
  reopen) every 16 queries.
* ``log-restart`` appends 10^5 entries to a fresh log, then reopens it
  (replay) and runs ``check_integrity`` until the run's time is up.

Every outcome is checked as it is measured (``Measurement.check``); a wrong
outcome is counted, never raised, so a run reports how many checks failed.
"""

from __future__ import annotations

import math
import shutil
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from calibrate import Reference

from manifestd import _kernels
from manifestd.audit import build_evidence, recheck_evidence
from manifestd.errors import EncodingError, StorageError
from manifestd.harness import (
    FRESHNESS_RULE_ID,
    AttackKind,
    WorkloadConfig,
    default_policy_set,
    generate_batch,
)
from manifestd.keystore import Keystore, RejectReason, RotationPolicy
from manifestd.manifest import Manifest, digest
from manifestd.policy import evaluate
from manifestd.translog import (
    CHECKPOINTS_NAME,
    RECORDS_NAME,
    TransparencyLog,
    check_integrity,
    verify_consistency,
    verify_inclusion,
)

SCHEME = "ecdsa-p256"
ROUND_REQUESTS = 2000  # one sign-pipeline round, one harness scale
POOL_REQUESTS = 1000  # secure-pass round whose logged entries feed the log workloads
POOL_ROUND = 1 << 30  # round number of that round, apart from sign-pipeline's
LOG_ENTRIES = 100_000
SETUP_REPEATS = 3
# Operations are timed in windows of consecutive operations, each with a
# reference time taken before and after it (see calibrate): REQUEST_WINDOW
# requests, APPEND_WINDOW appends, QUERY_WINDOW auditor queries.  Windows
# are short so that the host rarely changes speed inside one.
REQUEST_WINDOW = 500
APPEND_WINDOW = 2000
QUERY_WINDOW = 4
MIN_RESTARTS = 2  # log-restart reopens and checks its log at least this often
AUDIT_RESTART_EVERY = 4  # log-audit reopens its log after this many query windows
EVIDENCE_PROBABILITY = 0.1
OUTPUT_BYTES = 512
# Every fourth auditor query is a consistency query, the rest inclusion
# queries: a window's median is an inclusion query, not a boundary between
# the two kinds, and the mix does not vary with the seed.
CONSISTENCY_EVERY = 4

LOGGED = "logged"
EXPIRED = "expired"
BLOCKED = "policy-blocked"
ENCODING_ERROR = "encoding-error"
SIGNATURE_INVALID = "signature-invalid"
KEY_REVOKED = "key-revoked"

_EXPECTED = {
    None: frozenset({LOGGED}),
    AttackKind.EXPIRED_TIMESTAMP: frozenset({EXPIRED}),
    AttackKind.MALFORMED_MANIFEST: frozenset({ENCODING_ERROR, BLOCKED}),
    AttackKind.FORGED_SIGNATURE: frozenset({SIGNATURE_INVALID}),
    AttackKind.REVOKED_KEY_USE: frozenset({KEY_REVOKED}),
}


def expected_outcomes(round_no: int, request) -> frozenset:
    """Outcomes that are correct for a request of this attack kind."""
    return _EXPECTED[request.kind]


@dataclass
class Measurement:
    """Raw numbers of one workload run; run.py turns them into metrics.

    Each window of operations and each set-up, reopen and integrity sample
    carries the reference time (``calibrate.Reference``) taken around it.
    """

    reference: Reference
    op_ns: array = field(default_factory=lambda: array("q"))
    window_ends: list = field(default_factory=list)  # op_ns indices closing a window
    window_refs: list = field(default_factory=list)  # (reference before, after) per window
    setup_s: list = field(default_factory=list)
    reopen_s: list = field(default_factory=list)
    integrity_s: list = field(default_factory=list)
    refs: dict = field(default_factory=lambda: {"setup": [], "reopen": [], "integrity": []})
    log_bytes: int = 0
    log_entries: int = 0
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def begin_window(self) -> None:
        self._window_ref = self.reference.sample()

    def end_window(self) -> None:
        """Close the window; the next one starts at the reference taken here."""
        if len(self.op_ns) > (self.window_ends[-1] if self.window_ends else 0):
            end_ref = self.reference.sample()
            self.window_ends.append(len(self.op_ns))
            self.window_refs.append((self._window_ref, end_ref))
            self._window_ref = end_ref

    def timed(self, kind: str, fn: Callable, *args, **kwargs):
        """Call ``fn``; record its time in ``<kind>_s`` with the reference around it."""
        before = self.reference.sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        getattr(self, f"{kind}_s").append(time.perf_counter() - start)
        self.refs[kind].append((before + self.reference.sample()) / 2)
        return result

    def windows(self) -> list:
        """Operation times per closed window; all of them if no window closed."""
        if not self.window_ends:
            return [self.op_ns] if self.op_ns else []
        bounds = [0, *self.window_ends]
        return [self.op_ns[a:b] for a, b in zip(bounds, bounds[1:])]

    def check_count(self, checked: int, wrong: int, what: str) -> None:
        """Record ``checked`` checks at once, ``wrong`` of which failed."""
        self.attempted += checked - 1
        self.failed += wrong - (wrong > 0)
        self.check(wrong == 0, what)

    def merge_checks(self, other: "Measurement") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 20 - len(self.failures)])
        self.counts.update(other.counts)

    def add_log(self, directory: Path, entries: int) -> None:
        self.log_bytes += sum((directory / name).stat().st_size
                              for name in (RECORDS_NAME, CHECKPOINTS_NAME))
        self.log_entries += entries


def _streams(seed: int, *key: int, count: int = 1) -> list[np.random.Generator]:
    children = np.random.SeedSequence([seed, *key]).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


@dataclass
class _RoundInputs:
    cfg: WorkloadConfig
    requests: list
    policy: object
    keystore: Keystore
    rotation: RotationPolicy
    presigned: dict
    revoke_at: int
    evidence_inputs: dict
    keysel_rng: np.random.Generator
    check_rng: np.random.Generator


def _prepare_round(seed: int, round_no: int, size: int) -> _RoundInputs:
    """Inputs and keys for one secure-pass round, as the harness makes them."""
    gen, keysel, audit, check = _streams(seed, round_no, size, count=4)
    cfg = WorkloadConfig(seed=seed, sizes=(size,), scheme=SCHEME)
    requests = generate_batch(cfg, size, gen)
    keystore = Keystore(cfg.scheme)
    for key_id in cfg.key_ids:
        keystore.keygen(key_id, created_at=cfg.base_time_ms)
    presigned = {}
    for request in requests:
        if request.kind is AttackKind.REVOKED_KEY_USE:
            manifest = Manifest(user_fields=request.user_fields, model_fields=request.model_fields,
                                timestamp=request.timestamp, tool_id=request.tool_id)
            presigned[request.index] = (request.pinned_key,
                                        keystore.sign(digest(manifest), request.pinned_key))
    sampled = np.flatnonzero(audit.random(size) < EVIDENCE_PROBABILITY)
    evidence_inputs = {
        int(i): (audit.bytes(OUTPUT_BYTES), float(audit.uniform(40.0, 80.0)),
                 float(audit.uniform(1.0, 5.0)))
        for i in sampled
    }
    return _RoundInputs(
        cfg=cfg,
        requests=requests,
        policy=default_policy_set(cfg),
        keystore=keystore,
        rotation=RotationPolicy.uniform(cfg.key_ids),
        presigned=presigned,
        revoke_at=math.ceil(cfg.revoke_at_fraction * size),
        evidence_inputs=evidence_inputs,
        keysel_rng=keysel,
        check_rng=check,
    )


def _flip_last_byte(signature: bytes) -> bytes:
    return signature[:-1] + bytes([signature[-1] ^ 0x01])


def _secure_pass(request, inputs: _RoundInputs, log: TransparencyLog, tr):
    """One request through the secure pass; returns (outcome, logged, evidence)."""
    try:
        manifest = tr.call("manifest.construct", Manifest, user_fields=request.user_fields,
                           model_fields=request.model_fields, timestamp=request.timestamp,
                           tool_id=request.tool_id)
    except EncodingError:
        return ENCODING_ERROR, None, None
    dig = tr.call("manifest.digest", digest, manifest)
    report = tr.call("policy.evaluate", evaluate, manifest, inputs.policy,
                     int(request.scheduled_ms))
    if not report.passed:
        return (EXPIRED if FRESHNESS_RULE_ID in report.failed_rule_ids else BLOCKED), None, None
    keystore = inputs.keystore
    if request.index in inputs.presigned:
        key_id, signature = inputs.presigned[request.index]
    else:
        key_id = tr.call("keystore.select_key", keystore.select_key, inputs.rotation,
                         inputs.keysel_rng)
        signature = tr.call("keystore.sign", keystore.sign, dig, key_id)
    if request.corrupt_signature:
        signature = _flip_last_byte(signature)
    verdict = tr.call("keystore.verify", keystore.verify, dig, signature, key_id)
    if not verdict.accepted:
        if verdict.reason is RejectReason.SIGNATURE_INVALID:
            return SIGNATURE_INVALID, None, None
        if verdict.reason is RejectReason.KEY_REVOKED:
            return KEY_REVOKED, None, None
        return f"rejected-{verdict.reason.value}", None, None
    index, root = tr.call("translog.append", log.append, dig, signature, key_id,
                          int(request.scheduled_ms))
    evidence = None
    sample = inputs.evidence_inputs.get(request.index)
    if sample is not None:
        evidence = tr.call("audit.build_evidence", build_evidence, root, *sample)
    return LOGGED, (index, root, dig, signature, key_id), evidence


def _audit_log(log: TransparencyLog, tr, m: Measurement, index: int, old_root,
               expected_digest, what: str) -> None:
    """Serve and verify an inclusion proof for ``index`` in the tree at ``old_root``
    and a consistency proof from ``old_root`` to the current root."""
    size = old_root.tree_size
    m.check(tr.call("translog.root_at", log.root_at, size) == old_root,
            f"{what}: root_at({size}) differs from the root append returned")
    entry = tr.call("translog.entry", log.entry, index)
    m.check(entry.index == index and entry.manifest_digest == expected_digest,
            f"{what}: entry({index}) does not hold the appended digest")
    leaf = tr.call("_kernels.hash_leaf", _kernels.hash_leaf, entry.to_record())
    proof = tr.call("translog.prove_inclusion", log.prove_inclusion, index, size)
    m.check(tr.call("translog.verify_inclusion", verify_inclusion, leaf, proof, old_root),
            f"{what}: inclusion proof for {index} in tree {size} does not verify")
    current = log.current_root()
    if size < current.tree_size:
        cons = tr.call("translog.prove_consistency", log.prove_consistency, size,
                       current.tree_size)
        m.check(tr.call("translog.verify_consistency", verify_consistency, old_root, current,
                        cons),
                f"{what}: consistency proof {size}->{current.tree_size} does not verify")


def run_round(seed: int, round_no: int, size: int, log_dir: Path, tr, m: Measurement,
              expected: Callable = expected_outcomes, restart: bool = True) -> list:
    """One secure-pass round into a fresh log; returns the logged (digest, sig, key) triples.

    The round's set-up (inputs, keys, pre-signing) is timed into ``m.setup_s``
    and each request's pass into ``m.op_ns``.  After the round every evidence
    tuple is rechecked and one sampled evidence entry is proven against the
    log; with ``restart`` the log is then reopened and integrity-checked, both
    timed.
    """
    inputs = m.timed("setup", _prepare_round, seed, round_no, size)
    what = f"round {round_no}"
    logged = []
    evidence = []
    last_root = None
    with TransparencyLog(log_dir) as log:
        m.begin_window()
        for request in inputs.requests:
            if request.index == inputs.revoke_at:
                inputs.keystore.revoke(inputs.cfg.revoke_key)
            tr.request = request.index
            start = time.perf_counter_ns()
            tr.begin("request")
            try:
                outcome, appended, ev = _secure_pass(request, inputs, log, tr)
            finally:
                tr.end()
            m.op_ns.append(time.perf_counter_ns() - start)
            if request.index % REQUEST_WINDOW == REQUEST_WINDOW - 1:
                m.end_window()
            m.counts[outcome] += 1
            m.check(outcome in expected(round_no, request),
                    f"{what} request {request.index} ({request.kind}): {outcome}")
            if appended is not None:
                index, last_root, dig, sig, key_id = appended
                m.check(index == len(logged), f"{what}: append returned index {index}")
                logged.append((dig, sig, key_id))
                if ev is not None:
                    evidence.append((index, dig, ev))
        tr.request = -1
        m.end_window()
        for _, _, ev in evidence:
            m.check(tr.call("audit.recheck_evidence", recheck_evidence, ev),
                    f"{what}: evidence digest does not recheck")
        if evidence:
            index, dig, ev = evidence[int(inputs.check_rng.integers(0, len(evidence)))]
            _audit_log(log, tr, m, index, ev.merkle_root, dig, f"{what} evidence")
    m.counts["evidence"] += len(evidence)
    if restart:
        reopened = _timed_reopen(log_dir, tr, m, what)
        if reopened is not None:
            with reopened:
                m.check(reopened.size == len(logged)
                        and (last_root is None or reopened.current_root() == last_root),
                        f"{what}: reopened log does not end at the last appended root")
        _timed_integrity(log_dir, tr, m, what)
        m.add_log(log_dir, len(logged))
    return logged


def _timed_reopen(log_dir: Path, tr, m: Measurement, what: str) -> Optional[TransparencyLog]:
    try:
        return m.timed("reopen", tr.call, "translog.reopen", TransparencyLog, log_dir)
    except StorageError as exc:
        m.check(False, f"{what}: reopen failed: {exc}")
        return None


def _timed_integrity(log_dir: Path, tr, m: Measurement, what: str) -> None:
    report = m.timed("integrity", tr.call, "translog.check_integrity", check_integrity, log_dir)
    m.check(report.ok, f"{what}: integrity check failed: {report.detail}")


# -- workloads -------------------------------------------------------------


def sign_pipeline(seed: int, seconds: float, workdir: Path, tr, *,
                  round_requests: int = ROUND_REQUESTS,
                  expected: Callable = expected_outcomes) -> Measurement:
    m = Measurement(Reference("interpreter+ecdsa"))
    deadline = time.perf_counter() + seconds
    round_no = 0
    while round_no == 0 or time.perf_counter() < deadline:
        log_dir = workdir / f"round-{round_no}"
        run_round(seed, round_no, round_requests, log_dir, tr, m, expected=expected)
        shutil.rmtree(log_dir)
        round_no += 1
    m.counts["rounds"] = round_no
    return m


def _entry_pool(seed: int, workdir: Path, tr, m: Measurement, pool_requests: int) -> list:
    """Real signed entries: those one secure-pass round logs.

    Only the round's checks are kept in ``m``; its timings are set-up.
    """
    pool_dir = workdir / "pool"
    pool_m = Measurement(m.reference)
    pool = run_round(seed, POOL_ROUND, pool_requests, pool_dir, tr, pool_m, restart=False)
    m.merge_checks(pool_m)
    shutil.rmtree(pool_dir)
    return pool


def _build_log(log_dir: Path, pool: list, entries: int, tr, m: Measurement) -> list:
    """Append ``entries`` pool entries; returns the root hashes, roots[k] at size k + 1.

    Hashes, not MerkleRoot objects, are kept: they are not tracked by the
    garbage collector, so holding them does not slow the library's calls.
    """
    roots = []
    with TransparencyLog(log_dir) as log:
        for i in range(entries):
            dig, sig, key_id = pool[i % len(pool)]
            index, root = tr.call("translog.append", log.append, dig, sig, key_id, i)
            roots.append(root.value)
        m.check(log.size == entries and len(roots) == entries,
                f"{log_dir.name}: build produced {len(roots)} roots")
    return roots


def _auditor_query(log: TransparencyLog, current, consistency: bool, index: int,
                   old_size: int, tr):
    """One auditor query; returns (proof verified, entry or historical root)."""
    if consistency:
        old = tr.call("translog.root_at", log.root_at, old_size)
        proof = tr.call("translog.prove_consistency", log.prove_consistency, old_size,
                        current.tree_size)
        return tr.call("translog.verify_consistency", verify_consistency, old, current,
                       proof), old
    entry = tr.call("translog.entry", log.entry, index)
    leaf = tr.call("_kernels.hash_leaf", _kernels.hash_leaf, entry.to_record())
    proof = tr.call("translog.prove_inclusion", log.prove_inclusion, index)
    return tr.call("translog.verify_inclusion", verify_inclusion, leaf, proof, current), entry


def _audit_setup(seed: int, workdir: Path, log_dir: Path, entries: int, pool_requests: int,
                 tr, m: Measurement) -> tuple:
    """Entry pool, the built log's root hashes, and the log reopened from disk."""
    pool = _entry_pool(seed, workdir, tr, m, pool_requests)
    roots = _build_log(log_dir, pool, entries, tr, m)
    return pool, roots, _timed_reopen(log_dir, tr, m, "log-audit set-up")


def log_audit(seed: int, seconds: float, workdir: Path, tr, *,
              entries: int = LOG_ENTRIES, pool_requests: int = POOL_REQUESTS) -> Measurement:
    m = Measurement(Reference("interpreter"))
    log = None
    for rep in range(SETUP_REPEATS):
        if log is not None:
            log.close()
            shutil.rmtree(log_dir)
        log_dir = workdir / f"audit-{rep}"
        pool, roots, log = m.timed("setup", _audit_setup, seed, workdir, log_dir, entries,
                                   pool_requests, tr, m)
        if log is None:
            return m
    current = log.current_root()
    m.check(current.value == roots[-1], "reopened log does not end at the last appended root")
    (qrng,) = _streams(seed, 1 << 20)
    query = 0
    deadline = time.perf_counter() + seconds
    m.begin_window()
    while query < QUERY_WINDOW or time.perf_counter() < deadline:
        consistency = query % CONSISTENCY_EVERY == CONSISTENCY_EVERY - 1
        index = int(qrng.integers(0, entries))
        old_size = int(qrng.integers(1, entries))
        tr.request = query
        start = time.perf_counter_ns()
        tr.begin("query")
        try:
            ok, answer = _auditor_query(log, current, consistency, index, old_size, tr)
        finally:
            tr.end()
        m.op_ns.append(time.perf_counter_ns() - start)
        if consistency:
            m.counts["consistency_queries"] += 1
            m.check(ok and answer.tree_size == old_size and answer.value == roots[old_size - 1],
                    f"query {query}: consistency {old_size}->{entries} failed")
        else:
            m.counts["inclusion_queries"] += 1
            m.check(ok and answer.index == index
                    and answer.manifest_digest == pool[index % len(pool)][0],
                    f"query {query}: inclusion of {index} failed")
        query += 1
        if query % QUERY_WINDOW == 0:
            m.end_window()
        if query % (QUERY_WINDOW * AUDIT_RESTART_EVERY) == 0:
            # The auditor restarts: it replays its log from disk and checks it.
            tr.request = -1
            log.close()
            what = f"log-audit restart after query {query}"
            log = _timed_reopen(log_dir, tr, m, what)
            if log is None:
                return m
            m.check(log.current_root() == current, f"{what}: root changed")
            _timed_integrity(log_dir, tr, m, what)
            m.begin_window()
    log.close()
    tr.request = -1
    _timed_integrity(log_dir, tr, m, "log-audit")
    m.add_log(log_dir, entries)
    shutil.rmtree(log_dir)
    return m


def log_restart(seed: int, seconds: float, workdir: Path, tr, *,
                entries: int = LOG_ENTRIES, pool_requests: int = POOL_REQUESTS,
                before_reopen: Optional[Callable[[Path], None]] = None) -> Measurement:
    """Append ``entries`` to a fresh log, then restart it (reopen, check
    integrity) until the run's time is up, at least MIN_RESTARTS times."""
    m = Measurement(Reference("interpreter"))
    for _ in range(SETUP_REPEATS):
        pool = m.timed("setup", _entry_pool, seed, workdir, tr, m, pool_requests)
    (crng,) = _streams(seed, 1 << 21)
    deadline = time.perf_counter() + seconds
    log_dir = workdir / "restart"
    probe_sizes = {int(s) for s in crng.integers(1, entries + 1, size=3)}
    probe_roots = {}
    bad_index = 0
    with TransparencyLog(log_dir) as log:
        op_ns = m.op_ns
        m.begin_window()
        for i in range(entries):
            dig, sig, key_id = pool[i % len(pool)]
            tr.request = i
            start = time.perf_counter_ns()
            index, root = tr.call("translog.append", log.append, dig, sig, key_id, i)
            op_ns.append(time.perf_counter_ns() - start)
            if index % APPEND_WINDOW == APPEND_WINDOW - 1:
                m.end_window()
            if index != i:
                bad_index += 1
            if index + 1 in probe_sizes:
                probe_roots[index + 1] = root
        last_root = root
    tr.request = -1
    m.check_count(entries, bad_index, f"{bad_index} appends returned the wrong index")
    if before_reopen is not None:
        before_reopen(log_dir)
    restart = 0
    while restart < MIN_RESTARTS or time.perf_counter() < deadline:
        what = f"restart {restart}"
        log = _timed_reopen(log_dir, tr, m, what)
        if log is not None:
            with log:
                m.check(log.current_root() == last_root,
                        f"{what}: reopened log does not end at the last appended root")
                if restart == 0:
                    for size, root in sorted(probe_roots.items()):
                        m.check(tr.call("translog.root_at", log.root_at, size) == root,
                                f"{what}: root_at({size}) differs from the root append returned")
        _timed_integrity(log_dir, tr, m, what)
        restart += 1
    m.add_log(log_dir, entries)
    shutil.rmtree(log_dir)
    return m


WORKLOADS = {
    "sign-pipeline": sign_pipeline,
    "log-audit": log_audit,
    "log-restart": log_restart,
}
