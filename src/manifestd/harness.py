"""End-to-end workload driver.

Runs the full pipeline over a ladder of batch sizes, with a configurable
fraction of adversarial traffic.  Each request goes through
``Request.manifest``, ``pipeline.admit`` (digest, policy), key selection and
signing, ``pipeline.accept`` (verify, then log append), simulated execution
and audit sampling.  Backends are simulated: latencies and output sizes are
drawn from per-backend models using counter-based RNG streams, so a
(config, seed) pair reproduces the exact outcome list.  Wall-clock
measurements cover the pipeline work itself; no sleeping is involved.

The baseline pass used for overhead measurement runs the same requests with
signing, verification, and logging elided (``manifest`` and ``admit`` and the
simulated execution are kept).  The two passes take turns, a chunk of
requests at a time, and each sums its own spans, so both see the same host
load; each keeps its own RNG streams, so the outcomes do not depend on the
interleaving.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .audit import EvidenceTuple, build_evidence, overhead
from .errors import ConfigError, EncodingError
from .keystore import Keystore, RejectReason, RotationPolicy
from .manifest import Manifest, digest as manifest_digest
from .pipeline import accept, admit
from .policy import (
    DEFAULT_CLOCK_SKEW_MS,
    DEFAULT_EPOCH_MS,
    PolicyRule,
    PolicySet,
    RuleKind,
    Severity,
)
from .translog import TransparencyLog, atomic_write_bytes

BASELINE_DEFINITION = (
    "same requests with signing, verification, and logging elided; "
    "encode, digest, policy evaluation, and simulated execution kept"
)

DEFAULT_SIZES = (100, 500, 1000, 5000, 10000, 20000, 50000)
DEFAULT_KEY_IDS = ("dev-k1", "dev-k2")

FRESHNESS_RULE_ID = "fresh-window"
PRIORITY_RULE_ID = "priority-soft-cap"

# The fixed shape of every generated batch.  Valid requests carry a priority
# in [1, MAX_PRIORITY]; a share WARN_BASE + WARN_STEP * rank of them exceed
# it and trip the soft cap.  Requests are scheduled ARRIVAL_SPACING_MS apart.
MAX_PRIORITY = 5
WARN_BASE = 0.02
WARN_STEP = 0.01
ARRIVAL_SPACING_MS = 1.0
# Dispersion variance c * N^g; c is large enough that the jitter floor
# does not mask the growth law at the smallest ladder rung.
BURST_COEFF = 5e-3
BURST_EXPONENT = 1.3

# Requests in the warm-up batch that run_pipeline runs first and drops.
WARMUP_SIZE = 256

# Requests per turn when the baseline and secure passes alternate: small
# enough that both passes see the same host load, large enough that the
# clock reads are negligible.
_CHUNK = 256


class AttackKind(enum.Enum):
    EXPIRED_TIMESTAMP = "expired-timestamp"
    FORGED_SIGNATURE = "forged-signature"
    MALFORMED_MANIFEST = "malformed-manifest"
    REVOKED_KEY_USE = "revoked-key-use"


class Status(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class ErrorKind(enum.Enum):
    SIGNATURE_INVALID = "signature-invalid"
    KEY_REVOKED = "key-revoked"
    EXPIRED_TIMESTAMP = "expired-timestamp"
    POLICY_VIOLATION = "policy-violation"
    MALFORMED_ENCODING = "malformed-encoding"


@dataclass(frozen=True)
class LatencyModel:
    """Per-call latency: base plus decaying startup cost plus half-normal spread."""

    base_ms: float
    spread_ms: float
    init_overhead_ms: float = 0.0

    def __post_init__(self) -> None:
        if not all(0 <= value < math.inf for value in astuple(self)):
            raise ConfigError("latency model parameters must be finite and non-negative")

    def draw(self, rng, call_index: int) -> float:
        warmup = self.init_overhead_ms / math.sqrt(call_index + 1.0)
        return self.base_ms + warmup + abs(rng.normal(0.0, self.spread_ms))


@dataclass(frozen=True)
class OutputModel:
    """Output size draw; the spread decays with scale rank."""

    mean_bytes: float
    spread_bytes: float
    variance_decay: float = 0.15

    def __post_init__(self) -> None:
        spreads = (self.spread_bytes, self.variance_decay)
        if not (0 < self.mean_bytes < math.inf and all(0 <= v < math.inf for v in spreads)):
            raise ConfigError("output model parameters must be finite, the mean positive")

    def draw(self, rng, scale_rank: int) -> int:
        spread = self.spread_bytes * math.exp(-self.variance_decay * scale_rank / 2.0)
        return max(1, int(round(rng.normal(self.mean_bytes, spread))))


@dataclass(frozen=True)
class SimulatedBackend:
    backend_id: str
    exec_latency: LatencyModel
    verify_latency: LatencyModel
    output: OutputModel


def default_backends() -> tuple[SimulatedBackend, ...]:
    return (
        SimulatedBackend(
            backend_id="gpt-4-turbo",
            exec_latency=LatencyModel(base_ms=58.1, spread_ms=6.0, init_overhead_ms=12.0),
            verify_latency=LatencyModel(base_ms=1.9, spread_ms=0.4),
            output=OutputModel(mean_bytes=520.0, spread_bytes=96.0),
        ),
        SimulatedBackend(
            backend_id="llama-3.5",
            exec_latency=LatencyModel(base_ms=47.4, spread_ms=7.5, init_overhead_ms=10.0),
            verify_latency=LatencyModel(base_ms=4.7, spread_ms=0.8),
            output=OutputModel(mean_bytes=480.0, spread_bytes=110.0),
        ),
        SimulatedBackend(
            backend_id="deepseek-v3",
            exec_latency=LatencyModel(base_ms=64.9, spread_ms=6.5, init_overhead_ms=25.0),
            verify_latency=LatencyModel(base_ms=3.2, spread_ms=0.5),
            output=OutputModel(mean_bytes=560.0, spread_bytes=90.0),
        ),
    )


def _uniform_mix() -> tuple[tuple[AttackKind, float], ...]:
    kinds = tuple(AttackKind)
    return tuple((kind, 1.0 / len(kinds)) for kind in kinds)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _unique_names(names: Sequence) -> bool:
    """True if every name is a non-empty string and none repeats."""
    return all(isinstance(n, str) and n for n in names) and len(set(names)) == len(names)


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything a run depends on; (config, seed) determines the outcome list."""

    sizes: tuple[int, ...] = DEFAULT_SIZES
    invalid_fraction: float = 0.2
    adversary_mix: tuple[tuple[AttackKind, float], ...] = field(default_factory=_uniform_mix)
    seed: int = 7
    backends: tuple[SimulatedBackend, ...] = field(default_factory=default_backends)
    key_ids: tuple[str, ...] = DEFAULT_KEY_IDS
    scheme: str = "ecdsa-p256"
    jitter_epsilon_ms: float = 0.5
    audit_probability: float = 0.1
    base_time_ms: int = 1_755_000_000_000
    revoke_key: Optional[str] = "dev-k2"
    revoke_at_fraction: float = 0.4
    invalid_ramp: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        sizes = tuple(self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes or not all(_is_int(s) and s > 0 for s in sizes):
            raise ConfigError("sizes must be positive integers")
        if list(sizes) != sorted(set(sizes)):
            raise ConfigError("sizes must increase, without repeats")
        if not 0.0 <= self.invalid_fraction <= 1.0:
            raise ConfigError("invalid_fraction outside [0, 1]")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not _is_int(self.base_time_ms):
            raise ConfigError("base_time_ms must be an integer")
        Keystore(self.scheme)  # refuses an unknown scheme
        mix = tuple((AttackKind(k), float(w)) for k, w in self.adversary_mix)
        object.__setattr__(self, "adversary_mix", mix)
        if len({k for k, _ in mix}) != len(mix):
            raise ConfigError("duplicate attack kind in adversary mix")
        if not all(0 <= w < math.inf for _, w in mix):
            raise ConfigError("adversary mix weights must be finite and non-negative")
        if mix and abs(sum(w for _, w in mix) - 1.0) > 1e-9:
            raise ConfigError("adversary mix weights must sum to 1")
        backends = tuple(self.backends)
        object.__setattr__(self, "backends", backends)
        if len(backends) < 2:
            raise ConfigError("need at least two backends, for the fairness summary")
        ids = [b.backend_id for b in backends]
        if not _unique_names(ids):
            raise ConfigError("backend ids must be unique non-empty strings")
        key_ids = tuple(self.key_ids)
        object.__setattr__(self, "key_ids", key_ids)
        if not key_ids or not _unique_names(key_ids):
            raise ConfigError("key ids must be unique non-empty strings, at least one")
        if not 0 <= self.jitter_epsilon_ms < math.inf:
            raise ConfigError("jitter epsilon must be finite and non-negative")
        if not 0.0 <= self.audit_probability <= 1.0:
            raise ConfigError("audit probability outside [0, 1]")
        if not 0.0 <= self.revoke_at_fraction < 1.0:
            raise ConfigError("revoke_at_fraction outside [0, 1)")
        if self.revoke_key is not None and self.revoke_key not in key_ids:
            raise ConfigError("revoke_key must be one of key_ids")
        if self.invalid_ramp is not None:
            base, step = self.invalid_ramp
            object.__setattr__(self, "invalid_ramp", (float(base), float(step)))
            for rank in range(len(sizes)):
                f = base + step * rank
                if not 0.0 <= f <= 1.0:
                    raise ConfigError("invalid_ramp leaves [0, 1] over the size ladder")
        # every batch of a run, the warm-up too, can place its revoked-key requests
        for rank, size in [*enumerate(sizes), (0, WARMUP_SIZE)]:
            self._attack_counts(size, rank)

    def backend_ids(self) -> tuple[str, ...]:
        return tuple(b.backend_id for b in self.backends)

    def scale_rank(self, scale: int) -> int:
        if scale in self.sizes:
            return self.sizes.index(scale)
        return sum(1 for s in self.sizes if s < scale)

    def invalid_fraction_at(self, rank: int) -> float:
        if self.invalid_ramp is None:
            return self.invalid_fraction
        base, step = self.invalid_ramp
        return base + step * rank

    def _attack_counts(self, scale: int, rank: int) -> dict[AttackKind, int]:
        """Requests of each ``adversary_mix`` kind in a batch of ``scale`` at ``rank``.

        Revoked-key requests need a ``revoke_key`` and room after the first
        ``revoke_at_fraction`` of the batch, where the key is revoked.
        """
        n_invalid = round(self.invalid_fraction_at(rank) * scale)
        kinds = [k for k, _ in self.adversary_mix]
        weights = [w for _, w in self.adversary_mix]
        counts = dict(zip(kinds, _largest_remainder(n_invalid, weights)))
        revoked = counts.get(AttackKind.REVOKED_KEY_USE, 0)
        revoke_at = math.ceil(self.revoke_at_fraction * scale)
        if revoked and self.revoke_key is None:
            raise ConfigError("revoked-key-use traffic requires revoke_key to be set")
        if revoked > scale - revoke_at:
            raise ConfigError(f"cannot place {revoked} revoked-key requests after index "
                              f"{revoke_at} in a batch of {scale}")
        return counts


def revocation_preset(base: Optional[WorkloadConfig] = None) -> WorkloadConfig:
    """Adversary mix dominated by revoked-key use, with a rising invalid share."""
    cfg = base if base is not None else WorkloadConfig()
    n_ranks = len(cfg.sizes)
    step = 0.08 / (n_ranks - 1) if n_ranks > 1 else 0.0
    return replace(
        cfg,
        adversary_mix=(
            (AttackKind.REVOKED_KEY_USE, 0.85),
            (AttackKind.EXPIRED_TIMESTAMP, 0.05),
            (AttackKind.FORGED_SIGNATURE, 0.05),
            (AttackKind.MALFORMED_MANIFEST, 0.05),
        ),
        invalid_ramp=(0.11, step),
        revoke_key=cfg.revoke_key or "dev-k2",
    )


# -- config (de)serialization ---------------------------------------------


_BACKEND_MODELS = {"exec_latency": LatencyModel, "verify_latency": LatencyModel,
                   "output": OutputModel}


def _backend_to_json(backend: SimulatedBackend) -> dict:
    models = {name: list(astuple(getattr(backend, name))) for name in _BACKEND_MODELS}
    return {"backend_id": backend.backend_id, **models}


def _backend_from_json(raw) -> SimulatedBackend:
    models = {name: model(*raw[name]) for name, model in _BACKEND_MODELS.items()}
    return SimulatedBackend(backend_id=raw["backend_id"], **models)


def _listed(value) -> list:
    if not isinstance(value, list):
        raise TypeError("must be a list")
    return value


def _mix_from_json(value) -> tuple:
    if not isinstance(value, Mapping):
        raise TypeError("must map attack kind to weight")
    return tuple((AttackKind(k), float(w)) for k, w in value.items())


def _ramp_from_json(value) -> Optional[list]:
    if value is not None and not (isinstance(value, list) and len(value) == 2):
        raise TypeError("must be [base, step] or null")
    return value


# (to JSON, from JSON) for the fields JSON cannot hold as they are; every
# other field is written and read unchanged.  WorkloadConfig turns the lists
# read back into tuples.
_CODECS = {
    "sizes": (list, _listed),
    "adversary_mix": (lambda mix: {kind.value: w for kind, w in mix}, _mix_from_json),
    "backends": (lambda backends: [_backend_to_json(b) for b in backends],
                 lambda value: [_backend_from_json(raw) for raw in _listed(value)]),
    "key_ids": (list, _listed),
    "invalid_ramp": (lambda ramp: None if ramp is None else list(ramp), _ramp_from_json),
}


def config_to_dict(cfg: WorkloadConfig) -> dict:
    """The JSON object of ``cfg``: one key per field, in field order."""
    out = {}
    for f in fields(WorkloadConfig):
        value = getattr(cfg, f.name)
        out[f.name] = _CODECS[f.name][0](value) if f.name in _CODECS else value
    return out


def config_from_dict(obj: Mapping) -> WorkloadConfig:
    """The config a JSON object describes; a key that is not a field is refused."""
    if not isinstance(obj, Mapping):
        raise ConfigError("workload config must be a JSON object")
    names = {f.name for f in fields(WorkloadConfig)}
    kwargs = {}
    for name, value in obj.items():
        if name not in names:
            raise ConfigError(f"unknown workload config key {name!r}")
        if name in _CODECS:
            try:
                value = _CODECS[name][1](value)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad {name}: {exc}") from exc
        kwargs[name] = value
    try:
        return WorkloadConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad workload config: {exc}") from exc


# -- request generation ----------------------------------------------------


@dataclass(frozen=True)
class Request:
    """Raw material for one pipeline iteration.

    Field payloads are kept unconstructed so that malformed ones exercise the
    manifest constructor inside the pipeline rather than at generation time.
    """

    index: int
    kind: Optional[AttackKind]
    user_fields: Mapping[str, object]
    model_fields: Mapping[str, object]
    timestamp: int
    tool_id: str
    scheduled_ms: float
    pinned_key: Optional[str] = None
    corrupt_signature: bool = False

    def manifest(self) -> Manifest:
        """The request's manifest; raises EncodingError for a malformed one."""
        return Manifest(
            user_fields=self.user_fields,
            model_fields=self.model_fields,
            timestamp=self.timestamp,
            tool_id=self.tool_id,
        )


def select_backend(backend_ids: Sequence[str], rng) -> str:
    """Uniform draw over the configured backends."""
    return backend_ids[int(rng.integers(0, len(backend_ids)))]


def apply_jitter(value_ms: float, epsilon_ms: float, rng) -> float:
    """Additive uniform noise on (-epsilon, epsilon); zero epsilon is exact."""
    if epsilon_ms < 0:
        raise ConfigError("jitter epsilon must be non-negative")
    if epsilon_ms == 0:
        return value_ms
    return value_ms + rng.uniform(-epsilon_ms, epsilon_ms)


def _largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    raw = [total * w for w in weights]
    counts = [int(x) for x in raw]
    short = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in order[:short]:
        counts[i] += 1
    return counts


def generate_batch(cfg: WorkloadConfig, scale: int, rng) -> list[Request]:
    """Build one batch of requests with the configured adversarial share."""
    rank = cfg.scale_rank(scale)
    fraction = cfg.invalid_fraction_at(rank)
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"invalid fraction {fraction} at rank {rank}")
    n_invalid = round(fraction * scale)
    counts = cfg._attack_counts(scale, rank)

    # Places are handed out in the order of perm: the revoked-key requests
    # take the first ones after the revocation, each other kind in turn the
    # next free ones, and the warnings the free ones after those.
    perm = [int(i) for i in rng.permutation(scale)]
    revoke_at = math.ceil(cfg.revoke_at_fraction * scale)
    revoked = [i for i in perm if i >= revoke_at][:counts.get(AttackKind.REVOKED_KEY_USE, 0)]
    kind_of = dict.fromkeys(revoked, AttackKind.REVOKED_KEY_USE)
    free = iter([i for i in perm if i not in kind_of])
    for kind, count in counts.items():
        if kind is not AttackKind.REVOKED_KEY_USE:
            kind_of.update((i, kind) for i in islice(free, count))
    n_warn = min(scale - n_invalid, round((WARN_BASE + WARN_STEP * rank) * scale))
    warn_positions = set(islice(free, n_warn))

    backend_ids = cfg.backend_ids()
    requests: list[Request] = []
    malformed_parity = 0
    for index in range(scale):
        scheduled = cfg.base_time_ms + index * ARRIVAL_SPACING_MS
        kind = kind_of.get(index)
        tool_id = select_backend(backend_ids, rng)
        timestamp = int(scheduled)
        if index in warn_positions:
            priority = MAX_PRIORITY + 1 + int(rng.integers(0, 3))
        else:
            priority = 1 + int(rng.integers(0, MAX_PRIORITY))
        user_fields: dict[str, object] = {
            "query": f"task {rng.integers(0, 1 << 48):012x}",
            "priority": priority,
            "request_tag": f"{rng.integers(0, 1 << 60):015x}",
        }
        model_fields: dict[str, object] = {
            "system_prompt": f"profile-{int(rng.integers(0, 16))}",
            "context_window": int(rng.integers(1, 9)) * 4096,
        }
        pinned_key: Optional[str] = None
        corrupt = False
        if kind is AttackKind.EXPIRED_TIMESTAMP:
            timestamp = int(scheduled) - (DEFAULT_EPOCH_MS + DEFAULT_CLOCK_SKEW_MS + 10_000)
        elif kind is AttackKind.FORGED_SIGNATURE:
            corrupt = True
        elif kind is AttackKind.MALFORMED_MANIFEST:
            if malformed_parity == 0:
                tool_id = "unregistered-tool"
            else:
                # Same key in both partitions: construction itself fails.
                model_fields["query"] = "conflicting"
            malformed_parity ^= 1
        elif kind is AttackKind.REVOKED_KEY_USE:
            pinned_key = cfg.revoke_key
        requests.append(
            Request(
                index=index,
                kind=kind,
                user_fields=user_fields,
                model_fields=model_fields,
                timestamp=timestamp,
                tool_id=tool_id,
                scheduled_ms=scheduled,
                pinned_key=pinned_key,
                corrupt_signature=corrupt,
            )
        )
    return requests


def default_policy_set(cfg: WorkloadConfig) -> PolicySet:
    """Policy used by the bench pipeline; blocking rules plus one soft cap."""
    return PolicySet(
        rules=(
            PolicyRule("require-query", RuleKind.REQUIRED_FIELD,
                       {"field": "query", "partition": "user"}),
            PolicyRule("require-system-prompt", RuleKind.REQUIRED_FIELD,
                       {"field": "system_prompt", "partition": "model"}),
            PolicyRule("query-shape", RuleKind.FIELD_PATTERN,
                       {"field": "query", "partition": "user",
                        "pattern": r"[\w\- ]{1,64}"}),
            PolicyRule(PRIORITY_RULE_ID, RuleKind.VALUE_RANGE,
                       {"field": "priority", "partition": "user",
                        "min": 1, "max": MAX_PRIORITY},
                       severity_on_fail=Severity.WARN),
            PolicyRule("context-window-range", RuleKind.VALUE_RANGE,
                       {"field": "context_window", "partition": "model",
                        "min": 1, "max": 1_000_000}),
            PolicyRule("field-budget", RuleKind.MAX_FIELD_COUNT, {"max_fields": 32}),
            PolicyRule("encoding-budget", RuleKind.MAX_ENCODING_SIZE, {"max_bytes": 4096}),
            PolicyRule("tool-registered", RuleKind.TOOL_ALLOWLIST,
                       {"tools": list(cfg.backend_ids())}),
            PolicyRule(FRESHNESS_RULE_ID, RuleKind.FRESHNESS_WINDOW, {}),
        ),
    )


# -- outcomes ---------------------------------------------------------------


# The decimals a float field is written with in a CSV export (see ``_cells``).
_3DP = {"decimals": 3}
_6DP = {"decimals": 6}


@dataclass(frozen=True)
class ExecutionOutcome:
    workload_id: str
    scale: int
    request_index: int
    backend_id: str
    key_id: str
    status: Status
    error_kind: Optional[ErrorKind]
    severity: Severity
    exec_time_ms: float = field(metadata=_6DP)
    verify_time_ms: float = field(metadata=_6DP)
    output_bytes: int
    timestamp: float = field(metadata=_6DP)
    log_index: int

    def to_row(self) -> dict:
        """This outcome's cells of ``outcomes.csv``, by column."""
        return dict(zip(OUTCOME_COLUMNS, _cells(self)))


OUTCOME_COLUMNS = [f.name for f in fields(ExecutionOutcome)]


@dataclass(frozen=True)
class AuditRecord:
    """Where one sampled execution sits in its per-scale log."""

    scale: int
    log_index: int
    evidence: EvidenceTuple


def audit_receipt(log_index: int, evidence: EvidenceTuple) -> dict:
    """The receipt of one audited log entry: its index, the tree size its
    evidence commits to, and the evidence digest."""
    return {
        "log_index": log_index,
        "tree_size": evidence.merkle_root.tree_size,
        "evidence_digest": evidence.evidence_digest.hex(),
    }


@dataclass(frozen=True)
class ScaleReport:
    workload_id: str
    scale: int
    requests: int
    successes: int
    failures: int
    logged_entries: int
    baseline_wall_ms: float = field(metadata=_3DP)
    secure_wall_ms: float = field(metadata=_3DP)
    overhead_delta: float = field(metadata=_6DP)
    modeled_exec_ms: float = field(metadata=_3DP)
    modeled_verify_ms: float = field(metadata=_3DP)
    log_bytes: int
    final_root_hex: str
    hash_ops: int
    audited: int


@dataclass
class RunResult:
    config: WorkloadConfig
    outcomes: list[ExecutionOutcome]
    scale_reports: list[ScaleReport]
    audits: list[AuditRecord]
    wall_ms_total: float
    out_dir: Path


class _Streams:
    """Independent RNG streams for one (seed, scale) cell."""

    NAMES = ("gen", "keysel", "latency", "outputs", "audit", "content", "timing")

    def __init__(self, seed: int, scale: int):
        root = np.random.SeedSequence([seed, scale])
        self._children = root.spawn(len(self.NAMES))

    def fresh(self) -> dict:
        # New Generator objects each call: the baseline and secure passes see
        # identical streams without sharing state.
        return {
            name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(self.NAMES, self._children)
        }


def _corrupt(signature: bytes) -> bytes:
    return signature[:-1] + bytes([signature[-1] ^ 0x01])


def run_pipeline(cfg: WorkloadConfig, out_dir: Union[str, Path]) -> RunResult:
    """Run the full ladder; returns outcomes, per-scale metrics, and audits.

    A warm-up scale of ``WARMUP_SIZE`` requests, on the next seed, runs
    first and is dropped.  Each scale's log is kept under ``out_dir/logs``.
    """
    t_start = time.perf_counter()
    out_dir = Path(out_dir)
    logs_dir = out_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)
    warmup = replace(cfg, sizes=(WARMUP_SIZE,), seed=cfg.seed + 1)
    _run_scale(warmup, WARMUP_SIZE, logs_dir / "warmup")

    outcomes: list[ExecutionOutcome] = []
    reports: list[ScaleReport] = []
    audits: list[AuditRecord] = []
    for scale in cfg.sizes:
        scale_outcomes, report, scale_audits = _run_scale(cfg, scale, logs_dir / f"w{scale}")
        outcomes.extend(scale_outcomes)
        reports.append(report)
        audits.extend(scale_audits)
    return RunResult(
        config=cfg,
        outcomes=outcomes,
        scale_reports=reports,
        audits=audits,
        wall_ms_total=(time.perf_counter() - t_start) * 1e3,
        out_dir=out_dir,
    )


def _run_scale(
    cfg: WorkloadConfig, scale: int, log_dir: Path
) -> tuple[list[ExecutionOutcome], ScaleReport, list[AuditRecord]]:
    workload_id = f"w{scale}"
    rank = cfg.scale_rank(scale)
    streams = _Streams(cfg.seed, scale)
    backends = {b.backend_id: b for b in cfg.backends}

    requests = generate_batch(cfg, scale, streams.fresh()["gen"])
    policy = default_policy_set(cfg)

    keystore = Keystore(cfg.scheme)
    for key_id in cfg.key_ids:
        keystore.keygen(key_id, created_at=cfg.base_time_ms)
    rotation = RotationPolicy.uniform(cfg.key_ids)

    # Revoked-key traffic is signed while the key is still live; revocation
    # lands mid-run, so these signatures are valid but the key is not.
    presigned: dict[int, tuple[str, bytes]] = {}
    for request in requests:
        if request.kind is AttackKind.REVOKED_KEY_USE:
            dig = manifest_digest(request.manifest())
            presigned[request.index] = (request.pinned_key, keystore.sign(dig, request.pinned_key))

    revoke_at: Optional[int] = None
    if cfg.revoke_key is not None and any(
        k is AttackKind.REVOKED_KEY_USE and w > 0 for k, w in cfg.adversary_mix
    ):
        revoke_at = math.ceil(cfg.revoke_at_fraction * scale)
    burst_sd = math.sqrt(BURST_COEFF * scale ** BURST_EXPONENT)

    base_rngs = streams.fresh()
    base_calls = {b: 0 for b in backends}

    def baseline(request: Request) -> None:
        """Baseline pass: no signing, verification, or logging."""
        try:
            manifest = request.manifest()
        except EncodingError:
            return
        _, report = admit(manifest, policy, int(request.scheduled_ms))
        if not report.passed:
            return
        backend = backends[manifest.tool_id]
        backend.exec_latency.draw(base_rngs["latency"], base_calls[manifest.tool_id])
        backend.output.draw(base_rngs["outputs"], rank)
        base_calls[manifest.tool_id] += 1

    rngs = streams.fresh()
    calls = {b: 0 for b in backends}
    audits: list[AuditRecord] = []

    def secure(request: Request, log: TransparencyLog) -> ExecutionOutcome:
        """Secure pass: the full pipeline for one request."""
        if request.index == revoke_at:
            keystore.revoke(cfg.revoke_key)
        observed = apply_jitter(
            request.scheduled_ms + rngs["timing"].normal(0.0, burst_sd),
            cfg.jitter_epsilon_ms,
            rngs["timing"],
        )
        # a request refused before its manifest exists; each later return
        # replaces the fields its stage settles
        failed = ExecutionOutcome(
            workload_id=workload_id,
            scale=scale,
            request_index=request.index,
            backend_id=request.tool_id,
            key_id="",
            status=Status.FAILURE,
            error_kind=ErrorKind.MALFORMED_ENCODING,
            severity=Severity.BLOCK,
            exec_time_ms=0.0,
            verify_time_ms=0.0,
            output_bytes=0,
            timestamp=observed,
            log_index=-1,
        )
        try:
            manifest = request.manifest()
        except EncodingError:
            return failed
        dig, report = admit(manifest, policy, int(request.scheduled_ms))
        if not report.passed:
            expired = FRESHNESS_RULE_ID in report.failed_rule_ids
            return replace(
                failed,
                error_kind=ErrorKind.EXPIRED_TIMESTAMP if expired else ErrorKind.POLICY_VIOLATION,
                severity=report.severity,
            )
        if request.index in presigned:
            key_id, signature = presigned[request.index]
        else:
            key_id = keystore.select_key(rotation, rngs["keysel"])
            signature = keystore.sign(dig, key_id)
        if request.corrupt_signature:
            signature = _corrupt(signature)
        verdict, appended = accept(keystore, log, dig, signature, key_id, int(observed))
        backend = backends[manifest.tool_id]
        verify_ms = backend.verify_latency.draw(rngs["latency"], calls[manifest.tool_id])
        if appended is None:
            invalid = verdict.reason is RejectReason.SIGNATURE_INVALID
            return replace(
                failed,
                key_id=key_id,
                error_kind=ErrorKind.SIGNATURE_INVALID if invalid else ErrorKind.KEY_REVOKED,
                severity=report.severity,
                verify_time_ms=verify_ms,
            )
        log_index, root = appended
        exec_ms = backend.exec_latency.draw(rngs["latency"], calls[manifest.tool_id])
        output_bytes = backend.output.draw(rngs["outputs"], rank)
        calls[manifest.tool_id] += 1
        if rngs["audit"].random() < cfg.audit_probability:
            output = rngs["content"].bytes(output_bytes)
            evidence = build_evidence(root, output, exec_ms, verify_ms)
            audits.append(AuditRecord(scale=scale, log_index=log_index, evidence=evidence))
        return replace(
            failed,
            key_id=key_id,
            status=Status.SUCCESS,
            error_kind=None,
            severity=report.severity,
            exec_time_ms=exec_ms,
            verify_time_ms=verify_ms,
            output_bytes=output_bytes,
            log_index=log_index,
        )

    outcomes: list[ExecutionOutcome] = []
    baseline_s = secure_s = 0.0
    ops_before = _kernels.ops()
    with TransparencyLog(log_dir) as log:
        for start in range(0, len(requests), _CHUNK):
            chunk = requests[start:start + _CHUNK]
            t0 = time.perf_counter()
            for request in chunk:
                baseline(request)
            t1 = time.perf_counter()
            outcomes.extend(secure(request, log) for request in chunk)
            baseline_s += t1 - t0
            secure_s += time.perf_counter() - t1
        log_bytes = log.storage_bytes
        final_root = log.current_root()
    hash_ops = _kernels.ops() - ops_before

    successes = sum(o.status is Status.SUCCESS for o in outcomes)
    report_row = ScaleReport(
        workload_id=workload_id,
        scale=scale,
        requests=len(requests),
        successes=successes,
        failures=len(requests) - successes,
        logged_entries=final_root.tree_size,
        baseline_wall_ms=baseline_s * 1e3,
        secure_wall_ms=secure_s * 1e3,
        overhead_delta=overhead(baseline_s, secure_s),
        modeled_exec_ms=sum(o.exec_time_ms for o in outcomes),
        modeled_verify_ms=sum(o.verify_time_ms for o in outcomes),
        log_bytes=log_bytes,
        final_root_hex=final_root.hex,
        hash_ops=hash_ops,
        audited=len(audits),
    )
    return outcomes, report_row, audits


# -- file exports -----------------------------------------------------------


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` as UTF-8 to a sibling temp file, then rename it over ``path``."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _cells(record) -> list:
    """One CSV cell per field of a dataclass: an enum as its value, None as
    empty, and a number at the decimals its field's metadata names."""
    cells = []
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, enum.Enum):
            value = value.value
        elif value is None:
            value = ""
        elif "decimals" in f.metadata:
            value = f"{value:.{f.metadata['decimals']}f}"
        cells.append(value)
    return cells


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_records_csv(path: Union[str, Path], record_type: type, records: Iterable) -> None:
    """A header of ``record_type``'s field names, then the cells of each record."""
    header = [f.name for f in fields(record_type)]
    atomic_write_text(path, _csv_text(header, (_cells(record) for record in records)))


def read_outcome_rows(path: Union[str, Path]) -> list[dict]:
    """The rows of an outcomes CSV that ``write_records_csv`` wrote, as strings.

    The header must be ``OUTCOME_COLUMNS`` and each row must hold one value
    per column, with an integer ``scale`` and a numeric ``timestamp``.  A
    file that cannot be read, or any other content, raises ``ConfigError``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            lines = [(reader.line_num, values) for values in reader if values]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read outcomes file {path}: {exc}") from exc
    if header != OUTCOME_COLUMNS:
        raise ConfigError(f"outcomes file {path}: header is not {','.join(OUTCOME_COLUMNS)}")
    rows = []
    for line, values in lines:
        row = dict(zip(OUTCOME_COLUMNS, values))
        try:
            if len(values) != len(OUTCOME_COLUMNS):
                raise ValueError(f"{len(values)} values for {len(OUTCOME_COLUMNS)} columns")
            int(row["scale"])
            float(row["timestamp"])
        except ValueError as exc:
            raise ConfigError(f"outcomes file {path}, line {line}: {exc}") from exc
        rows.append(row)
    return rows


def json_line(obj: Mapping) -> str:
    """``obj`` as one line of compact JSON; text outside ASCII is written as it is."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def write_ndjson(path: Union[str, Path], objects: Iterable[Mapping]) -> None:
    """Write one ``json_line`` per object."""
    atomic_write_text(path, "".join(json_line(obj) + "\n" for obj in objects))


def run_report_dict(result: RunResult) -> dict:
    return {
        "seed": result.config.seed,
        "kernel_backend": _kernels.BACKEND,
        "baseline_definition": BASELINE_DEFINITION,
        "wall_ms_total": result.wall_ms_total,
        "config": config_to_dict(result.config),
        "scales": [asdict(report) for report in result.scale_reports],
    }
