"""End-to-end workload driver.

Runs the full pipeline (build manifest, canonical encode, digest, policy,
sign, verify, append to log, simulated execute, audit sampling) over a
ladder of batch sizes, with a configurable fraction of adversarial traffic.
Backends are simulated: latencies and output sizes are drawn from per-backend
models using counter-based RNG streams, so a (config, seed) pair reproduces
the exact outcome list.  Wall-clock measurements cover the pipeline work
itself; no sleeping is involved.

The baseline pass used for overhead measurement runs the same requests with
signing, verification, and logging elided (encode, digest, policy check, and
simulated execution are kept).
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import _kernels
from .audit import EvidenceTuple, build_evidence
from .errors import ConfigError, EncodingError
from .keystore import Keystore, RejectReason, RotationPolicy
from .manifest import Manifest, digest as manifest_digest
from .policy import PolicyRule, PolicySet, RuleKind, Severity, evaluate
from .translog import TransparencyLog, atomic_write_bytes

BASELINE_DEFINITION = (
    "same requests with signing, verification, and logging elided; "
    "encode, digest, policy evaluation, and simulated execution kept"
)

DEFAULT_SIZES = (100, 500, 1000, 5000, 10000, 20000, 50000)
DEFAULT_KEY_IDS = ("dev-k1", "dev-k2")

FRESHNESS_RULE_ID = "fresh-window"
PRIORITY_RULE_ID = "priority-soft-cap"


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
        if self.base_ms < 0 or self.spread_ms < 0 or self.init_overhead_ms < 0:
            raise ConfigError("latency model parameters must be non-negative")

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
        if self.mean_bytes <= 0 or self.spread_bytes < 0 or self.variance_decay < 0:
            raise ConfigError("output model parameters invalid")

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
    epoch_ms: int = 60_000
    clock_skew_ms: int = 2_000
    warn_base: float = 0.02
    warn_step: float = 0.01
    base_time_ms: int = 1_755_000_000_000
    arrival_spacing_ms: float = 1.0
    # Dispersion variance c * N^g; c is large enough that the jitter floor
    # does not mask the growth law at the smallest ladder rung.
    burst_coeff: float = 5e-3
    burst_exponent: float = 1.3
    revoke_key: Optional[str] = "dev-k2"
    revoke_at_fraction: float = 0.4
    invalid_ramp: Optional[tuple[float, float]] = None
    max_priority: int = 5

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes or any(s <= 0 for s in sizes):
            raise ConfigError("sizes must be positive")
        if list(sizes) != sorted(set(sizes)):
            raise ConfigError("sizes must increase, without repeats")
        if not 0.0 <= self.invalid_fraction <= 1.0:
            raise ConfigError("invalid_fraction outside [0, 1]")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        mix = tuple((AttackKind(k), float(w)) for k, w in self.adversary_mix)
        object.__setattr__(self, "adversary_mix", mix)
        if len({k for k, _ in mix}) != len(mix):
            raise ConfigError("duplicate attack kind in adversary mix")
        if any(w < 0 for _, w in mix):
            raise ConfigError("adversary mix weights must be non-negative")
        if mix and abs(sum(w for _, w in mix) - 1.0) > 1e-9:
            raise ConfigError("adversary mix weights must sum to 1")
        backends = tuple(self.backends)
        object.__setattr__(self, "backends", backends)
        if not backends:
            raise ConfigError("need at least one backend")
        ids = [b.backend_id for b in backends]
        if len(set(ids)) != len(ids):
            raise ConfigError("backend ids must be unique")
        key_ids = tuple(self.key_ids)
        object.__setattr__(self, "key_ids", key_ids)
        if not key_ids or len(set(key_ids)) != len(key_ids):
            raise ConfigError("key ids must be non-empty and unique")
        if self.jitter_epsilon_ms < 0:
            raise ConfigError("jitter epsilon must be non-negative")
        if not 0.0 <= self.audit_probability <= 1.0:
            raise ConfigError("audit probability outside [0, 1]")
        if self.arrival_spacing_ms <= 0:
            raise ConfigError("arrival spacing must be positive")
        if self.burst_coeff < 0 or self.burst_exponent < 0:
            raise ConfigError("burst parameters must be non-negative")
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
        if self.warn_base < 0 or self.warn_step < 0:
            raise ConfigError("warn ramp must be non-negative")
        if self.max_priority < 1:
            raise ConfigError("max_priority must be at least 1")
        mix_has_revoked = any(k is AttackKind.REVOKED_KEY_USE and w > 0 for k, w in mix)
        if mix_has_revoked and self.invalid_fraction_at(0) > 0 and self.revoke_key is None:
            raise ConfigError("revoked-key-use traffic requires revoke_key to be set")

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

    def warn_fraction_at(self, rank: int) -> float:
        return self.warn_base + self.warn_step * rank


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


def config_to_dict(cfg: WorkloadConfig) -> dict:
    return {
        "sizes": list(cfg.sizes),
        "invalid_fraction": cfg.invalid_fraction,
        "adversary_mix": {k.value: w for k, w in cfg.adversary_mix},
        "seed": cfg.seed,
        "backends": [
            {
                "backend_id": b.backend_id,
                "exec_latency": [b.exec_latency.base_ms, b.exec_latency.spread_ms,
                                 b.exec_latency.init_overhead_ms],
                "verify_latency": [b.verify_latency.base_ms, b.verify_latency.spread_ms,
                                   b.verify_latency.init_overhead_ms],
                "output": [b.output.mean_bytes, b.output.spread_bytes, b.output.variance_decay],
            }
            for b in cfg.backends
        ],
        "key_ids": list(cfg.key_ids),
        "scheme": cfg.scheme,
        "jitter_epsilon_ms": cfg.jitter_epsilon_ms,
        "audit_probability": cfg.audit_probability,
        "epoch_ms": cfg.epoch_ms,
        "clock_skew_ms": cfg.clock_skew_ms,
        "warn_base": cfg.warn_base,
        "warn_step": cfg.warn_step,
        "base_time_ms": cfg.base_time_ms,
        "arrival_spacing_ms": cfg.arrival_spacing_ms,
        "burst_coeff": cfg.burst_coeff,
        "burst_exponent": cfg.burst_exponent,
        "revoke_key": cfg.revoke_key,
        "revoke_at_fraction": cfg.revoke_at_fraction,
        "invalid_ramp": list(cfg.invalid_ramp) if cfg.invalid_ramp else None,
        "max_priority": cfg.max_priority,
    }


def config_from_dict(obj: Mapping) -> WorkloadConfig:
    if not isinstance(obj, Mapping):
        raise ConfigError("workload config must be a JSON object")
    kwargs: dict = {}
    simple = (
        "invalid_fraction", "seed", "scheme", "jitter_epsilon_ms", "audit_probability",
        "epoch_ms", "clock_skew_ms", "warn_base", "warn_step", "base_time_ms",
        "arrival_spacing_ms", "burst_coeff", "burst_exponent", "revoke_key",
        "revoke_at_fraction", "max_priority",
    )
    for name in simple:
        if name in obj:
            kwargs[name] = obj[name]
    for name in ("sizes", "key_ids", "backends"):
        if name in obj and not isinstance(obj[name], list):
            raise ConfigError(f"{name} must be a list")
    if "sizes" in obj:
        kwargs["sizes"] = tuple(obj["sizes"])
    if "key_ids" in obj:
        kwargs["key_ids"] = tuple(obj["key_ids"])
    if "invalid_ramp" in obj and obj["invalid_ramp"] is not None:
        ramp = obj["invalid_ramp"]
        if not isinstance(ramp, (list, tuple)) or len(ramp) != 2:
            raise ConfigError("invalid_ramp must be [base, step]")
        kwargs["invalid_ramp"] = (ramp[0], ramp[1])
    if "adversary_mix" in obj:
        mix = obj["adversary_mix"]
        if not isinstance(mix, Mapping):
            raise ConfigError("adversary_mix must map attack kind to weight")
        try:
            kwargs["adversary_mix"] = tuple((AttackKind(k), float(w)) for k, w in mix.items())
        except ValueError as exc:
            raise ConfigError(f"bad adversary_mix: {exc}") from exc
    if "backends" in obj:
        backends = []
        for raw in obj["backends"]:
            try:
                backends.append(
                    SimulatedBackend(
                        backend_id=raw["backend_id"],
                        exec_latency=LatencyModel(*raw["exec_latency"]),
                        verify_latency=LatencyModel(*raw["verify_latency"]),
                        output=OutputModel(*raw["output"]),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"bad backend entry: {exc}") from exc
        kwargs["backends"] = tuple(backends)
    try:
        return WorkloadConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad workload config: {exc}") from exc


def load_config_file(path: Union[str, Path]) -> WorkloadConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(obj)


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
    kinds = [k for k, _ in cfg.adversary_mix]
    weights = [w for _, w in cfg.adversary_mix]
    alloc = _largest_remainder(n_invalid, weights) if n_invalid else [0] * len(kinds)

    kind_of: dict[int, AttackKind] = {}
    perm = [int(i) for i in rng.permutation(scale)]
    n_revoked = sum(a for k, a in zip(kinds, alloc) if k is AttackKind.REVOKED_KEY_USE)
    cursor_positions = perm
    if n_revoked:
        if cfg.revoke_key is None:
            raise ConfigError("revoked-key-use traffic requires revoke_key")
        revoke_at = math.ceil(cfg.revoke_at_fraction * scale)
        tail = [i for i in perm if i >= revoke_at]
        if len(tail) < n_revoked:
            raise ConfigError(
                f"cannot place {n_revoked} revoked-key requests after index {revoke_at}"
            )
        for i in tail[:n_revoked]:
            kind_of[i] = AttackKind.REVOKED_KEY_USE
        cursor_positions = [i for i in perm if i not in kind_of]
    cursor = 0
    for kind, count in zip(kinds, alloc):
        if kind is AttackKind.REVOKED_KEY_USE:
            continue
        for _ in range(count):
            kind_of[cursor_positions[cursor]] = kind
            cursor += 1

    n_valid = scale - n_invalid
    n_warn = min(n_valid, round(cfg.warn_fraction_at(rank) * scale))
    warn_positions = set()
    for i in perm:
        if len(warn_positions) == n_warn:
            break
        if i not in kind_of:
            warn_positions.add(i)

    backend_ids = cfg.backend_ids()
    requests: list[Request] = []
    malformed_parity = 0
    for index in range(scale):
        scheduled = cfg.base_time_ms + index * cfg.arrival_spacing_ms
        kind = kind_of.get(index)
        tool_id = select_backend(backend_ids, rng)
        timestamp = int(scheduled)
        if index in warn_positions:
            priority = cfg.max_priority + 1 + int(rng.integers(0, 3))
        else:
            priority = 1 + int(rng.integers(0, cfg.max_priority))
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
            timestamp = int(scheduled) - (cfg.epoch_ms + cfg.clock_skew_ms + 10_000)
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
                        "min": 1, "max": cfg.max_priority},
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
        epoch_ms=cfg.epoch_ms,
        clock_skew_ms=cfg.clock_skew_ms,
    )


# -- outcomes ---------------------------------------------------------------


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
    exec_time_ms: float
    verify_time_ms: float
    output_bytes: int
    timestamp: float
    log_index: int

    def to_row(self) -> dict:
        return {
            "workload_id": self.workload_id,
            "scale": self.scale,
            "request_index": self.request_index,
            "backend_id": self.backend_id,
            "key_id": self.key_id,
            "status": self.status.value,
            "error_kind": self.error_kind.value if self.error_kind else "",
            "severity": self.severity.value,
            "exec_time_ms": f"{self.exec_time_ms:.6f}",
            "verify_time_ms": f"{self.verify_time_ms:.6f}",
            "output_bytes": self.output_bytes,
            "timestamp": f"{self.timestamp:.6f}",
            "log_index": self.log_index,
        }


OUTCOME_COLUMNS = [
    "workload_id", "scale", "request_index", "backend_id", "key_id", "status",
    "error_kind", "severity", "exec_time_ms", "verify_time_ms", "output_bytes",
    "timestamp", "log_index",
]


@dataclass(frozen=True)
class AuditRecord:
    """Where one sampled execution sits in its per-scale log."""

    scale: int
    log_index: int
    tree_size: int
    evidence: EvidenceTuple


@dataclass(frozen=True)
class ScaleReport:
    workload_id: str
    scale: int
    requests: int
    successes: int
    failures: int
    logged_entries: int
    baseline_wall_ms: float
    secure_wall_ms: float
    overhead_delta: float
    modeled_exec_ms: float
    modeled_verify_ms: float
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
    growth: list[tuple[int, int]]
    kernel_backend: str
    wall_ms_total: float
    out_dir: Optional[Path]


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


def run_pipeline(
    cfg: WorkloadConfig,
    out_dir: Optional[Union[str, Path]] = None,
    warmup: bool = True,
) -> RunResult:
    """Run the full ladder; returns outcomes, per-scale metrics, and audits."""
    t_start = time.perf_counter()
    tmp_holder: Optional[tempfile.TemporaryDirectory] = None
    if out_dir is None:
        tmp_holder = tempfile.TemporaryDirectory(prefix="manifestd-run-")
        base_dir = Path(tmp_holder.name)
        result_dir: Optional[Path] = None
    else:
        base_dir = Path(out_dir)
        result_dir = base_dir
    logs_dir = base_dir / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)

    try:
        if warmup:
            _run_scale(replace(cfg, sizes=(256,), seed=cfg.seed + 1), 256,
                       logs_dir / "warmup", collect=False)

        outcomes: list[ExecutionOutcome] = []
        reports: list[ScaleReport] = []
        audits: list[AuditRecord] = []
        growth: list[tuple[int, int]] = []
        for scale in cfg.sizes:
            scale_outcomes, report, scale_audits = _run_scale(
                cfg, scale, logs_dir / f"w{scale}", collect=True
            )
            outcomes.extend(scale_outcomes)
            reports.append(report)
            audits.extend(scale_audits)
            growth.append((scale, report.log_bytes))
        return RunResult(
            config=cfg,
            outcomes=outcomes,
            scale_reports=reports,
            audits=audits,
            growth=growth,
            kernel_backend=_kernels.BACKEND,
            wall_ms_total=(time.perf_counter() - t_start) * 1e3,
            out_dir=result_dir,
        )
    finally:
        if tmp_holder is not None:
            tmp_holder.cleanup()


def _run_scale(
    cfg: WorkloadConfig,
    scale: int,
    log_dir: Path,
    collect: bool,
) -> tuple[list[ExecutionOutcome], ScaleReport, list[AuditRecord]]:
    workload_id = f"w{scale}"
    rank = cfg.scale_rank(scale)
    streams = _Streams(cfg.seed, scale)
    backends = {b.backend_id: b for b in cfg.backends}

    rngs = streams.fresh()
    requests = generate_batch(cfg, scale, rngs["gen"])
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
            manifest = Manifest(
                user_fields=request.user_fields,
                model_fields=request.model_fields,
                timestamp=request.timestamp,
                tool_id=request.tool_id,
            )
            dig = manifest_digest(manifest)
            presigned[request.index] = (request.pinned_key, keystore.sign(dig, request.pinned_key))

    revoke_at: Optional[int] = None
    if cfg.revoke_key is not None and any(
        k is AttackKind.REVOKED_KEY_USE and w > 0 for k, w in cfg.adversary_mix
    ):
        revoke_at = math.ceil(cfg.revoke_at_fraction * scale)

    # Baseline pass: no signing, verification, or logging.
    base_rngs = streams.fresh()
    burst_sd = math.sqrt(cfg.burst_coeff * scale ** cfg.burst_exponent)
    call_counts = {b: 0 for b in backends}
    t0 = time.perf_counter()
    for request in requests:
        try:
            manifest = Manifest(
                user_fields=request.user_fields,
                model_fields=request.model_fields,
                timestamp=request.timestamp,
                tool_id=request.tool_id,
            )
        except EncodingError:
            continue
        manifest_digest(manifest)
        report = evaluate(manifest, policy, now_ms=int(request.scheduled_ms))
        if not report.passed:
            continue
        backend = backends[manifest.tool_id]
        backend.exec_latency.draw(base_rngs["latency"], call_counts[manifest.tool_id])
        backend.output.draw(base_rngs["outputs"], rank)
        call_counts[manifest.tool_id] += 1
    baseline_wall_ms = (time.perf_counter() - t0) * 1e3

    # Secure pass: the full pipeline.
    rngs = streams.fresh()
    ops_before = _kernels.ops()
    outcomes: list[ExecutionOutcome] = []
    audits: list[AuditRecord] = []
    modeled_exec = 0.0
    modeled_verify = 0.0
    successes = 0
    call_counts = {b: 0 for b in backends}
    audit_p = cfg.audit_probability
    with TransparencyLog(log_dir) as log:
        t0 = time.perf_counter()
        for request in requests:
            if revoke_at is not None and request.index == revoke_at:
                keystore.revoke(cfg.revoke_key)
            observed = apply_jitter(
                request.scheduled_ms + rngs["timing"].normal(0.0, burst_sd),
                cfg.jitter_epsilon_ms,
                rngs["timing"],
            )
            backend_id = request.tool_id
            severity = Severity.BLOCK
            key_id = ""
            exec_ms = 0.0
            verify_ms = 0.0
            output_bytes = 0
            log_index = -1
            status = Status.FAILURE
            error: Optional[ErrorKind] = None

            try:
                manifest = Manifest(
                    user_fields=request.user_fields,
                    model_fields=request.model_fields,
                    timestamp=request.timestamp,
                    tool_id=request.tool_id,
                )
            except EncodingError:
                manifest = None
                error = ErrorKind.MALFORMED_ENCODING

            if manifest is not None:
                dig = manifest_digest(manifest)
                report = evaluate(manifest, policy, now_ms=int(request.scheduled_ms))
                severity = report.severity
                if not report.passed:
                    if FRESHNESS_RULE_ID in report.failed_rule_ids:
                        error = ErrorKind.EXPIRED_TIMESTAMP
                    else:
                        error = ErrorKind.POLICY_VIOLATION
                else:
                    if request.index in presigned:
                        key_id, signature = presigned[request.index]
                    else:
                        key_id = keystore.select_key(rotation, rngs["keysel"])
                        signature = keystore.sign(dig, key_id)
                    if request.corrupt_signature:
                        signature = _corrupt(signature)
                    verdict = keystore.verify(dig, signature, key_id)
                    backend = backends[manifest.tool_id]
                    verify_ms = backend.verify_latency.draw(
                        rngs["latency"], call_counts[manifest.tool_id]
                    )
                    modeled_verify += verify_ms
                    if not verdict.accepted:
                        if verdict.reason is RejectReason.SIGNATURE_INVALID:
                            error = ErrorKind.SIGNATURE_INVALID
                        else:
                            error = ErrorKind.KEY_REVOKED
                    else:
                        log_index, root = log.append(
                            dig, signature, key_id, appended_at=int(observed)
                        )
                        exec_ms = backend.exec_latency.draw(
                            rngs["latency"], call_counts[manifest.tool_id]
                        )
                        output_bytes = backend.output.draw(rngs["outputs"], rank)
                        call_counts[manifest.tool_id] += 1
                        modeled_exec += exec_ms
                        status = Status.SUCCESS
                        successes += 1
                        if rngs["audit"].random() < audit_p:
                            output = rngs["content"].bytes(output_bytes)
                            evidence = build_evidence(root, output, exec_ms, verify_ms)
                            audits.append(
                                AuditRecord(
                                    scale=scale,
                                    log_index=log_index,
                                    tree_size=root.tree_size,
                                    evidence=evidence,
                                )
                            )
            outcomes.append(
                ExecutionOutcome(
                    workload_id=workload_id,
                    scale=scale,
                    request_index=request.index,
                    backend_id=backend_id,
                    key_id=key_id,
                    status=status,
                    error_kind=error,
                    severity=severity,
                    exec_time_ms=exec_ms,
                    verify_time_ms=verify_ms,
                    output_bytes=output_bytes,
                    timestamp=observed,
                    log_index=log_index,
                )
            )
        secure_wall_ms = (time.perf_counter() - t0) * 1e3
        log_bytes = log.storage_bytes
        final_root = log.current_root()
    hash_ops = _kernels.ops() - ops_before

    if baseline_wall_ms > 0:
        delta = (secure_wall_ms - baseline_wall_ms) / baseline_wall_ms
    else:
        delta = float("nan")
    report_row = ScaleReport(
        workload_id=workload_id,
        scale=scale,
        requests=len(requests),
        successes=successes,
        failures=len(requests) - successes,
        logged_entries=final_root.tree_size,
        baseline_wall_ms=baseline_wall_ms,
        secure_wall_ms=secure_wall_ms,
        overhead_delta=delta,
        modeled_exec_ms=modeled_exec,
        modeled_verify_ms=modeled_verify,
        log_bytes=log_bytes,
        final_root_hex=final_root.hex,
        hash_ops=hash_ops,
        audited=len(audits),
    )
    if not collect:
        return [], report_row, []
    return outcomes, report_row, audits


# -- file exports -----------------------------------------------------------


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` as UTF-8 to a sibling temp file, then rename it over ``path``."""
    atomic_write_bytes(path, text.encode("utf-8"))


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_outcomes_csv(outcomes: Iterable[ExecutionOutcome], path: Union[str, Path]) -> None:
    rows = ([row[c] for c in OUTCOME_COLUMNS] for row in map(ExecutionOutcome.to_row, outcomes))
    atomic_write_text(path, _csv_text(OUTCOME_COLUMNS, rows))


def read_outcome_rows(path: Union[str, Path]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_metrics_csv(reports: Iterable[ScaleReport], path: Union[str, Path]) -> None:
    columns = [
        "workload_id", "scale", "requests", "successes", "failures", "logged_entries",
        "baseline_wall_ms", "secure_wall_ms", "overhead_delta", "modeled_exec_ms",
        "modeled_verify_ms", "log_bytes", "final_root_hex", "hash_ops", "audited",
    ]
    rows = (
        [
            r.workload_id, r.scale, r.requests, r.successes, r.failures,
            r.logged_entries, f"{r.baseline_wall_ms:.3f}", f"{r.secure_wall_ms:.3f}",
            f"{r.overhead_delta:.6f}", f"{r.modeled_exec_ms:.3f}",
            f"{r.modeled_verify_ms:.3f}", r.log_bytes, r.final_root_hex,
            r.hash_ops, r.audited,
        ]
        for r in reports
    )
    atomic_write_text(path, _csv_text(columns, rows))


def write_growth_csv(growth: Iterable[tuple[int, int]], path: Union[str, Path]) -> None:
    atomic_write_text(path, _csv_text(["entries", "bytes"], growth))


def write_evidence_ndjson(audits: Iterable[AuditRecord], path: Union[str, Path]) -> None:
    atomic_write_text(path, "".join(record.evidence.to_json_line() + "\n" for record in audits))


def write_audit_receipts(audits: Iterable[AuditRecord], path: Union[str, Path]) -> None:
    lines = (
        json.dumps({
            "scale": record.scale,
            "log_index": record.log_index,
            "tree_size": record.tree_size,
            "evidence_digest": record.evidence.evidence_digest.hex(),
        }, separators=(",", ":")) + "\n"
        for record in audits
    )
    atomic_write_text(path, "".join(lines))


def run_report_dict(result: RunResult) -> dict:
    return {
        "seed": result.config.seed,
        "kernel_backend": result.kernel_backend,
        "baseline_definition": BASELINE_DEFINITION,
        "wall_ms_total": result.wall_ms_total,
        "config": config_to_dict(result.config),
        "scales": [
            {
                "workload_id": r.workload_id,
                "scale": r.scale,
                "requests": r.requests,
                "successes": r.successes,
                "failures": r.failures,
                "logged_entries": r.logged_entries,
                "baseline_wall_ms": r.baseline_wall_ms,
                "secure_wall_ms": r.secure_wall_ms,
                "overhead_delta": r.overhead_delta,
                "log_bytes": r.log_bytes,
                "final_root": r.final_root_hex,
                "hash_ops": r.hash_ops,
                "audited": r.audited,
            }
            for r in result.scale_reports
        ],
    }
