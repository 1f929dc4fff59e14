"""Signed tool-manifest pipeline.

Canonical manifest encoding and digests, fail-closed policy evaluation,
a software keystore with rotation and revocation, an append-only Merkle
transparency log with inclusion proofs and hash-chain checkpoints, audit
sampling with evidence tuples, workload statistics, and a benchmark harness
driving the whole pipeline.
"""

from ._kernels import BACKEND as kernel_backend
from .audit import (
    AuditConfig,
    EvidenceTuple,
    TradeoffWeights,
    audit_sample,
    build_evidence,
    expected_detection_latency,
    overhead,
    recheck_evidence,
    tradeoff,
    undetected_probability,
)
from .errors import (
    ConfigError,
    DegenerateInput,
    DisjointnessViolation,
    DomainError,
    DuplicateKeyId,
    EmptyEncoding,
    EncodingError,
    KeyRevoked,
    ManifestdError,
    NoUsableKey,
    OutOfRange,
    StorageError,
    UnknownKey,
)
from .harness import (
    AttackKind,
    ErrorKind,
    ExecutionOutcome,
    Request,
    RunResult,
    SimulatedBackend,
    Status,
    WorkloadConfig,
    apply_jitter,
    default_backends,
    generate_batch,
    revocation_preset,
    run_pipeline,
    select_backend,
)
from .keystore import (
    KeyHandle,
    Keystore,
    RejectReason,
    RotationPolicy,
    VerifyResult,
)
from .manifest import (
    EncodingStats,
    Manifest,
    ManifestDigest,
    UserView,
    canonical_decode,
    canonical_encode,
    digest,
    encoding_stats,
    parse_manifest,
    redact_for_user,
)
from .policy import (
    ComplianceReport,
    PolicyRule,
    PolicySet,
    RuleKind,
    Severity,
    evaluate,
    pass_probability,
)
from .stats import (
    ChiSquareResult,
    RegressionFit,
    StatsReport,
    chi_square_gof,
    entropy_elasticity,
    error_density,
    fairness_index,
    key_balance_index,
    linear_fit,
    loglog_fit,
    report_from_rows,
    selection_variance,
    shannon_entropy,
    success_rate_series,
    variance_exponent,
)
from .translog import (
    IntegrityReport,
    LogEntry,
    MerkleProof,
    MerkleRoot,
    TransparencyLog,
    check_integrity,
    verify_consistency,
    verify_inclusion,
)

__version__ = "0.1.0"
