"""Signed tool-manifest pipeline.

Canonical manifest encoding and digests, fail-closed policy evaluation,
a software keystore with rotation and revocation, an append-only Merkle
transparency log with inclusion and consistency proofs and a checkpoint of
its size and root per append, audit evidence tuples, workload statistics,
and a benchmark harness driving the whole pipeline.
"""

from ._kernels import BACKEND as kernel_backend
from .audit import (
    EvidenceTuple,
    build_evidence,
    overhead,
    recheck_evidence,
    undetected_probability,
)
from .errors import (
    ConfigError,
    DegenerateInput,
    DisjointnessViolation,
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
    Manifest,
    ManifestDigest,
    UserView,
    canonical_encode,
    digest,
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
)
from .stats import (
    ChiSquareResult,
    RegressionFit,
    StatsReport,
    chi_square_gof,
    entropy_elasticity,
    error_density,
    fairness_index,
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
