"""Exception types shared across the package."""


class ManifestdError(Exception):
    """Base class for all package-specific errors."""


class EncodingError(ManifestdError):
    """Manifest contains values the canonical byte format cannot represent."""


class DisjointnessViolation(EncodingError):
    """A key appears in both the user and the model field partitions."""


class DomainError(ManifestdError, ValueError):
    """Numeric argument outside the documented domain of a function."""


class DegenerateInput(DomainError):
    """Input that is structurally valid but statistically unusable."""


class ConfigError(ManifestdError):
    """Invalid policy, workload, or command-line configuration."""


class DuplicateKeyId(ManifestdError):
    """Key generation requested under an identifier that already exists."""


class UnknownKey(ManifestdError):
    """Operation referenced a key identifier the keystore does not hold."""


class KeyRevoked(ManifestdError):
    """Signing was attempted with a revoked key."""


class NoUsableKey(ManifestdError):
    """Rotation policy has no unrevoked key left to select."""


class StorageError(ManifestdError):
    """Log persistence failed; the append must not be reported as durable."""


class OutOfRange(ManifestdError, IndexError):
    """Log index or tree size outside the range the log can prove."""
