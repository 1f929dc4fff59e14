"""Fail-closed compliance evaluation.

A policy set is an ordered list of Boolean rules.  Evaluation runs every rule
(no short-circuiting, so reports always list the complete set of failures)
and the manifest passes only if no rule of blocking severity failed.  Rules
that cannot be evaluated are treated as failed: absence of evidence is
non-compliance.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, Union

from .errors import ConfigError
from .manifest import Manifest, canonical_encode


class Severity(enum.Enum):
    OK = "ok"
    WARN = "warn"
    BLOCK = "block"


class RuleKind(enum.Enum):
    REQUIRED_FIELD = "required-field"
    FIELD_PATTERN = "field-pattern"
    VALUE_RANGE = "value-range"
    MAX_FIELD_COUNT = "max-field-count"
    MAX_ENCODING_SIZE = "max-encoding-size"
    TOOL_ALLOWLIST = "tool-allowlist"
    FRESHNESS_WINDOW = "freshness-window"


_PARTITIONS = ("user", "model", "any")

#: The freshness window of a ``PolicySet`` that sets none: a manifest older
#: than the epoch, or ahead of the verifier clock by more than the skew, fails.
DEFAULT_EPOCH_MS = 60_000
DEFAULT_CLOCK_SKEW_MS = 2_000

#: What a field lookup returns for a field the manifest does not have.
_ABSENT = object()


@dataclass(frozen=True)
class PolicyRule:
    """One named check with the severity its failure carries."""

    rule_id: str
    kind: RuleKind
    params: Mapping[str, Any] = field(default_factory=dict)
    severity_on_fail: Severity = Severity.BLOCK
    # check(manifest, now_ms, policy) -> passes, the policy giving the freshness window;
    # compiled from params here, once
    _check: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ConfigError("rule_id must be non-empty")
        if self.severity_on_fail is Severity.OK:
            raise ConfigError(f"rule {self.rule_id}: failure severity cannot be 'ok'")
        params = dict(self.params)
        check = self._compile(params)
        # read-only, so the compiled check cannot go stale
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "_check", check)

    def __reduce__(self):
        # rebuilt, and so recompiled, from plain arguments: the read-only
        # params and the compiled check cannot be pickled
        return PolicyRule, (self.rule_id, self.kind, dict(self.params), self.severity_on_fail)

    def _compile(self, params: dict) -> Callable[[Manifest, int, "PolicySet"], bool]:
        """Validate ``params`` and close the check over them; True means the manifest passes."""
        kind = self.kind
        def need(name: str, types: tuple) -> Any:
            if name not in params:
                raise ConfigError(f"rule {self.rule_id}: missing param {name!r}")
            value = params[name]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ConfigError(f"rule {self.rule_id}: param {name!r} has wrong type")
            return value

        if kind is RuleKind.FRESHNESS_WINDOW:
            # timestamps ahead of the verifier clock are tolerated up to the skew
            return lambda m, now, p: not (
                now - m.timestamp > p.epoch_ms or now - m.timestamp < -p.clock_skew_ms
            )
        if kind is RuleKind.MAX_FIELD_COUNT:
            max_fields = need("max_fields", (int,))
            if max_fields < 0:
                raise ConfigError(f"rule {self.rule_id}: max_fields must be >= 0")
            return lambda m, now, p: len(m.user_fields) + len(m.model_fields) <= max_fields
        if kind is RuleKind.MAX_ENCODING_SIZE:
            max_bytes = need("max_bytes", (int,))
            if max_bytes <= 0:
                raise ConfigError(f"rule {self.rule_id}: max_bytes must be positive")
            return lambda m, now, p: len(canonical_encode(m)) <= max_bytes
        if kind is RuleKind.TOOL_ALLOWLIST:
            tools = need("tools", (list, tuple))
            if not tools or not all(isinstance(t, str) for t in tools):
                raise ConfigError(f"rule {self.rule_id}: tools must be a non-empty string list")
            params["tools"] = tuple(tools)
            allowed = frozenset(tools)
            return lambda m, now, p: m.tool_id in allowed
        if kind not in (RuleKind.REQUIRED_FIELD, RuleKind.FIELD_PATTERN, RuleKind.VALUE_RANGE):
            raise ConfigError(f"rule {self.rule_id}: unknown kind {kind!r}")
        name = need("field", (str,))
        partition = params.setdefault("partition", "any")
        if partition not in _PARTITIONS:
            raise ConfigError(f"rule {self.rule_id}: partition must be one of {_PARTITIONS}")
        # the field's value, the user partition's first for "any", or _ABSENT
        if partition == "user":
            get = lambda m: m.user_fields.get(name, _ABSENT)
        elif partition == "model":
            get = lambda m: m.model_fields.get(name, _ABSENT)
        else:
            get = lambda m: m.user_fields.get(name, m.model_fields.get(name, _ABSENT))
        if kind is RuleKind.REQUIRED_FIELD:
            return lambda m, now, p: get(m) is not _ABSENT
        if kind is RuleKind.FIELD_PATTERN:
            try:
                whole = re.compile(need("pattern", (str,))).fullmatch
            except re.error as exc:
                raise ConfigError(f"rule {self.rule_id}: bad pattern: {exc}") from exc
            def matches(m: Manifest, now: int, p: PolicySet) -> bool:
                value = get(m)
                return value is _ABSENT or (isinstance(value, str) and whole(value) is not None)
            return matches
        if params.get("min") is None and params.get("max") is None:
            raise ConfigError(f"rule {self.rule_id}: need at least one of min/max")
        def bound(name: str, absent: float) -> Any:
            if params.get(name) is None:
                return absent
            value = need(name, (int, float))
            # a NaN bound compares false both ways, so its side would pass every value
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"rule {self.rule_id}: param {name!r} must be finite")
            return value

        lo, hi = bound("min", -math.inf), bound("max", math.inf)
        if lo > hi:
            raise ConfigError(f"rule {self.rule_id}: min exceeds max")
        def in_range(m: Manifest, now: int, p: PolicySet) -> bool:
            value = get(m)
            if value is _ABSENT:
                return True
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return False
            return not (value < lo or value > hi)
        return in_range


@dataclass(frozen=True)
class PolicySet:
    """Ordered rules plus the freshness parameters shared by them."""

    rules: tuple[PolicyRule, ...]
    epoch_ms: int = DEFAULT_EPOCH_MS
    clock_skew_ms: int = DEFAULT_CLOCK_SKEW_MS
    # (rule_id, severity, check) per rule, in rule order; built here, once
    _checks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rules = tuple(self.rules)
        object.__setattr__(self, "rules", rules)
        seen: set[str] = set()
        for rule in rules:
            if rule.rule_id in seen:
                raise ConfigError(f"duplicate rule_id {rule.rule_id!r}")
            seen.add(rule.rule_id)
        # a NaN window from a policy file compares false and passes every timestamp
        for name in ("epoch_ms", "clock_skew_ms"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an int, not {type(value).__name__}")
        if self.epoch_ms <= 0:
            raise ConfigError("epoch_ms must be positive")
        if self.clock_skew_ms < 0:
            raise ConfigError("clock_skew_ms must not be negative")
        checks = tuple((rule.rule_id, rule.severity_on_fail, rule._check) for rule in rules)
        object.__setattr__(self, "_checks", checks)

    def __reduce__(self):
        # rebuilt from its rules, without the compiled checks
        return PolicySet, (self.rules, self.epoch_ms, self.clock_skew_ms)


@dataclass(frozen=True)
class ComplianceReport:
    """Outcome of evaluating every rule against one manifest."""

    passed: bool
    severity: Severity
    failed_rules: tuple[tuple[str, Severity], ...]

    @property
    def failed_rule_ids(self) -> tuple[str, ...]:
        return tuple(rule_id for rule_id, _ in self.failed_rules)


_CLEAN = ComplianceReport(passed=True, severity=Severity.OK, failed_rules=())


def evaluate(manifest: Manifest, policy: PolicySet, now_ms: int) -> ComplianceReport:
    """Evaluate every rule; the report lists all failures, not just the first."""
    failed = tuple(
        (rule_id, severity)
        for rule_id, severity, check in policy._checks
        if not check(manifest, now_ms, policy)
    )
    if not failed:
        return _CLEAN
    # a failure is WARN or BLOCK, never OK
    blocked = any(severity is Severity.BLOCK for _, severity in failed)
    return ComplianceReport(
        passed=not blocked,
        severity=Severity.BLOCK if blocked else Severity.WARN,
        failed_rules=failed,
    )


def policy_from_dict(obj: object) -> PolicySet:
    if not isinstance(obj, dict):
        raise ConfigError("policy document must be a JSON object")
    try:
        raw_rules = obj["rules"]
    except KeyError:
        raise ConfigError("policy document missing 'rules'") from None
    if not isinstance(raw_rules, list):
        raise ConfigError("'rules' must be a list")
    rules = []
    for i, raw in enumerate(raw_rules):
        if not isinstance(raw, dict):
            raise ConfigError(f"rule #{i} must be an object")
        try:
            kind = RuleKind(raw.get("kind"))
        except ValueError:
            raise ConfigError(f"rule #{i}: unknown kind {raw.get('kind')!r}") from None
        try:
            severity = Severity(raw.get("severity_on_fail", "block"))
        except ValueError:
            raise ConfigError(f"rule #{i}: unknown severity {raw.get('severity_on_fail')!r}") from None
        rule_id, params = raw.get("rule_id", ""), raw.get("params", {})
        if not isinstance(rule_id, str):
            raise ConfigError(f"rule #{i}: rule_id must be a string")
        if not isinstance(params, dict):
            raise ConfigError(f"rule #{i}: params must be a JSON object")
        rules.append(
            PolicyRule(rule_id=rule_id, kind=kind, params=params, severity_on_fail=severity)
        )
    return PolicySet(
        rules=tuple(rules),
        epoch_ms=obj.get("epoch_ms", DEFAULT_EPOCH_MS),
        clock_skew_ms=obj.get("clock_skew_ms", DEFAULT_CLOCK_SKEW_MS),
    )


def read_json_file(path: Union[str, Path], what: str) -> Any:
    """The JSON document in ``path``; any failure raises ``ConfigError`` naming ``what``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_policy_file(path: Union[str, Path]) -> PolicySet:
    return policy_from_dict(read_json_file(path, "policy file"))
