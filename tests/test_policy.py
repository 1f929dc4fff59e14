"""Policy engine tests.

The engine must evaluate every rule (no short-circuit on first failure) and a
manifest passes only when no blocking rule failed.
"""

import copy
import json
import math
import pickle
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manifestd.errors import ConfigError
from manifestd.manifest import Manifest, canonical_encode
from manifestd.policy import (
    ComplianceReport,
    PolicyRule,
    PolicySet,
    RuleKind,
    Severity,
    evaluate,
    load_policy_file,
    policy_from_dict,
)

NOW = 1_755_000_000_000


def manifest(**overrides):
    kwargs = dict(
        user_fields={"query": "list open issues", "priority": 3},
        model_fields={"system_prompt": "be terse"},
        timestamp=NOW - 1_000,
        tool_id="tracker",
    )
    kwargs.update(overrides)
    return Manifest(**kwargs)


def rule(rule_id, kind, severity=Severity.BLOCK, **params):
    return PolicyRule(rule_id, kind, params, severity)


class TestRuleKinds:
    def test_required_field(self):
        p = PolicySet((rule("r", RuleKind.REQUIRED_FIELD, field="query", partition="user"),))
        assert evaluate(manifest(), p, NOW).passed
        missing = manifest(user_fields={"priority": 3})
        assert not evaluate(missing, p, NOW).passed

    def test_required_field_respects_partition(self):
        p = PolicySet((rule("r", RuleKind.REQUIRED_FIELD, field="query", partition="model"),))
        # field exists, but in the other partition
        assert not evaluate(manifest(), p, NOW).passed
        anyp = PolicySet((rule("r", RuleKind.REQUIRED_FIELD, field="query", partition="any"),))
        assert evaluate(manifest(), anyp, NOW).passed

    def test_field_pattern(self):
        p = PolicySet((rule("r", RuleKind.FIELD_PATTERN, field="query", pattern=r"^[\w\- ]{1,64}$"),))
        assert evaluate(manifest(), p, NOW).passed
        assert not evaluate(manifest(user_fields={"query": "rm -rf /; echo"}), p, NOW).passed
        # absent fields are vacuous here; presence is REQUIRED_FIELD's job
        assert evaluate(manifest(user_fields={"priority": 1}), p, NOW).passed
        assert not evaluate(manifest(user_fields={"query": 7}), p, NOW).passed

    def test_value_range(self):
        p = PolicySet((rule("r", RuleKind.VALUE_RANGE, field="priority", min=0, max=5),))
        assert evaluate(manifest(), p, NOW).passed
        assert evaluate(manifest(user_fields={"query": "q", "priority": 5}), p, NOW).passed
        assert not evaluate(manifest(user_fields={"query": "q", "priority": 6}), p, NOW).passed
        assert not evaluate(manifest(user_fields={"query": "q", "priority": -1}), p, NOW).passed
        # non-numeric value cannot satisfy a range
        assert not evaluate(manifest(user_fields={"query": "q", "priority": "high"}), p, NOW).passed

    def test_value_range_single_bound(self):
        p = PolicySet((rule("r", RuleKind.VALUE_RANGE, field="priority", max=5),))
        assert evaluate(manifest(user_fields={"priority": -100}), p, NOW).passed

    def test_max_field_count(self):
        p = PolicySet((rule("r", RuleKind.MAX_FIELD_COUNT, max_fields=3),))
        assert evaluate(manifest(), p, NOW).passed
        crowded = manifest(user_fields={f"k{i}": i for i in range(4)})
        assert not evaluate(crowded, p, NOW).passed

    def test_max_encoding_size(self):
        p = PolicySet((rule("r", RuleKind.MAX_ENCODING_SIZE, max_bytes=120),))
        assert evaluate(manifest(user_fields={"query": "hi"}, model_fields={}), p, NOW).passed
        assert not evaluate(manifest(user_fields={"query": "x" * 500}), p, NOW).passed

    def test_tool_allowlist(self):
        p = PolicySet((rule("r", RuleKind.TOOL_ALLOWLIST, tools=["tracker", "search"]),))
        assert evaluate(manifest(), p, NOW).passed
        assert not evaluate(manifest(tool_id="shell"), p, NOW).passed

    def test_freshness_window_boundaries(self):
        p = PolicySet((rule("r", RuleKind.FRESHNESS_WINDOW),), epoch_ms=60_000, clock_skew_ms=2_000)
        assert evaluate(manifest(timestamp=NOW - 60_000), p, NOW).passed
        assert not evaluate(manifest(timestamp=NOW - 60_001), p, NOW).passed
        assert evaluate(manifest(timestamp=NOW + 2_000), p, NOW).passed
        assert not evaluate(manifest(timestamp=NOW + 2_001), p, NOW).passed


class TestEvaluation:
    def test_all_failures_reported_no_short_circuit(self):
        p = PolicySet(
            (
                rule("needs-query", RuleKind.REQUIRED_FIELD, field="query"),
                rule("small", RuleKind.MAX_ENCODING_SIZE, max_bytes=10),
                rule("known-tool", RuleKind.TOOL_ALLOWLIST, tools=["other"]),
            )
        )
        report = evaluate(manifest(user_fields={}), p, NOW)
        assert not report.passed
        assert report.failed_rule_ids == ("needs-query", "small", "known-tool")

    def test_warn_failures_do_not_block(self):
        p = PolicySet(
            (
                rule("soft", RuleKind.VALUE_RANGE, Severity.WARN, field="priority", max=2),
                rule("hard", RuleKind.REQUIRED_FIELD, field="query"),
            )
        )
        report = evaluate(manifest(), p, NOW)
        assert report.passed
        assert report.severity is Severity.WARN
        assert report.failed_rule_ids == ("soft",)

    def test_block_dominates_warn(self):
        p = PolicySet(
            (
                rule("soft", RuleKind.VALUE_RANGE, Severity.WARN, field="priority", max=2),
                rule("hard", RuleKind.TOOL_ALLOWLIST, tools=["other"]),
            )
        )
        report = evaluate(manifest(), p, NOW)
        assert not report.passed
        assert report.severity is Severity.BLOCK
        assert set(report.failed_rule_ids) == {"soft", "hard"}

    def test_clean_pass(self):
        p = PolicySet((rule("r", RuleKind.REQUIRED_FIELD, field="query"),))
        report = evaluate(manifest(), p, NOW)
        assert report == ComplianceReport(True, Severity.OK, ())

    @settings(max_examples=100)
    @given(st.data())
    def test_adding_rules_never_unfails(self, data):
        # evaluation is monotone: a failing manifest cannot pass under a
        # superset of the rules
        base_rules = [
            rule("a", RuleKind.REQUIRED_FIELD, field="query"),
            rule("b", RuleKind.MAX_FIELD_COUNT, max_fields=2),
        ]
        extra = rule("c", RuleKind.TOOL_ALLOWLIST, tools=["tracker"])
        fields = data.draw(
            st.dictionaries(st.sampled_from(["query", "x", "y", "z"]), st.integers(0, 9), max_size=4)
        )
        m = manifest(user_fields=fields)
        small = evaluate(m, PolicySet(tuple(base_rules)), NOW)
        big = evaluate(m, PolicySet(tuple(base_rules + [extra])), NOW)
        if not small.passed:
            assert not big.passed
        assert set(small.failed_rule_ids) <= set(big.failed_rule_ids)


class TestConfigValidation:
    def test_duplicate_rule_ids_rejected(self):
        r = rule("same", RuleKind.REQUIRED_FIELD, field="a")
        r2 = rule("same", RuleKind.MAX_FIELD_COUNT, max_fields=1)
        with pytest.raises(ConfigError):
            PolicySet((r, r2))

    def test_ok_failure_severity_rejected(self):
        with pytest.raises(ConfigError):
            PolicyRule("r", RuleKind.REQUIRED_FIELD, {"field": "a"}, Severity.OK)

    @pytest.mark.parametrize(
        "kind,params",
        [
            (RuleKind.REQUIRED_FIELD, {}),
            (RuleKind.FIELD_PATTERN, {"field": "q", "pattern": "("}),
            (RuleKind.VALUE_RANGE, {"field": "q"}),
            (RuleKind.VALUE_RANGE, {"field": "q", "min": 5, "max": 1}),
            (RuleKind.MAX_FIELD_COUNT, {"max_fields": -1}),
            (RuleKind.MAX_ENCODING_SIZE, {"max_bytes": 0}),
            (RuleKind.TOOL_ALLOWLIST, {"tools": []}),
            (RuleKind.TOOL_ALLOWLIST, {"tools": [1, 2]}),
            (RuleKind.REQUIRED_FIELD, {"field": "q", "partition": "nowhere"}),
        ],
    )
    def test_bad_params_rejected(self, kind, params):
        with pytest.raises(ConfigError):
            PolicyRule("r", kind, params)

    def test_bad_policy_set_params(self):
        with pytest.raises(ConfigError):
            PolicySet((), epoch_ms=0)
        with pytest.raises(ConfigError):
            PolicySet((), clock_skew_ms=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, True, "60000"])
    @pytest.mark.parametrize("name", ["epoch_ms", "clock_skew_ms"])
    def test_a_freshness_window_that_is_not_an_int_is_refused(self, name, value):
        # a NaN window compared false both ways and passed every timestamp
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            PolicySet((), **{name: value})


class TestSerialization:
    def policy(self):
        return PolicySet(
            (
                rule("needs-query", RuleKind.REQUIRED_FIELD, field="query", partition="user"),
                rule("shape", RuleKind.FIELD_PATTERN, Severity.WARN, field="query", pattern=r"^\w+$"),
                rule("fresh", RuleKind.FRESHNESS_WINDOW),
            ),
            epoch_ms=30_000,
            clock_skew_ms=500,
        )

    def document(self):
        """``policy()`` as a policy file writes it."""
        return {
            "epoch_ms": 30_000,
            "clock_skew_ms": 500,
            "rules": [
                {"rule_id": "needs-query", "kind": "required-field",
                 "params": {"field": "query", "partition": "user"}},
                {"rule_id": "shape", "kind": "field-pattern", "severity_on_fail": "warn",
                 "params": {"field": "query", "pattern": r"^\w+$"}},
                {"rule_id": "fresh", "kind": "freshness-window"},
            ],
        }

    def test_document_builds_the_policy(self):
        assert policy_from_dict(self.document()) == self.policy()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(self.document()), encoding="utf-8")
        loaded = load_policy_file(path)
        assert loaded == self.policy()
        # behavior equality on a borderline manifest
        m = manifest(timestamp=NOW - 30_000)
        assert evaluate(m, loaded, NOW) == evaluate(m, self.policy(), NOW)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rules": [}', encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_policy_file(path)
        assert "line" in str(err.value)

    @pytest.mark.parametrize("bound", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("side", ["min", "max"])
    def test_non_finite_range_bound_rejected(self, side, bound):
        # json.loads reads these literals of a policy file; a NaN bound used to
        # pass every value on its side
        text = (
            '{"rules": [{"rule_id": "r", "kind": "value-range", '
            f'"params": {{"field": "priority", "{side}": {bound}}}}}]}}'
        )
        with pytest.raises(ConfigError, match="finite"):
            policy_from_dict(json.loads(text))
        finite = policy_from_dict(json.loads(text.replace(bound, "5")))
        big = Manifest({"priority": 10**9}, {}, 5, "t")
        assert evaluate(big, finite, NOW).passed == (side == "min")

    def test_unknown_kind_rejected(self):
        obj = self.document()
        obj["rules"][0]["kind"] = "made-up"
        with pytest.raises(ConfigError):
            policy_from_dict(obj)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("params", "x", "params must be a JSON object"),
            ("params", ["field", "query"], "params must be a JSON object"),
            ("params", None, "params must be a JSON object"),
            ("rule_id", None, "rule_id must be a string"),
            ("rule_id", 7, "rule_id must be a string"),
        ],
    )
    def test_a_malformed_rule_is_refused_by_number(self, field, value, message):
        obj = self.document()
        obj["rules"][1][field] = value
        with pytest.raises(ConfigError, match=f"rule #1: {message}"):
            policy_from_dict(obj)


# -- reference evaluator ------------------------------------------------------
# Rule-by-rule interpretation of the parameters on every call, as evaluation
# worked before policies were compiled.  The compiled ``evaluate`` must give
# an equal report for every policy and manifest.

_RANK = {Severity.OK: 0, Severity.WARN: 1, Severity.BLOCK: 2}


def _oracle_lookup(manifest, partition, name):
    if partition in ("user", "any") and name in manifest.user_fields:
        return True, manifest.user_fields[name]
    if partition in ("model", "any") and name in manifest.model_fields:
        return True, manifest.model_fields[name]
    return False, None


def _oracle_rule_passes(rule, manifest, policy, now_ms):
    params = rule.params
    kind = rule.kind
    if kind is RuleKind.REQUIRED_FIELD:
        present, _ = _oracle_lookup(manifest, params["partition"], params["field"])
        return present
    if kind is RuleKind.FIELD_PATTERN:
        present, value = _oracle_lookup(manifest, params["partition"], params["field"])
        if not present:
            return True
        if not isinstance(value, str):
            return False
        return re.compile(params["pattern"]).fullmatch(value) is not None
    if kind is RuleKind.VALUE_RANGE:
        present, value = _oracle_lookup(manifest, params["partition"], params["field"])
        if not present:
            return True
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        lo = params.get("min")
        hi = params.get("max")
        if lo is not None and value < lo:
            return False
        if hi is not None and value > hi:
            return False
        return True
    if kind is RuleKind.MAX_FIELD_COUNT:
        total = len(manifest.user_fields) + len(manifest.model_fields)
        return total <= params["max_fields"]
    if kind is RuleKind.MAX_ENCODING_SIZE:
        return len(canonical_encode(manifest)) <= params["max_bytes"]
    if kind is RuleKind.TOOL_ALLOWLIST:
        return manifest.tool_id in params["tools"]
    if kind is RuleKind.FRESHNESS_WINDOW:
        age_ms = now_ms - manifest.timestamp
        if age_ms > policy.epoch_ms:
            return False
        if age_ms < -policy.clock_skew_ms:
            return False
        return True
    raise ConfigError(f"unhandled rule kind {kind!r}")


def oracle_evaluate(manifest, policy, now_ms):
    failed = []
    for r in policy.rules:
        if not _oracle_rule_passes(r, manifest, policy, now_ms):
            failed.append((r.rule_id, r.severity_on_fail))
    severity = Severity.OK
    for _, sev in failed:
        if _RANK[sev] > _RANK[severity]:
            severity = sev
    return ComplianceReport(
        passed=severity is not Severity.BLOCK, severity=severity, failed_rules=tuple(failed)
    )


_FIELDS = ["query", "priority", "tag", "n"]
_PATTERNS = [r"[a-z ]+", r"\d{1,3}", r".*", r"x|y", r"", r"[\w\- ]{1,8}"]
_TOOLS = ["tracker", "search", "shell"]
# bounds and field values share small pools, so values land on the bounds
_NUMBERS = [-2, -1, 0, 1, 2, 3, -0.0, 0.5, 2.5, 2**63]
_bound = st.one_of(
    st.none(),
    st.sampled_from(_NUMBERS),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _rules(draw, rule_id):
    kind = draw(st.sampled_from(list(RuleKind)))
    severity = draw(st.sampled_from([Severity.WARN, Severity.BLOCK]))
    params = {}
    if kind in (RuleKind.REQUIRED_FIELD, RuleKind.FIELD_PATTERN, RuleKind.VALUE_RANGE):
        params["field"] = draw(st.sampled_from(_FIELDS))
        partition = draw(st.sampled_from(["user", "model", "any", None]))
        if partition is not None:
            params["partition"] = partition
    if kind is RuleKind.FIELD_PATTERN:
        params["pattern"] = draw(st.sampled_from(_PATTERNS))
    elif kind is RuleKind.VALUE_RANGE:
        params["min"], params["max"] = draw(_bound), draw(_bound)
    elif kind is RuleKind.MAX_FIELD_COUNT:
        params["max_fields"] = draw(st.integers(0, 6))
    elif kind is RuleKind.MAX_ENCODING_SIZE:
        params["max_bytes"] = draw(st.integers(1, 200))
    elif kind is RuleKind.TOOL_ALLOWLIST:
        params["tools"] = draw(st.lists(st.sampled_from(_TOOLS), min_size=1, max_size=3))
    try:
        return PolicyRule(rule_id, kind, params, severity)
    except ConfigError:
        assume(False)


@st.composite
def _policies(draw):
    n = draw(st.integers(0, 9))
    rules = tuple(draw(_rules(f"r{i}")) for i in range(n))
    epoch = draw(st.one_of(st.sampled_from([1_000, 5_000, 60_000]), st.integers(1, 100_000)))
    skew = draw(st.one_of(st.sampled_from([0, 100, 2_000]), st.integers(0, 10_000)))
    return PolicySet(rules, epoch_ms=epoch, clock_skew_ms=skew)


_field_value = st.one_of(
    st.sampled_from(["", "abc", "x", "42", "list open issues", "rm -rf /"]),
    st.text(max_size=10),
    st.sampled_from(_NUMBERS),
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)


@st.composite
def _policy_manifests(draw):
    placed = draw(
        st.dictionaries(
            st.sampled_from(_FIELDS + ["extra"]),
            st.tuples(st.sampled_from(["user", "model"]), _field_value),
            max_size=5,
        )
    )
    user = {k: v for k, (side, v) in placed.items() if side == "user"}
    model = {k: v for k, (side, v) in placed.items() if side == "model"}
    # timestamps that sit exactly on the freshness bounds of the pooled windows
    edges = [NOW + d for d in (-60_000, -5_000, -1_000, 0, 100, 2_000)]
    timestamp = draw(st.one_of(st.sampled_from(edges), st.integers(NOW - 200_000, NOW + 20_000)))
    return Manifest(user, model, timestamp, draw(st.sampled_from(_TOOLS)))


class TestCompiledMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(
        _policies(),
        _policy_manifests(),
        st.one_of(st.just(NOW), st.integers(NOW - 5_000, NOW + 5_000)),
    )
    def test_same_report_as_the_reference(self, policy, m, now):
        # equal reports: same passed, severity and failed rules in order
        assert evaluate(m, policy, now) == oracle_evaluate(m, policy, now)

    @pytest.mark.parametrize("severity", [Severity.WARN, Severity.BLOCK])
    @pytest.mark.parametrize("partition", ["user", "model", "any"])
    def test_every_kind_and_partition(self, partition, severity):
        rules = (
            rule("req", RuleKind.REQUIRED_FIELD, severity, field="query", partition=partition),
            rule("pat", RuleKind.FIELD_PATTERN, severity, field="query", partition=partition,
                 pattern=r"[a-z ]+"),
            rule("rng", RuleKind.VALUE_RANGE, severity, field="priority", partition=partition,
                 min=1, max=4),
            rule("cnt", RuleKind.MAX_FIELD_COUNT, severity, max_fields=2),
            rule("size", RuleKind.MAX_ENCODING_SIZE, severity, max_bytes=110),
            rule("tool", RuleKind.TOOL_ALLOWLIST, severity, tools=["tracker"]),
            rule("fresh", RuleKind.FRESHNESS_WINDOW, severity),
        )
        policy = PolicySet(rules, epoch_ms=10_000, clock_skew_ms=100)
        manifests = [
            manifest(),
            manifest(user_fields={}, model_fields={"query": "UPPER", "priority": 9}),
            manifest(user_fields={"query": 3, "priority": "x"}, tool_id="shell"),
            manifest(user_fields={"query": "ab", "priority": 4}),
            manifest(model_fields={"query": "ab", "priority": 1.0}, user_fields={}),
            manifest(user_fields={"priority": True}),
            manifest(timestamp=NOW - 10_001),
            manifest(timestamp=NOW - 10_000),
            manifest(timestamp=NOW + 100),
            manifest(timestamp=NOW + 101),
        ]
        for m in manifests:
            assert evaluate(m, policy, NOW) == oracle_evaluate(m, policy, NOW)

    @settings(max_examples=100, deadline=None)
    @given(_policies(), _policy_manifests())
    def test_pickle_and_deepcopy_rebuild_an_equal_policy(self, policy, m):
        from manifestd.harness import WorkloadConfig, default_policy_set

        default = default_policy_set(WorkloadConfig())
        for original in (policy, default):
            for copied in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
                assert copied == original
                assert evaluate(m, copied, NOW) == evaluate(m, original, NOW)
                assert evaluate(m, copied, NOW) == oracle_evaluate(m, copied, NOW)
        assert pickle.loads(pickle.dumps(default)) == default
        for rule_ in default.rules:
            assert copy.deepcopy(rule_) == rule_
            assert pickle.loads(pickle.dumps(rule_)).params == rule_.params

    def test_params_are_read_only(self):
        r = rule("r", RuleKind.VALUE_RANGE, field="priority", max=5)
        with pytest.raises(TypeError):
            r.params["max"] = 100
        with pytest.raises(TypeError):
            r.params["min"] = 0

    def test_caller_dict_changes_do_not_reach_the_rule(self):
        params = {"tools": ["tracker"]}
        policy = PolicySet((PolicyRule("t", RuleKind.TOOL_ALLOWLIST, params),))
        params["tools"].append("shell")
        assert not evaluate(manifest(tool_id="shell"), policy, NOW).passed
