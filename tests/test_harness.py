"""Workload harness tests on small ladders."""

import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from manifestd.audit import recheck_evidence
from manifestd.errors import ConfigError
from manifestd import _kernels
from manifestd.harness import (
    ARRIVAL_SPACING_MS,
    OUTCOME_COLUMNS,
    WARMUP_SIZE,
    AttackKind,
    ErrorKind,
    ExecutionOutcome,
    LatencyModel,
    OutputModel,
    ScaleReport,
    Status,
    WorkloadConfig,
    _largest_remainder,
    _run_scale,
    _Streams,
    apply_jitter,
    config_from_dict,
    config_to_dict,
    default_backends,
    default_policy_set,
    generate_batch,
    read_outcome_rows,
    revocation_preset,
    run_pipeline,
    run_report_dict,
    select_backend,
    write_records_csv,
    write_ndjson,
)
from manifestd.audit import EvidenceTuple
from manifestd.policy import Severity, evaluate, read_json_file
from manifestd.manifest import Manifest
from manifestd.stats import report_from_rows
from manifestd.translog import TransparencyLog, check_integrity, verify_inclusion

SMALL = WorkloadConfig(sizes=(100, 200, 500), seed=1234, audit_probability=0.2)
# passes the weight checks one by one, NaN comparing false both ways
NAN_WEIGHT_MIX = (
    (AttackKind.EXPIRED_TIMESTAMP, math.nan),
    (AttackKind.FORGED_SIGNATURE, 0.5),
    (AttackKind.MALFORMED_MANIFEST, 0.25),
    (AttackKind.REVOKED_KEY_USE, 0.25),
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return run_pipeline(SMALL, out), out


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sizes": ()},
            {"sizes": (100, 100)},
            {"sizes": (500, 100)},
            {"sizes": (0,)},
            {"sizes": (50.7,)},
            {"sizes": (True,)},
            {"invalid_fraction": 1.5},
            {"jitter_epsilon_ms": -1.0},
            {"audit_probability": -0.1},
            {"revoke_at_fraction": 1.0},
            {"revoke_key": "not-a-key"},
            {"key_ids": ()},
            {"key_ids": ("a", "a")},
            {"invalid_ramp": (0.9, 0.2)},
            {"adversary_mix": ((AttackKind.FORGED_SIGNATURE, 0.5),)},
            {"jitter_epsilon_ms": math.nan},
            {"jitter_epsilon_ms": math.inf},
            {"base_time_ms": "x"},
            {"base_time_ms": 1.5e12},
            {"base_time_ms": True},
            {"adversary_mix": NAN_WEIGHT_MIX},
            {"key_ids": (1, 2), "revoke_key": 2},
            {"key_ids": ("dev-k1", ""), "revoke_key": "dev-k1"},
            {"scheme": "rsa-1024"},
            {"backends": default_backends()[:1]},
            {"backends": [replace(b, backend_id="") for b in default_backends()]},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadConfig(**kwargs)

    @pytest.mark.parametrize(
        "model, params",
        [
            (LatencyModel, (math.nan, 1.0)),
            (LatencyModel, (1.0, math.inf)),
            (LatencyModel, (1.0, 1.0, -math.inf)),
            (OutputModel, (math.inf, 1.0)),
            (OutputModel, (100.0, math.nan)),
            (OutputModel, (100.0, 1.0, math.inf)),
        ],
    )
    def test_non_finite_model_parameters_rejected(self, model, params):
        # a backend model refuses them itself, before any config holds it
        with pytest.raises(ConfigError):
            model(*params)

    def test_revoked_traffic_requires_revoke_key(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(revoke_key=None)
        # at any rank, not only the first
        with pytest.raises(ConfigError, match="requires revoke_key"):
            WorkloadConfig(sizes=(10, 20), invalid_ramp=(0.0, 0.5), revoke_key=None)

    @pytest.mark.parametrize(
        "sizes, fraction, batch",
        [((10, 20), 0.9, 10), ((1000,), 0.6, WARMUP_SIZE)],
        ids=["listed-size", "warm-up"],
    )
    def test_revoked_requests_must_fit_after_the_revocation(self, sizes, fraction, batch):
        # checked for every batch a run makes before any runs; 0.6 of 1000
        # fits after index 400, but 154 of the 256-request warm-up do not
        # fit after index 103
        with pytest.raises(ConfigError, match=f"in a batch of {batch}$"):
            WorkloadConfig(sizes=sizes, invalid_fraction=fraction,
                           adversary_mix=((AttackKind.REVOKED_KEY_USE, 1.0),))

    def test_fraction_ramp(self):
        cfg = WorkloadConfig(invalid_ramp=(0.1, 0.01))
        assert cfg.invalid_fraction_at(0) == pytest.approx(0.1)
        assert cfg.invalid_fraction_at(6) == pytest.approx(0.16)
        flat = WorkloadConfig()
        assert flat.invalid_fraction_at(3) == 0.2

    def test_round_trip_through_dict(self):
        cfg = revocation_preset(WorkloadConfig(sizes=(10, 20), seed=5))
        clone = config_from_dict(config_to_dict(cfg))
        assert clone == cfg

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True).map(sorted),
        invalid_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**63),
        key_ids=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4, unique=True),
        jitter=st.floats(0.0, 1e3),
        audit_probability=st.floats(0.0, 1.0),
        revoke_at_fraction=st.floats(0.0, 0.99),
        preset=st.booleans(),
    )
    def test_round_trip_through_json(self, sizes, invalid_fraction, seed, key_ids, jitter,
                                     audit_probability, revoke_at_fraction, preset):
        try:
            cfg = WorkloadConfig(
                sizes=tuple(sizes), invalid_fraction=invalid_fraction, seed=seed,
                key_ids=tuple(key_ids), jitter_epsilon_ms=jitter,
                audit_probability=audit_probability, revoke_key=key_ids[-1],
                revoke_at_fraction=revoke_at_fraction,
            )
            if preset:
                cfg = revocation_preset(cfg)
        except ConfigError as exc:
            # a batch with more revoked-key requests than fit after the
            # revocation is refused; every other drawn config round-trips
            if "cannot place" not in str(exc):
                raise
            reject()
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_json_object_has_one_key_per_field(self):
        assert list(config_to_dict(WorkloadConfig())) == [f.name for f in fields(WorkloadConfig)]

    @pytest.mark.parametrize("key", ["invalid_fracton", "burst_coef", "max_priority"])
    def test_unknown_key_is_refused_by_name(self, key):
        obj = config_to_dict(WorkloadConfig())
        obj[key] = 0.5
        with pytest.raises(ConfigError, match=key):
            config_from_dict(obj)

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = WorkloadConfig(sizes=(50,), seed=9)
        path.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        assert config_from_dict(read_json_file(path, "config")) == cfg

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{bad", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            config_from_dict(read_json_file(path, "config"))
        assert "line" in str(err.value)


class TestBatchGeneration:
    def batch(self, scale=1000, cfg=None):
        cfg = cfg or WorkloadConfig(sizes=(scale,), seed=77)
        streams = _Streams(cfg.seed, scale)
        return cfg, generate_batch(cfg, scale, streams.fresh()["gen"])

    def test_attack_counts_are_exact(self):
        cfg, batch = self.batch()
        kinds = [r.kind for r in batch]
        assert len(batch) == 1000
        assert kinds.count(None) == 800
        for kind in AttackKind:
            assert kinds.count(kind) == 50

    def test_largest_remainder_allocation(self):
        assert _largest_remainder(10, [0.5, 0.5]) == [5, 5]
        # raw shares 3.5 / 1.75 / 1.75: the two larger remainders round up
        assert _largest_remainder(7, [0.5, 0.25, 0.25]) == [3, 2, 2]
        assert _largest_remainder(200, [0.25, 0.25, 0.25, 0.25]) == [50, 50, 50, 50]
        assert sum(_largest_remainder(13, [0.85, 0.05, 0.05, 0.05])) == 13

    def test_revoked_attacks_sit_after_the_revocation_point(self):
        cfg, batch = self.batch()
        cutoff = math.ceil(cfg.revoke_at_fraction * len(batch))
        for request in batch:
            if request.kind is AttackKind.REVOKED_KEY_USE:
                assert request.index >= cutoff
                assert request.pinned_key == cfg.revoke_key

    def test_generation_is_deterministic(self):
        _, a = self.batch()
        _, b = self.batch()
        assert a == b
        cfg = WorkloadConfig(sizes=(1000,), seed=78)
        streams = _Streams(cfg.seed, 1000)
        c = generate_batch(cfg, 1000, streams.fresh()["gen"])
        assert c != a

    def test_malformed_variants_alternate(self):
        _, batch = self.batch()
        malformed = [r for r in batch if r.kind is AttackKind.MALFORMED_MANIFEST]
        assert malformed
        dup_key = [r for r in malformed if "query" in r.user_fields and "query" in r.model_fields]
        bad_tool = [r for r in malformed if r.tool_id == "unregistered-tool"]
        # both corruption shapes are present in every batch
        assert dup_key and bad_tool
        assert len(dup_key) + len(bad_tool) == len(malformed)

    def test_forged_requests_are_marked(self):
        _, batch = self.batch()
        forged = [r for r in batch if r.kind is AttackKind.FORGED_SIGNATURE]
        assert forged and all(r.corrupt_signature for r in forged)

    def test_scheduled_arrivals_are_spaced(self):
        cfg, batch = self.batch(scale=100)
        diffs = {
            round(b.scheduled_ms - a.scheduled_ms, 9)
            for a, b in zip(batch, batch[1:])
        }
        assert diffs == {ARRIVAL_SPACING_MS}


class TestPrimitives:
    def test_select_backend_is_roughly_uniform(self):
        rng = np.random.Generator(np.random.Philox(3))
        ids = ("a", "b", "c")
        counts = {i: 0 for i in ids}
        for _ in range(30_000):
            counts[select_backend(ids, rng)] += 1
        for count in counts.values():
            assert count / 30_000 == pytest.approx(1 / 3, abs=0.01)

    def test_jitter_zero_epsilon_is_exact(self):
        rng = np.random.Generator(np.random.Philox(4))
        assert apply_jitter(123.456, 0.0, rng) == 123.456

    def test_jitter_is_bounded_and_centered(self):
        rng = np.random.Generator(np.random.Philox(5))
        eps = 3.0
        draws = [apply_jitter(0.0, eps, rng) for _ in range(50_000)]
        assert all(-eps < d < eps for d in draws)
        assert np.mean(draws) == pytest.approx(0.0, abs=0.05)
        # uniform(-eps, eps) has variance eps^2 / 3
        assert np.var(draws) == pytest.approx(eps**2 / 3, rel=0.05)

    def test_negative_jitter_rejected(self):
        rng = np.random.Generator(np.random.Philox(6))
        with pytest.raises(ConfigError):
            apply_jitter(1.0, -0.5, rng)

    def test_default_policy_accepts_clean_manifest(self):
        cfg = WorkloadConfig()
        policy = default_policy_set(cfg)
        ids = {rule.rule_id for rule in policy.rules}
        assert "fresh-window" in ids and "priority-soft-cap" in ids
        m = Manifest(
            {"query": "look up trains", "priority": 2},
            {"system_prompt": "answer briefly", "context_window": 8192},
            1_755_000_000_000,
            cfg.backend_ids()[0],
        )
        report = evaluate(m, policy, 1_755_000_000_500)
        assert report.passed and report.severity is Severity.OK
        stranger = Manifest(dict(m.user_fields), dict(m.model_fields), m.timestamp, "unregistered-tool")
        assert not evaluate(stranger, policy, 1_755_000_000_500).passed


class TestPipeline:
    def test_conservation_and_exact_success_rate(self, small_run):
        result, _ = small_run
        for report in result.scale_reports:
            assert report.successes + report.failures == report.requests == report.scale
            assert report.successes == report.logged_entries
            # every default size is divisible by 5, so the rate is exact
            assert report.successes / report.requests == 0.8

    def test_outcomes_are_reproducible(self, small_run, tmp_path):
        result, _ = small_run
        again = run_pipeline(SMALL, tmp_path / "again")
        assert again.outcomes == result.outcomes
        other_seed = run_pipeline(
            WorkloadConfig(sizes=SMALL.sizes, seed=4321, audit_probability=0.2),
            tmp_path / "other-seed",
        )
        assert other_seed.outcomes != result.outcomes

    def test_warmup_does_not_touch_measured_streams(self, small_run, tmp_path):
        # each scale run alone, with no warm-up before it, gives the outcomes
        # run_pipeline reported for it
        result, _ = small_run
        alone = []
        for scale in SMALL.sizes:
            alone += _run_scale(SMALL, scale, tmp_path / f"w{scale}")[0]
        assert alone == result.outcomes

    def test_attack_kinds_map_to_error_kinds(self, small_run):
        result, _ = small_run
        expected = {
            AttackKind.EXPIRED_TIMESTAMP: ErrorKind.EXPIRED_TIMESTAMP,
            AttackKind.FORGED_SIGNATURE: ErrorKind.SIGNATURE_INVALID,
            AttackKind.REVOKED_KEY_USE: ErrorKind.KEY_REVOKED,
        }
        for scale in SMALL.sizes:
            streams = _Streams(SMALL.seed, scale)
            batch = generate_batch(SMALL, scale, streams.fresh()["gen"])
            by_index = {o.request_index: o for o in result.outcomes if o.scale == scale}
            for request in batch:
                outcome = by_index[request.index]
                if request.kind is None:
                    assert outcome.status is Status.SUCCESS
                    assert outcome.error_kind is None
                    assert outcome.log_index >= 0
                    continue
                assert outcome.status is Status.FAILURE
                assert outcome.log_index == -1
                if request.kind in expected:
                    assert outcome.error_kind is expected[request.kind]
                else:
                    assert outcome.error_kind in (
                        ErrorKind.MALFORMED_ENCODING,
                        ErrorKind.POLICY_VIOLATION,
                    )

    def test_logs_on_disk_verify_and_match_successes(self, small_run):
        result, out = small_run
        for report in result.scale_reports:
            log_dir = out / "logs" / f"w{report.scale}"
            assert check_integrity(log_dir).ok
            with TransparencyLog(log_dir) as log:
                assert log.size == report.successes
                assert log.current_root().hex == report.final_root_hex

    def test_audits_recheck_and_prove_inclusion(self, small_run):
        result, out = small_run
        assert result.audits, "audit sampling produced nothing at p=0.2"
        by_scale = {}
        for audit in result.audits:
            assert recheck_evidence(audit.evidence)
            by_scale.setdefault(audit.scale, []).append(audit)
        for scale, audits in by_scale.items():
            with TransparencyLog(out / "logs" / f"w{scale}") as log:
                for audit in audits:
                    tree_size = audit.evidence.merkle_root.tree_size
                    proof = log.prove_inclusion(audit.log_index, tree_size)
                    root = log.root_at(tree_size)
                    assert verify_inclusion(log.leaf_hash(audit.log_index), proof, root)
                    assert audit.evidence.merkle_root == root

    def test_modeled_times_are_positive_and_ordered(self, small_run):
        result, _ = small_run
        for report in result.scale_reports:
            assert report.modeled_exec_ms > report.modeled_verify_ms > 0
            assert report.baseline_wall_ms > 0
            assert report.secure_wall_ms > report.baseline_wall_ms
            assert report.overhead_delta > 0
            assert report.hash_ops > 0

    def test_growth_tracks_log_bytes(self, small_run):
        result, _ = small_run
        assert [r.scale for r in result.scale_reports] == list(SMALL.sizes)
        totals = [r.log_bytes for r in result.scale_reports]
        assert totals == sorted(totals)

    def test_run_report_shape(self, small_run):
        result, _ = small_run
        report = run_report_dict(result)
        blob = json.dumps(report)
        assert str(SMALL.seed) in blob
        assert report["kernel_backend"] == _kernels.BACKEND
        assert [r["scale"] for r in report["scales"]] == list(SMALL.sizes)
        for entry in report["scales"]:
            assert list(entry) == [f.name for f in fields(ScaleReport)]


class TestArtifacts:
    def test_outcomes_csv_round_trip_feeds_stats(self, small_run, tmp_path):
        result, _ = small_run
        path = tmp_path / "outcomes.csv"
        write_records_csv(path, ExecutionOutcome, result.outcomes)
        rows = read_outcome_rows(path)
        assert len(rows) == len(result.outcomes)
        report = report_from_rows(rows)
        assert report.scales == SMALL.sizes
        assert dict(report.success_rates)[500] == pytest.approx(0.8)

    def test_metrics_csv(self, small_run, tmp_path):
        result, _ = small_run
        path = tmp_path / "metrics.csv"
        write_records_csv(path, ScaleReport, result.scale_reports)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(SMALL.sizes)
        assert lines[0].startswith("workload_id,scale,")

    def test_evidence_ndjson_round_trips(self, small_run, tmp_path):
        result, _ = small_run
        path = tmp_path / "evidence.ndjson"
        write_ndjson(path, (audit.evidence.to_json_dict() for audit in result.audits))
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.audits)
        for line in lines:
            assert recheck_evidence(EvidenceTuple.from_json_line(line))


def outcome_row(index, scale="10", timestamp="1.0"):
    return ["w", scale, str(index), "b0", "k1", "success", "", "ok", "1.0", "1.0", "10",
            timestamp, str(index)]


def write_csv(path, lines):
    path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")


class TestReadOutcomeRows:
    @pytest.mark.parametrize(
        "write",
        [lambda path: None, lambda path: path.write_bytes(b"\xff" + b",".join(
            name.encode() for name in OUTCOME_COLUMNS) + b"\n")],
        ids=["missing", "not-utf8"],
    )
    def test_file_that_cannot_be_read_is_a_config_error(self, tmp_path, write):
        path = tmp_path / "outcomes.csv"
        write(path)
        with pytest.raises(ConfigError, match="cannot read outcomes file"):
            read_outcome_rows(path)

    @pytest.mark.parametrize(
        "header",
        [None, ["scale", "status"], OUTCOME_COLUMNS[::-1]],
        ids=["empty-file", "other-columns", "reordered"],
    )
    def test_header_must_be_the_outcome_columns(self, tmp_path, header):
        path = tmp_path / "outcomes.csv"
        write_csv(path, [] if header is None else [header, outcome_row(0)])
        with pytest.raises(ConfigError, match="header is not"):
            read_outcome_rows(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (outcome_row(1)[:-1], "12 values for 13 columns"),
            (outcome_row(1) + ["extra"], "14 values for 13 columns"),
            (outcome_row(1, scale="1.5"), "invalid literal for int()"),
            (outcome_row(1, timestamp="soon"), "could not convert string to float"),
        ],
        ids=["short-row", "long-row", "scale", "timestamp"],
    )
    def test_value_that_does_not_parse_names_its_line(self, tmp_path, bad, message):
        path = tmp_path / "outcomes.csv"
        write_csv(path, [OUTCOME_COLUMNS, outcome_row(0), bad, outcome_row(2)])
        with pytest.raises(ConfigError, match=f"line 3: {re.escape(message)}"):
            read_outcome_rows(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "outcomes.csv"
        write_csv(path, [OUTCOME_COLUMNS, outcome_row(0), [], outcome_row(1), []])
        rows = read_outcome_rows(path)
        assert [row["request_index"] for row in rows] == ["0", "1"]
        assert rows[0] == dict(zip(OUTCOME_COLUMNS, outcome_row(0)))


class TestRevocationScenario:
    def test_preset_shape(self):
        cfg = revocation_preset(WorkloadConfig(sizes=(100, 200, 500), seed=3))
        mix = dict(cfg.adversary_mix)
        assert mix[AttackKind.REVOKED_KEY_USE] == pytest.approx(0.85)
        assert cfg.invalid_ramp[0] == pytest.approx(0.11)
        ranks = len(cfg.sizes)
        top = cfg.invalid_fraction_at(ranks - 1)
        assert top == pytest.approx(0.19)

    def test_revoked_key_fails_after_cutover(self, tmp_path):
        cfg = revocation_preset(WorkloadConfig(sizes=(200,), seed=11))
        result = run_pipeline(cfg, tmp_path)
        revoked = [
            o for o in result.outcomes if o.error_kind is ErrorKind.KEY_REVOKED
        ]
        assert revoked
        for outcome in revoked:
            assert outcome.key_id == cfg.revoke_key
        # successes after the revocation point never use the dead key
        cutoff = math.ceil(cfg.revoke_at_fraction * 200)
        for outcome in result.outcomes:
            if outcome.status is Status.SUCCESS and outcome.request_index >= cutoff:
                assert outcome.key_id != cfg.revoke_key
