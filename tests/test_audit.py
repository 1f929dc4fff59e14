"""Audit evidence, escape-probability and overhead tests.

The closed-form escape probability is cross-checked by direct Monte Carlo
simulation.
"""

import hashlib
import json

import numpy as np
import pytest

from manifestd.audit import (
    EvidenceTuple,
    build_evidence,
    evidence_digest_of,
    overhead,
    recheck_evidence,
    undetected_probability,
)
from manifestd.errors import DomainError, EncodingError
from manifestd.harness import json_line
from manifestd.translog import MerkleRoot


def root(tag=b"r", size=5):
    return MerkleRoot(hashlib.sha256(tag).digest(), size)


class TestEvidence:
    def test_build_and_recheck(self):
        ev = build_evidence(root(), b"tool output", 12.5, 1.25)
        assert ev.output_digest == hashlib.sha256(b"tool output").digest()
        assert recheck_evidence(ev)

    def test_json_line_round_trip(self):
        ev = build_evidence(root(), b"payload", 3.125, 0.5)
        clone = EvidenceTuple.from_json_line(json_line(ev.to_json_dict()))
        assert clone == ev
        assert recheck_evidence(clone)

    def test_bad_line_rejected(self):
        with pytest.raises(EncodingError):
            EvidenceTuple.from_json_line("{}")
        with pytest.raises(EncodingError):
            EvidenceTuple.from_json_line("not json")

    @pytest.mark.parametrize(
        "field, text",
        [
            ("tree_size", "5.9"),
            ("tree_size", "5.0"),
            ("tree_size", "true"),
            ("tree_size", '"5"'),
            ("tree_size", "null"),
            ("exec_ms", "NaN"),
            ("exec_ms", "Infinity"),
            ("verify_ms", "-Infinity"),
            ("verify_ms", "-0.5"),
            ("exec_ms", '"12.5"'),
            ("exec_ms", "1" + "0" * 400),
            ("verify_ms", "true"),
            ("root", '"' + "ab" * 31 + '"'),
            ("output_digest", '"' + "ab" * 33 + '"'),
            ("evidence_digest", '""'),
        ],
    )
    def test_line_that_is_not_canonical_refused(self, field, text):
        ev = build_evidence(root(), b"out", 12.5, 1.25)
        line = json_line(ev.to_json_dict())
        obj = json.loads(line)
        old = json.dumps(obj[field], separators=(",", ":"))
        edited = line.replace(f'"{field}":{old}', f'"{field}":{text}')
        assert edited != line
        with pytest.raises(EncodingError):
            EvidenceTuple.from_json_line(edited)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_timing_build_evidence_refuses_never_rechecks(self, bad):
        for exec_ms, verify_ms in ((bad, 1.0), (1.0, bad)):
            # a digest made over the refused timing's text, as a forger would
            digest = evidence_digest_of(root(), bytes(32), exec_ms, verify_ms)
            assert not recheck_evidence(
                EvidenceTuple(root(), bytes(32), exec_ms, verify_ms, digest)
            )

    def test_digest_binds_every_field(self):
        base = build_evidence(root(), b"out", 10.0, 2.0)
        changed = [
            build_evidence(root(b"other"), b"out", 10.0, 2.0),
            build_evidence(root(), b"out2", 10.0, 2.0),
            build_evidence(root(), b"out", 10.001, 2.0),
            build_evidence(root(), b"out", 10.0, 2.001),
            build_evidence(root(size=6), b"out", 10.0, 2.0),
        ]
        digests = {base.evidence_digest} | {c.evidence_digest for c in changed}
        assert len(digests) == 6

    @pytest.mark.parametrize("tree_size", [4, 6, 0, 1 << 40, -1, 1 << 64])
    def test_edited_tree_size_fails_recheck(self, tree_size):
        ev = build_evidence(root(size=5), b"out", 10.0, 2.0)
        obj = ev.to_json_dict()
        obj["tree_size"] = tree_size
        edited = EvidenceTuple.from_json_line(json.dumps(obj))
        assert edited.merkle_root.tree_size == tree_size
        assert not recheck_evidence(edited)

    def test_unencodable_tree_size_refused(self):
        with pytest.raises(DomainError):
            build_evidence(root(size=-1), b"out", 1.0, 1.0)

    def test_timing_is_canonicalized_to_milliseconds_3dp(self):
        # below the canonical resolution the digest must not move, otherwise
        # a reloaded evidence line could fail its own recheck
        a = build_evidence(root(), b"out", 10.0001, 2.0)
        b = build_evidence(root(), b"out", 10.00012, 2.0)
        assert a.evidence_digest == b.evidence_digest

    def test_corrupted_digest_fails_recheck(self):
        ev = build_evidence(root(), b"out", 1.0, 1.0)
        bad = EvidenceTuple(
            ev.merkle_root,
            ev.output_digest,
            ev.exec_time_ms,
            ev.verify_time_ms,
            bytes(32),
        )
        assert not recheck_evidence(bad)

    def test_negative_timings_rejected(self):
        with pytest.raises(DomainError):
            build_evidence(root(), b"out", -0.1, 1.0)
        with pytest.raises(DomainError):
            build_evidence(root(), b"out", 1.0, -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timings_rejected(self, bad):
        # NaN slips past a "< 0" check and would serialize as non-standard JSON
        with pytest.raises(DomainError):
            build_evidence(root(), b"out", bad, 1.0)
        with pytest.raises(DomainError):
            build_evidence(root(), b"out", 1.0, bad)

    def test_digests_are_collision_free_at_scale(self):
        seen = set()
        for i in range(100_000):
            ev_digest = build_evidence(root(), b"out-%d" % i, 1.0, 1.0).evidence_digest
            seen.add(ev_digest)
        assert len(seen) == 100_000


class TestEscapeProbability:
    def test_hand_values(self):
        assert undetected_probability(0.5, 1) == 0.5
        assert undetected_probability(1.0, 3) == 0.0
        assert undetected_probability(0.25, 0) == 1.0
        assert undetected_probability(0.9, 10) == pytest.approx(1e-10, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            undetected_probability(0.0, 5)
        with pytest.raises(DomainError):
            undetected_probability(1.5, 5)
        with pytest.raises(DomainError):
            undetected_probability(0.5, -1)

    def test_monte_carlo_agrees_with_closed_form(self):
        # 200k simulated 5-round violation campaigns at p = 0.3
        rng = np.random.Generator(np.random.Philox(7))
        trials = 200_000
        detected = rng.random((trials, 5)) < 0.3
        escaped = np.mean(~detected.any(axis=1))
        expected = undetected_probability(0.3, 5)
        # binomial standard error ~ sqrt(q(1-q)/trials) ~ 0.0008
        assert escaped == pytest.approx(expected, abs=0.004)


class TestOverhead:
    def test_overhead_hand_values(self):
        assert overhead(10.0, 15.0) == pytest.approx(0.5)
        assert overhead(100.0, 100.0) == 0.0

    def test_overhead_requires_positive_baseline(self):
        with pytest.raises(DomainError):
            overhead(0.0, 5.0)
        with pytest.raises(DomainError):
            overhead(-1.0, 5.0)
