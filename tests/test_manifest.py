"""Canonical encoding and digest tests."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifestd.errors import DisjointnessViolation, EmptyEncoding, EncodingError
from manifestd.manifest import (
    MAX_ENTROPY_BITS,
    Manifest,
    ManifestDigest,
    byte_entropy_bits,
    canonical_decode,
    canonical_encode,
    digest,
    encoding_stats,
    manifest_from_dict,
    manifest_to_dict,
    parse_manifest,
    redact_for_user,
)


def sample_manifest(**overrides):
    kwargs = dict(
        user_fields={"query": "weather in oslo", "units": "metric"},
        model_fields={"system_prompt": "be concise", "temperature": 0.2},
        timestamp=1_755_000_000_000,
        tool_id="search-v2",
    )
    kwargs.update(overrides)
    return Manifest(**kwargs)


# Hypothesis strategies. Keys are prefixed per partition so the two mappings
# stay disjoint by construction.
_scalar = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
)
_key = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=12,
)
_manifests = st.builds(
    Manifest,
    user_fields=st.dictionaries(_key.map(lambda k: "u_" + k), _scalar, max_size=6),
    model_fields=st.dictionaries(_key.map(lambda k: "m_" + k), _scalar, max_size=6),
    timestamp=st.integers(min_value=0, max_value=2**53),
    tool_id=st.text(min_size=1, max_size=16),
)


class TestConstruction:
    def test_insertion_order_is_irrelevant(self):
        a = Manifest({"b": 1, "a": 2}, {"z": "x"}, 5, "t")
        b = Manifest({"a": 2, "b": 1}, {"z": "x"}, 5, "t")
        assert a == b
        assert canonical_encode(a) == canonical_encode(b)

    def test_equality_tells_apart_values_that_encode_differently(self):
        forms = [Manifest({"x": v}, {}, 5, "t") for v in (True, 1, 1.0, 0.0, -0.0)]
        for i, a in enumerate(forms):
            for j, b in enumerate(forms):
                assert (a == b) == (i == j)
                assert (canonical_encode(a) == canonical_encode(b)) == (i == j)

    def test_unencodable_string_raises_encoding_error(self):
        with pytest.raises(EncodingError):
            canonical_encode(Manifest({"q": "\ud800"}, {}, 5, "t"))

    @pytest.mark.parametrize(
        "fields",
        [
            ({"\ud800": "x"}, {}, "t"),
            ({"q": "a\udfffb"}, {}, "t"),
            ({}, {"\udc00k": "x"}, "t"),
            ({}, {"k": "\ud800"}, "t"),
            ({"q": "x"}, {}, "tool-\ud800"),
        ],
        ids=["user-key", "user-value", "model-key", "model-value", "tool-id"],
    )
    def test_lone_surrogate_rejected_at_construction(self, fields):
        # a manifest that was built must also encode, digest and compare
        user, model, tool = fields
        with pytest.raises(EncodingError):
            Manifest(user, model, 5, tool)
        text = json.dumps(
            {"user_fields": user, "model_fields": model, "timestamp": 5, "tool_id": tool}
        )
        with pytest.raises(EncodingError):
            parse_manifest(text)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.builds(
                Manifest,
                user_fields=st.dictionaries(
                    st.sampled_from(["a", "b"]),
                    st.sampled_from([True, False, 0, 1, 0.0, -0.0, 1.0, "1", "true"]),
                    max_size=2,
                ),
                model_fields=st.just({}),
                timestamp=st.integers(min_value=0, max_value=1),
                tool_id=st.sampled_from(["t", "u"]),
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_equal_iff_same_encoding(self, pair):
        m1, m2 = pair
        assert (m1 == m2) == (canonical_encode(m1) == canonical_encode(m2))

    def test_shared_key_rejected(self):
        with pytest.raises(DisjointnessViolation):
            Manifest({"query": "x"}, {"query": "y"}, 1, "t")

    def test_field_mappings_are_read_only(self):
        m = sample_manifest()
        with pytest.raises(TypeError):
            m.user_fields["query"] = "other"

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf")],
    )
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(EncodingError):
            Manifest({"x": bad}, {}, 1, "t")

    @pytest.mark.parametrize("bad", [None, [1], {"a": 1}, b"bytes", object()])
    def test_non_scalar_values_rejected(self, bad):
        with pytest.raises(EncodingError):
            Manifest({"x": bad}, {}, 1, "t")

    def test_non_string_keys_rejected(self):
        with pytest.raises(EncodingError):
            Manifest({1: "x"}, {}, 1, "t")

    @pytest.mark.parametrize("ts", [-1, 1.5, "7", True, None])
    def test_bad_timestamp_rejected(self, ts):
        with pytest.raises(EncodingError):
            Manifest({}, {}, ts, "t")

    @pytest.mark.parametrize("tool", ["", None, 3])
    def test_bad_tool_id_rejected(self, tool):
        with pytest.raises(EncodingError):
            Manifest({}, {}, 1, tool)


class TestCanonicalEncoding:
    def test_top_level_order_is_fixed(self):
        data = canonical_encode(sample_manifest())
        obj = json.loads(data)
        assert list(obj) == ["user_fields", "model_fields", "timestamp", "tool_id"]
        assert list(obj["user_fields"]) == sorted(obj["user_fields"])
        assert list(obj["model_fields"]) == sorted(obj["model_fields"])

    def test_encoding_is_compact(self):
        data = canonical_encode(sample_manifest())
        assert b": " not in data and b", " not in data

    def test_unicode_not_escaped(self):
        m = sample_manifest(user_fields={"query": "søk på norsk"})
        assert "søk på norsk".encode("utf-8") in canonical_encode(m)

    @settings(max_examples=200)
    @given(_manifests)
    def test_round_trip(self, m):
        assert canonical_decode(canonical_encode(m)) == m

    @settings(max_examples=200)
    @given(_manifests)
    def test_encoding_is_deterministic(self, m):
        clone = Manifest(
            dict(reversed(list(m.user_fields.items()))),
            dict(reversed(list(m.model_fields.items()))),
            m.timestamp,
            m.tool_id,
        )
        assert canonical_encode(m) == canonical_encode(clone)

    def test_decode_rejects_non_canonical_bytes(self):
        data = canonical_encode(sample_manifest())
        spaced = data.replace(b":", b": ", 1)
        with pytest.raises(EncodingError):
            canonical_decode(spaced)
        reordered = json.dumps(
            {k: json.loads(data)[k] for k in ("tool_id", "timestamp", "model_fields", "user_fields")},
            separators=(",", ":"),
        ).encode()
        with pytest.raises(EncodingError):
            canonical_decode(reordered)

    def test_parse_manifest_is_lenient(self):
        obj = manifest_to_dict(sample_manifest())
        text = json.dumps(obj, indent=2, sort_keys=True)
        assert parse_manifest(text) == sample_manifest()

    def test_parse_manifest_rejects_garbage(self):
        with pytest.raises(EncodingError):
            parse_manifest("{not json")
        with pytest.raises(EncodingError):
            parse_manifest(json.dumps({"user_fields": {}}))
        with pytest.raises(EncodingError):
            parse_manifest(json.dumps([1, 2, 3]))

    def test_dict_round_trip_rejects_extra_keys(self):
        obj = manifest_to_dict(sample_manifest())
        obj["extra"] = 1
        with pytest.raises(EncodingError):
            manifest_from_dict(obj)


class TestDigest:
    def test_digest_is_stable(self):
        assert digest(sample_manifest()) == digest(sample_manifest())

    def test_any_field_change_moves_the_digest(self):
        base = digest(sample_manifest()).value
        variants = [
            sample_manifest(user_fields={"query": "weather in oslo", "units": "imperial"}),
            sample_manifest(model_fields={"system_prompt": "be concise", "temperature": 0.3}),
            sample_manifest(timestamp=1_755_000_000_001),
            sample_manifest(tool_id="search-v3"),
        ]
        seen = {base}
        for m in variants:
            d = digest(m).value
            assert d not in seen
            seen.add(d)

    @settings(max_examples=100)
    @given(_manifests, st.data())
    def test_single_byte_flip_changes_digest(self, m, data):
        encoded = bytearray(canonical_encode(m))
        pos = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        encoded[pos] ^= 0x01
        import hashlib

        assert hashlib.sha256(bytes(encoded)).digest() != digest(m).value

    def test_digest_hex_round_trip(self):
        d = digest(sample_manifest())
        assert ManifestDigest.from_hex(d.hex) == d
        with pytest.raises(EncodingError):
            ManifestDigest.from_hex("zz")
        with pytest.raises(EncodingError):
            ManifestDigest(b"short")


class TestRedaction:
    def test_user_view_drops_model_fields(self):
        view = redact_for_user(sample_manifest())
        assert "system_prompt" not in view.user_fields
        assert view.user_fields == dict(sample_manifest().user_fields)
        assert view.timestamp == sample_manifest().timestamp

    @settings(max_examples=150)
    @given(_manifests)
    def test_serialized_view_never_leaks_model_values(self, m):
        secret = "sentinel-9f1c"
        fields = dict(m.model_fields)
        fields["m_secret"] = secret
        loaded = Manifest(m.user_fields, fields, m.timestamp, m.tool_id)
        encoded = redact_for_user(loaded).encode().decode("utf-8")
        assert secret not in encoded
        assert "m_secret" not in encoded


class TestEntropy:
    def test_hand_values(self):
        assert byte_entropy_bits(b"aabb") == pytest.approx(1.0)
        assert byte_entropy_bits(b"\x07" * 100) == 0.0
        assert byte_entropy_bits(bytes(range(256))) == pytest.approx(MAX_ENTROPY_BITS)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyEncoding):
            byte_entropy_bits(b"")

    def test_quarter_split(self):
        # four symbols at equal frequency carry exactly 2 bits each
        assert byte_entropy_bits(b"abcdabcd") == pytest.approx(2.0)

    @settings(max_examples=100)
    @given(st.binary(min_size=1, max_size=512))
    def test_entropy_bounds(self, blob):
        h = byte_entropy_bits(blob)
        assert 0.0 <= h <= MAX_ENTROPY_BITS
        distinct = len(set(blob))
        assert h <= math.log2(distinct) + 1e-9 if distinct > 1 else h == 0.0

    def test_encoding_stats(self):
        m = sample_manifest()
        stats = encoding_stats(m)
        data = canonical_encode(m)
        assert stats.size_bytes == len(data)
        assert stats.entropy_bits == pytest.approx(byte_entropy_bits(data))
        assert stats.redundancy == pytest.approx(1.0 - stats.entropy_bits / MAX_ENTROPY_BITS)
        assert 0.0 <= stats.redundancy <= 1.0
