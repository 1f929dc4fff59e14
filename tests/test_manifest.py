"""Canonical encoding and digest tests."""

import copy
import hashlib
import json
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifestd.errors import DisjointnessViolation, EncodingError
from manifestd.manifest import (
    Manifest,
    ManifestDigest,
    canonical_encode,
    digest,
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

    @pytest.mark.parametrize(
        "user, model, tool, named",
        [
            ({"q\ud800": "x"}, {}, "t", "user_fields key 'q\\ud800'"),
            ({}, {"k": "a\udfffb"}, "t", "model_fields['k']"),
            ({"q": "x"}, {}, "tool-\udc00", "tool_id"),
        ],
        ids=["key", "value", "tool-id"],
    )
    def test_lone_surrogate_error_names_the_field(self, user, model, tool, named):
        with pytest.raises(EncodingError) as err:
            Manifest(user, model, 5, tool)
        assert str(err.value) == f"{named} cannot be encoded as UTF-8: surrogates not allowed"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter has no int-to-str digit limit",
    )
    def test_unencodable_int_is_refused_at_construction(self):
        # past the interpreter's int-to-str digit limit: no canonical encoding
        with pytest.raises(EncodingError, match="no canonical encoding"):
            Manifest({"n": 10 ** (sys.get_int_max_str_digits() + 1)}, {}, 5, "t")

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
        # hashing agrees with equality
        if m1 == m2:
            assert hash(m1) == hash(m2) and len({m1, m2}) == 1

    def test_true_one_and_one_point_zero_are_distinct_set_members(self):
        forms = {Manifest({"x": v}, {}, 5, "t") for v in (True, 1, 1.0)}
        assert len(forms) == 3
        assert Manifest({"x": 1}, {}, 5, "t") in forms
        assert Manifest({"x": False}, {}, 5, "t") not in forms

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

    @pytest.mark.parametrize(
        "user, model, named",
        [
            ({"a": 1, 2: 3}, {}, "user_fields key 2"),
            ({None: 1, "a": 2}, {}, "user_fields key None"),
            ({}, {"b": "x", (1,): "y"}, "model_fields key (1,)"),
            ({"a": 1}, {3.5: 0, "z": 1}, "model_fields key 3.5"),
        ],
        ids=["user-int", "user-none", "model-tuple", "model-float"],
    )
    def test_mixed_key_types_name_the_key(self, user, model, named):
        # keys that cannot be sorted against a str are refused before sorting
        with pytest.raises(EncodingError) as err:
            Manifest(user, model, 1, "t")
        assert str(err.value) == f"{named} is not a string"

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
        assert parse_manifest(canonical_encode(m)) == m

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


#: Strings the reference encoder treats specially: escapes, controls, line
#: and paragraph separators, non-ASCII and astral characters.
_awkward_text = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", "\u2028", "a\u2029b", "\x00\x1f\x7f", "\"\\/", "\U0001f600\U0001d11e", "søk",
         "\ufeff"]
    ),
)
_awkward_scalar = st.one_of(
    _awkward_text,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, True, False]),
)
_awkward_manifests = st.builds(
    Manifest,
    user_fields=st.dictionaries(_awkward_text.map("u".__add__), _awkward_scalar, max_size=5),
    model_fields=st.dictionaries(_awkward_text.map("m".__add__), _awkward_scalar, max_size=5),
    timestamp=st.integers(min_value=0, max_value=2**64),
    tool_id=_awkward_text.filter(bool),
)


def reference_encode(m):
    """The canonical encoding as a fresh ``json.dumps`` of the plain-dict form."""
    return json.dumps(
        manifest_to_dict(m), separators=(",", ":"), ensure_ascii=False, allow_nan=False
    ).encode("utf-8")


class TestEncodedOnce:
    @settings(max_examples=400)
    @given(_awkward_manifests)
    def test_stored_encoding_matches_the_reference(self, m):
        assert canonical_encode(m) == reference_encode(m)
        assert digest(m).value == hashlib.sha256(reference_encode(m)).digest()

    @settings(max_examples=200)
    @given(_awkward_manifests)
    def test_pickle_and_deepcopy_rebuild_an_equal_manifest(self, m):
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert copied == m
            assert digest(copied) == digest(m)
            assert canonical_encode(copied) == canonical_encode(m)
            assert dict(copied.user_fields) == dict(m.user_fields)
            with pytest.raises(TypeError):
                copied.user_fields["injected"] = 1

    def test_stored_encoding_is_not_a_field(self):
        m = sample_manifest()
        assert "encoded" not in repr(m)
        with pytest.raises(TypeError):
            Manifest(m.user_fields, m.model_fields, m.timestamp, m.tool_id, b"{}")

    def test_golden_digests_of_a_generated_batch(self):
        # SHA-256 over the digests of every well-formed manifest of one seeded
        # harness batch; the value was computed before the encoding moved to
        # construction and pins the digests byte for byte.
        from manifestd.harness import WorkloadConfig, _Streams, generate_batch

        cfg = WorkloadConfig(sizes=(2000,), seed=7)
        batch = generate_batch(cfg, 2000, _Streams(cfg.seed, 2000).fresh()["gen"])
        chained = hashlib.sha256()
        built = 0
        for request in batch:
            try:
                m = request.manifest()
            except EncodingError:
                continue
            chained.update(digest(m).value)
            built += 1
        assert built == 1950
        assert chained.hexdigest() == (
            "eb010056dbffe9a53c10af03e903bb0a318713c839022e207635a148480ab223"
        )


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
        assert ManifestDigest(bytes.fromhex(d.hex)) == d
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
