"""Property tests for the canonical Requirement IR.

The IR's load-bearing promises: adapter-lowered records serialize and
deserialize byte-identically, fingerprints are a pure function of
content (dict insertion order and process identity never leak in), the
content fingerprint ignores exactly id + provenance, and the registry
lint rejects provenance-free records at the adapter boundary.
"""

import json
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.reqs.ir import (
    Formalization,
    IrError,
    Provenance,
    Requirement,
    SEVERITIES,
    TARGET_KINDS,
    _digest,
    dedupe,
)
from repro.reqs.registry import (
    AdapterContractError,
    ProvenanceError,
    default_registry,
    lint_requirements,
)
from repro.reqs.schema import IR_SCHEMA, schema_drift, validate_record
from repro.specpatterns.patterns import TimedResponse, Universality
from repro.specpatterns.scopes import Globally


def golden_requirement() -> Requirement:
    return Requirement(
        rid="GOLD-001",
        title="Golden requirement",
        text="The system shall remain compliant continuously.",
        source="rqcode",
        provenance=(Provenance("stig", "V-000001", "golden fixture"),),
        target_kind="host",
        severity="high",
        formalization=Formalization.from_objects(
            Universality(p="compliant_golden"), Globally(),
            ltl="G (compliant_golden)", tctl="A[] compliant_golden"),
        tags=("fixture",),
        bindings=("V-000001",),
    )


def shuffled_payload(payload, rng):
    """The same payload with every dict's insertion order permuted."""
    if isinstance(payload, dict):
        keys = list(payload)
        rng.shuffle(keys)
        return {key: shuffled_payload(payload[key], rng) for key in keys}
    if isinstance(payload, list):
        return [shuffled_payload(item, rng) for item in payload]
    return payload


class TestRoundTrip:
    """Lower -> serialize -> deserialize -> serialize is the identity."""

    def test_every_bundled_record_round_trips_byte_identically(self):
        corpora = default_registry().lower_all_bundled()
        assert sorted(corpora) == [
            "capec", "cwe", "nalabs", "resa", "rqcode", "standards",
            "vulndb"]
        for irs in corpora.values():
            assert irs, "bundled corpus must not be empty"
            for record in irs:
                wire = record.canonical_json()
                restored = Requirement.from_dict(json.loads(wire))
                assert restored.canonical_json() == wire
                assert restored == record
                assert restored.fingerprint() == record.fingerprint()

    def test_round_trip_through_to_dict(self):
        record = golden_requirement()
        assert Requirement.from_dict(record.to_dict()) == record

    def test_formalization_objects_round_trip(self):
        pattern = TimedResponse(p="a", s="b", bound=60)
        formalization = Formalization.from_objects(pattern, Globally())
        raised_pattern, raised_scope = formalization.to_objects()
        assert raised_pattern == pattern
        assert raised_scope == Globally()


class TestFingerprintStability:
    # Recorded once; a change here means previously cached verdicts
    # and persisted fingerprints silently stop matching across runs.
    GOLDEN_FULL = "3e4791a0d0a719c119c1b44c82434480"
    GOLDEN_CONTENT = "605c3549bef7c3bacbc95f69d38c37f7"

    def test_fingerprint_survives_process_restarts(self):
        record = golden_requirement()
        assert record.fingerprint() == self.GOLDEN_FULL
        assert record.content_fingerprint() == self.GOLDEN_CONTENT

    def test_fingerprint_ignores_dict_insertion_order(self):
        rng = random.Random(7)
        for record in default_registry().lower_bundled("vulndb"):
            for _ in range(5):
                scrambled = Requirement.from_dict(
                    shuffled_payload(record.to_dict(), rng))
                assert scrambled.fingerprint() == record.fingerprint()

    def test_fingerprint_ignores_tuple_construction_route(self):
        record = golden_requirement()
        rebuilt = Requirement(
            rid=record.rid, title=record.title, text=record.text,
            source=record.source,
            provenance=list(record.provenance),     # list, not tuple
            target_kind=record.target_kind, severity=record.severity,
            formalization=record.formalization,
            tags=list(record.tags), bindings=list(record.bindings))
        assert rebuilt.fingerprint() == record.fingerprint()

    def test_content_changes_change_the_fingerprint(self):
        record = golden_requirement()
        for mutation in (
            {"text": "The system shall do something else."},
            {"severity": "low"},
            {"bindings": ("V-999999",)},
            {"tags": ("other",)},
        ):
            payload = record.to_dict()
            payload.update(mutation)
            assert Requirement.from_dict(payload).fingerprint() \
                != record.fingerprint()


class TestContentFingerprint:
    def test_excludes_rid_and_provenance_only(self):
        record = golden_requirement()
        payload = record.to_dict()
        payload["rid"] = "OTHER-999"
        payload["provenance"] = [
            {"kind": "cve", "ref": "CVE-2014-0160", "detail": "same req"}]
        twin = Requirement.from_dict(payload)
        assert twin.fingerprint() != record.fingerprint()
        assert twin.content_fingerprint() == record.content_fingerprint()

    def test_normative_differences_separate(self):
        record = golden_requirement()
        payload = record.to_dict()
        payload["text"] = "A different obligation."
        assert Requirement.from_dict(payload).content_fingerprint() \
            != record.content_fingerprint()

    def test_dedupe_is_order_preserving_and_cross_source(self):
        record = golden_requirement()
        payload = record.to_dict()
        payload["rid"] = "DUP-001"
        payload["provenance"] = [{"kind": "cve", "ref": "CVE-1", "detail": ""}]
        twin = Requirement.from_dict(payload)
        other_payload = record.to_dict()
        other_payload["rid"] = "UNIQ-001"
        other_payload["text"] = "A genuinely different obligation."
        other = Requirement.from_dict(other_payload)
        assert dedupe([record, twin, other]) == [record, other]


class TestValidation:
    def test_empty_rid_rejected(self):
        with pytest.raises(IrError):
            Requirement(rid="", title="t", text="x", source="resa")

    def test_empty_text_rejected(self):
        with pytest.raises(IrError):
            Requirement(rid="R-1", title="t", text="", source="resa")

    def test_bad_severity_rejected(self):
        with pytest.raises(IrError):
            Requirement(rid="R-1", title="t", text="x", source="resa",
                        severity="catastrophic")

    def test_bad_target_kind_rejected(self):
        with pytest.raises(IrError):
            Requirement(rid="R-1", title="t", text="x", source="resa",
                        target_kind="cloud")

    def test_vocabularies_are_closed(self):
        assert SEVERITIES == ("low", "medium", "high", "critical")
        assert TARGET_KINDS == ("host", "monitor", "document", "system")


class TestProvenanceLint:
    def ok(self):
        return golden_requirement()

    def test_clean_records_pass_through(self):
        records = [self.ok()]
        assert lint_requirements(records) == records

    def test_empty_chain_rejected(self):
        bare = Requirement(rid="R-1", title="t", text="x", source="resa")
        with pytest.raises(ProvenanceError, match="empty provenance"):
            lint_requirements([bare], frontend="resa")

    def test_blank_link_rejected(self):
        record = Requirement(
            rid="R-1", title="t", text="x", source="resa",
            provenance=(Provenance("", "", ""),))
        with pytest.raises(ProvenanceError, match="lacks kind/ref"):
            lint_requirements([record])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(AdapterContractError, match="duplicate"):
            lint_requirements([self.ok(), self.ok()])


class TestSchema:
    def test_every_bundled_record_is_schema_valid(self):
        for irs in default_registry().lower_all_bundled().values():
            for record in irs:
                assert validate_record(record.to_dict()) == []

    def test_missing_required_key_reported(self):
        payload = golden_requirement().to_dict()
        del payload["provenance"]
        assert any("provenance" in error
                   for error in validate_record(payload))

    def test_wrong_type_reported(self):
        payload = golden_requirement().to_dict()
        payload["tags"] = "not-a-list"
        assert validate_record(payload)

    def test_enum_violation_reported(self):
        payload = golden_requirement().to_dict()
        payload["severity"] = "catastrophic"
        assert validate_record(payload)

    def test_checked_in_schema_matches_embedded(self):
        with open("schemas/requirement-ir.schema.json") as handle:
            checked_in = json.load(handle)
        assert not schema_drift(checked_in)
        assert checked_in == IR_SCHEMA


class TestProvenanceDigests:
    def test_one_digest_per_link_chained(self):
        ir = golden_requirement()
        digests = ir.provenance_digests()
        assert len(digests) == len(ir.provenance)
        assert len(set(digests)) == len(digests)
        assert all(len(digest) == 32 for digest in digests)
        assert ir.provenance_chain_digest() == digests[-1]

    def test_digest_commits_to_every_upstream_link(self):
        chain = (Provenance("stig", "V-1", "first"),
                 Provenance("cve", "CVE-2024-1", "second"))
        ir = replace(golden_requirement(), provenance=chain)
        reordered = replace(ir, provenance=tuple(reversed(chain)))
        assert (ir.provenance_chain_digest()
                != reordered.provenance_chain_digest())
        # The first link's digest is chain-position dependent too.
        assert (ir.provenance_digests()[0]
                != reordered.provenance_digests()[0])

    def test_empty_chain_digest_is_empty(self):
        bare = Requirement(rid="R-1", title="t", text="x", source="resa",
                           provenance=(Provenance("resa", "REQ-1"),))
        assert bare.provenance_digests()
        assert replace(bare, provenance=()).provenance_chain_digest() == ""

    def test_deterministic_across_instances(self):
        assert (golden_requirement().provenance_digests()
                == golden_requirement().provenance_digests())


class TestSchemaVersioning:
    def test_schema_id_carries_version(self):
        from repro.reqs.schema import SCHEMA_ID, SCHEMA_VERSION

        assert f".v{SCHEMA_VERSION}." in SCHEMA_ID
        assert IR_SCHEMA["$id"] == SCHEMA_ID

    def test_bare_record_still_valid(self):
        """Emitters of the v1 wire shape stay valid unchanged."""
        payload = golden_requirement().to_dict()
        assert "ir_version" not in payload      # emitters unchanged
        assert validate_record(payload) == []

    def test_future_version_refused(self, monkeypatch, capsys):
        """``python -m repro.reqs.schema`` fails a record stamped with a
        version newer than this build's schema."""
        import io
        import json

        from repro.reqs import schema

        payload = dict(golden_requirement().to_dict(),
                       ir_version=schema.SCHEMA_VERSION + 1)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps([payload])))
        assert schema.main([]) == 1
        assert "ir_version" in capsys.readouterr().err

    def test_wrong_version_stamp_fails_validation(self):
        from repro.reqs.schema import SCHEMA_VERSION

        payload = dict(golden_requirement().to_dict(), ir_version=999)
        assert validate_record(payload)
        assert validate_record(dict(payload,
                                    ir_version=SCHEMA_VERSION)) == []

    def test_version_stamp_does_not_change_fingerprints(self):
        """Journal-embedded fingerprints agree with bare emitters."""
        ir = golden_requirement()
        assert "ir_version" not in ir.to_dict()
        assert ir.fingerprint() == golden_requirement().fingerprint()


# -- the once-per-record fingerprint ------------------------------------------

_words = st.text(alphabet=st.characters(min_codepoint=32,
                                        max_codepoint=0x2FF),
                 min_size=1, max_size=12)
_params = st.dictionaries(st.sampled_from("pqrs"),
                          st.one_of(_words, st.integers(0, 99)),
                          max_size=3)
# Params travel only with a kind: ``to_dict`` drops a kind-less half.
_formalizations = st.one_of(
    st.builds(Formalization, pattern_kind=st.sampled_from(["Response"]),
              pattern_params=_params,
              scope_kind=st.sampled_from(["AfterQ"]), scope_params=_params,
              ltl=st.text(max_size=20), tctl=st.text(max_size=20)),
    st.builds(Formalization, ltl=st.text(max_size=20)))
_records = st.builds(
    Requirement, rid=_words, title=st.text(max_size=20), text=_words,
    source=_words,
    provenance=st.lists(st.builds(Provenance, kind=_words, ref=_words,
                                  detail=st.text(max_size=10)),
                        max_size=3),
    target_kind=st.sampled_from(TARGET_KINDS),
    severity=st.sampled_from(SEVERITIES),
    formalization=st.one_of(st.none(), _formalizations),
    tags=st.lists(_words, max_size=3), bindings=st.lists(_words, max_size=3))


class TestCachedFingerprint:
    """``fingerprint()`` digests each record once; the cached digest is
    the reference digest and is invisible to everything else."""

    def test_every_lowered_record_digests_its_canonical_json(self):
        for records in default_registry().lower_all_bundled().values():
            for record in records:
                digest = record.fingerprint()
                assert digest == _digest(record.canonical_json())
                assert record.fingerprint() == digest

    @settings(max_examples=60, deadline=None)
    @given(record=_records)
    def test_built_records_digest_their_canonical_json(self, record):
        assert record.fingerprint() == _digest(record.canonical_json())

    @settings(max_examples=40, deadline=None)
    @given(record=_records)
    def test_cache_leaves_equality_hash_dict_and_pickle_alone(self,
                                                              record):
        twin = Requirement.from_dict(record.to_dict())
        pickled = pickle.dumps(record)
        digest = record.fingerprint()
        assert record == twin and hash(record) == hash(twin)
        assert record.to_dict() == twin.to_dict()
        assert repr(record) == repr(twin)
        assert pickle.dumps(record) == pickled
        restored = pickle.loads(pickled)
        assert restored == record
        assert restored.fingerprint() == digest
        edited = replace(record, text=record.text + "!")
        assert edited.fingerprint() == _digest(edited.canonical_json())
        assert edited.fingerprint() != digest

    def test_commit_computes_no_digest(self, monkeypatch):
        from repro.reqs import ir
        from repro.reqs.stream import ReqStream

        armed = list(default_registry().lower_bundled("vulndb"))
        stream = ReqStream(armed[:-2])
        delta = stream.diff(
            [replace(armed[0], text=armed[0].text + " (revised)"),
             armed[1], armed[-1], golden_requirement()],
            remove_rids=[armed[2].rid])
        assert (len(delta.added), len(delta.changed), len(delta.removed),
                delta.unchanged) == (2, 1, 1, 1)
        calls = []
        digest = ir._digest

        def counting(payload):
            calls.append(payload)
            return digest(payload)

        monkeypatch.setattr(ir, "_digest", counting)
        stream.commit(delta)
        assert calls == []
        assert stream.diff(stream.armed()).unchanged == len(stream)
