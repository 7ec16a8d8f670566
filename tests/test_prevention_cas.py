"""Property suite for the tiered CAS verification cache.

The load-bearing contract: for any sequence of lookup/store/save/
reopen operations, the tiered store (memory LRU -> local buckets ->
optional shared remote) is *observably identical* to the flat-era
single-file JSON cache — byte-identical verdicts on every lookup and
identical hit/miss/invalidation/store accounting — because the first
tier that knows a label decides the outcome with flat semantics.
Hypothesis drives arbitrary label/fingerprint/verdict sequences
against a reference model implementing the flat cache's exact
behavior (including its persistence quirks: unsaved stores are lost
on reopen, unsaved invalidations resurrect).

Eviction has its own guarantee: compaction never drops below the size
bound's reachability promise — after any eviction pass the bound's
worth of most-recently-used entries still hit.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.prevention import VerificationCache, bucket_prefix
from repro.prevention.cas.store import BucketStore

LABELS = ["alpha", "beta", "gamma", "delta", "epsilon"]
FINGERPRINTS = ["fp-one", "fp-two", "fp-three"]


class FlatReferenceCache:
    """The flat-era cache's exact observable semantics, as a model.

    Mirrors the single-JSON-file implementation this repo shipped
    before the CAS promotion: one entry per label, invalidation on a
    moved fingerprint, persistence only on save, per-lifetime stats.
    """

    def __init__(self, persisted=None):
        self.entries = dict(persisted or {})
        self.persisted = dict(persisted or {})
        self.stats = {"hits": 0, "misses": 0, "invalidations": 0,
                      "stores": 0}

    def lookup(self, label, fp):
        entry = self.entries.get(label)
        if entry is None:
            self.stats["misses"] += 1
            return None
        if entry["fingerprint"] != fp:
            del self.entries[label]
            self.stats["invalidations"] += 1
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return entry["verdict"]

    def store(self, label, fp, verdict):
        self.entries[label] = {"fingerprint": fp, "verdict": verdict}
        self.stats["stores"] += 1

    def save(self):
        self.persisted = {label: dict(entry)
                          for label, entry in self.entries.items()}

    def reopen(self):
        return FlatReferenceCache(self.persisted)


def verdict_for(label, fp, salt):
    """A deterministic, structured verdict payload."""
    return {"satisfied": salt % 2 == 0, "query": f"E<> {label}.{fp}",
            "states_explored": salt, "witness": [label, fp]}


operations = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.sampled_from(LABELS),
                  st.sampled_from(FINGERPRINTS)),
        st.tuples(st.just("store"), st.sampled_from(LABELS),
                  st.sampled_from(FINGERPRINTS),
                  st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("save")),
        st.tuples(st.just("reopen")),
    ),
    min_size=1, max_size=40,
)


def run_equivalence(ops, tmp_path, shared):
    """Drive both implementations through *ops*, comparing at each
    observable point."""
    kwargs = {"shared": tmp_path / "remote"} if shared else {}
    tiered = VerificationCache(tmp_path / "local", **kwargs)
    flat = FlatReferenceCache()
    for op in ops:
        if op[0] == "lookup":
            _, label, fp = op
            got = tiered.lookup(label, fp)
            want = flat.lookup(label, fp)
            assert (got is None) == (want is None), (op, got, want)
            if got is not None:
                assert json.dumps(got, sort_keys=True) == \
                    json.dumps(want, sort_keys=True), op
        elif op[0] == "store":
            _, label, fp, salt = op
            verdict = verdict_for(label, fp, salt)
            tiered.store(label, fp, verdict)
            flat.store(label, fp, verdict)
        elif op[0] == "save":
            tiered.save()
            flat.save()
        else:  # reopen: unsaved state is lost in both worlds
            tiered = VerificationCache(tmp_path / "local", **kwargs)
            flat = flat.reopen()
        stats = tiered.stats_dict()
        for key, value in flat.stats.items():
            assert stats[key] == value, \
                (op, key, stats[key], flat.stats)
    # Final reachability agrees too (reopen to drop unsaved state).
    tiered.save()
    flat.save()
    assert set(VerificationCache(tmp_path / "local", **kwargs).labels()) \
        == set(flat.reopen().entries)


class TestFlatEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=operations)
    def test_local_tier_stack_matches_flat_cache(self, ops, tmp_path):
        run = len(list(tmp_path.iterdir())) if tmp_path.exists() else 0
        root = tmp_path / f"case-{run}-{abs(hash(tuple(ops))) % 10 ** 8}"
        root.mkdir(parents=True)
        run_equivalence(ops, root, shared=False)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=operations)
    def test_shared_tier_stack_matches_flat_cache(self, ops, tmp_path):
        run = len(list(tmp_path.iterdir())) if tmp_path.exists() else 0
        root = tmp_path / f"case-{run}-{abs(hash(tuple(ops))) % 10 ** 8}"
        root.mkdir(parents=True)
        run_equivalence(ops, root, shared=True)


class TestSharding:
    def test_bucket_prefix_is_stable_and_bounded(self):
        for label in LABELS:
            prefix = bucket_prefix(label)
            assert prefix == bucket_prefix(label)
            assert len(prefix) == 2
            assert all(c in "0123456789abcdef" for c in prefix)

    def test_entries_shard_across_bucket_files(self, tmp_path):
        store = BucketStore(tmp_path)
        entries = {f"label-{i}": {"fingerprint": f"fp{i}",
                                  "verdict": {"i": i}, "stored_at": 0,
                                  "writer_id": "t"}
                   for i in range(64)}
        store.put_many(entries)
        files = list((tmp_path / "buckets").glob("*.json"))
        assert len(files) > 1              # sharded, not one global file
        assert len(store) == 64
        for label in entries:
            assert store.get(label)["verdict"] == entries[label]["verdict"]


class TestEvictionReachability:
    def test_compaction_never_drops_below_the_bound(self, tmp_path):
        """After eviction, the `max_entries` most recently used labels
        are all still reachable, and the store fits the bound."""
        bound = 8
        store = BucketStore(tmp_path, max_entries=bound)
        for index in range(30):
            store.put_many({f"label-{index}": {
                "fingerprint": f"fp{index}", "verdict": {"i": index},
                "stored_at": index + 1, "writer_id": "t"}})
        evicted = store.compact()
        assert evicted == 30 - bound
        assert len(store) == bound
        survivors = {f"label-{index}" for index in range(30 - bound, 30)}
        assert set(store.labels()) == survivors

    def test_recency_outranks_store_order(self, tmp_path):
        """An old entry the process kept hitting survives compaction
        ahead of never-read newer ones."""
        bound = 4
        store = BucketStore(tmp_path, max_entries=bound)
        for index in range(10):
            store.put_many({f"label-{index}": {
                "fingerprint": f"fp{index}", "verdict": {"i": index},
                "stored_at": index + 1, "writer_id": "t"}})
        store.compact(recency={"label-0": 10 ** 9})
        assert "label-0" in store.labels()
        assert len(store) == bound

    def test_memory_lru_eviction_falls_through_to_local(self, tmp_path):
        """A memory-tier eviction is invisible: the local tier still
        answers, so the hit accounting only moves between tiers."""
        cache = VerificationCache(tmp_path, memory_entries=2)
        for index in range(6):
            cache.store(f"label-{index}", f"fp{index}", {"i": index})
        cache.save()
        for index in range(6):
            got = cache.lookup(f"label-{index}", f"fp{index}")
            assert got == {"i": index}
        stats = cache.stats_dict()
        assert stats["hits"] == 6
        assert stats["misses"] == 0
        assert stats["local_hits"] >= 4    # evicted from memory, not lost


class TestProvenance:
    def test_hits_carry_tier_writer_and_stamp(self, tmp_path):
        writer = VerificationCache(tmp_path / "a", shared=tmp_path / "s",
                                   writer_id="ci-writer-1")
        writer.store("lab", "fp", {"satisfied": True})
        writer.save()
        reader = VerificationCache(tmp_path / "b", shared=tmp_path / "s",
                                   writer_id="ci-reader-2")
        assert reader.lookup("lab", "fp") == {"satisfied": True}
        provenance = reader.provenance_dict()
        assert provenance["tier_hits"]["remote"] == 1
        assert provenance["last_hit"]["tier"] == "remote"
        assert provenance["last_hit"]["writer_id"] == "ci-writer-1"
        assert provenance["last_hit"]["stored_at"] >= 1
        # Second lookup answers from memory; provenance follows.
        reader.lookup("lab", "fp")
        assert reader.provenance_dict()["last_hit"]["tier"] == "memory"

    def test_remote_hit_writes_back_to_local_tier(self, tmp_path):
        writer = VerificationCache(tmp_path / "a", shared=tmp_path / "s")
        writer.store("lab", "fp", {"satisfied": True})
        writer.save()
        reader = VerificationCache(tmp_path / "b", shared=tmp_path / "s")
        reader.lookup("lab", "fp")
        reader.save()
        # A later lifetime without the remote still hits locally.
        local_only = VerificationCache(tmp_path / "b")
        assert local_only.lookup("lab", "fp") == {"satisfied": True}
        assert local_only.stats_dict()["local_hits"] == 1


class TestPendingStoreInvalidation:
    """An invalidated store that is still pending must not let the
    older on-disk entry come back after save and reopen."""

    def _resurrection_sequence(self, tmp_path, **kwargs):
        cache = VerificationCache(tmp_path / "local", **kwargs)
        cache.store("alpha", "fp-one", verdict_for("alpha", "fp-one", 1))
        cache.store("delta", "fp-one", verdict_for("delta", "fp-one", 2))
        cache.save()
        # The reopened process stamps its store from a fresh clock,
        # below the stamp the local tier holds for "delta".
        cache = VerificationCache(tmp_path / "local", **kwargs)
        cache.store("delta", "fp-one", verdict_for("delta", "fp-one", 3))
        assert cache.lookup("delta", "fp-two") is None
        assert cache.stats_dict()["invalidations"] == 1
        cache.save()
        return VerificationCache(tmp_path / "local", **kwargs)

    def test_invalidated_pending_store_stays_deleted(self, tmp_path):
        reopened = self._resurrection_sequence(tmp_path)
        assert reopened.labels() == ["alpha"]
        assert reopened.lookup("delta", "fp-one") is None
        assert reopened.lookup("alpha", "fp-one") \
            == verdict_for("alpha", "fp-one", 1)

    def test_invalidated_pending_store_stays_deleted_remotely(self,
                                                              tmp_path):
        reopened = self._resurrection_sequence(
            tmp_path, shared=tmp_path / "remote")
        assert reopened.lookup("delta", "fp-one") is None
        assert "delta" not in BucketStore(tmp_path / "remote").labels()
