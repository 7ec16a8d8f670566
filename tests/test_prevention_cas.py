"""Property suite for the tiered CAS verification cache.

The load-bearing contract: for any sequence of lookup/store/save/
reopen operations, the tiered store (memory LRU -> one persistent
tier: local buckets, or a shared remote) is *observably identical* to
the flat-era single-file JSON cache — byte-identical verdicts on every
lookup and identical hit/miss/invalidation/store accounting — because
the first tier that knows a label decides the outcome with flat
semantics.
Hypothesis drives arbitrary label/fingerprint/verdict sequences
against a reference model implementing the flat cache's exact
behavior (including its persistence quirks: unsaved stores are lost
on reopen, unsaved invalidations resurrect).

Eviction has its own guarantee: compaction never drops below the size
bound's reachability promise — after any eviction pass the bound's
worth of most-recently-used entries still hit.
"""

import json
import shutil
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.prevention import bucket_prefix
from repro.prevention.cas.store import MAX_RECORDS, BucketStore
from repro.prevention.cas.tiers import TieredVerdictStore
from tests.verdict_store import open_store

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
    tiered = open_store(tmp_path / "local", **kwargs)
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
            tiered = open_store(tmp_path / "local", **kwargs)
            flat = flat.reopen()
        stats = tiered.stats_dict()
        for key, value in flat.stats.items():
            assert stats[key] == value, \
                (op, key, stats[key], flat.stats)
    # Final reachability agrees too (reopen to drop unsaved state).
    tiered.save()
    flat.save()
    assert set(open_store(tmp_path / "local", **kwargs)
               .reachable_labels()) == set(flat.reopen().entries)


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


def _same_bucket_labels(count, like="old"):
    """*count* labels sharing one bucket with *like* (included)."""
    labels = [like] + [f"{like}-{index}" for index in range(100000)
                       if bucket_prefix(f"{like}-{index}")
                       == bucket_prefix(like)]
    return labels[:count]


def _entry(fp, stamp=0, **verdict):
    return {"fingerprint": fp, "verdict": verdict, "stored_at": stamp,
            "writer_id": "t"}


class TestRecordFormat:
    """Buckets are bounded logs of ``{"entries": ...}`` records."""

    def test_flush_to_an_existing_bucket_appends_its_changes(self,
                                                            tmp_path):
        store = BucketStore(tmp_path)
        first, second = _same_bucket_labels(2)
        path = tmp_path / "buckets" / f"{bucket_prefix(first)}.json"
        store.put_many({first: _entry("fp1", n=1),
                        second: _entry("fp1", n=1)})
        store.put_many({first: _entry("fp2", n=2)})
        store.delete(second, observed_stamp=10 ** 9)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        records = [json.loads(line) for line in raw.splitlines()]
        assert [sorted(record["entries"]) for record in records] == [
            sorted([first, second]), [first], [second]]
        assert records[2] == {"entries": {second: None}}
        assert store.get(first)["verdict"] == {"n": 2}
        assert store.get(second) is None
        assert store.labels() == [first]

    def test_single_document_bucket_still_reads(self, tmp_path):
        """A bucket written before the record format: one document, no
        trailing newline.  It reads, and the next flush rewrites it as
        a one-record log."""
        store = BucketStore(tmp_path)
        path = tmp_path / "buckets" / f"{bucket_prefix('old')}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(
            {"entries": {"old": _entry("fp-old", 7, ok=True)}},
            sort_keys=True, separators=(",", ":")))
        assert store.get("old")["verdict"] == {"ok": True}
        assert store.labels() == ["old"]
        assert store.stats.corrupt_loads == 0
        other = _same_bucket_labels(2)[1]
        store.put_many({other: _entry("fp-new")})
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert set(json.loads(raw)["entries"]) == {"old", other}
        assert store.get("old")["stored_at"] == 7
        assert store.get(other)["stored_at"] == 8

    def test_thousand_saves_of_one_label_stay_within_the_bound(
            self, tmp_path):
        cache = TieredVerdictStore(local=BucketStore(tmp_path))
        path = tmp_path / "buckets" / f"{bucket_prefix('hot')}.json"
        longest = 0
        for index in range(1000):
            cache.store("hot", f"fp{index}", {"i": index})
            assert cache.save()
            longest = max(longest, path.read_bytes().count(b"\n"))
        assert longest == MAX_RECORDS
        assert BucketStore(tmp_path).get("hot")["verdict"] == {"i": 999}


class TestDirectories:
    """Bucket and lock directories appear on demand."""

    @staticmethod
    def counted_mkdirs(monkeypatch):
        calls = []
        mkdir = Path.mkdir

        def counting_mkdir(path, *args, **kwargs):
            calls.append(path)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        return calls

    def test_warm_store_saves_without_mkdir(self, tmp_path, monkeypatch):
        cache = open_store(tmp_path / "local",
                           shared=tmp_path / "shared")
        cache.store("first", "fp1", {"satisfied": True})
        cache.save()
        calls = self.counted_mkdirs(monkeypatch)
        for index in range(8):
            cache.store(f"next-{index}", f"fp{index}", {"satisfied": False})
        cache.save()
        assert calls == []
        assert not (tmp_path / "local").exists()
        assert len(BucketStore(tmp_path / "shared" / "cas")) == 9

    def test_store_saves_after_its_root_was_removed(self, tmp_path):
        root = tmp_path / "store"
        store = BucketStore(root)
        store.put_many({"first": {"fingerprint": "fp1", "verdict": {},
                                  "stored_at": 0, "writer_id": "t"}})
        shutil.rmtree(root)
        flushed = store.put_many({"second": {
            "fingerprint": "fp2", "verdict": {}, "stored_at": 0,
            "writer_id": "t"}})
        assert flushed == {"second"}
        assert store.labels() == ["second"]
        assert (root / "locks" / "buckets.lock").exists()


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
        cache = open_store(tmp_path, memory_entries=2)
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
        writer = open_store(tmp_path / "a", shared=tmp_path / "s",
                            writer_id="ci-writer-1")
        writer.store("lab", "fp", {"satisfied": True})
        writer.save()
        reader = open_store(tmp_path / "b", shared=tmp_path / "s",
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

    def test_remote_hit_leaves_the_local_tier_untouched(self, tmp_path):
        writer = open_store(tmp_path / "a", shared=tmp_path / "s")
        writer.store("lab", "fp", {"satisfied": True})
        writer.save()
        reader = open_store(tmp_path / "b", shared=tmp_path / "s")
        reader.lookup("lab", "fp")
        reader.save()
        # No write-back: a later lifetime without the remote misses.
        local_only = open_store(tmp_path / "b")
        assert local_only.lookup("lab", "fp") is None
        assert local_only.stats_dict()["local_hits"] == 0
        assert not (tmp_path / "b").exists()


class TestFleetWriters:
    def test_thread_runs_report_distinct_writer_ids(self, tmp_path):
        """Each thread-mode run writes as itself, and its hits name the
        seeding run that stored them."""
        from repro.prevention import simulate_fleet

        report = simulate_fleet(runs=3, workdir=tmp_path)
        assert report.cold.stats["provenance"]["writer_id"] == "seed"
        assert [run.run_id for run in report.runs] == \
            ["run0", "run1", "run2"]
        for run in report.runs:
            provenance = run.stats["provenance"]
            assert provenance["writer_id"] == run.run_id
            assert provenance["last_hit"]["tier"] == "remote"
            assert provenance["last_hit"]["writer_id"] == "seed"


class TestOneTier:
    """Memory stacks over exactly one persistent tier: the remote when
    there is one, else the local."""

    def test_local_root_stays_absent_beside_a_remote(self, tmp_path):
        def open_beside(writer_id):
            return TieredVerdictStore(
                local=BucketStore(tmp_path / "local", tier="local"),
                remote=BucketStore(tmp_path / "remote", tier="remote"),
                writer_id=writer_id)

        first = open_beside("first")
        assert first.tier_names() == ["memory", "remote"]
        for label in ("kept", "moved", "dropped"):
            first.store(label, "fp-one", {"label": label})
        assert first.save()
        second = open_beside("second")
        assert second.lookup("kept", "fp-one") == {"label": "kept"}
        assert second.lookup("moved", "fp-two") is None
        assert second.lookup("fresh", "fp-one") is None
        second.store("fresh", "fp-one", {"label": "fresh"})
        second.store("dropped", "fp-one", {"label": "dropped"})
        assert second.lookup("dropped", "fp-two") is None
        assert second.save()
        stats = second.stats_dict()
        assert (stats["remote_hits"], stats["local_hits"]) == (1, 0)
        assert stats["invalidations"] == 2
        assert second.reachable_labels() == ["fresh", "kept"]
        assert not (tmp_path / "local").exists()

    def test_local_only_store_persists_across_reopen(self, tmp_path):
        store = TieredVerdictStore(local=BucketStore(tmp_path))
        assert store.tier_names() == ["memory", "local"]
        store.store("lab", "fp", {"satisfied": True})
        assert store.save()
        reopened = TieredVerdictStore(local=BucketStore(tmp_path))
        assert reopened.lookup("lab", "fp") == {"satisfied": True}
        assert reopened.stats_dict()["local_hits"] == 1
        assert reopened.last_hit["tier"] == "local"


class TestPendingStoreInvalidation:
    """An invalidated store that is still pending must not let the
    older on-disk entry come back after save and reopen."""

    def _resurrection_sequence(self, tmp_path, **kwargs):
        cache = open_store(tmp_path / "local", **kwargs)
        cache.store("alpha", "fp-one", verdict_for("alpha", "fp-one", 1))
        cache.store("delta", "fp-one", verdict_for("delta", "fp-one", 2))
        cache.save()
        # The reopened process stamps its store from a fresh clock,
        # below the stamp the local tier holds for "delta".
        cache = open_store(tmp_path / "local", **kwargs)
        cache.store("delta", "fp-one", verdict_for("delta", "fp-one", 3))
        assert cache.lookup("delta", "fp-two") is None
        assert cache.stats_dict()["invalidations"] == 1
        cache.save()
        return open_store(tmp_path / "local", **kwargs)

    def test_invalidated_pending_store_stays_deleted(self, tmp_path):
        reopened = self._resurrection_sequence(tmp_path)
        assert reopened.reachable_labels() == ["alpha"]
        assert reopened.lookup("delta", "fp-one") is None
        assert reopened.lookup("alpha", "fp-one") \
            == verdict_for("alpha", "fp-one", 1)

    def test_invalidated_pending_store_stays_deleted_remotely(self,
                                                              tmp_path):
        reopened = self._resurrection_sequence(
            tmp_path, shared=tmp_path / "remote")
        assert reopened.lookup("delta", "fp-one") is None
        assert "delta" not in BucketStore(tmp_path / "remote").labels()


class TestGateReads:
    """The gate's store work scales with its own tasks, not the store."""

    def test_warm_evaluate_reads_two_documents_per_task(self, tmp_path,
                                                        monkeypatch):
        from repro.core.gates import VerificationGate
        from repro.core.pipeline import PipelineContext
        from repro.prevention import bundled_verification_tasks

        tasks = bundled_verification_tasks()
        shared = tmp_path / "shared"
        # Other fleet members' verdicts crowd the shared tier.
        crowd = open_store(tmp_path / "crowd", shared=shared)
        for index in range(40):
            crowd.store(f"other-{index}", "fp", {"satisfied": True})
        crowd.save()
        VerificationGate(cache=open_store(
            tmp_path / "cold", shared=shared)).evaluate(
            PipelineContext(verification_tasks=tasks))

        reads = []
        saving = [False]
        load = BucketStore._load
        save = TieredVerdictStore.save

        def counting_load(store, prefix, label=None):
            if not saving[0]:
                reads.append((store.tier, prefix))
            return load(store, prefix, label)

        def flagged_save(store):
            saving[0] = True
            try:
                return save(store)
            finally:
                saving[0] = False

        monkeypatch.setattr(BucketStore, "_load", counting_load)
        monkeypatch.setattr(TieredVerdictStore, "save", flagged_save)
        cache = open_store(tmp_path / "warm", shared=shared)
        result = VerificationGate(cache=cache).evaluate(
            PipelineContext(verification_tasks=tasks))
        assert result.passed
        assert cache.stats_dict()["remote_hits"] == len(tasks)
        # One local miss and one remote hit per task, nothing more.
        assert len(reads) <= 2 * len(tasks)
