"""Crash and chaos suite for the tiered CAS verification cache.

Three failure families, each with a recovery obligation:

* ``cache.lock_timeout`` — a bucket flush times out on its advisory
  lock.  The write must stay pending (nothing lost, nothing torn) and
  a later save must drain it, because the seam draws per *attempt*.
* ``cache.stale_read`` — the shared tier pretends an entry is absent.
  The cost is one redundant recompute, never a wrong verdict and
  never a phantom hit.
* A writer killed mid-compaction.  Survivors reopen the store, torn
  temp files are swept as debris, a corrupt bucket is counted
  (``corrupt_loads``) and re-verified rather than trusted, and every
  entry that *does* parse is byte-identical to what was stored.
* A writer killed mid-append, and readers racing live appends.  A
  torn last record is an unfinished write, not corruption: it reads
  as the records before it, and the next write compacts it away.
"""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
import warnings

import pytest

from repro.chaos import ChaosController, FaultPlan
from repro.prevention.cas.store import BucketStore, bucket_prefix
from tests.verdict_store import open_store


def controller(**rates):
    return ChaosController(FaultPlan(seed=7, **rates))


class TestLockTimeout:
    def test_timed_out_flush_stays_pending_and_memory_still_answers(
            self, tmp_path):
        cache = open_store(tmp_path / "c",
                           chaos=controller(cache_lock_timeout=1.0))
        cache.store("lab", "fp", {"satisfied": True})
        assert cache.save() is False
        assert cache.stats_dict()["lock_timeouts"] >= 1
        # Nothing reached disk...
        assert len(BucketStore(tmp_path / "c" / "cas")) == 0
        # ...but the memory tier still serves the verdict, unharmed.
        assert cache.lookup("lab", "fp") == {"satisfied": True}

    def test_repeated_saves_eventually_drain_the_backlog(self, tmp_path):
        """The seam keys on the acquisition *attempt*, so a partial
        injection rate clears on retry instead of wedging forever."""
        cache = open_store(tmp_path / "c",
                           chaos=controller(cache_lock_timeout=0.7))
        for index in range(5):
            cache.store(f"label-{index}", f"fp{index}", {"i": index})
        for _ in range(60):
            if cache.save():
                pass
            if len(BucketStore(tmp_path / "c" / "cas")) == 5:
                break
        else:
            pytest.fail("backlog never drained")
        assert cache.stats_dict()["lock_timeouts"] >= 1
        reopened = open_store(tmp_path / "c")
        for index in range(5):
            assert reopened.lookup(f"label-{index}", f"fp{index}") == \
                {"i": index}


class TestStaleRead:
    def test_stale_remote_read_recomputes_identically(self, tmp_path):
        writer = open_store(tmp_path / "a", shared=tmp_path / "s")
        verdict = {"satisfied": True, "states_explored": 41}
        writer.store("lab", "fp", verdict)
        writer.save()
        reader = open_store(tmp_path / "b", shared=tmp_path / "s",
                            chaos=controller(cache_stale_read=1.0))
        # The entry IS in the remote; the seam hides it.  That must
        # surface as an honest miss — not a phantom hit, not an error.
        assert reader.lookup("lab", "fp") is None
        stats = reader.stats_dict()
        assert stats["stale_reads"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        # The caller recomputes and stores; bytes match the original.
        reader.store("lab", "fp", dict(verdict))
        reader.save()
        fresh = open_store(tmp_path / "c", shared=tmp_path / "s")
        assert json.dumps(fresh.lookup("lab", "fp"), sort_keys=True) == \
            json.dumps(verdict, sort_keys=True)

    def test_stale_read_never_fires_without_a_remote(self, tmp_path):
        cache = open_store(tmp_path / "c",
                           chaos=controller(cache_stale_read=1.0))
        cache.store("lab", "fp", {"satisfied": False})
        cache.save()
        assert cache.lookup("lab", "fp") == {"satisfied": False}
        assert cache.stats_dict()["stale_reads"] == 0


def _churn_worker(shared_root, ready_path):
    """Store/save forever with a tiny bound so every save compacts;
    the parent SIGKILLs this process mid-flight."""
    cache = open_store(shared_root, max_entries=4,
                       writer_id="doomed")
    index = 0
    while True:
        cache.store(f"churn-{index}", f"fp{index}", {"i": index})
        cache.save()
        if index == 8:
            ready_path.write_text("ready")
        index += 1


class TestCrashRecovery:
    def test_store_survives_a_writer_killed_mid_compaction(self, tmp_path):
        root = tmp_path / "store"
        ready = tmp_path / "ready"
        context = multiprocessing.get_context("spawn")
        child = context.Process(target=_churn_worker, args=(root, ready))
        child.start()
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert child.is_alive(), "churn worker died on its own"
                assert time.monotonic() < deadline, "worker never warmed up"
                time.sleep(0.01)
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=30)
        # The survivor opens the same root: every bucket that parses
        # holds complete entries, byte-identical to what was stored.
        survivor = BucketStore(root / "cas")
        entries = survivor.entries()
        assert entries, "kill erased the whole store"
        for label, entry in entries.items():
            index = int(label.rsplit("-", 1)[1])
            assert entry["verdict"] == {"i": index}
            assert entry["writer_id"] == "doomed"
        # And the high-level cache serves them with no phantom hits:
        # a hit must return the stored verdict, a miss stays a miss.
        cache = open_store(root)
        for label, entry in entries.items():
            assert cache.lookup(label, entry["fingerprint"]) == \
                entry["verdict"]
        assert cache.lookup("never-stored", "fp") is None

    def test_torn_compaction_temp_file_is_swept_as_debris(self, tmp_path):
        store = BucketStore(tmp_path)
        store.put_many({"lab": {"fingerprint": "fp", "verdict": {"ok": 1},
                                "stored_at": 1, "writer_id": "t"}})
        # A writer died between writing its temp file and renaming it.
        torn = store.buckets_dir / "ab.json.tmp.99999"
        torn.write_text('{"entries": {"half-written')
        assert store.compact(max_entries=10) == 0
        assert not torn.exists()
        assert store.get("lab")["verdict"] == {"ok": 1}

    def test_corrupt_bucket_is_counted_and_yields_no_phantom_hits(
            self, tmp_path):
        cache = open_store(tmp_path / "c")
        cache.store("lab", "fp", {"satisfied": True})
        cache.save()
        bucket = (tmp_path / "c" / "cas" / "buckets" /
                  f"{bucket_prefix('lab')}.json")
        bucket.write_text('{"entries": {"lab": {"finge')   # torn mid-write
        reopened = open_store(tmp_path / "c")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert reopened.lookup("lab", "fp") is None    # honest miss
        stats = reopened.stats_dict()
        assert stats["corrupt_loads"] >= 1
        assert stats["hits"] == 0
        # Recompute-and-store heals the bucket in place.
        reopened.store("lab", "fp", {"satisfied": True})
        reopened.save()
        healed = open_store(tmp_path / "c")
        assert healed.lookup("lab", "fp") == {"satisfied": True}


def _same_bucket(label, count):
    """*count* further labels that shard into *label*'s bucket."""
    return [f"{label}-{index}" for index in range(100000)
            if bucket_prefix(f"{label}-{index}")
            == bucket_prefix(label)][:count]


def _entry(fp, **verdict):
    return {"fingerprint": fp, "verdict": verdict, "stored_at": 0,
            "writer_id": "t"}


class TestTornAppend:
    def test_killed_appenders_partial_line_reads_as_the_records_before(
            self, tmp_path):
        store = BucketStore(tmp_path)
        other = _same_bucket("lab", 1)[0]
        store.put_many({"lab": _entry("fp1", n=1), other: _entry("fp1")})
        store.put_many({"lab": _entry("fp2", n=2)})
        path = store.buckets_dir / f"{bucket_prefix('lab')}.json"
        # A writer died inside its append: half a record, no newline.
        record = json.dumps({"entries": {"lab": _entry("fp3", n=3)}})
        with open(path, "ab") as handle:
            handle.write(record[:len(record) // 2].encode())
        reader = BucketStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reader.get("lab")["verdict"] == {"n": 2}
            assert set(reader.entries()) == {"lab", other}
        assert reader.stats.corrupt_loads == 0
        # The next flush to that bucket compacts the torn tail away.
        reader.put_many({other: _entry("fp4", n=4)})
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1
        assert {label: entry["verdict"] for label, entry
                in json.loads(raw)["entries"].items()} == {
            "lab": {"n": 2}, other: {"n": 4}}
        assert reader.stats.corrupt_loads == 0

    def test_reader_never_sees_a_missing_or_partial_entry(self, tmp_path):
        """Lock-free readers loop ``get`` on one label while a writer
        appends to (and now and then compacts) the same bucket."""
        writer = BucketStore(tmp_path)
        neighbours = _same_bucket("watched", 3)
        writer.put_many({"watched": _entry("fp0", n=0)})
        done = threading.Event()
        seen, faults = [], []

        def read():
            reader = BucketStore(tmp_path)
            last = 0
            while not done.is_set():
                entry = reader.get("watched")
                if entry is None or entry["fingerprint"] != \
                        f"fp{entry['verdict']['n']}" \
                        or entry["verdict"]["n"] < last:
                    faults.append(entry)
                    return
                last = entry["verdict"]["n"]
                seen.append(last)
            if reader.stats.corrupt_loads:
                faults.append("corrupt")

        readers = [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for index in range(1, 400):
                if index % 3:
                    writer.put_many({neighbours[index % 3]:
                                     _entry(f"fp{index}", n=index)})
                else:
                    writer.put_many({"watched":
                                     _entry(f"fp{index}", n=index)})
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for thread in readers:
                thread.join(30)
        assert not any(thread.is_alive() for thread in readers)
        assert faults == []
        assert len(set(seen)) > 1
        assert BucketStore(tmp_path).get("watched")["verdict"] == {"n": 399}
