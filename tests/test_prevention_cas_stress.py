"""Multi-writer stress suite for the shared CAS tier.

A CI fleet is N unrelated processes pointed at one shared cache
directory.  The bucket store's whole job is to make that safe with
nothing but the filesystem: advisory per-bucket locks serialize
writers, single-write appends and atomic renames keep readers
torn-free, and lamport stamps make conflicting writes converge
last-writer-wins.  This suite hammers
one store root from many threads *and* many spawned processes at once,
then audits the wreckage:

* every bucket file is a complete record log (no torn record, ever);
* no lost stores — every writer's private label survives the melee;
* conflicting writes to one label converge on the highest stamp.
"""

import json
import multiprocessing
import threading

from repro.prevention.cas.store import (
    MAX_RECORDS, BucketStore, bucket_prefix)
from repro.prevention.cas.tiers import TieredVerdictStore
from tests.verdict_store import open_store

WRITERS = 6
ROUNDS = 8


def _stress_worker(shared_root, writer_index, rounds):
    """One fleet member: private labels plus contended ones.

    Module-level so multiprocessing's spawn start method can pickle it.
    """
    cache = open_store(
        shared_root.parent / f"local-{writer_index}", shared=shared_root,
        writer_id=f"stress-w{writer_index}")
    for round_index in range(rounds):
        # A label only this writer touches: must never be lost.
        cache.store(f"private-{writer_index}-{round_index}",
                    f"fp-{writer_index}-{round_index}",
                    {"writer": writer_index, "round": round_index})
        # A label every writer fights over.
        cache.store("contended", f"fp-{writer_index}",
                    {"writer": writer_index, "round": round_index})
        cache.save()
        # Interleave reads with the writes to stress promotion paths.
        cache.lookup(f"private-{writer_index}-{round_index}",
                     f"fp-{writer_index}-{round_index}")
    cache.save()
    return writer_index


def _assert_buckets_parse(shared_root):
    """Every bucket file on disk is a complete record log: it ends on a
    record boundary, holds at most ``MAX_RECORDS`` records, and every
    line is one whole ``{"entries": ...}`` object whose non-null
    entries carry all four fields."""
    buckets_dir = shared_root / "cas" / "buckets"
    bucket_files = sorted(buckets_dir.glob("*.json"))
    assert bucket_files, "stress run produced no buckets"
    for bucket_file in bucket_files:
        raw = bucket_file.read_bytes()
        assert raw.endswith(b"\n"), bucket_file
        lines = raw[:-1].split(b"\n")
        assert len(lines) <= MAX_RECORDS, bucket_file
        for line in lines:
            record = json.loads(line)
            assert isinstance(record, dict)
            assert set(record) == {"entries"}, bucket_file
            for label, entry in record["entries"].items():
                if entry is None:
                    continue
                assert set(entry) >= {"fingerprint", "verdict",
                                      "stored_at", "writer_id"}, \
                    (bucket_file, label)
    return bucket_files


def _audit(shared_root, writer_count, rounds):
    store = BucketStore(shared_root / "cas")
    # No lost stores: every private label landed.
    for writer_index in range(writer_count):
        for round_index in range(rounds):
            label = f"private-{writer_index}-{round_index}"
            entry = store.get(label)
            assert entry is not None, f"lost store: {label}"
            assert entry["verdict"] == {"writer": writer_index,
                                        "round": round_index}
    # Last-writer-wins on the contended label: whatever fingerprint
    # won, the verdict must be the one stored *with* that fingerprint
    # (no franken-entries mixing two writers), and the winning stamp
    # must be the bucket's maximum for that label's history.
    winner = store.get("contended")
    assert winner is not None
    winning_writer = int(winner["fingerprint"].rsplit("-", 1)[1])
    assert winner["verdict"]["writer"] == winning_writer
    assert winner["writer_id"] == f"stress-w{winning_writer}"
    assert winner["stored_at"] >= 1


class TestThreadStress:
    def test_threads_hammering_one_shared_store(self, tmp_path):
        shared_root = tmp_path / "shared"
        barrier = threading.Barrier(WRITERS)

        def run(writer_index):
            barrier.wait()
            _stress_worker(shared_root, writer_index, ROUNDS)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _assert_buckets_parse(shared_root)
        _audit(shared_root, WRITERS, ROUNDS)


class TestProcessStress:
    def test_spawned_processes_hammering_one_shared_store(self, tmp_path):
        shared_root = tmp_path / "shared"
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=WRITERS) as pool:
            results = pool.starmap(
                _stress_worker,
                [(shared_root, writer_index, ROUNDS)
                 for writer_index in range(WRITERS)])
        assert sorted(results) == list(range(WRITERS))
        _assert_buckets_parse(shared_root)
        _audit(shared_root, WRITERS, ROUNDS)


class TestSequencedConflict:
    def test_last_writer_wins_is_deterministic_when_sequenced(
            self, tmp_path):
        """When the race is removed, the later writer always wins —
        even if the earlier writer saves again afterwards with a
        stale in-memory copy (its promotion must not clobber)."""
        shared_root = tmp_path / "shared"
        first = open_store(tmp_path / "a", shared=shared_root,
                           writer_id="first")
        first.store("lab", "fp-old", {"winner": "first"})
        first.save()
        second = open_store(tmp_path / "b", shared=shared_root,
                            writer_id="second")
        # Invalidation then fresh store: the flat-compatible sequence.
        assert second.lookup("lab", "fp-new") is None
        second.store("lab", "fp-new", {"winner": "second"})
        second.save()
        # First writer re-saves; its stale entry must not resurrect.
        first.lookup("lab", "fp-old")      # promotes stale copy to memory
        first.save()
        fresh = open_store(tmp_path / "c", shared=shared_root)
        assert fresh.lookup("lab", "fp-new") == {"winner": "second"}


def _labels_in_two_buckets():
    """Two labels that shard into different buckets."""
    first = "held-label"
    other = next(f"free-label-{index}" for index in range(1000)
                 if bucket_prefix(f"free-label-{index}")
                 != bucket_prefix(first))
    return first, other


def _entry(label):
    return {"fingerprint": f"fp-{label}", "verdict": {"label": label},
            "stored_at": 0, "writer_id": "lock-test"}


def _hold_bucket_lock(root, prefix, held, release):
    """Hold one bucket's lock until told to let go (spawned child)."""
    with BucketStore(root)._locked(prefix):
        held.set()
        release.wait(30)


class TestLockProtocol:
    """One lock file per store; each bucket still locks on its own."""

    def _assert_held_bucket_skipped(self, root):
        held_label, free_label = _labels_in_two_buckets()
        contender = BucketStore(root, lock_timeout_s=0.05)
        flushed = contender.put_many({held_label: _entry(held_label),
                                      free_label: _entry(free_label)})
        assert flushed == {free_label}
        assert contender.get(held_label) is None
        assert contender.get(free_label)["verdict"] == {
            "label": free_label}
        assert contender.stats.lock_timeouts == 1

    def test_held_bucket_is_skipped_in_process(self, tmp_path):
        held_label, _free_label = _labels_in_two_buckets()
        with BucketStore(tmp_path)._locked(bucket_prefix(held_label)):
            self._assert_held_bucket_skipped(tmp_path)

    def test_held_bucket_is_skipped_across_processes(self, tmp_path):
        held_label, _free_label = _labels_in_two_buckets()
        context = multiprocessing.get_context("spawn")
        held, release = context.Event(), context.Event()
        child = context.Process(
            target=_hold_bucket_lock,
            args=(tmp_path, bucket_prefix(held_label), held, release))
        child.start()
        try:
            assert held.wait(60), "child never took the lock"
            self._assert_held_bucket_skipped(tmp_path)
        finally:
            release.set()
            child.join(60)
        assert child.exitcode == 0
        # Released with the child: the bucket takes writes again.
        assert BucketStore(tmp_path, lock_timeout_s=0.05).put_many(
            {held_label: _entry(held_label)}) == {held_label}

    def test_save_leaves_one_lock_file(self, tmp_path):
        store = TieredVerdictStore(local=BucketStore(tmp_path))
        labels = [f"task-{index}" for index in range(40)]
        for label in labels:
            store.store(label, f"fp-{label}", {"satisfied": True})
        assert store.save()
        assert len({bucket_prefix(label) for label in labels}) > 20
        assert [path.name for path in (tmp_path / "locks").iterdir()] \
            == ["buckets.lock"]
