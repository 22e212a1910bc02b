"""The store's result tier under concurrent publishers.

Dist workers on different hosts publish into one shared store, and two
of them can publish the same member (a re-claimed unit).  Every entry
is written to a unique staging name and renamed into place, so
concurrent publishes of the same key leave one whole entry: a reload
must see every record intact, and only a genuinely torn entry (a
mid-write kill) may be quarantined.
"""

import json
import multiprocessing
import os
import socket

from repro.exec import ArtifactStore, SerialExecutor, build_jobs
from repro.exec.chaos import result_digest
from repro.exec.retry import STATUS_RESUMED
from repro.exec.store import _record_crc, tmp_suffix, using_store

N = 800
WARMUP = 400


def _jobs():
    return build_jobs(["gzip", "mcf"],
                      ["decrypt-only", "authen-then-commit",
                       "authen-then-issue"],
                      num_instructions=N, warmup=WARMUP)


def _publish_results(root, reverse, barrier):
    """Child process: run every job, publish each result."""
    store = ArtifactStore(root)
    jobs = _jobs()
    with using_store(None):
        results = SerialExecutor().run(jobs)
    barrier.wait()   # line both writers up so their publishes race
    for job in (reversed(jobs) if reverse else jobs):
        assert store.save_result(job, results[job])


def _fill_concurrently(root):
    barrier = multiprocessing.Barrier(2)
    writers = [multiprocessing.Process(target=_publish_results,
                                       args=(root, reverse, barrier))
               for reverse in (False, True)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
        assert writer.exitcode == 0
    return _jobs()


class TestConcurrentAppend:
    def test_no_record_loss_across_two_writers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        jobs = _fill_concurrently(store.root)
        for job in jobs:
            assert store.load_result(job) is not None
        assert store.counters["quarantined"] == 0
        assert store.stats()["tiers"]["results"]["entries"] == len(jobs)

    def test_torn_tail_quarantines_only_the_tear(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        jobs = _fill_concurrently(store.root)
        path = store.result_path(jobs[-1])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        report = store.verify()
        assert report["corrupt"] == 1
        assert report["ok"] == len(jobs) - 1
        assert os.path.exists(os.path.join(store.root, "quarantine.rej"))

    def test_compact_then_resume_bit_identical(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        jobs = _fill_concurrently(store.root)
        with using_store(None):
            reference = {job.job_id: result_digest(result) for job, result
                         in SerialExecutor().run(jobs).items()}
        # A gc the store already fits under evicts nothing.
        assert store.gc(max_bytes=1 << 30)["evicted"] == 0
        healer = SerialExecutor()
        with using_store(store):
            healed = healer.run(jobs)
        resumed = sum(1 for outcome in healer.last_outcomes.values()
                      if outcome.status == STATUS_RESUMED)
        assert resumed == len(jobs)   # nothing re-simulated
        for job in jobs:
            assert result_digest(healed[job]) == reference[job.job_id]


class TestTmpSuffix:
    def test_names_host_pid_and_counts_up(self):
        first, second = tmp_suffix(), tmp_suffix()
        assert first != second
        assert socket.gethostname() in first
        assert str(os.getpid()) in first

    def test_parse_record_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        job = _jobs()[0]
        with using_store(None):
            result = SerialExecutor().run([job])[job]
        assert store.save_result(job, result)
        with open(store.result_path(job)) as handle:
            raw = handle.read()
        record = json.loads(raw)
        assert record["job_id"] == job.job_id
        assert record["crc32"] == _record_crc(record)
        with open(store.result_path(job), "w") as handle:
            handle.write(raw[:-5])
        assert store.load_result(job) is None
        assert store.counters["quarantined"] == 1
