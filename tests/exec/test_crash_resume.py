"""Crash/resume tests: real SIGKILLs against driver and workers.

The store's contract is that a hard kill -- of a worker process or of
the whole driver -- costs at most the in-flight jobs: rerunning the same
sweep against the same store resumes the completed jobs from disk and
re-simulates only the rest, bit-identically.
"""

import json
import os
import signal
import subprocess
import sys

from repro.exec import (ArtifactStore, ParallelExecutor, SerialExecutor,
                        build_jobs)
from repro.exec.chaos import FAULT_WORKER_KILL, ChaosPlan, _install_in_worker
from repro.exec.retry import RETRY_THEN_SKIP, STATUS_RESUMED, FailurePolicy
from repro.exec.store import using_store

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit",
                             "authen-then-issue"],
                  num_instructions=600, warmup=300)

# A driver that SIGKILLs itself after its first job completes -- the
# harshest interruption a sweep can see (no atexit, no flush beyond what
# the store already forced).
_DRIVER = """
import os, signal, sys
from repro.exec import ArtifactStore, SerialExecutor, build_jobs
from repro.exec.store import set_active_store

jobs = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit",
                             "authen-then-issue"],
                  num_instructions=600, warmup=300)

def die_after_first(job, result, done, total):
    if done >= 1:
        os.kill(os.getpid(), signal.SIGKILL)

set_active_store(ArtifactStore(sys.argv[1]))
SerialExecutor().run(jobs, progress=die_after_first)
raise SystemExit("driver outlived its own SIGKILL")
"""


class TestDriverCrashResume:
    def test_sigkilled_driver_resumes_bit_identical(self, tmp_path):
        path = tmp_path / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), "..", "..", "src")])
        proc = subprocess.run(
            [sys.executable, "-c", _DRIVER, str(path)],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL

        # The kill landed after >= 1 completed job; the store kept it.
        store = ArtifactStore(path)
        completed = store.stats()["tiers"]["results"]["entries"]
        assert 1 <= completed < len(JOBS)

        resumed = SerialExecutor()
        with using_store(store):
            results = resumed.run(JOBS)
        assert store.counters["quarantined"] == 0  # fsync beat the kill
        statuses = [resumed.last_outcomes[j.job_id].status for j in JOBS]
        assert statuses.count(STATUS_RESUMED) == completed

        with using_store(None):
            clean = SerialExecutor().run(JOBS)
        for job in JOBS:
            assert results[job].cycles == clean[job].cycles
            assert results[job].stats.as_dict() == \
                clean[job].stats.as_dict()

    def test_torn_tail_after_kill_is_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with using_store(store):
            SerialExecutor().run(JOBS[:2])
        # Replay a torn write: binary-truncate the second record.
        path = store.result_path(JOBS[1])
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)

        resumed = SerialExecutor()
        with using_store(store):
            results = resumed.run(JOBS)
        assert store.counters["quarantined"] == 1
        assert [resumed.last_outcomes[j.job_id].status
                for j in JOBS].count(STATUS_RESUMED) == 1
        with open(os.path.join(store.root, "quarantine.rej")) as handle:
            rej = json.loads(handle.read().splitlines()[0])
        assert "unparseable" in rej["reason"]

        with using_store(None):
            clean = SerialExecutor().run(JOBS)
        for job in JOBS:
            assert results[job].cycles == clean[job].cycles


class TestWorkerCrashResume:
    def test_sigkilled_worker_heals_and_journals(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        plan = ChaosPlan(0, {JOBS[1].job_id: FAULT_WORKER_KILL})
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=4,
                               backoff_base=0.0, jitter=0.0)
        with using_store(store), ParallelExecutor(
                2, initializer=_install_in_worker,
                initargs=(plan,)) as executor:
            results = executor.run(JOBS, failure_policy=policy)
            assert executor.rebuilds >= 1
        assert set(results) == set(JOBS)
        assert executor.failures == {}

        # Everything the faulty run published resumes bit-identically.
        resumed = SerialExecutor()
        with using_store(store):
            after = resumed.run(JOBS)
        for job in JOBS:
            assert resumed.last_outcomes[job.job_id].status == \
                STATUS_RESUMED
            assert after[job].cycles == results[job].cycles
            assert after[job].stats.as_dict() == \
                results[job].stats.as_dict()
