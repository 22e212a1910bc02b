"""Multi-host work-stealing backend: spool, leases, merge, recovery.

Everything here runs on one machine -- worker daemons are plain
threads or child processes sharing a tmp_path spool -- but the
protocol under test is the cross-host one: exclusive lease claims,
heartbeats, publication into the spool's shared store, driver-side
settling, and the failure ladder (worker error -> retry -> skip; lost host -> lease
reaped, unit re-claimed; empty fleet -> degrade to local).  The
invariant every test holds is the repo-wide one: results bit-identical
to ``SerialExecutor``.
"""

import json
import os
import threading
import time

import pytest

from repro.exec import (
    ArtifactStore,
    DistExecutor,
    SerialExecutor,
    build_job_groups,
    build_jobs,
    run_worker,
)
from repro.exec.chaos import result_digest, run_chaos
from repro.exec.dist import (
    ensure_spool,
    lease_age,
    read_census,
    release_lease,
    request_stop,
    spool_jobs,
    spool_store_root,
    try_claim,
)
from repro.exec.retry import (
    RETRY_THEN_SKIP,
    STATUS_OK,
    STATUS_RESUMED,
    FailurePolicy,
)
from repro.exec.store import using_store

N = 800
WARMUP = 400
BENCHMARKS = ["gzip", "mcf"]
POLICIES = ["decrypt-only", "authen-then-commit"]


def _jobs():
    return build_jobs(BENCHMARKS, POLICIES,
                      num_instructions=N, warmup=WARMUP)


def _groups():
    return build_job_groups(BENCHMARKS, POLICIES,
                            num_instructions=N, warmup=WARMUP)


@pytest.fixture(scope="module")
def reference():
    jobs = _jobs()
    with using_store(None):
        results = SerialExecutor().run(jobs)
    return {job.job_id: result_digest(results[job]) for job in jobs}


@pytest.fixture(autouse=True)
def no_active_store():
    """Drivers here use the spool's own store, whatever ran before."""
    with using_store(None):
        yield


def _assert_identical(results, reference):
    assert {job.job_id for job in results} == set(reference)
    for job, result in results.items():
        assert result_digest(result) == reference[job.job_id]


class TestSpoolProtocol:
    def test_spool_and_claim_are_exclusive(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        groups = _groups()
        ids = spool_jobs(spool, groups)
        assert len(ids) == len(groups)
        # Second spool of the same units is a no-op (resubmit-safe).
        assert spool_jobs(spool, groups) == []
        lease = try_claim(spool, ids[0], "worker-a")
        assert lease is not None
        assert try_claim(spool, ids[0], "worker-b") is None
        assert lease_age(lease) is not None
        release_lease(lease)
        assert lease_age(lease) is None
        assert try_claim(spool, ids[0], "worker-b") is not None

    def test_worker_max_units_and_done_ids(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        groups = _groups()
        spool_jobs(spool, groups)
        summary = run_worker(spool, host_id="solo", poll=0.01,
                             lease_timeout=1.0, max_units=1)
        assert summary["units"] == 1
        assert summary["members"] == len(POLICIES)
        # With no driver yet, results land in the spool's own store.
        store = ArtifactStore(spool_store_root(spool))
        assert store.stats()["tiers"]["results"]["entries"] == \
            len(POLICIES)
        census, _ = read_census(spool)["solo"]
        assert census["jobs_done"] == 1
        assert census["members_done"] == len(POLICIES)
        # The claimed unit's job file is gone, its lease released.
        remaining = os.listdir(os.path.join(spool, "jobs"))
        assert len(remaining) == len(groups) - 1
        assert os.listdir(os.path.join(spool, "leases")) == []


class TestDistExecutor:
    def test_worker_thread_and_driver_merge_bit_identical(
            self, tmp_path, reference):
        spool = str(tmp_path / "spool")
        worker = threading.Thread(
            target=run_worker, args=(spool,),
            kwargs=dict(host_id="thread-a", poll=0.01, lease_timeout=1.0))
        worker.start()
        executor = DistExecutor(spool, poll=0.01, lease_timeout=1.0,
                                degrade_after=60.0)
        try:
            results = executor.run(_groups())
        finally:
            request_stop(spool)
            worker.join(timeout=30)
        assert not worker.is_alive()
        _assert_identical(results, reference)
        assert not executor.degraded
        assert "thread-a" in executor.hosts_seen
        census, _ = read_census(spool)["thread-a"]
        assert census["members_done"] == len(reference)
        assert executor.describe()["backend"] == "dist"

    def test_degrades_to_local_when_no_worker_appears(
            self, tmp_path, reference):
        executor = DistExecutor(str(tmp_path / "spool"), poll=0.01,
                                lease_timeout=0.5, degrade_after=0.1)
        results = executor.run(_groups())
        _assert_identical(results, reference)
        assert executor.degraded
        assert executor.describe()["degraded"]

    def test_preexisting_segment_records_are_merged_not_rerun(
            self, tmp_path, reference):
        spool = ensure_spool(tmp_path / "spool")
        jobs = _jobs()
        seeded = jobs[0]
        result = SerialExecutor().run([seeded])[seeded]
        ArtifactStore(spool_store_root(spool)).save_result(seeded, result)
        executor = DistExecutor(spool, poll=0.01, lease_timeout=0.5,
                                degrade_after=0.1)
        results = executor.run(_groups())
        _assert_identical(results, reference)
        statuses = {job_id: outcome.status for job_id, outcome
                    in executor.last_outcomes.items()}
        assert statuses.pop(seeded.job_id) == STATUS_RESUMED
        assert set(statuses.values()) == {STATUS_OK}

    def test_warm_rerun_spools_nothing(self, tmp_path, reference):
        spool = str(tmp_path / "spool")
        DistExecutor(spool, poll=0.01, lease_timeout=0.5,
                     degrade_after=0.1).run(_groups())
        # policy.json is rewritten whenever a run spools anything.
        os.unlink(os.path.join(spool, "policy.json"))
        executor = DistExecutor(spool, poll=0.01, lease_timeout=0.5,
                                degrade_after=0.1)
        results = executor.run(_groups())
        _assert_identical(results, reference)
        assert {outcome.status for outcome
                in executor.last_outcomes.values()} == {STATUS_RESUMED}
        assert not executor.degraded
        assert not os.path.exists(os.path.join(spool, "policy.json"))
        assert os.listdir(os.path.join(spool, "jobs")) == []

    def test_worker_errors_charge_retries_then_skip(self, tmp_path):
        spool = str(tmp_path / "spool")
        groups = _groups()
        policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=2,
                               backoff_base=0.0, backoff_max=0.0)
        executor = DistExecutor(spool, poll=0.01, lease_timeout=5.0,
                                degrade_after=60.0, local_fallback=False)
        victim_id = groups[0].job_id
        box = {}

        def drive():
            box["results"] = executor.run(groups, failure_policy=policy)

        # Pin the victim's lease so the helper worker can only claim
        # the other units (workers never break leases, whatever their
        # age); the lease outlives the test's ~2s, so the driver never
        # reaps it into the attempt accounting either.
        ensure_spool(spool)
        pin = try_claim(spool, victim_id, "pinner")
        assert pin is not None
        driver = threading.Thread(target=drive)
        driver.start()
        job_path = os.path.join(spool, "jobs", victim_id + ".job")
        deadline = time.monotonic() + 30
        while not os.path.exists(job_path):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # Two reported attempt failures exhaust max_attempts=2; the
        # other unit is settled from the helper's published results so
        # the run can finish without any live host.
        others = [g for g in groups if g.job_id != victim_id]
        worker = threading.Thread(
            target=run_worker, args=(spool,),
            kwargs=dict(host_id="helper", poll=0.01, lease_timeout=5.0,
                        max_units=len(others)))
        worker.start()
        with open(os.path.join(spool, "errors", victim_id + ".err"),
                  "a") as handle:
            for attempt in (1, 2):
                handle.write(json.dumps(
                    {"job_id": victim_id, "host_id": "helper",
                     "error": "boom %d" % attempt}) + "\n")
        driver.join(timeout=60)
        worker.join(timeout=30)
        release_lease(pin)
        assert not driver.is_alive() and not worker.is_alive()
        results = box["results"]
        member_ids = {m.job_id for m in groups[0].member_jobs}
        assert member_ids == set(executor.failures)
        assert {job.job_id for job in results} == {
            m.job_id for g in others for m in g.member_jobs}
        assert os.path.exists(
            os.path.join(spool, "skip", victim_id + ".skip"))


class TestDistChaos:
    def test_campaigns_heal_bit_identically(self, tmp_path):
        report = run_chaos("dist", num_instructions=N, warmup=WARMUP,
                           seed=1, workdir=str(tmp_path / "chaos"))
        assert report.passed, report.render()
        assert report.counters["host_losses"] >= 1
        assert report.counters["victim_records"] >= 1
        assert report.gates["exactly-once"]
        assert report.counters["degraded"] == 1
        assert report.gates["evidence:fleet-vanish"]


class TestSharedStore:
    def test_worker_refuses_a_driver_store_it_cannot_see(self, tmp_path):
        spool = ensure_spool(tmp_path / "spool")
        spool_jobs(spool, _groups()[:1])
        with open(os.path.join(spool, "policy.json"), "w") as handle:
            json.dump({"timeout": None,
                       "store": str(tmp_path / "elsewhere")}, handle)
        summary = run_worker(spool, host_id="blind", poll=0.01,
                             lease_timeout=1.0, idle_exit=0.2)
        assert summary["members"] == 0 and summary["errors"] >= 1
        assert not (tmp_path / "elsewhere").exists()
        errors = os.listdir(os.path.join(spool, "errors"))
        with open(os.path.join(spool, "errors", errors[0])) as handle:
            assert "not visible on this host" in handle.read()
