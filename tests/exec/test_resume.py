"""Resume tests: the store's result tier skips completed jobs.

The artifact store's result tier is the one durable record of finished
work: an executor asks it once per job before anything runs, resumes
every job it holds, and publishes every fresh completion.
"""

import json
import os

import pytest

from repro.exec import ArtifactStore, SerialExecutor, build_jobs
from repro.exec.chaos import result_digest
from repro.exec.retry import STATUS_OK, STATUS_RESUMED
from repro.exec.store import RESULT_VERSION, active_store, using_store
from repro.util.statistics import StatGroup

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit"],
                  num_instructions=600, warmup=300)


class CountingExecutor(SerialExecutor):
    """Serial backend that counts how many jobs actually simulate."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def _execute(self, pending, results, state):
        self.executed += len(pending)
        super()._execute(pending, results, state)


@pytest.fixture
def store(tmp_path):
    """A fresh store, active for the test."""
    with using_store(ArtifactStore(tmp_path / "store")) as active:
        yield active


def _entries(store):
    return sorted(path for path, _ in store._entries("results"))


class TestJournalResume:
    def test_completed_jobs_are_skipped(self, store):
        first = CountingExecutor()
        before = first.run(JOBS)
        assert first.executed == len(JOBS)

        second = CountingExecutor()
        after = second.run(JOBS)
        assert second.executed == 0
        for job in JOBS:
            assert after[job].cycles == before[job].cycles
            assert after[job].ipc == before[job].ipc
            assert after[job].stats.as_dict() == \
                before[job].stats.as_dict()
            assert after[job].miss_summary == before[job].miss_summary

    def test_partial_journal_runs_only_the_rest(self, store):
        CountingExecutor().run(JOBS[:1])

        resumed = CountingExecutor()
        results = resumed.run(JOBS)
        assert resumed.executed == len(JOBS) - 1
        assert set(results) == set(JOBS)

    def test_changed_spec_changes_id_and_reruns(self, store):
        CountingExecutor().run(JOBS)
        bigger = build_jobs(["gzip"], ["decrypt-only"],
                            num_instructions=700, warmup=300)
        rerun = CountingExecutor()
        rerun.run(bigger)
        assert rerun.executed == 1  # different job_id -> not skipped

    def test_rebuilt_stats_are_live_statgroups(self, store):
        SerialExecutor().run(JOBS)
        result = store.load_result(JOBS[1])
        assert isinstance(result.stats, StatGroup)
        assert result.stats["auth_requests"].value > 0
        # Histogram bucket keys survive the JSON round trip as ints.
        gap = result.stats["decrypt_verify_gap"]
        assert gap.total > 0
        assert all(isinstance(k, int) for k in gap.buckets)
        assert gap.mean() > 0

    def test_truncated_trailing_line_is_ignored(self, store):
        SerialExecutor().run(JOBS)
        path = store.result_path(JOBS[0])
        with open(path, "r+b") as handle:   # a torn write
            handle.truncate(os.path.getsize(path) // 2)
        rerun = CountingExecutor()
        rerun.run(JOBS)
        assert rerun.executed == 1
        assert store.counters["quarantined"] == 1

    def test_incompatible_version_lines_are_ignored(self, store):
        SerialExecutor().run(JOBS[:1])
        path = store.result_path(JOBS[0])
        with open(path) as handle:
            record = json.load(handle)
        record["store_version"] = RESULT_VERSION + 1
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert store.load_result(JOBS[0]) is None

    def test_result_none_for_unknown_job(self, tmp_path):
        assert ArtifactStore(tmp_path / "empty").load_result(JOBS[0]) \
            is None


class TestStatGroupFromDict:
    def test_round_trip(self):
        group = StatGroup("g")
        group.counter("hits").add(5)
        group.histogram("gap").add(3, 2)
        group.histogram("gap").add(7)
        snapshot = group.as_dict()
        # Simulate the JSON round trip (keys become strings).
        snapshot = json.loads(json.dumps(snapshot))
        rebuilt = StatGroup.from_dict(snapshot, name="g")
        assert rebuilt.as_dict() == group.as_dict()
        assert rebuilt["gap"].percentile(50) == group["gap"].percentile(50)

    def test_non_numeric_histogram_keys_kept(self):
        rebuilt = StatGroup.from_dict({"h": {"label": 4}})
        assert rebuilt["h"].buckets == {"label": 4}


class TestJournalIntegrity:
    """CRC32-sealed result entries: corruption is quarantined."""

    def _flip_crc_protected_digit(self, text):
        # Flip a digit INSIDE the cycles value (never its first digit,
        # which could make invalid leading-zero JSON and take the
        # unparseable path instead of the CRC path this test pins).
        at = text.find('"cycles": ') + len('"cycles": ') + 1
        assert text[at].isdigit()
        return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]

    def test_bitflip_caught_by_crc_and_quarantined(self, store):
        SerialExecutor().run(JOBS)
        path = store.result_path(JOBS[0])
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(self._flip_crc_protected_digit(text))

        assert store.load_result(JOBS[0]) is None
        assert store.counters["quarantined"] == 1
        assert store.load_result(JOBS[1]) is not None
        with open(os.path.join(store.root, "quarantine.rej")) as handle:
            rej = json.loads(handle.read().splitlines()[0])
        assert "crc32" in rej["reason"]
        # The evidence moved aside; the entry's slot is free again.
        assert not os.path.exists(path)
        assert os.path.exists(os.path.join(
            store.root, "quarantine", os.path.basename(path)))

    def test_missing_crc_is_quarantined(self, store):
        SerialExecutor().run(JOBS[:1])
        path = store.result_path(JOBS[0])
        with open(path) as handle:
            record = json.load(handle)
        del record["crc32"]
        with open(path, "w") as handle:
            json.dump(record, handle)
        assert store.load_result(JOBS[0]) is None
        assert store.counters["quarantined"] == 1

    def test_incompatible_lines_survive_on_disk(self, store):
        SerialExecutor().run(JOBS[:1])
        path = store.result_path(JOBS[0])
        with open(path) as handle:
            record = json.load(handle)
        record["store_version"] = RESULT_VERSION + 1
        foreign = json.dumps(record)
        with open(path, "w") as handle:
            handle.write(foreign)
        rerun = CountingExecutor()
        rerun.run(JOBS[:1])
        assert rerun.executed == 1
        # Set aside in quarantine, not destroyed.
        with open(os.path.join(store.root, "quarantine",
                               os.path.basename(path))) as handle:
            assert handle.read() == foreign

    def test_metrics_round_trip(self, store):
        from repro.sim.metrics import RunMetrics

        live = SerialExecutor().run(JOBS)
        for job in JOBS:
            rebuilt = store.load_result(job)
            assert isinstance(rebuilt.metrics, RunMetrics)
            assert rebuilt.metrics.as_dict() == \
                live[job].metrics.as_dict()


class TestCodeVersionGap:
    """Store keys carry ``code_fingerprint("result")``: a rerun after a
    timing-model edit re-simulates instead of mixing code versions."""

    def test_new_fingerprint_resimulates_every_job(self, tmp_path,
                                                    monkeypatch, capsys):
        from repro.cli import main
        from repro.exec.store import STORE_ENV

        root = str(tmp_path / "store")
        # The CLI exports the store root for pool workers; setenv makes
        # the test restore the environment afterwards.
        monkeypatch.setenv(STORE_ENV, root)
        manifest = tmp_path / "sweep.json"
        argv = ["sweep", "gzip", "-p", "authen-then-commit", "-n", "600",
                "--warmup", "300", "--store", root,
                "--emit-json", str(manifest)]
        with using_store(None):
            assert main(argv) == 0
            cold = json.loads(manifest.read_text())
            assert {run["status"] for run in cold["runs"]} == {STATUS_OK}
            assert main(argv) == 0
            rerun = json.loads(manifest.read_text())
            assert {run["status"] for run in rerun["runs"]} == \
                {STATUS_RESUMED}
            monkeypatch.setattr("repro.exec.store.code_fingerprint",
                                lambda kind: "e" * 16)
            assert main(argv) == 0
            edited = json.loads(manifest.read_text())
        assert {run["status"] for run in edited["runs"]} == {STATUS_OK}
        assert all(run["accounting"]["store_hit"] is False
                   for run in edited["runs"])
        assert [run["cycles"] for run in edited["runs"]] == \
            [run["cycles"] for run in cold["runs"]]

    def test_killed_sweep_reruns_only_unfinished_jobs(self, store):
        jobs = build_jobs(["gzip", "mcf"],
                          ["decrypt-only", "authen-then-commit"],
                          num_instructions=600, warmup=300)
        with using_store(None):
            clean = SerialExecutor().run(jobs)

        class Killed(BaseException):
            """Stands in for SIGKILL: nothing handles it."""

        def kill_after(count):
            def progress(job, result, done, total):
                if done == count:
                    raise Killed()
            return progress

        with pytest.raises(Killed):
            SerialExecutor().run(jobs, progress=kill_after(2))
        assert len(_entries(store)) == 2

        rerun = SerialExecutor()
        results = rerun.run(jobs)
        statuses = {job_id: outcome.status
                    for job_id, outcome in rerun.last_outcomes.items()}
        assert sorted(statuses.values()) == \
            [STATUS_OK, STATUS_OK, STATUS_RESUMED, STATUS_RESUMED]
        assert active_store() is store
        for job in jobs:
            assert result_digest(results[job]) == \
                result_digest(clean[job])
