"""Run health report tests: built over a real (seeded) faulty sweep."""

import json

import pytest

from repro.cpu import native
from repro.exec import RETRY_THEN_SKIP, FailurePolicy, set_attempt_hook
from repro.obs.export import (build_figures_manifest, build_sweep_manifest,
                              write_json)
from repro.obs.metrics import MetricsRegistry, write_metrics
from repro.obs.report import build_report, render_report, sniff_kind
from repro.sim.sweep import PolicySweep


@pytest.fixture
def hook():
    installed = []

    def install(fn):
        installed.append(set_attempt_hook(fn))
        return fn

    yield install
    while installed:
        set_attempt_hook(installed.pop())


def faulty_sweep(tmp_path, hook):
    """A 2x2 sweep with one retried job and one terminally skipped job.

    Returns (sweep, manifest_path, metrics_path).
    """
    sweep = PolicySweep(["gzip", "mcf"], ["authen-then-commit"],
                        num_instructions=600, warmup=300)
    jobs = sweep.jobs()
    retried = next(j for j in jobs
                   if (j.benchmark, j.policy) ==
                   ("gzip", "authen-then-commit"))
    doomed = next(j for j in jobs
                  if (j.benchmark, j.policy) ==
                  ("mcf", "authen-then-commit"))

    def inject(job, attempt):
        if job.job_id == retried.job_id and attempt == 1:
            raise RuntimeError("transient hiccup")
        if job.job_id == doomed.job_id:
            raise RuntimeError("permanently broken cell")

    hook(inject)
    metrics = MetricsRegistry()
    sweep.run(failure_policy=FailurePolicy(mode=RETRY_THEN_SKIP,
                                           max_attempts=2,
                                           backoff_base=0.0, jitter=0.0),
              metrics=metrics)
    manifest_path = tmp_path / "sweep.json"
    metrics_path = tmp_path / "metrics.json"
    write_json(build_sweep_manifest(sweep), manifest_path)
    write_metrics(metrics, metrics_path)
    return sweep, manifest_path, metrics_path


class TestSniffing:
    def test_kinds(self):
        assert sniff_kind({"kind": "sweep"}) == "sweep"
        assert sniff_kind({"kind": "metrics"}) == "metrics"
        assert sniff_kind({"kind": "chaos", "faults": []}) == "chaos"
        assert sniff_kind({"families": {}}) == "metrics"
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            sniff_kind({"mystery": True})
        with pytest.raises(ReproError):  # chaos shapes need the kind
            sniff_kind({"stats_digest": "x", "faults": []})


class TestBuildReport:
    def test_faulty_sweep_report(self, tmp_path, hook):
        sweep, manifest, metrics = faulty_sweep(tmp_path, hook)
        report = build_report([manifest, metrics])

        # Both injected jobs count as retried: the healed one and the
        # doomed one (it got its second attempt before giving up).
        assert report["jobs"] == {"total": 4, "ok": 3, "resumed": 0,
                                  "failed": 1, "retried": 2}
        failed = [c for c in report["cells"] if c["status"] == "failed"]
        assert len(failed) == 1
        assert "permanently broken cell" in failed[0]["error"]
        retried = [c for c in report["cells"]
                   if (c.get("attempts") or 1) > 1]
        assert ("gzip", "authen-then-commit") in \
            [(c["benchmark"], c["policy"]) for c in retried]
        assert len(retried) == 2

        # Only completed runs carry accounting, so 3 costed entries.
        assert len(report["slowest"]) == 3
        assert all(e["wall_seconds"] > 0 for e in report["slowest"])
        assert report["wall"]["count"] == 3
        assert report["wall"]["p50"] is not None
        assert report["cache"]["hits"] + report["cache"]["misses"] == 3
        # The metrics snapshot contributes family headlines: one retry
        # event per injected job (the healed and the doomed one).
        assert report["metrics_families"][
            "repro_job_retries_total"]["total"] == 2

    def test_snapshot_job_count_matches_manifest(self, tmp_path, hook):
        # Acceptance: repro_jobs_total in the snapshot equals the
        # manifest's settled-job count (runs + terminal failures).
        _, manifest_path, metrics_path = faulty_sweep(tmp_path, hook)
        manifest = json.loads(manifest_path.read_text())
        snapshot = json.loads(metrics_path.read_text())
        jobs_total = sum(
            s["value"] for s in
            snapshot["families"]["repro_jobs_total"]["samples"])
        assert jobs_total == \
            len(manifest["runs"]) + len(manifest["failures"])

    def test_render_report_text(self, tmp_path, hook):
        _, manifest, metrics = faulty_sweep(tmp_path, hook)
        text = render_report(build_report([manifest, metrics]))
        assert "jobs: 4 total | 3 ok | 0 resumed | 1 failed | 2 retried" \
            in text
        assert "health by benchmark x policy:" in text
        assert "permanently broken cell" in text
        assert "slowest 3 job(s)" in text
        assert "wall time per job: n=3" in text
        # Without the compiled kernel the report rightly warns.
        assert ("degradations: none" if native.native_available()
                else TestNativeKernelRecord.LINE) in text
        assert "metrics snapshot:" in text

    def test_sweep_phases_and_models(self, tmp_path):
        from repro.obs import PhaseProfiler

        sweep = PolicySweep(["gzip"], ["decrypt-only",
                                       "commit+obfuscation"],
                            num_instructions=600, warmup=300)
        profiler = PhaseProfiler()
        sweep.run(include_baseline=False, profiler=profiler)
        manifest = tmp_path / "sweep.json"
        write_json(build_sweep_manifest(sweep, profiler=profiler),
                   manifest)
        report = build_report([manifest])
        eligible = "kernel" if native.native_available() else "no_kernel"
        assert report["models"] == {eligible: 1, "obfuscating_policy": 1}
        assert report["phases"]["metrics"] > 0
        text = render_report(report)
        assert "phases (manifest profiler):" in text
        assert "timing model: " in text
        assert "obfuscating_policy 1" in text

    def test_accounting_survives_journal_resume(self, tmp_path):
        from repro.exec import ArtifactStore
        from repro.exec.store import using_store

        with using_store(ArtifactStore(tmp_path / "store")):
            PolicySweep(["gzip"], ["authen-then-commit"],
                        num_instructions=600, warmup=300).run()
            resumed = PolicySweep(["gzip"], ["authen-then-commit"],
                                  num_instructions=600, warmup=300)
            metrics = MetricsRegistry()
            resumed.run(metrics=metrics)
        for result in resumed.results.values():
            accounting = result.accounting
            assert accounting["wall_seconds"] >= 0
            assert accounting["store_hit"] is True
            assert accounting["cache_hit"] is None
        # Resumed jobs land in the jobs counter under their own status.
        snapshot = metrics.snapshot()
        samples = snapshot["families"]["repro_jobs_total"]["samples"]
        assert {"labels": {"status": "resumed"}, "value": 2} in samples

    def test_empty_distributions_render_dashes(self, tmp_path):
        # A manifest written before runs carried accounting; the report
        # must say -- rather than invent zeros.
        sweep = PolicySweep(["gzip"], ["authen-then-commit"],
                            num_instructions=600, warmup=300)
        sweep.run()
        for result in sweep.results.values():
            result.accounting = None
        manifest = tmp_path / "old.json"
        write_json(build_sweep_manifest(sweep), manifest)
        report = build_report([manifest])
        assert report["slowest"] == []
        assert report["wall"]["count"] == 0
        assert report["wall"]["p50"] is None
        text = render_report(report)
        assert "wall time per job: n=0 mean=-- p50=-- p95=-- max=--" \
            in text


def kind_manifest(kind, tmp_path):
    """A small sweep or (empty) figures manifest, written to disk."""
    if kind == "figures":
        payload = build_figures_manifest([])
    else:
        sweep = PolicySweep(["gzip"], ["decrypt-only"],
                            num_instructions=600, warmup=300)
        sweep.run()
        payload = build_sweep_manifest(sweep)
    path = tmp_path / ("%s.json" % kind)
    write_json(payload, path)
    return payload, path


class TestNativeKernelRecord:
    LINE = "kernel-eligible jobs ran on the legacy model"

    @pytest.mark.parametrize("kind", ["sweep", "figures"])
    def test_manifest_records_kernel_and_report_warns(
            self, kind, tmp_path, monkeypatch):
        payload, path = kind_manifest(kind, tmp_path)
        assert payload["native_kernel"] == native.native_available()
        assert (self.LINE in build_report([path])["degradations"]) == \
            (not native.native_available())
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            payload, path = kind_manifest(kind, tmp_path)
        finally:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
            native.reset()
        assert payload["native_kernel"] is False
        report = build_report([path])
        assert report["degradations"] == [self.LINE]
        assert self.LINE in render_report(report)


class TestReportCli:
    def test_json_output(self, capsys, tmp_path, hook):
        from repro.cli import main

        _, manifest, metrics = faulty_sweep(tmp_path, hook)
        code = main(["report", str(manifest), str(metrics), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "report"
        assert report["jobs"]["failed"] == 1
        assert report["jobs"]["retried"] == 2

    def test_text_output(self, capsys, tmp_path, hook):
        from repro.cli import main

        _, manifest, _ = faulty_sweep(tmp_path, hook)
        assert main(["report", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "run health report" in out
        assert "1 failed" in out

    def test_no_inputs_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["report"]) == 2
        assert "nothing to report on" in capsys.readouterr().err

    def test_unreadable_artifact_is_an_error(self, capsys, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_chaos_report_feeds_the_health_table(self, capsys, tmp_path):
        # Acceptance: a chaos run (worker kill + retries) surfaces its
        # retries and degradations in the report.
        from repro.cli import main
        from repro.exec.chaos import FAULT_WORKER_KILL, run_chaos
        from repro.obs.export import write_json

        chaos = run_chaos("sweep", benchmarks=["gzip"],
                          policies=["decrypt-only",
                                    "authen-then-commit"],
                          num_instructions=600, warmup=300, seed=0,
                          faults=(FAULT_WORKER_KILL,), workers=2,
                          workdir=tmp_path)
        chaos_json = tmp_path / "chaos.json"
        write_json(chaos.as_dict(), chaos_json)
        assert main(["report", str(chaos_json)]) == 0
        out = capsys.readouterr().out
        assert "health by benchmark x policy:" in out
        assert "worker pool rebuilt" in out
        assert "chaos: injected worker-kill" in out
        # The report's cell names: rows show benchmark/policy, not ids.
        assert "gzip" in out

        assert main(["report", str(chaos_json), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"]["retried"] >= 1  # the killed job re-ran
        assert any("worker-kill" in d for d in report["degradations"])


class TestStoreReporting:
    def test_metrics_snapshot_fills_cache_evictions(self, tmp_path, hook):
        _, manifest, metrics = faulty_sweep(tmp_path, hook)
        # A manifest cannot know evictions (they are process-wide);
        # the metrics snapshot fills them in instead of the old
        # hardcoded None.
        with_metrics = build_report([manifest, metrics])
        assert with_metrics["cache"]["evictions"] == 0
        manifest_only = build_report([manifest])
        assert manifest_only["cache"]["evictions"] is None

    def test_store_section_from_metrics_and_journal(self, tmp_path):
        from repro.exec import (ArtifactStore, SerialExecutor, TraceCache,
                                build_jobs, set_active_store)

        registry = MetricsRegistry()
        store = ArtifactStore(tmp_path / "store", metrics=registry)
        jobs = build_jobs(["gzip"],
                          ["decrypt-only", "authen-then-commit"],
                          num_instructions=600, warmup=300)
        previous = set_active_store(store)
        try:
            SerialExecutor(cache=TraceCache()).run(jobs)   # cold
            SerialExecutor(cache=TraceCache()).run(        # warm
                jobs, metrics=registry)
        finally:
            set_active_store(previous)
        metrics_path = tmp_path / "metrics.json"
        write_metrics(registry, metrics_path)

        report = build_report([metrics_path])
        assert report["store"]["result_short_circuits"] == len(jobs)
        assert report["store"]["hits"] >= len(jobs)
        assert report["store"]["quarantined"] == 0
        # Store-served jobs belong in neither cache column.
        assert report["cache"] is None

        text = render_report(report)
        assert "artifact store:" in text
        assert "%d job(s) served without simulation" % len(jobs) in text
        assert "store" in text.lower()
