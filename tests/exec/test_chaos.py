"""Chaos-harness tests: seeded schedules, on-disk damage, the one runner
and its gate across every scenario."""

import json
import os

import pytest

from repro.errors import ReproError
from repro.exec import ArtifactStore, SerialExecutor, build_jobs
from repro.exec.cache import TraceCache
from repro.exec.chaos import (
    ALL_FAULTS,
    FAULT_HANG,
    FAULT_JOB_EXCEPTION,
    FAULT_POOL_INIT,
    FAULT_RESULT_BITFLIP,
    FAULT_RESULT_TRUNCATE,
    FAULT_STORE_ENOSPC,
    FAULT_WORKER_KILL,
    RESULT_FAULTS,
    SCENARIOS,
    ChaosPlan,
    EnospcStore,
    InjectedFault,
    build_plan,
    damage_store,
    result_digest,
    run_chaos,
)
from repro.exec.store import using_store

JOBS = build_jobs(["gzip"], ["decrypt-only", "authen-then-commit",
                             "authen-then-issue"],
                  num_instructions=600, warmup=300)
TINY = dict(num_instructions=600, warmup=300)
TINY_ARGS = ["-n", "600", "--warmup", "300"]


class TestBuildPlan:
    def test_same_seed_same_schedule(self):
        one = build_plan(JOBS, seed=5)
        two = build_plan(JOBS, seed=5)
        assert one.job_faults == two.job_faults

    def test_different_seed_can_differ(self):
        schedules = {frozenset(build_plan(JOBS, seed=s).job_faults.items())
                     for s in range(8)}
        assert len(schedules) > 1

    def test_each_job_fault_hits_a_distinct_job(self):
        plan = build_plan(JOBS, seed=0)
        assert sorted(plan.job_faults.values()) == sorted(
            [FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG])
        assert len(set(plan.job_faults)) == 3

    def test_unknown_fault_rejected(self):
        with pytest.raises(ReproError):
            build_plan(JOBS, seed=0, faults=("disk-on-fire",))

    def test_fault_subset_respected(self):
        plan = build_plan(JOBS, seed=0,
                          faults=(FAULT_JOB_EXCEPTION,
                                  FAULT_RESULT_TRUNCATE))
        assert set(plan.job_faults.values()) == {FAULT_JOB_EXCEPTION}

    def test_faults_fire_on_first_attempt_only(self):
        plan = ChaosPlan(0, {JOBS[0].job_id: FAULT_JOB_EXCEPTION})
        with pytest.raises(InjectedFault):
            plan(JOBS[0], 1)
        assert plan(JOBS[0], 2) is None
        assert plan(JOBS[1], 1) is None

    def test_worker_kill_downgrades_in_driver_process(self):
        plan = ChaosPlan(0, {JOBS[0].job_id: FAULT_WORKER_KILL})
        with pytest.raises(InjectedFault):  # must NOT SIGKILL this test
            plan(JOBS[0], 1)


class TestCorruptJournal:
    @pytest.fixture
    def store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with using_store(store):
            SerialExecutor().run(JOBS)
        return store

    def _heal(self, store):
        """Rerun against the damaged store; returns #re-simulated."""
        healer = SerialExecutor(cache=TraceCache())
        with using_store(store):
            healer.run(JOBS)
        return sum(1 for outcome in healer.last_outcomes.values()
                   if outcome.status != "resumed")

    def test_truncate_tears_final_record(self, store):
        sizes = sorted(st.st_size for _, st in store._entries("results"))
        damaged = damage_store(store.root, JOBS, (FAULT_RESULT_TRUNCATE,),
                               seed=0)
        assert list(damaged.values()) == [FAULT_RESULT_TRUNCATE]
        after = sorted(st.st_size for _, st in store._entries("results"))
        assert len(after) == len(sizes) and after != sizes
        assert self._heal(store) == 1
        assert store.counters["quarantined"] == 1

    def test_bitflip_is_caught_by_crc(self, store):
        damaged = damage_store(store.root, JOBS, (FAULT_RESULT_BITFLIP,),
                               seed=0)
        assert list(damaged.values()) == [FAULT_RESULT_BITFLIP]
        assert self._heal(store) == 1
        assert store.counters["quarantined"] == 1

    def test_missing_journal_is_a_noop(self, tmp_path):
        assert damage_store(tmp_path / "nope", JOBS, ALL_FAULTS, 0) == {}


class TestRunChaos:
    def test_serial_exception_campaign_converges(self, tmp_path):
        report = run_chaos(seed=1, faults=(FAULT_JOB_EXCEPTION,
                                           FAULT_RESULT_TRUNCATE),
                           workers=1, workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.failures == []
        assert FAULT_JOB_EXCEPTION in report.injected.values()
        assert report.counters["quarantined"] == 1
        assert report.counters["reexecuted"] == 1
        # The injected job took >1 attempt; everyone else took 1.
        assert any(n > 1 for n in report.attempts.values())
        assert report.as_dict()["stats_digest"] == report.stats_digest
        assert "bit-identical" in report.render()

    def test_full_campaign_with_worker_kills_converges(self, tmp_path):
        report = run_chaos(seed=0, workers=2, hang_seconds=1.0,
                           timeout=0.5, workdir=str(tmp_path), **TINY)
        assert report.passed, report.render()
        assert report.failures == []
        assert sorted(k for k in report.injected.values()
                      if k in (FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION,
                               FAULT_HANG)) == sorted(
            [FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG])
        assert report.counters["pool_rebuilds"] >= 1  # the kill broke it
        assert report.counters["retry_events"] >= 1
        assert report.counters["quarantined"] == 2
        assert sorted(k for k in report.injected.values()
                      if k in RESULT_FAULTS) == sorted(RESULT_FAULTS)
        assert all(report.gates.values())

    def test_campaign_is_reproducible(self, tmp_path):
        kwargs = dict(seed=3, faults=(FAULT_JOB_EXCEPTION,), workers=1,
                      **TINY)
        one = run_chaos(workdir=str(tmp_path / "a"), **kwargs)
        two = run_chaos(workdir=str(tmp_path / "b"), **kwargs)
        assert one.stats_digest == two.stats_digest
        assert one.injected == two.injected
        assert one.attempts == two.attempts


class TestResultDigest:
    def test_digest_tracks_result_content(self):
        results = SerialExecutor().run(JOBS[:2])
        a, b = (results[job] for job in JOBS[:2])
        assert result_digest(a) == result_digest(a)
        assert result_digest(a) != result_digest(b)


class TestChaosCli:
    def test_cli_reports_and_exits_zero(self, capsys, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(["chaos", "--seed", "0",
                     "--faults", "job-exception,result-bitflip",
                     "-j", "1", "--workdir", str(tmp_path),
                     "--emit-json", str(report_path)] + TINY_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical" in out
        payload = json.loads(report_path.read_text())
        assert payload["kind"] == "chaos"
        assert payload["passed"] is True
        assert payload["faults"] == ["job-exception", "result-bitflip"]

    def test_cli_rejects_unknown_fault(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--faults", "gremlins"]) == 2
        assert "unknown fault" in capsys.readouterr().err

    def test_cli_rejects_a_fault_the_scenario_cannot_arm(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--scenario", "store",
                     "--faults", "worker-kill"]) == 2
        assert "store scenario" in capsys.readouterr().err
        # A pool-initializer fault cannot fire without a pool.
        assert main(["chaos", "--faults", "pool-init-failure",
                     "-j", "1"]) == 2
        assert "needs a worker pool" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            run_chaos("nightly")


class TestSilentFault:
    """An armed fault that leaves no evidence must fail the campaign."""

    def test_fault_that_never_fires_fails_the_campaign(self, capsys,
                                                       tmp_path,
                                                       monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(ChaosPlan, "__call__",
                            lambda self, job, attempt: None)
        code = main(["chaos", "--faults", "job-exception", "-j", "1",
                     "--workdir", str(tmp_path)] + TINY_ARGS)
        out = capsys.readouterr().out
        assert code == 1
        assert "SILENT FAULT: job-exception" in out
        assert "verdict: FAILED" in out

    def test_figures_kill_aimed_at_no_job_fails(self, capsys, tmp_path,
                                                monkeypatch):
        # The worker-kill targets a policy the figure never sweeps, so
        # the fault cannot fire: results stay byte-identical, but the
        # campaign must still fail instead of passing silently.
        from repro.cli import main
        from repro.exec import chaos

        monkeypatch.setattr(chaos, "FIGURE_TARGET_POLICY", "no-such")
        code = main(["chaos", "--scenario", "figures",
                     "--benchmark", "gzip",
                     "--workdir", str(tmp_path)] + TINY_ARGS)
        out = capsys.readouterr().out
        assert code == 1
        assert "SILENT FAULT: worker-kill" in out
        assert "pool_rebuilds=0" in out


class TestInfraFaults:
    def test_fault_for_matches_benchmark_policy_key(self):
        plan = ChaosPlan(0, {"gzip/decrypt-only": FAULT_JOB_EXCEPTION})
        target = next(j for j in JOBS if j.policy == "decrypt-only")
        other = next(j for j in JOBS if j.policy != "decrypt-only")
        assert plan.fault_for(target, 1) == FAULT_JOB_EXCEPTION
        assert plan.fault_for(target, 2) is None
        assert plan.fault_for(other, 1) is None

    def test_init_fault_fires_exactly_once(self, tmp_path):
        plan = ChaosPlan(0, {})
        plan.arm_init_fault(str(tmp_path / "sentinel"))
        with pytest.raises(InjectedFault):
            plan.init_fault()
        plan.init_fault()  # sentinel exists: the rebuilt pool heals

    def test_unarmed_init_fault_is_a_noop(self):
        ChaosPlan(0, {}).init_fault()

    def test_enospc_journal_degrades_not_aborts(self, tmp_path):
        from repro.obs import MetricsRegistry, build_report, render_report
        from repro.obs.metrics import write_metrics
        from repro.sim.sweep import PolicySweep

        def sweep():
            return PolicySweep(["gzip"], ["authen-then-commit",
                                          "authen-then-issue"],
                               num_instructions=600, warmup=300)

        with using_store(None):
            clean = sweep().run()
        registry = MetricsRegistry()
        store = EnospcStore(tmp_path / "store", fail_at=2,
                            metrics=registry)
        with using_store(store):
            faulted = sweep().run(metrics=registry)
        # Every job completed in memory despite the failed publish...
        assert set(faulted.results) == set(clean.results)
        for key, result in clean.results.items():
            assert result_digest(faulted.results[key]) == \
                result_digest(result)
        # ...only that one write failed, and the report says so.
        assert store.counters["write_errors"] == 1
        assert store.stats()["tiers"]["results"]["entries"] == \
            len(clean.results) - 1
        snapshot = write_metrics(registry, str(tmp_path / "m.json"))
        text = render_report(build_report([snapshot]))
        assert ("artifact store failed 1 result write(s) (e.g. ENOSPC); "
                "those jobs cannot be resumed") in text

    def test_pool_init_campaign_converges(self, tmp_path):
        report = run_chaos(policies=("decrypt-only",
                                     "authen-then-commit"),
                           seed=0, faults=(FAULT_POOL_INIT,), workers=2,
                           workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.counters["pool_rebuilds"] >= 1
        assert report.failures == []

    def test_enospc_campaign_converges(self, tmp_path):
        report = run_chaos(policies=("decrypt-only",
                                     "authen-then-commit"),
                           seed=0, faults=(FAULT_STORE_ENOSPC,),
                           workers=1, workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.counters["write_errors"] == 1
        # The failed publish left one job unrecorded: the rerun
        # re-simulates it instead of resuming it.
        assert report.counters["reexecuted"] == 1
        assert "write_errors=1" in report.render()


class TestFiguresChaos:
    def test_worker_kill_yields_identical_artifacts(self, tmp_path):
        report = run_chaos("figures", benchmarks=("gzip",), workers=2,
                           workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.failures == []
        assert report.mismatches == []
        assert FAULT_WORKER_KILL in report.injected.values()
        assert report.counters["pool_rebuilds"] >= 1
        assert "byte-identical" in report.render()

    def test_cli_figures_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["chaos", "--scenario", "figures",
                     "--benchmark", "gzip",
                     "--workdir", str(tmp_path)] + TINY_ARGS)
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out


class TestGroupChaos:
    def test_serial_mid_group_campaign_converges(self, tmp_path):
        report = run_chaos("group", benchmarks=("gzip",), seed=0,
                           workers=1, workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.gates["exactly-once"]
        assert report.failures == []
        assert report.mismatches == []
        # The fault landed mid-group: one member was stored before the
        # abort, and the rerun resumed it and re-ran only the rest.
        assert report.counters["published_before_abort"] == 1
        assert report.counters["resumed"] == 1
        assert (report.counters["reexecuted"]
                == len(report.cells) - report.counters["resumed"])
        assert "bit-identical" in report.render()
        assert report.as_dict()["injected"] == report.injected

    def test_pool_worker_kill_campaign_converges(self, tmp_path):
        report = run_chaos("group", benchmarks=("gzip", "mcf"), seed=0,
                           workers=2, workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.counters["pool_rebuilds"] >= 1  # the kill broke it
        assert report.failures == []

    def test_needs_enough_policies_for_a_mid_group_fault(self):
        with pytest.raises(ReproError):
            run_chaos("group", policies=("decrypt-only", "lazy"))

    def test_cli_group_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["chaos", "--scenario", "group",
                     "--benchmark", "gzip",
                     "--workdir", str(tmp_path)] + TINY_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "exactly-once ok" in out
        assert "bit-identical" in out


class TestStoreChaos:
    def test_campaign_quarantines_and_regenerates(self, tmp_path):
        report = run_chaos("store", benchmarks=("gzip",), seed=0,
                           workdir=str(tmp_path), **TINY)
        assert report.passed
        assert report.mismatches == []
        # Both damaged entries (trace + result) were quarantined, the
        # dead-pid lock was broken, and exactly the damaged job paid a
        # re-simulation -- every other job came straight from the store.
        assert report.counters["quarantined"] == 2
        assert report.counters["lock_breaks"] >= 1
        assert report.counters["reexecuted"] == 1
        assert report.counters["store_hits"] == len(report.cells) - 1
        assert "bit-identical" in report.render()
        assert set(report.as_dict()["injected"].values()) == {
            "trace-truncate", "result-bitflip", "stale-lock"}

    def test_quarantine_evidence_left_on_disk(self, tmp_path):
        report = run_chaos("store", benchmarks=("gzip",),
                           workdir=str(tmp_path), **TINY)
        assert report.passed
        quarantine = os.path.join(str(tmp_path), "store", "quarantine")
        assert len(os.listdir(quarantine)) == 2
        assert os.path.exists(os.path.join(str(tmp_path), "store",
                                           "quarantine.rej"))

    def test_cli_store_smoke(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["chaos", "--scenario", "store",
                     "--benchmark", "gzip",
                     "--workdir", str(tmp_path)] + TINY_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario=store" in out
        assert "bit-identical" in out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_report_reads_every_scenario(scenario, capsys, tmp_path):
    """Every scenario's --emit-json feeds ``repro report``, which lists
    the injected faults."""
    from repro.cli import main

    report_path = tmp_path / "chaos.json"
    assert main(["chaos", "--scenario", scenario,
                 "--workdir", str(tmp_path / "work"),
                 "--emit-json", str(report_path)] + TINY_ARGS) == 0
    capsys.readouterr()
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    for fault in SCENARIOS[scenario].faults:
        assert "chaos: injected %s into" % fault in out
