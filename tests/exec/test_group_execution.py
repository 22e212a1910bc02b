"""The one unit pipeline: grouped and unit-of-one execution tests.

One :class:`MultiPolicySimJob` must be observably indistinguishable
from the N plain jobs it replaces: identical member job_ids, identical
results on every backend, store resume that re-runs only unfinished
members, and cache accounting that credits the in-group
trace reuse.  A plain :class:`SimJob` runs through the same pipeline as
a unit of one and must match the legacy reference model on every
backend, whichever timing model served it.
"""

import pytest

from repro.config import SimConfig
from repro.cpu import native
from repro.exec import (
    ArtifactStore,
    ParallelExecutor,
    SerialExecutor,
    SimJob,
    TraceCache,
    build_job_groups,
    build_jobs,
    cached_trace,
    execute_job,
)
from repro.exec.chaos import result_digest
from repro.exec.executor import uses_kernel
from repro.exec.store import using_store
from repro.exec.job import MultiPolicySimJob
from repro.exec.retry import STATUS_OK, STATUS_RESUMED
from repro.obs import MemorySink, PhaseProfiler, Tracer
from repro.policies import make_policy
from repro.sim.metrics import collect_metrics
from repro.sim.runner import build_simulator

BENCHMARKS = ("gzip", "mcf")
POLICIES = ("decrypt-only", "authen-then-commit", "authen-then-issue",
            "commit+obfuscation")   # last one: its own prepass variant
N, W = 800, 400

GROUPS = build_job_groups(BENCHMARKS, POLICIES,
                          num_instructions=N, warmup=W)
PLAIN = build_jobs(BENCHMARKS, POLICIES, num_instructions=N, warmup=W)

CONFIGS = {
    "base": SimConfig(),
    "hash-tree": SimConfig().with_secure(hash_tree_enabled=True),
    "obfuscation": SimConfig().with_secure(obfuscation_enabled=True),
    "tree+obfuscation": SimConfig().with_secure(
        hash_tree_enabled=True, obfuscation_enabled=True,
        remap_cache_bytes=1024, remap_shuffle_period=2),
}


def oracle(job):
    """The legacy reference model, called directly (no executor)."""
    trace = cached_trace(job.benchmark, job.trace_length,
                         job.effective_seed)
    core, _ = build_simulator(job.config, job.policy)
    result = core.run(trace, warmup=job.warmup)
    result.metrics = collect_metrics(result)
    return result


@pytest.fixture(scope="module")
def plain_results():
    return {job: oracle(job) for job in PLAIN}


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(2) as executor:
        yield executor


class TestGroupSpec:
    def test_member_ids_match_plain_jobs(self):
        grouped_ids = [member.job_id for group in GROUPS
                       for member in group.member_jobs]
        assert grouped_ids == [job.job_id for job in PLAIN]

    def test_group_validation(self):
        with pytest.raises(Exception):
            MultiPolicySimJob("mcf", ())
        with pytest.raises(Exception):
            MultiPolicySimJob("mcf", ("decrypt-only", "decrypt-only"))
        with pytest.raises(Exception):
            MultiPolicySimJob("mcf", ("no-such-policy",))

    def test_subset_preserves_member_ids(self):
        trimmed = GROUPS[0].subset(POLICIES[1:])
        assert [m.job_id for m in trimmed.member_jobs] == \
            [m.job_id for m in GROUPS[0].member_jobs[1:]]


class TestGroupedExecutionParity:
    def test_serial_grouped_identical_to_plain(self, plain_results):
        grouped = SerialExecutor().run(GROUPS)
        assert {job.job_id for job in grouped} == \
            {job.job_id for job in plain_results}
        by_id = {job.job_id: result for job, result
                 in plain_results.items()}
        for member, result in grouped.items():
            legacy = by_id[member.job_id]
            assert result.cycles == legacy.cycles
            assert result.stats.as_dict() == legacy.stats.as_dict()
            assert result.miss_summary == legacy.miss_summary

    def test_parallel_grouped_identical_to_plain(self, plain_results):
        with ParallelExecutor(2) as executor:
            grouped = executor.run(GROUPS)
        by_id = {job.job_id: result for job, result
                 in plain_results.items()}
        for member, result in grouped.items():
            legacy = by_id[member.job_id]
            assert result.cycles == legacy.cycles
            assert result.stats.as_dict() == legacy.stats.as_dict()

    def test_unit_walks_one_prepass_per_variant(self, tmp_path):
        """Under a hash tree, decrypt-only replays a tree-free walk,
        an authenticating policy the tree walk and commit+obfuscation
        the tree-plus-re-map walk: three prepasses, each stored under
        its own key, every member on the kernel and equal to the
        oracle."""
        policies = ("decrypt-only", "authen-then-commit",
                    "authen-then-issue", "commit+obfuscation")
        group = MultiPolicySimJob("mcf", policies,
                                  config=CONFIGS["hash-tree"],
                                  num_instructions=N, warmup=W)
        store = ArtifactStore(tmp_path / "store")
        with using_store(store):
            results = SerialExecutor(cache=TraceCache()).run([group])
        kernel = native.native_available()
        entries = store.stats()["tiers"]["prepass"]["entries"]
        assert entries == (3 if kernel else 0)
        for member, result in results.items():
            assert result_digest(result) == result_digest(oracle(member))
            assert result.accounting["model"] == (
                "kernel" if kernel else "no_kernel")

    def test_member_outcomes_recorded_individually(self):
        executor = SerialExecutor()
        executor.run(GROUPS)
        outcomes = executor.last_outcomes
        for group in GROUPS:
            for member in group.member_jobs:
                assert outcomes[member.job_id].status == STATUS_OK


class TestGroupResume:
    def test_journaled_members_resume(self, tmp_path, plain_results):
        store = ArtifactStore(tmp_path / "store")
        # Pre-seed the store with half of the first group's members,
        # as a plain per-job sweep would have written them.
        seeded = GROUPS[0].member_jobs[:2]
        for member in seeded:
            store.save_result(member, plain_results[
                next(j for j in plain_results if j.job_id
                     == member.job_id)])
        executor = SerialExecutor()
        with using_store(store):
            results = executor.run(GROUPS)
        # Full result set comes back...
        assert {job.job_id for job in results} == \
            {job.job_id for job in PLAIN}
        # ...but only the unseeded members were executed.
        seeded_ids = {member.job_id for member in seeded}
        for job_id, outcome in executor.last_outcomes.items():
            expected = (STATUS_RESUMED if job_id in seeded_ids
                        else STATUS_OK)
            assert outcome.status == expected
        # Resumed results are bit-identical to a fresh run.
        by_id = {job.job_id: result for job, result
                 in plain_results.items()}
        for member, result in results.items():
            assert result.cycles == by_id[member.job_id].cycles

    def test_rerun_after_full_journal_executes_nothing(self, tmp_path):
        with using_store(ArtifactStore(tmp_path / "store")):
            SerialExecutor().run(GROUPS)
            executor = SerialExecutor()
            results = executor.run(GROUPS)
        assert len(results) == len(PLAIN)
        assert all(outcome.status == STATUS_RESUMED
                   for outcome in executor.last_outcomes.values())


class TestGroupCacheAccounting:
    def test_one_generation_n_minus_one_hits(self):
        cache = TraceCache()
        group = GROUPS[0]
        SerialExecutor(cache=cache).run([group])
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == len(group.policies) - 1
        assert stats["group_reuses"] == len(group.policies) - 1
        assert stats["hit_rate"] == pytest.approx(
            (len(group.policies) - 1) / len(group.policies))

    def test_fresh_cache_stats_no_division_by_zero(self):
        assert TraceCache().stats()["hit_rate"] == 0.0

    def test_member_accounting_marks_reuse(self):
        cache = TraceCache()
        group = GROUPS[0]
        results = SerialExecutor(cache=cache).run([group])
        by_policy = {member.policy: result
                     for member, result in results.items()}
        first = by_policy[group.policies[0]]
        assert first.accounting["cache_hit"] is False
        for policy in group.policies[1:]:
            accounting = by_policy[policy].accounting
            assert accounting["cache_hit"] is True
            assert accounting["tracegen_seconds"] == 0.0


class TestUnitOfOne:
    """A plain SimJob runs through the unit pipeline as a unit of one."""

    def test_plain_job_is_a_unit_of_one(self):
        job = PLAIN[0]
        assert job.member_jobs == (job,)
        assert job.policies == (job.policy,)

    @pytest.mark.parametrize("decorrelate", [False, True],
                             ids=["shared-seed", "decorrelated"])
    @pytest.mark.parametrize("policy",
                             ["authen-then-commit", "commit+obfuscation"])
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_every_path_matches_oracle(self, pool, config_name, policy,
                                       decorrelate):
        job = SimJob("gzip", policy, config=CONFIGS[config_name],
                     num_instructions=N, warmup=W, decorrelate=decorrelate)
        expected = oracle(job)
        profiler = PhaseProfiler()
        runs = [SerialExecutor().run([job], profiler=profiler)[job],
                pool.run([job])[job],
                execute_job(job)]
        for result in runs:
            assert result_digest(result) == result_digest(expected)
            assert result.metrics.as_dict() == expected.metrics.as_dict()
        # The kernel runs exactly where the model rule says so; the
        # legacy model otherwise.
        kernel = uses_kernel(job.config, make_policy(policy))
        phases = profiler.as_dict()
        assert ("replay" in phases) == kernel
        assert ("measure" in phases) == (not kernel)

    @pytest.mark.parametrize("config_name,policy,native_off,traced,model", [
        ("base", "authen-then-commit", False, False, None),
        ("hash-tree", "authen-then-commit", False, False, None),
        ("base", "commit+obfuscation", False, False, None),
        ("obfuscation", "authen-then-commit", False, False, None),
        ("tree+obfuscation", "commit+obfuscation", False, False, None),
        ("tree+obfuscation", "decrypt-only", True, False, "no_kernel"),
        ("base", "authen-then-commit", True, False, "no_kernel"),
        ("base", "authen-then-commit", False, True, "traced"),
    ], ids=["kernel", "hash-tree", "commit+obfuscation", "obfuscation",
            "tree+obfuscation", "tree+obfuscation-REPRO_NATIVE=0",
            "REPRO_NATIVE=0", "traced"])
    def test_accounting_names_the_model(self, monkeypatch, config_name,
                                        policy, native_off, traced,
                                        model):
        """Each fresh result records the model that ran it, or why it
        left the kernel -- and the choice never moves a digest."""
        if model is None:
            model = "kernel" if native.native_available() else "no_kernel"
        job = SimJob("gzip", policy, config=CONFIGS[config_name],
                     num_instructions=N, warmup=W)
        if native_off:
            monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            result = execute_job(
                job, tracer=Tracer([MemorySink()]) if traced else None,
                cache=TraceCache())
        finally:
            monkeypatch.undo()
            native.reset()
        assert result.accounting["model"] == model
        assert result_digest(result) == result_digest(oracle(job))
