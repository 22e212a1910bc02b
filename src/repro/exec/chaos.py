"""Chaos harness: deterministically inject faults, prove recovery.

The paper argues a secure processor must keep producing correct results
while memory misbehaves; this module holds the sweep infrastructure to
the same standard.  Instead of hoping the retry/resume machinery works,
:func:`run_chaos` *injects* the failure modes -- killed workers, raised
exceptions, artificial hangs, truncated and bit-flipped entries in the
store's result tier (the record resume trusts), plus the infrastructure
faults (a pool initializer that dies, a result publish hitting ENOSPC)
-- from a seeded schedule, then asserts the sweep still converges to
results bit-identical to a fault-free serial run (cycles, IPC and the
sha256 stats digest of every job).
:func:`run_figures_chaos` holds ``repro figures`` to the same standard:
a worker kill mid-regeneration must still yield byte-identical text
artifacts.  :func:`run_store_chaos` does the same for the persistent
artifact store: truncated and bit-flipped entries plus a stale
single-flight lock from a dead process must cost quarantine and one
regeneration, never a wrong number.  :func:`run_dist_chaos` extends the
standard across hosts: a worker daemon SIGKILLed mid-unit and a fleet
that vanishes entirely must both heal to results bit-identical to
``SerialExecutor`` -- with the victim's leased jobs re-run exactly once.

Determinism is the point: a :class:`ChaosPlan` is a pure function of
``(job list, seed, fault kinds)``, so a failing chaos run is exactly
reproducible with the same seed.  Fault injection rides the executors'
attempt hook (installed in pool workers via the pool initializer, and in
the driver for serial/degraded execution); job faults fire on a job's
*first* attempt only, so the retry path -- not luck -- is what heals the
sweep.
"""

import dataclasses
import errno
import hashlib
import json
import os
import shutil
import signal
import socket
import time

from repro.errors import ReproError
from repro.exec.executor import (
    ParallelExecutor,
    SerialExecutor,
    set_attempt_hook,
)
from repro.exec.job import build_jobs
from repro.exec.retry import (
    RETRY_THEN_SKIP,
    STATUS_RESUMED,
    FailurePolicy,
)
from repro.exec.store import ArtifactStore, atomic_write_text, using_store
from repro.obs.events import BACKEND_DEGRADED, JOB_FAILED, JOB_RETRY
from repro.util.rng import DeterministicRng


class InjectedFault(ReproError):
    """The exception a chaos schedule raises inside a job attempt."""


# ---- fault kinds ------------------------------------------------------

FAULT_WORKER_KILL = "worker-kill"          # SIGKILL the worker process
FAULT_JOB_EXCEPTION = "job-exception"      # raise InjectedFault
FAULT_HANG = "hang"                        # sleep past the timeout
FAULT_RESULT_TRUNCATE = "result-truncate"  # tear a stored result entry
FAULT_RESULT_BITFLIP = "result-bitflip"    # flip one stored digit
FAULT_POOL_INIT = "pool-init-failure"      # first pool's initializer dies
FAULT_STORE_ENOSPC = "store-enospc"        # a result publish hits ENOSPC

JOB_FAULTS = (FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG)
RESULT_FAULTS = (FAULT_RESULT_TRUNCATE, FAULT_RESULT_BITFLIP)
#: Infrastructure faults: not tied to one job.  ``pool-init-failure``
#: breaks the first worker pool while it is still being populated (the
#: rebuild must heal it); ``store-enospc`` makes one mid-sweep
#: ``save_result`` hit ``OSError(ENOSPC)`` (the sweep must finish, and
#: the rerun must re-simulate the job that was never recorded).
INFRA_FAULTS = (FAULT_POOL_INIT, FAULT_STORE_ENOSPC)
ALL_FAULTS = JOB_FAULTS + RESULT_FAULTS + INFRA_FAULTS


class ChaosPlan:
    """A seeded, picklable fault schedule (the executors' attempt hook).

    ``job_faults`` maps job_id -> fault kind, fired on that job's first
    attempt only.  The plan records the driver's pid so a worker-kill
    fault never kills the driver itself: executed in-process (serial
    backend or degraded pool) it downgrades to an :class:`InjectedFault`.
    """

    def __init__(self, seed, job_faults, hang_seconds=2.0,
                 result_faults=(), infra_faults=()):
        self.seed = seed
        self.job_faults = dict(job_faults)
        self.hang_seconds = hang_seconds
        self.result_faults = tuple(result_faults)
        self.infra_faults = tuple(infra_faults)
        self.init_sentinel = None
        self.driver_pid = os.getpid()

    def fault_for(self, job, attempt):
        """The fault to fire for this attempt (None for no fault).

        Keys in ``job_faults`` may be job_ids or ``benchmark/policy``
        pairs -- the latter lets callers (the figures chaos smoke) target
        a job without precomputing its configuration-dependent job_id.
        Grouped execution keeps this targeting surface: the executors
        fire the attempt hook once per *member* evaluation, so a fault
        keyed by a member's job_id or cell lands inside whichever
        grouped job carries it.
        """
        if attempt != 1:
            return None
        kind = self.job_faults.get(job.job_id)
        if kind is None:
            kind = self.job_faults.get("%s/%s"
                                       % (job.benchmark, job.policy))
        return kind

    def arm_init_fault(self, sentinel_path):
        """Arm ``pool-init-failure``: the first worker whose initializer
        creates ``sentinel_path`` raises, breaking its whole pool; every
        later initializer (the rebuilt pool) finds the sentinel and
        succeeds -- so the fault fires exactly once per campaign."""
        self.init_sentinel = sentinel_path

    def init_fault(self):
        """Fire the armed pool-initializer fault (worker side)."""
        if (FAULT_POOL_INIT not in self.infra_faults
                or self.init_sentinel is None):
            return
        try:
            open(self.init_sentinel, "x").close()
        except FileExistsError:
            return
        raise InjectedFault("injected pool-initializer failure "
                            "(first pool only)")

    def __call__(self, job, attempt):
        kind = self.fault_for(job, attempt)
        if kind is None:
            return
        if kind == FAULT_WORKER_KILL:
            if os.getpid() == self.driver_pid:
                raise InjectedFault(
                    "worker-kill downgraded to exception in-process "
                    "(job %s)" % job.job_id)
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == FAULT_HANG:
            time.sleep(self.hang_seconds)
            raise InjectedFault(
                "hang outlived its %.2fs sleep without being timed out "
                "(job %s)" % (self.hang_seconds, job.job_id))
        elif kind == FAULT_JOB_EXCEPTION:
            raise InjectedFault("injected exception (job %s, attempt %d)"
                                % (job.job_id, attempt))


def _install_in_worker(plan):
    """Pool initializer: arm the plan in a freshly forked worker.

    Also the injection point for ``pool-init-failure``: the raise
    happens here, while the pool is still being populated, which is the
    exact window a real initializer bug (bad import, missing mount)
    would hit.
    """
    set_attempt_hook(plan)
    plan.init_fault()


def build_plan(jobs, seed, faults=ALL_FAULTS, hang_seconds=2.0):
    """Derive the deterministic fault schedule for ``jobs``.

    Each requested job-fault kind is assigned to one distinct job,
    chosen by a named RNG stream off ``seed`` -- same inputs, same
    schedule, on every machine.
    """
    unknown = set(faults) - set(ALL_FAULTS)
    if unknown:
        raise ReproError("unknown fault kind(s): %s (expected %s)"
                         % (", ".join(sorted(unknown)),
                            ", ".join(ALL_FAULTS)))
    rng = DeterministicRng(seed).stream("chaos.targets")
    available = [job.job_id for job in jobs]
    job_faults = {}
    for kind in JOB_FAULTS:
        if kind not in faults or not available:
            continue
        job_faults[available.pop(rng.randrange(len(available)))] = kind
    result_faults = tuple(k for k in RESULT_FAULTS if k in faults)
    infra_faults = tuple(k for k in INFRA_FAULTS if k in faults)
    return ChaosPlan(seed, job_faults, hang_seconds=hang_seconds,
                     result_faults=result_faults,
                     infra_faults=infra_faults)


def corrupt_results(store_root, faults, seed):
    """Apply the result faults to a store's result tier; returns notes.

    Each fault hits a different seed-chosen entry.  ``result-truncate``
    replays a torn write: the entry is cut in half.  ``result-bitflip``
    replays silent media corruption: one digit in the entry gets its
    low bit flipped -- the payload may stay syntactically valid JSON,
    which is exactly the case only the CRC32 field can catch.
    """
    directory = os.path.join(os.fspath(store_root), "results")
    try:
        names = sorted(name for name in os.listdir(directory)
                       if ".tmp" not in name)
    except OSError:
        return []
    rng = DeterministicRng(seed).stream("chaos.results")
    applied = []
    for kind in RESULT_FAULTS:
        if kind not in faults or not names:
            continue
        name = names.pop(rng.randrange(len(names)))
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            data = handle.read()
        if kind == FAULT_RESULT_TRUNCATE:
            data = data[:len(data) // 2]
            applied.append("truncated result entry %s to %d bytes"
                           % (name[:12], len(data)))
        else:
            digits = [i for i, byte in enumerate(data)
                      if chr(byte).isdigit()]
            at = digits[rng.randrange(len(digits))]
            data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
            applied.append("flipped low bit of byte %d in result entry %s"
                           % (at, name[:12]))
        with open(path, "wb") as handle:
            handle.write(data)
    return applied


class EnospcStore(ArtifactStore):
    """An :class:`ArtifactStore` whose ``fail_at``-th result publish
    raises ``ENOSPC`` -- a full disk mid-sweep.

    Only that one write fails: ``save_result`` counts it and the run
    carries on from memory, so the job is simply not resumable.
    """

    def __init__(self, root, fail_at=2, **kwargs):
        super().__init__(root, **kwargs)
        self.fail_at = fail_at
        self.writes = 0

    def _write_text(self, path, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        atomic_write_text(path, text)


def result_digest(result):
    """sha256 over everything a run asserts: cycles, IPC inputs, stats."""
    payload = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stats": result.stats.as_dict(),
        "miss_rates": dict(result.miss_summary),
    }
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclasses.dataclass
class ChaosReport:
    """Outcome of one chaos campaign (see :func:`run_chaos`)."""

    identical: bool
    seed: int
    faults: tuple
    total_jobs: int
    injected: dict          # job_id -> fault kind
    cells: dict             # job_id -> (benchmark, policy)
    result_corruption: list
    attempts: dict          # job_id -> attempts across both phases
    failures: list          # JobResult dicts for terminal failures
    mismatches: list        # job_ids whose digest diverged
    quarantined_entries: int
    resumed_jobs: int
    reexecuted_jobs: int
    pool_rebuilds: int
    degraded: bool
    retry_events: int
    failed_events: int
    degraded_events: int
    stats_digest: str       # sha256 over the per-job digests, in order
    store_dir: str
    store_write_errors: int = 0

    def as_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = ["chaos campaign: seed=%d faults=%s"
                 % (self.seed, ",".join(self.faults))]
        lines.append("  injected: %s" % (
            ", ".join("%s->%s" % (kind, job_id)
                      for job_id, kind in sorted(self.injected.items(),
                                                 key=lambda kv: kv[1]))
            or "none"))
        for note in self.result_corruption:
            lines.append("  store: %s" % note)
        retried = sum(1 for n in self.attempts.values() if n > 1)
        lines.append("  %d job(s): %d retried, %d resumed from the store, "
                     "%d re-executed on the rerun"
                     % (self.total_jobs, retried, self.resumed_jobs,
                        self.reexecuted_jobs))
        lines.append("  pool rebuilds: %d%s; events: %d retry, %d "
                     "failed, %d degraded"
                     % (self.pool_rebuilds,
                        " (degraded to serial)" if self.degraded else "",
                        self.retry_events, self.failed_events,
                        self.degraded_events))
        if self.store_write_errors:
            lines.append("  store publish failed mid-sweep (%d write "
                         "error(s)): run finished, those jobs re-ran"
                         % self.store_write_errors)
        if self.quarantined_entries:
            lines.append("  quarantined %d result entr%s -> %s"
                         % (self.quarantined_entries,
                            "y" if self.quarantined_entries == 1
                            else "ies",
                            os.path.join(self.store_dir, "quarantine")))
        if self.failures:
            lines.append("  TERMINAL FAILURES: %s" % self.failures)
        lines.append("  stats digest: %s" % self.stats_digest)
        lines.append("verdict: %s" % (
            "bit-identical to the fault-free serial run"
            if self.identical else
            "DIVERGED from the fault-free serial run: %s"
            % (self.mismatches or "(missing results)")))
        return "\n".join(lines)


def _fresh_dir(path):
    """``path`` as an empty directory (a stale campaign's is removed)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_chaos(benchmarks=("gzip",),
              policies=("decrypt-only", "authen-then-commit",
                        "authen-then-issue"),
              num_instructions=1500, warmup=750, seed=0,
              faults=ALL_FAULTS, workers=2, hang_seconds=2.0,
              timeout=0.75, max_attempts=4, workdir=None, tracer=None):
    """Run one chaos campaign; returns a :class:`ChaosReport`.

    Three phases:

    1. *Reference*: the job grid runs clean, serial and store-free;
       per-job digests are the ground truth.
    2. *Fault phase*: the same grid runs against a fresh store with the
       seeded job faults armed (pool workers get the plan via the pool
       initializer; the driver gets it for serial/degraded execution)
       under a retry-then-skip policy with a per-attempt timeout.
    3. *Recovery phase*: the store's result entries are corrupted per
       the schedule, then the grid is re-run against it -- quarantined
       and never-published results must be re-simulated, everything
       else resumed.

    The campaign passes when phase 3's results are bit-identical to
    phase 1's for every job and nothing failed terminally.
    """
    from repro.obs import MemorySink, Tracer

    jobs = build_jobs(list(benchmarks), list(policies),
                      num_instructions=num_instructions, warmup=warmup)
    with using_store(None):
        reference = SerialExecutor().run(jobs)
    ref_digests = {job.job_id: result_digest(reference[job])
                   for job in jobs}

    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(workdir, exist_ok=True)
    store_dir = _fresh_dir(os.path.join(workdir, "store"))

    plan = build_plan(jobs, seed, faults, hang_seconds=hang_seconds)
    sentinel = os.path.join(workdir, "pool-init.sentinel")
    if os.path.exists(sentinel):
        os.remove(sentinel)
    if FAULT_POOL_INIT in plan.infra_faults:
        plan.arm_init_fault(sentinel)
    policy = FailurePolicy(mode=RETRY_THEN_SKIP,
                           max_attempts=max_attempts, timeout=timeout,
                           backoff_base=0.01, backoff_max=0.05,
                           jitter_seed=seed)
    sink = MemorySink()
    own_tracer = tracer if tracer is not None else Tracer([sink])

    # Phase 2: run with faults armed.
    attempts = {}
    failures = []
    store = (EnospcStore(store_dir)
             if FAULT_STORE_ENOSPC in plan.infra_faults
             else ArtifactStore(store_dir))
    previous = set_attempt_hook(plan)
    try:
        if workers and workers > 1:
            executor = ParallelExecutor(
                workers, initializer=_install_in_worker,
                initargs=(plan,))
        else:
            executor = SerialExecutor()
        with using_store(store), executor:
            executor.run(jobs, tracer=own_tracer, failure_policy=policy)
            for job_id, outcome in executor.last_outcomes.items():
                attempts[job_id] = outcome.attempts
                if outcome.status == "failed":
                    failures.append(outcome.as_dict())
            pool_rebuilds = getattr(executor, "rebuilds", 0)
            degraded = getattr(executor, "degraded", False)
    finally:
        set_attempt_hook(previous)

    # Phase 3: corrupt stored results, then heal by resuming (no faults
    # armed: the hook is restored, workers are fresh).
    corruption = corrupt_results(store_dir, plan.result_faults, seed)
    heal_store = ArtifactStore(store_dir)
    healer = SerialExecutor()
    with using_store(heal_store):
        final = healer.run(jobs, tracer=own_tracer, failure_policy=policy)
    resumed = reexecuted = 0
    for job_id, outcome in healer.last_outcomes.items():
        if outcome.status == STATUS_RESUMED:
            resumed += 1
        else:
            reexecuted += 1
            attempts[job_id] = attempts.get(job_id, 0) + outcome.attempts
            if outcome.status == "failed":
                failures.append(outcome.as_dict())

    mismatches = []
    digests = []
    for job in jobs:
        if job not in final:
            mismatches.append(job.job_id)
            continue
        digest = result_digest(final[job])
        digests.append(digest)
        if digest != ref_digests[job.job_id]:
            mismatches.append(job.job_id)
    stats_digest = hashlib.sha256(
        "".join(digests).encode()).hexdigest()

    events = sink.events if tracer is None else ()
    return ChaosReport(
        identical=not mismatches and not failures,
        seed=seed,
        faults=tuple(faults),
        total_jobs=len(jobs),
        injected=dict(plan.job_faults),
        cells={job.job_id: (job.benchmark, job.policy) for job in jobs},
        result_corruption=corruption,
        attempts=attempts,
        failures=failures,
        mismatches=mismatches,
        quarantined_entries=heal_store.counters["quarantined"],
        resumed_jobs=resumed,
        reexecuted_jobs=reexecuted,
        pool_rebuilds=pool_rebuilds,
        degraded=degraded,
        retry_events=sum(1 for e in events if e.kind == JOB_RETRY),
        failed_events=sum(1 for e in events if e.kind == JOB_FAILED),
        degraded_events=sum(1 for e in events
                            if e.kind == BACKEND_DEGRADED),
        stats_digest=stats_digest,
        store_dir=store_dir,
        store_write_errors=store.counters["write_errors"],
    )


@dataclasses.dataclass
class GroupChaosReport:
    """Outcome of one :func:`run_group_chaos` campaign."""

    identical: bool
    seed: int
    benchmarks: tuple
    policies: tuple
    victim: str             # "benchmark/policy" cell the faults target
    total_members: int
    pool_rebuilds: int      # worker-kill phase pool losses
    degraded: bool          # worker-kill phase fell back to serial
    published_before_kill: int
    resume_exact: bool      # resume re-ran ONLY the unfinished members
    resumed_members: int
    reexecuted_members: int
    mismatches: list        # member job_ids whose digest diverged
    failures: list          # terminal JobResult dicts from any phase
    stats_digest: str
    workdir: str

    def as_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = ["grouped chaos campaign: seed=%d victim=%s"
                 % (self.seed, self.victim)]
        lines.append("  %d benchmark group(s) x %d policies "
                     "(%d member evaluations)"
                     % (len(self.benchmarks), len(self.policies),
                        self.total_members))
        lines.append("  worker-kill phase: %d pool rebuild(s)%s, "
                     "results complete"
                     % (self.pool_rebuilds,
                        " (degraded to serial)" if self.degraded
                        else ""))
        lines.append("  mid-group kill: %d member(s) stored before "
                     "the fault; resume re-ran %d, resumed %d -- %s"
                     % (self.published_before_kill,
                        self.reexecuted_members, self.resumed_members,
                        "exactly the unfinished members"
                        if self.resume_exact else
                        "WRONG member set re-executed"))
        if self.failures:
            lines.append("  TERMINAL FAILURES: %s" % self.failures)
        lines.append("  stats digest: %s" % self.stats_digest)
        lines.append("verdict: %s" % (
            "bit-identical to the fault-free per-job run"
            if self.identical else
            "DIVERGED from the fault-free per-job run: %s"
            % (self.mismatches or "(resume or failure gate)")))
        return "\n".join(lines)


def run_group_chaos(benchmarks=("gzip", "mcf"),
                    policies=("decrypt-only", "authen-then-commit",
                              "authen-then-issue", "authen-then-write"),
                    num_instructions=1500, warmup=750, seed=0,
                    workers=2, timeout=30.0, max_attempts=4,
                    workdir=None):
    """Chaos campaign for the grouped (decode once, evaluate N) path.

    Three phases against a fault-free *per-job* serial reference:

    1. *Worker-kill phase*: the grouped sweep runs on a worker pool with
       a ``worker-kill`` armed against a mid-group member (second
       policy of the first benchmark's group).  The pool keeps dying --
       a killed worker never charges an attempt -- until the executor
       degrades to in-process execution, where the kill downgrades to
       an :class:`InjectedFault` the retry policy heals.  Results must
       come back complete and bit-identical.
    2. *Mid-group kill*: the same grouped sweep runs serially under
       fail-fast with an exception armed against the same member; the
       run aborts mid-group, leaving a store holding exactly the
       members that completed before the fault (members are published
       incrementally).
    3. *Resume gate*: the grouped sweep re-runs against that store.
       The gate: every stored member resumes from disk, **only** the
       unfinished evaluations re-run, and the merged results are
       bit-identical to the reference.
    """
    from repro.exec.job import build_job_groups

    benchmarks = list(benchmarks)
    policies = list(policies)
    if len(policies) < 3:
        raise ReproError("run_group_chaos needs >= 3 policies so the "
                         "fault can land mid-group")
    jobs = build_jobs(benchmarks, policies,
                      num_instructions=num_instructions, warmup=warmup)
    groups = build_job_groups(benchmarks, policies,
                              num_instructions=num_instructions,
                              warmup=warmup)
    with using_store(None):
        reference = SerialExecutor().run(jobs)
    ref_digests = {job.job_id: result_digest(reference[job])
                   for job in jobs}

    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-groupchaos-")
    os.makedirs(workdir, exist_ok=True)

    victim_index = 1   # second member: mid-group, never the first
    victim = "%s/%s" % (benchmarks[0], policies[victim_index])
    failures = []

    # Phase 1: worker-kill against the victim member, grouped, on a
    # pool.  Heals via pool rebuild -> degradation -> in-process retry.
    plan = ChaosPlan(seed, {victim: FAULT_WORKER_KILL})
    retry_policy = FailurePolicy(mode=RETRY_THEN_SKIP,
                                 max_attempts=max_attempts,
                                 timeout=timeout, backoff_base=0.01,
                                 backoff_max=0.05, jitter_seed=seed)
    kill_store = ArtifactStore(
        _fresh_dir(os.path.join(workdir, "group-kill-store")))
    previous = set_attempt_hook(plan)
    try:
        if workers and workers > 1:
            executor = ParallelExecutor(
                workers, initializer=_install_in_worker,
                initargs=(plan,))
        else:
            executor = SerialExecutor()
        with using_store(kill_store), executor:
            killed = executor.run(groups, failure_policy=retry_policy)
            pool_rebuilds = getattr(executor, "rebuilds", 0)
            degraded = getattr(executor, "degraded", False)
            failures.extend(outcome.as_dict() for outcome
                            in executor.failures.values())
    finally:
        set_attempt_hook(previous)
    kill_mismatches = [
        member.job_id
        for group in groups for member in group.member_jobs
        if member not in killed
        or result_digest(killed[member]) != ref_digests[member.job_id]]

    # Phase 2: abort mid-group under fail-fast, leaving a partly
    # filled store.
    resume_store = ArtifactStore(
        _fresh_dir(os.path.join(workdir, "group-resume-store")))
    plan2 = ChaosPlan(seed, {victim: FAULT_JOB_EXCEPTION})
    previous = set_attempt_hook(plan2)
    try:
        with using_store(resume_store):
            SerialExecutor().run(groups, failure_policy=FailurePolicy())
        raise ReproError("mid-group fault never fired (victim %s "
                         "matched no member)" % victim)
    except InjectedFault:
        pass
    finally:
        set_attempt_hook(previous)
    published = {member.job_id for group in groups
                 for member in group.member_jobs
                 if os.path.exists(resume_store.result_path(member))}
    expected_prefix = {member.job_id for member
                       in groups[0].member_jobs[:victim_index]}

    # Phase 3: resume.  Only the unfinished members may re-run.
    healer = SerialExecutor()
    with using_store(resume_store):
        final = healer.run(groups, failure_policy=retry_policy)
    resumed = {job_id for job_id, outcome
               in healer.last_outcomes.items()
               if outcome.status == STATUS_RESUMED}
    reexecuted = {job_id for job_id, outcome
                  in healer.last_outcomes.items()
                  if outcome.status != STATUS_RESUMED}
    failures.extend(outcome.as_dict() for outcome
                    in healer.failures.values())
    resume_exact = (published == expected_prefix
                    and resumed == published
                    and reexecuted == set(ref_digests) - published)

    mismatches = []
    digests = []
    for job in jobs:
        match = next((result for member, result in final.items()
                      if member.job_id == job.job_id), None)
        if match is None:
            mismatches.append(job.job_id)
            continue
        digest = result_digest(match)
        digests.append(digest)
        if digest != ref_digests[job.job_id]:
            mismatches.append(job.job_id)
    mismatches.extend(job_id for job_id in kill_mismatches
                      if job_id not in mismatches)
    stats_digest = hashlib.sha256("".join(digests).encode()).hexdigest()

    return GroupChaosReport(
        identical=(not mismatches and not failures and resume_exact),
        seed=seed,
        benchmarks=tuple(benchmarks),
        policies=tuple(policies),
        victim=victim,
        total_members=len(jobs),
        pool_rebuilds=pool_rebuilds,
        degraded=degraded,
        published_before_kill=len(published),
        resume_exact=resume_exact,
        resumed_members=len(resumed),
        reexecuted_members=len(reexecuted),
        mismatches=mismatches,
        failures=failures,
        stats_digest=stats_digest,
        workdir=workdir,
    )


@dataclasses.dataclass
class FiguresChaosReport:
    """Outcome of one :func:`run_figures_chaos` campaign."""

    identical: bool
    seed: int
    figures: tuple
    benchmarks: tuple
    injected: dict          # target key -> fault kind
    mismatches: list        # artifact names whose bytes diverged
    failures: int           # terminal failures in the faulted run
    pool_rebuilds: int
    degraded: bool
    reference_dir: str
    faulted_dir: str

    def as_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = ["figures chaos campaign: seed=%d figures=%s"
                 % (self.seed, ",".join(self.figures))]
        lines.append("  injected: %s" % (
            ", ".join("%s->%s" % (kind, key)
                      for key, kind in sorted(self.injected.items(),
                                              key=lambda kv: kv[1]))
            or "none"))
        lines.append("  pool rebuilds: %d%s; terminal failures: %d"
                     % (self.pool_rebuilds,
                        " (degraded to serial)" if self.degraded else "",
                        self.failures))
        lines.append("verdict: %s" % (
            "artifacts byte-identical to the fault-free serial run"
            if self.identical else
            "artifacts DIVERGED from the fault-free serial run: %s"
            % (self.mismatches or "(terminal failures)")))
        return "\n".join(lines)


def run_figures_chaos(figures=("fig8",), benchmarks=("gzip", "mcf"),
                      num_instructions=1200, warmup=600, seed=0,
                      workers=2, timeout=30.0, max_attempts=4,
                      target_policy="authen-then-issue", workdir=None):
    """Chaos smoke for ``repro figures``: kill a worker mid-regeneration
    under a retry policy, assert the artifacts come out byte-identical.

    Two phases: a clean serial :func:`~repro.experiments.figures.\
run_figures` produces the reference artifacts, then the same figure set
    regenerates on a worker pool with a ``worker-kill`` armed against
    the first benchmark's first job (targeted by ``benchmark/policy``
    key, so no job_id precomputation).  The kill never charges an
    attempt, so the pool keeps dying until the executor degrades to
    serial execution -- where the plan downgrades the kill to an
    :class:`InjectedFault` that the retry policy heals.  The campaign
    passes when every ``<name>.txt`` is byte-for-byte the reference and
    nothing failed terminally.
    """
    from repro.experiments.figures import ARTIFACTS, run_figures

    figures = tuple(figures)
    unknown = set(figures) - set(ARTIFACTS)
    if unknown:
        raise ReproError("unknown figure(s): %s (expected %s)"
                         % (", ".join(sorted(unknown)),
                            ", ".join(ARTIFACTS)))
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-figchaos-")
    os.makedirs(workdir, exist_ok=True)
    scale = dict(num_instructions=num_instructions, warmup=warmup,
                 benchmarks=tuple(benchmarks))

    reference = run_figures(figures, os.path.join(workdir, "reference"),
                            jobs=1, **scale)

    # ``target_policy`` must name a policy the chosen figure set really
    # sweeps (the default matches fig8's reference policy) -- a key that
    # matches no job would make the campaign pass without ever injecting.
    target = "%s/%s" % (benchmarks[0], target_policy)
    plan = ChaosPlan(seed, {target: FAULT_WORKER_KILL})
    policy = FailurePolicy(mode=RETRY_THEN_SKIP,
                           max_attempts=max_attempts, timeout=timeout,
                           backoff_base=0.01, backoff_max=0.05,
                           jitter_seed=seed)
    previous = set_attempt_hook(plan)
    try:
        with ParallelExecutor(workers, initializer=_install_in_worker,
                              initargs=(plan,)) as executor:
            faulted = run_figures(
                figures, os.path.join(workdir, "faulted"),
                executor=executor, failure_policy=policy, **scale)
            pool_rebuilds = executor.rebuilds
            degraded = executor.degraded
    finally:
        set_attempt_hook(previous)

    mismatches = []
    for name in figures:
        with open(reference["artifact_paths"][name], "rb") as handle:
            want = handle.read()
        with open(faulted["artifact_paths"][name], "rb") as handle:
            got = handle.read()
        if want != got:
            mismatches.append(name)
    failures = faulted["total_failures"]
    return FiguresChaosReport(
        identical=not mismatches and not failures,
        seed=seed,
        figures=figures,
        benchmarks=tuple(benchmarks),
        injected=dict(plan.job_faults),
        mismatches=mismatches,
        failures=failures,
        pool_rebuilds=pool_rebuilds,
        degraded=degraded,
        reference_dir=os.path.join(workdir, "reference"),
        faulted_dir=os.path.join(workdir, "faulted"),
    )


@dataclasses.dataclass
class StoreChaosReport:
    """Outcome of one :func:`run_store_chaos` campaign."""

    identical: bool
    seed: int
    benchmarks: tuple
    policies: tuple
    injected: dict          # entry basename -> fault kind
    quarantined: int        # entries quarantined during the heal run
    lock_breaks: int        # stale single-flight locks broken
    store_hits: int         # heal-run jobs served from intact entries
    regenerated: int        # heal-run jobs that had to re-simulate
    total_jobs: int
    mismatches: list        # job_ids whose digest diverged (any phase)
    stats_digest: str
    workdir: str

    def as_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = ["store chaos campaign: seed=%d" % self.seed]
        lines.append("  %d benchmark(s) x %d policies (%d jobs) through "
                     "a populated artifact store"
                     % (len(self.benchmarks), len(self.policies),
                        self.total_jobs))
        lines.append("  injected: %s" % (
            ", ".join("%s->%s" % (kind, name[:12])
                      for name, kind in sorted(self.injected.items(),
                                               key=lambda kv: kv[1]))
            or "none"))
        lines.append("  heal run: %d quarantined, %d stale lock(s) "
                     "broken, %d store hit(s), %d regenerated"
                     % (self.quarantined, self.lock_breaks,
                        self.store_hits, self.regenerated))
        lines.append("  stats digest: %s" % self.stats_digest)
        lines.append("verdict: %s" % (
            "bit-identical to the store-free run; corruption was "
            "quarantined and regenerated"
            if self.identical else
            "FAILED: %s" % (self.mismatches
                            or "(quarantine/lock-break gate)")))
        return "\n".join(lines)


def _exit_immediately():
    """Target whose prompt death leaves a provably-dead lock owner pid."""


def run_store_chaos(benchmarks=("gzip", "mcf"),
                    policies=("decrypt-only", "authen-then-commit",
                              "authen-then-issue"),
                    num_instructions=1500, warmup=750, seed=0,
                    workdir=None):
    """Chaos campaign for the persistent artifact store.

    Four phases, all serial (the store's cross-process behaviour is
    exercised through real files, not a pool):

    1. *Reference*: the sweep with no store -- the digests every later
       phase must reproduce.
    2. *Populate*: the same sweep against an empty store (cold), filling
       the trace and result tiers.
    3. *Corrupt*: the first job's trace entry is truncated mid-payload,
       its result entry gets one byte flipped, and a single-flight lock
       for the truncated trace is planted with the pid of a process that
       has already exited -- the killed-worker-left-a-lock case.
    4. *Heal*: the sweep reruns against the damaged store.  The gate:
       both corrupt entries are quarantined (never misread), the stale
       lock is broken rather than waited out, every undamaged job is
       served from the store, exactly the damaged job re-simulates, and
       all digests are bit-identical to the reference.
    """
    import multiprocessing

    from repro.exec.cache import TraceCache

    benchmarks = list(benchmarks)
    policies = list(policies)
    jobs = build_jobs(benchmarks, policies,
                      num_instructions=num_instructions, warmup=warmup)
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-storechaos-")
    os.makedirs(workdir, exist_ok=True)
    store_dir = os.path.join(workdir, "store")

    def run_jobs(store):
        executor = SerialExecutor(cache=TraceCache())
        with using_store(store):
            results = executor.run(jobs)
        return executor, results

    _, reference = run_jobs(None)
    ref_digests = {job.job_id: result_digest(reference[job])
                   for job in jobs}

    populate_store = ArtifactStore(store_dir)
    _, populated = run_jobs(populate_store)
    mismatches = [job.job_id for job in jobs
                  if result_digest(populated[job])
                  != ref_digests[job.job_id]]

    # Corruption targets one job end to end: flipping its result forces
    # a re-simulation, which forces a read of its (truncated) trace,
    # which forces regeneration under the (stale-locked) single flight.
    victim = jobs[0]
    trace_entry = populate_store.trace_name(
        victim.benchmark, victim.trace_length, victim.effective_seed)
    trace_path = os.path.join(store_dir, "traces", trace_entry)
    with open(trace_path, "r+b") as handle:
        handle.truncate(max(os.path.getsize(trace_path) // 3, 40))
    result_entry = populate_store.result_name(victim) + ".json"
    result_path = os.path.join(store_dir, "results", result_entry)
    with open(result_path, "r+b") as handle:
        body = bytearray(handle.read())
        body[len(body) // 2] ^= 0x01
        handle.seek(0)
        handle.write(bytes(body))
    proc = multiprocessing.Process(target=_exit_immediately)
    proc.start()
    proc.join()
    lock_path = os.path.join(store_dir, "locks",
                             "traces-%s.lock" % trace_entry)
    with open(lock_path, "w") as handle:
        # Recording our own hostname keeps the pid-liveness check in
        # play: locks from *foreign* hosts age out instead (their pids
        # mean nothing here), which is its own satellite-tested path.
        json.dump({"pid": proc.pid, "host": socket.gethostname(),
                   "created": time.time()}, handle)
    injected = {trace_entry: "entry-truncate",
                result_entry: "entry-bitflip",
                os.path.basename(lock_path): "stale-lock"}

    heal_store = ArtifactStore(store_dir)
    healer, healed = run_jobs(heal_store)
    for job in jobs:
        if (job not in healed
                or result_digest(healed[job]) != ref_digests[job.job_id]):
            if job.job_id not in mismatches:
                mismatches.append(job.job_id)
    store_hits = sum(1 for outcome in healer.last_outcomes.values()
                     if outcome.store_hit)
    quarantined = heal_store.counters["quarantined"]
    lock_breaks = heal_store.counters["lock_breaks"]
    digests = [ref_digests[job.job_id] for job in jobs]
    stats_digest = hashlib.sha256("".join(digests).encode()).hexdigest()

    return StoreChaosReport(
        identical=(not mismatches
                   and quarantined >= 2
                   and lock_breaks >= 1
                   and store_hits == len(jobs) - 1),
        seed=seed,
        benchmarks=tuple(benchmarks),
        policies=tuple(policies),
        injected=injected,
        quarantined=quarantined,
        lock_breaks=lock_breaks,
        store_hits=store_hits,
        regenerated=len(jobs) - store_hits,
        total_jobs=len(jobs),
        mismatches=mismatches,
        stats_digest=stats_digest,
        workdir=workdir,
    )


@dataclasses.dataclass
class DistChaosReport:
    """Outcome of one :func:`run_dist_chaos` campaign."""

    identical: bool
    seed: int
    benchmarks: tuple
    policies: tuple
    total_members: int
    # host-death campaign
    host_losses: int        # hosts the driver declared dead
    lease_breaks: int       # expired leases released back to the spool
    victim_records: int     # members the victim published before dying
    exactly_once: bool      # every member published once across hosts
    duplicates: list        # member job_ids published more than once
    death_mismatches: list  # digest divergence in the host-death phase
    # degrade-to-local campaign
    degraded_ok: bool       # empty fleet finished in-process, identical
    failures: list          # terminal JobResult dicts from any phase
    stats_digest: str
    workdir: str

    def as_dict(self):
        return dataclasses.asdict(self)

    def render(self):
        lines = ["dist chaos campaign: seed=%d" % self.seed]
        lines.append("  %d benchmark group(s) x %d policies (%d member "
                     "jobs) over a shared spool"
                     % (len(self.benchmarks), len(self.policies),
                        self.total_members))
        lines.append("  host death: victim published %d member(s) then "
                     "died; %d host loss(es), %d lease break(s), "
                     "re-run exactly once: %s"
                     % (self.victim_records, self.host_losses,
                        self.lease_breaks,
                        "yes" if self.exactly_once
                        else "NO %s" % self.duplicates))
        lines.append("  degrade-to-local: %s"
                     % ("empty fleet finished in-process, bit-identical"
                        if self.degraded_ok else "FAILED"))
        if self.failures:
            lines.append("  TERMINAL FAILURES: %s" % self.failures)
        lines.append("  stats digest: %s" % self.stats_digest)
        lines.append("verdict: %s" % (
            "bit-identical to the fault-free serial run across every "
            "campaign" if self.identical else
            "FAILED: %s" % (self.death_mismatches or "(recovery gate)")))
        return "\n".join(lines)


def _dist_worker_main(spool, host_id, publish_log, die_after=None,
                      poll=0.05, lease_timeout=1.0):
    """Child-process entry for the dist campaigns' worker daemons.

    Every member this worker publishes is appended to ``publish_log``
    as ``<host_id> <job_id>`` (one ``O_APPEND`` write per line), which
    is how the campaign counts executions across hosts.  ``die_after=N``
    SIGKILLs the process right after its Nth publish -- mid-unit by
    construction when units are multi-member groups -- which is exactly
    the host-death fault: the lease is left behind with a heartbeat
    that will never refresh again.
    """
    from repro.exec import dist

    state = {"records": 0}

    def on_record(member, result):
        fd = os.open(publish_log, os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, ("%s %s\n" % (host_id, member.job_id)).encode())
        finally:
            os.close(fd)
        state["records"] += 1
        if die_after is not None and state["records"] >= die_after:
            os.kill(os.getpid(), signal.SIGKILL)

    dist.run_worker(spool, host_id=host_id, poll=poll,
                    lease_timeout=lease_timeout, on_record=on_record)


def run_dist_chaos(benchmarks=("gzip", "mcf"),
                   policies=("decrypt-only", "authen-then-commit",
                             "authen-then-issue"),
                   num_instructions=1500, warmup=750, seed=0,
                   lease_timeout=1.0, workdir=None):
    """Chaos campaign for the multi-host work-stealing backend.

    A fault-free serial run establishes per-member digests, then two
    campaigns over real worker processes and spool directories, each
    using the spool's own shared store:

    1. *Host death*: a victim worker claims a group, publishes exactly
       one member and SIGKILLs itself; a survivor worker plus the
       driver must detect the expired lease (``HOST_LOST``), re-claim
       the unit, skip the member the victim already published, and
       finish the sweep.  Gate: bit-identical results, at least one
       host loss, and every member published *exactly once* across
       all hosts.
    2. *Degrade to local*: a driver over an empty spool with no workers
       must degrade to in-process execution and still produce
       bit-identical results.
    """
    import multiprocessing

    from repro.exec import dist
    from repro.exec.job import build_job_groups

    benchmarks = list(benchmarks)
    policies = list(policies)
    if len(benchmarks) < 2:
        raise ReproError("dist chaos needs >= 2 benchmarks (the "
                         "survivor must have work while the victim "
                         "dies)")
    if len(policies) < 2:
        raise ReproError("dist chaos needs >= 2 policies (the victim "
                         "must die mid-group, after its first member)")
    jobs = build_jobs(benchmarks, policies,
                      num_instructions=num_instructions, warmup=warmup)
    groups = build_job_groups(benchmarks, policies,
                              num_instructions=num_instructions,
                              warmup=warmup)
    member_ids = {job.job_id for job in jobs}
    with using_store(None):
        reference = SerialExecutor().run(jobs)
    ref_digests = {job.job_id: result_digest(reference[job])
                   for job in jobs}

    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-distchaos-")
    os.makedirs(workdir, exist_ok=True)
    failures = []
    retry_policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=4,
                                 backoff_base=0.01, backoff_max=0.05,
                                 jitter_seed=seed)

    def reap(proc, timeout=60):
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()

    def mismatched(results):
        return sorted(job.job_id for job in jobs
                      if job not in results
                      or result_digest(results[job])
                      != ref_digests[job.job_id])

    # ---- campaign 1: host death ---------------------------------------
    spool_death = _fresh_dir(os.path.join(workdir, "spool-death"))
    publish_log = os.path.join(workdir, "published.log")
    if os.path.exists(publish_log):
        os.remove(publish_log)
    dist.ensure_spool(spool_death)
    dist.spool_jobs(spool_death, groups)
    with using_store(None):
        victim = multiprocessing.Process(
            target=_dist_worker_main,
            args=(spool_death, "victim", publish_log),
            kwargs={"die_after": 1, "lease_timeout": lease_timeout})
        victim.start()
        reap(victim)   # it SIGKILLs itself after its first publish
        survivor = multiprocessing.Process(
            target=_dist_worker_main,
            args=(spool_death, "survivor", publish_log),
            kwargs={"lease_timeout": lease_timeout})
        survivor.start()
        driver = dist.DistExecutor(spool_death, poll=0.05,
                                   lease_timeout=lease_timeout,
                                   degrade_after=120.0)
        try:
            death_results = driver.run(groups, failure_policy=retry_policy)
        finally:
            dist.request_stop(spool_death)
            reap(survivor)
    failures.extend(outcome.as_dict()
                    for outcome in driver.failures.values())
    death_mismatches = mismatched(death_results)
    counts = {}
    victim_records = 0
    with open(publish_log) as handle:
        for line in handle:
            host_id, job_id = line.split()
            counts[job_id] = counts.get(job_id, 0) + 1
            victim_records += host_id == "victim"
    duplicates = sorted(job_id for job_id, n in counts.items() if n > 1)
    exactly_once = (set(counts) == member_ids and not duplicates)

    # ---- campaign 2: degrade to local ---------------------------------
    spool_local = _fresh_dir(os.path.join(workdir, "spool-local"))
    driver2 = dist.DistExecutor(spool_local, poll=0.05,
                                lease_timeout=lease_timeout,
                                degrade_after=0.3)
    with using_store(None):
        local_results = driver2.run(groups, failure_policy=retry_policy)
    failures.extend(outcome.as_dict()
                    for outcome in driver2.failures.values())
    degraded_ok = driver2.degraded and not mismatched(local_results)

    digests = [ref_digests[job.job_id] for job in jobs]
    stats_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    return DistChaosReport(
        identical=(not death_mismatches
                   and not failures
                   and driver.host_losses >= 1
                   and victim_records >= 1
                   and exactly_once
                   and degraded_ok),
        seed=seed,
        benchmarks=tuple(benchmarks),
        policies=tuple(policies),
        total_members=len(jobs),
        host_losses=driver.host_losses,
        lease_breaks=driver.lease_breaks,
        victim_records=victim_records,
        exactly_once=exactly_once,
        duplicates=duplicates,
        death_mismatches=death_mismatches,
        degraded_ok=degraded_ok,
        failures=failures,
        stats_digest=stats_digest,
        workdir=workdir,
    )
