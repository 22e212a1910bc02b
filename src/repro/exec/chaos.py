"""Chaos harness: deterministically inject faults, prove recovery.

The paper argues a secure processor must keep producing correct results
while memory misbehaves; this module holds the sweep infrastructure to
the same standard.  Every campaign has one shape: a clean, serial,
store-free *reference* run, then one or more *faulted* runs of the same
work with faults armed, compared on what an observer sees -- per-job
result digests (cycles, IPC inputs, stats), or artifact bytes.

:func:`run_chaos` is the one runner.  A *scenario* names only the path
it drives (:data:`SCENARIOS`): ``sweep`` (the executor), ``group``
(grouped multi-policy jobs), ``figures`` (``run_figures``), ``store``
(the artifact store) and ``dist`` (the shared spool).  A *fault* is one
entry in :data:`FAULTS`, saying how it is armed and what evidence it
must leave.  One gate judges every scenario: every digest matches the
reference, no job fails terminally, each rerun against a store
re-simulates exactly the jobs with no intact published result, and
every armed fault left its evidence -- a fault that never fires fails
the campaign instead of passing it silently.

Determinism is the point: a :class:`ChaosPlan` is a pure function of
``(job list, seed, fault kinds)``, so a failing campaign is exactly
reproducible with the same seed.  Attempt-hook faults fire on a job's
*first* attempt only, so the retry path -- not luck -- is what heals
the run.
"""

import collections
import contextlib
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
from repro.exec.cache import TraceCache
from repro.exec.executor import (
    ParallelExecutor,
    SerialExecutor,
    set_attempt_hook,
)
from repro.exec.job import build_job_groups, build_jobs
from repro.exec.retry import (
    RETRY_THEN_SKIP,
    STATUS_FAILED,
    STATUS_RESUMED,
    FailurePolicy,
)
from repro.exec.store import ArtifactStore, atomic_write_text, using_store
from repro.obs.events import JOB_RETRY
from repro.util.rng import DeterministicRng


class InjectedFault(ReproError):
    """The exception a chaos schedule raises inside a job attempt."""


# ---- fault plug-ins ---------------------------------------------------

FAULT_WORKER_KILL = "worker-kill"          # SIGKILL the worker process
FAULT_JOB_EXCEPTION = "job-exception"      # raise InjectedFault
FAULT_HANG = "hang"                        # sleep past the timeout
FAULT_RESULT_TRUNCATE = "result-truncate"  # tear a stored result entry
FAULT_RESULT_BITFLIP = "result-bitflip"    # flip one stored digit
FAULT_POOL_INIT = "pool-init-failure"      # first pool's initializer dies
FAULT_STORE_ENOSPC = "store-enospc"        # a result publish hits ENOSPC
FAULT_TRACE_TRUNCATE = "trace-truncate"    # cut a stored trace short
FAULT_STALE_LOCK = "stale-lock"            # a dead process's lock file
FAULT_HOST_DEATH = "host-death"            # a worker dies mid-unit
FAULT_FLEET_VANISH = "fleet-vanish"        # no worker ever shows up

JOB_FAULTS = (FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION, FAULT_HANG)
RESULT_FAULTS = (FAULT_RESULT_TRUNCATE, FAULT_RESULT_BITFLIP)

Fault = collections.namedtuple("Fault", "arm evidence")

#: One entry per fault: how it is armed, and the evidence it must leave.
FAULTS = {
    FAULT_WORKER_KILL: Fault("attempt hook", "rebuild"),
    FAULT_JOB_EXCEPTION: Fault("attempt hook", "retry"),
    FAULT_HANG: Fault("attempt hook", "retry"),
    FAULT_RESULT_TRUNCATE: Fault("on-disk damage", "quarantine"),
    FAULT_RESULT_BITFLIP: Fault("on-disk damage", "quarantine"),
    FAULT_POOL_INIT: Fault("pool initializer", "rebuild"),
    FAULT_STORE_ENOSPC: Fault("store wrapper", "write-error"),
    FAULT_TRACE_TRUNCATE: Fault("on-disk damage", "quarantine"),
    FAULT_STALE_LOCK: Fault("on-disk damage", "lock-break"),
    FAULT_HOST_DEATH: Fault("worker die_after", "host-loss"),
    FAULT_FLEET_VANISH: Fault("worker die_after", "rebuild"),
}
#: The sweep scenario's faults (every fault the executor path can arm).
ALL_FAULTS = JOB_FAULTS + RESULT_FAULTS + (FAULT_POOL_INIT,
                                           FAULT_STORE_ENOSPC)

#: Evidence kind -> the report counters whose sum shows it; each armed
#: fault needs its own unit.  ``retry`` is read per target instead: the
#: job the fault was aimed at took more than one attempt in its run.
EVIDENCE = {
    "retry": (),
    "rebuild": ("pool_rebuilds", "degraded"),   # a pool rebuild or degrade
    "quarantine": ("quarantined",),
    "lock-break": ("lock_breaks",),
    "host-loss": ("host_losses",),
    "write-error": ("write_errors",),
    "abort": ("aborts",),                       # a fail-fast run aborted
}


class ChaosPlan:
    """A seeded, picklable fault schedule (the executors' attempt hook).

    ``job_faults`` maps job_id -> fault kind, fired on that job's first
    attempt only.  The plan records the driver's pid so a worker-kill
    fault never kills the driver itself: executed in-process (serial
    backend or degraded pool) it downgrades to an :class:`InjectedFault`.
    """

    def __init__(self, seed, job_faults, hang_seconds=2.0):
        self.seed = seed
        self.job_faults = dict(job_faults)
        self.hang_seconds = hang_seconds
        self.init_sentinel = None
        self.driver_pid = os.getpid()

    def fault_for(self, job, attempt):
        """The fault to fire for this attempt (None for no fault).

        Keys in ``job_faults`` may be job_ids or ``benchmark/policy``
        pairs -- the latter lets callers (the figures scenario) target a
        job without precomputing its configuration-dependent job_id.
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
        if self.init_sentinel is None:
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
    unknown = set(faults) - set(FAULTS)
    if unknown:
        raise ReproError("unknown fault kind(s): %s (expected %s)"
                         % (", ".join(sorted(unknown)),
                            ", ".join(FAULTS)))
    rng = DeterministicRng(seed).stream("chaos.targets")
    available = [job.job_id for job in jobs]
    job_faults = {}
    for kind in JOB_FAULTS:
        if kind not in faults or not available:
            continue
        job_faults[available.pop(rng.randrange(len(available)))] = kind
    return ChaosPlan(seed, job_faults, hang_seconds=hang_seconds)


def _exit_immediately():
    """Target whose prompt death leaves a provably-dead lock owner pid."""


def damage_store(store_root, jobs, faults, seed):
    """Apply the on-disk faults to a store; returns {entry: fault}.

    Each result fault hits a different seed-chosen job's result entry:
    ``result-truncate`` replays a torn write (the entry is cut in half),
    ``result-bitflip`` replays silent media corruption (one digit gets
    its low bit flipped -- the payload may stay valid JSON, which is
    exactly the case only the CRC32 field can catch).  The trace faults
    target the first damaged job -- the one a rerun must re-simulate,
    and so the one whose trace it must read: ``trace-truncate`` cuts
    that trace to a third, and ``stale-lock`` plants its single-flight
    lock owned by a process that has already exited (the
    killed-worker-left-a-lock case).
    """
    import multiprocessing

    store = ArtifactStore(store_root)
    owners = {}
    for job in jobs:
        if os.path.exists(store.result_path(job)):
            owners[os.path.basename(store.result_path(job))] = job
    names = sorted(owners)
    if not names:
        return {}
    rng = DeterministicRng(seed).stream("chaos.results")
    damaged = {}
    victims = []
    for kind in RESULT_FAULTS:
        if kind not in faults or not names:
            continue
        name = names.pop(rng.randrange(len(names)))
        path = os.path.join(os.fspath(store_root), "results", name)
        with open(path, "rb") as handle:
            data = handle.read()
        if kind == FAULT_RESULT_TRUNCATE:
            data = data[:len(data) // 2]
        else:
            digits = [i for i, byte in enumerate(data)
                      if chr(byte).isdigit()]
            at = digits[rng.randrange(len(digits))]
            data = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
        with open(path, "wb") as handle:
            handle.write(data)
        damaged[name] = kind
        victims.append(owners[name])
    victim = victims[0] if victims else owners[names[0]]
    trace = store.trace_name(victim.benchmark, victim.trace_length,
                             victim.effective_seed)
    if FAULT_TRACE_TRUNCATE in faults:
        path = os.path.join(os.fspath(store_root), "traces", trace)
        with open(path, "r+b") as handle:
            handle.truncate(max(os.path.getsize(path) // 3, 40))
        damaged[trace] = FAULT_TRACE_TRUNCATE
    if FAULT_STALE_LOCK in faults:
        proc = multiprocessing.Process(target=_exit_immediately)
        proc.start()
        proc.join()
        lock = "traces-%s.lock" % trace
        with open(os.path.join(os.fspath(store_root), "locks", lock),
                  "w") as handle:
            # Recording our own hostname keeps the pid-liveness check in
            # play: locks from *foreign* hosts age out instead.
            json.dump({"pid": proc.pid, "host": socket.gethostname(),
                       "created": time.time()}, handle)
        damaged[lock] = FAULT_STALE_LOCK
    return damaged


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


def _fresh_dir(path):
    """``path`` as an empty directory (a stale campaign's is removed)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---- the report -------------------------------------------------------

@dataclasses.dataclass
class ChaosReport:
    """Outcome of one chaos campaign (see :func:`run_chaos`)."""

    scenario: str
    seed: int
    faults: tuple
    injected: dict          # target (job, cell, entry, host) -> fault
    cells: dict             # job_id -> (benchmark, policy)
    attempts: dict          # job_id -> most attempts one run spent
    failures: list          # JobResult dicts for terminal failures
    mismatches: list        # job_ids (figures: artifacts) that diverged
    counters: dict          # pool_rebuilds, quarantined, host_losses, ...
    gates: dict             # gate name -> passed
    stats_digest: str       # sha256 over the healed per-job digests
    workdir: str
    kind: str = "chaos"

    @property
    def passed(self):
        return all(self.gates.values())

    def as_dict(self):
        return dict(dataclasses.asdict(self), passed=self.passed)

    def render(self):
        lines = ["chaos campaign: scenario=%s seed=%d faults=%s"
                 % (self.scenario, self.seed,
                    ",".join(self.faults) or "none")]
        lines.append("  injected: %s" % (
            ", ".join("%s->%s" % (kind, target)
                      for target, kind in sorted(self.injected.items(),
                                                 key=lambda kv: kv[1]))
            or "none"))
        lines.append("  %d job(s), %d retried; %s"
                     % (len(self.attempts),
                        sum(1 for n in self.attempts.values() if n > 1),
                        ", ".join("%s=%d" % item for item
                                  in sorted(self.counters.items()))))
        if self.failures:
            lines.append("  TERMINAL FAILURES: %s" % self.failures)
        if self.mismatches:
            lines.append("  DIVERGED: %s" % ", ".join(self.mismatches))
        for gate, ok in self.gates.items():
            if gate.startswith("evidence:") and not ok:
                lines.append("  SILENT FAULT: %s left no evidence -- it "
                             "never fired" % gate.split(":", 1)[1])
        lines.append("  gates: %s" % ", ".join(
            "%s %s" % (gate, "ok" if ok else "FAILED")
            for gate, ok in self.gates.items()))
        lines.append("  stats digest: %s" % self.stats_digest)
        lines.append("verdict: %s" % (
            "%s to the fault-free serial run"
            % ("artifacts byte-identical" if self.scenario == "figures"
               else "bit-identical") if self.passed else "FAILED"))
        return "\n".join(lines)


# ---- shared scaffolding -----------------------------------------------

class _Campaign:
    """One campaign's shared state: the job grid, its store-free serial
    reference, the retry-then-skip policy, and the report being built."""

    def __init__(self, scenario, faults, benchmarks, policies, scale,
                 seed, workers, hang_seconds, timeout, workdir):
        from repro.obs import MemorySink, Tracer

        self.scenario = scenario
        self.faults = faults
        self.benchmarks = benchmarks
        self.policies = policies
        self.scale = scale
        self.seed = seed
        self.workers = workers
        self.hang_seconds = hang_seconds
        self.workdir = workdir
        self.jobs = build_jobs(benchmarks, policies, **scale)
        self.cells = {job.job_id: (job.benchmark, job.policy)
                      for job in self.jobs}
        self.sink = MemorySink()
        self.tracer = Tracer([self.sink])
        self.policy = FailurePolicy(mode=RETRY_THEN_SKIP, max_attempts=4,
                                    timeout=timeout, backoff_base=0.01,
                                    backoff_max=0.05, jitter_seed=seed)
        self.evidence = {fault: FAULTS[fault].evidence for fault in faults}
        self.retried = set()    # retry-evidence faults whose target retried
        self.injected = {}
        self.attempts = {}
        self.failures = []
        self.mismatches = []
        self.counters = {}
        self.gates = {}
        self.digests = []
        with using_store(None):
            results = SerialExecutor().run(self.jobs)
        self.reference = {job.job_id: result_digest(results[job])
                          for job in self.jobs}

    def groups(self):
        return build_job_groups(self.benchmarks, self.policies,
                                **self.scale)

    def count(self, **counters):
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def gate(self, name, ok):
        self.gates[name] = self.gates.get(name, True) and bool(ok)

    @contextlib.contextmanager
    def armed(self, plan, fail_fast=False):
        """Install ``plan`` as the attempt hook and yield an executor
        that arms it in every pool worker too; restore on exit.

        In-process (one worker, or ``fail_fast``) a worker-kill
        downgrades to an exception, so its evidence is a retry; under
        fail-fast an exception aborts the run instead of retrying.
        """
        pooled = self.workers > 1 and not fail_fast
        self.injected.update(plan.job_faults)
        for kind in plan.job_faults.values():
            if kind == FAULT_WORKER_KILL and not pooled:
                self.evidence[kind] = "retry"
            elif kind == FAULT_JOB_EXCEPTION and fail_fast:
                self.evidence[kind] = "abort"
        previous = set_attempt_hook(plan)
        try:
            executor = (ParallelExecutor(self.workers,
                                         initializer=_install_in_worker,
                                         initargs=(plan,))
                        if pooled else SerialExecutor())
            with executor:
                yield executor
        finally:
            set_attempt_hook(previous)

    def settle(self, executor, plan=None, records=None):
        """Fold one run's outcomes in (attempts, terminal failures, pool
        rebuilds, degrades) and note which of ``plan``'s targets retried;
        ``records`` (outcome dicts) default to the executor's last run."""
        if records is None:
            records = [outcome.as_dict()
                       for outcome in executor.last_outcomes.values()]
        retried = set()
        for record in records:
            job_id = record["job_id"]
            self.attempts[job_id] = max(self.attempts.get(job_id, 0),
                                        record["attempts"])
            if record["status"] == STATUS_FAILED:
                self.failures.append(record)
            if record["attempts"] > 1:
                retried.update((job_id, "%s/%s" % self.cells.get(
                    job_id, ("?", "?"))))
        self.count(pool_rebuilds=getattr(executor, "rebuilds", 0),
                   degraded=getattr(executor, "degraded", False))
        self.retried.update(kind for target, kind
                            in (plan.job_faults.items() if plan else ())
                            if target in retried)

    def compare(self, results):
        """Record every job whose result is missing or diverges from the
        reference; the last comparison's digests make the stats digest."""
        by_id = {job.job_id: result for job, result in results.items()}
        self.digests = []
        for job in self.jobs:
            result = by_id.get(job.job_id)
            digest = result_digest(result) if result is not None else None
            if digest is not None:
                self.digests.append(digest)
            if (digest != self.reference[job.job_id]
                    and job.job_id not in self.mismatches):
                self.mismatches.append(job.job_id)

    def rerun(self, units, store, damaged=()):
        """Heal by rerunning ``units`` serially against ``store``.

        Gates exactly-once: the rerun must re-simulate exactly the jobs
        with no intact published result (never published, or an entry
        in ``damaged``) and resume every other one from the store.
        """
        owed = {job.job_id for job in self.jobs
                if not os.path.exists(store.result_path(job))
                or os.path.basename(store.result_path(job)) in damaged}
        healer = SerialExecutor(cache=TraceCache())
        with using_store(store):
            results = healer.run(units, tracer=self.tracer,
                                 failure_policy=self.policy)
        self.settle(healer)
        rerun = {job_id for job_id, outcome
                 in healer.last_outcomes.items()
                 if outcome.status != STATUS_RESUMED}
        self.count(resumed=len(healer.last_outcomes) - len(rerun),
                   reexecuted=len(rerun),
                   store_hits=sum(1 for outcome
                                  in healer.last_outcomes.values()
                                  if outcome.store_hit),
                   quarantined=store.counters["quarantined"],
                   lock_breaks=store.counters["lock_breaks"])
        self.gate("exactly-once", rerun == owed)
        self.compare(results)
        return results

    def report(self):
        gates = {"bit-identical": not self.mismatches,
                 "no-terminal-failures": not self.failures}
        gates.update(self.gates)
        for fault in self.faults:
            evidence = self.evidence[fault]
            if evidence == "retry":
                ok = fault in self.retried
            else:
                need = sum(1 for kind in self.faults
                           if self.evidence[kind] == evidence)
                ok = sum(self.counters.get(name, 0)
                         for name in EVIDENCE[evidence]) >= need
            gates["evidence:" + fault] = ok
        self.count(retry_events=sum(1 for event in self.sink.events
                                    if event.kind == JOB_RETRY))
        return ChaosReport(
            scenario=self.scenario, seed=self.seed,
            faults=tuple(self.faults), injected=self.injected,
            cells=self.cells, attempts=self.attempts,
            failures=self.failures, mismatches=self.mismatches,
            counters=self.counters, gates=gates,
            stats_digest=hashlib.sha256(
                "".join(self.digests).encode()).hexdigest(),
            workdir=self.workdir)


# ---- scenarios --------------------------------------------------------

def _drive_sweep(c):
    """Executor path: faults armed on the job grid against a fresh
    store, then stored results damaged and the grid rerun to heal."""
    store_dir = _fresh_dir(os.path.join(c.workdir, "store"))
    plan = build_plan(c.jobs, c.seed, c.faults,
                      hang_seconds=c.hang_seconds)
    if FAULT_POOL_INIT in c.faults:
        sentinel = os.path.join(c.workdir, "pool-init.sentinel")
        if os.path.exists(sentinel):
            os.remove(sentinel)
        plan.arm_init_fault(sentinel)
        c.injected["first pool"] = FAULT_POOL_INIT
    store = (EnospcStore(store_dir) if FAULT_STORE_ENOSPC in c.faults
             else ArtifactStore(store_dir))
    if FAULT_STORE_ENOSPC in c.faults:
        c.injected["result publish #%d" % store.fail_at] = \
            FAULT_STORE_ENOSPC
    with c.armed(plan) as executor, using_store(store):
        executor.run(c.jobs, tracer=c.tracer, failure_policy=c.policy)
        c.settle(executor, plan)
    c.count(write_errors=store.counters["write_errors"])
    damaged = damage_store(store_dir, c.jobs, c.faults, c.seed)
    c.injected.update(damaged)
    c.rerun(c.jobs, ArtifactStore(store_dir), damaged)


def _drive_group(c):
    """Grouped path (decode once, evaluate N), two faulted runs aimed
    at a mid-group member (the second policy of the first benchmark):

    - ``worker-kill`` on a pool: the pool keeps dying (a killed worker
      never charges an attempt) until the executor degrades, where the
      kill downgrades to an exception the retry policy heals;
    - ``job-exception`` under fail-fast: the run aborts mid-group,
      leaving a store holding exactly the members before the victim
      (members publish incrementally); the rerun must resume exactly
      those and re-run the rest.
    """
    if len(c.policies) < 3:
        raise ReproError("the group scenario needs >= 3 policies so the "
                         "fault can land mid-group")
    groups = c.groups()
    victim = groups[0].member_jobs[1]
    if FAULT_WORKER_KILL in c.faults:
        store = ArtifactStore(
            _fresh_dir(os.path.join(c.workdir, "group-kill-store")))
        plan = ChaosPlan(c.seed, {victim.job_id: FAULT_WORKER_KILL})
        with c.armed(plan) as executor, using_store(store):
            c.compare(executor.run(groups, tracer=c.tracer,
                                   failure_policy=c.policy))
            c.settle(executor, plan)
    if FAULT_JOB_EXCEPTION in c.faults:
        store = ArtifactStore(
            _fresh_dir(os.path.join(c.workdir, "group-resume-store")))
        # Keyed by cell, not job_id, so ``injected`` keeps both runs'
        # targets apart.
        plan = ChaosPlan(c.seed, {"%s/%s" % (victim.benchmark,
                                             victim.policy):
                                  FAULT_JOB_EXCEPTION})
        try:
            with c.armed(plan, fail_fast=True) as executor, \
                    using_store(store):
                executor.run(groups, failure_policy=FailurePolicy())
        except InjectedFault:
            c.count(aborts=1)
        published = {job.job_id for job in c.jobs
                     if os.path.exists(store.result_path(job))}
        c.count(published_before_abort=len(published))
        c.gate("exactly-once", published == {
            member.job_id for member in groups[0].member_jobs[:1]})
        c.rerun(groups, store)


#: The figure the ``figures`` scenario regenerates, and the policy of
#: the first benchmark's job its worker-kill targets (fig8 sweeps it).
FIGURE = "fig8"
FIGURE_TARGET_POLICY = "authen-then-issue"


def _drive_figures(c):
    """``run_figures`` path: fig8 regenerated serially for reference,
    then again with a worker-kill armed; artifacts must be byte-equal."""
    from repro.experiments.figures import run_figures

    scale = dict(c.scale, benchmarks=tuple(c.benchmarks))
    plan = ChaosPlan(c.seed, {"%s/%s" % (c.benchmarks[0],
                                         FIGURE_TARGET_POLICY):
                              FAULT_WORKER_KILL}
                     if FAULT_WORKER_KILL in c.faults else {})
    with using_store(None):
        reference = run_figures(
            [FIGURE], os.path.join(c.workdir, "reference"), jobs=1,
            **scale)
        with c.armed(plan) as executor:
            faulted = run_figures(
                [FIGURE], os.path.join(c.workdir, "faulted"),
                executor=executor, failure_policy=c.policy, **scale)
    records = [job for entry in faulted["entries"]
               for job in entry["jobs"]]
    c.cells.update((job["job_id"], (job["benchmark"], job["policy"]))
                   for job in records)
    c.settle(executor, plan, records)
    with open(reference["artifact_paths"][FIGURE], "rb") as handle:
        want = handle.read()
    with open(faulted["artifact_paths"][FIGURE], "rb") as handle:
        got = handle.read()
    c.digests = [hashlib.sha256(got).hexdigest()]
    if want != got:
        c.mismatches.append(FIGURE)


def _drive_store(c):
    """Artifact-store path: a cold run populates a store, its entries
    are damaged on disk, and a serial rerun must quarantine the damage
    (CRC on load), break the stale lock by pid, re-simulate only the
    damaged job and serve every other one from the result tier."""
    store_dir = _fresh_dir(os.path.join(c.workdir, "store"))
    populate = SerialExecutor(cache=TraceCache())
    with using_store(ArtifactStore(store_dir)):
        c.compare(populate.run(c.jobs, tracer=c.tracer,
                               failure_policy=c.policy))
    c.settle(populate)
    damaged = damage_store(store_dir, c.jobs, c.faults, c.seed)
    c.injected.update(damaged)
    c.rerun(c.jobs, ArtifactStore(store_dir), damaged)


def _dist_worker_main(spool, host_id, publish_log, die_after=None,
                      poll=0.05, lease_timeout=1.0):
    """Child-process entry for the dist scenario's worker daemons.

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


def _drive_dist(c, lease_timeout=1.0):
    """Shared-spool path, each faulted run on its own spool and that
    spool's store:

    - ``host-death``: a victim worker claims a group, publishes one
      member and SIGKILLs itself; a survivor plus the driver must reap
      the expired lease (``HOST_LOST``), re-claim the unit, skip the
      published member and finish -- every member published exactly
      once across hosts, the victim's partial progress kept;
    - ``fleet-vanish``: no worker ever serves the spool; the driver
      must degrade to in-process execution.
    """
    import multiprocessing

    from repro.exec import dist

    if len(c.benchmarks) < 2 or len(c.policies) < 2:
        raise ReproError("the dist scenario needs >= 2 benchmarks (the "
                         "survivor must have work while the victim "
                         "dies) and >= 2 policies (the victim must die "
                         "mid-group)")
    groups = c.groups()

    def reap(proc, timeout=60):
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()

    if FAULT_HOST_DEATH in c.faults:
        spool = _fresh_dir(os.path.join(c.workdir, "spool-death"))
        publish_log = os.path.join(spool, "published.log")
        dist.ensure_spool(spool)
        dist.spool_jobs(spool, groups)
        c.injected["worker victim"] = FAULT_HOST_DEATH
        with using_store(None):
            victim = multiprocessing.Process(
                target=_dist_worker_main,
                args=(spool, "victim", publish_log),
                kwargs={"die_after": 1, "lease_timeout": lease_timeout})
            victim.start()
            reap(victim)   # it SIGKILLs itself after its first publish
            survivor = multiprocessing.Process(
                target=_dist_worker_main,
                args=(spool, "survivor", publish_log),
                kwargs={"lease_timeout": lease_timeout})
            survivor.start()
            driver = dist.DistExecutor(spool, poll=0.05,
                                       lease_timeout=lease_timeout,
                                       degrade_after=120.0)
            try:
                c.compare(driver.run(groups, tracer=c.tracer,
                                     failure_policy=c.policy))
            finally:
                dist.request_stop(spool)
                reap(survivor)
        c.settle(driver)
        counts = collections.Counter()
        victim_records = 0
        with open(publish_log) as handle:
            for line in handle:
                host_id, job_id = line.split()
                counts[job_id] += 1
                victim_records += host_id == "victim"
        c.count(host_losses=driver.host_losses,
                lease_breaks=driver.lease_breaks,
                victim_records=victim_records)
        c.gate("exactly-once", victim_records >= 1
               and set(counts) == set(c.cells)
               and all(n == 1 for n in counts.values()))
    if FAULT_FLEET_VANISH in c.faults:
        c.injected["every worker"] = FAULT_FLEET_VANISH
        driver = dist.DistExecutor(
            _fresh_dir(os.path.join(c.workdir, "spool-local")),
            poll=0.05, lease_timeout=lease_timeout, degrade_after=0.3)
        with using_store(None):
            c.compare(driver.run(groups, tracer=c.tracer,
                                 failure_policy=c.policy))
        c.settle(driver)


Scenario = collections.namedtuple("Scenario",
                                  "drive faults benchmarks policies")

_THREE = ("decrypt-only", "authen-then-commit", "authen-then-issue")

#: Each scenario: the path it drives, its default (and armable) faults,
#: and its default grid.
SCENARIOS = {
    "sweep": Scenario(_drive_sweep, ALL_FAULTS, ("gzip",), _THREE),
    "group": Scenario(_drive_group,
                      (FAULT_WORKER_KILL, FAULT_JOB_EXCEPTION),
                      ("gzip", "mcf"), _THREE + ("authen-then-write",)),
    "figures": Scenario(_drive_figures, (FAULT_WORKER_KILL,),
                        ("gzip", "mcf"), ()),
    "store": Scenario(_drive_store,
                      (FAULT_TRACE_TRUNCATE, FAULT_RESULT_BITFLIP,
                       FAULT_STALE_LOCK),
                      ("gzip", "mcf"), _THREE),
    "dist": Scenario(_drive_dist, (FAULT_HOST_DEATH, FAULT_FLEET_VANISH),
                     ("gzip", "mcf"), _THREE),
}


def run_chaos(scenario="sweep", benchmarks=None, policies=None,
              num_instructions=1500, warmup=750, seed=0, faults=None,
              workers=2, hang_seconds=2.0, timeout=None, workdir=None):
    """Run one chaos campaign; returns a :class:`ChaosReport`.

    ``scenario`` picks the path (:data:`SCENARIOS`); ``faults`` a subset
    of that scenario's faults (default: all of them) -- a fault the
    scenario cannot arm raises :class:`~repro.errors.ReproError`.
    ``timeout`` is the per-attempt deadline (default: 0.75 s when a
    ``hang`` is armed, so the deadline -- not the hang's own end --
    breaks it; none otherwise).  ``benchmarks``/``policies`` default to
    the scenario's grid; the ``figures`` scenario always regenerates
    fig8 and takes no policies.
    """
    if scenario not in SCENARIOS:
        raise ReproError("unknown chaos scenario %r (expected %s)"
                         % (scenario, ", ".join(SCENARIOS)))
    spec = SCENARIOS[scenario]
    faults = tuple(spec.faults if faults is None else faults)
    unknown = [fault for fault in faults if fault not in spec.faults]
    if unknown:
        raise ReproError(
            "unknown fault(s) for the %s scenario: %s (choose from %s)"
            % (scenario, ", ".join(unknown), ", ".join(spec.faults)))
    if FAULT_POOL_INIT in faults and workers < 2:
        raise ReproError("%s needs a worker pool (2 or more workers)"
                         % FAULT_POOL_INIT)
    if scenario == "figures" and policies:
        raise ReproError("the figures scenario regenerates %s and takes "
                         "no policies" % FIGURE)
    if timeout is None and FAULT_HANG in faults:
        timeout = 0.75
    if workdir is None:
        import tempfile

        workdir = tempfile.mkdtemp(prefix="repro-chaos-%s-" % scenario)
    os.makedirs(os.fspath(workdir), exist_ok=True)
    campaign = _Campaign(
        scenario, faults, list(benchmarks or spec.benchmarks),
        list(policies or spec.policies),
        dict(num_instructions=num_instructions, warmup=warmup), seed,
        workers, hang_seconds, timeout, os.fspath(workdir))
    spec.drive(campaign)
    return campaign.report()
