"""Job execution backends: one pipeline, serial or multiprocess.

Every unit of work -- a :class:`~repro.exec.job.SimJob` (a unit of one)
or a :class:`~repro.exec.job.MultiPolicySimJob` -- runs through
:func:`iter_unit_results`: one cached trace, one structural prepass
(:mod:`repro.cpu.prepass`) when any member can use it, then one
evaluation per member.  :func:`kernel_fallback` is the one rule that
picks each member's timing model: the compiled replay kernel when it
is available, the prepass supports the config, the policy can be
replayed and no enabled tracer asks for per-run events; the legacy
:class:`~repro.cpu.core.TimestampCore` otherwise, with the first
failing term recorded as the result's ``accounting["model"]``.  Both
models are bit-identical.  The pipeline is a pure function of the unit
(all simulator state is private to the call), which is what makes the
backends interchangeable:
:class:`SerialExecutor` runs units in order in-process,
:class:`ParallelExecutor` fans them out over a ``ProcessPoolExecutor``
-- and both produce bit-identical cycle counts and stats for the same
job set.  Each member is recorded under its own plain ``job_id``, so
resume/retry/chaos/telemetry see one per-job stream whatever the unit
shape; the serial backend publishes members incrementally, so a kill
mid-group re-runs only the unfinished evaluations.

Resume: the artifact store's result tier (:mod:`repro.exec.store`) is
the one durable record of finished work.  :meth:`Executor.run` asks the
store once per job before anything executes; jobs it holds come back
``STATUS_RESUMED`` and never reach a pool worker or the spool, and
fresh completions are published back, so rerunning a killed sweep
against the same store re-runs only what never finished.

Fault tolerance: both backends drive every job through the
:class:`~repro.exec.retry.FailurePolicy` handed to :meth:`Executor.run`
-- per-attempt timeouts, bounded retries with deterministic backoff, and
skip-and-report semantics -- and record a per-job
:class:`~repro.exec.retry.JobResult` in ``executor.last_outcomes``.
The parallel backend additionally survives killed workers: a broken
pool is torn down and rebuilt with every incomplete job resubmitted,
and after ``max_rebuilds`` consecutive pool losses the remaining jobs
degrade to in-process serial execution instead of aborting the sweep.
Because the pipeline is pure, none of this perturbs results.

Observability: an executor's tracer receives job-lane events only, on
every backend -- ``JOB_DONE`` per completed job, ``JOB_RETRY``,
``JOB_FAILED``, ``BACKEND_DEGRADED`` and (dist) ``HOST_LOST``; the
profiler is credited per phase.  A store publish that dies (ENOSPC) is
counted in ``repro_store_write_errors_total`` and the run continues
rather than aborting.  Per-run simulator events (``ISSUE``,
``COMMIT``, verify windows, ...) are recorded only by
:func:`execute_job` with an enabled tracer and by
:func:`~repro.sim.runner.run_benchmark`.
"""

import os
import sys
import time
from contextlib import contextmanager

from repro.errors import JobTimeoutError
from repro.exec.cache import GLOBAL_CACHE, cached_trace
from repro.exec.retry import (
    FAIL_FAST,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RESUMED,
    FailurePolicy,
    JobResult,
    attempt_deadline,
)
from repro.obs.events import (
    BACKEND_DEGRADED,
    HOST_LOST,
    JOB_DONE,
    JOB_FAILED,
    JOB_RETRY,
    LANE_JOBS,
)
from repro.obs.metrics import JobMetrics

#: Optional fault-injection hook called as ``hook(job, attempt)`` right
#: before every member evaluation (in the worker process for the pool
#: backend).  Installed by the chaos harness; None in production runs.
_ATTEMPT_HOOK = None


def set_attempt_hook(hook):
    """Install ``hook(job, attempt)`` for this process; returns the old
    hook so callers can restore it.  Pass None to clear."""
    global _ATTEMPT_HOOK
    previous = _ATTEMPT_HOOK
    _ATTEMPT_HOOK = hook
    return previous


def _peak_rss_kb():
    """Peak RSS of this process in KB (None where unavailable).

    Linux reports ``ru_maxrss`` in KB, macOS in bytes (normalised
    here).  This is a process high-water mark, not a per-job delta:
    for pool workers it approximates the job well, for the serial
    backend it is the driver's footprint.
    """
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return rss


def _store_hit_accounting(started):
    """Accounting for a result served from the artifact store.

    ``cache_hit`` is None, not False: the trace cache was never
    consulted, so neither verdict would be true.
    """
    return {
        "wall_seconds": round(time.perf_counter() - started, 6),
        "tracegen_seconds": 0.0,
        "cache_hit": None,
        "store_hit": True,
        "peak_rss_kb": _peak_rss_kb(),
        "model": "store",
    }


def execute_job(job, tracer=None, profiler=None, cache=None, store=None):
    """Run one job and return its RunResult, store-backed.

    ``store`` (default: the process-wide
    :func:`~repro.exec.store.active_store`) short-circuits the whole
    call when it holds a completed result for this ``job_id`` under the
    current code fingerprint -- a warm result is bit-identical to a
    simulated one.  Fresh completions are published back.  This is the
    one-off entry point, and the only one that threads ``tracer`` into
    the run itself: an enabled tracer records the run's per-run events
    (which only the legacy model emits; see :func:`uses_kernel`).
    """
    from repro.exec.store import active_store

    started = time.perf_counter()
    store = store if store is not None else active_store()
    if store is not None:
        result = store.load_result(job)
        if result is not None:
            result.accounting = _store_hit_accounting(started)
            return result
    [(_, result)] = iter_unit_results(job, tracer=tracer,
                                      profiler=profiler, cache=cache)
    if store is not None:
        store.save_result(job, result)
    return result


def kernel_fallback(config, policy, tracer=None):
    """Why a member runs on the legacy model; None when the kernel does.

    The one place the timing model is chosen, and the reason recorded
    as each fresh result's ``accounting["model"]``.  The shared replay
    kernel serves a member unless one of these terms holds; the first
    that does is returned:

    - ``traced``: an enabled ``tracer`` asks for per-run events, which
      only the legacy model emits;
    - ``encryption_mode`` (not counter mode), ``prefetch``: the
      structural prepass does not walk this configuration;
    - ``no_kernel``: the compiled kernel is unavailable
      (:func:`repro.cpu.native.native_available`).  Checked last, so
      it names exactly the kernel-eligible members a host without a
      compiler (or ``REPRO_NATIVE=0``) sent to the legacy model.

    The CHTree walk and the address re-map layer (configured, or
    switched on by the policy) are not terms: the prepass walks them,
    one :func:`~repro.cpu.prepass.structural_variant` at a time.  A
    member some term names runs the legacy
    :class:`~repro.cpu.core.TimestampCore`.  The two are bit-identical
    -- the differential suite pins that -- so the choice moves wall
    time, never a result.  No term reads ``policy``; it stays in the
    signature because the rule is applied per member.
    """
    from repro.cpu import native

    if tracer is not None and tracer.enabled:
        return "traced"
    if config.secure.encryption_mode != "ctr":
        return "encryption_mode"
    if config.prefetch_degree != 0:
        return "prefetch"
    if not native.native_available():
        return "no_kernel"
    return None


def uses_kernel(config, policy, tracer=None):
    """Whether a member runs on the shared replay kernel: no
    :func:`kernel_fallback` term holds."""
    return kernel_fallback(config, policy, tracer) is None


def iter_unit_results(unit, skip=(), tracer=None, profiler=None,
                      cache=None, attempt_of=None):
    """Execute a unit of work; yields ``(member, result)`` in order.

    ``unit`` is a :class:`~repro.exec.job.SimJob` (a unit of one) or a
    :class:`~repro.exec.job.MultiPolicySimJob`.  One decode serves
    every member: the trace comes from the cache once, keyed by
    ``unit.effective_seed`` (so decorrelated jobs draw their own
    stream), and one structural prepass per
    :func:`~repro.cpu.prepass.structural_variant` feeds the shared
    kernel for every member :func:`uses_kernel` assigns to it; the
    trace's kernel columns are marshalled once and shared by every
    variant.  The rest run the legacy simulator on the same cached
    trace, with ``tracer`` threaded through.

    ``skip`` is a set of member job_ids to leave out (mid-group resume:
    the retry loop passes the members already settled).

    The attempt hook fires once per *member*, right before its
    evaluation -- fault injection keyed by member job_id or
    (benchmark, policy) cell lands whatever the unit shape.
    ``attempt_of(member)`` supplies the attempt number the hook reports
    (default: 1).

    Accounting: the first executed member carries the unit's shared
    cost (tracegen plus prepass) and the cache-lookup verdict; every
    later member is a pure cache reuse (``cache_hit`` True, zero
    tracegen), which :meth:`~repro.exec.cache.TraceCache.count_group_reuse`
    also charges to the cache counters.

    Results are not looked up in or published to the store's result
    tier here -- the caller owns that (the executors' resume pre-pass
    and ``_RunState.complete``; the dist worker; :func:`execute_job`).
    Each prepass is store-backed: loaded when present, built and
    published (under a single-flight lock) when not.
    """
    from repro.cpu import native
    from repro.cpu.prepass import structural_variant
    from repro.cpu.shared_kernel import replay_policy
    from repro.exec.store import active_store
    from repro.policies import make_policy
    from repro.sim.metrics import collect_metrics
    from repro.sim.runner import build_simulator

    skip = set(skip)
    members = [m for m in unit.member_jobs if m.job_id not in skip]
    if not members:
        return
    started = time.perf_counter()
    active_cache = cache if cache is not None else GLOBAL_CACHE
    hits_before = active_cache.hits
    gen_before = active_cache.gen_seconds
    trace = cached_trace(unit.benchmark, unit.trace_length,
                         unit.effective_seed, profiler=profiler,
                         cache=active_cache)
    first_cache_hit = active_cache.hits > hits_before
    tracegen = active_cache.gen_seconds - gen_before
    active_cache.count_group_reuse(len(members) - 1)
    policies = {m.policy: make_policy(m.policy) for m in members}
    fallback = {name: kernel_fallback(unit.config, policy, tracer)
                for name, policy in policies.items()}
    variants = {name: structural_variant(unit.config, policies[name])
                for name, reason in fallback.items() if reason is None}
    prepasses = {}
    for variant in variants.values():
        if variant not in prepasses:
            prepasses[variant] = _shared_prepass(
                unit, variant, trace, active_store(), profiler=profiler)
    columns = native.trace_columns(trace.packed()) if prepasses else None
    shared_seconds = time.perf_counter() - started
    for position, member in enumerate(members):
        if _ATTEMPT_HOOK is not None:
            _ATTEMPT_HOOK(member,
                          attempt_of(member) if attempt_of is not None
                          else 1)
        member_start = time.perf_counter()
        if member.policy in variants:
            result = replay_policy(prepasses[variants[member.policy]],
                                   policies[member.policy], unit.config,
                                   trace_name=getattr(trace, "name",
                                                      "trace"),
                                   profiler=profiler, columns=columns)
        else:
            core, _ = build_simulator(unit.config, member.policy,
                                      tracer=tracer)
            result = core.run(trace, warmup=unit.warmup,
                              profiler=profiler)
        if profiler is not None:
            with profiler.phase("metrics"):
                result.metrics = collect_metrics(result)
        else:
            result.metrics = collect_metrics(result)
        wall = time.perf_counter() - member_start
        if position == 0:
            wall += shared_seconds
        result.accounting = {
            "wall_seconds": round(wall, 6),
            "tracegen_seconds": round(tracegen if position == 0 else 0.0,
                                      6),
            "cache_hit": first_cache_hit if position == 0 else True,
            "store_hit": False,
            "peak_rss_kb": _peak_rss_kb(),
            "model": fallback[member.policy] or "kernel",
        }
        yield member, result


def _shared_prepass(unit, config, trace, store, profiler=None):
    """The unit's prepass for structural variant ``config``:
    store-loaded or built-and-saved.

    A store load re-attaches the (cached) trace's packed columns; a
    build publishes under a single-flight lock so concurrent workers
    walking the same (trace, variant, warmup) pay one walk.
    """
    from repro.cpu.prepass import build_prepass

    def build():
        if profiler is not None:
            with profiler.phase("prepass"):
                return build_prepass(trace, config, warmup=unit.warmup)
        return build_prepass(trace, config, warmup=unit.warmup)

    if store is None:
        return build()
    key = (unit.benchmark, unit.trace_length, unit.effective_seed,
           config, unit.warmup)
    packed = trace.packed()
    prepass = store.load_prepass(*key, packed)
    if prepass is not None:
        return prepass
    with store.single_flight("prepass", store.prepass_name(*key)):
        prepass = store.load_prepass(*key, packed)
        if prepass is not None:
            return prepass
        prepass = build()
        store.save_prepass(prepass, *key)
    return prepass


def _worker_run_unit(unit, attempt=1):
    """Pool entry: runs every member of ``unit``, returns the list.

    The ``[(member_job_id, result), ...]`` list crosses the pickle
    boundary whole, so a pool attempt is all-or-nothing: a worker death
    mid-group yields no partial results and the retry re-runs the full
    unit (bit-identically, since execution is pure).  The attempt hook
    fires per member (inside :func:`iter_unit_results`), all reporting
    the unit's attempt number.
    """
    return unit.job_id, [
        (member.job_id, result)
        for member, result in iter_unit_results(
            unit, attempt_of=lambda member: attempt)
    ]


class Executor:
    """Common driver: store resume, retries, progress, results."""

    backend = "abstract"
    jobs = 1
    #: Whether a partly-resumed unit is trimmed to its unfinished
    #: members before execution (the dist backend keeps the original
    #: unit: it may already sit in the spool under its own id).
    trim_groups = True

    def __init__(self):
        self.last_outcomes = {}

    def result_store(self):
        """The store this run resumes from and publishes to (or None)."""
        from repro.exec.store import active_store

        return active_store()

    def run(self, jobs, tracer=None, profiler=None, progress=None,
            failure_policy=None, metrics=None):
        """Execute ``jobs``; returns ``{job: RunResult}``.

        With a :meth:`result_store` the call is resumable: every job is
        looked up once, before anything runs; jobs the store already
        holds under the current code fingerprint come back with
        ``STATUS_RESUMED`` and are never sent to a worker, and every
        fresh completion is published before the next job starts, so an
        interrupted sweep rerun against the same store loses at most
        its in-flight jobs.

        ``failure_policy`` (default: fail-fast, no timeout -- exactly
        the historical behaviour) governs retries, per-attempt timeouts
        and whether a terminal failure aborts or skips.  Jobs skipped
        this way are *absent* from the returned mapping; inspect
        ``self.last_outcomes`` / ``self.failures`` for the report.

        ``progress(job, result, done, total)`` fires per completion in
        the calling process.  ``tracer`` receives job-lane events only,
        on every backend; per-run events are :func:`execute_job`'s.

        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        receives the standard execution-layer families -- jobs settled
        by status, wall-time/backoff histograms, queue depth, cache and
        degradation counters.  None (the default) routes every record
        through the shared null registry: a no-op per event, and
        nothing that can perturb simulated cycle counts.
        """
        jobs = list(jobs)
        store = self.result_store()
        results = {}
        pending = []
        outcomes = {}
        total = 0

        def resume(job):
            if store is None:
                return False
            started = time.perf_counter()
            done = store.load_result(job)
            if done is None:
                return False
            done.accounting = _store_hit_accounting(started)
            results[job] = done
            outcomes[job.job_id] = JobResult(
                job_id=job.job_id, status=STATUS_RESUMED, attempts=0,
                store_hit=True,
                peak_rss_kb=done.accounting["peak_rss_kb"])
            return True

        for unit in jobs:
            # Units resume member-wise: stored members come back from
            # disk and a group is trimmed to the rest, so a rerun pays
            # only the evaluations that never finished.
            total += len(unit.policies)
            remaining = [member.policy for member in unit.member_jobs
                         if not resume(member)]
            if len(remaining) == len(unit.policies):
                pending.append(unit)
            elif remaining:
                pending.append(unit.subset(remaining)
                               if self.trim_groups else unit)
        state = _RunState(total, len(outcomes), store, tracer, profiler,
                          progress, failure_policy or FailurePolicy(),
                          outcomes, metrics=metrics)
        state.jm.jobs.labels(STATUS_RESUMED).inc(len(outcomes))
        state.jm.store_jobs.inc(len(outcomes))
        state.jm.pending.set(total - len(outcomes))
        self.last_outcomes = outcomes
        if pending:
            self._execute(pending, results, state)
        return results

    @property
    def failures(self):
        """Failed JobResults from the last run, keyed by job_id."""
        return {job_id: outcome
                for job_id, outcome in self.last_outcomes.items()
                if outcome.status == STATUS_FAILED}

    def _execute(self, pending, results, state):
        raise NotImplementedError

    def _run_unit(self, unit, results, state, cache=None,
                  prior_attempts=0, started=None):
        """The in-process attempt loop for one unit under the policy.

        Shared by the serial backend, the pool backend's degraded path
        and the dist driver's local fallback.  ``prior_attempts`` /
        ``started`` carry bookkeeping from attempts already spent on the
        unit elsewhere.

        Members are published incrementally (each is saved to the store
        and settled by ``state.complete`` before the next starts), so a
        kill mid-group loses only the in-flight member, and a retry
        after a mid-group fault re-runs only the members that never
        completed -- the grouped analogue of per-job resume.

        Retries are charged *per member*, not per group: a pass aborts
        at its first failing member (members execute in order, so that
        is the first member not yet settled), that member alone is
        charged the attempt, and the next pass resumes from it.  A
        member that exhausts the failure policy is failed individually
        and the rest of the group still runs -- the same semantics N
        ungrouped jobs would have had.
        """
        policy = state.policy
        start = started if started is not None else time.perf_counter()
        done_ids = set()   # settled members: completed or failed
        counts = {}        # member job_id -> failed attempts so far

        def attempt_of(member):
            return (prior_attempts + counts.get(member.job_id, 0) + 1)

        while True:
            try:
                with attempt_deadline(policy.timeout):
                    for member, result in iter_unit_results(
                            unit, skip=done_ids, profiler=state.profiler,
                            cache=cache, attempt_of=attempt_of):
                        results[member] = result
                        done_ids.add(member.job_id)
                        state.complete(member, result,
                                       attempts=attempt_of(member),
                                       wall=(time.perf_counter()
                                             - start))
            except Exception as exc:
                victim = next(member for member in unit.member_jobs
                              if member.job_id not in done_ids)
                count = attempt_of(victim)
                counts[victim.job_id] = (counts.get(victim.job_id, 0)
                                         + 1)
                if policy.should_retry(count):
                    delay = policy.backoff(victim.job_id, count)
                    state.retry(victim, count, exc, delay)
                    if delay:
                        time.sleep(delay)
                    continue
                state.fail(victim, count,
                           time.perf_counter() - start, exc)
                done_ids.add(victim.job_id)
                continue
            return

    def describe(self):
        """Backend metadata for manifests ({"backend": ..., "jobs": ...})."""
        return {"backend": self.backend, "jobs": self.jobs}

    def close(self):
        """Release backend resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _RunState:
    """Per-run completion bookkeeping shared by the backends.

    ``jm`` holds the standard metric families: real ones when the run
    was handed a registry, the shared null metric otherwise, so every
    code path below records unconditionally.  ``store`` is the run's
    :meth:`Executor.result_store`.
    """

    def __init__(self, total, done, store, tracer, profiler, progress,
                 policy, outcomes, metrics=None):
        self.total = total
        self.done = done
        self.store = store
        self.tracer = tracer
        self.profiler = profiler
        self.progress = progress
        self.policy = policy
        self.outcomes = outcomes
        self.jm = JobMetrics(metrics)

    def complete(self, job, result, attempts=1, wall=0.0, publish=True):
        """Settle one fresh result, publishing it to the run's store.

        ``publish=False`` is for results that were read out of the
        store in the first place (the dist driver's settle loop).  A
        failed publish does not fail the job -- the result is in
        memory -- but it cannot be resumed; the store counts it in
        ``repro_store_write_errors_total``.
        """
        if publish and self.store is not None:
            self.store.save_result(job, result)
        self.done += 1
        accounting = getattr(result, "accounting", None) or {}
        self.outcomes[job.job_id] = JobResult(
            job_id=job.job_id, status=STATUS_OK, attempts=attempts,
            wall_time=wall, cache_hit=accounting.get("cache_hit"),
            store_hit=accounting.get("store_hit"),
            peak_rss_kb=accounting.get("peak_rss_kb"))
        self.jm.observe_completed(result, wall, status=STATUS_OK)
        self.jm.pending.set(self.total - self.done)
        if self.tracer is not None:
            self.tracer.emit(JOB_DONE, LANE_JOBS, self.done,
                             job_id=job.job_id, benchmark=job.benchmark,
                             policy=job.policy, cycles=result.cycles,
                             attempts=attempts, completed=self.done,
                             total=self.total)
        if self.progress is not None:
            self.progress(job, result, self.done, self.total)

    def retry(self, job, attempt, exc, delay):
        self.jm.retries.inc()
        self.jm.backoff.observe(delay)
        if isinstance(exc, JobTimeoutError):
            self.jm.timeouts.inc()
        if self.tracer is not None:
            self.tracer.emit(JOB_RETRY, LANE_JOBS, self.done,
                             job_id=job.job_id, attempt=attempt,
                             error=repr(exc), delay=round(delay, 6))

    def fail(self, job, attempts, wall, exc):
        """Record a terminal failure; re-raises under fail-fast."""
        self.done += 1
        outcome = JobResult(
            job_id=job.job_id, status=STATUS_FAILED, attempts=attempts,
            wall_time=wall, error=repr(exc))
        self.outcomes[job.job_id] = outcome
        self.jm.jobs.labels(STATUS_FAILED).inc()
        self.jm.pending.set(self.total - self.done)
        if isinstance(exc, JobTimeoutError):
            self.jm.timeouts.inc()
        if self.tracer is not None:
            self.tracer.emit(JOB_FAILED, LANE_JOBS, self.done,
                             job_id=job.job_id, benchmark=job.benchmark,
                             policy=job.policy, attempts=attempts,
                             error=repr(exc))
        if self.progress is not None:
            # Failures advance the same done/total cursor completions
            # do; the renderer receives the failed JobResult (no
            # ``.cycles``) and must render a FAILED marker.  Fired
            # before the fail-fast raise so the status line reflects
            # the terminal job even when the run aborts here.
            self.progress(job, outcome, self.done, self.total)
        if self.policy.mode == FAIL_FAST:
            raise exc

    def degraded(self, reason, remaining):
        self.jm.degraded.inc()
        if self.tracer is not None:
            self.tracer.emit(BACKEND_DEGRADED, LANE_JOBS, self.done,
                             reason=reason, remaining=remaining)

    def host_lost(self, host_id, job_id, lease_age):
        """A dist worker host stopped heartbeating while holding a job."""
        self.jm.host_lost.inc()
        if self.tracer is not None:
            self.tracer.emit(HOST_LOST, LANE_JOBS, self.done,
                             host=host_id, job_id=job_id,
                             lease_age=round(lease_age, 3))


class SerialExecutor(Executor):
    """In-process, in-order execution (the reference backend).

    Timeouts are enforced with ``SIGALRM`` (POSIX main thread only; see
    :func:`~repro.exec.retry.attempt_deadline`).
    """

    backend = "serial"
    jobs = 1

    def __init__(self, cache=None):
        super().__init__()
        self._cache = cache

    def _execute(self, pending, results, state):
        # Evictions can only be observed driver-side (pool workers'
        # caches live in other processes), so this delta is the serial
        # backend's contribution alone.
        cache = self._cache if self._cache is not None else GLOBAL_CACHE
        evictions_before = cache.evictions
        for unit in pending:
            self._run_unit(unit, results, state, cache=self._cache)
        state.jm.cache_evictions.inc(cache.evictions - evictions_before)


class ParallelExecutor(Executor):
    """``ProcessPoolExecutor`` fan-out over ``jobs`` worker processes.

    Workers regenerate traces through their own per-process cache (see
    :mod:`repro.exec.cache`) and return pickled ``RunResult``s; results
    are keyed by job, so output is deterministic no matter which worker
    finishes first.  The pool is created lazily and reused across
    ``run`` calls until :meth:`close`, so ablation grids amortise the
    fork cost over the whole parameter grid.

    Crash isolation: a worker death (OOM kill, segfault, chaos
    injection) breaks the whole ``ProcessPoolExecutor``; this backend
    responds by killing the stragglers, rebuilding the pool and
    resubmitting every incomplete job -- no attempt is charged, because
    the pool cannot say whose worker died.  A job that outlives the
    policy timeout *is* charged an attempt: its deadline identifies it,
    the pool is rebuilt around the hung worker and the job re-enters
    the retry loop.  After ``max_rebuilds`` consecutive pool losses the
    remaining jobs run serially in-process (``BACKEND_DEGRADED``), so a
    persistently hostile environment slows a sweep down rather than
    aborting it.

    ``initializer``/``initargs`` are forwarded to every worker process
    (the chaos harness uses this to install its fault plan).
    """

    backend = "process"

    def __init__(self, jobs=None, initializer=None, initargs=(),
                 max_rebuilds=2):
        super().__init__()
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self.max_rebuilds = max_rebuilds
        self.rebuilds = 0
        self.degraded = False
        self._initializer = initializer
        self._initargs = initargs
        self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=self._initializer,
                initargs=self._initargs)
        return self._pool

    def _break_pool(self):
        """Tear down the pool, killing any worker that is still alive."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _execute(self, pending, results, state):
        from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                        wait)

        policy = state.policy
        start = time.perf_counter()
        attempts = {}
        first_start = {}
        queue = list(pending)
        inflight = {}  # future -> (job, deadline or None)
        rebuilds = 0
        try:
            while queue or inflight:
                pool = self._ensure_pool()
                # Cap in-flight submissions at the worker count so a
                # per-attempt deadline measures the attempt, not time
                # spent queued behind other jobs.
                while queue and len(inflight) < self.jobs:
                    job = queue[0]
                    attempt = attempts.get(job.job_id, 0) + 1
                    try:
                        future = pool.submit(_worker_run_unit, job,
                                             attempt)
                    except RuntimeError:  # pool broke under us
                        break
                    queue.pop(0)
                    attempts[job.job_id] = attempt
                    first_start.setdefault(job.job_id,
                                           time.perf_counter())
                    deadline = (time.monotonic() + policy.timeout
                                if policy.timeout else None)
                    inflight[future] = (job, deadline)
                if not inflight:
                    # Submission failed before anything was in flight:
                    # rebuild and retry (or degrade).
                    self._break_pool()
                    rebuilds += 1
                    if self._maybe_degrade(rebuilds, queue, results,
                                           state, attempts, first_start):
                        return
                    continue

                deadlines = [dl for (_, dl) in inflight.values()
                             if dl is not None]
                timeout = (max(0.0, min(deadlines) - time.monotonic())
                           if deadlines else None)
                done, _ = wait(list(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)

                broke = False
                for future in done:
                    job, _ = inflight.pop(future)
                    try:
                        _, result = future.result()
                    except BrokenExecutor:
                        # A worker died; nobody can tell whose job did
                        # it, so requeue without charging an attempt.
                        broke = True
                        attempts[job.job_id] -= 1
                        queue.append(job)
                    except Exception as exc:
                        self._attempt_failed(job, exc, attempts,
                                             first_start, queue, state)
                    else:
                        wall = (time.perf_counter()
                                - first_start[job.job_id])
                        members = {member.job_id: member
                                   for member in job.member_jobs}
                        for member_id, member_result in result:
                            member = members[member_id]
                            results[member] = member_result
                            state.complete(member, member_result,
                                           attempts=attempts[job.job_id],
                                           wall=wall)

                now = time.monotonic()
                expired = [future
                           for future, (job, dl) in inflight.items()
                           if dl is not None and now >= dl]
                for future in expired:
                    job, _ = inflight.pop(future)
                    broke = True  # its worker is wedged; rebuild
                    exc = JobTimeoutError(
                        "job %s attempt %d exceeded %.3fs timeout"
                        % (job.job_id, attempts[job.job_id],
                           policy.timeout),
                        job_id=job.job_id,
                        attempts=attempts[job.job_id])
                    self._attempt_failed(job, exc, attempts, first_start,
                                         queue, state)

                if broke:
                    for future, (job, _) in inflight.items():
                        attempts[job.job_id] -= 1
                        queue.append(job)
                    inflight.clear()
                    self._break_pool()
                    rebuilds += 1
                    if self._maybe_degrade(rebuilds, queue, results,
                                           state, attempts, first_start):
                        return
        finally:
            self.rebuilds += rebuilds
            state.jm.pool_rebuilds.inc(rebuilds)
            if state.profiler is not None:
                state.profiler.add("execute",
                                   time.perf_counter() - start)

    def _attempt_failed(self, job, exc, attempts, first_start, queue,
                        state):
        """Route one failed attempt through the policy (retry or fail)."""
        count = attempts[job.job_id]
        policy = state.policy
        if policy.should_retry(count):
            delay = policy.backoff(job.job_id, count)
            state.retry(job, count, exc, delay)
            if delay:
                time.sleep(delay)
            queue.append(job)
        else:
            wall = time.perf_counter() - first_start[job.job_id]
            # A pool attempt is all-or-nothing, so a terminal failure
            # fails every member (each gets its own JOB_FAILED outcome
            # under its own job_id).
            for member in job.member_jobs:
                state.fail(member, count, wall, exc)

    def _maybe_degrade(self, rebuilds, queue, results, state, attempts,
                       first_start):
        """After too many pool losses, finish the run serially."""
        if rebuilds <= self.max_rebuilds:
            return False
        self.degraded = True
        state.degraded("process pool broke %d times" % rebuilds,
                       remaining=len(queue))
        while queue:
            job = queue.pop(0)
            self._run_unit(job, results, state,
                           prior_attempts=attempts.get(job.job_id, 0),
                           started=first_start.get(job.job_id))
        return True

    def describe(self):
        info = {"backend": self.backend, "jobs": self.jobs}
        if self.rebuilds:
            info["pool_rebuilds"] = self.rebuilds
        if self.degraded:
            info["degraded"] = True
        return info

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def default_jobs():
    """Worker count when none is given: ``REPRO_JOBS`` env var, else 1.

    Serial is the default on purpose -- tests and small runs should not
    pay pool startup -- while ``REPRO_JOBS=8`` turns every sweep in a
    process parallel without touching call sites.
    """
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def make_executor(jobs=None):
    """Backend for ``jobs`` workers (None: :func:`default_jobs`)."""
    jobs = default_jobs() if jobs is None else jobs
    if jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs)


@contextmanager
def executor_scope(executor=None, jobs=None):
    """Yield ``executor``, or a fresh one that is closed on exit.

    Callers that accept an optional executor use this so a borrowed
    executor (and its warm worker pool) survives the call while a
    default-constructed one is cleaned up.
    """
    if executor is not None:
        yield executor
        return
    executor = make_executor(jobs)
    try:
        yield executor
    finally:
        executor.close()
