"""Perf-benchmark harness: measure replay throughput, verify parity.

Three entry points, all reachable through ``repro perf``:

- :func:`run_matrix` times the simulator over a pinned
  (benchmark x policy) matrix and reports instructions/sec and wall time
  per cell plus an aggregate.  The timed region is ``TimestampCore.run``
  only: trace generation and simulator construction happen outside the
  clock, so the number tracks the replay loop the optimisations target
  (and matches how :data:`repro.perf.golden.PRE_PR_BASELINE` was
  measured).
- :func:`run_group_matrix` times the decode-once multi-policy fan: for
  each benchmark, every registered policy is evaluated both the legacy
  way (one ``build_simulator`` + ``core.run`` per policy) and the
  shared-pass way (one structural prepass replayed per policy), and the
  end-to-end speedup is reported alongside a cycle-identity check.
- :func:`check_goldens` re-runs the golden matrix *through both paths*
  and compares cycle counts and full stats digests against the pinned
  values -- the bit-identical timing-neutrality contract every hot-path
  change must keep.

:func:`write_report` serialises a matrix run as ``BENCH_<stamp>.json``
(at the repository root by convention) with the pre-PR baseline and the
measured speedups alongside the raw cells.
"""

import json
import os
import time

from repro.config import SimConfig
from repro.cpu.prepass import (build_prepass, policy_supported,
                               prepass_supported)
from repro.cpu.shared_kernel import replay_policy
from repro.exec.cache import cached_trace
from repro.perf.golden import (
    GOLDEN_BENCHMARKS,
    GOLDEN_CYCLES,
    GOLDEN_DIGESTS,
    GOLDEN_INSTRUCTIONS,
    GOLDEN_POLICIES,
    GOLDEN_WARMUP,
    PRE_PR_BASELINE,
    stats_digest,
)
from repro.policies import available_policies, make_policy
from repro.sim.runner import build_simulator

#: Default measurement matrix (kept deliberately identical to the one
#: PRE_PR_BASELINE was measured over, so speedups are like-for-like).
BENCH_BENCHMARKS = GOLDEN_BENCHMARKS
BENCH_POLICIES = GOLDEN_POLICIES
BENCH_INSTRUCTIONS = 20_000
BENCH_WARMUP = 5_000


def time_cell(benchmark, policy, num_instructions=BENCH_INSTRUCTIONS,
              warmup=BENCH_WARMUP, config=None, repeats=1):
    """Time one (benchmark, policy) cell; returns a result dict.

    The trace is generated (and packed) before the clock starts; each
    repeat rebuilds a fresh simulator outside the timed region and times
    ``core.run`` alone.  The best (shortest) wall time of ``repeats``
    runs is reported, which is the standard defence against scheduler
    noise for sub-second regions.
    """
    config = config or SimConfig()
    total = num_instructions + warmup
    trace = cached_trace(benchmark, total, config.seed)
    trace.packed()
    best_wall = None
    result = None
    for _ in range(max(1, repeats)):
        core, _hier = build_simulator(config, policy)
        start = time.perf_counter()
        result = core.run(trace, warmup=warmup)
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "benchmark": benchmark,
        "policy": policy,
        "instructions_simulated": total,
        "instructions_measured": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "wall_seconds": best_wall,
        "instructions_per_second": total / best_wall if best_wall else 0.0,
    }


def run_matrix(benchmarks=BENCH_BENCHMARKS, policies=BENCH_POLICIES,
               num_instructions=BENCH_INSTRUCTIONS, warmup=BENCH_WARMUP,
               config=None, repeats=1):
    """Time the full matrix; returns ``{"cells": [...], "aggregate": {}}``.

    The aggregate instructions/sec is total simulated instructions over
    total (best-of-repeats) wall time -- slow, miss-heavy benchmarks
    weigh in proportionally rather than being averaged away.
    """
    cells = []
    for bench in benchmarks:
        for policy in policies:
            cells.append(time_cell(bench, policy, num_instructions,
                                   warmup, config=config, repeats=repeats))
    total_inst = sum(c["instructions_simulated"] for c in cells)
    total_wall = sum(c["wall_seconds"] for c in cells)
    aggregate = {
        "instructions": total_inst,
        "wall_seconds": total_wall,
        "instructions_per_second":
            total_inst / total_wall if total_wall else 0.0,
    }
    baseline = PRE_PR_BASELINE["instructions_per_second"]
    return {
        "matrix": {
            "benchmarks": list(benchmarks),
            "policies": list(policies),
            "num_instructions": num_instructions,
            "warmup": warmup,
            "repeats": repeats,
        },
        "cells": cells,
        "aggregate": aggregate,
        "baseline": dict(PRE_PR_BASELINE),
        "speedup_vs_baseline":
            aggregate["instructions_per_second"] / baseline,
    }


def time_group_cell(benchmark, policies, num_instructions=BENCH_INSTRUCTIONS,
                    warmup=BENCH_WARMUP, config=None, repeats=1):
    """Time one benchmark's full policy fan both ways; returns a dict.

    The legacy region is what the reference model pays per policy
    after the trace cache warms: simulator construction plus the full
    replay, once per policy.  The grouped region is what a
    :class:`~repro.exec.job.MultiPolicySimJob` pays: one structural
    prepass plus one shared-kernel replay per policy (policies the
    shared pass cannot express fall back to the legacy build inside the
    same region, exactly as ``iter_unit_results`` does).  Trace
    generation and packing happen before either clock starts -- both
    paths share the cached trace, so it cancels out of the comparison.

    Both paths' cycle counts are cross-checked cell by cell; any
    disagreement is reported in ``cycle_mismatches`` (and would also
    fail ``repro perf --check``).
    """
    config = config or SimConfig()
    policies = tuple(policies)
    total = num_instructions + warmup
    trace = cached_trace(benchmark, total, config.seed)
    trace.packed()
    policy_objs = {name: make_policy(name) for name in policies}
    use_prepass = prepass_supported(config)

    legacy_cycles = {}
    best_legacy = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for name in policies:
            core, _hier = build_simulator(config, name)
            legacy_cycles[name] = core.run(trace, warmup=warmup).cycles
        wall = time.perf_counter() - start
        if best_legacy is None or wall < best_legacy:
            best_legacy = wall

    grouped_cycles = {}
    best_grouped = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        prepass = (build_prepass(trace, config, warmup=warmup)
                   if use_prepass else None)
        for name in policies:
            policy = policy_objs[name]
            if prepass is not None and policy_supported(policy):
                result = replay_policy(prepass, policy, config)
            else:
                core, _hier = build_simulator(config, name)
                result = core.run(trace, warmup=warmup)
            grouped_cycles[name] = result.cycles
        wall = time.perf_counter() - start
        if best_grouped is None or wall < best_grouped:
            best_grouped = wall

    mismatches = sorted(name for name in policies
                        if legacy_cycles[name] != grouped_cycles[name])
    return {
        "benchmark": benchmark,
        "policies": list(policies),
        "instructions_simulated": total,
        "legacy_wall_seconds": best_legacy,
        "grouped_wall_seconds": best_grouped,
        "speedup": best_legacy / best_grouped if best_grouped else 0.0,
        "cycles": dict(sorted(grouped_cycles.items())),
        "cycle_mismatches": mismatches,
    }


def run_group_matrix(benchmarks=BENCH_BENCHMARKS, policies=None,
                     num_instructions=BENCH_INSTRUCTIONS,
                     warmup=BENCH_WARMUP, config=None, repeats=1):
    """Time the grouped multi-policy sweep over every registered policy.

    This is the end-to-end number the decode-once refactor is gated on:
    total legacy wall (one simulator per policy, the pre-group sweep
    path) over total grouped wall (one prepass fanned to every policy)
    across the pinned benchmarks.  ``policies`` defaults to the full
    registry.
    """
    policies = tuple(policies) if policies else available_policies()
    cells = [time_group_cell(bench, policies, num_instructions, warmup,
                             config=config, repeats=repeats)
             for bench in benchmarks]
    legacy_wall = sum(c["legacy_wall_seconds"] for c in cells)
    grouped_wall = sum(c["grouped_wall_seconds"] for c in cells)
    return {
        "matrix": {
            "benchmarks": list(benchmarks),
            "policies": list(policies),
            "num_instructions": num_instructions,
            "warmup": warmup,
            "repeats": repeats,
        },
        "cells": cells,
        "aggregate": {
            "evaluations": len(cells) * len(policies),
            "legacy_wall_seconds": legacy_wall,
            "grouped_wall_seconds": grouped_wall,
            "speedup":
                legacy_wall / grouped_wall if grouped_wall else 0.0,
        },
        "cycles_identical":
            not any(c["cycle_mismatches"] for c in cells),
    }


def render_group_table(report):
    """Human-readable table for one :func:`run_group_matrix` report."""
    lines = ["%-8s %9s %9s %8s  %s"
             % ("bench", "legacy(s)", "group(s)", "speedup", "cycles")]
    for cell in report["cells"]:
        parity = ("identical" if not cell["cycle_mismatches"] else
                  "MISMATCH: " + ", ".join(cell["cycle_mismatches"]))
        lines.append("%-8s %9.3f %9.3f %7.2fx  %s"
                     % (cell["benchmark"], cell["legacy_wall_seconds"],
                        cell["grouped_wall_seconds"], cell["speedup"],
                        parity))
    agg = report["aggregate"]
    lines.append("%-8s %9.3f %9.3f %7.2fx  (%d policy evaluations)"
                 % ("total", agg["legacy_wall_seconds"],
                    agg["grouped_wall_seconds"], agg["speedup"],
                    agg["evaluations"]))
    return "\n".join(lines)


def run_store_bench(benchmarks=BENCH_BENCHMARKS, policies=BENCH_POLICIES,
                    num_instructions=BENCH_INSTRUCTIONS,
                    warmup=BENCH_WARMUP, config=None, store_dir=None):
    """Benchmark the artifact store: no-store vs cold vs warm phases.

    Each phase runs the same pinned grouped sweep end to end (tracegen,
    prepass and simulation all inside the clock -- the store's value is
    precisely that it removes those from the warm path) with a fresh
    :class:`~repro.exec.TraceCache`, so in-memory reuse never masks
    store reuse:

    - *no-store*: the historical path, no store active (the reference
      both digests and timing are compared against);
    - *cold*: an empty store -- pays generation plus publication;
    - *warm*: the store the cold phase filled -- every job should
      short-circuit on a stored result.

    The gate is ``identical``: per-job result digests
    (:func:`~repro.exec.chaos.result_digest`) must be bit-identical
    across all three phases.  ``store_dir`` keeps the store somewhere
    inspectable; default is a temp dir deleted on return.
    """
    import shutil
    import tempfile

    from repro.exec import (SerialExecutor, TraceCache, build_job_groups,
                            set_active_store)
    from repro.exec.chaos import result_digest
    from repro.exec.store import ArtifactStore

    config = config or SimConfig()
    root = store_dir or tempfile.mkdtemp(prefix="repro-store-bench-")

    def run_phase(store):
        previous = set_active_store(store)
        try:
            executor = SerialExecutor(cache=TraceCache())
            start = time.perf_counter()
            results = executor.run(build_job_groups(
                list(benchmarks), list(policies), config=config,
                num_instructions=num_instructions, warmup=warmup))
            wall = time.perf_counter() - start
        finally:
            set_active_store(previous)
        digests = {job.job_id: result_digest(result)
                   for job, result in results.items()}
        hits = sum(1 for outcome in executor.last_outcomes.values()
                   if outcome.store_hit)
        return wall, digests, hits

    try:
        no_store_wall, reference, _ = run_phase(None)
        cold_wall, cold_digests, _ = run_phase(ArtifactStore(root))
        warm_wall, warm_digests, warm_hits = run_phase(ArtifactStore(root))
        stats = ArtifactStore(root).stats()
    finally:
        if store_dir is None:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "matrix": {
            "benchmarks": list(benchmarks),
            "policies": list(policies),
            "num_instructions": num_instructions,
            "warmup": warmup,
        },
        "jobs": len(reference),
        "no_store_wall_seconds": no_store_wall,
        "cold_wall_seconds": cold_wall,
        "warm_wall_seconds": warm_wall,
        "warm_speedup_vs_cold":
            cold_wall / warm_wall if warm_wall else 0.0,
        "warm_store_hits": warm_hits,
        "store_bytes": stats["total_bytes"],
        "identical": reference == cold_digests == warm_digests,
    }


def render_store_table(report):
    """Human-readable table for one :func:`run_store_bench` report."""
    lines = ["%-10s %9s  %s" % ("phase", "wall(s)", "notes")]
    lines.append("%-10s %9.3f  reference (store off)"
                 % ("no-store", report["no_store_wall_seconds"]))
    lines.append("%-10s %9.3f  generates + publishes %d KB"
                 % ("cold", report["cold_wall_seconds"],
                    report["store_bytes"] // 1024))
    lines.append("%-10s %9.3f  %d/%d jobs served from the store"
                 % ("warm", report["warm_wall_seconds"],
                    report["warm_store_hits"], report["jobs"]))
    lines.append("warm speedup vs cold: %.2fx; results %s"
                 % (report["warm_speedup_vs_cold"],
                    "bit-identical across all three phases"
                    if report["identical"] else "DIVERGED"))
    return "\n".join(lines)


def render_table(report):
    """Human-readable table for one :func:`run_matrix` report."""
    lines = ["%-8s %-20s %10s %9s %8s"
             % ("bench", "policy", "inst/s", "wall(s)", "IPC")]
    for cell in report["cells"]:
        lines.append("%-8s %-20s %10.0f %9.3f %8.4f"
                     % (cell["benchmark"], cell["policy"],
                        cell["instructions_per_second"],
                        cell["wall_seconds"], cell["ipc"]))
    agg = report["aggregate"]
    lines.append("%-8s %-20s %10.0f %9.3f"
                 % ("total", "(aggregate)",
                    agg["instructions_per_second"], agg["wall_seconds"]))
    lines.append("baseline (pre-optimisation): %.0f inst/s -> "
                 "speedup %.2fx"
                 % (report["baseline"]["instructions_per_second"],
                    report["speedup_vs_baseline"]))
    return "\n".join(lines)


def write_report(report, path=None):
    """Write a matrix report as ``BENCH_<stamp>.json``; returns the path."""
    if path is None:
        stamp = time.strftime("%Y%m%d_%H%M%S")
        path = "BENCH_%s.json" % stamp
    payload = dict(report)
    payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return os.path.abspath(path)


def _verify_cell(key, path, cycles, digest):
    """Compare one (cell, path) outcome against the pinned goldens."""
    if cycles != GOLDEN_CYCLES[key]:
        return ["%s [%s]: cycles %d != golden %d"
                % (key, path, cycles, GOLDEN_CYCLES[key])]
    if digest != GOLDEN_DIGESTS[key]:
        return ["%s [%s]: cycles match but stats digest drifted "
                "(%s != %s)"
                % (key, path, digest[:16], GOLDEN_DIGESTS[key][:16])]
    return []


def check_goldens(config=None):
    """Re-run the pinned golden matrix; returns a list of mismatches.

    Every cell is evaluated twice -- once through the legacy
    ``build_simulator`` + ``core.run`` path and once through the
    decode-once shared pass (:func:`~repro.cpu.prepass.build_prepass` +
    :func:`~repro.cpu.shared_kernel.replay_policy`, the path a
    :class:`~repro.exec.job.MultiPolicySimJob` takes) -- and both
    outcomes must reproduce the pinned cycle count *and* full stats
    digest bit-identically.  An empty list means clean; each mismatch
    is a human-readable string naming the cell, the path that drifted
    and what drifted.
    """
    config = config or SimConfig()
    mismatches = []
    total = GOLDEN_INSTRUCTIONS + GOLDEN_WARMUP
    use_prepass = prepass_supported(config)
    for bench in GOLDEN_BENCHMARKS:
        trace = cached_trace(bench, total, config.seed)
        prepass = (build_prepass(trace, config, warmup=GOLDEN_WARMUP)
                   if use_prepass else None)
        for policy in GOLDEN_POLICIES:
            key = "%s/%s" % (bench, policy)
            core, hier = build_simulator(config, policy)
            result = core.run(trace, warmup=GOLDEN_WARMUP)
            mismatches += _verify_cell(
                key, "legacy", result.cycles,
                stats_digest(result.stats.as_dict(),
                             hier.miss_summary()))
            policy_obj = make_policy(policy)
            if prepass is None or not policy_supported(policy_obj):
                continue
            shared = replay_policy(prepass, policy_obj, config,
                                   trace_name=getattr(trace, "name",
                                                      "trace"))
            mismatches += _verify_cell(
                key, "shared", shared.cycles,
                stats_digest(shared.stats.as_dict(),
                             shared.miss_summary))
    return mismatches
