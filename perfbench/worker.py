"""One benchmark process: set up, regenerate figures, report JSON.

Started by ``run.py`` as ``python3 perfbench/worker.py '<config JSON>'``.
The process sets up (imports, native kernel, its store), prints one
``READY`` line so the parent can time set-up from the outside, does the
work its ``mode`` names and prints its result as the last line:

- ``probe``: set up and exit (a set-up sample);
- ``cold``: one regeneration of every artifact against an empty store;
- ``warm``: ``passes`` regenerations into fresh output directories
  against a copy of the warmed store;
- ``fill``: build the warmed store (figures plus the sweep grid) that
  ``warm`` and the server copy;
- ``reference``: a store-free serial regeneration plus the sweep grid,
  recorded as the digests and cycle counts every run is gated against.
"""

import json
import os
import resource
import shutil
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spans  # noqa: E402


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def setup(config):
    """Imports, native kernel, and this process's store; returns it."""
    from repro.cpu import native
    from repro.exec.cache import GLOBAL_CACHE
    from repro.exec.store import ArtifactStore, set_active_store
    import repro.experiments.figures  # noqa: F401

    available = native.native_available()
    store = None
    if config.get("store"):
        if config.get("master_store"):
            common.clone_store(config["master_store"], config["store"])
        else:
            _fresh_dir(config["store"])
        store = ArtifactStore(config["store"])
    set_active_store(store)
    GLOBAL_CACHE.clear()
    return store, available


def regenerate(config, out_dir, recorder=None):
    """One ``run_figures`` pass; returns (seconds, summary)."""
    from repro.experiments.figures import run_figures

    scale = config["scale"]
    call = run_figures
    if recorder is not None:
        call = recorder.wrap("figures.run", run_figures)
    _fresh_dir(out_dir)
    started = perf_counter()
    summary = call(list(scale["figures"]), out_dir,
                   num_instructions=scale["num_instructions"],
                   warmup=scale["warmup"], jobs=1,
                   benchmarks=scale["benchmarks"], emit_json=True)
    return perf_counter() - started, summary


def run_passes(config, store):
    """``cold`` and ``warm``: timed, gated regeneration passes."""
    from repro.exec.cache import GLOBAL_CACHE

    reference = common.load_json(config["reference"])
    recorder = None
    if config.get("trace"):
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    passes = []
    while len(passes) < config["passes"]:
        out_dir = os.path.join(config["out_root"], "pass")
        first_span = len(recorder.spans) if recorder else 0
        counters_before = dict(store.counters)
        GLOBAL_CACHE.reset_stats()
        seconds, _ = regenerate(config, out_dir, recorder)
        attempted, failed, problems = common.check_figures(
            out_dir, reference, config["scale"]["figures"])
        record = {"figures_s": seconds, "attempted": attempted,
                  "failed": failed, "problems": problems}
        if recorder is not None:
            pass_spans = recorder.spans[first_span:]
            layers, tree = spans.layer_metrics(
                pass_spans,
                spans.counter_delta(dict(store.counters), counters_before),
                GLOBAL_CACHE.stats())
            layers["unattributed_s"] = tree.self_s(
                spans.exact("figures.run"))
            record["layers"] = layers
        passes.append(record)
        shutil.rmtree(out_dir, ignore_errors=True)
    if recorder is not None and config.get("spans_out"):
        recorder.write(config["spans_out"])
    return {"passes": passes}


def fill(config, store):
    """Warm ``store`` and ``out_root`` with everything the warm
    workloads read, and gate what was produced."""
    from repro.exec import executor_scope
    from repro.exec.job import build_job_groups

    scale = config["scale"]
    reference = common.load_json(config["reference"])
    regenerate(config, config["out_root"])
    attempted, failed, problems = common.check_figures(
        config["out_root"], reference, scale["figures"])
    groups = build_job_groups(scale["grid_benchmarks"],
                              scale["grid_policies"],
                              num_instructions=scale["num_instructions"],
                              warmup=scale["warmup"])
    with executor_scope(None, jobs=1) as executor:
        executor.run(groups)
    for group in groups:
        for member in group.member_jobs:
            attempted += 1
            result = store.load_result(member)
            expected = reference["cells"].get(
                common.cell_key(member.benchmark, member.policy))
            if result is None or result.cycles != expected:
                failed += 1
                problems.append("grid cell %s/%s"
                                % (member.benchmark, member.policy))
    return {"attempted": attempted, "failed": failed, "problems": problems}


def record_reference(config):
    """Digests and cycle counts from a store-free serial run."""
    from repro.exec import executor_scope
    from repro.exec.job import build_job_groups

    scale = config["scale"]
    out_dir = config["out_root"]
    _, summary = regenerate(config, out_dir)
    if summary["total_failures"]:
        raise RuntimeError("reference run had %d failed job(s)"
                           % summary["total_failures"])
    artifacts = {}
    for name in scale["figures"]:
        for suffix in (".json", ".txt"):
            artifacts[name + suffix] = common.sha256_file(
                os.path.join(out_dir, name + suffix))
    groups = build_job_groups(scale["grid_benchmarks"],
                              scale["grid_policies"],
                              num_instructions=scale["num_instructions"],
                              warmup=scale["warmup"])
    with executor_scope(None, jobs=1) as executor:
        results = executor.run(groups)
    cells = {common.cell_key(job.benchmark, job.policy): result.cycles
             for job, result in results.items()}
    return {"scale": scale, "artifacts": artifacts, "cells": cells}


def main():
    config = json.loads(sys.argv[1])
    store, available = setup(config)
    print("READY " + json.dumps({"native": available}), flush=True)
    mode = config["mode"]
    if mode == "probe":
        result = {}
    elif mode in ("cold", "warm"):
        result = run_passes(config, store)
    elif mode == "fill":
        result = fill(config, store)
    elif mode == "reference":
        result = record_reference(config)
    else:
        raise SystemExit("unknown mode %r" % mode)
    result["native"] = available
    result["peak_rss_mb"] = _rss_mb()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
