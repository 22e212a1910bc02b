"""Smoke test of the benchmark itself, at a tiny scale.

    python3 perfbench/smoke.py

Records a tiny-scale reference (2 figures on 2 benchmarks), runs every
workload untraced and traced for one second, and checks that each run
passes its gate and emits exactly the metrics BENCHMARK.json declares,
with their units.  It then checks that the gate trips: on a figure
artifact with one byte flipped, on served figure bodies with one byte
flipped, and on a grid cell whose reference cycle count is off by one.
Finally it checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402

WORK = os.path.join(common.WORK, "smoke")
REFERENCE = os.path.join(WORK, "reference.json")
SEED = 7


def expect(condition, message):
    if not condition:
        raise SystemExit("smoke: FAILED: %s" % message)


def flip_byte(path):
    with open(path, "r+b") as handle:
        first = handle.read(1)
        handle.seek(0)
        handle.write(bytes([first[0] ^ 0x01]))


def declared_metrics():
    spec = common.load_json(os.path.join(common.ROOT, "BENCHMARK.json"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_runs():
    end_to_end, per_layer, workloads = declared_metrics()
    expect(set(workloads) <= set(run.WORKLOADS),
           "BENCHMARK.json names a workload run.py does not know")
    results = {}
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(workload, SEED, 1, trace,
                                      scale=common.SMOKE_SCALE,
                                      reference_path=REFERENCE, work=WORK)
            label = "%s trace=%d" % (workload, trace)
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, label + ": result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, label + ": gate failed")
            declared = per_layer if trace else end_to_end
            metrics = result["metrics"]
            expect(set(metrics) == set(declared),
                   label + ": metrics differ from BENCHMARK.json: %s"
                   % sorted(set(metrics) ^ set(declared)))
            for name, metric in metrics.items():
                expect(metric["unit"] == declared[name],
                       "%s: unit of %s" % (label, name))
                expect(isinstance(metric["value"], (int, float))
                       and math.isfinite(metric["value"]),
                       "%s: value of %s" % (label, name))
            results[label] = {name: metric["value"]
                              for name, metric in metrics.items()}
            print("smoke: %s ok (%d operations)"
                  % (label, result["attempted"]), flush=True)
    cold = results["figures-cold trace=1"]
    expect(cold["cpu.core.calls"] + cold["cpu.shared_kernel.calls"] > 0
           and cold["exec.store.save_result.calls"] > 0,
           "figures-cold traced run simulated nothing")
    for label in ("figures-warm trace=1", "serve-sweep trace=1"):
        layers = results[label]
        idle = [name for name in layers
                if (name.startswith("cpu.")
                    or name.startswith("workloads.tracegen"))
                and name.endswith(".calls") and layers[name] != 0]
        expect(not idle, "%s: simulation layers ran: %s" % (label, idle))
        expect(layers["exec.store.result_hit_frac"] == 1.0,
               label + ": a result-tier miss")
    expect(results["serve-sweep trace=1"]["serve.service.sweep.s"] > 0,
           "serve-sweep traced run recorded no sweep spans")


def check_gate_trips():
    reference = common.load_json(REFERENCE)
    figures = common.SMOKE_SCALE["figures"]
    probe = run.Run("serve-sweep", SEED, 1, common.SMOKE_SCALE, REFERENCE,
                    WORK)
    master = probe.master()
    scratch = tempfile.mkdtemp(dir=WORK)
    try:
        out = os.path.join(scratch, "out")
        shutil.copytree(os.path.join(master, "out"), out)
        _, failed, _ = common.check_figures(out, reference, figures)
        expect(failed == 0, "gate failed an untouched artifact copy")
        flip_byte(os.path.join(out, figures[0] + ".json"))
        _, failed, _ = common.check_figures(out, reference, figures)
        expect(failed == 1, "a flipped artifact byte passed the gate")

        perturbed = os.path.join(scratch, "master")
        shutil.copytree(master, perturbed)
        for name in figures:
            for suffix in (".json", ".txt"):
                flip_byte(os.path.join(perturbed, "out", name + suffix))
        os.makedirs(probe.dir)
        probe.master_dir = perturbed
        probe.master_store = os.path.join(perturbed, "store")
        served = probe.serve_phase("perturbed", False, SEED, count=24)
        kinds = [request["kind"] for request, _, _, _ in served["records"]]
        expect("figure" in kinds and "sweep" in kinds,
               "smoke request mix lacks a figure or a sweep request")
        expect(probe.failed == kinds.count("figure"),
               "served bodies with flipped bytes passed the gate")

        wrong = json.loads(json.dumps(reference))
        cell = common.cell_key(common.SMOKE_SCALE["grid_benchmarks"][0],
                               common.SMOKE_SCALE["grid_policies"][0])
        wrong["cells"][cell] += 1
        sweeps = [record for record in served["records"]
                  if record[0]["kind"] == "sweep"]
        failed, _ = loadgen.check(sweeps, reference)
        expect(failed == 0, "sweep responses failed the gate")
        failed, _ = loadgen.check(sweeps, wrong)
        touched = sum(1 for record in sweeps
                      if cell in {common.cell_key(b, p)
                                  for b in record[0]["benchmarks"]
                                  for p in record[0]["policies"]})
        expect(touched > 0 and failed == touched,
               "a wrong reference cycle count passed the gate")
    finally:
        shutil.rmtree(probe.dir, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: perturbed artifacts and cells trip the gate", flush=True)


def check_refuses_without_program():
    scratch = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(common.BENCH_DIR,
                        os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "figures-cold", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=scratch, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "run.py printed a result without a program to measure")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: refuses to run without the program", flush=True)


def main():
    os.makedirs(WORK, exist_ok=True)
    run.record_reference(common.SMOKE_SCALE, REFERENCE, WORK)
    check_runs()
    check_gate_trips()
    check_refuses_without_program()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
