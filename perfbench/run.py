"""The repository benchmark: figure regeneration, cold and warm, and a
served sweep mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures-cold --seed 1 \\
        --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs the workload
once untraced and once with spans around every layer and reports the
per-layer metrics.  ``--record-reference`` rewrites
``perfbench/reference.json`` from a store-free serial run.  NOTES.md
explains the workloads and what each metric should predict.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402

#: ``figures-warm`` is not in BENCHMARK.json; NOTES.md says why.
WORKLOADS = ("figures-cold", "figures-warm", "serve-sweep")
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Passes per phase of a traced ``figures-warm`` run.
TRACE_WARM_PASSES = 3
#: Request sequence of both phases of a traced ``serve-sweep`` run: the
#: same requests whatever ``--seed``, so call counts repeat exactly.
TRACE_SEED = 0
#: Warmed stores kept per checkout, most recently used first.
MASTERS_KEPT = 2
#: A process that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def log(message):
    print("[perfbench] %s" % message, file=sys.stderr, flush=True)


class Child:
    """A benchmark process: ``READY`` line, then a JSON result line.

    ``started`` is taken just before the process starts, so set-up is
    timed from the outside; the constructor returns once ``READY``
    arrives.  The process is killed if it outlives
    :data:`CHILD_TIMEOUT_S` and is always waited for.
    """

    def __init__(self, script, config, env):
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.BENCH_DIR, script),
             json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=common.ROOT, text=True)
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._timer.daemon = True
        self._timer.start()
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("READY "):
                raise common.BenchError("%s did not start" % script)
            self.ready = json.loads(line[len("READY "):])
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def finish(self):
        """Close stdin, read the result line, wait for the exit."""
        self.proc.stdin.close()
        lines = self.proc.stdout.read().strip().splitlines()
        self.close()
        if self.proc.returncode != 0 or not lines:
            raise common.BenchError("benchmark process failed (exit code "
                                    "%s)" % self.proc.returncode)
        return json.loads(lines[-1])

    def close(self):
        self._timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


class Run:
    """One invocation: the run directory, the scale, the reference."""

    def __init__(self, workload, seed, seconds, scale, reference_path,
                 work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.reference_path = reference_path
        self.reference = common.load_json(reference_path)
        self.work = work
        self.dir = os.path.join(work, "runs", "%s-%d" % (workload,
                                                         os.getpid()))
        self.native = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def config(self, mode, **extra):
        config = {"mode": mode, "scale": self.scale,
                  "reference": self.reference_path}
        config.update(extra)
        return config

    def note_native(self, available):
        """Every process must see the native kernel as set-up saw it:
        the pure-Python fallback changes the timing, not the program."""
        if self.native is None:
            self.native = available
        elif available != self.native:
            raise common.BenchError(
                "native kernel availability changed during the run "
                "(set-up: %s, now: %s)" % (self.native, available))

    def gate(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    # -- the warmed store, built once per checkout and source tree ------

    def master(self):
        """Directory holding the warmed ``store`` and ``out``.

        Filling it is a full cold regeneration plus the sweep grid, so
        it is built once per source tree, like a build product, and
        every set-up clones it.  It is keyed on the program, the fill
        code, the scale and the reference, and it is only kept when the
        fill passed the gate.  The :data:`MASTERS_KEPT` most recently
        used ones are kept, so runs that alternate between two source
        trees fill each once.
        """
        key = _tree_digest(self.scale, self.reference_path)
        root = os.path.join(self.work, "master")
        path = os.path.join(root, key)
        if os.path.isdir(path):
            os.utime(path)
            return path
        _prune_masters(root)
        tmp = "%s.tmp-%d" % (path, os.getpid())
        os.makedirs(tmp)
        try:
            store = os.path.join(tmp, "store")
            log("filling the warmed store (once per source tree)")
            with Child("worker.py",
                       self.config("fill", store=store,
                                   out_root=os.path.join(tmp, "out")),
                       common.child_env(store)) as child:
                result = child.finish()
            self.note_native(result["native"])
            if result["failed"]:
                raise common.BenchError(
                    "warmed-store fill failed the gate: %s"
                    % "; ".join(result["problems"][:5]))
            log("warmed store filled in %.1f s" % (perf_counter()
                                                    - child.started))
            try:
                os.rename(tmp, path)
            except OSError:
                if not os.path.isdir(path):
                    raise
                # Another run published the same fill first.
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return path

    # -- set-up ---------------------------------------------------------

    def setup_once(self):
        """One complete set-up of this workload; returns its seconds."""
        if self.workload == "serve-sweep":
            child = self.start_server("probe", trace=False)
        else:
            store = os.path.join(self.dir, "probe-store")
            config = self.config("probe", store=store)
            if self.workload == "figures-warm":
                config["master_store"] = self.master_store
            child = Child("worker.py", config, common.child_env(store))
        with child:
            if self.workload == "serve-sweep":
                loadgen.first_answers(child.ready["port"], self.scale)
            seconds = perf_counter() - child.started
            self.note_native(child.ready["native"])
            child.finish()
        return seconds

    def start_server(self, name, trace):
        store = os.path.join(self.dir, name + "-store")
        config = self.config(
            "serve", store=store, out_dir=os.path.join(self.dir,
                                                       name + "-out"),
            master_store=self.master_store,
            master_out=os.path.join(self.master_dir, "out"), trace=trace,
            spans_out=self.spans_path(name))
        return Child("server.py", config, common.child_env(store))

    def spans_path(self, name):
        return os.path.join(self.dir, name + "-spans.json")

    # -- workloads ------------------------------------------------------

    def figures_phase(self, mode, trace, passes):
        """``passes`` regeneration passes, each cold one in a process of
        its own; returns the per-pass records and the peak RSS of each
        process that ran them."""
        records = []
        rss = []
        for _ in range(passes if mode == "cold" else 1):
            store = os.path.join(self.dir, "store")
            config = self.config(
                mode, store=store, out_root=os.path.join(self.dir, "out"),
                trace=trace, passes=1 if mode == "cold" else passes,
                spans_out=self.spans_path(mode))
            if mode == "warm":
                config["master_store"] = self.master_store
            with Child("worker.py", config,
                       common.child_env(store)) as child:
                self.note_native(child.ready["native"])
                result = child.finish()
            for record in result["passes"]:
                self.gate(record["attempted"], record["failed"],
                          record["problems"])
            records.extend(result["passes"])
            rss.append(result["peak_rss_mb"])
            shutil.rmtree(store, ignore_errors=True)
        return records, rss

    def serve_phase(self, name, trace, seed, seconds=None, count=None):
        with self.start_server(name, trace) as child:
            self.note_native(child.ready["native"])
            records, wall = loadgen.closed_loop(
                child.ready["port"], loadgen.requests(seed, self.scale),
                seconds=seconds, count=count)
            summary = child.finish()
        failed, problems = loadgen.check(records, self.reference)
        self.gate(len(records), failed, problems)
        if summary["regenerations"]:
            self.gate(0, 0, ["server ran %d regeneration(s)"
                             % summary["regenerations"]])
        summary["records"] = records
        summary["wall_s"] = wall
        return summary

    def end_to_end(self):
        if self.workload == "serve-sweep":
            summary = self.serve_phase("serve", False, self.seed,
                                       seconds=self.seconds)
            latencies = [record[3] * 1000.0 for record in summary["records"]]
            ops_per_s = len(latencies) / summary["wall_s"]
            rss = summary["peak_rss_mb"]
        else:
            mode = "cold" if self.workload == "figures-cold" else "warm"
            records, rss_list = self.figures_phase(
                mode, False, common.passes_for(mode, self.seconds))
            latencies = [record["figures_s"] * 1000.0 for record in records]
            ops_per_s = len(latencies) / (sum(latencies) / 1000.0)
            rss = common.median(rss_list)
        log("%d operation(s), median %.1f ms"
            % (len(latencies), common.median(latencies)))
        return {
            "op_p50_ms": (common.median(latencies), "ms"),
            "op_p90_ms": (common.p90(latencies), "ms"),
            "ops_per_s": (ops_per_s, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }

    def per_layer(self):
        if self.workload == "serve-sweep":
            return self._serve_layers()
        if self.workload == "figures-cold":
            plain, _ = self.figures_phase("cold", False, passes=1)
            traced, _ = self.figures_phase("cold", True, passes=1)
        else:
            plain, _ = self.figures_phase("warm", False,
                                          passes=TRACE_WARM_PASSES)
            traced, _ = self.figures_phase("warm", True,
                                           passes=TRACE_WARM_PASSES)
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = common.median([record["layers"][name]
                                          for record in traced])
        layers["trace_overhead_frac"] = (
            common.median([record["figures_s"] for record in traced])
            / common.median([record["figures_s"] for record in plain]) - 1)
        layers["serve.http.overhead_ms"] = 0.0
        return layers

    def _serve_layers(self):
        count = self.scale["trace_requests"]
        plain = self.serve_phase("plain", False, TRACE_SEED, count=count)
        traced = self.serve_phase("traced", True, TRACE_SEED, count=count)
        span_list = [tuple(span) for span in
                     common.load_json(self.spans_path("traced"))]
        layers, tree = spans.layer_metrics(span_list,
                                           traced["store_counters"],
                                           traced["cache_stats"])
        http = spans.exact("serve.http")
        requests = max(tree.calls(http), 1)
        layers["serve.http.overhead_ms"] = (tree.self_s(http) / requests
                                            * 1000.0)
        client_s = sum(record[3] for record in traced["records"])
        layers["unattributed_s"] = client_s - tree.inclusive_s(http)
        layers["trace_overhead_frac"] = (
            common.median([record[3] for record in traced["records"]])
            / common.median([record[3] for record in plain["records"]]) - 1)
        return layers

    def execute(self, trace):
        _remove_ended_runs(os.path.dirname(self.dir))
        os.makedirs(self.dir)
        try:
            if self.workload != "figures-cold":
                self.master_dir = self.master()
                self.master_store = os.path.join(self.master_dir, "store")
            setups = [self.setup_once() for _ in range(SETUP_REPEATS)]
            env = common.environment_record(self.native)
            log("environment: %s" % json.dumps(env, sort_keys=True))
            if trace:
                units = dict(spans.LAYER_METRICS)
                metrics = {name: (value, units[name])
                           for name, value in self.per_layer().items()}
            else:
                metrics = self.end_to_end()
                metrics["setup_s"] = (common.median(setups), "s")
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        for problem in self.problems[:10]:
            log("gate: %s" % problem)
        result = {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in sorted(metrics.items())},
        }
        common.write_json(dict(result, environment=env,
                               problems=self.problems[:50]),
                          os.path.join(self.work, "last-%s-trace%d.json"
                                       % (self.workload, int(trace))))
        return result


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _remove_ended_runs(runs):
    """Remove the directories of runs whose process has ended (killed
    before it could clean up); a run that is still going keeps its."""
    if not os.path.isdir(runs):
        return
    for name in os.listdir(runs):
        pid = name.rsplit("-", 1)[-1]
        if not pid.isdigit() or not _alive(int(pid)):
            shutil.rmtree(os.path.join(runs, name), ignore_errors=True)


def _prune_masters(root):
    """Make room for one more warmed store: keep the most recently used
    ``MASTERS_KEPT - 1`` and drop fills left by runs that have ended."""
    if not os.path.isdir(root):
        return
    kept = []
    for name in os.listdir(root):
        path = os.path.join(root, name)
        if ".tmp-" in name:
            if not _alive(int(name.rsplit("-", 1)[-1])):
                shutil.rmtree(path, ignore_errors=True)
        else:
            kept.append(path)
    kept.sort(key=os.path.getmtime, reverse=True)
    for path in kept[MASTERS_KEPT - 1:]:
        shutil.rmtree(path, ignore_errors=True)


def _tree_digest(scale, reference_path):
    """Content hash of what the warmed store depends on: the program,
    the code that fills it, the scale and the reference."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(common.SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths.extend(os.path.join(dirpath, filename)
                     for filename in filenames
                     if not filename.endswith(".pyc"))
    paths.extend(os.path.join(common.BENCH_DIR, filename)
                 for filename in ("common.py", "worker.py"))
    paths.append(reference_path)
    hasher = hashlib.sha256(json.dumps(scale, sort_keys=True).encode())
    for path in sorted(paths):
        hasher.update(os.path.relpath(path, common.ROOT).encode())
        with open(path, "rb") as handle:
            hasher.update(hashlib.sha256(handle.read()).digest())
    return hasher.hexdigest()[:20]


def preflight():
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        raise common.BenchError("no program to measure: %s/repro is missing"
                                % common.SRC)


def record_reference(scale, path, work):
    """Write the digests and cycle counts every run is gated against."""
    out_root = os.path.join(work, "reference-out")
    with Child("worker.py", {"mode": "reference", "scale": scale,
                             "out_root": out_root},
               common.child_env()) as child:
        result = child.finish()
    shutil.rmtree(out_root, ignore_errors=True)
    for key in ("native", "peak_rss_mb"):
        result.pop(key)
    common.write_json(result, path)
    log("reference written to %s" % path)


def run_workload(workload, seed, seconds, trace, scale=None,
                 reference_path=None, work=None):
    """One benchmark run; returns the result dict (``run.py``'s last
    line).  ``scale``/``reference_path``/``work`` default to the full
    benchmark and are overridden by the smoke test."""
    preflight()
    run = Run(workload, seed, seconds, scale or common.FULL_SCALE,
              reference_path or common.REFERENCE, work or common.WORK)
    return run.execute(trace)


def _terminated(signum, frame):
    # Unwinding runs every Child's exit, which kills and reaps it.
    raise SystemExit(1)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        preflight()
        if args.record_reference:
            record_reference(common.FULL_SCALE, common.REFERENCE,
                             common.WORK)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (common.BenchError, OSError, ValueError, KeyError) as exc:
        log("error: %s" % (exc,))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
