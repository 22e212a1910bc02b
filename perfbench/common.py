"""Shared pieces of the benchmark: paths, pinned environment, scales,
the reference record and the per-run correctness gate.

Everything here is imported both by the orchestrator (``run.py``) and by
the processes it starts (``worker.py``, ``server.py``); none of it
imports the program under test, so the orchestrator can preflight a
checkout that has no ``src/`` and fail cleanly.
"""

import hashlib
import json
import os
import platform
import shutil
import statistics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

ALL_FIGURES = ("table1", "table2", "table3", "fig6", "fig7", "fig8",
               "fig9", "fig10", "fig12", "ablations", "variance",
               "sensitivity")
ALL_BENCHMARKS = ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "twolf",
                  "vpr", "ammp", "applu", "art", "equake", "facerec",
                  "galgel", "lucas", "mesa", "mgrid", "swim")
ALL_POLICIES = ("authen-then-commit", "authen-then-fetch",
                "authen-then-fetch-drain", "authen-then-fetch-precise",
                "authen-then-issue", "authen-then-write", "commit+fetch",
                "commit+obfuscation", "decrypt-only", "lazy")

#: The scale the ROADMAP's figure timings use.  ``figures``/``benchmarks``
#: select what ``run_figures`` regenerates (None: everything);
#: ``grid_*`` span the cells ``GET /sweep`` draws from;
#: ``trace_requests`` is the fixed request count of each serve phase of
#: a traced run, so its call counts repeat exactly for a given seed.
FULL_SCALE = {
    "num_instructions": 4000,
    "warmup": 4000,
    "figures": list(ALL_FIGURES),
    "benchmarks": None,
    "grid_benchmarks": list(ALL_BENCHMARKS),
    "grid_policies": list(ALL_POLICIES),
    "trace_requests": 200,
}

#: Tiny scale for the benchmark's own smoke test.
SMOKE_SCALE = {
    "num_instructions": 600,
    "warmup": 600,
    "figures": ["table1", "fig8"],
    "benchmarks": ["gzip", "mcf"],
    "grid_benchmarks": ["gzip", "mcf"],
    "grid_policies": list(ALL_POLICIES),
    "trace_requests": 24,
}


class BenchError(Exception):
    """The benchmark cannot run here (not a correctness failure)."""


def child_env(store=None):
    """Environment for every process the benchmark starts.

    Pins the knobs that change which code path runs: the store root
    (``REPRO_STORE``; unset means store-free), the native kernel mode and
    its build cache, and a serial executor.  Temporary and cache
    directories point inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_NATIVE"] = "auto"
    env["REPRO_NATIVE_CACHE"] = os.path.join(WORK, "native")
    env["REPRO_JOBS"] = "1"
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["XDG_CACHE_HOME"] = os.path.join(WORK, "xdg")
    env.pop("REPRO_STORE", None)
    if store is not None:
        env["REPRO_STORE"] = store
    for path in (env["REPRO_NATIVE_CACHE"], env["TMPDIR"]):
        os.makedirs(path, exist_ok=True)
    return env


def environment_record(native_available):
    """What the run's timings depend on besides the code."""
    return {
        "cpu.native.available": bool(native_available),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": shutil.which(os.environ.get("CC", "cc")) is not None,
    }


def clone_store(source, target):
    """A private copy of a warmed store, made of hard links.

    The store never writes an entry in place: it publishes by atomic
    rename and moves bad entries aside, so links leave ``source``
    intact.  Files at the top level (the quarantine log, which is
    appended to) are copied.
    """
    shutil.rmtree(target, ignore_errors=True)
    os.makedirs(target)
    for name in os.listdir(source):
        path = os.path.join(source, name)
        if os.path.isdir(path):
            shutil.copytree(path, os.path.join(target, name),
                            copy_function=os.link)
        else:
            shutil.copy2(path, os.path.join(target, name))


def sha256_file(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def write_json(payload, path):
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def cell_key(benchmark, policy):
    return "%s/%s" % (benchmark, policy)


def check_figures(out_dir, reference, figures):
    """Gate one regeneration in ``out_dir`` against ``reference``.

    An operation is one member job (as counted by the manifest) or one
    artifact's digest check; returns ``(attempted, failed, problems)``.
    Both forms of each artifact must match the recorded digests, and the
    manifest must report no failed jobs.
    """
    problems = []
    attempted = failed = 0
    manifest_path = os.path.join(out_dir, "figures-manifest.json")
    try:
        manifest = load_json(manifest_path)
        attempted += int(manifest["total_jobs"])
        failed += int(manifest["total_failures"])
        if manifest["total_failures"]:
            problems.append("manifest: %d failed job(s)"
                            % manifest["total_failures"])
    except (OSError, ValueError, KeyError) as exc:
        attempted += 1
        failed += 1
        problems.append("manifest unreadable: %r" % (exc,))
    digests = reference["artifacts"]
    for name in figures:
        attempted += 1
        bad = []
        for suffix in (".json", ".txt"):
            filename = name + suffix
            try:
                digest = sha256_file(os.path.join(out_dir, filename))
            except OSError:
                digest = None
            if digest != digests.get(filename):
                bad.append(filename)
        if bad:
            failed += 1
            problems.append("digest mismatch: %s" % ", ".join(bad))
    return attempted, failed, problems


#: Seconds one regeneration pass takes on a 2-vCPU x86-64 host at the
#: full scale.  They turn ``--seconds`` into a fixed pass count.
NOMINAL_PASS_S = {"cold": 20.0, "warm": 1.5}


def passes_for(mode, seconds):
    """Regeneration passes in a run of ``seconds``.

    The count follows from the window alone, not from how fast the host
    runs the passes, so every run of a workload holds the same number
    of samples; a slow host makes the run longer, not thinner.
    """
    return max(1, round(seconds / NOMINAL_PASS_S[mode]))


def median(values):
    return statistics.median(values)


def p90(values):
    """90th percentile; the largest value when there are fewer than two."""
    values = sorted(values)
    if len(values) < 2:
        return values[-1]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
