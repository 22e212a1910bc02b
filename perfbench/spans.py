"""Outside-in tracing: spans around each layer's public entry points.

The program under test carries no spans of its own, so the traced run
wraps the functions each layer exposes, from the benchmark's files.
Every wrapper records ``(span_id, parent_id, name, start, end)``; the
parent is the innermost open span on the same thread, so the HTTP
server's per-connection threads keep separate stacks.  Spans stay in
memory and are written out when the process ends.

A name is patched where callers look it up, not only where it is
defined: :func:`patch_function` rebinds every ``repro.*`` module global
that holds the original (``repro.exec.cache`` imported
``generate_trace`` by name at import time, so patching
``repro.workloads.tracegen`` alone would miss every call).  Methods are
patched on their class, and ``cached_property`` job ids through their
``.func``.
"""

import functools
import itertools
import json
import sys
import threading
from time import perf_counter

#: Layers whose metrics are call counts plus inclusive seconds.
TIMED_LAYERS = (
    "workloads.tracegen", "cpu.prepass", "cpu.native", "cpu.core",
    "sim.runner", "sim.metrics",
    "exec.store.save_trace", "exec.store.save_prepass",
    "exec.store.save_result", "exec.store.load_trace",
    "exec.store.load_prepass", "exec.store.load_result",
    "exec.job.job_id",
)
STORE_METHODS = ("load_trace", "load_prepass", "load_result",
                 "save_trace", "save_prepass", "save_result")

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = (
    [("%s.calls" % layer, "count") for layer in TIMED_LAYERS]
    + [("%s.s" % layer, "s") for layer in TIMED_LAYERS]
    + [
        ("cpu.shared_kernel.calls", "count"),
        ("cpu.shared_kernel.self_s", "s"),
        ("cpu.fast_path_frac", "frac"),
        ("exec.store.bytes_written", "B"),
        ("exec.store.bytes_read", "B"),
        ("exec.store.result_hit_frac", "frac"),
        ("exec.cache.hit_frac", "frac"),
        ("exec.executor.self_s", "s"),
        ("experiments.table2.s", "s"),
        ("experiments.self_s", "s"),
        ("obs.export.s", "s"),
        ("serve.service.sweep.s", "s"),
        ("serve.service.figure.s", "s"),
        ("serve.http.overhead_ms", "ms"),
        ("unattributed_s", "s"),
        ("trace_overhead_frac", "frac"),
    ]
)


class SpanRecorder:
    """In-memory span log shared by every wrapper of one process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))

        return traced

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def patch_function(recorder, module, attr, name):
    """Wrap ``module.attr`` in every repro module that bound it."""
    original = getattr(module, attr)
    traced = recorder.wrap(name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def patch_method(recorder, cls, attr, name):
    setattr(cls, attr, recorder.wrap(name, cls.__dict__[attr]))


def install(recorder):
    """Wrap the public entry point of every layer the figures and
    serving pipelines pass through."""
    import importlib

    import repro.cpu.core
    import repro.cpu.native
    import repro.cpu.prepass
    import repro.cpu.shared_kernel
    import repro.exec.cache
    import repro.exec.executor
    import repro.exec.job
    import repro.exec.store
    import repro.experiments.figures
    import repro.obs.export
    import repro.serve.service
    import repro.sim.metrics
    import repro.sim.runner
    import repro.workloads.tracegen

    # The figure emitters import their modules lazily; import them now
    # so names they bind at import time get patched as well.
    for module in ("table1", "table2", "table3", "fig6", "fig7", "fig8",
                   "fig9", "fig10_11", "fig12_13", "ablations", "variance",
                   "sensitivity"):
        importlib.import_module("repro.experiments." + module)

    patch_function(recorder, repro.workloads.tracegen, "generate_trace",
                   "workloads.tracegen")
    patch_function(recorder, repro.cpu.prepass, "build_prepass",
                   "cpu.prepass")
    patch_function(recorder, repro.cpu.native, "replay", "cpu.native")
    patch_function(recorder, repro.cpu.shared_kernel, "replay_policy",
                   "cpu.shared_kernel")
    patch_method(recorder, repro.cpu.core.TimestampCore, "run", "cpu.core")
    patch_function(recorder, repro.sim.runner, "build_simulator",
                   "sim.runner")
    patch_function(recorder, repro.sim.metrics, "collect_metrics",
                   "sim.metrics")
    for method in STORE_METHODS:
        patch_method(recorder, repro.exec.store.ArtifactStore, method,
                     "exec.store." + method)
    for cls in (repro.exec.job.SimJob, repro.exec.job.MultiPolicySimJob):
        prop = cls.__dict__["job_id"]
        prop.func = recorder.wrap("exec.job.job_id", prop.func)
    patch_method(recorder, repro.exec.executor.Executor, "run",
                 "exec.executor")
    artifacts = repro.experiments.figures.ARTIFACTS
    for name in list(artifacts):
        artifacts[name] = recorder.wrap("experiments." + name,
                                        artifacts[name])
    export = repro.obs.export
    for attr, value in list(vars(export).items()):
        if (callable(value) and not attr.startswith("_")
                and getattr(value, "__module__", None) == export.__name__):
            patch_function(recorder, export, attr, "obs.export." + attr)
    service = repro.serve.service.FigureService
    patch_method(recorder, service, "sweep", "serve.service.sweep")
    patch_method(recorder, service, "figure", "serve.service.figure")


def install_http(recorder, handler_class):
    """Wrap the request handler the server was built with."""
    patch_method(recorder, handler_class, "do_GET", "serve.http")


class SpanTree:
    """Self and inclusive times over one process's spans."""

    def __init__(self, spans):
        self.by_id = {span[0]: span for span in spans}
        self.spans = spans
        child_time = {}
        for span_id, parent, _, start, end in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end
                                                                    - start)
        self.child_time = child_time

    def _select(self, match):
        return [span for span in self.spans if match(span[2])]

    def calls(self, match):
        return len(self._select(match))

    def self_s(self, match):
        return sum(end - start - self.child_time.get(span_id, 0.0)
                   for span_id, _, _, start, end in self._select(match))

    def inclusive_s(self, match):
        """Summed duration of the matching spans that no other matching
        span encloses (so nested calls are not counted twice)."""
        total = 0.0
        for span_id, parent, _, start, end in self._select(match):
            ancestor = self.by_id.get(parent)
            while ancestor is not None and not match(ancestor[2]):
                ancestor = self.by_id.get(ancestor[1])
            if ancestor is None:
                total += end - start
        return total


def exact(name):
    return lambda span_name: span_name == name


def prefix(name):
    return lambda span_name: span_name.startswith(name)


def layer_metrics(spans, store_counters, cache_stats):
    """Per-layer metrics of one traced unit of work.

    ``store_counters`` is the change in ``ArtifactStore.stats()``
    counters over that work and ``cache_stats`` the
    ``TraceCache.stats()`` snapshot after it.  ``unattributed_s``,
    ``trace_overhead_frac`` and ``serve.http.overhead_ms`` need the
    caller's own timings and are filled in by the caller.
    """
    tree = SpanTree(spans)
    out = {}
    for layer in TIMED_LAYERS:
        out[layer + ".calls"] = tree.calls(exact(layer))
        out[layer + ".s"] = tree.inclusive_s(exact(layer))
    kernel = exact("cpu.shared_kernel")
    out["cpu.shared_kernel.calls"] = tree.calls(kernel)
    out["cpu.shared_kernel.self_s"] = tree.self_s(kernel)
    evaluated = out["cpu.shared_kernel.calls"] + out["cpu.core.calls"]
    out["cpu.fast_path_frac"] = (out["cpu.shared_kernel.calls"] / evaluated
                                 if evaluated else 0.0)
    out["exec.store.bytes_written"] = store_counters.get("bytes_written", 0)
    out["exec.store.bytes_read"] = store_counters.get("bytes_read", 0)
    lookups = (store_counters.get("result_hits", 0)
               + store_counters.get("result_misses", 0))
    out["exec.store.result_hit_frac"] = (
        store_counters.get("result_hits", 0) / lookups if lookups else 0.0)
    out["exec.cache.hit_frac"] = float(cache_stats.get("hit_rate", 0.0))
    out["exec.executor.self_s"] = tree.self_s(exact("exec.executor"))
    out["experiments.table2.s"] = tree.inclusive_s(
        exact("experiments.table2"))
    out["experiments.self_s"] = tree.self_s(prefix("experiments."))
    out["obs.export.s"] = tree.inclusive_s(prefix("obs.export."))
    out["serve.service.sweep.s"] = tree.inclusive_s(
        exact("serve.service.sweep"))
    out["serve.service.figure.s"] = tree.inclusive_s(
        exact("serve.service.figure"))
    return out, tree


def counter_delta(after, before):
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}
