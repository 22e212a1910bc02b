"""Fleet metrics: labeled counters, gauges and histograms + exporters.

The execution layer (executors, trace cache, retry machinery) records
what it does into a :class:`MetricsRegistry` -- the measurement
substrate the serving-tier and multi-host roadmap items build on.  The
registry mirrors the Prometheus data model at miniature scale:

- a *family* is a named metric with a fixed label schema
  (``repro_jobs_total`` labeled by ``status``);
- a *child* is one time series within the family, addressed by label
  values (``.labels("ok")``);
- families are counters (monotonic), gauges (set/inc/dec) or histograms
  (distribution of observations, reusing the percentile machinery of
  :class:`~repro.util.statistics.Histogram`).

Disabled-path contract (the PR-1 invariant): a registry built with
``enabled=False`` -- and the shared :data:`NULL_REGISTRY` -- hands every
caller the shared :data:`NULL_METRIC`, whose mutators are empty methods.
Producers precreate their family handles once (see :class:`JobMetrics`),
so a run without telemetry pays one no-op call per job event and
allocates nothing.  Nothing in this module ever touches simulated state,
so cycle counts are bit-identical with metrics on or off.

Exports: :meth:`MetricsRegistry.snapshot` (JSON-able dict, written by
``--metrics-out``) and :meth:`MetricsRegistry.render_prometheus`
(Prometheus text exposition; histograms export as summaries).
"""

import json

from repro.util.statistics import Histogram

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class _NullMetric:
    """Shared no-op family/child: every mutator is an empty method.

    Stands in for both a family (``labels`` returns itself) and a child
    (``inc``/``set``/``observe`` do nothing), so disabled-registry call
    sites run the exact same code as enabled ones.
    """

    __slots__ = ()

    count = 0
    value = 0

    def labels(self, *values):
        return self

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass

    def total(self):
        return 0

    def mean(self):
        return 0.0

    def percentile(self, q):
        return None

    def max_value(self):
        return None


#: The shared disabled metric (see module docstring).
NULL_METRIC = _NullMetric()


class CounterMetric:
    """One monotonically increasing time series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up (got %r)" % (amount,))
        self.value += amount


class GaugeMetric:
    """One settable time series."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount


class HistogramMetric:
    """One observation distribution.

    Observations are quantised to ``resolution`` (default 1ms for
    seconds-valued metrics) and folded into a
    :class:`~repro.util.statistics.Histogram`, whose weighted-percentile
    machinery this class reuses; ``sum``/``count`` stay exact so the
    mean is not quantised.  Quantisation bounds the bucket count however
    many distinct wall times a fleet produces.
    """

    __slots__ = ("resolution", "count", "sum", "_hist")

    def __init__(self, resolution=1e-3):
        self.resolution = resolution
        self.count = 0
        self.sum = 0.0
        self._hist = Histogram("observations")

    def observe(self, value):
        self.count += 1
        self.sum += value
        self._hist.add(int(round(value / self.resolution)))

    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q):
        """The q-th percentile observation; None when empty."""
        key = self._hist.percentile(q)
        return None if key is None else key * self.resolution

    def max_value(self):
        """The largest observation (quantised); None when empty."""
        key = self._hist.max_key()
        return None if key is None else key * self.resolution


_CHILD_TYPES = {
    COUNTER: CounterMetric,
    GAUGE: GaugeMetric,
    HISTOGRAM: HistogramMetric,
}


class MetricFamily:
    """A named metric with a fixed label schema and per-labelset children."""

    __slots__ = ("name", "kind", "help", "labelnames", "resolution",
                 "_children")

    def __init__(self, name, kind, help="", labelnames=(),
                 resolution=1e-3):
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.resolution = resolution
        self._children = {}  # label values tuple -> child metric

    def labels(self, *values):
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                "metric %s takes %d label value(s) %r, got %d"
                % (self.name, len(self.labelnames), self.labelnames,
                   len(values)))
        values = tuple(str(v) for v in values)
        child = self._children.get(values)
        if child is None:
            if self.kind == HISTOGRAM:
                child = HistogramMetric(self.resolution)
            else:
                child = _CHILD_TYPES[self.kind]()
            self._children[values] = child
        return child

    # Unlabeled families proxy their single () child, so call sites
    # write family.inc() / family.observe(x) directly.

    def inc(self, amount=1):
        self.labels().inc(amount)

    def dec(self, amount=1):
        self.labels().dec(amount)

    def set(self, value):
        self.labels().set(value)

    def observe(self, value):
        self.labels().observe(value)

    @property
    def value(self):
        return self.labels().value

    @property
    def count(self):
        return self.labels().count

    @property
    def sum(self):
        return self.labels().sum

    def mean(self):
        return self.labels().mean()

    def percentile(self, q):
        return self.labels().percentile(q)

    def max_value(self):
        return self.labels().max_value()

    def total(self):
        """Sum over children: values (counter/gauge) or counts (histogram)."""
        if self.kind == HISTOGRAM:
            return sum(c.count for c in self._children.values())
        return sum(c.value for c in self._children.values())

    def value_for(self, *values):
        """One child's value *without* creating it (0 when absent), so
        read-only consumers never pollute snapshots with empty series."""
        child = self._children.get(tuple(str(v) for v in values))
        return 0 if child is None else child.value

    def samples(self):
        """JSON-able sample dicts, one per child, in creation order."""
        out = []
        for values, child in self._children.items():
            sample = {"labels": dict(zip(self.labelnames, values))}
            if self.kind == HISTOGRAM:
                sample.update(
                    count=child.count,
                    sum=round(child.sum, 6),
                    mean=round(child.mean(), 6),
                    p50=child.percentile(50),
                    p95=child.percentile(95),
                    max=child.max_value(),
                )
            else:
                sample["value"] = child.value
            out.append(sample)
        return out


SNAPSHOT_VERSION = 1


class MetricsRegistry:
    """A process-local collection of metric families.

    ``enabled=False`` turns every family request into the shared
    :data:`NULL_METRIC`; see the module docstring for the no-op
    contract.  Families are created on first request and returned
    as-is afterwards; re-registering a name with a different kind or
    label schema raises ``ValueError`` (one name, one meaning).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self._families = {}  # name -> MetricFamily, insertion-ordered

    def _family(self, name, kind, help, labelnames, resolution=1e-3):
        if not self.enabled:
            return NULL_METRIC
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    "metric %s already registered as a %s (requested %s)"
                    % (name, family.kind, kind))
            if family.labelnames != tuple(labelnames):
                raise ValueError(
                    "metric %s already registered with labels %r "
                    "(requested %r)"
                    % (name, family.labelnames, tuple(labelnames)))
            return family
        family = MetricFamily(name, kind, help=help, labelnames=labelnames,
                              resolution=resolution)
        self._families[name] = family
        return family

    def counter(self, name, help="", labelnames=()):
        return self._family(name, COUNTER, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        return self._family(name, GAUGE, help, labelnames)

    def histogram(self, name, help="", labelnames=(), resolution=1e-3):
        return self._family(name, HISTOGRAM, help, labelnames,
                            resolution=resolution)

    def get(self, name):
        """The family registered under ``name``, or None."""
        return self._families.get(name)

    def families(self):
        """All families, in registration order."""
        return list(self._families.values())

    def snapshot(self):
        """JSON-able snapshot of every family (the --metrics-out body)."""
        return {
            "kind": "metrics",
            "format_version": SNAPSHOT_VERSION,
            "enabled": self.enabled,
            "families": {
                family.name: {
                    "type": family.kind,
                    "help": family.help,
                    "labels": list(family.labelnames),
                    "samples": family.samples(),
                }
                for family in self._families.values()
            },
        }

    def render_prometheus(self):
        """Prometheus text exposition (histograms export as summaries)."""
        lines = []
        for family in self._families.values():
            if family.help:
                lines.append("# HELP %s %s"
                             % (family.name, _escape_help(family.help)))
            prom_type = ("summary" if family.kind == HISTOGRAM
                         else family.kind)
            lines.append("# TYPE %s %s" % (family.name, prom_type))
            for values, child in family._children.items():
                labels = list(zip(family.labelnames, values))
                if family.kind == HISTOGRAM:
                    for q in (0.5, 0.95, 0.99):
                        pct = child.percentile(q * 100)
                        if pct is None:
                            continue
                        lines.append("%s%s %s" % (
                            family.name,
                            _label_text(labels + [("quantile", str(q))]),
                            _format_value(pct)))
                    lines.append("%s_sum%s %s" % (
                        family.name, _label_text(labels),
                        _format_value(child.sum)))
                    lines.append("%s_count%s %d" % (
                        family.name, _label_text(labels), child.count))
                else:
                    lines.append("%s%s %s" % (
                        family.name, _label_text(labels),
                        _format_value(child.value)))
        return "\n".join(lines) + ("\n" if lines else "")


def _escape_help(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text):
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_text(pairs):
    if not pairs:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (name, _escape_label(str(value)))
                             for name, value in pairs)


def _format_value(value):
    if isinstance(value, float):
        return repr(round(value, 9))
    return str(value)


#: Shared disabled registry for call sites given ``metrics=None``.
NULL_REGISTRY = MetricsRegistry(enabled=False)


class JobMetrics:
    """The standard execution-layer families, precreated from a registry.

    Both executor backends, the ``repro run`` serial loop and the sweep
    drivers record through this one schema, so every snapshot a command
    writes speaks the same metric taxonomy (documented in
    ``docs/observability.md``).  Built against :data:`NULL_REGISTRY`
    (or any disabled registry), every handle is :data:`NULL_METRIC` and
    all recording collapses to no-ops.
    """

    def __init__(self, registry=None):
        registry = registry if registry is not None else NULL_REGISTRY
        self.registry = registry
        self.jobs = registry.counter(
            "repro_jobs_total", "Jobs settled, by terminal status",
            ("status",))
        self.wall = registry.histogram(
            "repro_job_wall_seconds",
            "Per-job wall time, first attempt to settlement "
            "(backoff included)")
        self.pending = registry.gauge(
            "repro_jobs_pending", "Jobs not yet settled in the active run")
        self.retries = registry.counter(
            "repro_job_retries_total",
            "Attempts that failed and re-entered the retry loop")
        self.timeouts = registry.counter(
            "repro_job_timeouts_total",
            "Attempts that tripped the per-attempt timeout")
        self.backoff = registry.histogram(
            "repro_retry_backoff_seconds",
            "Deterministic backoff slept before each retry")
        self.pool_rebuilds = registry.counter(
            "repro_pool_rebuilds_total",
            "Process pools torn down and rebuilt after a worker loss")
        self.degraded = registry.counter(
            "repro_backend_degraded_total",
            "Times a backend gave up on its pool and went serial")
        self.cache_hits = registry.counter(
            "repro_trace_cache_hits_total",
            "Jobs whose trace came out of the per-process cache")
        self.cache_misses = registry.counter(
            "repro_trace_cache_misses_total",
            "Jobs that had to generate their trace")
        self.cache_evictions = registry.counter(
            "repro_trace_cache_evictions_total",
            "Traces evicted from the driver-side LRU cache")
        self.cache_saved = registry.gauge(
            "repro_trace_cache_saved_seconds",
            "Estimated tracegen seconds avoided by cache hits "
            "(hits x mean observed miss cost)")
        self.tracegen = registry.histogram(
            "repro_tracegen_seconds",
            "Trace generation wall time on cache misses")
        self.rss = registry.histogram(
            "repro_job_peak_rss_kb",
            "Peak RSS of the executing process after each job (KB)",
            resolution=1.0)
        self.store_jobs = registry.counter(
            "repro_jobs_store_hits_total",
            "Jobs short-circuited by an artifact-store result hit "
            "(no simulation, no tracegen)")
        self.dist_hosts = registry.gauge(
            "repro_dist_hosts",
            "Worker hosts with a fresh heartbeat on the spool")
        self.dist_jobs = registry.counter(
            "repro_dist_jobs_total",
            "Job units finished per worker host, from the spool's "
            "census files", ("host",))
        self.host_lost = registry.counter(
            "repro_dist_host_lost_total",
            "Worker hosts declared dead after missed lease heartbeats")
        self.lease_breaks = registry.counter(
            "repro_dist_lease_breaks_total",
            "Expired job leases released back to the spool for re-claim")
        self.spooled = registry.gauge(
            "repro_dist_spooled_jobs",
            "Job units spooled for remote claim and not yet settled")

    def observe_completed(self, result, wall, status="ok"):
        """Record one settled job plus its per-job accounting."""
        self.jobs.labels(status).inc()
        self.wall.observe(wall)
        accounting = getattr(result, "accounting", None)
        if not accounting:
            return
        if accounting.get("store_hit"):
            # The trace cache was never consulted: neither a cache hit
            # nor a generating miss happened.
            self.store_jobs.inc()
        elif accounting.get("cache_hit"):
            self.cache_hits.inc()
        else:
            self.cache_misses.inc()
            self.tracegen.observe(accounting.get("tracegen_seconds") or 0.0)
        if self.tracegen.count:
            self.cache_saved.set(
                round(self.cache_hits.value * self.tracegen.mean(), 6))
        rss = accounting.get("peak_rss_kb")
        if rss:
            self.rss.observe(rss)


def write_metrics(registry, path):
    """Write a snapshot to ``path``.

    ``.prom``/``.txt`` suffixes get the Prometheus text exposition;
    anything else gets the JSON snapshot.
    """
    path = str(path)
    if path.endswith((".prom", ".txt")):
        text = registry.render_prometheus()
    else:
        text = json.dumps(registry.snapshot(), indent=1, sort_keys=True) \
            + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return path
