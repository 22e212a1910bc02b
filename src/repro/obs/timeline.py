"""Text rendering of the decrypt-to-verify timeline.

``python -m repro trace BENCH`` records a run into a
:class:`~repro.obs.sinks.MemorySink` and renders the per-fetch
decrypt-to-verify windows (the paper's Figure 6 gap) as an ASCII
timeline, plus a per-lane event census -- a no-dependencies first look
before opening the Chrome trace in Perfetto.
"""

from repro.obs.events import (
    BACKEND_DEGRADED,
    JOB_DONE,
    JOB_FAILED,
    JOB_RETRY,
    LANE_JOBS,
    VERIFY_WINDOW,
)
from repro.util.statistics import Histogram

#: Executor-lane event kinds the jobs summary reports, in display order.
JOB_EVENT_KINDS = (JOB_DONE, JOB_RETRY, JOB_FAILED, BACKEND_DEGRADED)


def gap_histogram(events):
    """Fold VERIFY_WINDOW events into a gap histogram (cycles)."""
    hist = Histogram("decrypt_verify_gap")
    for event in events:
        if event.kind == VERIFY_WINDOW:
            hist.add(event.dur)
    return hist


def render_gap_timeline(events, limit=32, width=48):
    """Render per-fetch decrypt-to-verify windows as text bars.

    Each row is one externally fetched line: when its decrypted data
    became usable, when its verification completed, and the vulnerable
    window between the two (bar scaled to the largest window shown).
    """
    windows = [e for e in events if e.kind == VERIFY_WINDOW]
    if not windows:
        return "no decrypt-to-verify windows recorded " \
               "(authentication disabled, or every line verified " \
               "before its data was consumed)"
    shown = windows[:limit]
    scale = max(e.dur for e in shown) or 1
    lines = [
        "decrypt-to-verify windows: first %d of %d (cycles)"
        % (len(shown), len(windows)),
        "%10s %10s %6s  %s" % ("data@", "verify@", "gap", "window"),
    ]
    for event in shown:
        addr = (event.args or {}).get("addr")
        bar = "#" * max(1, round(width * event.dur / scale))
        lines.append("%10d %10d %6d  %-*s %s" % (
            event.cycle, event.cycle + event.dur, event.dur, width, bar,
            "0x%x" % addr if addr is not None else ""))
    hist = gap_histogram(windows)
    lines.append(
        "gap cycles over %d fetches: mean=%.1f p50=%d p95=%d max=%d"
        % (hist.total, hist.mean(), hist.percentile(50),
           hist.percentile(95), hist.max_key()))
    return "\n".join(lines)


def render_jobs_summary(events):
    """Summarize executor-lane events: counts plus first/last ordinal.

    The jobs lane abuses the ``cycle`` field as a completion *ordinal*
    (how many jobs had settled when the event fired), so the span reads
    as "first seen after N settlements, last after M".  Returns None
    when the stream holds no executor events, so callers can omit the
    section for single-run traces.
    """
    summary = {}  # kind -> (count, first ordinal, last ordinal)
    for event in events:
        if event.lane != LANE_JOBS or event.kind not in JOB_EVENT_KINDS:
            continue
        count, first, last = summary.get(event.kind, (0, event.cycle,
                                                      event.cycle))
        summary[event.kind] = (count + 1, min(first, event.cycle),
                               max(last, event.cycle))
    if not summary:
        return None
    lines = ["executor events (ordinal = jobs settled when emitted):",
             "  %-18s %6s %8s %8s" % ("kind", "count", "first", "last")]
    for kind in JOB_EVENT_KINDS:
        if kind not in summary:
            continue
        count, first, last = summary[kind]
        lines.append("  %-18s %6d %8d %8d" % (kind, count, first, last))
    return "\n".join(lines)


def render_lane_census(events):
    """One line per (lane, kind): event count and cycle span."""
    census = {}
    for event in events:
        key = (event.lane, event.kind)
        count, lo, hi = census.get(key, (0, event.cycle, event.cycle))
        census[key] = (count + 1, min(lo, event.cycle),
                       max(hi, event.cycle + event.dur))
    if not census:
        return "no events recorded"
    lines = ["%-8s %-16s %8s %12s" % ("lane", "kind", "count", "span")]
    for (lane, kind), (count, lo, hi) in sorted(census.items()):
        lines.append("%-8s %-16s %8d %5d..%-6d" % (lane, kind, count,
                                                   lo, hi))
    return "\n".join(lines)
