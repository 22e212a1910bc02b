"""Typed trace events emitted by the simulator.

Every event is a point (or interval, when ``dur`` > 0) on a *lane*: a
pipeline stage or shared resource whose activity the event describes.
Lanes map one-to-one onto Perfetto/chrome://tracing threads, so a
recorded run opens as a per-stage timeline with the decrypt-to-verify
window (the paper's Figure 6 gap) visible as slices on the ``gap`` lane.

Event kinds are plain strings (not an enum) so sinks can serialise them
without translation and new producers can add kinds without touching
this module; the canonical taxonomy lives in ``KINDS`` and is documented
in ``docs/observability.md``.
"""

# ---- event kinds ------------------------------------------------------

FETCH_ISSUED = "FETCH_ISSUED"      # core begins fetching a new I-line
ISSUE = "ISSUE"                    # instruction issues to a function unit
COMMIT = "COMMIT"                  # instruction commits (in order)
SQUASH = "SQUASH"                  # branch mispredict redirect resolves
STORE_RELEASED = "STORE_RELEASED"  # store leaves the store buffer
L2_MISS = "L2_MISS"                # external fetch leaves the L2
MSHR_STALL = "MSHR_STALL"          # external fetch waited for an MSHR
DECRYPT_DONE = "DECRYPT_DONE"      # line's decrypted data available
VERIFY_DONE = "VERIFY_DONE"        # line's integrity verification done
VERIFY_WINDOW = "VERIFY_WINDOW"    # decrypt-to-verify interval (dur > 0)
AUTH_QUEUE_FULL = "AUTH_QUEUE_FULL"  # verification queue backpressure
BUS_GRANT = "BUS_GRANT"            # memory data bus granted (dur = hold)
ROW_CONFLICT = "ROW_CONFLICT"      # DRAM bank row-buffer conflict
JOB_DONE = "JOB_DONE"              # executor finished one SimJob
JOB_RETRY = "JOB_RETRY"            # job attempt failed; will run again
JOB_FAILED = "JOB_FAILED"          # job exhausted its failure policy
BACKEND_DEGRADED = "BACKEND_DEGRADED"  # pool gave up; serial fallback
HOST_LOST = "HOST_LOST"            # dist worker host stopped heartbeating;
                                   # its lease was released for re-claim

KINDS = (
    FETCH_ISSUED, ISSUE, COMMIT, SQUASH, STORE_RELEASED,
    L2_MISS, MSHR_STALL, DECRYPT_DONE, VERIFY_DONE, VERIFY_WINDOW,
    AUTH_QUEUE_FULL, BUS_GRANT, ROW_CONFLICT, JOB_DONE, JOB_RETRY,
    JOB_FAILED, BACKEND_DEGRADED, HOST_LOST,
)

# ---- lanes ------------------------------------------------------------

LANE_FETCH = "fetch"
LANE_ISSUE = "issue"
LANE_COMMIT = "commit"
LANE_STORE = "store"
LANE_MEM = "mem"
LANE_DECRYPT = "decrypt"
LANE_VERIFY = "verify"
LANE_GAP = "gap"
LANE_BUS = "bus"
LANE_DRAM = "dram"
# Executor progress: one JOB_DONE per completed SimJob, plus the
# fault-tolerance events (JOB_RETRY, JOB_FAILED, BACKEND_DEGRADED,
# HOST_LOST).
# "cycle" on this lane is the completion ordinal, not a simulated cycle.
LANE_JOBS = "jobs"

#: Render order of lanes in trace viewers (top to bottom follows the
#: life of a fetched line through the machine).
LANES = (
    LANE_FETCH, LANE_ISSUE, LANE_COMMIT, LANE_STORE, LANE_MEM,
    LANE_DECRYPT, LANE_VERIFY, LANE_GAP, LANE_BUS, LANE_DRAM,
    LANE_JOBS,
)

#: Lanes whose producers emit in non-decreasing cycle order (in-order
#: pipeline points and serialised resources).  Out-of-order lanes
#: (``issue``, ``decrypt``) follow program order instead.
ORDERED_LANES = (LANE_FETCH, LANE_COMMIT, LANE_VERIFY, LANE_BUS)


class Event:
    """One trace event: a point or interval on a lane."""

    __slots__ = ("cycle", "kind", "lane", "dur", "args")

    def __init__(self, cycle, kind, lane, dur=0, args=None):
        self.cycle = cycle
        self.kind = kind
        self.lane = lane
        self.dur = dur
        self.args = args

    def as_dict(self):
        """Flatten to a JSON-able dict (JSONL sink format)."""
        out = {"cycle": self.cycle, "kind": self.kind, "lane": self.lane}
        if self.dur:
            out["dur"] = self.dur
        if self.args:
            out.update(self.args)
        return out

    def __repr__(self):
        return "Event(%s@%d on %s%s)" % (
            self.kind, self.cycle, self.lane,
            ", dur=%d" % self.dur if self.dur else "")
