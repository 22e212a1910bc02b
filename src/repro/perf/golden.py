"""Pinned golden timing results and the parity gate that checks them.

Every performance optimisation of the simulator's hot path must be
*timing-neutral*: cycle counts, IPC and every StatGroup counter must come
out bit-identical to the reference implementation.  This module pins the
reference outcome of a small (benchmark x policy) matrix:

- ``GOLDEN_CYCLES`` -- the exact measured-region cycle count per cell;
- ``GOLDEN_DIGESTS`` -- a SHA-256 digest over the cell's full stats
  snapshot plus per-level miss rates, so *any* counter drift is caught,
  not just end-to-end cycles.

The digests are computed over a JSON round-trip of the payload (bucket
keys normalised to strings, canonical key order), so they are stable
across the process boundary and the artifact store's result tier.

:func:`check_goldens` (``repro perf --check``) re-runs the matrix
through every timing model and compares against both tables.  It
verifies, it does not time: wall-clock numbers come from the
repository benchmark under ``perfbench/``.
"""

import hashlib
import json

from repro.config import SimConfig
from repro.cpu.prepass import build_prepass
from repro.cpu.shared_kernel import replay_policy
from repro.exec.cache import cached_trace
from repro.exec.executor import uses_kernel
from repro.policies import make_policy
from repro.sim.runner import build_simulator

GOLDEN_BENCHMARKS = ("mcf", "swim", "twolf")
GOLDEN_POLICIES = ("decrypt-only", "authen-then-issue",
                   "authen-then-commit", "authen-then-write")
GOLDEN_INSTRUCTIONS = 3000
GOLDEN_WARMUP = 1000

GOLDEN_CYCLES = {
    "mcf/authen-then-commit": 101441,
    "mcf/authen-then-issue": 114927,
    "mcf/authen-then-write": 99663,
    "mcf/decrypt-only": 95395,
    "swim/authen-then-commit": 18696,
    "swim/authen-then-issue": 19613,
    "swim/authen-then-write": 18337,
    "swim/decrypt-only": 17153,
    "twolf/authen-then-commit": 73448,
    "twolf/authen-then-issue": 81601,
    "twolf/authen-then-write": 72711,
    "twolf/decrypt-only": 69251,
}

GOLDEN_DIGESTS = {
    "mcf/authen-then-commit":
        "bb0ffe233b5fef6f71dab9da02414e9770b61071934e5bc84aa21c4d9fe6ed37",
    "mcf/authen-then-issue":
        "00348b457504e3d1d9c2161c2308cbf99522e7a030d09b1c867cd682c5432345",
    "mcf/authen-then-write":
        "8bd9d8f43e0a533a41b837a287c6325877d45cc62ca67200115d8c9c7b71876b",
    "mcf/decrypt-only":
        "24227fd4df92f9813afda975dd087f554ddba0c8f4860bb7b70836d911fc322a",
    "swim/authen-then-commit":
        "e1fe07d5116f5b07fe588b68bc24a6be84052f82e2a088a21adba5d33edcfb6b",
    "swim/authen-then-issue":
        "643f0c20be43ff6a6e7e49231c89c133d76c92d2b43ad61709925db26042efbb",
    "swim/authen-then-write":
        "739894ce6fab071cf56cbd85e51d0a5878fdc53c2081900dcf8f9112e363ec53",
    "swim/decrypt-only":
        "94992655c19e24346c2529920dfc3d6d534a79b8ef9f4668282a0cb46f5e05aa",
    "twolf/authen-then-commit":
        "3b537115a6b6b9b463fee13d593222814903e61b6084164d56fcce880aade96e",
    "twolf/authen-then-issue":
        "1e2bb0890c7968cd525e7bfee04d09d6965282fc4bc391c54f728c64bbd5f24c",
    "twolf/authen-then-write":
        "6c0963a5bd628587f8dacebd33a0797e1997df18a4e917e0f582ae510b96174f",
    "twolf/decrypt-only":
        "fd2b8f407cf0cc327ce2cee6ad33730b4211cdb027f125dd07c6bb2f21d40c49",
}

def golden_cells():
    """The pinned ``(benchmark, policy)`` matrix, in digest order."""
    for bench in GOLDEN_BENCHMARKS:
        for policy in GOLDEN_POLICIES:
            yield bench, policy


def stats_digest(stats_dict, miss_summary):
    """Canonical digest of one run's stats snapshot.

    JSON round-trips the payload first so histogram bucket keys (ints in
    a live StatGroup, strings after any JSON hop) always digest the same.
    """
    payload = json.loads(json.dumps(
        {"stats": stats_dict, "miss_summary": miss_summary}))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


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

    Every cell is evaluated through the legacy ``build_simulator`` +
    ``core.run`` path and, where
    :func:`~repro.exec.executor.uses_kernel` allows, a second time
    through the decode-once shared pass
    (:func:`~repro.cpu.prepass.build_prepass` +
    :func:`~repro.cpu.shared_kernel.replay_policy`, the path a
    :class:`~repro.exec.job.MultiPolicySimJob` takes) -- and every
    outcome must reproduce the pinned cycle count *and* full stats
    digest bit-identically.  An empty list means clean; each mismatch
    is a human-readable string naming the cell, the path that drifted
    and what drifted.
    """
    config = config or SimConfig()
    mismatches = []
    total = GOLDEN_INSTRUCTIONS + GOLDEN_WARMUP
    policy_objs = {name: make_policy(name) for name in GOLDEN_POLICIES}
    kernel = {name for name, policy in policy_objs.items()
              if uses_kernel(config, policy)}
    for bench in GOLDEN_BENCHMARKS:
        trace = cached_trace(bench, total, config.seed)
        prepass = (build_prepass(trace, config, warmup=GOLDEN_WARMUP)
                   if kernel else None)
        for policy in GOLDEN_POLICIES:
            key = "%s/%s" % (bench, policy)
            core, hier = build_simulator(config, policy)
            result = core.run(trace, warmup=GOLDEN_WARMUP)
            mismatches += _verify_cell(
                key, "legacy", result.cycles,
                stats_digest(result.stats.as_dict(),
                             hier.miss_summary()))
            if policy not in kernel:
                continue
            shared = replay_policy(prepass, policy_objs[policy], config,
                                   trace_name=getattr(trace, "name",
                                                      "trace"))
            mismatches += _verify_cell(
                key, "shared", shared.cycles,
                stats_digest(shared.stats.as_dict(),
                             shared.miss_summary))
    return mismatches
