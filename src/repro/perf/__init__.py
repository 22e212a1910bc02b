"""Timing-parity verification: ``repro perf --check``.

Re-verifies that the optimised hot path still reproduces the pinned
golden cycle counts and stats digests bit-identically.  Wall-clock
measurement lives in the repository benchmark (``perfbench/``).
"""

from repro.perf.golden import (
    GOLDEN_BENCHMARKS,
    GOLDEN_CYCLES,
    GOLDEN_DIGESTS,
    GOLDEN_INSTRUCTIONS,
    GOLDEN_POLICIES,
    GOLDEN_WARMUP,
    check_goldens,
    golden_cells,
    stats_digest,
)

__all__ = [
    "GOLDEN_BENCHMARKS",
    "GOLDEN_CYCLES",
    "GOLDEN_DIGESTS",
    "GOLDEN_INSTRUCTIONS",
    "GOLDEN_POLICIES",
    "GOLDEN_WARMUP",
    "check_goldens",
    "golden_cells",
    "stats_digest",
]
