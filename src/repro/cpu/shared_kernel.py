"""Shared timestamp kernel: replay one prepass under one policy's terms.

The second half of the decode-once/evaluate-many pipeline
(:mod:`repro.cpu.prepass` is the first).  Given a
:class:`~repro.cpu.prepass.TracePrepass`, :func:`replay_policy` runs the
full out-of-order timestamp model for one policy -- but every structural
decision (cache outcomes, evictions, bank/row classification,
prediction draws) is a column read instead of a cache-dict walk, so the
per-policy cost is pure cycle arithmetic.

That arithmetic runs in one place: the compiled C kernel of
:mod:`repro.cpu.native`, whose loop mirrors
:meth:`repro.cpu.core.TimestampCore.run` and the timing half of
``hierarchy._make_l1_path`` / ``_l2_miss`` / ``engine.fetch_line``.
This module derives the kernel's constants (:func:`_policy_constants`)
and assembles its output into the legacy ``StatGroup`` inventory; the
differential equivalence suite and the perf goldens pin cycles and
every counter bit-identical to the legacy path.

When the kernel is unavailable (no C compiler, or ``REPRO_NATIVE=0``)
:func:`replay_policy` raises: the executor's model rule
(:func:`repro.exec.executor.uses_kernel`) sends such members to the
legacy simulator instead, so they never get here.
"""

from time import perf_counter

from repro.cpu.core import _UNIT_LATENCY, _CALENDAR_PRUNE_INTERVAL, RunResult
from repro.cpu import native
from repro.cpu.prepass import structural_terms
from repro.util.statistics import StatGroup


def _policy_constants(policy, config):
    """Every scalar the replay consumes, derived from (policy, config).

    ``native.replay`` packs these into the kernel's scalar block.
    """
    cfg = config.core
    secure = config.secure
    dram_cfg = config.dram

    gate_fetch = policy.gate_fetch
    fetch_mode = getattr(policy, "fetch_mode", "tag")
    auth_enabled = policy.authentication

    line_bytes = config.l2.line_bytes
    mac_rider = secure.mac_bits // 8 if auth_enabled else 0
    bus_width = dram_cfg.bus_width_bytes
    beat = dram_cfg.bus_multiplier
    cas = dram_cfg.cas_cycles
    if secure.mac_scheme == "gmac":
        mac_latency = secure.gmac_latency
        mac_throughput = max(1, secure.gmac_latency // 2)
    else:
        mac_latency = secure.hmac_latency
        mac_throughput = secure.mac_throughput

    return {
        "gate_issue": policy.gate_issue,
        "gate_commit": policy.gate_commit,
        "gate_fetch": gate_fetch,
        "gate_store": policy.gate_store,
        "precise_fetch": gate_fetch and fetch_mode == "precise",
        "drain_fetch": gate_fetch and fetch_mode == "drain",
        "auth_enabled": auth_enabled,
        "dur_line": -(-(line_bytes + mac_rider) // bus_width) * beat,
        "dur_meta": -(-line_bytes // bus_width) * beat,
        "dur_entry": -(-secure.remap_entry_bytes // bus_width) * beat,
        "remap_latency": secure.remap_cache_latency,
        "hash_latency": secure.hmac_latency,
        "backing_latency": config.l2.latency,
        "ras": (cas, dram_cfg.rcd_cycles + cas,
                dram_cfg.rp_cycles + dram_cfg.rcd_cycles + cas),
        "mac_latency": mac_latency,
        "mac_throughput": mac_throughput,
        "queue_depth": secure.auth_queue_depth,
        "decrypt_latency": secure.decrypt_latency,
        "xor_latency": 1,  # DecryptionEngine default; not config-routed
        "l1i_latency": config.l1i.latency,
        "l1d_latency": config.l1d.latency,
        "l2_latency": config.l2.latency,
        "num_banks": dram_cfg.num_banks,
        "mshr_entries": max(1, config.mshr_entries),
        "fetch_width": cfg.fetch_width,
        "issue_width": cfg.issue_width,
        "commit_width": cfg.commit_width,
        "ruu_size": cfg.ruu_entries,
        "lsq_size": cfg.lsq_entries,
        "depth": cfg.pipeline_depth,
        "penalty": cfg.branch_mispredict_penalty,
        "sb_size": secure.store_buffer_entries,
        "unit_latency": [_UNIT_LATENCY.get(code, 0) for code in range(8)],
        "prune_interval": _CALENDAR_PRUNE_INTERVAL,
    }


def replay_policy(prepass, policy, config, trace_name="trace",
                  profiler=None, columns=None):
    """Replay ``prepass`` under ``policy``; returns a :class:`RunResult`.

    ``prepass`` must be the walk of ``structural_variant(config,
    policy)`` (``ValueError`` otherwise); ``columns`` is the unit's
    :func:`repro.cpu.native.trace_columns`, built here when None.  The
    result's ``stats`` group carries the same counters (including
    zero-valued ones) as a legacy ``build_simulator`` + ``core.run``
    pass, so stats digests match byte-for-byte.  Runs the compiled
    kernel from :mod:`repro.cpu.native`; raises ``RuntimeError`` when
    that kernel is unavailable (callers choose the model with
    :func:`repro.exec.executor.uses_kernel`).
    """
    start_wall = perf_counter() if profiler is not None else 0.0

    terms = structural_terms(config, policy)
    if (prepass.hash_tree, prepass.obfuscation) != terms:
        raise ValueError(
            "policy %r needs the prepass of its structural variant "
            "(hash_tree=%s, obfuscation=%s)" % ((policy.name,) + terms))
    c = _policy_constants(policy, config)
    o = native.replay(prepass, c, columns)

    # ---- assemble the stats group (legacy counter inventory) ---------
    stats = StatGroup("sim")
    counter = stats.counter
    n_line_ops = prepass.n_misses + prepass.n_writes
    n_entry = prepass.secure_stats.get("remap_entry_fetches", 0)
    counter("line_reads").value = prepass.n_misses
    counter("line_writes").value = prepass.n_writes
    counter("metadata_accesses").value = prepass.n_meta
    stats.histogram("read_latency").buckets.update(o["read_lat_buckets"])
    counter("row_hits").value = prepass.row_hits
    counter("row_empty").value = prepass.row_empty
    counter("row_conflicts").value = prepass.row_conflicts
    counter("accesses").value = prepass.dram_ops
    counter("busy_cycles").value = (n_line_ops * c["dur_line"]
                                    + (prepass.n_meta - n_entry)
                                    * c["dur_meta"]
                                    + n_entry * c["dur_entry"])
    counter("transfers").value = prepass.dram_ops
    counter("wait_cycles").value = o["wait_cycles"]
    counter("pad_fully_hidden").value = o["pad_hidden"]
    counter("pad_exposed_cycles").value = o["pad_exposed"]
    counter("hits").value = prepass.meta_hits
    counter("misses").value = prepass.meta_misses
    counter("evictions").value = prepass.meta_evictions
    counter("writebacks").value = prepass.meta_writebacks
    counter("auth_requests").value = o["auth_requests"]
    counter("auth_queue_full").value = o["queue_full"]
    for name, value in prepass.secure_stats.items():
        if isinstance(value, dict):
            stats.histogram(name).buckets.update(value)
        else:
            counter(name).value = value
    stats.histogram("decrypt_verify_gap").buckets.update(o["gap_buckets"])
    counter("page_reencryptions").value = prepass.page_reencryptions
    counter("mshr_stall_events").value = o["mshr_stalls"]
    counter("prefetch_issued").value = 0
    counter("auth_commit_stall_cycles").value = o["auth_commit_stall"]
    counter("auth_issue_stall_cycles").value = o["auth_issue_stall"]
    counter("store_buffer_full_stalls").value = o["sb_full_stall"]
    counter("branch_mispredicts").value = o["branch_mispredicts"]

    if profiler is not None:
        profiler.add("replay", perf_counter() - start_wall)
    return RunResult(
        trace_name,
        policy.name,
        prepass.num_instructions - prepass.warmup,
        o["cycles"],
        stats,
        dict(prepass.miss_summary),
    )

