"""Policy-independent structural prepass over one decoded trace.

The decode-once/evaluate-many pipeline rests on one observation: every
*structural* decision the memory system makes -- TLB and cache hit/miss
outcomes, LRU evictions and dirty writebacks, counter-cache probes,
counter-prediction draws, hash-tree walks, re-map cache probes and
re-shuffle draws, SDRAM bank/row classification -- depends only on the
address stream and its order, never on the policy's gating terms.
Policies change *when* things happen (cycle arithmetic), not *what*
happens.  So the walk over caches and banks can run once per trace, and
each policy evaluation replays only the timing arithmetic over the
recorded outcomes (:mod:`repro.cpu.shared_kernel`).

:func:`build_prepass` performs that walk.  It mirrors, decision for
decision, the structural half of ``hierarchy._make_l1_path`` /
``hierarchy._l2_miss`` / ``engine.fetch_line`` / ``engine.write_line``
and records the outcomes on flat per-access / per-miss / per-DRAM-op
``array('q')`` columns (the same structure-of-arrays discipline as
:class:`~repro.workloads.trace.PackedTrace`), which the replay kernel
reads in place.  The CHTree walk and the address-obfuscation layer run
the simulator's own :class:`~repro.secure.hash_tree.HashTreeTiming` and
:class:`~repro.secure.remap.AddressObfuscator` over the mirrored L2 and
a controller stand-in that records the DRAM ops they issue: node-cache
and re-map-cache probes, tree-node installs into the L2 and the
``RemapTable.reshuffle`` draws happen exactly as in the legacy run, and
only the done-cycles of those ops are left to the replay.  The
differential equivalence suite (``tests/cpu/test_shared_kernel.py``)
and the perf goldens pin the mirror bit-identically against the legacy
path.

Two policy terms change the structure, so a unit walks one prepass per
:func:`structural_variant` its kernel members need: obfuscating
policies switch the re-map layer on, and only authenticating policies
walk the hash tree.

Which members replay over a prepass is decided by the executor's one
model rule (:func:`~repro.exec.executor.kernel_fallback`); every other
member runs the legacy per-policy simulator (CBC mode, prefetching,
traced runs, hosts without the compiled kernel), and no prepass is
built for a unit none of whose members uses the kernel.
"""

from array import array
from dataclasses import replace

from repro.config import SimConfig
from repro.secure.hash_tree import HashTreeTiming
from repro.secure.metadata import MetadataLayout
from repro.secure.remap import AddressObfuscator
from repro.util.rng import DeterministicRng
from repro.util.statistics import StatGroup

#: Sentinel row id meaning "bank precharged/idle" (rows are >= 0).
_NO_ROW = -1

# DRAM page-status categories recorded per op (index into the kernel's
# RAS-latency table).
ROW_HIT = 0
ROW_EMPTY = 1
ROW_CONFLICT = 2

# L1 lookup outcomes recorded per access.
LVL_L1_HIT = 0
LVL_L2_HIT = 1
LVL_MISS = 2

# Re-map outcomes recorded per L2 miss.
REMAP_NONE = 0    # no obfuscation layer
REMAP_HIT = 1     # entry found in the re-map cache
REMAP_FETCH = 2   # entry fetched from the in-memory re-map table

#: The recorded columns, in the replay kernel's argument order (the
#: artifact store writes the same list).
COLUMNS = ("if_flags", "a_pre", "a_lvl", "a_ref", "a_wb",
           "m_wb", "m_counter", "m_remap", "m_depth", "m_backing",
           "d_bank", "d_cat")

#: The sim StatGroup counters the counter, tree-node and re-map caches
#: share (each ``Cache`` registers the same four names).
_SHARED_CACHE_STATS = ("hits", "misses", "evictions", "writebacks")


#: Fields the walk never reads: pure timing, so configurations that
#: differ only in them share one structural variant (and one prepass).
_TIMING_SECURE = ("decrypt_latency", "hmac_latency", "mac_scheme",
                  "gmac_latency", "mac_bits", "auth_queue_depth",
                  "mac_throughput", "store_buffer_entries",
                  "remap_cache_latency")
_TIMING_DRAM = ("bus_multiplier", "bus_width_bytes", "cas_bus_clocks",
                "rcd_bus_clocks", "rp_bus_clocks", "chunk_gap_cycles")
#: Mechanism parameters, unread while the mechanism is off.
_TREE_SECURE = ("hash_tree_cache_bytes",)
_REMAP_SECURE = ("remap_cache_bytes", "remap_entry_bytes",
                 "remap_chunk_bytes", "remap_shuffle_period")
_DEFAULT = SimConfig()


def structural_terms(config, policy):
    """``(hash_tree, obfuscation)``: which mechanisms the legacy model
    builds for ``policy`` under ``config``.

    :class:`~repro.cpu.hierarchy.MemoryHierarchy` switches the re-map
    layer on for an obfuscating policy, and
    :class:`~repro.secure.engine.SecureMemoryEngine` builds the hash
    tree only for an authenticating one.
    """
    secure = config.secure
    return (secure.hash_tree_enabled and policy.authentication,
            secure.obfuscation_enabled or policy.obfuscation)


def structural_variant(config, policy):
    """The configuration whose structural walk ``policy`` replays over.

    ``config`` with the mechanisms of :func:`structural_terms` switched
    on or off and every field the walk does not read reset to its
    default: the core, cache and DRAM latencies, the crypto and queue
    timing, and the parameters (and re-map seed) of a mechanism that is
    off.  Members -- of one unit, or of any figure -- whose variants are
    equal share one prepass.
    """
    hash_tree, obfuscation = structural_terms(config, policy)
    defaults = _DEFAULT.secure
    reset = list(_TIMING_SECURE)
    if not hash_tree:
        reset.extend(_TREE_SECURE)
    if not obfuscation:
        reset.extend(_REMAP_SECURE)
    secure = replace(config.secure, hash_tree_enabled=hash_tree,
                     obfuscation_enabled=obfuscation,
                     **{name: getattr(defaults, name) for name in reset})
    dram = replace(config.dram, **{name: getattr(_DEFAULT.dram, name)
                                   for name in _TIMING_DRAM})
    return replace(config, core=_DEFAULT.core,
                   l1i=replace(config.l1i, latency=1),
                   l1d=replace(config.l1d, latency=1),
                   l2=replace(config.l2, latency=1),
                   dram=dram, secure=secure,
                   mshr_entries=_DEFAULT.mshr_entries,
                   seed=config.seed if obfuscation else _DEFAULT.seed)


class _OpRecorder:
    """Memory-controller stand-in for the reused tree/re-map models.

    Records every DRAM op they issue, in issue order, and returns itself
    as the access; the walk never reads its ``done_cycle``.
    """

    __slots__ = ("dram_op", "fetches", "writes")
    done_cycle = 0

    def __init__(self, dram_op):
        self.dram_op = dram_op
        self.fetches = 0
        self.writes = 0

    def fetch_metadata(self, addr, cycle, num_bytes, kind="metadata"):
        self.dram_op(addr)
        self.fetches += 1
        return self

    def write_line(self, addr, cycle, kind="writeback"):
        self.dram_op(addr)
        self.writes += 1
        return self


class _MirroredL2:
    """The hash tree's backing cache, over the walk's mirrored L2 sets.

    :meth:`access` is ``Cache.access`` for a tree node: a hit refreshes
    recency; a miss installs the node clean, recycling the LRU entry in
    place as ``Cache.fill`` recycles its ``LineState``.  The victim's
    dirty bit is dropped unwritten, as the legacy walk drops it (see
    :meth:`~repro.secure.hash_tree.HashTreeTiming.verification_extra`).
    ``hit`` is the outcome of the last access.
    """

    __slots__ = ("sets", "num_sets", "line_bytes", "assoc", "counts", "hit")

    def __init__(self, sets, line_bytes, assoc, counts):
        self.sets = sets
        self.num_sets = len(sets)
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.counts = counts  # the L2's [hits, misses] pair
        self.hit = False

    def access(self, addr):
        line_addr = addr // self.line_bytes
        cache_set = self.sets[line_addr % self.num_sets]
        tag = line_addr // self.num_sets
        entry = cache_set.get(tag)
        if entry is not None:
            self.counts[0] += 1
            del cache_set[tag]
            cache_set[tag] = entry
            self.hit = True
            return self
        self.counts[1] += 1
        if len(cache_set) >= self.assoc:
            entry = cache_set.pop(next(iter(cache_set)))
            entry[0] = -1
            entry[1] = False
            entry[2] = tag
        else:
            entry = [-1, False, tag]
        cache_set[tag] = entry
        self.hit = False
        return self


class TracePrepass:
    """Recorded structural outcomes of one (trace, config, warmup) walk.

    Column semantics (parallel ``array('q')`` columns as built, or
    zero-copy int64 views when loaded from the artifact store):

    - per instruction: ``if_flags[i]`` is 1 when instruction ``i``
      fetches a new I-line (the ``iline != cur_iline`` test);
    - per memory access, in global access order (I-fetch then D-side per
      instruction): ``a_pre`` (TLB miss latency to add), ``a_lvl`` (one
      of the ``LVL_*`` outcomes), ``a_ref`` (for an L1 hit: index of the
      access that filled the line; for an L2 hit: index of the *miss*
      that filled it, or -1 for a line installed by an L1 writeback or
      a tree walk; for a miss: its miss index), ``a_wb`` (posted DRAM
      writes issued by the L1 victim writeback, incl. re-encryption and
      re-shuffle bursts);
    - per L2 demand miss: ``m_wb`` (posted DRAM writes from the L2
      victim writeback), ``m_counter`` (0 = counter-cache hit, 1 =
      predicted, 2 = counter block fetched from memory), ``m_remap``
      (one of the ``REMAP_*`` outcomes), ``m_depth`` (hash-tree walk
      depth) and ``m_backing`` (1 when the walk ended on a node resident
      in the L2);
    - per DRAM op, in issue order: ``d_bank`` and ``d_cat`` (``ROW_*``).
      A miss issues its counter fetch, its re-map entry fetch, its line,
      then its ``m_depth - m_backing`` tree-node fetches.

    Plus the policy-independent stat totals -- ``meta_*`` sum the
    counter, tree-node and re-map caches, which share the sim group's
    ``hits``/``misses``/``evictions``/``writebacks`` counters --
    ``secure_stats`` (the tree and re-map counters of the mechanisms
    walked, in ``StatGroup.as_dict`` form), and the post-warmup
    ``miss_summary`` the replay hands through unchanged.
    """

    __slots__ = (
        "num_instructions", "warmup", "hash_tree", "obfuscation",
        "packed", "if_flags",
        "a_pre", "a_lvl", "a_ref", "a_wb",
        "m_wb", "m_counter", "m_remap", "m_depth", "m_backing",
        "d_bank", "d_cat",
        "n_accesses", "n_misses", "n_meta", "n_writes",
        "meta_hits", "meta_misses", "meta_evictions", "meta_writebacks",
        "row_hits", "row_empty", "row_conflicts",
        "page_reencryptions", "secure_stats", "miss_summary",
    )

    @property
    def dram_ops(self):
        """Total DRAM accesses (= bus transfers)."""
        return len(self.d_bank)


def build_prepass(trace, config, warmup=0,
                  protected_bytes=256 * 1024 * 1024):
    """Run the structural walk; returns a :class:`TracePrepass`.

    ``config`` is a :func:`structural_variant`: its ``hash_tree_enabled``
    and ``obfuscation_enabled`` say which mechanisms the walk runs.  Must
    only be called for configurations
    :func:`~repro.exec.executor.kernel_fallback` admits; the walk
    assumes the counter-mode fast path's structure.
    """
    packed = trace.packed()
    num_insts = len(packed)
    warmup = min(warmup, num_insts)

    secure = config.secure
    layout = MetadataLayout(
        protected_bytes=protected_bytes,
        line_bytes=config.l2.line_bytes,
        counter_bytes=secure.counter_bytes,
        mac_bits=secure.mac_bits,
        hash_bytes=secure.hash_bytes,
    )
    wrap = layout.protected_bytes
    counter_base = layout.counter_base
    if secure.split_counters:
        counter_div = 4096
        counter_step = layout.line_bytes
    else:
        counter_div = layout.line_bytes
        counter_step = layout.counter_bytes

    # ---- mirrored cache state (dict insertion order == recency) ------
    l1i_cfg, l1d_cfg, l2_cfg = config.l1i, config.l1d, config.l2
    l1i_sets = [dict() for _ in range(l1i_cfg.num_sets)]
    l1d_sets = [dict() for _ in range(l1d_cfg.num_sets)]
    l2_sets = [dict() for _ in range(l2_cfg.num_sets)]
    l2_num_sets = l2_cfg.num_sets
    l2_line_bytes = l2_cfg.line_bytes
    l2_assoc = l2_cfg.associativity
    page_bytes = config.page_bytes
    tlb_assoc = config.tlb_associativity
    itlb_num_sets = max(1, config.itlb_entries // tlb_assoc)
    dtlb_num_sets = max(1, config.dtlb_entries // tlb_assoc)
    itlb_sets = [dict() for _ in range(itlb_num_sets)]
    dtlb_sets = [dict() for _ in range(dtlb_num_sets)]
    tlb_miss_latency = config.tlb_miss_latency

    # Counter cache: 64B lines, 4-way (CounterCache's fixed geometry).
    cc_line_bytes = 64
    cc_assoc = 4
    cc_num_sets = max(1, secure.counter_cache_bytes
                      // (cc_line_bytes * cc_assoc))
    cc_sets = [dict() for _ in range(cc_num_sets)]
    minor_counts = {}
    minor_limit = 1 << secure.minor_counter_bits
    split_counters = secure.split_counters
    lines_per_page = 4096 // layout.line_bytes
    line_bytes = layout.line_bytes

    # Counter-prediction LCG (SecureMemoryEngine._predict).
    predict_state = 0x2545F4914F6CDD1D
    predict_threshold = int(secure.counter_prediction_rate * (1 << 16))

    # SDRAM bank/row state.
    dram_cfg = config.dram
    num_banks = dram_cfg.num_banks
    interleave = dram_cfg.interleave_bytes
    row_div = num_banks * dram_cfg.row_bytes
    open_rows = [_NO_ROW] * num_banks

    # ---- output columns ----------------------------------------------
    if_flags = array("q", bytes(8 * num_insts))
    a_pre = array("q")
    a_lvl = array("q")
    a_ref = array("q")
    a_wb = array("q")
    m_wb = array("q")
    m_counter = array("q")
    m_remap = array("q")
    m_depth = array("q")
    m_backing = array("q")
    d_bank = array("q")
    d_cat = array("q")

    # ---- structural counters -----------------------------------------
    counts = {
        "cc_hits": 0, "cc_misses": 0, "cc_evictions": 0,
        "cc_writebacks": 0, "n_writes": 0, "reencrypts": 0,
    }
    # Per-level hit/miss pairs for miss_summary (reset at warmup).
    hm = {"l1i": [0, 0], "l1d": [0, 0], "l2": [0, 0],
          "itlb": [0, 0], "dtlb": [0, 0]}

    def dram_op(addr):
        """Classify one DRAM access against the mirrored bank state."""
        bank = (addr // interleave) % num_banks
        row = addr // row_div
        prev = open_rows[bank]
        open_rows[bank] = row
        d_bank.append(bank)
        d_cat.append(ROW_HIT if prev == row
                     else ROW_EMPTY if prev == _NO_ROW else ROW_CONFLICT)

    # ---- the reused tree / re-map models (sim-group stats mirrored) --
    side_stats = StatGroup("sim")
    recorder = _OpRecorder(dram_op)
    tree = None
    backing = None
    if secure.hash_tree_enabled:
        tree = HashTreeTiming(layout,
                              cache_bytes=secure.hash_tree_cache_bytes,
                              stats=side_stats)
        backing = _MirroredL2(l2_sets, l2_line_bytes, l2_assoc,
                              hm["l2"])
        tree.attach_backing(backing, l2_cfg.latency)
    obfuscator = None
    if secure.obfuscation_enabled:
        obfuscator = AddressObfuscator(
            layout,
            DeterministicRng(config.seed).stream("remap"),
            cache_bytes=secure.remap_cache_bytes,
            entry_bytes=secure.remap_entry_bytes,
            cache_latency=secure.remap_cache_latency,
            chunk_bytes=secure.remap_chunk_bytes,
            shuffle_period=secure.remap_shuffle_period,
            stats=side_stats,
        )

    def cc_bump(caddr):
        """CounterCache.bump: probe-as-write, fill-as-write on miss."""
        cline = caddr // cc_line_bytes
        cset = cc_sets[cline % cc_num_sets]
        ctag = cline // cc_num_sets
        entry = cset.get(ctag)
        if entry is not None:
            counts["cc_hits"] += 1
            del cset[ctag]
            cset[ctag] = True  # dirty
            return
        counts["cc_misses"] += 1
        if len(cset) >= cc_assoc:
            victim_dirty = cset.pop(next(iter(cset)))
            counts["cc_evictions"] += 1
            if victim_dirty:
                counts["cc_writebacks"] += 1
        cset[ctag] = True

    def engine_write(addr):
        """SecureMemoryEngine.write_line, structurally; returns the
        number of posted DRAM writes it issued."""
        if split_counters:
            caddr = counter_base + (addr // 4096) * line_bytes
        else:
            caddr = counter_base + (addr // line_bytes) * secure.counter_bytes
        cc_bump(caddr)
        ops = 0
        if split_counters:
            line = addr // line_bytes
            count = minor_counts.get(line, 0) + 1
            if count < minor_limit:
                minor_counts[line] = count
            else:
                page_base = (addr // 4096) * 4096
                first_line = page_base // line_bytes
                for index in range(lines_per_page):
                    minor_counts[first_line + index] = 0
                    dram_op(page_base + index * line_bytes)
                ops += lines_per_page
                counts["reencrypts"] += 1
        if tree is not None:
            tree.touch_for_update(addr)
        if obfuscator is not None:
            before = recorder.writes
            obfuscator.reshuffle_on_writeback(addr, 0, recorder)
            ops += recorder.writes - before
        else:
            dram_op(addr)
            ops += 1
        counts["n_writes"] += ops
        return ops

    def l1_writeback(victim_addr):
        """MemoryHierarchy._l1_writeback, structurally; returns the
        number of posted DRAM writes it issued."""
        vline = victim_addr // l2_line_bytes
        vset = l2_sets[vline % l2_num_sets]
        vtag = vline // l2_num_sets
        entry = vset.get(vtag)
        if entry is not None:
            hm["l2"][0] += 1
            del vset[vtag]
            vset[vtag] = entry
            entry[1] = True  # mark dirty
            return 0
        hm["l2"][1] += 1
        ops = 0
        if len(vset) >= l2_assoc:
            victim = vset.pop(next(iter(vset)))
            if victim[1]:
                ops = engine_write(((victim[2] * l2_num_sets
                                     + vline % l2_num_sets)
                                    * l2_line_bytes) % wrap)
        vset[vtag] = [-1, True, vtag]
        return ops

    def l2_miss(addr):
        """MemoryHierarchy._l2_miss + engine.fetch_line, structurally;
        returns the miss index."""
        nonlocal predict_state
        miss_index = len(m_counter)
        mline = addr // l2_line_bytes
        set_index = mline % l2_num_sets
        mset = l2_sets[set_index]
        mtag = mline // l2_num_sets
        hm["l2"][1] += 1
        wb_ops = 0
        victim = None
        if len(mset) >= l2_assoc:
            victim = mset.pop(next(iter(mset)))
        # Timestamped once the fetch returns (after the tree walk, which
        # may recycle this very entry for a node it installs).
        line_entry = [-1, False, mtag]
        mset[mtag] = line_entry
        if victim is not None and victim[1]:
            wb_ops = engine_write(((victim[2] * l2_num_sets + set_index)
                                   * l2_line_bytes) % wrap)
        target = mline * l2_line_bytes % wrap
        # Counter-mode pad source: counter cache, prediction, or memory.
        caddr = counter_base + (target // counter_div) * counter_step
        cline = caddr // cc_line_bytes
        cset = cc_sets[cline % cc_num_sets]
        ctag = cline // cc_num_sets
        entry = cset.get(ctag)
        if entry is not None:
            counts["cc_hits"] += 1
            del cset[ctag]
            cset[ctag] = entry
            mc = 0
        else:
            counts["cc_misses"] += 1
            if len(cset) >= cc_assoc:
                victim_dirty = cset.pop(next(iter(cset)))
                counts["cc_evictions"] += 1
                if victim_dirty:
                    counts["cc_writebacks"] += 1
            cset[ctag] = False
            predict_state = (
                predict_state * 6364136223846793005 + 1442695040888963407
            ) & (2**64 - 1)
            if (predict_state >> 33) & 0xFFFF < predict_threshold:
                mc = 1
            else:
                mc = 2
                dram_op(caddr)
        # Address obfuscation: the line is fetched at its re-mapped slot.
        if obfuscator is None:
            remap = REMAP_NONE
            dram_op(target)
        else:
            before = recorder.fetches
            located, _ = obfuscator.resolve(target, 0, recorder)
            remap = REMAP_HIT if recorder.fetches == before else REMAP_FETCH
            dram_op(located)
        # Hash-tree walk: node fetches up to the first cached ancestor.
        depth = backing_hit = 0
        if tree is not None:
            backing.hit = False
            before = recorder.fetches
            tree.verification_extra(target, 0, recorder)
            backing_hit = 1 if backing.hit else 0
            depth = recorder.fetches - before + backing_hit
        line_entry[0] = miss_index
        m_counter.append(mc)
        m_wb.append(wb_ops)
        m_remap.append(remap)
        m_depth.append(depth)
        m_backing.append(backing_hit)
        return miss_index

    def make_access(l1_sets_, l1_num_sets, l1_line_bytes, l1_assoc,
                    tlb_sets_, tlb_num_sets, level_key, tlb_key, is_write):
        l1_hm = hm[level_key]
        tlb_hm = hm[tlb_key]

        def access(addr):
            acc_index = len(a_lvl)
            # TLB probe (Tlb.translate_latency).
            page = addr // page_bytes
            tset = tlb_sets_[page % tlb_num_sets]
            ttag = page // tlb_num_sets
            if ttag in tset:
                tlb_hm[0] += 1
                del tset[ttag]
                tset[ttag] = True
                pre = 0
            else:
                tlb_hm[1] += 1
                if len(tset) >= tlb_assoc:
                    tset.pop(next(iter(tset)))
                tset[ttag] = True
                pre = tlb_miss_latency
            # L1 probe (Cache.hit_line).
            line_addr = addr // l1_line_bytes
            set_index = line_addr % l1_num_sets
            cache_set = l1_sets_[set_index]
            tag = line_addr // l1_num_sets
            line = cache_set.get(tag)
            if line is not None:
                l1_hm[0] += 1
                del cache_set[tag]
                cache_set[tag] = line
                if is_write:
                    line[1] = True
                a_pre.append(pre)
                a_lvl.append(LVL_L1_HIT)
                a_ref.append(line[0])
                a_wb.append(0)
                return
            # L1 miss: evict, write back, probe L2.
            l1_hm[1] += 1
            wb_ops = 0
            if len(cache_set) >= l1_assoc:
                victim = cache_set.pop(next(iter(cache_set)))
                if victim[1]:
                    wb_ops = l1_writeback(
                        (victim[2] * l1_num_sets + set_index) * l1_line_bytes)
            cache_set[tag] = [acc_index, is_write, tag]
            l2_line_addr = addr // l2_line_bytes
            l2_set = l2_sets[l2_line_addr % l2_num_sets]
            l2_tag = l2_line_addr // l2_num_sets
            l2_line = l2_set.get(l2_tag)
            if l2_line is not None:
                hm["l2"][0] += 1
                del l2_set[l2_tag]
                l2_set[l2_tag] = l2_line
                a_lvl.append(LVL_L2_HIT)
                a_ref.append(l2_line[0])
            else:
                a_lvl.append(LVL_MISS)
                a_ref.append(l2_miss(addr))
            a_pre.append(pre)
            a_wb.append(wb_ops)

        return access

    ifetch = make_access(
        l1i_sets, l1i_cfg.num_sets, l1i_cfg.line_bytes,
        l1i_cfg.associativity, itlb_sets, itlb_num_sets,
        "l1i", "itlb", False)
    load = make_access(
        l1d_sets, l1d_cfg.num_sets, l1d_cfg.line_bytes,
        l1d_cfg.associativity, dtlb_sets, dtlb_num_sets,
        "l1d", "dtlb", False)
    store = make_access(
        l1d_sets, l1d_cfg.num_sets, l1d_cfg.line_bytes,
        l1d_cfg.associativity, dtlb_sets, dtlb_num_sets,
        "l1d", "dtlb", True)

    # ---- the walk ----------------------------------------------------
    iline_bytes = config.l1i.line_bytes
    op_load = 3  # Op.LOAD
    op_store = 4  # Op.STORE
    cur_iline = -1
    warmup_snapshot = None

    pcs = packed.pcs
    ops = packed.ops
    addrs = packed.addrs
    for index in range(num_insts):
        if index == warmup and warmup:
            # hierarchy.reset_stats(): the per-level groups restart here,
            # so miss_summary covers the measured region only.
            warmup_snapshot = {key: list(pair) for key, pair in hm.items()}
        pc = pcs[index]
        iline = pc // iline_bytes
        if iline != cur_iline:
            if_flags[index] = 1
            ifetch(pc)
            cur_iline = iline
        op = ops[index]
        if op == op_load:
            load(addrs[index])
        elif op == op_store:
            store(addrs[index])

    if warmup_snapshot is None:
        warmup_snapshot = {key: [0, 0] for key in hm}
    miss_summary = {}
    for key in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        hits = hm[key][0] - warmup_snapshot[key][0]
        misses = hm[key][1] - warmup_snapshot[key][1]
        total = hits + misses
        miss_summary[key] = misses / total if total else 0.0

    secure_stats = side_stats.as_dict()
    shared = [secure_stats.pop(name, 0) for name in _SHARED_CACHE_STATS]

    pre = TracePrepass()
    pre.num_instructions = num_insts
    pre.warmup = warmup
    pre.hash_tree = tree is not None
    pre.obfuscation = obfuscator is not None
    pre.packed = packed
    pre.if_flags = if_flags
    pre.a_pre = a_pre
    pre.a_lvl = a_lvl
    pre.a_ref = a_ref
    pre.a_wb = a_wb
    pre.m_wb = m_wb
    pre.m_counter = m_counter
    pre.m_remap = m_remap
    pre.m_depth = m_depth
    pre.m_backing = m_backing
    pre.d_bank = d_bank
    pre.d_cat = d_cat
    pre.n_accesses = len(a_lvl)
    pre.n_misses = len(m_counter)
    # Counter-block fetches plus the tree/re-map metadata fetches.
    pre.n_meta = m_counter.count(2) + recorder.fetches
    pre.n_writes = counts["n_writes"]
    pre.meta_hits = counts["cc_hits"] + shared[0]
    pre.meta_misses = counts["cc_misses"] + shared[1]
    pre.meta_evictions = counts["cc_evictions"] + shared[2]
    pre.meta_writebacks = counts["cc_writebacks"] + shared[3]
    pre.row_hits = d_cat.count(ROW_HIT)
    pre.row_empty = d_cat.count(ROW_EMPTY)
    pre.row_conflicts = d_cat.count(ROW_CONFLICT)
    pre.page_reencryptions = counts["reencrypts"]
    pre.secure_stats = secure_stats
    pre.miss_summary = miss_summary
    return pre
