"""Native (C) build of the shared timestamp kernel.

The decode-once/evaluate-many pipeline makes the per-policy replay the
hot loop of every multi-policy sweep: one
:class:`~repro.cpu.prepass.TracePrepass` is walked once per registered
policy, and the walk is pure int64 arithmetic over flat columns -- a
shape the system C compiler turns into code an order of magnitude
faster than the CPython interpreter loop.  This module carries the only
implementation of that replay loop (a port of
:meth:`repro.cpu.core.TimestampCore.run` over prepass columns), compiles
it at first use, and drives it through :mod:`ctypes`.

Everything is integer arithmetic, so the replay is *bit-identical* to
the legacy simulator: the differential suite in ``tests/cpu/`` pins
native == legacy, and ``repro perf --check`` re-verifies the pinned
goldens through both.
The kernel is optional for the program but not for a replay: with no
C compiler, a failed compile, or ``REPRO_NATIVE=0`` in the environment,
:func:`native_available` is False, :func:`replay` raises, and the
executor's model rule (:func:`repro.exec.executor.kernel_fallback`) runs
every member on the legacy simulator instead, with identical results.
``REPRO_NATIVE=require`` turns an unavailable kernel into an error,
for CI jobs that must exercise the native path.

The compiler is ``$CC`` (default ``cc``), split like a shell word list
so ``CC="ccache cc"`` works.  The compiled object is cached as
``<tmpdir>/repro-kernel-<source-hash>.so``; each machine compiles once
and process-pool workers just dlopen the cached object.  Nothing is
copied per replay: the prepass columns are ``array('q')`` from the
start (or int64 views into a store entry), and the trace-derived
columns are marshalled once per unit (:func:`trace_columns`) and shared
by every replay of every prepass variant of that unit.
"""

import ctypes
import hashlib
import os
import shlex
import struct
import subprocess
import tempfile
from array import array
from itertools import accumulate, chain

from repro.cpu.prepass import COLUMNS

#: Scalar block layouts -- keep in lockstep with the CFG_*/OUT_*
#: defines in the C source.
_CFG_SLOTS = 47
_OUT_SLOTS = 12

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Scalar config block layout (mirror of _pack_cfg in native.py). */
enum {
    CFG_NUM_INSTS, CFG_WARMUP, CFG_N_ACCESSES, CFG_N_MISSES,
    CFG_GATE_ISSUE, CFG_GATE_COMMIT, CFG_GATE_FETCH, CFG_GATE_STORE,
    CFG_PRECISE_FETCH, CFG_DRAIN_FETCH, CFG_AUTH_ENABLED,
    CFG_DUR_LINE, CFG_DUR_META, CFG_RAS0, CFG_RAS1, CFG_RAS2,
    CFG_MAC_LATENCY, CFG_MAC_THROUGHPUT, CFG_QUEUE_DEPTH,
    CFG_DECRYPT_LAT, CFG_XOR_LAT,
    CFG_L1I_LAT, CFG_L1D_LAT, CFG_L2_LAT,
    CFG_NUM_BANKS, CFG_MSHR_ENTRIES,
    CFG_FETCH_WIDTH, CFG_ISSUE_WIDTH, CFG_COMMIT_WIDTH,
    CFG_RUU_SIZE, CFG_LSQ_SIZE, CFG_DEPTH, CFG_PENALTY, CFG_SB_SIZE,
    CFG_UNIT_LAT0,                    /* ..+7: latency per op code 0..7 */
    CFG_PRUNE_INTERVAL = CFG_UNIT_LAT0 + 8,
    CFG_DUR_ENTRY, CFG_REMAP_LAT, CFG_HASH_LAT, CFG_BACKING_LAT,
    CFG_SLOTS
};

/* Scalar output block layout (mirror of replay() in native.py). */
enum {
    OUT_LAST_COMMIT, OUT_WARMUP_COMMIT, OUT_WAIT_CYCLES,
    OUT_PAD_HIDDEN, OUT_PAD_EXPOSED, OUT_QUEUE_FULL, OUT_MSHR_STALLS,
    OUT_AUTH_COMMIT_STALL, OUT_AUTH_ISSUE_STALL, OUT_SB_FULL_STALL,
    OUT_BRANCH_MISPRED, OUT_N_COMPLETIONS, OUT_SLOTS
};

#define OP_LOAD   3
#define OP_STORE  4
#define OP_BRANCH 5
#define OP_JUMP   6

/* ---- issue calendar: open-addressing int64 -> int64 map.
 * One insert per instruction, pruned wholesale every
 * CFG_PRUNE_INTERVAL instructions (same contract as the Python dict in
 * TimestampCore.run: keys behind fetch_frontier + depth can never be
 * probed again, so the table stays bounded). */
typedef struct {
    int64_t cap;                      /* power of two */
    int64_t used;
    int64_t *keys;
    int64_t *vals;
    uint8_t *full;
} cal_t;

static int cal_init(cal_t *c, int64_t cap)
{
    c->cap = cap;
    c->used = 0;
    c->keys = (int64_t *)malloc(sizeof(int64_t) * (size_t)cap);
    c->vals = (int64_t *)malloc(sizeof(int64_t) * (size_t)cap);
    c->full = (uint8_t *)calloc((size_t)cap, 1);
    return (c->keys && c->vals && c->full) ? 0 : -1;
}

static void cal_free(cal_t *c)
{
    free(c->keys);
    free(c->vals);
    free(c->full);
    c->keys = c->vals = 0;
    c->full = 0;
}

static int64_t cal_slot(const cal_t *c, int64_t key)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    int64_t mask = c->cap - 1;
    int64_t i = (int64_t)(h >> 17) & mask;
    while (c->full[i] && c->keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

static int64_t cal_get(const cal_t *c, int64_t key)
{
    int64_t i = cal_slot(c, key);
    return c->full[i] ? c->vals[i] : 0;
}

/* Rebuild the table: doubled when `floor_key` is negative (load-factor
 * growth), same-size keeping only keys >= floor_key otherwise (prune). */
static int cal_rebuild(cal_t *c, int64_t floor_key)
{
    cal_t next;
    int64_t cap = floor_key < 0 ? c->cap * 2 : c->cap;
    int64_t i;
    if (cal_init(&next, cap) != 0)
        return -1;
    for (i = 0; i < c->cap; i++) {
        if (!c->full[i])
            continue;
        if (floor_key >= 0 && c->keys[i] < floor_key)
            continue;
        {
            int64_t j = cal_slot(&next, c->keys[i]);
            next.full[j] = 1;
            next.keys[j] = c->keys[i];
            next.vals[j] = c->vals[i];
            next.used++;
        }
    }
    cal_free(c);
    *c = next;
    return 0;
}

static int cal_put(cal_t *c, int64_t key, int64_t val)
{
    int64_t i = cal_slot(c, key);
    if (!c->full[i]) {
        c->full[i] = 1;
        c->keys[i] = key;
        c->vals[i] = val;
        c->used++;
        if (c->used * 4 > c->cap * 3)
            return cal_rebuild(c, -1);
        return 0;
    }
    c->vals[i] = val;
    return 0;
}

/* ---- replay state shared with mem_access ------------------------- */
typedef struct {
    const int64_t *a_pre, *a_lvl, *a_ref, *a_wb;
    const int64_t *m_wb, *m_counter, *m_remap, *m_depth, *m_backing;
    const int64_t *d_bank, *d_cat;
    int64_t *acc_data, *acc_verify, *miss_data, *miss_verify;
    int64_t *bank_ready, *mshr_ring, *completions, *fetch_times;
    int64_t *lat_out, *gap_out;
    int64_t acc_cursor, dram_cursor, bus_free, wait_cycles;
    int64_t pad_hidden, pad_exposed, queue_full, mshr_stalls;
    int64_t mshr_index, mshr_len;
    int64_t n_completions, n_fetch_times, last_start, has_last_start;
    int64_t dur_line, dur_meta, dur_entry;
    int64_t ras[3];
    int64_t mac_latency, mac_throughput, queue_depth;
    int64_t decrypt_latency, xor_latency, l2_latency;
    int64_t remap_latency, hash_latency, backing_latency;
    int64_t auth_enabled;
} rs_t;

/* engine.auth_frontier: LastRequest completion as read at `cycle`. */
static int64_t frontier(const rs_t *rs, int64_t cycle)
{
    int64_t lo = 0, hi = rs->n_fetch_times;
    if (!rs->auth_enabled)
        return 0;
    while (lo < hi) {                 /* bisect_right(fetch_times, cycle) */
        int64_t mid = (lo + hi) / 2;
        if (cycle < rs->fetch_times[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    if (lo == 0)
        return 0;
    return rs->completions[lo - 1];
}

/* The next recorded DRAM op, issued at `cycle` and holding the bus for
 * `dur` cycles; returns its done cycle (DramModel.access + bus.reserve). */
static int64_t dram_access(rs_t *rs, int64_t cycle, int64_t dur)
{
    int64_t d = rs->dram_cursor++;
    int64_t bank = rs->d_bank[d];
    int64_t ready = rs->bank_ready[bank];
    int64_t bstart = cycle > ready ? cycle : ready;
    int64_t data_ready = bstart + rs->ras[rs->d_cat[d]];
    int64_t free_at = rs->bus_free;
    int64_t tstart = data_ready > free_at ? data_ready : free_at;
    int64_t done = tstart + dur;
    rs->bus_free = done;
    rs->wait_cycles += tstart - data_ready;
    rs->bank_ready[bank] = done;
    return done;
}

/* Timing replay of one ifetch/load/store access. */
static void mem_access(rs_t *rs, int64_t cycle, int64_t gate_time,
                       int64_t l1_latency,
                       int64_t *out_data, int64_t *out_verify)
{
    int64_t i = rs->acc_cursor++;
    int64_t w, lvl, data_time, verify_time, l1_done, l2_cycle;
    cycle += rs->a_pre[i];
    for (w = 0; w < rs->a_wb[i]; w++)
        dram_access(rs, cycle, rs->dur_line);   /* posted write */
    lvl = rs->a_lvl[i];
    if (lvl == 0) {                                   /* L1 hit */
        int64_t ref = rs->a_ref[i];
        data_time = rs->acc_data[ref];
        l1_done = cycle + l1_latency;
        if (l1_done > data_time)
            data_time = l1_done;
        verify_time = rs->acc_verify[ref];
        if (verify_time < data_time)
            verify_time = data_time;
        rs->acc_data[i] = data_time;
        rs->acc_verify[i] = verify_time;
        *out_data = data_time;
        *out_verify = verify_time;
        return;
    }
    l1_done = cycle + l1_latency;
    l2_cycle = l1_done + rs->l2_latency;
    if (lvl == 1) {                                   /* L2 hit */
        int64_t ref = rs->a_ref[i];
        if (ref >= 0) {
            data_time = rs->miss_data[ref];
            verify_time = rs->miss_verify[ref];
        } else {
            data_time = 0;
            verify_time = 0;
        }
        if (l2_cycle > data_time)
            data_time = l2_cycle;
        if (verify_time < data_time)
            verify_time = data_time;
    } else {                                          /* L2 miss */
        int64_t m = rs->a_ref[i];
        int64_t fetch_cycle, slot_free, issue, pad_start, fetch_ready;
        int64_t done, pad_done;
        for (w = 0; w < rs->m_wb[m]; w++)
            dram_access(rs, l2_cycle, rs->dur_line);
        /* MSHR backpressure, then the fetch gate. */
        fetch_cycle = l2_cycle;
        slot_free = rs->mshr_ring[rs->mshr_index];
        if (slot_free > fetch_cycle) {
            rs->mshr_stalls++;
            fetch_cycle = slot_free;
        }
        issue = fetch_cycle > gate_time ? fetch_cycle : gate_time;
        /* Counter-mode pad source: a mispredicted counter-cache miss
         * waits for the counter block. */
        pad_start = rs->m_counter[m] == 2
            ? dram_access(rs, issue, rs->dur_meta) : issue;
        /* Address obfuscation: the line's slot is known after the re-map
         * cache probe, or after the entry fetch on a re-map cache miss. */
        fetch_ready = issue;
        if (rs->m_remap[m]) {
            fetch_ready = issue + rs->remap_latency;
            if (rs->m_remap[m] == 2)
                fetch_ready = dram_access(rs, fetch_ready, rs->dur_entry);
            if (fetch_ready < issue)
                fetch_ready = issue;
        }
        /* Main line fetch. */
        done = dram_access(rs, fetch_ready, rs->dur_line);
        rs->lat_out[m] = done - fetch_ready;
        /* Decrypt overlap. */
        pad_done = pad_start + rs->decrypt_latency;
        if (pad_done <= done) {
            rs->pad_hidden++;
            data_time = done + rs->xor_latency;
        } else {
            rs->pad_exposed += pad_done - done;
            data_time = pad_done + rs->xor_latency;
        }
        if (rs->auth_enabled) {
            /* Hash-tree walk (HashTreeTiming.verification_extra): node
             * fetches chain from the line's arrival; a node resident in
             * the L2 ends the walk at the L2 latency. */
            int64_t depth = rs->m_depth[m], backing = rs->m_backing[m];
            int64_t nodes_ready = done, k;
            /* AuthQueue.enqueue(max(done, nodes_ready), extra,
             * fetch_time=done); tag == m. */
            int64_t fetch_time = done, ready_time, qstart;
            for (k = 0; k < depth - backing; k++)
                nodes_ready = dram_access(rs, nodes_ready, rs->dur_meta);
            if (backing)
                nodes_ready += rs->backing_latency;
            if (rs->n_fetch_times
                    && fetch_time < rs->fetch_times[rs->n_fetch_times - 1])
                fetch_time = rs->fetch_times[rs->n_fetch_times - 1];
            rs->fetch_times[rs->n_fetch_times++] = fetch_time;
            ready_time = nodes_ready > done ? nodes_ready : done;
            if (m >= rs->queue_depth) {
                int64_t qslot = rs->completions[m - rs->queue_depth];
                if (qslot > ready_time) {
                    rs->queue_full++;
                    ready_time = qslot;
                }
            }
            if (!rs->has_last_start) {
                qstart = ready_time;
            } else {
                qstart = rs->last_start + rs->mac_throughput;
                if (ready_time > qstart)
                    qstart = ready_time;
            }
            verify_time = qstart + rs->mac_latency
                + (depth ? rs->hash_latency : 0);
            if (m && verify_time < rs->completions[rs->n_completions - 1])
                verify_time = rs->completions[rs->n_completions - 1];
            rs->last_start = qstart;
            rs->has_last_start = 1;
            rs->completions[rs->n_completions++] = verify_time;
            {
                int64_t gap = verify_time - data_time;
                if (gap < 0)
                    gap = 0;
                rs->gap_out[m] = gap;
            }
        } else {
            verify_time = data_time;
        }
        rs->mshr_ring[rs->mshr_index] = done;
        rs->mshr_index++;
        if (rs->mshr_index == rs->mshr_len)
            rs->mshr_index = 0;
        rs->miss_data[m] = data_time;
        rs->miss_verify[m] = verify_time;
    }
    if (l1_done > data_time)
        data_time = l1_done;
    if (data_time > verify_time)
        verify_time = data_time;
    rs->acc_data[i] = data_time;
    rs->acc_verify[i] = verify_time;
    *out_data = data_time;
    *out_verify = verify_time;
}

int64_t repro_replay(const int64_t *cfg,
                     const int64_t *ops, const int64_t *dests,
                     const int64_t *src_off, const int64_t *src_flat,
                     const int64_t *mispredicts, const int64_t *if_flags,
                     const int64_t *a_pre, const int64_t *a_lvl,
                     const int64_t *a_ref, const int64_t *a_wb,
                     const int64_t *m_wb, const int64_t *m_counter,
                     const int64_t *m_remap, const int64_t *m_depth,
                     const int64_t *m_backing,
                     const int64_t *d_bank, const int64_t *d_cat,
                     int64_t *lat_out, int64_t *gap_out, int64_t *out)
{
    const int64_t n = cfg[CFG_NUM_INSTS];
    const int64_t warmup = cfg[CFG_WARMUP];
    const int64_t n_accesses = cfg[CFG_N_ACCESSES];
    const int64_t n_misses = cfg[CFG_N_MISSES];
    const int64_t gate_issue = cfg[CFG_GATE_ISSUE];
    const int64_t gate_commit = cfg[CFG_GATE_COMMIT];
    const int64_t gate_fetch = cfg[CFG_GATE_FETCH];
    const int64_t gate_store = cfg[CFG_GATE_STORE];
    const int64_t precise_fetch = cfg[CFG_PRECISE_FETCH];
    const int64_t drain_fetch = cfg[CFG_DRAIN_FETCH];
    const int64_t l1i_latency = cfg[CFG_L1I_LAT];
    const int64_t l1d_latency = cfg[CFG_L1D_LAT];
    const int64_t fetch_width = cfg[CFG_FETCH_WIDTH];
    const int64_t issue_width = cfg[CFG_ISSUE_WIDTH];
    const int64_t commit_width = cfg[CFG_COMMIT_WIDTH];
    const int64_t ruu_size = cfg[CFG_RUU_SIZE];
    const int64_t lsq_size = cfg[CFG_LSQ_SIZE];
    const int64_t depth = cfg[CFG_DEPTH];
    const int64_t penalty = cfg[CFG_PENALTY];
    const int64_t sb_size = cfg[CFG_SB_SIZE];
    const int64_t prune_mask = cfg[CFG_PRUNE_INTERVAL] - 1;

    int64_t reg_ready[64] = {0};
    int64_t reg_frontier[64] = {0};
    int64_t ctrl_frontier = 0;
    int64_t fetch_frontier = 0, fetched_in_cycle = 0, fetch_cycle = -1;
    int64_t redirect_time = 0, last_commit = 0, commit_cycle = -1;
    int64_t committed_in_cycle = 0;
    int64_t ruu_index = 0, lsq_index = 0, sb_index = 0;
    int64_t auth_commit_stall = 0, auth_issue_stall = 0;
    int64_t sb_full_stall = 0, branch_mispredicts = 0;
    int64_t warmup_commit = 0;
    int64_t iline_data = 0, iline_verify = 0;
    int64_t index, rc = -1;

    rs_t rs = {0};
    cal_t cal = {0};
    int64_t *ruu_ring = 0, *lsq_ring = 0, *sb_ring = 0;

    rs.a_pre = a_pre; rs.a_lvl = a_lvl; rs.a_ref = a_ref; rs.a_wb = a_wb;
    rs.m_wb = m_wb; rs.m_counter = m_counter;
    rs.m_remap = m_remap; rs.m_depth = m_depth; rs.m_backing = m_backing;
    rs.d_bank = d_bank; rs.d_cat = d_cat;
    rs.lat_out = lat_out; rs.gap_out = gap_out;
    rs.mshr_len = cfg[CFG_MSHR_ENTRIES];
    rs.dur_line = cfg[CFG_DUR_LINE];
    rs.dur_meta = cfg[CFG_DUR_META];
    rs.dur_entry = cfg[CFG_DUR_ENTRY];
    rs.ras[0] = cfg[CFG_RAS0];
    rs.ras[1] = cfg[CFG_RAS1];
    rs.ras[2] = cfg[CFG_RAS2];
    rs.mac_latency = cfg[CFG_MAC_LATENCY];
    rs.mac_throughput = cfg[CFG_MAC_THROUGHPUT];
    rs.queue_depth = cfg[CFG_QUEUE_DEPTH];
    rs.decrypt_latency = cfg[CFG_DECRYPT_LAT];
    rs.xor_latency = cfg[CFG_XOR_LAT];
    rs.l2_latency = cfg[CFG_L2_LAT];
    rs.remap_latency = cfg[CFG_REMAP_LAT];
    rs.hash_latency = cfg[CFG_HASH_LAT];
    rs.backing_latency = cfg[CFG_BACKING_LAT];
    rs.auth_enabled = cfg[CFG_AUTH_ENABLED];

    rs.acc_data = (int64_t *)calloc((size_t)(n_accesses + 1), 8);
    rs.acc_verify = (int64_t *)calloc((size_t)(n_accesses + 1), 8);
    rs.miss_data = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.miss_verify = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.completions = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.fetch_times = (int64_t *)calloc((size_t)(n_misses + 1), 8);
    rs.bank_ready = (int64_t *)calloc((size_t)cfg[CFG_NUM_BANKS], 8);
    rs.mshr_ring = (int64_t *)calloc((size_t)rs.mshr_len, 8);
    ruu_ring = (int64_t *)calloc((size_t)ruu_size, 8);
    lsq_ring = (int64_t *)calloc((size_t)lsq_size, 8);
    sb_ring = (int64_t *)calloc((size_t)(sb_size + 1), 8);
    if (!rs.acc_data || !rs.acc_verify || !rs.miss_data
            || !rs.miss_verify || !rs.completions || !rs.fetch_times
            || !rs.bank_ready || !rs.mshr_ring
            || !ruu_ring || !lsq_ring || !sb_ring)
        goto done;
    if (cal_init(&cal, 1 << 14) != 0)
        goto done;

    for (index = 0; index < n; index++) {
        int64_t op = ops[index];
        int64_t dest = dests[index];
        int64_t mispredict = mispredicts[index];
        int64_t base, dispatch, slot_free, ready, count, issue;
        int64_t verify_needed, store_frontier, slice_frontier = 0;
        int64_t complete, commit, s;
        int is_mem;

        if (index == warmup && warmup)
            warmup_commit = last_commit;

        /* ---------------- fetch ---------------------------------- */
        base = fetch_frontier;
        if (redirect_time > base)
            base = redirect_time;
        if (base != fetch_cycle) {
            fetch_cycle = base;
            fetched_in_cycle = 0;
        } else if (fetched_in_cycle >= fetch_width) {
            fetch_cycle += 1;
            fetched_in_cycle = 0;
            base = fetch_cycle;
        }
        fetched_in_cycle += 1;

        if (if_flags[index]) {
            int64_t gate;
            if (precise_fetch)
                gate = ctrl_frontier;
            else if (gate_fetch)
                gate = frontier(&rs, base);
            else
                gate = 0;
            mem_access(&rs, base, gate, l1i_latency,
                       &iline_data, &iline_verify);
        }
        if (iline_data > base) {
            base = iline_data;
            fetch_cycle = base;
            fetched_in_cycle = 1;
        }
        fetch_frontier = base;

        /* ---------------- dispatch ------------------------------- */
        dispatch = base + depth;
        slot_free = ruu_ring[ruu_index];
        if (slot_free > dispatch)
            dispatch = slot_free;
        is_mem = (op == OP_LOAD || op == OP_STORE);
        if (is_mem) {
            int64_t lsq_free = lsq_ring[lsq_index];
            if (lsq_free > dispatch)
                dispatch = lsq_free;
        }

        /* ---------------- issue ---------------------------------- */
        ready = dispatch;
        for (s = src_off[index]; s < src_off[index + 1]; s++) {
            int64_t t = reg_ready[src_flat[s]];
            if (t > ready)
                ready = t;
        }
        if (gate_issue && iline_verify > ready) {
            auth_issue_stall += iline_verify - ready;
            ready = iline_verify;
        }
        count = cal_get(&cal, ready);
        while (count >= issue_width) {
            ready += 1;
            count = cal_get(&cal, ready);
        }
        if (cal_put(&cal, ready, count + 1) != 0)
            goto done;
        issue = ready;

        /* ---------------- execute -------------------------------- */
        verify_needed = gate_commit ? iline_verify : 0;
        store_frontier = 0;
        if (precise_fetch) {
            slice_frontier = ctrl_frontier;
            if (iline_verify > slice_frontier)
                slice_frontier = iline_verify;
            for (s = src_off[index]; s < src_off[index + 1]; s++) {
                int64_t f = reg_frontier[src_flat[s]];
                if (f > slice_frontier)
                    slice_frontier = f;
            }
        }
        if (op == OP_LOAD) {
            int64_t gate, data_time, verify_time, value_time;
            if (precise_fetch)
                gate = slice_frontier;
            else if (gate_fetch)
                gate = drain_fetch ? frontier(&rs, issue + 1)
                                   : frontier(&rs, issue);
            else
                gate = 0;
            mem_access(&rs, issue + 1, gate, l1d_latency,
                       &data_time, &verify_time);
            value_time = gate_issue ? verify_time : data_time;
            if (gate_issue && value_time > data_time)
                auth_issue_stall += value_time - data_time;
            complete = value_time;
            if (dest >= 0) {
                reg_ready[dest] = value_time;
                if (precise_fetch) {
                    int64_t f = slice_frontier;
                    if (verify_time > f)
                        f = verify_time;
                    reg_frontier[dest] = f;
                }
            }
            if (gate_commit && verify_time > verify_needed)
                verify_needed = verify_time;
        } else if (op == OP_STORE) {
            complete = issue + 1;
            if (gate_store)
                store_frontier = frontier(&rs, issue);
        } else {
            complete = issue + cfg[CFG_UNIT_LAT0 + op];
            if (dest >= 0) {
                reg_ready[dest] = complete;
                if (precise_fetch)
                    reg_frontier[dest] = slice_frontier;
            }
        }

        if (precise_fetch && (op == OP_BRANCH || op == OP_JUMP)
                && slice_frontier > ctrl_frontier)
            ctrl_frontier = slice_frontier;

        if (mispredict) {
            int64_t resolve = complete + penalty;
            branch_mispredicts++;
            if (resolve > redirect_time)
                redirect_time = resolve;
        }

        /* ---------------- commit --------------------------------- */
        commit = complete + 1;
        if (last_commit > commit)
            commit = last_commit;
        if (verify_needed > commit) {
            auth_commit_stall += verify_needed - commit;
            commit = verify_needed;
        }
        if (op == OP_STORE) {
            int64_t sb_free = sb_ring[sb_index];
            if (sb_free > commit) {
                sb_full_stall++;
                commit = sb_free;
            }
        }
        if (commit != commit_cycle) {
            commit_cycle = commit;
            committed_in_cycle = 0;
        } else if (committed_in_cycle >= commit_width) {
            commit_cycle += 1;
            committed_in_cycle = 0;
            commit = commit_cycle;
        }
        committed_in_cycle += 1;
        last_commit = commit;

        if (op == OP_STORE) {
            int64_t release, gate, dd, dv;
            if (gate_store)
                release = commit > store_frontier ? commit : store_frontier;
            else
                release = commit;
            if (precise_fetch)
                gate = slice_frontier;
            else if (gate_fetch)
                gate = drain_fetch ? frontier(&rs, release)
                                   : frontier(&rs, issue);
            else
                gate = 0;
            mem_access(&rs, release, gate, l1d_latency, &dd, &dv);
            sb_ring[sb_index] = release;
            sb_index++;
            if (sb_index == sb_size)
                sb_index = 0;
        }

        ruu_ring[ruu_index] = commit;
        ruu_index++;
        if (ruu_index == ruu_size)
            ruu_index = 0;
        if (is_mem) {
            lsq_ring[lsq_index] = commit;
            lsq_index++;
            if (lsq_index == lsq_size)
                lsq_index = 0;
        }

        if ((index & prune_mask) == prune_mask
                && cal_rebuild(&cal, fetch_frontier + depth) != 0)
            goto done;
    }

    out[OUT_LAST_COMMIT] = last_commit;
    out[OUT_WARMUP_COMMIT] = warmup_commit;
    out[OUT_WAIT_CYCLES] = rs.wait_cycles;
    out[OUT_PAD_HIDDEN] = rs.pad_hidden;
    out[OUT_PAD_EXPOSED] = rs.pad_exposed;
    out[OUT_QUEUE_FULL] = rs.queue_full;
    out[OUT_MSHR_STALLS] = rs.mshr_stalls;
    out[OUT_AUTH_COMMIT_STALL] = auth_commit_stall;
    out[OUT_AUTH_ISSUE_STALL] = auth_issue_stall;
    out[OUT_SB_FULL_STALL] = sb_full_stall;
    out[OUT_BRANCH_MISPRED] = branch_mispredicts;
    out[OUT_N_COMPLETIONS] = rs.n_completions;
    rc = 0;

done:
    free(rs.acc_data); free(rs.acc_verify);
    free(rs.miss_data); free(rs.miss_verify);
    free(rs.completions); free(rs.fetch_times);
    free(rs.bank_ready); free(rs.mshr_ring);
    free(ruu_ring); free(lsq_ring); free(sb_ring);
    cal_free(&cal);
    return rc;
}
"""

_lib = None
_lib_tried = False


def _mode():
    """``auto`` (default), ``off`` (REPRO_NATIVE=0) or ``require``."""
    raw = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    if raw in ("0", "off", "no", "false"):
        return "off"
    if raw in ("require", "force"):
        return "require"
    return "auto"


def _compiler():
    """``$CC`` as an argv prefix (it may carry flags or a wrapper)."""
    return shlex.split(os.environ.get("CC", "cc")) or ["cc"]


def _ensure_compiled():
    """Compile the kernel into the cache dir; returns the .so path."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = (os.environ.get("REPRO_NATIVE_CACHE")
             or tempfile.gettempdir())
    so_path = os.path.join(cache, "repro-kernel-%s.so" % digest)
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=cache)
    tmp_so = c_path[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        argv = _compiler() + ["-O2", "-shared", "-fPIC", "-o", tmp_so,
                              c_path]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError("%s exited %d: %s" % (
                shlex.join(argv), done.returncode, done.stderr.strip()))
        os.replace(tmp_so, so_path)  # atomic: racing workers both win
    finally:
        for leftover in (c_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass
    return so_path


def _load():
    """The loaded kernel, or None when off/unavailable (memoised)."""
    global _lib, _lib_tried
    if _lib_tried:
        return _lib
    _lib_tried = True
    if _mode() == "off":
        return None
    try:
        lib = ctypes.CDLL(_ensure_compiled())
        fn = lib.repro_replay
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_void_p] * 21
        _lib = lib
    except Exception as exc:
        if _mode() == "require":
            raise RuntimeError(
                "REPRO_NATIVE=require but the native kernel could not be "
                "compiled/loaded (is a C compiler installed?)"
            ) from exc
    return _lib


def native_available():
    """True when the compiled kernel is (or can be made) loadable."""
    return _load() is not None


def reset():
    """Forget the memoised load state (tests toggle REPRO_NATIVE)."""
    global _lib, _lib_tried
    _lib = None
    _lib_tried = False


def _addr(column):
    """Address of one int64 column: an ``array('q')``, or a zero-copy
    view the artifact store mapped copy-on-write (so it is writable)."""
    if isinstance(column, array):
        return column.buffer_info()[0]
    if not column.nbytes:
        return 0
    return ctypes.addressof(ctypes.c_char.from_buffer(column))


def trace_columns(packed):
    """The trace-derived kernel inputs of one unit, as int64 arrays.

    ``(ops, dests, src_off, src_flat, mispredicts)``, with the source
    registers flattened CSR-style.  Built once per unit and handed to
    every :func:`replay` of every prepass variant; the caller drops
    them when the unit ends.
    """
    srcss = packed.srcss
    return (_int64(packed.ops), _int64(packed.dests),
            _int64(accumulate(map(len, srcss), initial=0)),
            _int64(chain.from_iterable(srcss)),
            _int64(packed.mispredicts))


def _int64(values):
    """``values`` as an int64 column: a store-loaded int64 view as it
    is, anything else packed in one C-level pass."""
    if isinstance(values, memoryview):
        return values
    if not isinstance(values, tuple):
        values = tuple(values)
    return array("q", struct.pack("%dq" % len(values), *values))


def _pack_cfg(prepass, c):
    """The scalar config block (CFG_* layout in the C source)."""
    cfg = array("q", bytes(8 * _CFG_SLOTS))
    values = [
        prepass.num_instructions, prepass.warmup,
        prepass.n_accesses, prepass.n_misses,
        int(c["gate_issue"]), int(c["gate_commit"]),
        int(c["gate_fetch"]), int(c["gate_store"]),
        int(c["precise_fetch"]), int(c["drain_fetch"]),
        int(c["auth_enabled"]),
        c["dur_line"], c["dur_meta"],
        c["ras"][0], c["ras"][1], c["ras"][2],
        c["mac_latency"], c["mac_throughput"], c["queue_depth"],
        c["decrypt_latency"], c["xor_latency"],
        c["l1i_latency"], c["l1d_latency"], c["l2_latency"],
        c["num_banks"], c["mshr_entries"],
        c["fetch_width"], c["issue_width"], c["commit_width"],
        c["ruu_size"], c["lsq_size"], c["depth"], c["penalty"],
        c["sb_size"],
    ] + list(c["unit_latency"]) + [
        c["prune_interval"],
        c["dur_entry"], c["remap_latency"], c["hash_latency"],
        c["backing_latency"],
    ]
    for i, value in enumerate(values):
        cfg[i] = value
    return cfg


def replay(prepass, c, columns=None):
    """Run the native kernel; returns the output payload dict.

    ``c`` is the constants dict from
    :func:`repro.cpu.shared_kernel._policy_constants` and ``columns``
    the unit's :func:`trace_columns` (built here when None).  Raises
    ``RuntimeError`` when the kernel is off or unavailable and
    ``MemoryError`` when the kernel cannot allocate its working state.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError(
            "the native replay kernel is unavailable (REPRO_NATIVE=0, or "
            "no working C compiler); use the legacy simulator")
    if columns is None:
        columns = trace_columns(prepass.packed)
    cfg = _pack_cfg(prepass, c)
    n_misses = prepass.n_misses
    lat_out = array("q", bytes(8 * (n_misses + 1)))
    gap_out = array("q", bytes(8 * (n_misses + 1)))
    out = array("q", bytes(8 * _OUT_SLOTS))
    rc = lib.repro_replay(
        _addr(cfg),
        *[_addr(column) for column in columns],
        *[_addr(getattr(prepass, name)) for name in COLUMNS],
        _addr(lat_out), _addr(gap_out), _addr(out))
    if rc != 0:
        raise MemoryError("native replay kernel could not allocate its "
                          "working state (rc=%d)" % rc)
    read_lat_buckets = {}
    for m in range(n_misses):
        lat = lat_out[m]
        read_lat_buckets[lat] = read_lat_buckets.get(lat, 0) + 1
    gap_buckets = {}
    if c["auth_enabled"]:
        for m in range(out[11]):
            gap = gap_out[m]
            gap_buckets[gap] = gap_buckets.get(gap, 0) + 1
    return {
        "cycles": out[0] - out[1],
        "wait_cycles": out[2],
        "read_lat_buckets": read_lat_buckets,
        "gap_buckets": gap_buckets,
        "pad_hidden": out[3],
        "pad_exposed": out[4],
        "queue_full": out[5],
        "mshr_stalls": out[6],
        "auth_requests": out[11],
        "auth_commit_stall": out[7],
        "auth_issue_stall": out[8],
        "sb_full_stall": out[9],
        "branch_mispredicts": out[10],
    }
