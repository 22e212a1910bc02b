"""Differential equivalence suite for the shared timestamp kernel.

The merge gate of the decode-once/evaluate-many pipeline: every
registered policy, replayed by the compiled kernel from the structural
prepass of its variant, must be *bit-identical* -- cycles, every
StatGroup counter, the miss summary -- to the legacy per-policy
simulator on the same trace, over every configuration the prepass
walks (hash trees, address obfuscation, split counters).  Without the
kernel (no C compiler, or ``REPRO_NATIVE=0``) the replay tests skip and
the legacy model serves every member instead.
"""

import shutil
from array import array
from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.cpu import native
from repro.cpu.prepass import COLUMNS, build_prepass, structural_variant
from repro.cpu.shared_kernel import _policy_constants, replay_policy
from repro.exec import MultiPolicySimJob, SerialExecutor, TraceCache
from repro.exec.cache import cached_trace
from repro.exec.chaos import result_digest
from repro.exec.executor import kernel_fallback, uses_kernel
from repro.obs import PhaseProfiler
from repro.policies import available_policies, make_policy
from repro.sim.runner import build_simulator

needs_kernel = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler / native kernel disabled")

BENCHMARKS = ("mcf", "swim")
NUM_INSTRUCTIONS = 1200
WARMUP = 400

_BASE = SimConfig()
_TREE = dict(hash_tree_enabled=True, hash_tree_cache_bytes=1024)
# A 1 KB re-map cache misses often and a shuffle period of 2 re-shuffles
# a chunk on every second writeback; the 8 KB L2 makes the writebacks.
_REMAP = dict(obfuscation_enabled=True, remap_cache_bytes=1024,
              remap_shuffle_period=2)
#: The configurations beyond the default that the prepass walks.
ENVELOPE = {
    # Figure 12's machine: 256 KB L2, 8 KB tree-node cache.
    "fig12-tree": _BASE.with_l2_size(256 * 1024).with_secure(
        hash_tree_enabled=True, hash_tree_cache_bytes=8 * 1024),
    # A 1 KB node cache forces deep walks and L2 backing hits.
    "tree-1k": _BASE.with_secure(**_TREE),
    "obfuscation": _BASE.with_l2_size(8 * 1024).with_secure(**_REMAP),
    # One minor-counter bit: a line's second writeback re-encrypts its
    # page.
    "split-counters": _BASE.with_l2_size(8 * 1024).with_secure(
        split_counters=True, minor_counter_bits=1),
    "tree+obfuscation": _BASE.with_l2_size(8 * 1024).with_secure(
        **_TREE, **_REMAP),
    # Timing only: replays over the default configuration's prepass.
    "timing-only": replace(
        _BASE.with_secure(decrypt_latency=120, hmac_latency=100,
                          mac_scheme="gmac", mac_bits=128,
                          auth_queue_depth=4, mac_throughput=20,
                          store_buffer_entries=8),
        core=replace(_BASE.core, ruu_entries=64, issue_width=4),
        l2=replace(_BASE.l2, latency=12), mshr_entries=4,
        dram=replace(_BASE.dram, cas_bus_clocks=30, bus_width_bytes=16)),
}

_PREPASSES = {}


@pytest.fixture(scope="module")
def config():
    return _BASE


def _trace(bench):
    return cached_trace(bench, NUM_INSTRUCTIONS + WARMUP, _BASE.seed)


def _prepass(bench, config, policy):
    """The prepass ``policy`` replays over: one per (benchmark,
    structural variant), built once for the whole module."""
    variant = structural_variant(config, policy)
    key = (bench, variant)
    if key not in _PREPASSES:
        _PREPASSES[key] = build_prepass(_trace(bench), variant,
                                        warmup=WARMUP)
    return _PREPASSES[key]


@pytest.fixture(scope="module")
def prepasses(config):
    """One decoded prepass per benchmark, shared across every test."""
    plain = make_policy("decrypt-only")
    return {bench: (_trace(bench), _prepass(bench, config, plain))
            for bench in BENCHMARKS}


def _legacy(config, trace, policy_name):
    core, _hierarchy = build_simulator(config, policy_name)
    return core.run(trace, warmup=WARMUP)


def _assert_bit_identical(config, bench, policy_name):
    policy = make_policy(policy_name)
    assert kernel_fallback(config, policy) in (None, "no_kernel")
    trace = _trace(bench)
    legacy = _legacy(config, trace, policy_name)
    shared = replay_policy(_prepass(bench, config, policy), policy, config,
                           trace_name=bench)
    assert shared.cycles == legacy.cycles
    assert shared.instructions == legacy.instructions
    assert shared.stats.as_dict() == legacy.stats.as_dict()
    assert shared.miss_summary == legacy.miss_summary


class TestSharedPassEquivalence:
    """Shared-pass replay == legacy simulator, for every policy."""

    @needs_kernel
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_bit_identical_to_legacy(self, config, bench, policy_name):
        _assert_bit_identical(config, bench, policy_name)

    @needs_kernel
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("config_name", sorted(ENVELOPE))
    def test_bit_identical_across_envelope(self, config_name, bench,
                                           policy_name):
        _assert_bit_identical(ENVELOPE[config_name], bench, policy_name)

    @pytest.mark.parametrize("config_name,fired", [
        ("fig12-tree", ("tree_node_fetches",)),
        ("tree-1k", ("tree_node_fetches", "tree_backing_hits")),
        ("obfuscation", ("remap_entry_fetches", "remap_reshuffles")),
        ("split-counters", ("page_reencryptions",)),
        ("tree+obfuscation", ("tree_backing_hits", "remap_entry_fetches",
                              "remap_reshuffles")),
    ])
    def test_envelope_configs_exercise_their_mechanism(self, config_name,
                                                       fired):
        """The differential configs are not vacuous on mcf: the walks,
        fetches, re-shuffles and re-encryptions they exist for happen."""
        prepass = _prepass("mcf", ENVELOPE[config_name],
                           make_policy("authen-then-commit"))
        counts = dict(prepass.secure_stats,
                      page_reencryptions=prepass.page_reencryptions)
        for name in fired:
            assert counts[name] > 0, name
        if "tree_backing_hits" in fired:
            assert max(prepass.m_depth) >= 2

    def test_variant_keeps_only_what_the_walk_reads(self):
        """Timing-only fields collapse onto one variant; anything the
        walk reads -- geometry, TLB latency, prediction rate, the re-map
        seed while obfuscating -- keeps variants apart."""
        for name in available_policies():
            policy = make_policy(name)
            assert structural_variant(ENVELOPE["timing-only"], policy) \
                == structural_variant(_BASE, policy)
        policy = make_policy("commit+obfuscation")
        base = structural_variant(_BASE, policy)
        for changed in (_BASE.with_l2_size(128 * 1024),
                        replace(_BASE, tlb_miss_latency=40),
                        replace(_BASE, seed=7),
                        _BASE.with_secure(counter_prediction_rate=0.5),
                        _BASE.with_secure(remap_cache_bytes=1024)):
            assert structural_variant(changed, policy) != base
        # ...while a mechanism that is off ignores its parameters.
        plain = make_policy("decrypt-only")
        assert structural_variant(
            _BASE.with_secure(remap_cache_bytes=1024,
                              hash_tree_cache_bytes=1024), plain) \
            == structural_variant(_BASE, plain)

    def test_fallback_terms_are_host_and_config_only(self):
        """Every registered policy, on every configuration the prepass
        walks, stays on the kernel; only these terms leave it."""
        configs = [_BASE, *ENVELOPE.values(),
                   _BASE.with_secure(encryption_mode="cbc"),
                   replace(_BASE, prefetch_degree=2)]
        reasons = {kernel_fallback(cfg, make_policy(name))
                   for cfg in configs for name in available_policies()}
        assert reasons <= {None, "traced", "encryption_mode", "prefetch",
                           "no_kernel"}
        assert {"encryption_mode", "prefetch"} <= reasons
        for cfg in (_BASE, *ENVELOPE.values()):
            for name in available_policies():
                assert kernel_fallback(cfg, make_policy(name)) in (
                    None, "no_kernel")

    @needs_kernel
    def test_replay_refuses_a_foreign_variant(self, prepasses, config):
        """A prepass walked without the re-map layer cannot serve an
        obfuscating policy (nor a tree walk a decrypt-only run)."""
        with pytest.raises(ValueError, match="structural variant"):
            replay_policy(prepasses["mcf"][1],
                          make_policy("commit+obfuscation"), config)
        tree = ENVELOPE["tree-1k"]
        with pytest.raises(ValueError, match="structural variant"):
            replay_policy(_prepass("mcf", tree,
                                   make_policy("authen-then-commit")),
                          make_policy("decrypt-only"), tree)

    def test_default_config_inside_envelope(self, config):
        # Only the host (no compiler, REPRO_NATIVE=0) may keep the
        # default configuration off the kernel.
        assert kernel_fallback(config, make_policy("decrypt-only")) in (
            None, "no_kernel")

    @needs_kernel
    def test_prepass_reused_across_policies(self, prepasses, config):
        """One prepass serves every policy: replays do not mutate it."""
        trace, prepass = prepasses["mcf"]
        before = (list(prepass.a_pre), list(prepass.m_counter),
                  dict(prepass.miss_summary))
        for policy_name in ("decrypt-only", "authen-then-issue",
                            "authen-then-fetch-precise"):
            replay_policy(prepass, make_policy(policy_name), config)
        assert (list(prepass.a_pre), list(prepass.m_counter),
                dict(prepass.miss_summary)) == before


class TestNativeKernel:
    """The compiled kernel: build, marshalling, and its off switch."""

    @needs_kernel
    def test_replay_reads_columns_in_place(self, prepasses, config):
        """Prepass columns are int64 arrays as built, and one unit's
        trace columns serve every replay unchanged."""
        trace, prepass = prepasses["swim"]
        for name in COLUMNS:
            assert isinstance(getattr(prepass, name), array), name
        columns = native.trace_columns(trace.packed())
        before = [list(column) for column in columns]
        constants = _policy_constants(make_policy("decrypt-only"), config)
        shared = native.replay(prepass, constants, columns)
        assert native.replay(prepass, constants, columns) == shared
        assert native.replay(prepass, constants) == shared
        assert [list(column) for column in columns] == before

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
    def test_cc_with_flags_builds_kernel(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "cc -std=c99")
        monkeypatch.setenv("REPRO_NATIVE", "require")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.reset()
        try:
            assert native.native_available()
            assert list(tmp_path.glob("repro-kernel-*.so"))
        finally:
            native.reset()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no cc")
    def test_require_chains_compiler_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CC", "cc -no-such-flag-xyz")
        monkeypatch.setenv("REPRO_NATIVE", "require")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        native.reset()
        try:
            with pytest.raises(RuntimeError) as info:
                native.native_available()
            assert "no-such-flag-xyz" in str(info.value.__cause__)
        finally:
            native.reset()

    def test_env_kill_switch(self, prepasses, config, monkeypatch):
        """REPRO_NATIVE=0 means no kernel: every member runs legacy."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native.reset()
        try:
            assert not native.native_available()
            for name in available_policies():
                assert not uses_kernel(config, make_policy(name))
            with pytest.raises(RuntimeError, match="REPRO_NATIVE"):
                replay_policy(prepasses["mcf"][1],
                              make_policy("decrypt-only"), config)
            group = MultiPolicySimJob(
                "mcf", ("decrypt-only", "authen-then-commit"),
                num_instructions=NUM_INSTRUCTIONS, warmup=WARMUP)
            profiler = PhaseProfiler()
            results = SerialExecutor(cache=TraceCache()).run(
                [group], profiler=profiler)
            trace = prepasses["mcf"][0]
            assert len(results) == 2
            for member, result in results.items():
                expected = _legacy(config, trace, member.policy)
                assert result_digest(result) == result_digest(expected)
            phases = profiler.as_dict()
            assert "measure" in phases
            assert "prepass" not in phases and "replay" not in phases
        finally:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
            native.reset()
