"""Differential equivalence suite for the shared timestamp kernel.

The merge gate of the decode-once/evaluate-many pipeline: every
registered policy, replayed from one structural prepass by the compiled
kernel, must be *bit-identical* -- cycles, every StatGroup counter, the
miss summary -- to the legacy per-policy simulator on the same trace.
Without the kernel (no C compiler, or ``REPRO_NATIVE=0``) the replay
tests skip and the legacy model serves every member instead.
"""

import shutil

import pytest

from repro.config import SimConfig
from repro.cpu import native
from repro.cpu.prepass import (build_prepass, policy_supported,
                               prepass_supported)
from repro.cpu.shared_kernel import _policy_constants, replay_policy
from repro.exec import MultiPolicySimJob, SerialExecutor, TraceCache
from repro.exec.cache import cached_trace
from repro.exec.chaos import result_digest
from repro.exec.executor import uses_kernel
from repro.obs import PhaseProfiler
from repro.policies import available_policies, make_policy
from repro.sim.runner import build_simulator

needs_kernel = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler / native kernel disabled")

BENCHMARKS = ("mcf", "swim")
NUM_INSTRUCTIONS = 1200
WARMUP = 400


@pytest.fixture(scope="module")
def config():
    return SimConfig()


@pytest.fixture(scope="module")
def prepasses(config):
    """One decoded prepass per benchmark, shared across every test."""
    out = {}
    for bench in BENCHMARKS:
        trace = cached_trace(bench, NUM_INSTRUCTIONS + WARMUP,
                             config.seed)
        out[bench] = (trace, build_prepass(trace, config, warmup=WARMUP))
    return out


def _legacy(config, trace, policy_name):
    core, _hierarchy = build_simulator(config, policy_name)
    return core.run(trace, warmup=WARMUP)


class TestSharedPassEquivalence:
    """Shared-pass replay == legacy simulator, for every policy."""

    @needs_kernel
    @pytest.mark.parametrize("policy_name", available_policies())
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_bit_identical_to_legacy(self, prepasses, config, bench,
                                     policy_name):
        policy = make_policy(policy_name)
        trace, prepass = prepasses[bench]
        legacy = _legacy(config, trace, policy_name)
        if not policy_supported(policy):
            # Outside the shared-pass envelope (address obfuscation);
            # the grouped pipeline falls back to the legacy simulator
            # for these members, so there is nothing to diff here.
            pytest.skip("policy outside the shared-pass envelope")
        shared = replay_policy(prepass, policy, config,
                               trace_name=bench)
        assert shared.cycles == legacy.cycles
        assert shared.instructions == legacy.instructions
        assert shared.stats.as_dict() == legacy.stats.as_dict()
        assert shared.miss_summary == legacy.miss_summary

    def test_envelope_covers_all_but_obfuscation(self):
        outside = [name for name in available_policies()
                   if not policy_supported(make_policy(name))]
        assert outside == ["commit+obfuscation"]

    def test_default_config_inside_envelope(self, config):
        assert prepass_supported(config)

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
    def test_buffers_cached_on_prepass(self, prepasses, config):
        _trace, prepass = prepasses["swim"]
        constants = _policy_constants(make_policy("decrypt-only"), config)
        native.replay(prepass, constants)
        first = prepass._native
        native.replay(prepass, constants)
        assert prepass._native is first

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
