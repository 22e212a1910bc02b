"""The secure-memory engine: Figure 5's crypto pipeline, assembled.

Sits between the L2 cache and the memory controller.  On every L2 miss it
produces a :class:`ProtectedFetch` carrying the two timestamps the
authentication control points gate on:

- ``data_time`` -- when decrypted data is available to the pipeline
  (critical word, counter-mode pad overlap, counter-cache effects);
- ``verify_time`` -- when the line's integrity verification completes
  (whole line + MAC on-chip, optional hash-tree ancestors, in-order
  authentication queue);

plus the authentication-queue ``tag`` used by authen-then-write and
authen-then-fetch.
"""

from repro.config import SecureConfig
from repro.obs.events import (
    DECRYPT_DONE,
    LANE_DECRYPT,
    LANE_GAP,
    LANE_VERIFY,
    VERIFY_DONE,
    VERIFY_WINDOW,
)
from repro.secure.auth_queue import AuthQueue
from repro.secure.counter_cache import CounterCache
from repro.secure.decryption import DecryptionEngine
from repro.secure.hash_tree import HashTreeTiming
from repro.secure.metadata import MetadataLayout
from repro.secure.remap import AddressObfuscator


class ProtectedFetch:
    """Timing summary of one protected line fetch."""

    __slots__ = ("addr", "tag", "data_time", "verify_time", "mem_done")

    def __init__(self, addr, tag, data_time, verify_time, mem_done):
        self.addr = addr
        self.tag = tag
        self.data_time = data_time
        self.verify_time = verify_time
        self.mem_done = mem_done

    @property
    def gap(self):
        """The decrypt-to-verify window this fetch exposes."""
        return self.verify_time - self.data_time


class SecureMemoryEngine:
    """Timing model of the secure processor's memory crypto engine."""

    def __init__(self, config=None, layout=None, controller=None, rng=None,
                 stats=None, authentication_enabled=True, tracer=None):
        if controller is None:
            raise ValueError("a MemoryController is required")
        self.config = config or SecureConfig()
        self.layout = layout or MetadataLayout(
            counter_bytes=self.config.counter_bytes,
            mac_bits=self.config.mac_bits,
        )
        self.controller = controller
        self.stats = stats
        self.tracer = tracer
        self.authentication_enabled = authentication_enabled
        # MACs ride along with each line only when verification is on.
        controller.mac_rider_bytes = (
            self.config.mac_bits // 8 if authentication_enabled else 0
        )

        self.decrypt = DecryptionEngine(self.config.decrypt_latency,
                                        stats=stats)
        self.counter_cache = CounterCache(self.config.counter_cache_bytes,
                                          stats=stats)
        # Deterministic LCG deciding counter-prediction outcomes, so runs
        # are reproducible without threading an RNG through the hierarchy.
        self._predict_state = 0x2545F4914F6CDD1D
        self._predict_threshold = int(
            self.config.counter_prediction_rate * (1 << 16))
        if self.config.mac_scheme == "gmac":
            mac_latency = self.config.gmac_latency
            mac_throughput = max(1, self.config.gmac_latency // 2)
        else:
            mac_latency = self.config.hmac_latency
            mac_throughput = self.config.mac_throughput
        self.auth_queue = AuthQueue(
            depth=self.config.auth_queue_depth,
            mac_latency=mac_latency,
            throughput=mac_throughput,
            stats=stats,
            tracer=tracer,
        )
        self.hash_tree = None
        if authentication_enabled and self.config.hash_tree_enabled:
            self.hash_tree = HashTreeTiming(
                self.layout,
                cache_bytes=self.config.hash_tree_cache_bytes,
                hash_latency=self.config.hmac_latency,
                stats=stats,
            )
        self.obfuscator = None
        if self.config.obfuscation_enabled:
            if rng is None:
                raise ValueError("obfuscation requires an rng stream")
            self.obfuscator = AddressObfuscator(
                self.layout,
                rng,
                cache_bytes=self.config.remap_cache_bytes,
                entry_bytes=self.config.remap_entry_bytes,
                cache_latency=self.config.remap_cache_latency,
                chunk_bytes=self.config.remap_chunk_bytes,
                shuffle_period=self.config.remap_shuffle_period,
                stats=stats,
            )
        self._minor_counts = {}
        if stats is not None:
            self._gap_hist = stats.histogram("decrypt_verify_gap")
            self._reencrypts = stats.counter("page_reencryptions")
        else:
            self._gap_hist = None
            self._reencrypts = None

    def _counter_addr(self, addr):
        """Counter location for the line containing ``addr``.

        With split counters (per-page major + per-line minors), all of a
        4KB page's counters pack into one counter block, so the counter
        cache covers 8x more data per line.
        """
        if self.config.split_counters:
            page = addr // 4096
            return self.layout.counter_base + page * self.layout.line_bytes
        return self.layout.counter_addr(self.layout.line_index(addr))

    def _bump_minor(self, addr, cycle):
        """Advance a line's minor counter; overflow re-encrypts the page.

        The re-encryption reads and rewrites every line of the page under
        the bumped major counter -- a burst of bus traffic that is the
        price split counters pay for their compact storage.
        """
        line = self.layout.line_index(addr)
        count = self._minor_counts.get(line, 0) + 1
        if count < (1 << self.config.minor_counter_bits):
            self._minor_counts[line] = count
            return
        page_base = (addr // 4096) * 4096
        lines_per_page = 4096 // self.layout.line_bytes
        first_line = self.layout.line_index(page_base)
        for index in range(lines_per_page):
            self._minor_counts[first_line + index] = 0
            self.controller.write_line(
                page_base + index * self.layout.line_bytes, cycle,
                kind="reencrypt")
        if self._reencrypts is not None:
            self._reencrypts.add()

    def _predict(self):
        """Advance the prediction LCG; True on a successful prediction."""
        self._predict_state = (
            self._predict_state * 6364136223846793005 + 1442695040888963407
        ) & (2**64 - 1)
        return (self._predict_state >> 33) & 0xFFFF < self._predict_threshold

    def _trace_fetch(self, addr, tag, data_time, verify_time):
        """Emit the decrypt/verify events of one protected fetch."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.emit(DECRYPT_DONE, LANE_DECRYPT, data_time, addr=addr)
        if tag < 0:
            return
        tracer.emit(VERIFY_DONE, LANE_VERIFY, verify_time, addr=addr,
                    tag=tag, gap=verify_time - data_time)
        if verify_time > data_time:
            tracer.emit(VERIFY_WINDOW, LANE_GAP, data_time,
                        dur=verify_time - data_time, addr=addr, tag=tag)

    @property
    def last_request(self):
        """The LastRequest register (Section 4.1)."""
        return self.auth_queue.last_request

    def auth_completion(self, tag):
        """Completion cycle of authentication request ``tag``."""
        return self.auth_queue.completion_time(tag)

    def auth_frontier(self, cycle):
        """Completion time of the LastRequest register as read at ``cycle``
        (the tag an instruction issuing then would record)."""
        if not self.authentication_enabled:
            return 0
        return self.auth_queue.frontier_completion(cycle)

    def fetch_line(self, addr, cycle, gate_time=0):
        """Fetch one protected line from external memory.

        ``gate_time`` is the earliest cycle any resulting bus traffic may
        be granted -- this is how authen-then-fetch stalls the fetch until
        the authentication frontier it depends on has drained.
        """
        issue = max(cycle, gate_time)

        if self.config.encryption_mode == "cbc":
            return self._fetch_line_cbc(addr, issue)

        # Counter-mode pad: starts at issue on a counter-cache hit or a
        # successful counter prediction ([19]); a mispredicted miss waits
        # for the counter block to arrive from memory.
        counter_addr = self._counter_addr(addr)
        if self.counter_cache.lookup_counter(counter_addr):
            pad_start = issue
        elif self._predict():
            pad_start = issue
        else:
            meta = self.controller.fetch_metadata(
                counter_addr, issue, self.layout.line_bytes, kind="counter"
            )
            pad_start = meta.done_cycle

        # Address obfuscation: find the line's current physical location.
        target = addr
        fetch_ready = issue
        if self.obfuscator is not None:
            target, fetch_ready = self.obfuscator.resolve(
                addr, issue, self.controller
            )
            fetch_ready = max(fetch_ready, issue)

        access = self.controller.fetch_line(target, fetch_ready)
        # Table 1 accounting: decrypted data is charged from whole-line
        # fetch completion (pads cover the full line), so the decrypt-to-
        # verify gap is exactly the MAC latency plus queueing.
        data_time = self.decrypt.data_ready(pad_start, access.done_cycle)

        if not self.authentication_enabled:
            self._trace_fetch(addr, -1, data_time, data_time)
            return ProtectedFetch(addr, -1, data_time, data_time,
                                  access.done_cycle)

        # Verification needs the whole line and its MAC on-chip, plus any
        # uncached hash-tree ancestors.
        verify_ready = access.done_cycle
        extra = 0
        if self.hash_tree is not None:
            nodes_ready, extra = self.hash_tree.verification_extra(
                addr, verify_ready, self.controller
            )
            verify_ready = max(verify_ready, nodes_ready)
        # The LastRequest register bumps when the fetched block arrives
        # on-chip (a block can only be queued for verification once its
        # ciphertext is present).  An instruction issuing at time T can
        # only depend on blocks that arrived before T, so the frontier
        # indexed by arrival time is exactly the set authen-then-fetch
        # and authen-then-write must wait on.
        tag, verify_time = self.auth_queue.enqueue(
            verify_ready, extra, fetch_time=access.done_cycle)
        if self._gap_hist is not None:
            self._gap_hist.add(max(0, verify_time - data_time))
        self._trace_fetch(addr, tag, data_time, verify_time)
        return ProtectedFetch(addr, tag, data_time, verify_time,
                              access.done_cycle)

    def _fetch_line_cbc(self, addr, issue):
        """Table 1's second row: CBC decryption is serial per 128-bit
        chunk, and the CBC-MAC finishes with the last chunk -- no
        decrypt-to-verify gap, but a far later data time."""
        target = addr
        fetch_ready = issue
        if self.obfuscator is not None:
            target, fetch_ready = self.obfuscator.resolve(
                addr, issue, self.controller)
            fetch_ready = max(fetch_ready, issue)
        access = self.controller.fetch_line(target, fetch_ready)
        chunks = self.layout.line_bytes // 16
        decrypt = self.config.decrypt_latency
        # A consumer's word sits in a uniformly distributed chunk; charge
        # the mean serial-decryption position.
        data_time = access.done_cycle + decrypt * ((chunks + 1) // 2)
        full_line = access.done_cycle + decrypt * chunks
        if not self.authentication_enabled:
            self._trace_fetch(addr, -1, data_time, data_time)
            return ProtectedFetch(addr, -1, data_time, data_time,
                                  access.done_cycle)
        verify_ready = full_line
        extra = 0
        if self.hash_tree is not None:
            nodes_ready, extra = self.hash_tree.verification_extra(
                addr, verify_ready, self.controller)
            verify_ready = max(verify_ready, nodes_ready)
        tag, verify_time = self.auth_queue.enqueue(
            verify_ready, extra, fetch_time=access.done_cycle)
        if self._gap_hist is not None:
            self._gap_hist.add(max(0, verify_time - data_time))
        self._trace_fetch(addr, tag, data_time, verify_time)
        return ProtectedFetch(addr, tag, data_time, verify_time,
                              access.done_cycle)

    def write_line(self, addr, cycle):
        """Retire one dirty-line writeback through the crypto engine.

        Bumps the line's counter (re-encryption), recomputes its MAC
        (pipelined, off the critical path), updates hash-tree path nodes,
        and re-shuffles the line under address obfuscation.
        """
        self.counter_cache.bump(self._counter_addr(addr))
        if self.config.split_counters:
            self._bump_minor(addr, cycle)
        if self.hash_tree is not None:
            self.hash_tree.touch_for_update(addr)
        if self.obfuscator is not None:
            self.obfuscator.reshuffle_on_writeback(addr, cycle,
                                                   self.controller)
        else:
            self.controller.post_write(addr, cycle)
