"""Policy interface: where authentication gates the pipeline.

Each policy is a *declarative* set of gating terms (:class:`GatingTerms`):
which pipeline points verification blocks, how bus fetches are gated, and
whether the address space is obfuscated.  The two timing models -- the
compiled replay kernel (:mod:`repro.cpu.native`, driven by
:mod:`repro.cpu.shared_kernel`) and the legacy per-policy core
(:mod:`repro.cpu.core`), which is the reference and the fallback --
both consume the same terms, so a policy is one frozen record -- there
is no per-policy timing code left to drift.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SecurityProperties:
    """The four columns of the paper's Table 2."""

    prevents_fetch_side_channel: bool
    precise_exception: bool
    authenticated_memory_state: bool
    authenticated_processor_state: bool


@dataclass(frozen=True)
class GatingTerms:
    """The complete declarative timing contract of one policy.

    Every field is consumed by the shared timestamp kernel; a policy
    subclass declares exactly one of these and nothing else (plus its
    security matrix row).  The legacy class attributes
    (``policy.gate_issue`` etc.) are unpacked from the terms at class
    creation, so all historical call sites keep working.
    """

    #: verification engine active at all (False only for the baseline)
    authentication: bool = False
    #: operands/instructions usable only once verified (authen-then-issue)
    gate_issue: bool = False
    #: instructions commit only once verified (authen-then-commit)
    gate_commit: bool = False
    #: stores leave the store buffer only once verified (authen-then-write)
    gate_store: bool = False
    #: bus fetches gated on the authentication frontier (authen-then-fetch)
    gate_fetch: bool = False
    #: fetch gating granularity: "tag" (LastRequest register), "drain"
    #: (whole queue), or "precise" (exact data/control dependency slice)
    fetch_mode: str = "tag"
    #: address obfuscation layer enabled
    obfuscation: bool = False
    #: multiplier on the functional machine's verification window (lazy
    #: authentication batches verification over a much larger window)
    window_scale: int = 1


class AuthPolicy:
    """Base authentication control point.

    Subclasses declare their :class:`GatingTerms`; the base class turns
    the terms into the decision methods the timing core consults.  The
    base class itself is the *decrypt-only baseline*: verification never
    blocks anything (and is not even performed -- ``authentication`` is
    False).
    """

    name = "decrypt-only"
    terms = GatingTerms()

    # Legacy flat attributes, unpacked from ``terms`` (see
    # ``__init_subclass__``); kept so policy consumers predating the
    # declarative refactor -- and pickled configs -- read the same shape.
    authentication = False
    gate_issue = False
    gate_commit = False
    gate_store = False
    gate_fetch = False
    fetch_mode = "tag"
    obfuscation = False
    window_scale = 1

    security = SecurityProperties(
        prevents_fetch_side_channel=False,
        precise_exception=False,
        authenticated_memory_state=False,
        authenticated_processor_state=False,
    )

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        terms = cls.__dict__.get("terms")
        if terms is not None:
            cls.authentication = terms.authentication
            cls.gate_issue = terms.gate_issue
            cls.gate_commit = terms.gate_commit
            cls.gate_store = terms.gate_store
            cls.gate_fetch = terms.gate_fetch
            cls.fetch_mode = terms.fetch_mode
            cls.obfuscation = terms.obfuscation
            cls.window_scale = terms.window_scale

    # ---- decision points consulted by the timing core -----------------

    def value_ready(self, data_time, verify_time):
        """When a fetched value may feed dependent instructions."""
        return verify_time if self.gate_issue else data_time

    def commit_ready(self, complete_time, verify_time):
        """When a finished instruction may commit."""
        if self.gate_commit or self.gate_issue:
            # authen-then-issue subsumes commit gating: nothing unverified
            # ever issued, so the max() here is a no-op for it, but keeping
            # the bound makes the invariant explicit.
            return max(complete_time, verify_time)
        return complete_time

    def store_release(self, commit_time, auth_frontier_time):
        """When a committed store may drain to the memory system."""
        if self.gate_store:
            return max(commit_time, auth_frontier_time)
        return commit_time

    def fetch_gate_time(self, engine, issue_time, fetch_time):
        """Earliest cycle a new external fetch may be granted.

        The tag variant (Section 4.2.4) waits on the LastRequest register
        as read at the *triggering instruction's issue*; the drain variant
        waits for every request outstanding at fetch-creation time.  The
        precise variant's slice frontier is computed by the core itself,
        so this method is not consulted for it.
        """
        if not self.gate_fetch:
            return 0
        if self.fetch_mode == "drain":
            return engine.auth_frontier(fetch_time)
        return engine.auth_frontier(issue_time)

    # ---- functional-machine semantics ----------------------------------

    @property
    def speculation_window(self):
        """May unverified instructions execute speculatively at all?

        True for every policy except authen-then-issue: that is precisely
        the decryption/authentication disassociation under study.
        """
        return not self.gate_issue

    def __repr__(self):
        return "<policy %s>" % self.name


class DecryptOnlyPolicy(AuthPolicy):
    """Baseline: decryption only, no integrity verification (Figure 7's
    normalisation baseline)."""

    name = "decrypt-only"
    terms = GatingTerms()


class AuthenThenIssuePolicy(AuthPolicy):
    """Section 4.2.1: conservative; verification is on the critical path."""

    name = "authen-then-issue"
    terms = GatingTerms(authentication=True, gate_issue=True)
    security = SecurityProperties(True, True, True, True)


class AuthenThenWritePolicy(AuthPolicy):
    """Section 4.2.2: only memory state must derive from verified inputs."""

    name = "authen-then-write"
    terms = GatingTerms(authentication=True, gate_store=True)
    security = SecurityProperties(False, False, True, False)


class AuthenThenCommitPolicy(AuthPolicy):
    """Section 4.2.3: speculative issue, verified commit, precise
    authentication exceptions."""

    name = "authen-then-commit"
    terms = GatingTerms(authentication=True, gate_commit=True)
    security = SecurityProperties(False, True, True, True)


class AuthenThenFetchPolicy(AuthPolicy):
    """Section 4.2.4 (LastRequest-tag variant): a bus fetch waits for the
    authentication frontier recorded at its triggering instruction."""

    name = "authen-then-fetch"
    terms = GatingTerms(authentication=True, gate_fetch=True)
    # Alone it neither commits-verified nor write-gates; the paper pairs
    # it with authen-then-commit for the full property set.
    security = SecurityProperties(True, False, False, False)


class DrainAuthenThenFetchPolicy(AuthenThenFetchPolicy):
    """Section 4.2.4 drain variant: a new fetch waits for every request
    outstanding at *fetch-creation* time to drain (more conservative than
    the tag variant, which snapshots at the trigger's issue)."""

    name = "authen-then-fetch-drain"
    terms = GatingTerms(authentication=True, gate_fetch=True,
                        fetch_mode="drain")


class PreciseAuthenThenFetchPolicy(AuthenThenFetchPolicy):
    """Section 4.2.4's *precise* implementation: a fetch waits only for
    verification of the exact program slice it depends on (the fetch
    instruction, its address operands, and their control/data ancestry).
    The paper deems the required dependency tracking "too complex and
    expensive" in hardware; this variant quantifies what the tag/drain
    simplifications give up.

    The timing core computes the slice frontier itself (per-register
    verification timestamps); ``fetch_gate_time`` is not used."""

    name = "authen-then-fetch-precise"
    terms = GatingTerms(authentication=True, gate_fetch=True,
                        fetch_mode="precise")


class CommitPlusFetchPolicy(AuthPolicy):
    """The paper's recommended combination (Table 2 row 4)."""

    name = "commit+fetch"
    terms = GatingTerms(authentication=True, gate_commit=True,
                        gate_fetch=True)
    security = SecurityProperties(True, True, True, True)


class CommitPlusObfuscationPolicy(AuthPolicy):
    """Authen-then-commit plus address obfuscation (Table 2 row 5)."""

    name = "commit+obfuscation"
    terms = GatingTerms(authentication=True, gate_commit=True,
                        obfuscation=True)
    security = SecurityProperties(True, True, True, True)


class LazyAuthPolicy(AuthPolicy):
    """Lazy authentication (Yan et al. [25], discussed in Section 6):
    verification happens in large batches over a vulnerable window; no
    pipeline gating at all.  Weaker than every scheme above."""

    name = "lazy"
    terms = GatingTerms(authentication=True, window_scale=100)
    security = SecurityProperties(False, False, False, False)
