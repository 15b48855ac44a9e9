"""The crash fuzzer: certifying commit atomicity at every crash site.

``crash_sweep_block`` executes one block with every executor config, then
for each enumerated crash site of the durable commit path
(:func:`repro.durability.enumerate_crash_sites`) commits the result onto a
fresh world with a :class:`~repro.durability.crash.CrashInjector` armed on
exactly that site, lets the simulated process die, discards every live
object except the durable medium, and drives
:func:`repro.durability.recover`.  The certified invariant is binary:

    the recovered state fingerprint equals the **pre-block** state for
    every site up to and including the torn COMMIT marker, and the
    **post-block** state for every site after it — never anything else.

MPT state roots (the paper's §6.2 criterion) are additionally checked at
the two sites bracketing the atomicity boundary
(:data:`repro.durability.ROOT_CHECK_SITES`), where a torn hybrid would
hide if fingerprints ever collided.

``pipelined_crash_sweep_block`` extends the sweep to the multi-block
pipeline's hazard: block N+1 executes *speculatively* against N's
uncommitted overlay while N's durable commit is still in flight.  A crash
anywhere in N's commit must never let that speculative state reach
recovery — the recovered world is exactly pre-N or post-N, and a restarted
process resumes correctly from it: discarding the speculation and
re-executing both blocks when N was lost, or salvaging the speculative
result when N's commit survived.  Either way the resumed tip (and a second
recovery from the resumed journal) must match the serial reference of
N then N+1.

``reorg_roundtrip_block`` exercises the other consumer of the journal's
undo history: it commits an ancestor plus two canonical blocks durably,
rolls the chain back to the ancestor through
:class:`~repro.durability.reorg.ReorgManager`, re-executes the same
transactions as a single fork block, and verifies — per executor — that
the post-reorg state matches a serial reference of ancestor+fork and that
recovery from the post-reorg journal reproduces it.

All of them, and the replication layer's failover sweep
(:mod:`repro.check.failover`), run on one driver: :func:`run_sweep` loops
executor configs × crash sites into one :class:`SweepReport`;
:func:`crash_at_site` is the one crash step and :func:`expect_state` the
one expected-state check.  Only the survivor step differs per sweep:
recover; recover then resume; roll back and re-fork; or promote a replica.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..concurrency import SerialExecutor
from ..durability import (
    ROOT_CHECK_SITES,
    CrashInjector,
    DurableCommitPipeline,
    MemoryMedium,
    ReorgManager,
    SimulatedCrash,
    enumerate_crash_sites,
    recover,
    site_expected_state,
)
from ..errors import DurabilityError
from ..executors import EXECUTORS, make_executor
from ..workloads import Block, Chain, copy_block
from .certify import CertificationReport, Divergence


@dataclass(slots=True, frozen=True)
class _SweepKind:
    """How one kind of sweep words its report and counts itself."""

    head: str  # formatted with the report's sizes and counters
    verdict: str  # the describe() tail when nothing diverged
    blocks_metric: str
    failed_metric: str
    counts_crashes: bool = False  # adds to crashfuzz_crashes_total


_KINDS = {
    "crash": _SweepKind(
        "crash sweep block {block_number} ({tx_count} txs, "
        "{sites} sites x {executors} executors, "
        "{crashes_injected} crashes, {recoveries} recoveries)",
        "atomic at every site",
        "crashfuzz_blocks_total",
        "crashfuzz_failed_blocks_total",
        counts_crashes=True,
    ),
    "pipeline": _SweepKind(
        "pipelined crash sweep block {block_number} "
        "({tx_count} txs, {sites} sites x {executors} executors, "
        "{crashes_injected} crashes, "
        "{speculations_discarded} speculations discarded, "
        "{speculations_salvaged} salvaged)",
        "no speculative state survived any crash",
        "crashfuzz_pipeline_blocks_total",
        "crashfuzz_failed_pipeline_blocks_total",
        counts_crashes=True,
    ),
    "reorg": _SweepKind(
        "reorg round trip block {block_number} "
        "({tx_count} txs, depth {reorg_depth}, "
        "{executors} executors, {rollbacks} rollbacks)",
        "fork state matches the serial reference",
        "crashfuzz_reorg_roundtrips_total",
        "crashfuzz_failed_reorgs_total",
    ),
    "failover": _SweepKind(
        "failover sweep block {block_number} ({tx_count} txs, "
        "{sites} sites x {executors} executors, "
        "{failovers} failovers, {stale_frames_rejected} stale "
        "frames fenced, failover {min_failover_us:.0f}-"
        "{max_failover_us:.0f}us)",
        "RPO=0 at every site",
        "replication_sweeps_total",
        "replication_failed_sweeps_total",
    ),
}


@dataclass(slots=True)
class SweepReport:
    """One sweep's outcome: executor configs × crash sites.

    ``kind`` is ``crash``, ``pipeline``, ``reorg`` or ``failover``; it
    prefixes every divergence's field (``crash:<site>``, ``reorg``, ...).
    ``counters`` holds the kind's tallies (crashes injected, recoveries,
    failovers, ...) under the names the chaos harness reports them by.
    """

    kind: str
    block_number: int
    tx_count: int
    sites: list[str] = field(default_factory=list)
    executors: list[str] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def certification(self) -> CertificationReport:
        """The sweep as a :class:`CertificationReport` (shared plumbing)."""
        return CertificationReport(
            block_number=self.block_number,
            tx_count=self.tx_count,
            executors=list(self.executors),
            divergences=list(self.divergences),
        )

    def describe(self) -> str:
        kind = _KINDS[self.kind]
        head = kind.head.format(
            block_number=self.block_number,
            tx_count=self.tx_count,
            sites=len(self.sites),
            executors=len(self.executors),
            **self.counters,
        )
        if self.ok:
            return f"{head}: {kind.verdict}"
        lines = [f"{head}: {len(self.divergences)} VIOLATIONS"]
        lines += ["  " + d.describe() for d in self.divergences]
        return "\n".join(lines)


class SweepViolation(Exception):
    """Ends one (executor, site) pair; the message is the divergence detail."""


@contextmanager
def guarded(step: str, errors=(DurabilityError,)):
    """Record a typed failure inside ``step`` as a violation, not a crash.

    :class:`DurabilityError` covers recovery and reorg-depth failures too.
    """
    try:
        yield
    except errors as exc:
        raise SweepViolation(f"{step} raised {exc}") from exc


def state_of(world, check_roots: bool) -> tuple:
    """``(fingerprint, MPT root or None)``: what the sweeps compare."""
    return world.fingerprint(), world.state_root() if check_roots else None


def crash_at_site(
    report: SweepReport,
    site: str,
    commit: Callable[[CrashInjector], object],
    step: str = "commit",
) -> None:
    """Run ``commit(crash)`` with a crash armed at ``site``.

    The simulated process death is the expected outcome.  A durability
    error instead, or a site that never fires (it silently stopped
    existing, so the sweep would certify nothing there), is a violation.
    """
    crash = CrashInjector(site)
    try:
        with guarded(step):
            commit(crash)
    except SimulatedCrash:
        pass
    if not crash.fired:
        raise SweepViolation("site never fired")
    report.counters["crashes_injected"] += 1


def expect_state(
    world,
    site: str,
    pre: tuple,
    post: tuple,
    check_roots: bool,
    wrong_state: Callable[[str, str], str],
    wrong_root: str = "MPT root differs from the {expected}-block root",
) -> str:
    """Check a survivor holds exactly the state a crash at ``site`` leaves.

    That is the pre-block state up to the torn COMMIT marker and the
    post-block state after it (``pre``/``post`` from :func:`state_of`):
    equal fingerprints, and at the boundary sites equal MPT roots.
    ``wrong_state(expected, fingerprint)`` and ``wrong_root`` word the
    violation.  Returns ``"pre"`` or ``"post"``.
    """
    expected = site_expected_state(site)
    want_fp, want_root = pre if expected == "pre" else post
    fingerprint = world.fingerprint()
    if fingerprint != want_fp:
        raise SweepViolation(wrong_state(expected, fingerprint))
    if (
        check_roots
        and site in ROOT_CHECK_SITES
        and world.state_root() != want_root
    ):
        raise SweepViolation(wrong_root.format(expected=expected))
    return expected


def run_sweep(
    report: SweepReport,
    executors: Sequence[str],
    setup: Callable[[str], Callable[[str | None], None]],
    metrics=None,
) -> SweepReport:
    """The loop every sweep shares: executor configs × ``report.sites``.

    ``setup(name)`` runs once per executor config and returns its survivor
    step; the step runs once per crash site and raises
    :class:`SweepViolation` to record a divergence there.  A sweep with no
    crash sites (the reorg round trip) runs the step once, with ``None``.
    """
    for name in executors:
        report.executors.append(name)
        survive = setup(name)
        for site in report.sites or [None]:
            try:
                survive(site)
            except SweepViolation as violation:
                where = report.kind if site is None else f"{report.kind}:{site}"
                report.divergences.append(
                    Divergence(name, where, str(violation))
                )

    if metrics is not None:
        kind = _KINDS[report.kind]
        metrics.counter(kind.blocks_metric).inc()
        if not report.ok:
            metrics.counter(kind.failed_metric).inc()
        if kind.counts_crashes:
            metrics.counter("crashfuzz_crashes_total").inc(
                report.counters["crashes_injected"]
            )
    return report


def _crash_and_recover(
    report: SweepReport,
    chain: Chain,
    site: str,
    block_number: int,
    result,
    checkpoint_interval: int,
    metrics,
):
    """Commit ``result`` onto a fresh world, die at ``site``, recover.

    Returns the durable medium (all that survived the crash) and the
    recovery result.
    """
    medium = MemoryMedium()
    crash_at_site(
        report,
        site,
        lambda crash: DurableCommitPipeline(
            medium,
            checkpoint_interval=checkpoint_interval,
            crash=crash,
            metrics=metrics,
        ).commit(chain.fresh_world(), block_number, result),
    )
    with guarded("recovery"):
        recovered = recover(medium, chain.fresh_world, metrics=metrics)
    report.counters["recoveries"] += 1
    return medium, recovered


def crash_sweep_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = EXECUTORS,
    checkpoint_interval: int = 0,
    check_roots: bool = True,
    metrics=None,
) -> SweepReport:
    """Certify commit atomicity of ``block`` at every crash site.

    Each executor config executes the block once (deterministically); its
    :class:`BlockResult` is then committed once per site onto a fresh
    world, crashed, and recovered.  ``checkpoint_interval=1`` makes the
    commit checkpoint, adding the snapshot crash sites to the sweep.
    ``check_roots`` upgrades the boundary sites' fingerprint comparison to
    full MPT root equality.
    """
    sites = enumerate_crash_sites(
        len(block.txs), checkpoint=checkpoint_interval == 1
    )
    report = SweepReport(
        "crash",
        block.number,
        len(block),
        sites,
        counters={
            "crash_sites": len(sites),
            "crashes_injected": 0,
            "recoveries": 0,
        },
    )
    pre = state_of(chain.fresh_world(), check_roots)

    def setup(name: str):
        result = make_executor(name, threads).execute_block(
            chain.fresh_world(), block.txs, block.env
        )
        post_world = chain.fresh_world()
        post_world.apply(result.writes)
        post = state_of(post_world, check_roots)

        def survive(site: str) -> None:
            _, recovered = _crash_and_recover(
                report,
                chain,
                site,
                block.number,
                result,
                checkpoint_interval,
                metrics,
            )
            expect_state(
                recovered.world,
                site,
                pre,
                post,
                check_roots,
                lambda expected, _: (
                    f"recovered state is neither pre- nor the expected "
                    f"{expected}-block state ({recovered.describe()})"
                ),
            )

        return survive

    return run_sweep(report, executors, setup, metrics)


# ---------------------------------------------------------------- pipeline


def pipelined_crash_sweep_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = EXECUTORS,
    check_roots: bool = True,
    metrics=None,
) -> SweepReport:
    """Certify that pipelined speculation never contaminates recovery.

    ``block`` is split (contiguously, preserving per-sender nonce order)
    into blocks N and N+1.  Per executor config: N+1's result is computed
    speculatively against N's uncommitted write overlay — the multi-block
    pipeline's overlap — and *never* committed while N's durable commit is
    crashed at every enumerated site.  For each site the certified
    invariants are:

    1. recovery lands on exactly pre-N or post-N state per
       :func:`site_expected_state` — in particular never on the
       speculative N+1 overlay;
    2. a restarted process resumes from the recovered journal — discarding
       the speculation and re-executing both blocks after a pre-marker
       crash, salvaging the speculative result after a post-marker crash —
       and its tip matches the serial reference of N then N+1;
    3. a second recovery from the resumed journal reproduces that tip.
    """
    txs = block.txs
    if len(txs) < 2:
        raise ValueError("pipelined sweep needs at least 2 transactions")
    half = len(txs) // 2
    block_n = copy_block(block.number, txs[:half], block.env)
    block_n1 = copy_block(block.number + 1, txs[half:], block.env)

    sites = enumerate_crash_sites(len(block_n.txs), checkpoint=False)
    report = SweepReport(
        "pipeline",
        block.number,
        len(block),
        sites,
        counters={
            "crash_sites": len(sites),
            "crashes_injected": 0,
            "recoveries": 0,
            "speculations_discarded": 0,
            "speculations_salvaged": 0,
        },
    )
    pre = state_of(chain.fresh_world(), check_roots)

    # Serial reference of the fully resumed chain: N then N+1.
    serial = SerialExecutor()
    ref = chain.fresh_world()
    ref.apply(serial.execute_block(ref, block_n.txs, block_n.env).writes)
    ref.apply(serial.execute_block(ref, block_n1.txs, block_n1.env).writes)
    final_fp, final_root = state_of(ref, check_roots)

    def setup(name: str):
        executor = make_executor(name, threads)
        result_n = executor.execute_block(
            chain.fresh_world(), block_n.txs, block_n.env
        )
        post_world = chain.fresh_world()
        post_world.apply(result_n.writes)
        post = state_of(post_world, check_roots)

        # The pipeline overlap: N+1 executes against N's uncommitted
        # overlay while N's durable commit is in flight.  ``spec_fp`` is
        # the contaminated state recovery must never land on.
        spec_result = executor.execute_block(
            post_world, block_n1.txs, block_n1.env
        )
        spec_world = chain.fresh_world()
        spec_world.apply(result_n.writes)
        spec_world.apply(spec_result.writes)
        spec_fp = spec_world.fingerprint()

        def survive(site: str) -> None:
            medium, recovered = _crash_and_recover(
                report, chain, site, block_n.number, result_n, 0, metrics
            )
            expected = expect_state(
                recovered.world,
                site,
                pre,
                post,
                check_roots,
                lambda expected, fingerprint: (
                    "speculative N+1 state leaked into recovery"
                    if fingerprint == spec_fp
                    else f"recovered state is not the expected "
                    f"{expected}-block state ({recovered.describe()})"
                ),
            )

            # Resume: a restarted process continues journaling over the
            # recovered (truncated-clean) medium.
            resumed = DurableCommitPipeline(medium, metrics=metrics)
            world = recovered.world
            with guarded("resume"):
                if expected == "pre":
                    # N never committed: the speculation ran against a
                    # state that no longer exists — discard and redo both.
                    redo_n = executor.execute_block(
                        world, block_n.txs, block_n.env
                    )
                    resumed.commit(world, block_n.number, redo_n)
                    redo_n1 = executor.execute_block(
                        world, block_n1.txs, block_n1.env
                    )
                    resumed.commit(world, block_n1.number, redo_n1)
                    report.counters["speculations_discarded"] += 1
                else:
                    # N's commit survived: the recovered state is exactly
                    # the overlay the speculation ran against — salvage it.
                    resumed.commit(world, block_n1.number, spec_result)
                    report.counters["speculations_salvaged"] += 1
            if world.fingerprint() != final_fp:
                raise SweepViolation(
                    "resumed tip differs from the serial N,N+1 reference"
                )
            if check_roots and world.state_root() != final_root:
                raise SweepViolation("resumed MPT root differs")
            with guarded("post-resume recovery"):
                resumed_rec = recover(
                    medium, chain.fresh_world, metrics=metrics
                )
            if resumed_rec.world.fingerprint() != final_fp:
                raise SweepViolation(
                    f"recovery from the resumed journal diverged "
                    f"({resumed_rec.describe()})"
                )

        return survive

    return run_sweep(report, executors, setup, metrics)


# ------------------------------------------------------------------- reorg


def reorg_roundtrip_block(
    chain: Chain,
    block: Block,
    threads: int = 8,
    executors: Sequence[str] = EXECUTORS,
    check_roots: bool = True,
    metrics=None,
) -> SweepReport:
    """Certify undo-preimage rollback + fork re-execution per executor.

    ``block`` is split (contiguously, preserving per-sender nonce order)
    into an ancestor block A and two canonical blocks M1, M2; the fork
    branch F carries M1+M2's transactions as one block at M1's height.
    For every executor config: commit A, M1, M2 durably; roll back to A
    (verified against a serial reference of A); execute and commit F;
    verify the final state — and a recovery from the post-reorg journal —
    against a serial reference of A+F.
    """
    txs = block.txs
    third = max(1, len(txs) // 3)
    base = block.number
    ancestor = copy_block(base, txs[:third], block.env)
    main1 = copy_block(base + 1, txs[third : 2 * third], block.env)
    main2 = copy_block(base + 2, txs[2 * third :], block.env)
    fork = copy_block(base + 1, txs[third:], block.env)

    report = SweepReport(
        "reorg",
        block.number,
        len(block),
        counters={"reorg_depth": 2, "rollbacks": 0},
    )

    # Serial references: the ancestor state (the rollback target) and the
    # ancestor+fork state (the post-reorg tip).
    serial = SerialExecutor()
    ref = chain.fresh_world()
    ref.apply(serial.execute_block(ref, ancestor.txs, ancestor.env).writes)
    ancestor_fp = ref.fingerprint()
    ref.apply(serial.execute_block(ref, fork.txs, fork.env).writes)
    fork_fp, fork_root = state_of(ref, check_roots)

    def setup(name: str):
        executor = make_executor(name, threads)

        def round_trip(_site: None) -> None:
            medium = MemoryMedium()
            pipeline = DurableCommitPipeline(medium, metrics=metrics)
            world = chain.fresh_world()
            with guarded("round trip"):
                for canonical in (ancestor, main1, main2):
                    result = executor.execute_block(
                        world, canonical.txs, canonical.env
                    )
                    pipeline.commit(world, canonical.number, result)

                manager = ReorgManager(pipeline, metrics=metrics)
                undone = manager.rollback(world, ancestor.number)
                report.counters["rollbacks"] += 1
                if undone != [main2.number, main1.number]:
                    raise SweepViolation(f"unexpected undo set {undone}")
                if world.fingerprint() != ancestor_fp:
                    raise SweepViolation(
                        "rolled-back state differs from the serial "
                        "ancestor reference"
                    )

                result = executor.execute_block(world, fork.txs, fork.env)
                pipeline.commit(world, fork.number, result)

            if world.fingerprint() != fork_fp:
                raise SweepViolation(
                    "post-reorg state differs from the serial A+F reference"
                )
            if check_roots and world.state_root() != fork_root:
                raise SweepViolation("post-reorg MPT root differs")
            with guarded("post-reorg recovery"):
                recovered = recover(medium, chain.fresh_world, metrics=metrics)
            if recovered.world.fingerprint() != fork_fp:
                raise SweepViolation(
                    f"recovery from the post-reorg journal diverged "
                    f"({recovered.describe()})"
                )

        return round_trip

    return run_sweep(report, executors, setup, metrics)
