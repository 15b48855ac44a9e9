"""The failover sweep: crash the primary at every commit crash site.

``failover_sweep`` is the replication layer's crashfuzz: for every
executor config and every enumerated crash site of the durable commit
path, a replicated cluster commits a couple of warm-up blocks, the
primary dies at exactly that site mid-commit, the heartbeat timeout
elapses, and the freshest replica is promoted.  The certified invariants,
per ``(executor, site)`` pair:

1. **RPO = 0** — the promoted world's fingerprint equals the serial
   reference of exactly the blocks whose COMMIT marker survived
   (:func:`repro.durability.site_expected_state`): pre-block state up to
   and including the torn COMMIT marker, post-block state after it.
   Never anything else, never a lost sealed block.  MPT roots are
   additionally compared at the two boundary sites.
2. **Fencing holds** — the deposed primary is resurrected as a zombie
   and commits another block onto its (finalized) feed; every surviving
   replica consumes the frames, rejects them as
   :class:`~repro.errors.StaleEpoch` (old epoch < fence), and its world
   is provably unchanged.
3. **Nothing in flight is lost** — when the crash site predates the
   COMMIT marker, the crashed block is re-ingested on the promoted
   primary (the block-level image of the facade's mempool re-queue) and
   the cluster converges to the full serial reference; survivors follow
   over the *new* feed to the same state.
4. **Failover time is bounded and accounted** — detection + catch-up +
   promotion in simulated microseconds, reported per promotion and
   aggregated.

``run_replication_scenario`` adapts the sweep plus three targeted
hazards (laggy replica, corrupted feed link, divergent replica) into the
chaos harness's :class:`~repro.check.chaos.ChaosBlockReport` shape.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from ..concurrency import SerialExecutor
from ..durability import enumerate_crash_sites
from ..errors import (
    DurabilityError,
    ReplicaDivergence,
    ReplicationError,
    StaleEpoch,
)
from ..executors import EXECUTORS
from ..replication import (
    ClusterChain,
    ClusterConfig,
    FailoverPolicy,
    ReplicaConfig,
    ReplicatedChainService,
)
from ..workloads import Block, copy_block
from .certify import CertificationReport, Divergence
from .crashfuzz import (
    SweepReport,
    SweepViolation,
    crash_at_site,
    expect_state,
    guarded,
    run_sweep,
    state_of,
)
from .fuzzer import BlockFuzzer, FuzzConfig
from .ingress import ingress_seed

# Failures a cluster step may raise that the sweep records as violations.
_CLUSTER_ERRORS = (DurabilityError, ReplicationError)


def _synthetic_hashes(block: Block) -> list[bytes]:
    """Deterministic, globally unique per-(block, index) tx hashes.

    The sweep feeds blocks straight into the service (no mempool), and
    fuzz blocks from different seeds can contain byte-identical
    transactions; synthetic hashes keep the duplicate-rejection window
    out of the experiment without weakening it on the real ingest path.
    """
    return [
        hashlib.blake2b(
            f"{block.number}:{index}".encode(), digest_size=32
        ).digest()
        for index in range(len(block.txs))
    ]


def _serial_states(chain_world, blocks, check_roots: bool):
    """Fingerprint (and optionally MPT root) after each block, serially."""
    serial = SerialExecutor()
    world = chain_world
    states = []
    for block in blocks:
        world.apply(serial.execute_block(world, block.txs, block.env).writes)
        states.append(state_of(world, check_roots))
    return states


@dataclass(slots=True)
class _Fixture:
    """One eagerly-funded chain plus pre-generated, renumbered blocks."""

    fuzzer: BlockFuzzer
    blocks: list[Block]

    def chainlike(self) -> ClusterChain:
        chain = self.fuzzer.chain
        return ClusterChain(chain.fresh_world(), chain.env)


def _fixture(seed: int, blocks: int, txs_per_block: int) -> _Fixture:
    fuzzer = BlockFuzzer(
        FuzzConfig(
            txs_per_block=txs_per_block, accounts=32, tokens=2, amm_pairs=1
        )
    )
    base = fuzzer.chain.env.number
    prepared = [
        copy_block(base + i, fuzzer.block(seed + i).txs, fuzzer.chain.env)
        for i in range(blocks)
    ]
    return _Fixture(fuzzer, prepared)


def failover_sweep(
    fuzz_seed: int = 0,
    warmup_blocks: int = 2,
    txs_per_block: int = 6,
    threads: int = 4,
    executors: Sequence[str] = EXECUTORS,
    replicas: int = 2,
    policy: FailoverPolicy | None = None,
    check_roots: bool = True,
    metrics=None,
) -> SweepReport:
    """Certify zero-loss failover at every commit crash site, per executor."""
    policy = policy or FailoverPolicy()
    fixture = _fixture(fuzz_seed, warmup_blocks + 1, txs_per_block)
    crash_block = fixture.blocks[-1]
    sites = enumerate_crash_sites(len(crash_block.txs), checkpoint=False)

    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, check_roots
    )
    report = SweepReport(
        "failover",
        crash_block.number,
        len(crash_block.txs),
        sites,
        counters={
            "crash_sites": len(sites),
            "crashes_injected": 0,
            "failovers": 0,
            "stale_frames_rejected": 0,
            "requeued_blocks": 0,
            "min_failover_us": 0.0,
            "max_failover_us": 0.0,
        },
    )

    def setup(name: str):
        config = ClusterConfig(
            executor=name, replicas=replicas, threads=threads, policy=policy
        )
        return lambda site: _fail_over_at(
            site,
            config,
            fixture,
            states,
            check_roots=check_roots,
            metrics=metrics,
            report=report,
        )

    return run_sweep(report, executors, setup, metrics)


def _fail_over_at(
    site: str,
    config: ClusterConfig,
    fixture: _Fixture,
    states: list[tuple],
    *,
    check_roots: bool,
    metrics,
    report: SweepReport,
) -> None:
    """The failover survivor step: crash the primary at ``site``, promote.

    The fixture's last block is the one the primary dies committing;
    ``states`` holds the serial reference after each fixture block.
    """
    warmups, crash_block = fixture.blocks[:-1], fixture.blocks[-1]
    pre_state, post_state = states[-2], states[-1]
    policy = config.policy
    counters = report.counters
    cluster = ReplicatedChainService(
        fixture.chainlike(), config, metrics=metrics
    )
    with guarded("warm-up", _CLUSTER_ERRORS):
        for block in warmups:
            cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
    for replica in cluster.replicas:
        if replica.last_committed_block != warmups[-1].number:
            raise SweepViolation(f"{replica.name} fell behind during warm-up")

    # -- crash the primary mid-commit at exactly this site ---------------
    pipeline = cluster.service.executor.durability
    crash_hashes = _synthetic_hashes(crash_block)

    def crashing_commit(injector) -> None:
        pipeline.crash = injector
        pipeline.journal.crash = injector
        cluster.ingest_block(crash_block, tx_hashes=crash_hashes)

    crash_at_site(report, site, crashing_commit, step="crashed commit")
    pipeline.crash = None
    pipeline.journal.crash = None

    # -- detect, elect, promote ------------------------------------------
    now = cluster.service.sim_time_us
    cluster.fail_primary(now)
    lost_at = now + policy.heartbeat_timeout_us + 1.0
    if not cluster.controller.primary_lost(lost_at):
        raise SweepViolation("heartbeat timeout never detected")
    with guarded("failover", _CLUSTER_ERRORS):
        promotion = cluster.failover(lost_at)
    counters["failovers"] += 1
    total_us = promotion.total_us
    fastest = counters["min_failover_us"]
    counters["min_failover_us"] = (
        total_us if fastest == 0.0 else min(fastest, total_us)
    )
    counters["max_failover_us"] = max(counters["max_failover_us"], total_us)
    if total_us < policy.heartbeat_timeout_us:
        raise SweepViolation("failover time excludes the detection window")

    expected = expect_state(
        cluster.service.world,
        site,
        pre_state,
        post_state,
        check_roots,
        lambda expected, _: (
            f"promoted state is not the expected {expected}-crash state "
            f"(sealed blocks were lost or invented: RPO violated)"
        ),
        wrong_root="promoted MPT root differs from the {expected} root",
    )
    want_blocks = len(warmups) + (0 if expected == "pre" else 1)
    if promotion.blocks_preserved != want_blocks:
        raise SweepViolation(
            f"promotion preserved {promotion.blocks_preserved} blocks, "
            f"expected {want_blocks}"
        )

    # -- the zombie window: a deposed primary keeps writing ---------------
    survivors = cluster.healthy_replicas()
    survivor_fps = {r.name: r.world.fingerprint() for r in survivors}
    zombie = cluster.previous_service
    with guarded("zombie commit"):
        zombie.ingest_block(crash_block, tx_hashes=crash_hashes)
    for replica in survivors:
        before = replica.stale_frames_rejected
        try:
            replica.poll(lost_at, max_frames=0)
        except Exception as exc:  # noqa: BLE001 — any raise here is a bug
            raise SweepViolation(
                f"{replica.name} raised on zombie frames: {exc}"
            ) from exc
        rejected = replica.stale_frames_rejected - before
        if rejected == 0:
            raise SweepViolation(
                f"{replica.name} accepted a deposed primary's frames"
            )
        if not any(isinstance(e, StaleEpoch) for e in replica.stale_rejections):
            raise SweepViolation(
                f"{replica.name} kept no typed StaleEpoch evidence"
            )
        if replica.world.fingerprint() != survivor_fps[replica.name]:
            raise SweepViolation(
                f"zombie frames mutated {replica.name}'s state"
            )
        counters["stale_frames_rejected"] += rejected

    # -- converge: re-queue the lost block, survivors follow the new feed -
    cluster.rebase_survivors()
    with guarded("post-failover serving", _CLUSTER_ERRORS):
        if expected == "pre":
            cluster.ingest_block(crash_block, tx_hashes=crash_hashes)
            counters["requeued_blocks"] += 1
        else:
            cluster.poll_replicas(lost_at)
    post_fp = post_state[0]
    if cluster.service.world.fingerprint() != post_fp:
        raise SweepViolation(
            "promoted chain did not converge to the full reference"
        )
    for replica in cluster.healthy_replicas():
        if replica.last_committed_block != crash_block.number:
            raise SweepViolation(
                f"{replica.name} did not follow the promoted primary's feed"
            )
        if replica.world.fingerprint() != post_fp:
            raise SweepViolation(
                f"{replica.name} diverged on the promoted feed"
            )


# ------------------------------------------------------------- chaos modes


def run_replication_scenario(
    scenario,
    seed=0,
    threads: int = 4,
    check_roots: bool = True,
    metrics=None,
):
    """Run one ``kind="replication"`` chaos scenario.

    Returns a :class:`~repro.check.chaos.ChaosBlockReport`; the fuzzer
    block the generic harness passes around plays no role (reproduce with
    ``(scenario, seed)``, exactly like the ingress scenarios).
    """
    from .chaos import chaos_report

    mode = scenario.replication.get("mode", "primary-crash")
    seed_int = ingress_seed(seed)
    if mode == "primary-crash":
        sweep = failover_sweep(
            fuzz_seed=seed_int,
            threads=threads,
            check_roots=check_roots,
            metrics=metrics,
        )
        certification = sweep.certification
        counters = {name: float(value) for name, value in sweep.counters.items()}
        faults = counters["failovers"]
    elif mode == "laggy-replica":
        certification, counters, faults = _laggy_replica_scenario(
            seed_int, threads, metrics
        )
    elif mode == "corrupt-feed":
        certification, counters, faults = _corrupt_feed_scenario(
            seed_int, threads, metrics
        )
    elif mode == "divergent-replica":
        certification, counters, faults = _divergent_replica_scenario(
            seed_int, threads, metrics
        )
    else:
        raise ValueError(f"unknown replication scenario mode {mode!r}")
    return chaos_report(
        scenario, seed, certification, counters, faults, metrics
    )


_SCENARIO_EXECUTOR = "parallelevm"


def _scenario_cluster(
    fixture: _Fixture,
    threads: int,
    metrics,
    *,
    policy: FailoverPolicy | None = None,
    replica_configs: dict[str, ReplicaConfig] | None = None,
) -> ReplicatedChainService:
    return ReplicatedChainService(
        fixture.chainlike(),
        ClusterConfig(
            executor=_SCENARIO_EXECUTOR,
            replicas=2,
            threads=threads,
            policy=policy or FailoverPolicy(),
        ),
        metrics=metrics,
        replica_configs=replica_configs,
    )


def _certify(fixture: _Fixture, divergences) -> CertificationReport:
    return CertificationReport(
        block_number=fixture.blocks[0].number,
        tx_count=sum(len(b.txs) for b in fixture.blocks),
        executors=[_SCENARIO_EXECUTOR],
        divergences=list(divergences),
    )


def _laggy_replica_scenario(seed: int, threads: int, metrics):
    """A replica consuming one frame per poll must trip the lag budget —
    and still converge once drained."""
    fixture = _fixture(seed, blocks=5, txs_per_block=6)
    policy = FailoverPolicy(lag_budget_blocks=2)
    cluster = _scenario_cluster(
        fixture,
        threads,
        metrics,
        policy=policy,
        replica_configs={"replica-1": ReplicaConfig(max_frames_per_poll=1)},
    )
    divergences: list[Divergence] = []
    flagged = 0
    for block in fixture.blocks:
        cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
        if any(r.name == "replica-1" for r in cluster.laggards()):
            flagged += 1
        if any(r.name == "replica-0" for r in cluster.laggards()):
            divergences.append(
                Divergence(
                    _SCENARIO_EXECUTOR,
                    "laggy-replica",
                    "the healthy replica tripped the lag budget",
                )
            )
    if flagged == 0:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "laggy-replica",
                "the laggy replica never tripped the lag budget",
            )
        )
    laggard = next(r for r in cluster.replicas if r.name == "replica-1")
    max_lag = laggard.lag_blocks(cluster.service.height - 1)
    laggard.poll(cluster.service.sim_time_us, max_frames=0)
    tip_fp = cluster.service.world.fingerprint()
    for replica in cluster.replicas:
        if replica.world.fingerprint() != tip_fp:
            divergences.append(
                Divergence(
                    _SCENARIO_EXECUTOR,
                    "laggy-replica",
                    f"{replica.name} did not converge to the primary's state",
                )
            )
    return (
        _certify(fixture, divergences),
        {"laggard_flags": float(flagged), "max_lag_blocks": float(max_lag)},
        float(flagged),
    )


def _corrupt_feed_scenario(seed: int, threads: int, metrics):
    """One replica's feed link corrupts a byte: typed quarantine, flight
    dump, and failover onto the intact replica still preserves everything."""
    fixture = _fixture(seed, blocks=3, txs_per_block=6)
    cluster = _scenario_cluster(fixture, threads, metrics)
    divergences: list[Divergence] = []
    for block in fixture.blocks[:-1]:
        cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
    last = fixture.blocks[-1]
    victim = cluster.replicas[0]
    pre_len = len(cluster.feed)
    cluster.service.ingest_block(last, tx_hashes=_synthetic_hashes(last))
    region = len(cluster.feed) - pre_len
    # Flip a payload byte of the region's first frame: CRC must catch it.
    victim.flip_feed_byte = pre_len + 8 + (seed % 8 if region > 16 else 0)
    cluster.poll_replicas(cluster.service.sim_time_us)
    if victim.state != "quarantined":
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "corrupt-feed",
                "corrupted frame bytes were not detected",
            )
        )
    elif victim.flight.triggered == 0:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "corrupt-feed",
                "quarantine did not dump the flight recorder",
            )
        )
    now = cluster.service.sim_time_us
    cluster.fail_primary(now)
    try:
        promotion = cluster.failover(
            now + cluster.controller.policy.heartbeat_timeout_us + 1.0
        )
    except _CLUSTER_ERRORS as exc:
        divergences.append(
            Divergence(_SCENARIO_EXECUTOR, "corrupt-feed", f"failover raised {exc}")
        )
        return _certify(fixture, divergences), {}, 1.0
    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, False
    )
    if promotion.promoted != "replica-1":
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "corrupt-feed",
                f"promotion picked {promotion.promoted}, not the intact replica",
            )
        )
    if cluster.service.world.fingerprint() != states[-1][0]:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "corrupt-feed",
                "promoted state lost blocks despite an intact replica",
            )
        )
    counters = {
        "quarantines": 1.0 if victim.state == "quarantined" else 0.0,
        "blocks_preserved": float(promotion.blocks_preserved),
    }
    return _certify(fixture, divergences), counters, 1.0


def _divergent_replica_scenario(seed: int, threads: int, metrics):
    """A replica whose replay silently corrupts one block must be caught by
    the sealed-root check, quarantined, and excluded from promotion."""
    fixture = _fixture(seed, blocks=3, txs_per_block=6)
    cluster = _scenario_cluster(fixture, threads, metrics)
    divergences: list[Divergence] = []
    victim = cluster.replicas[0]
    victim.corrupt_block = fixture.blocks[1].number
    for block in fixture.blocks:
        cluster.ingest_block(block, tx_hashes=_synthetic_hashes(block))
    if victim.state != "quarantined" or not isinstance(
        victim.error, ReplicaDivergence
    ):
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "divergent-replica",
                "a corrupted replay was not caught by root verification",
            )
        )
    elif not victim.flight.dumps:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "divergent-replica",
                "divergence quarantine did not dump the flight recorder",
            )
        )
    now = cluster.service.sim_time_us
    cluster.fail_primary(now)
    try:
        promotion = cluster.failover(
            now + cluster.controller.policy.heartbeat_timeout_us + 1.0
        )
    except _CLUSTER_ERRORS as exc:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR, "divergent-replica", f"failover raised {exc}"
            )
        )
        return _certify(fixture, divergences), {}, 1.0
    if promotion.promoted == victim.name:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "divergent-replica",
                "promotion elected the quarantined replica",
            )
        )
    states = _serial_states(
        fixture.fuzzer.chain.fresh_world(), fixture.blocks, False
    )
    if cluster.service.world.fingerprint() != states[-1][0]:
        divergences.append(
            Divergence(
                _SCENARIO_EXECUTOR,
                "divergent-replica",
                "the promoted replica's state differs from the serial reference",
            )
        )
    counters = {
        "divergences_caught": 1.0
        if isinstance(victim.error, ReplicaDivergence)
        else 0.0,
        "blocks_preserved": float(promotion.blocks_preserved),
    }
    return _certify(fixture, divergences), counters, 1.0
