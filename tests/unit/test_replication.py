"""Replication building blocks: shipping, replicas, fencing, failover.

Unit coverage for :mod:`repro.replication` plus the satellites that ride
on it: per-sender rate shaping in the mempool, the facade's NotPrimary
write shedding and replication-aware health, and the obs report table.
The cluster-level end-to-end paths (failover sweep, chaos scenarios)
live in ``tests/integration/test_replication.py``.
"""

from __future__ import annotations

import pytest

from repro.durability import (
    JOURNAL_MAGIC,
    BeginRecord,
    DurableCommitPipeline,
    MemoryMedium,
    SealRecord,
    scan_journal,
)
from repro.durability.checkpoint import encode_snapshot
from repro.durability.journal import encode_record, frame
from repro.durability.recovery import group_blocks
from repro.errors import (
    JournalCorruptionError,
    NotPrimary,
    RateLimited,
    ReplicaDivergence,
    StaleEpoch,
)
from repro.evm.message import Transaction
from repro.executors import make_executor
from repro.mempool import Mempool, MempoolConfig
from repro.obs import MetricsRegistry, replication_table
from repro.obs.lifecycle import FlightRecorder
from repro.replication import (
    FailoverController,
    FailoverPolicy,
    FailoverReport,
    ReplicaService,
    ShipFeed,
    ShippingMedium,
)
from repro.rpc import RpcConfig, RpcFacade
from repro.service import ChainService
from repro.state.keys import balance_key
from repro.state.world import WorldState
from repro.workloads import ChainSpec, build_chain


# -- shipping primitives -------------------------------------------------


class _FakeResult:
    def __init__(self, writes):
        self.writes = dict(writes)
        self.tx_results = [
            type("R", (), {"tx": type("T", (), {"tx_index": i})(), "write_set": {k: v}})()
            for i, (k, v) in enumerate(writes.items())
        ]


def _shipped_pipeline(epoch: int = 1, checkpoint_interval: int = 0):
    feed = ShipFeed(epoch=epoch)
    world = WorldState()
    feed.ship_snapshot(0, encode_snapshot(world, 0))
    medium = ShippingMedium(MemoryMedium(), feed)
    pipeline = DurableCommitPipeline(
        medium, checkpoint_interval=checkpoint_interval, epoch=epoch
    )
    return feed, medium, pipeline, world


def _commit(pipeline, world, number):
    key = balance_key(number.to_bytes(20, "big"))
    pipeline.commit(world, number, _FakeResult({key: 1_000 + number}))


class TestShipping:
    def test_feed_mirrors_every_journal_byte(self):
        feed, medium, pipeline, world = _shipped_pipeline()
        _commit(pipeline, world, 1)
        _commit(pipeline, world, 2)
        assert feed.read_from(0) == medium.inner.read_journal()

    def test_local_truncation_never_rewrites_the_feed(self):
        feed, medium, pipeline, world = _shipped_pipeline()
        _commit(pipeline, world, 1)
        before = feed.read_from(0)
        medium.truncate_journal(10)
        medium.reset_journal(b"RWAL1\n")
        assert feed.read_from(0) == before

    def test_finalized_feed_counts_fenced_bytes(self):
        metrics = MetricsRegistry()
        feed = ShipFeed(epoch=1, metrics=metrics)
        feed.append(b"live")
        feed.finalize()
        feed.append(b"zombie")
        assert metrics.value("replication_fenced_bytes_total") == 6.0
        assert metrics.value("replication_shipped_bytes_total") == 10.0
        # Fenced bytes still land: a partitioned writer cannot be stopped.
        assert feed.read_from(0) == b"livezombie"


# -- the replica state machine -------------------------------------------


class TestReplica:
    def test_streams_commits_and_verifies_seals(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        _commit(pipeline, world, 2)
        replica.poll()
        assert replica.state == "streaming"
        assert replica.last_committed_block == 2
        assert replica.last_sealed_block == 2
        assert replica.world.fingerprint() == world.fingerprint()
        assert replica.lag_blocks(2) == 0
        assert replica.lag_blocks(5) == 3

    def test_health_reports_the_essentials(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        replica.poll()
        health = replica.health()
        assert health["state"] == "streaming"
        assert health["last_committed_block"] == 1
        assert health["fence_epoch"] == 1

    def test_stale_epoch_frames_are_rejected_not_fatal(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        replica.poll()
        fingerprint = replica.world.fingerprint()
        replica.fence(2)  # a new primary was elected elsewhere
        _commit(pipeline, world, 2)  # the deposed primary keeps writing
        replica.poll()
        assert replica.state == "streaming"
        assert replica.stale_frames_rejected > 0
        assert all(isinstance(e, StaleEpoch) for e in replica.stale_rejections)
        assert replica.stale_rejections[0].epoch == 1
        assert replica.stale_rejections[0].fence == 2
        assert replica.world.fingerprint() == fingerprint
        assert replica.last_committed_block == 1

    def test_divergent_replay_quarantines_and_dumps_flight(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        flight = FlightRecorder()
        replica = ReplicaService("r0", feed, flight=flight)
        replica.corrupt_block = 1
        _commit(pipeline, world, 1)
        with pytest.raises(ReplicaDivergence) as excinfo:
            replica.poll()
        assert replica.state == "quarantined"
        assert excinfo.value.replica == "r0"
        assert excinfo.value.block_number == 1
        assert flight.triggered >= 1 and flight.dumps

    def test_corrupted_feed_byte_quarantines(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        replica.flip_feed_byte = len(b"RWAL1\n") + 9  # inside frame payload
        with pytest.raises(JournalCorruptionError):
            replica.poll()
        assert replica.state == "quarantined"
        assert replica.poll() == 0  # quarantine is terminal

    def test_seal_before_commit_reports_the_seal_frames_offset(self):
        feed = ShipFeed(epoch=1)
        feed.ship_snapshot(0, encode_snapshot(WorldState(), 0))
        begin = frame(encode_record(BeginRecord(1, 0, b"", epoch=1)))
        seal = frame(encode_record(SealRecord(1, b"root")))
        data = JOURNAL_MAGIC + begin + seal
        feed.append(data)
        seal_offset = len(JOURNAL_MAGIC) + len(begin)
        replica = ReplicaService("r0", feed)
        with pytest.raises(JournalCorruptionError) as excinfo:
            replica.poll()
        assert replica.state == "quarantined"
        # The same offset recovery's block fold reports: where SEAL starts.
        assert excinfo.value.offset == seal_offset
        assert group_blocks(scan_journal(data).frames)[1] == seal_offset

    def test_torn_shipped_snapshot_falls_back_to_an_older_one(self):
        feed = ShipFeed(epoch=1)
        world = WorldState()
        world.apply({balance_key(b"\x01" * 20): 5})
        feed.ship_snapshot(0, encode_snapshot(world, 0))
        torn = encode_snapshot(world, 1)
        feed.ship_snapshot(1, torn[: len(torn) // 2])
        metrics = MetricsRegistry()
        replica = ReplicaService("r0", feed, metrics=metrics)
        replica.poll()
        assert replica.state == "streaming"
        assert replica.snapshot_block == 0
        assert replica.last_committed_block == 0
        assert replica.world.fingerprint() == world.fingerprint()
        assert metrics.value(
            "replication_snapshots_rejected_total", replica="r0"
        ) == 1.0

    def test_promote_recovers_from_the_replicas_own_journal(self):
        feed, _medium, pipeline, world = _shipped_pipeline()
        replica = ReplicaService("r0", feed)
        _commit(pipeline, world, 1)
        _commit(pipeline, world, 2)
        replica.poll()
        replica.finalize_source()
        recovery = replica.promote()
        assert recovery.last_committed_block == 2
        assert recovery.world.fingerprint() == world.fingerprint()


# -- failover controller -------------------------------------------------


class _Stub:
    def __init__(self, name, last_committed, state="streaming"):
        self.name = name
        self.last_committed_block = last_committed
        self.state = state

    def lag_blocks(self, tip):
        if tip is None or self.last_committed_block is None:
            return 0
        return max(0, tip - self.last_committed_block)


class TestFailoverController:
    def test_liveness_is_a_pure_clock_comparison(self):
        controller = FailoverController(FailoverPolicy(heartbeat_timeout_us=100.0))
        controller.heartbeat(50.0)
        assert not controller.primary_lost(150.0)
        assert controller.primary_lost(150.1)

    def test_election_prefers_freshest_then_name(self):
        controller = FailoverController()
        a, b, c = _Stub("a", 5), _Stub("b", 7), _Stub("c", 7)
        assert controller.pick_candidate([a, b, c]) is b
        assert controller.pick_candidate([a, c, b]) is b  # order-free

    def test_quarantined_replicas_are_never_elected(self):
        controller = FailoverController()
        fresh = _Stub("fresh", 9, state="quarantined")
        stale = _Stub("stale", 3)
        assert controller.pick_candidate([fresh, stale]) is stale
        assert controller.pick_candidate([fresh]) is None

    def test_epoch_is_monotonic_and_counted(self):
        metrics = MetricsRegistry()
        controller = FailoverController(metrics=metrics)
        assert controller.epoch == 1
        assert controller.next_epoch() == 2
        assert controller.next_epoch() == 3
        assert metrics.value("replication_failovers_total") == 2.0
        assert metrics.value("replication_epoch") == 3.0

    def test_report_accounts_three_phases(self):
        report = FailoverReport(
            epoch=2,
            promoted="replica-1",
            detection_us=100.0,
            catchup_us=40.0,
            promotion_us=10.0,
            last_committed_block=7,
            last_sealed_block=7,
            blocks_preserved=3,
        )
        assert report.total_us == 150.0
        as_dict = report.as_dict()
        assert as_dict["total_us"] == 150.0
        assert as_dict["promoted"] == "replica-1"


# -- satellite: per-sender rate shaping ----------------------------------


@pytest.fixture(scope="module")
def chain():
    return build_chain(ChainSpec(accounts=16, tokens=1, amm_pairs=0, seed=7))


def _transfer(chain, sender_index=0, nonce=0, gas_price=10):
    return Transaction(
        sender=chain.accounts[sender_index],
        to=chain.accounts[-1],
        value=1_000,
        data=b"",
        gas_limit=21_000,
        gas_price=gas_price,
        nonce=nonce,
    )


class TestRateShaping:
    def test_disabled_by_default(self, chain):
        pool = Mempool(MempoolConfig(), chain.world)
        for nonce in range(8):
            pool.add(_transfer(chain, nonce=nonce), now_us=0.0)
        assert len(pool) == 8

    def test_burst_then_rate_limited_with_retry_hint(self, chain):
        metrics = MetricsRegistry()
        config = MempoolConfig(sender_rate_per_s=10.0, sender_burst=3)
        pool = Mempool(config, chain.world, metrics=metrics)
        for nonce in range(3):
            pool.add(_transfer(chain, nonce=nonce), now_us=0.0)
        with pytest.raises(RateLimited) as excinfo:
            pool.add(_transfer(chain, nonce=3), now_us=0.0)
        # 10 tokens/s -> one token every 100 ms of simulated time.
        assert excinfo.value.retry_after_us == pytest.approx(100_000.0)
        assert excinfo.value.retryable
        assert metrics.value(
            "mempool_rejected_total", reason="rate-limited"
        ) == 1.0

    def test_bucket_refills_on_the_simulated_clock(self, chain):
        config = MempoolConfig(sender_rate_per_s=10.0, sender_burst=1)
        pool = Mempool(config, chain.world)
        pool.add(_transfer(chain, nonce=0), now_us=0.0)
        with pytest.raises(RateLimited):
            pool.add(_transfer(chain, nonce=1), now_us=50_000.0)
        pool.add(_transfer(chain, nonce=1), now_us=200_000.0)
        assert len(pool) == 2

    def test_buckets_are_per_sender(self, chain):
        config = MempoolConfig(sender_rate_per_s=10.0, sender_burst=1)
        pool = Mempool(config, chain.world)
        pool.add(_transfer(chain, sender_index=0), now_us=0.0)
        pool.add(_transfer(chain, sender_index=1), now_us=0.0)
        with pytest.raises(RateLimited):
            pool.add(_transfer(chain, sender_index=0, nonce=1), now_us=0.0)

    def test_failed_attempts_still_burn_tokens(self, chain):
        config = MempoolConfig(sender_rate_per_s=10.0, sender_burst=2, min_gas_price=5)
        pool = Mempool(config, chain.world)
        from repro.errors import FeeTooLow

        for _ in range(2):
            with pytest.raises(FeeTooLow):
                pool.add(_transfer(chain, gas_price=1), now_us=0.0)
        with pytest.raises(RateLimited):
            pool.add(_transfer(chain, gas_price=10), now_us=0.0)


# -- satellite: facade role awareness ------------------------------------


class _View:
    def __init__(self, role="replica", epoch=3):
        self.role = role
        self.epoch = epoch

    def health(self):
        return {
            "role": self.role,
            "epoch": self.epoch,
            "replication_lag_blocks": 1,
            "last_sealed_block": 41,
            "replicas": [],
        }


@pytest.fixture()
def facade(chain):
    executor = make_executor("serial", 1)
    service = ChainService(None, executor, chain=chain)
    mempool = Mempool(MempoolConfig(), chain.world)
    return RpcFacade(service, mempool, RpcConfig(block_txs=4))


class TestFacadeReplication:
    def test_writes_to_non_primary_shed_typed(self, facade, chain):
        from repro.mempool import wire_transaction

        facade.replication = _View(role="replica")
        with pytest.raises(NotPrimary) as excinfo:
            facade.send_transaction(wire_transaction(_transfer(chain)))
        assert excinfo.value.role == "replica"
        assert excinfo.value.epoch == 3
        assert excinfo.value.retryable
        assert len(facade.mempool) == 0

    def test_primary_role_admits_normally(self, facade, chain):
        from repro.mempool import wire_transaction

        facade.replication = _View(role="primary")
        result = facade.send_transaction(wire_transaction(_transfer(chain)))
        assert result["tx_hash"].startswith("0x")

    def test_health_merges_the_replication_view(self, facade):
        facade.replication = _View(role="demoted", epoch=5)
        health = facade.health()
        assert health["role"] == "demoted"
        assert health["epoch"] == 5
        assert health["replication_lag_blocks"] == 1
        assert "mempool_depth" in health  # base report still present

    def test_health_without_a_view_is_unchanged(self, facade):
        health = facade.health()
        assert "role" not in health


# -- satellite: the obs table --------------------------------------------


class TestReplicationTable:
    def test_silent_registry_renders_nothing(self):
        assert replication_table(MetricsRegistry()) is None

    def test_counters_and_lag_gauges_render(self):
        metrics = MetricsRegistry()
        metrics.counter("replication_shipped_bytes_total").inc(1234)
        metrics.counter("replication_failovers_total").inc()
        metrics.gauge("replication_epoch").set(2.0)
        metrics.gauge("replication_lag_blocks", replica="replica-0").set(1.0)
        table = replication_table(metrics)
        assert "journal bytes shipped" in table
        assert "1234" in table
        assert "fencing epoch" in table
        assert "lag (replica-0)" in table
