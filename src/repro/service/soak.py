"""The soak harness: a configured long run of the chain service.

``run_soak`` wires the pieces together — stream chain, executor config,
telemetry, optional durability and fault injection — runs the configured
number of blocks, writes one JSONL snapshot line per telemetry window,
and returns a :class:`SoakReport`.  The whole run is deterministic: the
same :class:`SoakConfig` produces a byte-identical snapshot stream (the
soak determinism test enforces exactly that), because every input is
seeded and every reported number is simulated time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..executors import make_executor
from ..obs.lifecycle import SloConfig, SloMonitor, describe_serving
from ..obs.metrics import HARNESS_LABEL_LIMIT, MetricsRegistry, fold_counters
from ..obs.streaming import SoakTelemetry, snapshot_sink
from ..resilience import fault_plan_factory
from ..workloads.stream import BlockStream, StreamSpec, build_stream_chain
from .chain_service import ChainService, SoakObserver


@dataclass(slots=True)
class SoakConfig:
    """Everything a soak run depends on (and nothing wall-clock)."""

    blocks: int = 200
    window_blocks: int = 20
    executor: str = "parallelevm"
    threads: int = 8
    accounts: int = 20_000
    txs_per_block: int = 40
    seed: int = 1
    cache_capacity: int = 100_000
    hot_recipient_share: float = 0.25
    hot_drift_per_1k: float = 0.0
    scenario: str | None = None  # a repro.resilience chaos scenario name
    durable_dir: str | None = None
    checkpoint_interval: int = 0
    # The multi-block pipeline (repro.pipeline): off by default, keeping
    # the synchronous service path — and its JSONL stream — bit-identical.
    pipeline: bool = False
    prefetch: bool = True
    async_commit: bool = True
    prefetch_io_depth: int = 8
    # Serving-path load generation (repro.workloads.clients): when
    # ``loadgen_clients`` > 0 the soak feeds the service through the full
    # RPC stack — open-loop client fleet, admission control, mempool,
    # production ticks — instead of the trusted block stream, and the one
    # windowed JSONL stream carries execution, cache, lifecycle and SLO
    # sections together.  ``rate_multiplier`` is offered load over the
    # sustainable rate, as in the ingress harness: both run the one fleet
    # loop, repro.rpc.ingress.run_fleet.
    loadgen_clients: int = 0
    block_interval_us: float = 50_000.0
    rate_multiplier: float = 1.0
    # Per-tx lifecycle tracing on the loadgen path (observation only; the
    # simulated clock and committed state are identical either way).  In
    # stream mode ``slo_config`` attaches a block-latency SLO monitor to
    # the service instead — same stream section, coarser signal.
    lifecycle: bool = True
    slo_config: SloConfig | None = None

    def spec(self) -> StreamSpec:
        return StreamSpec(
            accounts=self.accounts,
            txs_per_block=self.txs_per_block,
            hot_recipient_share=self.hot_recipient_share,
            hot_drift_per_1k=self.hot_drift_per_1k,
            seed=self.seed,
        )


@dataclass(slots=True)
class SoakReport:
    """The end-of-run summary (valid — zeros and nulls — for zero blocks)."""

    executor: str
    threads: int
    blocks: int
    accounts: int
    seed: int
    summary: dict
    snapshots: int
    cache_bounded: bool
    counters: dict = field(default_factory=dict)
    lifecycle: dict | None = None
    slo: dict | None = None
    flight: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def describe(self) -> str:
        throughput = self.summary["throughput"]
        tx = self.summary["latency_tx_us"]
        block = self.summary["latency_block_us"]

        def _q(stats: dict, name: str) -> str:
            value = stats[name]
            return "-" if value is None else f"{value:.0f}"

        lines = [
            f"soak: {self.executor} x{self.threads} · {self.blocks} blocks · "
            f"{self.accounts} accounts · seed {self.seed}",
            f"  throughput  {throughput['tx_per_s']:.1f} tx/s · "
            f"{throughput['gas_per_s']:.0f} gas/s · "
            f"{throughput['sim_time_us'] / 1e6:.2f} s simulated",
            f"  tx latency  p50/p90/p99 {_q(tx, 'p50')}/{_q(tx, 'p90')}/"
            f"{_q(tx, 'p99')} us (max {_q(tx, 'max')}, n={tx['count']})",
            f"  block latency  p50/p90/p99 {_q(block, 'p50')}/"
            f"{_q(block, 'p90')}/{_q(block, 'p99')} us",
            f"  quantile sketch relative error <= "
            f"{self.summary['quantile_relative_error']:.1%}",
        ]
        cache = self.summary.get("cache")
        if cache is not None:
            bounded = "bounded" if self.cache_bounded else "UNBOUNDED"
            lines.append(
                f"  state cache  {cache['entries']}/{cache['capacity']} "
                f"entries (peak {cache['peak_entries']}, "
                f"{cache['evictions']} evictions, hit rate "
                f"{cache['hit_rate']:.1%}) — {bounded}"
            )
        lines.extend(describe_serving(self.lifecycle, self.slo, self.flight))
        interesting = {
            name: value
            for name, value in sorted(self.counters.items())
            if name.startswith(("resilience_", "durability_"))
        }
        if interesting:
            lines.append("  faults & durability:")
            for name, value in interesting.items():
                lines.append(f"    {name} = {value:g}")
        return "\n".join(lines)


def _durability(config: SoakConfig, registry: MetricsRegistry):
    if config.durable_dir is None:
        return None
    from ..durability import DurableCommitPipeline, FileMedium

    return DurableCommitPipeline(
        FileMedium(config.durable_dir),
        checkpoint_interval=config.checkpoint_interval,
        metrics=registry,
    )


def _pipeline(config: SoakConfig, registry: MetricsRegistry):
    if not config.pipeline:
        return None
    from ..pipeline import PipelineConfig, PipelineCoordinator

    return PipelineCoordinator(
        PipelineConfig(
            prefetch=config.prefetch,
            async_commit=config.async_commit,
            io_depth=config.prefetch_io_depth,
        ),
        metrics=registry,
    )


def _service(
    config: SoakConfig,
    registry: MetricsRegistry,
    chain,
    stream: BlockStream | None = None,
    slo: SloMonitor | None = None,
) -> ChainService:
    observer = SoakObserver(metrics=registry)
    executor = make_executor(config.executor, config.threads, observer=observer)
    executor.durability = _durability(config, registry)
    return ChainService(
        stream,
        executor,
        observer=observer,
        fault_plan_factory=fault_plan_factory("soak", config.seed, config.scenario),
        pipeline=_pipeline(config, registry),
        chain=chain,
        slo=slo,
    )


def _report(
    config: SoakConfig,
    service: ChainService,
    telemetry: SoakTelemetry,
    registry: MetricsRegistry,
    **sections,
) -> SoakReport:
    cache = service.world.db.cache
    return SoakReport(
        executor=config.executor,
        threads=config.threads,
        blocks=service.blocks_committed,
        accounts=config.accounts,
        seed=config.seed,
        summary=telemetry.summary(),
        snapshots=telemetry.windows_emitted,
        cache_bounded=cache.peak_entries <= max(cache.capacity, 0),
        counters=fold_counters(registry),
        **sections,
    )


def _run_soak_loadgen(config: SoakConfig, out, progress) -> SoakReport:
    """The serving-path soak: an open-loop fleet against the RPC stack.

    Same executor / durability / pipeline / chaos stack as the stream
    soak, but blocks are drawn from the mempool by production ticks and
    every transaction arrives through the facade — so the stream's
    windows carry queueing, lifecycle and SLO truth, not just execution.
    """
    from ..rpc.facade import RpcConfig
    from ..rpc.ingress import fleet_spec, run_fleet

    chain = build_stream_chain(config.spec(), cache_capacity=config.cache_capacity)
    registry = MetricsRegistry(label_limit=HARNESS_LABEL_LIMIT)
    service = _service(config, registry, chain)
    run = run_fleet(
        service,
        registry,
        fleet_spec(
            config.loadgen_clients,
            txs_per_block=config.txs_per_block,
            block_interval_us=config.block_interval_us,
            span_us=config.blocks * config.block_interval_us,
            rate_multiplier=config.rate_multiplier,
            seed=config.seed,
        ),
        rpc_config=RpcConfig(
            block_txs=config.txs_per_block,
            block_interval_us=config.block_interval_us,
        ),
        blocks=config.blocks,
        interval_us=config.block_interval_us,
        window_blocks=config.window_blocks,
        db=chain.world.db,
        lifecycle=config.lifecycle,
        slo_config=config.slo_config,
        out=out,
        progress=progress,
    )
    return _report(config, service, run.telemetry, registry, **run.sections())


def run_soak(config: SoakConfig, out=None, progress=None) -> SoakReport:
    """Run one soak; stream JSONL snapshots to ``out``; return the report.

    ``out`` is a path or a writable text file (None discards snapshots);
    ``progress`` (optional) is called with every snapshot dict — the CLI
    uses it for the live per-window report.  The snapshot stream is
    byte-identical across runs of the same config.
    """
    if config.loadgen_clients > 0:
        return _run_soak_loadgen(config, out, progress)
    chain = build_stream_chain(config.spec(), cache_capacity=config.cache_capacity)
    stream = BlockStream(chain)
    registry = MetricsRegistry(label_limit=HARNESS_LABEL_LIMIT)
    slo = (
        SloMonitor(config.slo_config, metrics=registry)
        if config.slo_config is not None
        else None
    )
    service = _service(config, registry, chain, stream=stream, slo=slo)
    telemetry = SoakTelemetry(
        window_blocks=config.window_blocks,
        registry=registry,
        db=chain.world.db,
        slo=slo,
    )
    with snapshot_sink(out, progress) as emit:
        for outcome in service.run(config.blocks):
            snapshot = telemetry.record_block(
                outcome.number,
                tx_count=outcome.tx_count,
                gas_used=outcome.gas_used,
                latency_us=outcome.latency_us,
                tx_latencies_us=outcome.tx_latencies_us,
                advance_us=outcome.advance_us,
            )
            if snapshot is not None:
                emit(snapshot)
        if slo is not None:
            slo.finalize(service.sim_time_us)
        tail = telemetry.finish()
        if tail is not None:
            emit(tail)
    return _report(
        config,
        service,
        telemetry,
        registry,
        slo=slo.summary() if slo is not None else None,
    )
