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
from ..obs.lifecycle import (
    DEGRADATION_COUNTERS,
    FlightRecorder,
    LifecycleReport,
    LifecycleTracker,
    SloConfig,
    SloMonitor,
)
from ..obs.metrics import MetricsRegistry
from ..obs.streaming import SoakTelemetry
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
    # A fully-specified stream overrides the scalar workload knobs above.
    stream_spec: StreamSpec | None = None
    # Serving-path load generation (repro.workloads.clients): when
    # ``loadgen_clients`` > 0 the soak feeds the service through the full
    # RPC stack — open-loop client fleet, admission control, mempool,
    # production ticks — instead of the trusted block stream, and the one
    # windowed JSONL stream carries execution, cache, lifecycle and SLO
    # sections together.  ``rate_multiplier`` is offered load over the
    # sustainable rate, as in the ingress harness.
    loadgen_clients: int = 0
    block_interval_us: float = 50_000.0
    rate_multiplier: float = 1.0
    spike_multiplier: float = 1.0
    read_share: float = 0.15
    # Per-tx lifecycle tracing on the loadgen path (observation only; the
    # simulated clock and committed state are identical either way).  In
    # stream mode ``slo_config`` attaches a block-latency SLO monitor to
    # the service instead — same stream section, coarser signal.
    lifecycle: bool = True
    slo_config: SloConfig | None = None
    label_limit: int | None = 512

    def spec(self) -> StreamSpec:
        if self.stream_spec is not None:
            return self.stream_spec
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
        if self.lifecycle is not None:
            lines.append(LifecycleReport.from_dict(self.lifecycle).describe())
        if self.slo is not None:
            latency = self.slo["latency"]
            errors = self.slo["errors"]
            lines.append(
                f"  slo         latency burn {latency['total_burn']:.2f}x "
                f"({latency['bad']}/{latency['total']} over "
                f"{latency['objective_us']:.0f} us) · error burn "
                f"{errors['total_burn']:.2f}x · {self.slo['alerts']} alert(s)"
            )
        if self.flight is not None and self.flight["triggered"]:
            lines.append(
                f"  flight      {self.flight['triggered']} incident(s) · "
                f"{len(self.flight['dumps'])} dump(s) retained "
                f"(ring {self.flight['capacity']})"
            )
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


def _fault_plan_factory(config: SoakConfig):
    if config.scenario is None:
        return None
    from dataclasses import replace

    from ..resilience import SCENARIOS, FaultPlan, RecoveryPolicy

    try:
        scenario = SCENARIOS[config.scenario]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown chaos scenario {config.scenario!r} (known: {known})"
        ) from None
    if scenario.kind != "faults":
        raise ValueError(
            f"scenario {scenario.name!r} is a {scenario.kind} scenario; the "
            "soak harness injects runtime faults only (crash/reorg sweeps "
            "live in `repro crashfuzz`)"
        )
    policy = RecoveryPolicy()
    if scenario.recovery_overrides:
        policy = replace(policy, **scenario.recovery_overrides)

    def factory(number: int) -> FaultPlan:
        return FaultPlan(
            f"soak:{config.seed}:{number}",
            config=scenario.config,
            recovery=policy,
        )

    return factory


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


def _fold_counters(registry: MetricsRegistry) -> dict:
    """Cumulative counter totals, labelled series folded into base names."""
    kinds = registry.kinds()
    counters: dict = {}
    for series, value in registry.as_dict().items():
        if kinds.get(series) != "counter" or not value:
            continue
        base = series.split("{", 1)[0]
        counters[base] = counters.get(base, 0) + value
    return counters


def _run_soak_loadgen(config: SoakConfig, out, progress) -> SoakReport:
    """The serving-path soak: an open-loop fleet against the RPC stack.

    Same executor / durability / pipeline / chaos stack as the stream
    soak, but blocks are drawn from the mempool by production ticks and
    every transaction arrives through the facade — so the stream's
    windows carry queueing, lifecycle and SLO truth, not just execution.
    """
    import heapq

    from ..mempool.pool import Mempool, MempoolConfig
    from ..rpc.dispatcher import RpcDispatcher
    from ..rpc.facade import RpcConfig, RpcFacade, ingress_backoff_policy
    from ..rpc.transport import SimTransport
    from ..workloads.clients import ClientSpec, build_fleet

    spec = config.spec()
    chain = build_stream_chain(spec, cache_capacity=config.cache_capacity)
    registry = MetricsRegistry(label_limit=config.label_limit)
    observer = SoakObserver(metrics=registry)
    executor = make_executor(config.executor, config.threads, observer=observer)
    executor.durability = _durability(config, registry)
    service = ChainService(
        None,
        executor,
        observer=observer,
        fault_plan_factory=_fault_plan_factory(config),
        pipeline=_pipeline(config, registry),
        chain=chain,
    )
    tracker = slo = recorder = None
    if config.lifecycle:
        recorder = FlightRecorder()
        slo_config = config.slo_config or SloConfig()
        slo = SloMonitor(
            slo_config,
            metrics=registry,
            on_alert=lambda alert: recorder.trigger(
                f"slo:{alert['objective']}",
                (alert["window"] + 1) * slo_config.window_us,
            ),
        )
        tracker = LifecycleTracker(metrics=registry, slo=slo, recorder=recorder)
    mempool = Mempool(MempoolConfig(), chain.world, metrics=registry)
    facade = RpcFacade(
        service,
        mempool,
        config=RpcConfig(
            block_txs=config.txs_per_block,
            block_interval_us=config.block_interval_us,
        ),
        metrics=registry,
        lifecycle=tracker,
    )
    transport = SimTransport(RpcDispatcher(facade, metrics=registry))
    sustainable_tps = config.txs_per_block / (config.block_interval_us / 1e6)
    span_us = config.blocks * config.block_interval_us
    fleet = build_fleet(
        ClientSpec(
            clients=config.loadgen_clients,
            base_rate_tps=config.rate_multiplier * sustainable_tps,
            spike_multiplier=config.spike_multiplier,
            spike_from_us=0.4 * span_us,
            spike_until_us=0.7 * span_us,
            read_share=config.read_share,
            seed=config.seed,
        ),
        chain.accounts,
        ingress_backoff_policy(),
        chain.env.chain_id,
    )
    telemetry = SoakTelemetry(
        window_blocks=config.window_blocks,
        registry=registry,
        db=chain.world.db,
        lifecycle=tracker,
        slo=slo,
    )

    events: list = []
    seq = 0

    def push(at_us: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (at_us, seq, kind, payload))
        seq += 1

    for client in fleet:
        push(client.next_arrival(0.0), "arrival", client)
    push(config.block_interval_us, "tick", None)

    def serve(client, request: dict, now_us: float, attempt: int, first_us: float) -> None:
        response = transport.request(request, now_us)
        error = response.get("error")
        if error is None:
            if request["method"] == "send_transaction":
                tx_hash = response["result"]["tx_hash"]
                client.note_accepted(tx_hash)
                if tracker is not None and attempt > 0:
                    tracker.note_submission(tx_hash, first_us, attempt + 1)
            return
        data = error.get("data") or {}
        if request["method"] == "send_transaction" and data.get("retryable"):
            delay = client.retry_delay_us(
                attempt, data.get("retry_after_us", 0.0)
            )
            if delay is not None:
                push(
                    now_us + delay,
                    "retry",
                    (client, request, attempt + 1, first_us),
                )

    opened = None
    sink = out
    if isinstance(out, str):
        opened = sink = open(out, "w")
    try:
        def emit(snapshot: dict) -> None:
            if sink is not None:
                sink.write(SoakTelemetry.snapshot_line(snapshot))
                sink.write("\n")
            if progress is not None:
                progress(snapshot)

        degradation_seen = {
            name: registry.sum_by_name(name) for name in DEGRADATION_COUNTERS
        }
        ticks = 0
        last_now = 0.0
        while events:
            now_us, _, kind, payload = heapq.heappop(events)
            last_now = max(last_now, now_us)
            if kind == "tick":
                ticks += 1
                produced = facade.produce_block(now_us)
                if recorder is not None:
                    for name in DEGRADATION_COUNTERS:
                        total = registry.sum_by_name(name)
                        if total > degradation_seen[name]:
                            recorder.trigger(f"degradation:{name}", now_us)
                        degradation_seen[name] = total
                outcome = produced.outcome
                if outcome is not None:
                    latencies = [
                        now_us + outcome.latency_us - entry.admitted_at_us
                        for entry in produced.entries
                    ]
                    snapshot = telemetry.record_block(
                        outcome.number,
                        tx_count=outcome.tx_count,
                        gas_used=outcome.gas_used,
                        latency_us=outcome.latency_us,
                        tx_latencies_us=latencies,
                        advance_us=outcome.advance_us,
                    )
                    if snapshot is not None:
                        emit(snapshot)
                if ticks < config.blocks:
                    push(now_us + config.block_interval_us, "tick", None)
            elif kind == "arrival":
                client = payload
                if now_us < span_us:
                    serve(client, client.make_request(now_us), now_us, 0, now_us)
                    nxt = client.next_arrival(now_us)
                    if nxt < span_us:
                        push(nxt, "arrival", client)
            else:  # retry
                client, request, attempt, first_us = payload
                if now_us < span_us:
                    serve(client, request, now_us, attempt, first_us)
            if ticks >= config.blocks:
                break
        if slo is not None:
            slo.finalize(last_now)
        tail = telemetry.finish()
        if tail is not None:
            emit(tail)
    finally:
        if opened is not None:
            opened.close()

    cache = chain.world.db.cache
    return SoakReport(
        executor=config.executor,
        threads=config.threads,
        blocks=service.blocks_committed,
        accounts=spec.accounts,
        seed=config.seed,
        summary=telemetry.summary(),
        snapshots=telemetry.windows_emitted,
        cache_bounded=cache.peak_entries <= max(cache.capacity, 0),
        counters=_fold_counters(registry),
        lifecycle=tracker.report().as_dict() if tracker is not None else None,
        slo=slo.summary() if slo is not None else None,
        flight=recorder.as_dict() if recorder is not None else None,
    )


def run_soak(config: SoakConfig, out=None, progress=None) -> SoakReport:
    """Run one soak; stream JSONL snapshots to ``out``; return the report.

    ``out`` is a path or a writable text file (None discards snapshots);
    ``progress`` (optional) is called with every snapshot dict — the CLI
    uses it for the live per-window report.  The snapshot stream is
    byte-identical across runs of the same config.
    """
    if config.loadgen_clients > 0:
        return _run_soak_loadgen(config, out, progress)
    spec = config.spec()
    chain = build_stream_chain(spec, cache_capacity=config.cache_capacity)
    stream = BlockStream(chain)
    registry = MetricsRegistry(label_limit=config.label_limit)
    observer = SoakObserver(metrics=registry)
    executor = make_executor(config.executor, config.threads, observer=observer)
    executor.durability = _durability(config, registry)
    slo = (
        SloMonitor(config.slo_config, metrics=registry)
        if config.slo_config is not None
        else None
    )
    service = ChainService(
        stream,
        executor,
        observer=observer,
        fault_plan_factory=_fault_plan_factory(config),
        pipeline=_pipeline(config, registry),
        slo=slo,
    )
    telemetry = SoakTelemetry(
        window_blocks=config.window_blocks,
        registry=registry,
        db=chain.world.db,
        slo=slo,
    )

    opened = None
    sink = out
    if isinstance(out, str):
        opened = sink = open(out, "w")
    try:
        def emit(snapshot: dict) -> None:
            if sink is not None:
                sink.write(SoakTelemetry.snapshot_line(snapshot))
                sink.write("\n")
            if progress is not None:
                progress(snapshot)

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
    finally:
        if opened is not None:
            opened.close()

    summary = telemetry.summary()
    cache = chain.world.db.cache
    return SoakReport(
        executor=config.executor,
        threads=config.threads,
        blocks=service.blocks_committed,
        accounts=spec.accounts,
        seed=config.seed,
        summary=summary,
        snapshots=telemetry.windows_emitted,
        cache_bounded=cache.peak_entries <= max(cache.capacity, 0),
        counters=_fold_counters(registry),
        slo=slo.summary() if slo is not None else None,
    )
