"""The ingress harness: a seeded client fleet against the served chain.

``run_ingress`` merges two event streams on one simulated clock — open-loop
client arrivals (:mod:`repro.workloads.clients`) and block-production
ticks — and drives every request through the full serving stack: JSON text
round trip (:class:`SimTransport`), dispatcher, facade, admission control,
mempool, :meth:`ChainService.ingest_block`.  It is to the serving stack
what ``run_soak`` is to the execution stack: deterministic end to end
(same config -> byte-identical JSONL), with three hard guarantees checked
on every run and reported as divergences when violated:

* **Conservation** — every admitted tx hash is committed exactly once,
  still pending, or shed with a typed reason; nothing is lost or
  double-committed, and rejected + admitted covers every submission.
* **Serial equivalence** — the committed blocks, replayed serially from
  genesis, land on the identical state fingerprint and per-block
  receipts roots as the live concurrent run.
* **Typed rejections** — every rejection and shed carries a machine-
  readable reason; the counts are reconciled against the ``rpc_*`` and
  ``mempool_*`` metrics.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass, field

from ..executors import make_executor
from ..mempool.pool import Mempool, MempoolConfig
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
from ..service.chain_service import ChainService, SoakObserver
from ..state.receipts import receipts_root
from ..workloads.block import ChainSpec, build_chain
from ..workloads.clients import ClientSpec, build_fleet
from .dispatcher import RpcDispatcher
from .facade import RpcConfig, RpcFacade, ingress_backoff_policy
from .transport import SimTransport


@dataclass(slots=True)
class IngressConfig:
    """Everything an ingress run depends on (and nothing wall-clock).

    ``rate_multiplier`` is offered load over the sustainable rate
    (``txs_per_block / block_interval``); ``spike_multiplier`` boosts it
    further inside the ``[spike_from, spike_until)`` fraction of the run.
    ``consumer_slowdown`` stretches the production interval without
    touching the offered rate — the slow-consumer scenario.
    """

    blocks: int = 40
    block_interval_us: float = 50_000.0
    txs_per_block: int = 16
    executor: str = "parallelevm"
    threads: int = 4
    accounts: int = 192
    tokens: int = 2
    amm_pairs: int = 1
    seed: int = 1
    window_blocks: int = 8
    # offered load
    clients: int = 8
    rate_multiplier: float = 1.0
    spike_multiplier: float = 1.0
    spike_from: float = 0.4
    spike_until: float = 0.7
    read_share: float = 0.15
    malformed_share: float = 0.0
    nonce_gap_share: float = 0.0
    max_retries: int = 4
    # consumer
    consumer_slowdown: float = 1.0
    # admission / facade knobs
    mempool: MempoolConfig = field(default_factory=MempoolConfig)
    circuit_open_lag_us: float = 200_000.0
    circuit_close_lag_us: float = 75_000.0
    # fault injection on the execution path (zero-rate inertness is a
    # tested guarantee): a chaos scenario name, or an explicit FaultConfig.
    scenario: str | None = None
    fault_config: object | None = None
    # Overlap prefetch/execution/commit across served blocks
    # (repro.pipeline); block latency then includes lane stalls, which the
    # lifecycle waterfall charges to the commit phase.
    pipeline: bool = False
    # Per-tx lifecycle tracing (repro.obs.lifecycle).  On by default: the
    # tracker observes, it never touches the simulated clock, so makespans
    # and committed state are identical either way (tested).  ``slo``
    # (a SloConfig) defaults to the stock objectives; ``slow_threshold_us``
    # defaults to the SLO latency objective.
    lifecycle: bool = True
    slo: SloConfig | None = None
    slow_threshold_us: float | None = None
    flight_capacity: int = 128
    label_limit: int | None = 512

    def client_spec(self) -> ClientSpec:
        sustainable_tps = self.txs_per_block / (self.block_interval_us / 1e6)
        span_us = self.blocks * self.block_interval_us * self.consumer_slowdown
        return ClientSpec(
            clients=self.clients,
            base_rate_tps=self.rate_multiplier * sustainable_tps,
            spike_multiplier=self.spike_multiplier,
            spike_from_us=self.spike_from * span_us,
            spike_until_us=self.spike_until * span_us,
            read_share=self.read_share,
            malformed_share=self.malformed_share,
            nonce_gap_share=self.nonce_gap_share,
            max_retries=self.max_retries,
            seed=self.seed,
        )


@dataclass(slots=True)
class IngressReport:
    """End-of-run accounting; ``ok`` means all three guarantees held."""

    executor: str
    threads: int
    seed: int
    blocks_committed: int
    requests: int
    submitted: int
    admitted: int
    committed: int
    pending: int
    shed: dict
    rejected: dict
    reads_ok: int
    reads_shed: int
    retries: int
    gave_up: int
    backpressure_events: int
    circuit_opened: int
    divergences: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    lifecycle: dict | None = None
    slo: dict | None = None
    flight: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def describe(self) -> str:
        shed_total = sum(self.shed.values())
        lines = [
            f"ingress: {self.executor} x{self.threads} · seed {self.seed} · "
            f"{self.blocks_committed} blocks",
            f"  requests    {self.requests} total · {self.submitted} sends · "
            f"{self.reads_ok} reads ok · {self.reads_shed} reads shed",
            f"  admission   {self.admitted} admitted · "
            f"{sum(self.rejected.values())} rejected "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.rejected.items())) or '-'})",
            f"  outcome     {self.committed} committed · {self.pending} pending "
            f"· {shed_total} shed "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.shed.items())) or '-'})",
            f"  overload    {self.backpressure_events} backpressured · "
            f"{self.retries} retries · {self.gave_up} gave up · "
            f"circuit opened {self.circuit_opened}x",
        ]
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
        if self.divergences:
            lines.append("  DIVERGENCES:")
            lines.extend(f"    - {d}" for d in self.divergences)
        else:
            lines.append(
                "  certified: conservation + serial equivalence + typed sheds"
            )
        return "\n".join(lines)


def _fault_plan_factory(config: IngressConfig):
    fault_config = config.fault_config
    recovery = None
    if config.scenario is not None:
        from dataclasses import replace

        from ..resilience import SCENARIOS, RecoveryPolicy

        scenario = SCENARIOS[config.scenario]
        if scenario.kind != "faults":
            raise ValueError(
                f"scenario {scenario.name!r} is not a runtime-fault scenario"
            )
        fault_config = scenario.config
        recovery = RecoveryPolicy()
        if scenario.recovery_overrides:
            recovery = replace(recovery, **scenario.recovery_overrides)
    if fault_config is None:
        return None
    from ..resilience import FaultPlan

    def factory(number: int) -> "FaultPlan":
        return FaultPlan(
            f"ingress:{config.seed}:{number}",
            config=fault_config,
            recovery=recovery,
        )

    return factory


def run_ingress(
    config: IngressConfig,
    out=None,
    progress=None,
    waterfalls=None,
    trace_out=None,
) -> IngressReport:
    """Run one ingress session; stream JSONL windows to ``out``.

    ``waterfalls`` (path or file) streams one JSONL line per terminal
    transaction — the full latency waterfall.  ``trace_out`` (path)
    additionally records serving-lane spans and writes a Chrome trace at
    the end of the run; it implies span retention, so keep it to short
    sessions.  Both require ``config.lifecycle``.
    """
    chain = build_chain(
        ChainSpec(
            accounts=config.accounts,
            tokens=config.tokens,
            proxied_tokens=min(2, config.tokens),
            amm_pairs=config.amm_pairs,
            seed=config.seed,
        )
    )
    genesis = chain.world.clone()
    registry = MetricsRegistry(label_limit=config.label_limit)
    observer = SoakObserver(metrics=registry)
    executor = make_executor(config.executor, config.threads, observer=observer)
    pipeline = None
    if config.pipeline:
        from ..pipeline import PipelineConfig, PipelineCoordinator

        pipeline = PipelineCoordinator(PipelineConfig(), metrics=registry)
    service = ChainService(
        None,
        executor,
        observer=observer,
        fault_plan_factory=_fault_plan_factory(config),
        pipeline=pipeline,
        chain=chain,
    )
    mempool = Mempool(config.mempool, chain.world, metrics=registry)

    tracker = slo = recorder = None
    waterfall_opened = waterfall_sink = None
    if config.lifecycle:
        recorder = FlightRecorder(capacity=config.flight_capacity)
        slo_config = config.slo or SloConfig()
        # An SLO alert is itself an incident: snapshot the flight ring at
        # the close of the offending window so the dump carries the txs
        # that burned the budget.
        slo = SloMonitor(
            slo_config,
            metrics=registry,
            on_alert=lambda alert: recorder.trigger(
                f"slo:{alert['objective']}",
                (alert["window"] + 1) * slo_config.window_us,
            ),
        )
        if waterfalls is not None:
            waterfall_sink = waterfalls
            if isinstance(waterfalls, str):
                waterfall_opened = waterfall_sink = open(waterfalls, "w")
        tracker = LifecycleTracker(
            metrics=registry,
            slo=slo,
            recorder=recorder,
            slow_threshold_us=config.slow_threshold_us,
            trace=trace_out is not None,
            sink=waterfall_sink,
        )

    facade = RpcFacade(
        service,
        mempool,
        config=RpcConfig(
            block_txs=config.txs_per_block,
            block_interval_us=config.block_interval_us,
            circuit_open_lag_us=config.circuit_open_lag_us,
            circuit_close_lag_us=config.circuit_close_lag_us,
            record_blocks=True,
        ),
        metrics=registry,
        lifecycle=tracker,
    )
    transport = SimTransport(RpcDispatcher(facade, metrics=registry))
    policy = ingress_backoff_policy()
    fleet = build_fleet(
        config.client_spec(), chain.accounts, policy, chain.env.chain_id
    )
    telemetry = SoakTelemetry(
        window_blocks=config.window_blocks,
        registry=registry,
        lifecycle=tracker,
        slo=slo,
    )

    # -- the merged event loop ------------------------------------------
    # Heap entries are (time_us, seq, kind, payload); seq is the global
    # deterministic tie-break.
    events: list = []
    seq = 0

    def push(at_us: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (at_us, seq, kind, payload))
        seq += 1

    interval = config.block_interval_us * config.consumer_slowdown
    horizon_us = config.blocks * interval
    for client in fleet:
        push(client.next_arrival(0.0), "arrival", client)
    push(interval, "tick", None)

    admitted_at: dict[str, float] = {}
    committed: dict[str, int] = {}
    shed: dict[str, str] = {}
    rejected: dict = {}
    reads_ok = reads_shed = backpressure_events = 0
    live_roots: list[bytes] = []
    divergences: list[str] = []
    ticks = 0

    def serve(
        client, request: dict, now_us: float, attempt: int, first_us: float
    ) -> None:
        nonlocal reads_ok, reads_shed, backpressure_events
        response = transport.request(request, now_us)
        error = response.get("error")
        method = request["method"]
        if error is None:
            if method == "send_transaction":
                tx_hash = response["result"]["tx_hash"]
                admitted_at[tx_hash] = now_us
                client.note_accepted(tx_hash)
                if tracker is not None and attempt > 0:
                    # The facade saw only the successful attempt; backdate
                    # the lifecycle to the first submission so the retry
                    # segment of the waterfall carries the backoff time.
                    tracker.note_submission(tx_hash, first_us, attempt + 1)
            else:
                reads_ok += 1
            return
        data = error.get("data") or {}
        reason = data.get("reason", f"code{error['code']}")
        if method != "send_transaction":
            reads_shed += 1
            return
        rejected[reason] = rejected.get(reason, 0) + 1
        if reason == "backpressure":
            backpressure_events += 1
        if data.get("retryable"):
            delay = client.retry_delay_us(
                attempt, data.get("retry_after_us", 0.0)
            )
            if delay is not None:
                push(
                    now_us + delay,
                    "retry",
                    (client, request, attempt + 1, first_us),
                )

    def record_block(produced, now_us: float) -> None:
        outcome = produced.outcome
        for entry in produced.shed:
            shed["0x" + entry.tx_hash.hex()] = "expired"
        for entry in produced.stale:
            shed["0x" + entry.tx_hash.hex()] = "stale-nonce"
        if outcome is None:
            return
        for entry in produced.entries:
            tx_hash = "0x" + entry.tx_hash.hex()
            if tx_hash in committed:
                divergences.append(f"double commit of {tx_hash}")
            committed[tx_hash] = outcome.number
        live_roots.append(receipts_root(service.last_result.tx_results))
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
            advance_us=None,
        )
        if snapshot is not None:
            emit(snapshot)

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

        # Degradation watch: the four resilience fallback counters, read
        # as per-tick deltas; any increase snapshots the flight ring.
        degradation_seen = {
            name: registry.sum_by_name(name) for name in DEGRADATION_COUNTERS
        }
        last_now = 0.0
        while events:
            now_us, _, kind, payload = heapq.heappop(events)
            last_now = max(last_now, now_us)
            if kind == "tick":
                ticks += 1
                record_block(facade.produce_block(now_us), now_us)
                if recorder is not None:
                    for name in DEGRADATION_COUNTERS:
                        total = registry.sum_by_name(name)
                        if total > degradation_seen[name]:
                            recorder.trigger(f"degradation:{name}", now_us)
                        degradation_seen[name] = total
                if ticks < config.blocks:
                    push(now_us + interval, "tick", None)
            elif kind == "arrival":
                client = payload
                if now_us < horizon_us:
                    serve(client, client.make_request(now_us), now_us, 0, now_us)
                    nxt = client.next_arrival(now_us)
                    if nxt < horizon_us:
                        push(nxt, "arrival", client)
            else:  # retry
                client, request, attempt, first_us = payload
                if now_us < horizon_us:
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
        if waterfall_opened is not None:
            waterfall_opened.close()
    if trace_out is not None and tracker is not None:
        trace = tracker.to_chrome_trace()
        if trace is not None:
            with open(trace_out, "w") as handle:
                json.dump(trace, handle, sort_keys=True, indent=1)
                handle.write("\n")

    # -- conservation ----------------------------------------------------
    pending = {"0x" + h.hex() for h in mempool.pending_hashes()}
    admitted = set(admitted_at)
    accounted = set(committed) | set(shed) | pending
    for tx_hash in sorted(admitted - accounted):
        divergences.append(f"admitted tx lost: {tx_hash}")
    for tx_hash in sorted(set(committed) & set(shed)):
        divergences.append(f"tx both committed and shed: {tx_hash}")
    for tx_hash, reason in sorted(shed.items()):
        if not reason:
            divergences.append(f"untyped shed of {tx_hash}")
    for reason in rejected:
        if not reason:
            divergences.append("untyped rejection observed")

    # -- serial equivalence ---------------------------------------------
    serial = make_executor("serial", 1)
    for index, block in enumerate(facade.committed_blocks):
        result = serial.execute_block(genesis, block.txs, block.env)
        serial.commit_block(genesis, block.number, result)
        root = receipts_root(result.tx_results)
        if root != live_roots[index]:
            divergences.append(
                f"receipts root diverges from serial at block {block.number}"
            )
    if genesis.fingerprint() != chain.world.fingerprint():
        divergences.append("final state diverges from serial replay")

    kinds = registry.kinds()
    counters: dict = {}
    for series, value in registry.as_dict().items():
        if kinds.get(series) != "counter" or not value:
            continue
        base = series.split("{", 1)[0]
        counters[base] = counters.get(base, 0) + value

    shed_by_reason: dict[str, int] = {}
    for reason in shed.values():
        shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1

    return IngressReport(
        executor=config.executor,
        threads=config.threads,
        seed=config.seed,
        blocks_committed=service.blocks_committed,
        requests=transport.requests,
        submitted=sum(c.submitted for c in fleet) + sum(c.retries for c in fleet),
        admitted=len(admitted),
        committed=len(committed),
        pending=len(pending),
        shed=shed_by_reason,
        rejected=dict(sorted(rejected.items())),
        reads_ok=reads_ok,
        reads_shed=reads_shed,
        retries=sum(c.retries for c in fleet),
        gave_up=sum(c.gave_up for c in fleet),
        backpressure_events=backpressure_events,
        circuit_opened=int(counters.get("rpc_circuit_opened_total", 0)),
        divergences=divergences,
        summary=telemetry.summary(),
        counters=counters,
        lifecycle=tracker.report().as_dict() if tracker is not None else None,
        slo=slo.summary() if slo is not None else None,
        flight=recorder.as_dict() if recorder is not None else None,
    )
