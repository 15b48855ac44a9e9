"""The ingress harness: a seeded client fleet against the served chain.

``run_fleet`` is the one fleet loop.  It merges two event streams on one
simulated clock — open-loop client arrivals
(:mod:`repro.workloads.clients`) and block-production ticks — and drives
every request through the full serving stack: JSON text round trip
(:class:`SimTransport`), dispatcher, facade, admission control, mempool,
:meth:`ChainService.ingest_block`.  Two harnesses call it, each over its
own chain: ``run_ingress`` here, and ``repro soak --loadgen``
(:func:`repro.service.run_soak` with ``loadgen_clients``).

``run_ingress`` is to the serving stack what ``run_soak`` is to the
execution stack: deterministic end to end (same config -> byte-identical
JSONL), with three hard guarantees checked on every run and reported as
divergences when violated:

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
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field

from ..executors import make_executor
from ..mempool.pool import Mempool, MempoolConfig
from ..obs.lifecycle import (
    DEGRADATION_COUNTERS,
    FlightRecorder,
    LifecycleTracker,
    SloConfig,
    SloMonitor,
    describe_serving,
)
from ..obs.metrics import HARNESS_LABEL_LIMIT, MetricsRegistry, fold_counters
from ..obs.streaming import SoakTelemetry, snapshot_sink
from ..resilience import fault_plan_factory
from ..service.chain_service import ChainService, SoakObserver
from ..state.receipts import receipts_root
from ..workloads.block import ChainSpec, build_chain
from ..workloads.clients import ClientSpec, build_fleet
from .dispatcher import RpcDispatcher
from .facade import RpcConfig, RpcFacade, ingress_backoff_policy
from .transport import SimTransport

#: Where the offered-load spike sits, as fractions of the run's span.
SPIKE_WINDOW = (0.4, 0.7)


def fleet_spec(
    clients: int,
    *,
    txs_per_block: int,
    block_interval_us: float,
    span_us: float,
    rate_multiplier: float,
    seed: int,
    **knobs,
) -> ClientSpec:
    """A fleet offering ``rate_multiplier`` x the sustainable rate.

    The sustainable rate is ``txs_per_block`` per ``block_interval_us``;
    a ``spike_multiplier`` in ``knobs`` applies over :data:`SPIKE_WINDOW`
    of ``span_us``.  Other ``knobs`` are :class:`ClientSpec` fields.
    """
    sustainable_tps = txs_per_block / (block_interval_us / 1e6)
    spike_from, spike_until = SPIKE_WINDOW
    return ClientSpec(
        clients=clients,
        base_rate_tps=rate_multiplier * sustainable_tps,
        spike_from_us=spike_from * span_us,
        spike_until_us=spike_until * span_us,
        seed=seed,
        **knobs,
    )


@dataclass(slots=True)
class IngressConfig:
    """Everything an ingress run depends on (and nothing wall-clock).

    ``rate_multiplier`` is offered load over the sustainable rate
    (``txs_per_block / block_interval``); ``spike_multiplier`` boosts it
    further inside the :data:`SPIKE_WINDOW` fraction of the run.
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
    read_share: float = 0.15
    malformed_share: float = 0.0
    nonce_gap_share: float = 0.0
    # consumer
    consumer_slowdown: float = 1.0
    # admission
    mempool: MempoolConfig = field(default_factory=MempoolConfig)
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
    # (a SloConfig) defaults to the stock objectives.
    lifecycle: bool = True
    slo: SloConfig | None = None

    def client_spec(self) -> ClientSpec:
        return fleet_spec(
            self.clients,
            txs_per_block=self.txs_per_block,
            block_interval_us=self.block_interval_us,
            span_us=self.blocks * self.block_interval_us * self.consumer_slowdown,
            rate_multiplier=self.rate_multiplier,
            seed=self.seed,
            spike_multiplier=self.spike_multiplier,
            read_share=self.read_share,
            malformed_share=self.malformed_share,
            nonce_gap_share=self.nonce_gap_share,
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
        lines.extend(describe_serving(self.lifecycle, self.slo, self.flight))
        if self.divergences:
            lines.append("  DIVERGENCES:")
            lines.extend(f"    - {d}" for d in self.divergences)
        else:
            lines.append(
                "  certified: conservation + serial equivalence + typed sheds"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class FleetRun:
    """What one :func:`run_fleet` session leaves for its harness."""

    facade: RpcFacade
    transport: SimTransport
    fleet: list
    telemetry: SoakTelemetry
    tracker: LifecycleTracker | None
    slo: SloMonitor | None
    recorder: FlightRecorder | None
    admitted: set = field(default_factory=set)
    rejected: dict = field(default_factory=dict)  # typed reason -> count
    reads_ok: int = 0
    reads_shed: int = 0
    backpressure_events: int = 0

    def sections(self) -> dict:
        """The ``lifecycle`` / ``slo`` / ``flight`` report sections."""
        return {
            "lifecycle": (
                self.tracker.report().as_dict() if self.tracker is not None else None
            ),
            "slo": self.slo.summary() if self.slo is not None else None,
            "flight": self.recorder.as_dict() if self.recorder is not None else None,
        }


def run_fleet(
    service: ChainService,
    registry: MetricsRegistry,
    client_spec: ClientSpec,
    *,
    rpc_config: RpcConfig,
    blocks: int,
    interval_us: float,
    window_blocks: int,
    lifecycle: bool,
    slo_config: SloConfig | None,
    mempool_config: MempoolConfig | None = None,
    db=None,
    trace: bool = False,
    waterfalls=None,
    out=None,
    progress=None,
    on_block=None,
) -> FleetRun:
    """Serve ``client_spec``'s fleet against ``service`` for ``blocks`` ticks.

    Production ticks fire every ``interval_us``; arrivals and retries stop
    at ``blocks * interval_us``.  Telemetry windows of ``window_blocks``
    (with the cache section when ``db`` is given) stream to ``out`` and
    ``progress`` as in :func:`~repro.obs.streaming.snapshot_sink`.  With
    ``lifecycle`` the run carries a tracker (``trace`` keeps serving-lane
    spans, ``waterfalls`` is a writable that receives every terminal
    waterfall), an SLO monitor and a flight recorder.  ``on_block``, when
    given, sees every :class:`~repro.rpc.facade.ProducedBlock` first.
    """
    chain = service.chain
    mempool = Mempool(
        mempool_config if mempool_config is not None else MempoolConfig(),
        chain.world,
        metrics=registry,
    )
    tracker = slo = recorder = None
    if lifecycle:
        recorder = FlightRecorder()
        slo_config = slo_config or SloConfig()
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
        tracker = LifecycleTracker(
            metrics=registry,
            slo=slo,
            recorder=recorder,
            trace=trace,
            sink=waterfalls,
        )
    facade = RpcFacade(
        service, mempool, config=rpc_config, metrics=registry, lifecycle=tracker
    )
    transport = SimTransport(RpcDispatcher(facade, metrics=registry))
    fleet = build_fleet(
        client_spec, chain.accounts, ingress_backoff_policy(), chain.env.chain_id
    )
    telemetry = SoakTelemetry(
        window_blocks=window_blocks,
        registry=registry,
        db=db,
        lifecycle=tracker,
        slo=slo,
    )
    run = FleetRun(facade, transport, fleet, telemetry, tracker, slo, recorder)

    # Heap entries are (time_us, seq, kind, payload); seq is the global
    # deterministic tie-break.
    events: list = []
    seq = 0

    def push(at_us: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(events, (at_us, seq, kind, payload))
        seq += 1

    horizon_us = blocks * interval_us
    for client in fleet:
        push(client.next_arrival(0.0), "arrival", client)
    push(interval_us, "tick", None)

    def serve(
        client, request: dict, now_us: float, attempt: int, first_us: float
    ) -> None:
        response = transport.request(request, now_us)
        error = response.get("error")
        method = request["method"]
        if error is None:
            if method == "send_transaction":
                tx_hash = response["result"]["tx_hash"]
                run.admitted.add(tx_hash)
                client.note_accepted(tx_hash)
                if tracker is not None and attempt > 0:
                    # The facade saw only the successful attempt; backdate
                    # the lifecycle to the first submission so the retry
                    # segment of the waterfall carries the backoff time.
                    tracker.note_submission(tx_hash, first_us, attempt + 1)
            else:
                run.reads_ok += 1
            return
        if method != "send_transaction":
            run.reads_shed += 1
            return
        data = error.get("data") or {}
        reason = data.get("reason", f"code{error['code']}")
        run.rejected[reason] = run.rejected.get(reason, 0) + 1
        if reason == "backpressure":
            run.backpressure_events += 1
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

    with snapshot_sink(out, progress) as emit:
        # Degradation watch: the four resilience fallback counters, read
        # as per-tick deltas; any increase snapshots the flight ring.
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
                if on_block is not None:
                    on_block(produced)
                outcome = produced.outcome
                if outcome is not None:
                    snapshot = telemetry.record_block(
                        outcome.number,
                        tx_count=outcome.tx_count,
                        gas_used=outcome.gas_used,
                        latency_us=outcome.latency_us,
                        tx_latencies_us=[
                            now_us + outcome.latency_us - entry.admitted_at_us
                            for entry in produced.entries
                        ],
                        advance_us=outcome.advance_us,
                    )
                    if snapshot is not None:
                        emit(snapshot)
                if recorder is not None:
                    for name in DEGRADATION_COUNTERS:
                        total = registry.sum_by_name(name)
                        if total > degradation_seen[name]:
                            recorder.trigger(f"degradation:{name}", now_us)
                        degradation_seen[name] = total
                if ticks < blocks:
                    push(now_us + interval_us, "tick", None)
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
            if ticks >= blocks:
                break
        if slo is not None:
            slo.finalize(last_now)
        tail = telemetry.finish()
        if tail is not None:
            emit(tail)
    return run


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
    registry = MetricsRegistry(label_limit=HARNESS_LABEL_LIMIT)
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
        fault_plan_factory=fault_plan_factory(
            "ingress", config.seed, config.scenario, config.fault_config
        ),
        pipeline=pipeline,
        chain=chain,
    )

    committed: dict[str, int] = {}
    shed: dict[str, str] = {}
    live_roots: list[bytes] = []
    divergences: list[str] = []

    def account(produced) -> None:
        for entry in produced.shed:
            shed["0x" + entry.tx_hash.hex()] = "expired"
        for entry in produced.stale:
            shed["0x" + entry.tx_hash.hex()] = "stale-nonce"
        if produced.outcome is None:
            return
        for entry in produced.entries:
            tx_hash = "0x" + entry.tx_hash.hex()
            if tx_hash in committed:
                divergences.append(f"double commit of {tx_hash}")
            committed[tx_hash] = produced.outcome.number
        live_roots.append(receipts_root(service.last_result.tx_results))

    with ExitStack() as stack:
        if config.lifecycle and isinstance(waterfalls, str):
            waterfalls = stack.enter_context(open(waterfalls, "w"))
        run = run_fleet(
            service,
            registry,
            config.client_spec(),
            rpc_config=RpcConfig(
                block_txs=config.txs_per_block,
                block_interval_us=config.block_interval_us,
                record_blocks=True,
            ),
            blocks=config.blocks,
            interval_us=config.block_interval_us * config.consumer_slowdown,
            window_blocks=config.window_blocks,
            mempool_config=config.mempool,
            lifecycle=config.lifecycle,
            slo_config=config.slo,
            trace=trace_out is not None,
            waterfalls=waterfalls,
            out=out,
            progress=progress,
            on_block=account,
        )
    if trace_out is not None and run.tracker is not None:
        trace = run.tracker.to_chrome_trace()
        if trace is not None:
            with open(trace_out, "w") as handle:
                json.dump(trace, handle, sort_keys=True, indent=1)
                handle.write("\n")

    # -- conservation ----------------------------------------------------
    pending = {"0x" + h.hex() for h in run.facade.mempool.pending_hashes()}
    accounted = set(committed) | set(shed) | pending
    for tx_hash in sorted(run.admitted - accounted):
        divergences.append(f"admitted tx lost: {tx_hash}")
    for tx_hash in sorted(set(committed) & set(shed)):
        divergences.append(f"tx both committed and shed: {tx_hash}")
    for tx_hash, reason in sorted(shed.items()):
        if not reason:
            divergences.append(f"untyped shed of {tx_hash}")
    for reason in run.rejected:
        if not reason:
            divergences.append("untyped rejection observed")

    # -- serial equivalence ---------------------------------------------
    serial = make_executor("serial", 1)
    for index, block in enumerate(run.facade.committed_blocks):
        result = serial.execute_block(genesis, block.txs, block.env)
        serial.commit_block(genesis, block.number, result)
        root = receipts_root(result.tx_results)
        if root != live_roots[index]:
            divergences.append(
                f"receipts root diverges from serial at block {block.number}"
            )
    if genesis.fingerprint() != chain.world.fingerprint():
        divergences.append("final state diverges from serial replay")

    counters = fold_counters(registry)
    shed_by_reason: dict[str, int] = {}
    for reason in shed.values():
        shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
    fleet = run.fleet
    return IngressReport(
        executor=config.executor,
        threads=config.threads,
        seed=config.seed,
        blocks_committed=service.blocks_committed,
        requests=run.transport.requests,
        submitted=sum(c.submitted for c in fleet) + sum(c.retries for c in fleet),
        admitted=len(run.admitted),
        committed=len(committed),
        pending=len(pending),
        shed=shed_by_reason,
        rejected=dict(sorted(run.rejected.items())),
        reads_ok=run.reads_ok,
        reads_shed=run.reads_shed,
        retries=sum(c.retries for c in fleet),
        gave_up=sum(c.gave_up for c in fleet),
        backpressure_events=run.backpressure_events,
        circuit_opened=int(counters.get("rpc_circuit_opened_total", 0)),
        divergences=divergences,
        summary=run.telemetry.summary(),
        counters=counters,
        **run.sections(),
    )
