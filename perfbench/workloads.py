"""The benchmark's workloads: set-up, one timed step at a time, output checks.

Every workload drives only the program's public entry points and measures
wall time from outside, around the calls it times:

* ``BlockImport`` feeds seeded stream blocks through ``ChainService``
  (``import-large``, ``contention-roots``).  One step is one block:
  ``ChainService.run_block`` — execute plus commit, durable when a
  ``DurableCommitPipeline`` is attached — followed by
  ``WorldState.state_root`` when the node validates roots.
* ``ServeMixed`` drives a seeded open-loop client fleet through
  ``RpcDispatcher.handle`` as JSON text, with ``RpcFacade.produce_block``
  every 50 ms of simulated time (``serve-mixed``).  One step is
  everything up to and including one production tick; only the server
  side of each request (``handle``) and the tick are timed.

Inputs are a pure function of the seed.  Generating them (and the client
side of each request) happens between timed calls, never inside them.
``check`` re-executes everything serially from a genesis copy taken during
set-up and compares per-block write sets and the final state.
"""

from __future__ import annotations

import copy
import heapq
import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.concurrency import SerialExecutor
from repro.core.executor import ParallelEVMExecutor
from repro.durability import DurableCommitPipeline, MemoryMedium
from repro.mempool.pool import Mempool, MempoolConfig
from repro.rpc.dispatcher import RpcDispatcher
from repro.rpc.facade import RpcConfig, RpcFacade, ingress_backoff_policy
from repro.service.chain_service import ChainService, SoakObserver
from repro.state.keys import storage_key
from repro.workloads.block import ChainSpec, build_chain
from repro.workloads.clients import ClientSpec, build_fleet
from repro.workloads.stream import BlockStream, StreamSpec, build_stream_chain

#: Entries the simulated block cache holds on every workload.
BLOCK_CACHE_ENTRIES = 8192


@dataclass(slots=True)
class Step:
    """What one timed step did and how long its timed calls took."""

    busy_s: float  # wall time of every timed call in the step
    block_s: float | None  # wall time of the step's block, if one committed
    number: int | None  # that block's number
    txs: int
    requests: int
    makespan_us: float
    advance_us: float  # how far the block moved the service clock
    tx_latencies_us: list[float]
    stats: dict = field(default_factory=dict)


@dataclass(slots=True)
class Check:
    """The outcome of the serial re-execution and the other output checks."""

    attempted: int
    failed: int
    correct: bool
    serial_makespan_us: dict[int, float]
    problems: list[str]


class _FundingLog:
    """The block generator's world: records lazy-funding writes.

    ``BlockStream`` funds a token balance or allowance the first time a
    block needs it, if the slot is still zero.  Recording the writes here
    and applying them with the same zero test right before the block runs
    — on the live world and on the serial reference alike — keeps that
    meaning while making the blocks a pure function of the seed.
    """

    def __init__(self) -> None:
        self.writes: list[tuple[bytes, int, int]] = []

    def peek(self, key) -> int:
        return 0

    def set_storage(self, address: bytes, slot: int, value: int) -> None:
        self.writes.append((address, slot, value))


def _fund(world, funding) -> None:
    for address, slot, value in funding:
        if world.peek(storage_key(address, slot)) == 0:
            world.set_storage(address, slot, value)


class _Feed:
    """The service's block source: blocks prepared outside the timed call."""

    def __init__(self, chain, spec: StreamSpec) -> None:
        self.chain = chain
        self.spec = spec
        self.ready = None

    def block(self, number: int):
        block, self.ready = self.ready, None
        if block is None or block.number != number:
            raise RuntimeError(f"block {number} was not prepared")
        return block


def _writes_problems(label: str, live: dict, serial: dict) -> list[str]:
    if live == serial:
        return []
    keys = set(live) | set(serial)
    differing = sorted(
        str(key) for key in keys if live.get(key, None) != serial.get(key, None)
    )
    return [f"{label}: write set differs from serial on {len(differing)} "
            f"key(s), first {differing[:1]}"]


def program_counters(load) -> dict:
    """Counters the program keeps itself, read before and after a traced run."""
    cache = load.world.db.cache
    durability = load.executor.durability
    return {
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "journal_bytes": (
            durability.journal.bytes_written if durability is not None else 0
        ),
    }


class BlockImport:
    """A validator importing a chained block stream through ``ChainService``."""

    def __init__(
        self,
        seed: int,
        *,
        accounts: int,
        hot_recipient_share: float,
        hot_owner_share: float,
        threads: int,
        durable: bool,
        state_roots: bool,
        warmup_blocks: int,
    ) -> None:
        self.spec = StreamSpec(
            accounts=accounts,
            txs_per_block=40,
            hot_recipient_share=hot_recipient_share,
            hot_owner_share=hot_owner_share,
            seed=seed,
        )
        self.threads = threads
        self.durable = durable
        self.state_roots = state_roots
        self.warmup_blocks = warmup_blocks
        self.recorder = None

    def setup(self) -> None:
        spec = self.spec
        chain = build_stream_chain(spec, cache_capacity=BLOCK_CACHE_ENTRIES)
        self.world = chain.world
        self.reference = chain.world.clone()
        generator_chain = copy.copy(chain)
        generator_chain.world = self._funding = _FundingLog()
        self._stream = BlockStream(generator_chain, spec)
        self._feed = _Feed(chain, spec)
        observer = SoakObserver()
        self.executor = ParallelEVMExecutor(
            threads=self.threads,
            observer=observer,
            durability=DurableCommitPipeline(MemoryMedium()) if self.durable else None,
        )
        self.service = ChainService(self._feed, self.executor, observer=observer)
        # Inputs and outputs of every block, for the serial re-execution.
        self.inputs: list[tuple[object, list]] = []
        self.live_writes: list[dict] = []
        self.last_root: bytes | None = None
        for _ in range(self.warmup_blocks):
            self.step()

    def step(self) -> Step:
        service = self.service
        number = service.height
        start = len(self._funding.writes)
        block = self._stream.block(number)
        funding = self._funding.writes[start:]
        _fund(self.world, funding)
        self._feed.ready = block
        self.inputs.append((block, funding))
        recorder = self.recorder
        if recorder is not None:
            recorder.set_tag(number)
            recorder.active = True
        began = perf_counter()
        outcome = service.run_block()
        if self.state_roots:
            self.last_root = self.world.state_root()
        elapsed = perf_counter() - began
        if recorder is not None:
            recorder.active = False
        result = service.last_result
        self.live_writes.append(result.writes)
        # A tx commits when its last scheduled task ends, and is durable
        # once the block's journal commit that follows the makespan ends.
        return Step(
            busy_s=elapsed,
            block_s=elapsed,
            number=number,
            txs=outcome.tx_count,
            requests=1,
            makespan_us=outcome.makespan_us,
            advance_us=outcome.service_advance_us,
            tx_latencies_us=[
                end + outcome.commit_us for end in outcome.tx_latencies_us
            ],
            stats=result.stats,
        )

    def check(self) -> Check:
        serial = SerialExecutor(threads=1)
        world = self.reference
        problems: list[str] = []
        makespans: dict[int, float] = {}
        failed = 0
        for (block, funding), live in zip(self.inputs, self.live_writes):
            _fund(world, funding)
            result = serial.execute_block(world, block.txs, block.env)
            serial.commit_block(world, block.number, result)
            makespans[block.number] = result.makespan_us
            found = _writes_problems(f"block {block.number}", live, result.writes)
            if found:
                failed += 1
                problems.extend(found)
        if self.state_roots:
            final_ok = world.state_root() == self.last_root
            what = "state root"
        else:
            final_ok = world.fingerprint() == self.world.fingerprint()
            what = "state fingerprint"
        if not final_ok:
            problems.append(f"final {what} differs from serial re-execution")
        return Check(
            attempted=len(self.inputs),
            failed=failed,
            correct=final_ok and failed == 0,
            serial_makespan_us=makespans,
            problems=problems,
        )


class ServeMixed:
    """An open-loop client fleet against the JSON-RPC serving stack."""

    BLOCK_INTERVAL_US = 50_000.0
    TXS_PER_BLOCK = 16

    def __init__(
        self,
        seed: int,
        *,
        accounts: int,
        clients: int,
        read_share: float,
        threads: int,
        warmup_blocks: int,
    ) -> None:
        self.seed = seed
        self.accounts = accounts
        self.clients = clients
        self.read_share = read_share
        self.threads = threads
        self.warmup_blocks = warmup_blocks
        self.recorder = None

    def setup(self) -> None:
        chain = build_chain(
            ChainSpec(
                accounts=self.accounts,
                tokens=2,
                proxied_tokens=2,
                amm_pairs=1,
                seed=self.seed,
            )
        )
        chain.world.db.cache.capacity = BLOCK_CACHE_ENTRIES
        chain.world.db.cache.clear()
        self.world = chain.world
        self.reference = chain.world.clone()
        self.executor = ParallelEVMExecutor(threads=self.threads)
        self.service = ChainService(None, self.executor, chain=chain)
        self.mempool = Mempool(MempoolConfig(), chain.world)
        self.facade = RpcFacade(
            self.service,
            self.mempool,
            config=RpcConfig(
                block_txs=self.TXS_PER_BLOCK,
                block_interval_us=self.BLOCK_INTERVAL_US,
                record_blocks=True,
            ),
        )
        self.dispatcher = RpcDispatcher(self.facade)
        # Offered load is the sustainable rate: one full block per tick.
        sustainable_tps = self.TXS_PER_BLOCK / (self.BLOCK_INTERVAL_US / 1e6)
        self.fleet = build_fleet(
            ClientSpec(
                clients=self.clients,
                base_rate_tps=sustainable_tps,
                read_share=self.read_share,
                seed=self.seed,
            ),
            chain.accounts,
            ingress_backoff_policy(),
            chain.env.chain_id,
        )
        self._events: list = []
        self._seq = 0
        for client in self.fleet:
            self._push(client.next_arrival(0.0), "arrival", client)
        self._push(self.BLOCK_INTERVAL_US, "tick", None)
        self.requests = 0
        self.rpc_errors: dict[str, int] = {}
        self.due_us: dict[str, float] = {}
        self.committed: dict[str, int] = {}
        self.shed: set[str] = set()
        self.live_writes: dict[int, dict] = {}
        self.double_commits = 0
        for _ in range(self.warmup_blocks):
            self.step()

    def _push(self, at_us: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (at_us, self._seq, kind, payload))
        self._seq += 1

    def _serve(self, client, request, now_us, attempt, first_us) -> float:
        """One request through the wire; returns the timed server seconds."""
        raw = json.dumps(request, sort_keys=True)
        recorder = self.recorder
        if recorder is not None:
            recorder.set_tag(request["id"])
            recorder.active = True
        began = perf_counter()
        reply = self.dispatcher.handle(raw, now_us)
        elapsed = perf_counter() - began
        if recorder is not None:
            recorder.active = False
        self.requests += 1
        response = json.loads(reply)
        error = response.get("error")
        if error is None:
            if request["method"] == "send_transaction":
                tx_hash = response["result"]["tx_hash"]
                self.due_us[tx_hash] = first_us
                client.note_accepted(tx_hash)
            return elapsed
        data = error.get("data") or {}
        reason = data.get("reason", f"code{error['code']}")
        self.rpc_errors[reason] = self.rpc_errors.get(reason, 0) + 1
        if request["method"] == "send_transaction" and data.get("retryable"):
            delay = client.retry_delay_us(attempt, data.get("retry_after_us", 0.0))
            if delay is not None:
                self._push(
                    now_us + delay, "retry", (client, request, attempt + 1, first_us)
                )
        return elapsed

    def step(self) -> Step:
        busy = 0.0
        requests_before = self.requests
        while True:
            now_us, _, kind, payload = heapq.heappop(self._events)
            if kind == "arrival":
                client = payload
                busy += self._serve(client, client.make_request(now_us), now_us, 0, now_us)
                self._push(client.next_arrival(now_us), "arrival", client)
            elif kind == "retry":
                client, request, attempt, first_us = payload
                busy += self._serve(client, request, now_us, attempt, first_us)
            else:
                break
        recorder = self.recorder
        if recorder is not None:
            recorder.set_tag(f"tick@{now_us:.0f}")
            recorder.active = True
        began = perf_counter()
        produced = self.facade.produce_block(now_us)
        elapsed = perf_counter() - began
        if recorder is not None:
            recorder.active = False
        self._push(now_us + self.BLOCK_INTERVAL_US, "tick", None)
        for entry in produced.shed + produced.stale:
            self.shed.add("0x" + entry.tx_hash.hex())
        outcome = produced.outcome
        latencies: list[float] = []
        stats: dict = {}
        if outcome is not None:
            for entry in produced.entries:
                tx_hash = "0x" + entry.tx_hash.hex()
                if tx_hash in self.committed:
                    self.double_commits += 1
                self.committed[tx_hash] = outcome.number
                # From when the client first meant to send it to its commit.
                latencies.append(now_us + outcome.latency_us - self.due_us[tx_hash])
            result = self.service.last_result
            self.live_writes[outcome.number] = result.writes
            stats = result.stats
        return Step(
            busy_s=busy + elapsed,
            block_s=elapsed if outcome is not None else None,
            number=outcome.number if outcome is not None else None,
            txs=outcome.tx_count if outcome is not None else 0,
            requests=self.requests - requests_before,
            makespan_us=outcome.makespan_us if outcome is not None else 0.0,
            advance_us=outcome.service_advance_us if outcome is not None else 0.0,
            tx_latencies_us=latencies,
            stats=stats,
        )

    def check(self) -> Check:
        problems: list[str] = []
        pending = {"0x" + h.hex() for h in self.mempool.pending_hashes()}
        admitted = set(self.due_us)
        committed = set(self.committed)
        lost = admitted - (committed | pending | self.shed)
        if lost:
            problems.append(f"{len(lost)} admitted tx(s) neither committed, "
                            "pending nor shed")
        if committed & self.shed:
            problems.append("a tx was both committed and shed")
        if (committed | pending | self.shed) - admitted:
            problems.append("a committed, pending or shed tx was never admitted")
        if self.double_commits:
            problems.append(f"{self.double_commits} tx(s) committed twice")
        conserved = not problems

        serial = SerialExecutor(threads=1)
        world = self.reference
        makespans: dict[int, float] = {}
        failed = 0
        for block in self.facade.committed_blocks:
            result = serial.execute_block(world, block.txs, block.env)
            serial.commit_block(world, block.number, result)
            makespans[block.number] = result.makespan_us
            found = _writes_problems(
                f"block {block.number}", self.live_writes[block.number], result.writes
            )
            if found:
                failed += 1
                problems.extend(found)
        final_ok = world.state_root() == self.world.state_root()
        if not final_ok:
            problems.append("final state root differs from serial replay")
        errors = sum(self.rpc_errors.values())
        if errors:
            problems.append(f"RPC errors: {self.rpc_errors}")
        return Check(
            attempted=self.requests + len(self.facade.committed_blocks),
            failed=failed + errors,
            correct=conserved and final_ok and failed == 0,
            serial_makespan_us=makespans,
            problems=problems,
        )


#: Workload name -> (factory(seed) -> workload, blocks in the sim window).
#: The sim window is the first ``blocks`` timed steps: every run covers at
#: least that many, the ``sim_*`` metrics are computed over exactly those,
#: and a traced run times exactly those.
WORKLOADS = {
    "import-large": (
        lambda seed: BlockImport(
            seed,
            accounts=20_000,
            hot_recipient_share=0.25,
            hot_owner_share=0.6,
            threads=8,
            durable=True,
            state_roots=False,
            warmup_blocks=5,
        ),
        80,
    ),
    "contention-roots": (
        lambda seed: BlockImport(
            seed,
            accounts=500,
            hot_recipient_share=0.8,
            hot_owner_share=0.9,
            threads=16,
            durable=False,
            state_roots=True,
            warmup_blocks=3,
        ),
        30,
    ),
    "serve-mixed": (
        lambda seed: ServeMixed(
            seed,
            accounts=192,
            clients=8,
            read_share=0.5,
            threads=4,
            warmup_blocks=20,
        ),
        300,
    ),
}
