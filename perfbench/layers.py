"""Which public functions are each layer's boundary, and the per-layer metrics.

A layer is one module of ``repro``.  ``instrument`` wraps its public
functions with a :class:`~spans.SpanRecorder`; ``layer_metrics`` turns the
recorded spans, plus counters the program keeps itself (executor stats,
block-cache and journal counters), into the per-layer metrics the
benchmark reports from a traced run.
"""

from __future__ import annotations

from statistics import median

import repro.crypto
import repro.rlp
from repro.core import executor as core_executor
from repro.db.kvstore import SimulatedDiskKV
from repro.durability import DurableCommitPipeline
from repro.evm import interpreter
from repro.mempool.pool import Mempool
from repro.rpc.dispatcher import RpcDispatcher
from repro.rpc.facade import RpcFacade
from repro.sim.machine import SimMachine
from repro.state.world import WorldState
from repro.trie.mpt import MerklePatriciaTrie


def instrument(recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    wrap = recorder.wrap
    wrap(repro.crypto, "keccak256", "crypto.keccak", note=lambda a, r: len(a[0]))
    wrap(repro.crypto, "keccak256_cached", "crypto.keccak_cached")
    wrap(interpreter.EVM, "call", "evm.call")
    wrap(interpreter, "valid_jumpdests", "evm.valid_jumpdests")
    wrap(core_executor.ParallelEVMExecutor, "execute_block", "core.execute_block")
    wrap(core_executor, "redo", "core.redo", note=lambda a, r: int(r.success))
    wrap(SimMachine, "run", "sim.run")
    wrap(MerklePatriciaTrie, "put", "trie.put")
    wrap(MerklePatriciaTrie, "root_hash", "trie.root_hash")
    wrap(repro.rlp, "encode", "rlp.encode")
    wrap(WorldState, "state_root", "state.state_root")
    wrap(WorldState, "fingerprint", "state.fingerprint")
    wrap(WorldState, "apply", "state.apply")
    wrap(SimulatedDiskKV, "read", "db.read")
    wrap(DurableCommitPipeline, "commit", "durability.commit")
    wrap(Mempool, "add", "mempool.add")
    wrap(Mempool, "select", "mempool.select")
    wrap(RpcDispatcher, "handle", "rpc.handle")
    wrap(RpcFacade, "send_transaction", "rpc.send_transaction")
    wrap(RpcFacade, "get_balance", "rpc.get_balance")
    wrap(RpcFacade, "get_receipt", "rpc.get_receipt")
    wrap(RpcFacade, "produce_block", "rpc.produce_block")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "crypto.keccak.calls": "count",
    "crypto.keccak.self_ms": "ms",
    "crypto.keccak.bytes": "bytes",
    "crypto.keccak_cached.calls": "count",
    "crypto.keccak_cached.hit_ratio": "ratio",
    "evm.call.calls": "count",
    "evm.call.self_ms": "ms",
    "evm.valid_jumpdests.calls": "count",
    "evm.valid_jumpdests.self_ms": "ms",
    "evm.instructions": "count",
    "core.execute_block.ms": "ms",
    "core.redo.calls": "count",
    "core.redo.self_ms": "ms",
    "core.redo.success_ratio": "ratio",
    "core.executions_per_tx": "ratio",
    "core.log_entries_per_tx": "ratio",
    "sim.run.self_ms": "ms",
    "trie.put.calls": "count",
    "trie.root_hash.self_ms": "ms",
    "rlp.encode.calls": "count",
    "rlp.encode.self_ms": "ms",
    "state.state_root.ms": "ms",
    "state.fingerprint.calls": "count",
    "state.fingerprint.self_ms": "ms",
    "state.apply.self_ms": "ms",
    "db.read.calls": "count",
    "db.read.self_ms": "ms",
    "db.cache.hit_ratio": "ratio",
    "db.cache.evictions": "count",
    "durability.commit.ms": "ms",
    "durability.journal_bytes_per_tx": "bytes/tx",
    "mempool.add.calls": "count",
    "mempool.add.self_ms": "ms",
    "mempool.select.self_ms": "ms",
    "mempool.admit_ratio": "ratio",
    "rpc.handle.calls": "count",
    "rpc.send_transaction.us_p50": "us",
    "rpc.get_balance.us_p50": "us",
    "rpc.get_receipt.us_p50": "us",
    "rpc.produce_block.ms_p50": "ms",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(recorder, steps, before: dict, after: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything but the overhead).

    ``steps`` are the traced steps; ``before``/``after`` are
    ``workloads.program_counters`` read around them.  Span totals cover the
    whole traced region; the program's own counters are deltas over it.
    """
    totals = recorder.totals()
    empty = {"calls": 0, "ns": 0, "self_ns": 0, "childless": 0}

    def span(name: str) -> dict:
        return totals.get(name, empty)

    def p50_us(name: str) -> float:
        durations = recorder.durations_ns(name)
        return median(durations) / 1e3 if durations else 0.0

    txs = sum(step.txs for step in steps)
    stats: dict[str, float] = {}
    for step in steps:
        for key, value in step.stats.items():
            stats[key] = stats.get(key, 0) + value
    delta = {key: after[key] - before[key] for key in before}
    cache_reads = delta["cache_hits"] + delta["cache_misses"]
    cached = span("crypto.keccak_cached")
    redo = span("core.redo")
    add = span("mempool.add")
    return {
        "crypto.keccak.calls": span("crypto.keccak")["calls"],
        "crypto.keccak.self_ms": span("crypto.keccak")["self_ns"] / 1e6,
        "crypto.keccak.bytes": recorder.notes.get("crypto.keccak", 0),
        "crypto.keccak_cached.calls": cached["calls"],
        # A cached call that hashed nothing itself was served from memory.
        "crypto.keccak_cached.hit_ratio": _ratio(cached["childless"], cached["calls"]),
        "evm.call.calls": span("evm.call")["calls"],
        "evm.call.self_ms": span("evm.call")["self_ns"] / 1e6,
        "evm.valid_jumpdests.calls": span("evm.valid_jumpdests")["calls"],
        "evm.valid_jumpdests.self_ms": span("evm.valid_jumpdests")["self_ns"] / 1e6,
        "evm.instructions": stats.get("instructions_total", 0),
        "core.execute_block.ms": span("core.execute_block")["ns"] / 1e6,
        "core.redo.calls": redo["calls"],
        "core.redo.self_ms": redo["self_ns"] / 1e6,
        "core.redo.success_ratio": _ratio(
            recorder.notes.get("core.redo", 0), redo["calls"]
        ),
        "core.executions_per_tx": _ratio(stats.get("executions", 0), txs),
        "core.log_entries_per_tx": _ratio(stats.get("log_entries_total", 0), txs),
        "sim.run.self_ms": span("sim.run")["self_ns"] / 1e6,
        "trie.put.calls": span("trie.put")["calls"],
        "trie.root_hash.self_ms": span("trie.root_hash")["self_ns"] / 1e6,
        "rlp.encode.calls": span("rlp.encode")["calls"],
        "rlp.encode.self_ms": span("rlp.encode")["self_ns"] / 1e6,
        "state.state_root.ms": span("state.state_root")["ns"] / 1e6,
        "state.fingerprint.calls": span("state.fingerprint")["calls"],
        "state.fingerprint.self_ms": span("state.fingerprint")["self_ns"] / 1e6,
        "state.apply.self_ms": span("state.apply")["self_ns"] / 1e6,
        "db.read.calls": span("db.read")["calls"],
        "db.read.self_ms": span("db.read")["self_ns"] / 1e6,
        "db.cache.hit_ratio": _ratio(delta["cache_hits"], cache_reads),
        "db.cache.evictions": delta["cache_evictions"],
        "durability.commit.ms": span("durability.commit")["ns"] / 1e6,
        "durability.journal_bytes_per_tx": _ratio(delta["journal_bytes"], txs),
        "mempool.add.calls": add["calls"],
        "mempool.add.self_ms": add["self_ns"] / 1e6,
        "mempool.select.self_ms": span("mempool.select")["self_ns"] / 1e6,
        "mempool.admit_ratio": _ratio(
            add["calls"] - recorder.errors.get("mempool.add", 0), add["calls"]
        ),
        "rpc.handle.calls": span("rpc.handle")["calls"],
        "rpc.send_transaction.us_p50": p50_us("rpc.send_transaction"),
        "rpc.get_balance.us_p50": p50_us("rpc.get_balance"),
        "rpc.get_receipt.us_p50": p50_us("rpc.get_receipt"),
        "rpc.produce_block.ms_p50": p50_us("rpc.produce_block") / 1e3,
    }
