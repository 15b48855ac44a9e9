"""Crash recovery: latest snapshot + committed-tail replay.

``recover`` rebuilds the world state from nothing but the durable medium
and a genesis factory:

1. restore the newest *valid* snapshot (torn/corrupt candidates are
   rejected by CRC and skipped), or genesis when none exists;
2. scan the journal, truncating a torn tail (and, under the default
   ``corrupt_tail_policy="truncate"``, a corrupt interior — the degraded
   result is then exactly the last certified prefix);
3. replay every *committed* block in order — TXWRITE records in block
   order, then the SETTLE residual — verifying the COMMIT marker's delta
   digest before applying and the SEAL record's post-state fingerprint
   after;
4. discard an unterminated trailing block (BEGIN without COMMIT) and
   truncate its frames, so the journal left behind is again a clean
   prefix of history.

The result is the atomicity guarantee the crash fuzzer certifies: after a
crash at *any* site, the recovered state is the pre-block or post-block
state of the interrupted commit — never a torn hybrid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import JournalCorruptionError, RecoveryError
from ..resilience.policy import RecoveryPolicy
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..state.world import WorldState
from .checkpoint import latest_valid_snapshot
from .commit import delta_digest
from .journal import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    SealRecord,
    SettleRecord,
    TxWriteRecord,
    UndoRecord,
    scan_journal,
)

_MISSING = object()


@dataclass(slots=True)
class ReplayedBlock:
    """One fully-journaled block reconstructed from the frames."""

    number: int
    begin_offset: int
    tx_count: int
    pre_root: bytes
    writes: dict = field(default_factory=dict)
    undo: dict = field(default_factory=dict)
    committed: bool = False
    delta_digest: bytes = b""
    post_root: bytes | None = None  # from the SEAL record, when present


@dataclass(slots=True)
class RecoveryResult:
    """Everything ``recover`` learned while rebuilding the world."""

    world: WorldState
    last_committed_block: int | None
    blocks_replayed: int
    snapshot_block: int | None
    records_scanned: int
    truncated_bytes: int
    discarded_blocks: int
    corrupt_truncated: bool
    replay_us: float

    def describe(self) -> str:
        base = (
            f"recovered to block {self.last_committed_block}"
            if self.last_committed_block is not None
            else "recovered to genesis"
        )
        parts = [
            base,
            f"{self.blocks_replayed} block(s) replayed",
            f"{self.records_scanned} journal records",
        ]
        if self.snapshot_block is not None:
            parts.append(f"from snapshot @{self.snapshot_block}")
        if self.truncated_bytes:
            parts.append(f"{self.truncated_bytes} torn byte(s) truncated")
        if self.discarded_blocks:
            parts.append(f"{self.discarded_blocks} unterminated block(s) discarded")
        if self.corrupt_truncated:
            parts.append("corrupt interior truncated (degraded to prefix)")
        return ", ".join(parts)


class ReplayMismatch(Exception):
    """A replayed block contradicts its COMMIT digest or SEAL root.

    Recovery re-raises it as :class:`RecoveryError`, a replica as
    :class:`~repro.errors.ReplicaDivergence`.
    """

    def __init__(self, block_number: int, detail: str) -> None:
        super().__init__(f"block {block_number}: {detail}")
        self.block_number = block_number
        self.detail = detail


class BlockFold:
    """The BEGIN/COMMIT/SEAL block protocol, folded one record at a time.

    ``open`` is the block whose frames are streaming in.  :meth:`step`
    returns the block a record completes, if any, and raises
    :class:`JournalCorruptionError` at the offending frame's offset on a
    BEGIN or CHECKPT inside an uncommitted block, on a record for a block
    that is not open, and on a SEAL before the COMMIT marker.
    """

    def __init__(self) -> None:
        self.open: ReplayedBlock | None = None

    def close(self, offset: int) -> ReplayedBlock | None:
        """End the open block at a block boundary; returns it, if any.

        A committed block without a SEAL is legitimate history: the
        process died between the marker and the seal, recovery replayed
        it, and journaling continued behind it.
        """
        block = self.open
        if block is not None and not block.committed:
            raise JournalCorruptionError(
                offset, "block boundary inside an uncommitted block"
            )
        self.open = None
        return block

    def step(self, offset: int, record) -> ReplayedBlock | None:
        """Fold the record whose frame starts at ``offset``."""
        if isinstance(record, (BeginRecord, CheckpointRecord)):
            closed = self.close(offset)
            if isinstance(record, BeginRecord):
                self.open = ReplayedBlock(
                    number=record.block_number,
                    begin_offset=offset,
                    tx_count=record.tx_count,
                    pre_root=record.pre_root,
                )
            return closed
        block = self.open
        if block is None or record.block_number != block.number:
            raise JournalCorruptionError(
                offset, "record sequence violates the BEGIN/COMMIT protocol"
            )
        if isinstance(record, (TxWriteRecord, SettleRecord)):
            block.writes.update(record.writes)
        elif isinstance(record, UndoRecord):
            block.undo = record.preimages
        elif isinstance(record, CommitRecord):
            block.committed = True
            block.delta_digest = record.delta_digest
        elif isinstance(record, SealRecord):
            if not block.committed:
                raise JournalCorruptionError(offset, "SEAL before the COMMIT marker")
            block.post_root = record.post_root
            self.open = None
            return block
        return None


def group_blocks(records) -> tuple[list[ReplayedBlock], int | None]:
    """Fold a record stream into per-block structures.

    Returns ``(blocks, corrupt_offset)``: ``corrupt_offset`` is the offset
    of the first record that violates the block protocol, or None.
    ``records`` is the ``(offset, record)`` frame list from
    :func:`scan_journal`; a trailing open block ends the list.
    """
    blocks: list[ReplayedBlock] = []
    fold = BlockFold()
    try:
        for offset, record in records:
            closed = fold.step(offset, record)
            if closed is not None:
                blocks.append(closed)
    except JournalCorruptionError as violation:
        return blocks, violation.offset
    if fold.open is not None:
        blocks.append(fold.open)
    return blocks, None


def replay_committed(
    world: WorldState, block: ReplayedBlock, cost_model: CostModel
) -> float:
    """Verify a committed block's delta digest, then apply its writes.

    Returns the simulated replay cost (``commit_key_us`` per write plus one
    fsync); raises :class:`ReplayMismatch` before touching ``world`` when
    the writes do not match the COMMIT marker's digest.
    """
    if delta_digest(block.pre_root, block.writes) != block.delta_digest:
        raise ReplayMismatch(
            block.number,
            "replayed delta does not match the COMMIT marker's digest",
        )
    world.apply(block.writes)
    return len(block.writes) * cost_model.commit_key_us + cost_model.fsync_us


def verify_seal(world: WorldState, block: ReplayedBlock) -> None:
    """Check ``world`` against the block's SEAL fingerprint, when sealed."""
    if block.post_root is not None and world.fingerprint() != block.post_root:
        raise ReplayMismatch(
            block.number,
            "post-replay state fingerprint does not match the sealed root",
        )


def recover(
    medium,
    genesis_factory,
    policy: RecoveryPolicy | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    metrics=None,
) -> RecoveryResult:
    """Rebuild the world state from the durable medium.

    ``genesis_factory`` is a zero-argument callable returning a fresh
    genesis :class:`WorldState` (used when no valid snapshot exists).
    ``policy.corrupt_tail_policy`` decides whether a corrupt journal
    interior degrades to the last certified prefix (``"truncate"``, the
    default) or raises :class:`JournalCorruptionError` (``"raise"``).
    Each replayed block's COMMIT digest and SEAL fingerprint are checked;
    a mismatch is a :class:`RecoveryError` (the journal lies about state —
    no prefix can be certified past that point).
    """
    policy = policy if policy is not None else RecoveryPolicy()

    snapshot = latest_valid_snapshot(medium, metrics=metrics)
    if snapshot is not None:
        snapshot_block, world = snapshot
    else:
        snapshot_block, world = None, genesis_factory()

    data = medium.read_journal()
    scan = scan_journal(data)
    corrupt_truncated = False
    truncated = 0
    if scan.tail_status == "corrupt":
        if policy.corrupt_tail_policy == "raise":
            raise JournalCorruptionError(scan.valid_length, scan.detail)
        corrupt_truncated = True
        if metrics is not None:
            metrics.counter("durability_corrupt_truncations").inc()
    if scan.valid_length < len(data):
        truncated = len(data) - scan.valid_length
        medium.truncate_journal(scan.valid_length)

    blocks, protocol_corrupt_offset = group_blocks(scan.frames)
    if protocol_corrupt_offset is not None:
        detail = "record sequence violates the BEGIN/COMMIT protocol"
        if policy.corrupt_tail_policy == "raise":
            raise JournalCorruptionError(protocol_corrupt_offset, detail)
        # Drop the violating suffix and recover on the now-shorter journal
        # (one recursion per violation, strictly shrinking — the retry
        # also discards any half-journaled block left before the cut).
        dropped = medium.journal_size() - protocol_corrupt_offset
        medium.truncate_journal(protocol_corrupt_offset)
        if metrics is not None:
            metrics.counter("durability_corrupt_truncations").inc()
        result = recover(
            medium,
            genesis_factory,
            policy=policy,
            cost_model=cost_model,
            metrics=metrics,
        )
        result.corrupt_truncated = True
        result.truncated_bytes += truncated + max(dropped, 0)
        return result

    replay_us = 0.0
    blocks_replayed = 0
    discarded = 0
    last_committed = snapshot_block
    for block in blocks:
        if not block.committed:
            # The unterminated tail block: discard it and truncate its
            # frames so the journal ends on the last committed state.
            discarded += 1
            journal_len = medium.journal_size()
            if block.begin_offset < journal_len:
                truncated += journal_len - block.begin_offset
                medium.truncate_journal(block.begin_offset)
            continue
        if snapshot_block is not None and block.number <= snapshot_block:
            # Already folded into the snapshot; frames survive only when
            # the crash hit between snapshot write and journal pruning.
            continue
        try:
            replay_us += replay_committed(world, block, cost_model)
            verify_seal(world, block)
        except ReplayMismatch as mismatch:
            raise RecoveryError(str(mismatch)) from None
        blocks_replayed += 1
        last_committed = block.number

    result = RecoveryResult(
        world=world,
        last_committed_block=last_committed,
        blocks_replayed=blocks_replayed,
        snapshot_block=snapshot_block,
        records_scanned=len(scan.frames),
        truncated_bytes=truncated,
        discarded_blocks=discarded,
        corrupt_truncated=corrupt_truncated,
        replay_us=replay_us,
    )
    if metrics is not None:
        metrics.counter("durability_recoveries").inc()
        metrics.counter("durability_recovered_blocks").inc(blocks_replayed)
        metrics.counter("durability_recovery_us").inc(replay_us)
        if truncated:
            metrics.counter("durability_truncated_bytes").inc(truncated)
        if discarded:
            metrics.counter("durability_discarded_blocks").inc(discarded)
    return result
