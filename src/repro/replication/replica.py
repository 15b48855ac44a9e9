"""The replica: incremental feed replay with independent verification.

A replica is a recovery loop that never finishes: it consumes the shipped
feed frame by frame, maintains its *own* durable journal (byte-identical
frames, locally pruned at checkpoints), and applies each block to its own
world through recovery's own machinery — the journal's frame reader
(:func:`~repro.durability.journal.read_frame`), the block fold
(:class:`~repro.durability.recovery.BlockFold`) and the verified apply
that checks the COMMIT marker's delta digest before apply and the SEAL
record's fingerprint after.  Because every executor is deterministic (the
Block-STM argument), a verified replica *certifies* the primary's output
rather than trusting it; any contradiction is a typed
:class:`~repro.errors.ReplicaDivergence`, the replica quarantines itself,
and its flight recorder dumps the evidence.

Three consumption outcomes at the feed tail are distinguished:

- an **incomplete frame** is a torn tail in progress (or a crash) — the
  replica simply waits; :meth:`finalize_source` truncates it when the
  feed is pronounced dead;
- a **complete frame failing CRC/decode** is transport corruption (the
  medium mirror is append-atomic, so a torn write can never produce a
  complete-but-wrong frame) — typed
  :class:`~repro.errors.JournalCorruptionError`, quarantine; so is a
  record that breaks the block protocol;
- a **BEGIN frame with a stale epoch** is a deposed primary writing past
  the fence — counted, evidence kept, frames dropped, replica healthy
  (:class:`~repro.errors.StaleEpoch` instances in ``stale_rejections``).

Simulated time: applying a block charges the same replay cost recovery
does (``commit_key_us`` per write + one fsync), accrued in ``apply_us`` —
the failover controller counts outstanding replay toward failover time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..durability.checkpoint import pick_snapshot
from ..durability.journal import (
    JOURNAL_MAGIC,
    BadFrame,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    SealRecord,
    WriteAheadJournal,
    read_frame,
)
from ..durability.medium import MemoryMedium
from ..durability.recovery import (
    BlockFold,
    ReplayedBlock,
    ReplayMismatch,
    recover,
    replay_committed,
    verify_seal,
)
from ..errors import JournalCorruptionError, ReplicaDivergence, StaleEpoch
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..state.world import WorldState

# How many StaleEpoch instances a replica retains as rejection evidence.
_STALE_EVIDENCE_CAP = 8


@dataclass(slots=True, frozen=True)
class ReplicaConfig:
    """Replay-loop knobs.

    ``max_frames_per_poll`` models a slow apply loop (0 = unbounded): a
    laggy replica consumes at most that many frames per poll tick, falling
    behind under load — the hazard the lag budget exists for.
    """

    max_frames_per_poll: int = 0


class ReplicaService:
    """One follower: own journal, own world, independent verification."""

    def __init__(
        self,
        name: str,
        feed,
        config: ReplicaConfig | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        metrics=None,
        flight=None,
    ) -> None:
        self.name = name
        self.feed = feed
        self.config = config or ReplicaConfig()
        self.cost_model = cost_model
        self.metrics = metrics
        self.flight = flight
        self.medium = MemoryMedium()
        self.world: WorldState | None = None
        self.state = "syncing"  # syncing -> streaming; terminal: quarantined
        self.error: Exception | None = None
        self.fence_epoch = feed.epoch
        self.snapshot_block: int | None = None
        self.last_committed_block: int | None = None
        self.last_sealed_block: int | None = None
        self.blocks_applied = 0
        self.apply_us = 0.0
        self.stale_frames_rejected = 0
        self.stale_rejections: list[StaleEpoch] = []
        # Test/chaos hooks.  ``corrupt_block`` corrupts one key of this
        # replica's world right after that block's verified apply, forcing
        # the SEAL verification to catch a divergent replica.
        # ``flip_feed_byte`` flips one byte of *this replica's view* of the
        # feed at the given absolute offset — a per-link transport
        # corruption (the shared feed stays intact for other replicas).
        self.corrupt_block: int | None = None
        self.flip_feed_byte: int | None = None
        self._cursor = 0
        self._magic_done = False
        self._fold = BlockFold()
        self._open_at = 0  # own-journal offset of the open block's BEGIN
        self._stale_block: int | None = None
        self._stale_epoch = 0
        self._skip_block: int | None = None

    # -- introspection -------------------------------------------------

    @property
    def tip(self) -> int | None:
        """The last block folded into this replica's world."""
        return self.last_committed_block

    def lag_blocks(self, primary_tip: int | None) -> int:
        """How many committed blocks this replica trails the primary by."""
        if primary_tip is None:
            return 0
        have = self.last_committed_block
        return max(0, primary_tip - have) if have is not None else primary_tip

    def health(self) -> dict:
        return {
            "replica": self.name,
            "state": self.state,
            "fence_epoch": self.fence_epoch,
            "last_committed_block": self.last_committed_block,
            "last_sealed_block": self.last_sealed_block,
            "blocks_applied": self.blocks_applied,
            "stale_frames_rejected": self.stale_frames_rejected,
            "apply_us": self.apply_us,
        }

    def _count(self, counter: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(counter, replica=self.name).inc(value)

    # -- failure modes -------------------------------------------------

    def _quarantine(self, error: Exception, now_us: float, reason: str):
        self.state = "quarantined"
        self.error = error
        self._count("replication_quarantines_total")
        if self.flight is not None:
            self.flight.record(
                {
                    "kind": reason,
                    "replica": self.name,
                    "error": str(error),
                    "block": self.last_committed_block,
                    "now_us": now_us,
                }
            )
            self.flight.trigger(reason, now_us)
        raise error

    def _diverge(self, block_number: int, detail: str, now_us: float):
        self._count("replication_divergences_total")
        self._quarantine(
            ReplicaDivergence(self.name, block_number, detail),
            now_us,
            "replica-divergence",
        )

    def _corrupt_feed(self, offset: int, detail: str, now_us: float):
        self._count("replication_corrupt_feed_total")
        self._quarantine(
            JournalCorruptionError(offset, detail), now_us, "corrupt-feed"
        )

    def _reject_stale(self, block_number: int, epoch: int, now_us: float) -> None:
        self.stale_frames_rejected += 1
        self._count("replication_stale_frames_total")
        error = StaleEpoch(block_number, epoch, self.fence_epoch)
        if len(self.stale_rejections) < _STALE_EVIDENCE_CAP:
            self.stale_rejections.append(error)
        if self.flight is not None:
            self.flight.record(
                {
                    "kind": "stale-epoch",
                    "replica": self.name,
                    "block": block_number,
                    "epoch": epoch,
                    "fence": self.fence_epoch,
                    "now_us": now_us,
                }
            )

    # -- bootstrap -----------------------------------------------------

    def _bootstrap(self) -> bool:
        """Restore the newest valid shipped snapshot; False while none."""
        snapshots = dict(self.feed.snapshots)
        picked = pick_snapshot(
            snapshots,
            lambda: self._count("replication_snapshots_rejected_total"),
        )
        if picked is None:
            return False
        number, self.world = picked
        self.snapshot_block = number
        self.last_committed_block = number
        self.last_sealed_block = number
        self.medium.write_snapshot(number, snapshots[number])
        self.medium.append_journal(JOURNAL_MAGIC)
        self.state = "streaming"
        return True

    # -- the replay loop -----------------------------------------------

    def poll(self, now_us: float = 0.0, max_frames: int | None = None) -> int:
        """Consume complete frames from the feed; returns frames consumed.

        Raises the typed quarantine errors
        (:class:`~repro.errors.ReplicaDivergence` /
        :class:`~repro.errors.JournalCorruptionError`); an incomplete
        trailing frame just ends the poll.
        """
        if self.state == "quarantined":
            return 0
        if self.world is None and not self._bootstrap():
            return 0
        budget = (
            max_frames
            if max_frames is not None
            else self.config.max_frames_per_poll
        )
        base = self._cursor
        data = self.feed.read_from(base)
        flip = self.flip_feed_byte
        if flip is not None and base <= flip < base + len(data):
            damaged = bytearray(data)
            damaged[flip - base] ^= 0xFF
            data = bytes(damaged)
        pos = 0
        if not self._magic_done:
            if data.startswith(JOURNAL_MAGIC):
                pos = len(JOURNAL_MAGIC)
                self._cursor = base + pos
                self._magic_done = True
            elif len(data) < len(JOURNAL_MAGIC) and JOURNAL_MAGIC.startswith(data):
                return 0  # partial magic: wait for the rest
            else:
                # A continuation feed (promoted primary over a non-empty
                # journal) starts directly with frames.
                self._magic_done = True
        consumed = 0
        while pos < len(data) and not (budget and consumed >= budget):
            read = read_frame(data, pos)
            if read is None:
                break  # an incomplete frame: a torn append in progress
            offset = base + pos
            if isinstance(read, BadFrame):
                self._corrupt_feed(offset, read.reason, now_us)
            record, end = read
            raw = data[pos:end]
            pos = end
            self._cursor = base + pos
            try:
                self._handle(record, raw, offset, now_us)
            except JournalCorruptionError as violation:
                self._corrupt_feed(violation.offset, violation.detail, now_us)
            except ReplayMismatch as mismatch:
                self._diverge(mismatch.block_number, mismatch.detail, now_us)
            consumed += 1
        return consumed

    def _handle(self, record, raw: bytes, offset: int, now_us: float) -> None:
        """Fold one frame; the fold and verified apply raise on violations."""
        number = record.block_number
        if isinstance(record, BeginRecord):
            if record.epoch < self.fence_epoch:
                self._stale_block = number
                self._stale_epoch = record.epoch
                self._skip_block = None
                self._reject_stale(number, record.epoch, now_us)
                return
            self._stale_block = None
            if (
                self.last_committed_block is not None
                and number <= self.last_committed_block
            ):
                # Frames already folded into our bootstrap snapshot.
                self._fold.close(offset)
                self._skip_block = number
                return
            self._skip_block = None
            self._open_at = self.medium.journal_size()
        elif self._stale_block is not None and number == self._stale_block:
            # The rest of a fenced-off block's frames.
            self._reject_stale(number, self._stale_epoch, now_us)
            return
        elif self._skip_block is not None and number == self._skip_block:
            if isinstance(record, CheckpointRecord):
                self._skip_block = None
            return
        closed = self._fold.step(offset, record)
        self.medium.append_journal(raw)
        if isinstance(record, CommitRecord):
            self._apply(self._fold.open)
        elif isinstance(record, SealRecord):
            self._seal(closed)
        elif isinstance(record, CheckpointRecord):
            self._checkpoint(number)

    def _apply(self, block: ReplayedBlock) -> None:
        self.apply_us += replay_committed(self.world, block, self.cost_model)
        if self.corrupt_block == block.number and block.writes:
            key = min(block.writes)
            value = block.writes[key]
            self.world.apply(
                {key: value + 1 if isinstance(value, int) else value + b"\x00"}
            )
        self.last_committed_block = block.number
        self.blocks_applied += 1
        self._count("replication_blocks_applied_total")

    def _seal(self, block: ReplayedBlock) -> None:
        verify_seal(self.world, block)
        self.last_sealed_block = block.number
        if self.metrics is not None:
            self.metrics.gauge(
                "replication_last_sealed_block", replica=self.name
            ).set(float(block.number))

    def _checkpoint(self, number: int) -> None:
        for shipped, blob in self.feed.snapshots:
            if shipped == number:
                self.medium.write_snapshot(number, blob)
                self.snapshot_block = number
                break
        WriteAheadJournal(self.medium).prune_through(number)
        self.medium.prune_snapshots(keep=2)

    # -- failover support ----------------------------------------------

    def finalize_source(self) -> None:
        """The feed is dead: drop its torn tail and any unterminated block."""
        if self._fold.open is not None and not self._fold.open.committed:
            self.medium.truncate_journal(self._open_at)
        self._fold = BlockFold()
        self._stale_block = None
        self._cursor = len(self.feed)

    def rebase(self, feed) -> None:
        """Re-subscribe to a successor primary's feed (fence included)."""
        self.feed = feed
        self.fence_epoch = max(self.fence_epoch, feed.epoch)
        self._cursor = 0
        self._magic_done = False

    def fence(self, epoch: int) -> None:
        """Raise the fencing epoch (failover): older frames now rejected."""
        self.fence_epoch = max(self.fence_epoch, epoch)

    def promote(self) -> object:
        """Recover this replica's own journal into a promotable world.

        Returns the :class:`~repro.durability.recovery.RecoveryResult`;
        the recovered world replaces the streaming world (they agree on
        every sealed block — recovery re-verifies that from our own
        durable copy, the promotion-time self-check).
        """
        result = recover(
            self.medium,
            WorldState,
            cost_model=self.cost_model,
            metrics=self.metrics,
        )
        self.world = result.world
        self.last_committed_block = result.last_committed_block
        self.last_sealed_block = result.last_committed_block
        return result
