"""World-state checkpoints: periodic snapshots that bound recovery replay.

A snapshot is a full copy of all non-default world state, framed with the
same length+CRC discipline as journal frames (plus its own magic), so a
torn snapshot — a crash mid-write — is *detected* rather than trusted:
recovery validates candidates newest-first and silently falls back to an
older snapshot (ultimately genesis) when one fails its checksum.

After a snapshot of block N is durable, the journal records a CHECKPT
marker and prunes every frame of blocks ``<= N``: the journal tail plus
the newest valid snapshot are always sufficient to rebuild the tip, and
undo history (hence reorg depth) extends exactly back to that snapshot.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .. import rlp
from ..core.serialize import decode_value, encode_value
from ..errors import JournalCorruptionError
from ..state.world import WorldState
from .journal import BadFrame, frame, read_frame

SNAPSHOT_MAGIC = b"RSNP1\n"


def encode_snapshot(world: WorldState, block_number: int) -> bytes:
    """Serialize the world's full committed state as one framed blob."""
    items = [
        [encode_value(key), encode_value(value)]
        for key, value in sorted(world.db.items())
    ]
    payload = rlp.encode(
        [rlp.uint_to_bytes(block_number), world.fingerprint(), items]
    )
    return SNAPSHOT_MAGIC + frame(payload)


def _decode_payload(payload: bytes, offset: int) -> tuple[int, bytes, dict]:
    try:
        number, fingerprint, items = rlp.decode(payload)
        return (
            rlp.bytes_to_uint(number),
            fingerprint,
            {decode_value(pair[0]): decode_value(pair[1]) for pair in items},
        )
    except Exception as exc:
        raise JournalCorruptionError(
            offset, f"malformed snapshot structure: {exc}"
        ) from exc


def decode_snapshot(data: bytes) -> tuple[int, bytes, dict]:
    """Validate and decode one snapshot blob.

    Returns ``(block_number, fingerprint, items)``; raises
    :class:`JournalCorruptionError` on any framing/CRC/structure failure
    (recovery treats that as "this snapshot does not exist").
    """
    if not data.startswith(SNAPSHOT_MAGIC):
        raise JournalCorruptionError(0, "bad snapshot magic")
    read = read_frame(data, len(SNAPSHOT_MAGIC), _decode_payload)
    if read is None:
        raise JournalCorruptionError(0, "truncated snapshot")
    if isinstance(read, BadFrame):
        raise JournalCorruptionError(0, f"snapshot {read.reason}")
    return read[0]


def restore_snapshot(items: dict) -> WorldState:
    """A fresh world holding exactly the snapshot's items (cold cache)."""
    world = WorldState()
    for key, value in items.items():
        world.db.write(key, value)
    return world


def pick_snapshot(
    snapshots: Mapping[int, bytes], reject: Callable[[], None]
) -> tuple[int, WorldState] | None:
    """The newest valid snapshot, restored; None when no candidate is valid.

    A snapshot is valid when it decodes, names the block it is filed
    under, and the restored world's fingerprint matches the recorded one.
    Candidates are tried newest first and the first valid one is taken;
    ``reject`` is called once per candidate tried and refused, so a crash
    mid-snapshot can never poison a restore — it only costs replay length.
    """
    for block_number in sorted(snapshots, reverse=True):
        try:
            number, fingerprint, items = decode_snapshot(snapshots[block_number])
        except JournalCorruptionError:
            reject()
            continue
        if number != block_number:
            reject()
            continue
        world = restore_snapshot(items)
        if world.fingerprint() != fingerprint:
            reject()
            continue
        return number, world
    return None


def latest_valid_snapshot(
    medium, metrics=None
) -> tuple[int, WorldState] | None:
    """The medium's newest valid snapshot (rejections counted into
    ``durability_snapshots_rejected``)."""

    def reject() -> None:
        if metrics is not None:
            metrics.counter("durability_snapshots_rejected").inc()

    return pick_snapshot(medium.read_snapshots(), reject)
