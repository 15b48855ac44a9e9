"""Deterministic crash-point injection for the durable commit path.

The commit pipeline names every point at which a real process could die —
after each journal record, mid-frame (a torn write), around the COMMIT
marker, mid-way through applying to the world state, mid-snapshot — and
calls into an optional :class:`CrashInjector` at each one.  An armed
injector raises :class:`SimulatedCrash` at exactly its site; the crash
fuzzer (:mod:`repro.check.crashfuzz`) then discards every live object
except the durable medium and certifies that recovery lands on exactly the
pre-block or post-block state.

Site names are stable strings so failures are addressable in repros::

    begin                    after the BEGIN record
    torn:begin               mid-frame during the BEGIN record
    txwrite:<i>              after transaction i's write record
    settle                   after the fee-settlement record
    undo                     after the undo-preimage record
    pre-commit               all records durable, COMMIT marker not
    torn:commit              mid-frame during the COMMIT marker
    post-commit              marker durable, world state untouched
    mid-apply                half the block's writes applied to the world
    post-apply               world fully updated, SEAL record not written
    torn:seal                mid-frame during the SEAL record
    sealed                   everything durable except any checkpoint
    mid-snapshot             checkpoint blob half-written (torn snapshot)
    post-snapshot            snapshot durable, journal not yet pruned

Everything up to (and including) ``torn:commit`` must recover to the
pre-block state; everything from ``post-commit`` on must recover to the
post-block state.  That boundary *is* the atomicity contract.
"""

from __future__ import annotations

from ..errors import ReproError

# Sites at or after the COMMIT marker: recovery must replay the block.
_POST_MARKER_SITES = frozenset(
    {
        "post-commit",
        "mid-apply",
        "post-apply",
        "torn:seal",
        "sealed",
        "mid-snapshot",
        "post-snapshot",
    }
)


# The two sites bracketing the atomicity boundary, where the crash sweeps
# upgrade the fingerprint comparison to full MPT state-root equality: a
# torn hybrid of pre- and post-block state would hide there if
# fingerprints ever collided.
ROOT_CHECK_SITES = frozenset({"pre-commit", "post-commit"})


class SimulatedCrash(ReproError):
    """The process died at a named crash site (crash-fuzzing only).

    Deliberately *not* a :class:`~repro.errors.ResilienceError`: no
    recovery ladder may absorb it — the harness must see the crash, drop
    all live state and drive recovery from the medium.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"simulated process crash at site {site!r}")
        self.site = site


class CrashInjector:
    """Arms exactly one crash site; inert at every other site.

    ``fired`` records whether the armed site was actually reached, letting
    the sweep detect sites that silently stopped existing (a refactor that
    drops a crash point would otherwise weaken the sweep unnoticed).
    """

    def __init__(self, site: str) -> None:
        self.site = site
        self.fired = False

    def maybe_crash(self, site: str) -> None:
        """Crash iff ``site`` is the armed one."""
        if site == self.site:
            self.crash(site)

    def crash(self, site: str) -> None:
        self.fired = True
        raise SimulatedCrash(site)

    def tear_fraction(self, site: str) -> float | None:
        """Fraction of the frame to write before dying, for torn sites.

        Returns None unless the injector is armed on ``torn:<site>``.
        """
        if self.site == f"torn:{site}":
            return 0.5
        return None


def enumerate_crash_sites(tx_count: int, checkpoint: bool = False) -> list[str]:
    """Every crash site the commit path exposes for one block.

    ``checkpoint`` adds the snapshot sites, which only exist on blocks
    where the pipeline's checkpoint interval fires.
    """
    sites = ["torn:begin", "begin"]
    sites += [f"txwrite:{i}" for i in range(tx_count)]
    sites += [
        "settle",
        "undo",
        "pre-commit",
        "torn:commit",
        "post-commit",
        "mid-apply",
        "post-apply",
        "torn:seal",
        "sealed",
    ]
    if checkpoint:
        sites += ["mid-snapshot", "post-snapshot"]
    return sites


def site_expected_state(site: str) -> str:
    """Which state recovery must restore after a crash at ``site``.

    Returns ``"pre"`` (the block never happened) or ``"post"`` (the block
    is fully committed); there is no third option — that is the atomicity
    criterion the crash fuzzer certifies.
    """
    return "post" if site in _POST_MARKER_SITES else "pre"
