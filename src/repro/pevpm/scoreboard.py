"""The PEVPM contention scoreboard.

Section 5: "PEVPM maintains a contention scoreboard that stores the state
of all outstanding communication operations at any point in the
simulation, including message sources and destinations, departure times
and sizes. ... These probability distributions are a function of message
size and the total number of messages on the scoreboard (i.e. contention
level)."

The scoreboard is the bridge between program structure and timing: the
sweep phase adds every message a process sends; the match phase samples an
arrival time for a message using the *current scoreboard population* as
the contention level, then removes it.

:class:`Scoreboard` serves the per-run engine.  The batched engine keeps
no scoreboard object: for a static program the population is structure,
the same in every run, so its phase plan
(:class:`~repro.pevpm.compile.PhasePlan`) carries every draw's
contention level and every message's FIFO match, and only departure
times are per-run values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

__all__ = ["ScoreboardEntry", "Scoreboard"]


@dataclass(frozen=True)
class ScoreboardEntry:
    """One outstanding (in-flight) message."""

    msg_id: int
    src: int
    dst: int
    size: int
    depart_time: float
    op: str = "isend"
    intra: bool = False  #: intra-node (shared-memory) message
    #: model-level payload forwarded to the receiver's MatchInfo; carries
    #: no simulated bytes (size alone determines timing).
    payload: object = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("message size must be non-negative")
        if self.depart_time < 0:
            raise ValueError("departure time must be non-negative")


class Scoreboard:
    """Outstanding-message bookkeeping with FIFO per (src, dst) pair."""

    def __init__(self):
        self._entries: dict[int, ScoreboardEntry] = {}
        self._ids = itertools.count()
        self._inter_count = 0  #: outstanding inter-node messages
        self.peak = 0  #: highest population seen (diagnostics)
        self.total_added = 0

    # -- sweep side -------------------------------------------------------------
    def add(
        self,
        src: int,
        dst: int,
        size: int,
        depart_time: float,
        op: str = "isend",
        intra: bool = False,
        payload: object = None,
    ) -> ScoreboardEntry:
        """Record a message entering the network; returns its entry."""
        entry = ScoreboardEntry(
            msg_id=next(self._ids),
            src=src,
            dst=dst,
            size=size,
            depart_time=depart_time,
            op=op,
            intra=intra,
            payload=payload,
        )
        self._entries[entry.msg_id] = entry
        self.total_added += 1
        if not intra:
            self._inter_count += 1
        if len(self._entries) > self.peak:
            self.peak = len(self._entries)
        return entry

    # -- match side --------------------------------------------------------------
    def remove(self, msg_id: int) -> ScoreboardEntry:
        """Remove a matched message."""
        try:
            entry = self._entries.pop(msg_id)
        except KeyError:
            raise KeyError(f"message {msg_id} not on the scoreboard") from None
        if not entry.intra:
            self._inter_count -= 1
        return entry

    def oldest_for(self, src: int, dst: int) -> ScoreboardEntry | None:
        """The earliest-departed outstanding message from src to dst --
        MPI's non-overtaking rule applied at the model level."""
        best = None
        for e in self._entries.values():
            if e.src == src and e.dst == dst:
                if best is None or (e.depart_time, e.msg_id) < (best.depart_time, best.msg_id):
                    best = e
        return best

    def any_for_dst(self, dst: int) -> list[ScoreboardEntry]:
        """All outstanding messages addressed to *dst* (for wildcard
        receives), oldest first."""
        entries = [e for e in self._entries.values() if e.dst == dst]
        entries.sort(key=lambda e: (e.depart_time, e.msg_id))
        return entries

    # -- contention ----------------------------------------------------------------
    @property
    def contention(self) -> int:
        """The contention level: outstanding messages crossing the
        network.  Intra-node (shared-memory) messages are excluded -- they
        do not load the fabric, and the simulated ground truth's
        ``active_transfers`` counter excludes them too."""
        return self._inter_count

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._entries

    def entries(self) -> list[ScoreboardEntry]:
        """Snapshot of all outstanding messages (oldest first)."""
        return sorted(self._entries.values(), key=lambda e: (e.depart_time, e.msg_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scoreboard outstanding={len(self)} peak={self.peak}>"
