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

Outstanding messages are indexed by destination and source: one FIFO
per ``(src, dst)`` pair, ordered by (departure time, message id), so
MPI's non-overtaking rule is a read of the FIFO's head.  A receive
never scans the board: a fixed-source receive reads its pair's head
(:meth:`Scoreboard.oldest_for`), a wildcard the heads of its
destination's pairs (:meth:`Scoreboard.heads_for`), and
:meth:`Scoreboard.sources_for` counts those pairs.

:class:`Scoreboard` serves the per-run engine.  The batched engine keeps
no scoreboard object: for a static program the population is structure,
the same in every run, so its phase plan
(:class:`~repro.pevpm.compile.PhasePlan`) carries every draw's
contention level and every message's FIFO match, and only departure
times are per-run values.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import NamedTuple

__all__ = ["ScoreboardEntry", "Scoreboard"]


class _Entry(NamedTuple):
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


class ScoreboardEntry(_Entry):
    """One outstanding (in-flight) message: an immutable record.  The
    per-run engine builds one per modelled send, so it is a tuple whose
    constructor runs only the two range checks."""

    __slots__ = ()

    def __new__(
        cls, msg_id, src, dst, size, depart_time, op="isend", intra=False,
        payload=None,
    ):
        if size < 0:
            raise ValueError("message size must be non-negative")
        if depart_time < 0:
            raise ValueError("departure time must be non-negative")
        return tuple.__new__(
            cls, (msg_id, src, dst, size, depart_time, op, intra, payload)
        )


def _fifo_key(entry: ScoreboardEntry) -> tuple[float, int]:
    return (entry.depart_time, entry.msg_id)


class Scoreboard:
    """Outstanding-message bookkeeping with FIFO per (src, dst) pair."""

    def __init__(self):
        self._entries: dict[int, ScoreboardEntry] = {}
        #: dst -> src -> that pair's outstanding messages, oldest first
        self._fifos: dict[int, dict[int, list[ScoreboardEntry]]] = {}
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
            next(self._ids), src, dst, size, depart_time, op, intra, payload
        )
        self._entries[entry.msg_id] = entry
        by_src = self._fifos.get(dst)
        if by_src is None:
            by_src = self._fifos[dst] = {}
        fifo = by_src.get(src)
        if fifo is None:
            by_src[src] = [entry]
        elif depart_time < fifo[-1].depart_time:
            # A model may send out of departure order; ids only grow.
            insort(fifo, entry, key=_fifo_key)
        else:
            fifo.append(entry)
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
        by_src = self._fifos[entry.dst]
        fifo = by_src[entry.src]
        if fifo[0] is entry:
            del fifo[0]
        else:
            del fifo[bisect_left(fifo, _fifo_key(entry), key=_fifo_key)]
        if not fifo:
            del by_src[entry.src]
        if not entry.intra:
            self._inter_count -= 1
        return entry

    def oldest_for(self, src: int, dst: int) -> ScoreboardEntry | None:
        """The earliest-departed outstanding message from src to dst --
        MPI's non-overtaking rule applied at the model level."""
        by_src = self._fifos.get(dst)
        if by_src:
            fifo = by_src.get(src)
            if fifo:
                return fifo[0]
        return None

    def heads_for(self, dst: int) -> list[ScoreboardEntry]:
        """Each source's :meth:`oldest_for` message to *dst* -- the
        candidates of a wildcard receive -- in no particular order."""
        by_src = self._fifos.get(dst)
        return [fifo[0] for fifo in by_src.values()] if by_src else []

    def sources_for(self, dst: int) -> int:
        """How many sources have an outstanding message to *dst*."""
        by_src = self._fifos.get(dst)
        return len(by_src) if by_src else 0

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
        return sorted(self._entries.values(), key=_fifo_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scoreboard outstanding={len(self)} peak={self.peak}>"
