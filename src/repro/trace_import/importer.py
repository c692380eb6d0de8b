"""Import recorded MPI event logs as PEVPM model programs.

A trace is the flat record of what each rank *did* -- compute segments,
sends, receives -- exactly the operation vocabulary the PEVPM machines
execute.  Importing one therefore needs no inference: each rank's event
list replays verbatim as a model-program generator, and the existing
engines (scalar, batched, compiled) predict it with zero new semantics.

Two input formats:

* **JSON lines** (canonical, what :meth:`TraceProgram.to_jsonl`
  exports).  First line is the header, every further line one event::

      {"trace": "repro-mpi", "version": 1, "nprocs": 2, "name": "ping"}
      {"rank": 0, "op": "compute", "seconds": 1e-5}
      {"rank": 0, "op": "send", "dst": 1, "bytes": 4096}
      {"rank": 1, "op": "recv", "src": 0}

  ``"src": "any"`` (or ``-1``) is a wildcard receive.  Event order
  *within a rank* is that rank's program order; interleaving across
  ranks carries no meaning (ranks run concurrently).

* **OTF2-like text**: the whitespace-separated subset real OTF2
  ``otf2-print`` dumps reduce to once regions are folded away.  ``#``
  starts a comment, ``NPROCS n`` (required) and ``NAME s`` head the
  file, then one event per line::

      NPROCS 2
      0 COMPUTE 1e-5
      0 MPI_ISEND 1 4096
      1 MPI_RECV 0

  ``MPI_SEND``/``MPI_ISEND`` and ``MPI_RECV``/``MPI_IRECV`` are
  synonyms (PEVPM models both by local cost + matching), and ``ANY``
  is the wildcard source.

Validation happens at construction: rank indices in range, matched
send/receive counts, and -- by tracing the program through
:func:`repro.pevpm.compile.compile_program` -- freedom from ordering
deadlock (a recv-before-send cycle raises
:class:`~repro.pevpm.machine.ModelDeadlock`, reported as a
:class:`TraceError` naming the stuck ranks and op indices).  A valid
trace is content-addressed by the SHA-256 of its canonical JSON
document, so import -> export -> import is fingerprint-stable and the
service can cache and shard-route imported programs safely.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from ..pevpm.compile import compile_program
from ..pevpm.machine import ANY_SOURCE, ModelDeadlock, ProcContext

__all__ = [
    "TraceDeadlock",
    "TraceError",
    "TraceModel",
    "TraceProgram",
    "parse_trace",
    "parse_jsonl",
    "parse_otf2_text",
    "sample_trace",
]

_FORMAT = "repro-trace/1"
_JSONL_MAGIC = "repro-mpi"
_MAX_RANKS = 4096
_MAX_EVENTS = 1_000_000


class TraceError(ValueError):
    """A malformed or semantically invalid trace (HTTP 422)."""


class TraceDeadlock(TraceError):
    """A structurally well-formed trace whose receive ordering deadlocks
    (the count check balances but a recv-before-send cycle exists).
    Distinguished so scripts can tell deadlock discovery -- a PEVPM
    feature -- from plain parse failures (CLI exit code 3)."""


class TraceModel:
    """The replayable model program of an imported trace.

    A picklable callable (so the on-disk prediction cache and the
    compile cache can fingerprint it):
    ``program(ctx)`` yields rank ``ctx.procnum``'s recorded events in
    order.  The model is pinned to the trace's rank count -- predicting
    it at a different ``nprocs`` is a request error, not a silent
    truncation.
    """

    __slots__ = ("name", "nprocs", "ranks")

    def __init__(self, name: str, nprocs: int, ranks: tuple):
        self.name = name
        self.nprocs = nprocs
        self.ranks = ranks

    def __call__(self, ctx: ProcContext):
        if ctx.numprocs != self.nprocs:
            raise ValueError(
                f"trace {self.name!r} was recorded on {self.nprocs} rank(s); "
                f"predict it with nprocs={self.nprocs}"
            )
        for i, event in enumerate(self.ranks[ctx.procnum]):
            kind = event[0]
            if kind == "compute":
                yield ctx.serial(event[1], label=f"trace-compute[{i}]")
            elif kind == "send":
                yield ctx.send(event[1], event[2], label=f"trace-send[{i}]")
            else:
                yield ctx.recv(event[1], label=f"trace-recv[{i}]")

    def __getstate__(self):
        return (self.name, self.nprocs, self.ranks)

    def __setstate__(self, state):
        self.name, self.nprocs, self.ranks = state


@dataclass(frozen=True)
class TraceProgram:
    """A validated, content-addressed imported trace."""

    name: str
    nprocs: int
    #: per-rank event tuples: ``("compute", seconds)``,
    #: ``("send", dst, bytes)``, ``("recv", src)`` (src -1 = wildcard)
    ranks: tuple
    fingerprint: str = field(compare=False)

    @classmethod
    def build(
        cls, name: str, nprocs: int, events: list[list[tuple]]
    ) -> "TraceProgram":
        """Validate raw per-rank events and seal them into a program."""
        _validate_events(nprocs, events)
        ranks = tuple(tuple(rank) for rank in events)
        program = cls(
            name=str(name),
            nprocs=nprocs,
            ranks=ranks,
            fingerprint=_fingerprint(nprocs, ranks),
        )
        _check_deadlock(program)
        return program

    @property
    def events(self) -> int:
        return sum(len(rank) for rank in self.ranks)

    @property
    def messages(self) -> int:
        return sum(
            1 for rank in self.ranks for event in rank if event[0] == "send"
        )

    def canonical(self) -> dict:
        """The content document the fingerprint hashes (name excluded:
        two recordings of the same program are the same program)."""
        return {
            "format": _FORMAT,
            "nprocs": self.nprocs,
            "ranks": [[list(event) for event in rank] for rank in self.ranks],
        }

    def model(self) -> TraceModel:
        return TraceModel(self.name, self.nprocs, self.ranks)

    def meta(self) -> dict:
        return {
            "name": self.name,
            "nprocs": self.nprocs,
            "events": self.events,
            "messages": self.messages,
            "fingerprint": self.fingerprint,
        }

    def to_jsonl(self) -> str:
        """Serialise back to the canonical JSON-lines form (round-trips
        to the same fingerprint)."""
        lines = [
            json.dumps(
                {
                    "trace": _JSONL_MAGIC,
                    "version": 1,
                    "nprocs": self.nprocs,
                    "name": self.name,
                },
                sort_keys=True,
            )
        ]
        for rank, events in enumerate(self.ranks):
            for event in events:
                if event[0] == "compute":
                    doc = {"rank": rank, "op": "compute", "seconds": event[1]}
                elif event[0] == "send":
                    doc = {
                        "rank": rank, "op": "send",
                        "dst": event[1], "bytes": event[2],
                    }
                else:
                    src = "any" if event[1] == ANY_SOURCE else event[1]
                    doc = {"rank": rank, "op": "recv", "src": src}
                lines.append(json.dumps(doc, sort_keys=True))
        return "\n".join(lines) + "\n"


def _fingerprint(nprocs: int, ranks: tuple) -> str:
    doc = {
        "format": _FORMAT,
        "nprocs": nprocs,
        "ranks": [[list(event) for event in rank] for rank in ranks],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _validate_events(nprocs: int, events: list[list[tuple]]) -> None:
    if not isinstance(nprocs, int) or isinstance(nprocs, bool) or nprocs < 1:
        raise TraceError("nprocs must be a positive integer")
    if nprocs > _MAX_RANKS:
        raise TraceError(f"nprocs {nprocs} exceeds the limit of {_MAX_RANKS}")
    if len(events) != nprocs:
        raise TraceError(f"expected {nprocs} rank event lists, got {len(events)}")
    total = sum(len(rank) for rank in events)
    if total > _MAX_EVENTS:
        raise TraceError(f"trace has {total} events; limit is {_MAX_EVENTS}")
    # Send/receive conservation: every send must have a receive on its
    # destination and vice versa.  Wildcard receives absorb whatever
    # fixed receives leave over, per destination.
    sends: dict[tuple[int, int], int] = {}
    fixed_recvs: dict[tuple[int, int], int] = {}
    wild_recvs: dict[int, int] = {}
    for rank, rank_events in enumerate(events):
        for i, event in enumerate(rank_events):
            kind = event[0]
            where = f"rank {rank} event {i}"
            if kind == "compute":
                if not 0 <= event[1] < math.inf:
                    raise TraceError(
                        f"{where}: compute time must be finite and "
                        f"non-negative, got {event[1]}"
                    )
            elif kind == "send":
                dst = event[1]
                if not 0 <= dst < nprocs:
                    raise TraceError(
                        f"{where}: send to unknown rank {dst} "
                        f"(trace has {nprocs} ranks)"
                    )
                if dst == rank:
                    raise TraceError(f"{where}: rank {rank} sends to itself")
                if event[2] < 0:
                    raise TraceError(f"{where}: negative message size")
                sends[(rank, dst)] = sends.get((rank, dst), 0) + 1
            elif kind == "recv":
                src = event[1]
                if src == ANY_SOURCE:
                    wild_recvs[rank] = wild_recvs.get(rank, 0) + 1
                elif not 0 <= src < nprocs:
                    raise TraceError(
                        f"{where}: receive from unknown rank {src} "
                        f"(trace has {nprocs} ranks)"
                    )
                elif src == rank:
                    raise TraceError(
                        f"{where}: rank {rank} receives from itself"
                    )
                else:
                    fixed_recvs[(rank, src)] = fixed_recvs.get((rank, src), 0) + 1
            else:
                raise TraceError(f"{where}: unknown event kind {kind!r}")
    for (dst, src), n in sorted(fixed_recvs.items()):
        have = sends.get((src, dst), 0)
        if n > have:
            raise TraceError(
                f"rank {dst} posts {n} receive(s) from rank {src} but the "
                f"trace records only {have} matching send(s)"
            )
    for dst in range(nprocs):
        arriving = sum(n for (s, d), n in sends.items() if d == dst)
        posted = wild_recvs.get(dst, 0) + sum(
            n for (d, s), n in fixed_recvs.items() if d == dst
        )
        if posted != arriving:
            kind = "unmatched send(s)" if arriving > posted else (
                "unmatched receive(s)"
            )
            raise TraceError(
                f"rank {dst}: {arriving} message(s) arrive but {posted} "
                f"receive(s) are posted -- {abs(arriving - posted)} {kind}"
            )


def _check_deadlock(program: TraceProgram) -> None:
    """Trace the imported program once: a recv-before-send cycle that
    the count check cannot see surfaces here as a compile-time
    deadlock (with rank + op-index diagnostics)."""
    try:
        compile_program(program.model(), program.nprocs)
    except ModelDeadlock as exc:
        raise TraceDeadlock(f"trace deadlocks: {exc}") from None


# -- parsers -------------------------------------------------------------------

def parse_jsonl(text: str, name: str | None = None) -> TraceProgram:
    """Parse the JSON-lines trace format (see module docstring)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceError("empty trace")
    header = _json_line(lines[0], 1)
    if header.get("trace") != _JSONL_MAGIC:
        raise TraceError(
            f'line 1: header must carry "trace": "{_JSONL_MAGIC}"'
        )
    if header.get("version") != 1:
        raise TraceError(f"unsupported trace version {header.get('version')!r}")
    nprocs = header.get("nprocs")
    if not isinstance(nprocs, int) or isinstance(nprocs, bool) or nprocs < 1:
        raise TraceError("line 1: header needs a positive integer nprocs")
    events: list[list[tuple]] = [[] for _ in range(nprocs)]
    for lineno, line in enumerate(lines[1:], start=2):
        doc = _json_line(line, lineno)
        rank = doc.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool) or not (
            0 <= rank < nprocs
        ):
            raise TraceError(
                f"line {lineno}: unknown rank {rank!r} "
                f"(trace has {nprocs} ranks)"
            )
        op = doc.get("op")
        if op == "compute":
            seconds = doc.get("seconds")
            if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
                raise TraceError(f"line {lineno}: compute needs numeric seconds")
            events[rank].append(("compute", float(seconds)))
        elif op == "send":
            dst, nbytes = doc.get("dst"), doc.get("bytes")
            if not isinstance(dst, int) or isinstance(dst, bool):
                raise TraceError(f"line {lineno}: send needs an integer dst")
            if not isinstance(nbytes, int) or isinstance(nbytes, bool):
                raise TraceError(f"line {lineno}: send needs integer bytes")
            events[rank].append(("send", dst, nbytes))
        elif op == "recv":
            src = doc.get("src")
            if src in ("any", "ANY", ANY_SOURCE):
                src = ANY_SOURCE
            elif not isinstance(src, int) or isinstance(src, bool):
                raise TraceError(
                    f'line {lineno}: recv needs an integer src or "any"'
                )
            events[rank].append(("recv", src))
        else:
            raise TraceError(f"line {lineno}: unknown op {op!r}")
    return TraceProgram.build(
        name if name is not None else str(header.get("name", "trace")),
        nprocs,
        events,
    )


def _json_line(line: str, lineno: int) -> dict:
    try:
        doc = json.loads(line)
    except ValueError:
        raise TraceError(f"line {lineno}: not valid JSON") from None
    if not isinstance(doc, dict):
        raise TraceError(f"line {lineno}: expected a JSON object")
    return doc


def parse_otf2_text(text: str, name: str | None = None) -> TraceProgram:
    """Parse the OTF2-like text subset (see module docstring)."""
    nprocs: int | None = None
    trace_name = name
    events: list[list[tuple]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].upper()
        if head == "NPROCS":
            if nprocs is not None:
                raise TraceError(f"line {lineno}: duplicate NPROCS")
            nprocs = _otf2_int(parts, 1, lineno, "NPROCS")
            if nprocs < 1:
                raise TraceError(f"line {lineno}: NPROCS must be >= 1")
            events = [[] for _ in range(nprocs)]
            continue
        if head == "NAME":
            if len(parts) < 2:
                raise TraceError(f"line {lineno}: NAME needs a value")
            if trace_name is None:
                trace_name = " ".join(parts[1:])
            continue
        if nprocs is None:
            raise TraceError(
                f"line {lineno}: NPROCS must come before any event"
            )
        rank = _otf2_int(parts, 0, lineno, "rank")
        if not 0 <= rank < nprocs:
            raise TraceError(
                f"line {lineno}: unknown rank {rank} (trace has {nprocs} ranks)"
            )
        op = parts[1].upper() if len(parts) > 1 else ""
        if op == "COMPUTE":
            if len(parts) != 3:
                raise TraceError(f"line {lineno}: COMPUTE takes <seconds>")
            try:
                seconds = float(parts[2])
            except ValueError:
                raise TraceError(
                    f"line {lineno}: bad COMPUTE seconds {parts[2]!r}"
                ) from None
            events[rank].append(("compute", seconds))
        elif op in ("MPI_SEND", "MPI_ISEND"):
            if len(parts) != 4:
                raise TraceError(f"line {lineno}: {op} takes <dst> <bytes>")
            events[rank].append(
                (
                    "send",
                    _otf2_int(parts, 2, lineno, "dst"),
                    _otf2_int(parts, 3, lineno, "bytes"),
                )
            )
        elif op in ("MPI_RECV", "MPI_IRECV"):
            if len(parts) != 3:
                raise TraceError(f"line {lineno}: {op} takes <src|ANY>")
            if parts[2].upper() == "ANY":
                src = ANY_SOURCE
            else:
                src = _otf2_int(parts, 2, lineno, "src")
            events[rank].append(("recv", src))
        else:
            raise TraceError(f"line {lineno}: unknown event {parts[1:2]!r}")
    if nprocs is None:
        raise TraceError("trace has no NPROCS header")
    return TraceProgram.build(trace_name or "trace", nprocs, events)


def _otf2_int(parts: list[str], idx: int, lineno: int, what: str) -> int:
    try:
        return int(parts[idx])
    except (IndexError, ValueError):
        got = parts[idx] if idx < len(parts) else "<missing>"
        raise TraceError(f"line {lineno}: bad {what} {got!r}") from None


def parse_trace(text: str, name: str | None = None) -> TraceProgram:
    """Auto-detect the format: JSON-lines if the first non-blank line is
    a JSON object, the OTF2-like text subset otherwise."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped:
            if stripped.startswith("{"):
                return parse_jsonl(text, name)
            return parse_otf2_text(text, name)
    raise TraceError("empty trace")


def sample_trace(nprocs: int = 4, hops: int = 2, nbytes: int = 4096) -> TraceProgram:
    """A small ring trace (each rank computes, sends right, receives
    left, *hops* times) -- the demo input for ``repro import-trace
    --sample`` and the CI workload smoke."""
    if nprocs < 2:
        raise ValueError("sample trace needs nprocs >= 2")
    events: list[list[tuple]] = [[] for _ in range(nprocs)]
    for _ in range(hops):
        for rank in range(nprocs):
            events[rank].append(("compute", 2e-5))
            events[rank].append(("send", (rank + 1) % nprocs, nbytes))
            events[rank].append(("recv", (rank - 1) % nprocs))
    return TraceProgram.build(f"ring{nprocs}", nprocs, events)
