"""The PEVPM collective lowerings mirror ``smpi.collectives`` exactly.

``repro.pevpm.lower_collective`` claims to produce, per rank, the same
point-to-point schedule the simulated MPI collectives execute --
dissemination barrier, binomial tree for bcast/reduce (same
lowest-set-bit parent and mask walk), allreduce as reduce-to-0 +
bcast-from-0, linear gather/scatter, the (P-1)-step ring allgather and
the P-1 shifted exchanges of alltoall.  Here each ``smpi`` generator is
driven against a recording stub communicator and its message sequence
is compared against the lowered schedule, operation for operation,
across the awkward tree shapes: a single rank (empty schedule),
non-power-of-two sizes (ragged binomial trees), and roots other than 0.
"""

from types import SimpleNamespace

import pytest

from repro.pevpm import ModelError, lower_collective, patterns
from repro.pevpm.machine import ProcContext
from repro.smpi import collectives
from repro.smpi.status import ANY_SOURCE, RankError

NPROCS = [1, 2, 3, 4, 5, 6, 7, 8, 13]
ROOTED = ["bcast", "reduce", "gather", "scatter"]
ROOTLESS = ["barrier", "allreduce", "allgather", "alltoall"]


class RecordingComm:
    """Stands in for an smpi communicator: records the message pattern
    instead of simulating it.

    Receives return a ``None`` payload and a status from rank 0 (the
    linear gather indexes its results by the status source), except
    ``wait`` which returns the ``(origin, block)`` tuple the ring
    allgather forwards -- origin 0 keeps its indexing happy without
    simulating delivery.  An ``irecv`` is logged when it completes (at
    ``wait``), matching the lowering's execution-order convention.
    """

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        self.log: list[tuple] = []

    def _next_coll_tag(self) -> int:
        return 4096

    def send(self, size, dest, tag=0, payload=None):
        self.log.append(("send", dest, size))
        return
        yield

    def recv(self, source=ANY_SOURCE, tag=0):
        self.log.append(("recv", source))
        return (None, SimpleNamespace(source=0))
        yield

    def irecv(self, source=None, tag=0):
        return ("req", source)
        yield

    def wait(self, req):
        self.log.append(("recv", req[1]))
        return ((0, None), None)
        yield

    def sendrecv(
        self, size, dest, source, sendtag=0, recvtag=0, payload=None
    ):
        self.log.append(("send", dest, size))
        self.log.append(("recv", source))
        return (None, None)
        yield


def drive(gen):
    if gen is None:
        return None
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def recorded(op: str, rank: int, nprocs: int, size: int, root: int = 0):
    comm = RecordingComm(rank, nprocs)
    args = () if op == "barrier" else (size,)
    kwargs = {"root": root} if op in ROOTED else {}
    drive(getattr(collectives, op)(comm, *args, **kwargs))
    return comm.log


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("op", ROOTED)
def test_rooted_tree_matches_lowering_for_every_root(op, nprocs):
    for root in range(nprocs):
        for rank in range(nprocs):
            expected = lower_collective(op, rank, nprocs, 1024, root=root)
            assert recorded(op, rank, nprocs, 1024, root=root) == expected


@pytest.mark.parametrize("nprocs", NPROCS)
@pytest.mark.parametrize("op", ROOTLESS)
def test_rootless_matches_lowering(op, nprocs):
    for rank in range(nprocs):
        expected = lower_collective(op, rank, nprocs, 512)
        assert recorded(op, rank, nprocs, 512) == expected


def test_single_rank_schedules_are_empty():
    for op in ROOTED + ROOTLESS:
        assert lower_collective(op, 0, 1, 4096) == []
        assert recorded(op, 0, 1, 4096) == []


@pytest.mark.parametrize("op", ROOTED)
def test_root_outside_the_communicator_raises(op):
    """The runtime raises RankError; the lowering and the patterns
    built on it raise ModelError instead of wrapping the root."""
    with pytest.raises(RankError):
        drive(getattr(collectives, op)(RecordingComm(0, 4), 64, root=4))
    with pytest.raises(ModelError, match="root 4"):
        lower_collective(op, 0, 4, 64, root=4)
    with pytest.raises(ModelError, match="root 4"):
        list(getattr(patterns, op)(ProcContext(0, 4), 64, root=4))


def test_patterns_emit_the_lowered_schedule():
    """Each pattern is the lowering, send for send and receive for
    receive, labelled with the collective's name."""
    for op in ROOTED + ROOTLESS:
        for rank in range(6):
            args = () if op == "barrier" else (256,)
            kwargs = {"root": 2} if op in ROOTED else {}
            ops = getattr(patterns, op)(ProcContext(rank, 6), *args, **kwargs)
            lowered = lower_collective(op, rank, 6, 256, **kwargs)
            for got, want in zip(ops, lowered, strict=True):
                assert got[: len(want)] == want
                assert got[len(want)] == op  # the label


def test_non_power_of_two_reduce_root_receives_all_contributions():
    """Ragged binomial tree: every non-root rank sends exactly once and
    the root hears, transitively, from everyone."""
    for nprocs in (3, 5, 6, 7, 13):
        for root in (0, 1, nprocs - 1):
            senders = 0
            for rank in range(nprocs):
                ops = lower_collective("reduce", rank, nprocs, 64, root=root)
                kinds = [o[0] for o in ops]
                if rank == root:
                    assert "send" not in kinds
                else:
                    assert kinds.count("send") == 1
                    assert kinds[-1] == "send"  # sends after combining
                    senders += 1
            assert senders == nprocs - 1


def test_root_shift_is_a_rank_rotation():
    """A root-r bcast is the root-0 tree with every peer shifted by r
    (mod P) -- the relative-rank construction, checked directly."""
    nprocs, size = 6, 256
    for root in range(nprocs):
        for rank in range(nprocs):
            shifted = lower_collective(
                "bcast", (rank - root) % nprocs, nprocs, size, root=0
            )
            expected = [
                (kind, (peer + root) % nprocs, *rest)
                for kind, peer, *rest in shifted
            ]
            assert (
                lower_collective("bcast", rank, nprocs, size, root=root)
                == expected
            )


def test_allgather_ring_shape():
    """P-1 steps, each sending the running block right and completing a
    receive from the left."""
    nprocs = 5
    for rank in range(nprocs):
        ops = lower_collective("allgather", rank, nprocs, 128)
        assert len(ops) == 2 * (nprocs - 1)
        right = (rank + 1) % nprocs
        left = (rank - 1) % nprocs
        assert ops[0::2] == [("send", right, 128)] * (nprocs - 1)
        assert ops[1::2] == [("recv", left)] * (nprocs - 1)
