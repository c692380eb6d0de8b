"""Bit-identity pin of what the network simulator produces.

The goldens' DB holds only eager sizes up to 2 KiB on at most 16x1, so
it never reaches the rendezvous protocol, NIC sharing, intra-node sends
or a TCP retransmission.  These cells do: MPIBench isend campaigns on
``perseus(64)`` at 16x2 (NIC sharing) and 1x2 (intra-node only) over
0 B, 1 KiB and 64 KiB (eager and rendezvous), plus a 16-process Jacobi
run through smpi, whose finish times, per-rank comm stats and per-pipe
monitor reports are pinned too.  Further cells reach the paths those
miss: the saturated 64x1 isend config (where congestion delays often
outlast a message's drain), the ring pattern, ping-pong with NIC
sharing, the bcast and barrier drivers (binomial collectives through
smpi), the Gigabit cluster, and a send that TCP loss aborts.  Each digest is the first 16 hex digits
of a sha256 over the values' reprs, which round-trip every float
exactly, so a change to the kernel's event order, RNG draw order or
arithmetic shows.
"""

import dataclasses
import hashlib

import pytest

from repro.apps.jacobi import jacobi_smpi
from repro.mpibench import BenchSettings, MPIBench
from repro.simnet import TransmissionAborted, gigabit_cluster, perseus
from repro.simnet.topology import TcpModel
from repro.smpi import run_program
from repro.smpi.runtime import MpiRun

SPEC = perseus(64)
SIZES = [0, 1024, 65536]
SETTINGS = BenchSettings(reps=8, warmup=2)
#: 12 of this seed's 16x2 one-way samples sit past the retransmission
#: timeout; not every seed has one (seed 5 has none at these reps).
SEED = 1


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def samples(results) -> dict:
    """Every histogram's raw samples, keyed by (op, size)."""
    return {
        (op, size): hist.samples.tolist()
        for op, result in sorted(results.items())
        for size, hist in sorted(result.histograms.items())
    }


@pytest.fixture(scope="module")
def campaigns():
    bench = MPIBench(SPEC, seed=SEED, settings=SETTINGS)
    return {
        (nodes, ppn): samples(bench.run_isend_all(nodes, ppn, SIZES))
        for nodes, ppn in [(16, 2), (1, 2)]
    }


def test_cells_cover_rendezvous_and_retransmission(campaigns):
    assert SIZES[-1] > SPEC.eager_threshold
    oneway = [
        t for (op, _size), values in campaigns[(16, 2)].items()
        if op == "isend" for t in values
    ]
    assert max(oneway) > SPEC.tcp.rto


@pytest.mark.parametrize(
    "config, want", [((16, 2), "6381c0b1c2f5dd79"), ((1, 2), "e0dbb6b12d8ada97")]
)
def test_campaign_is_bit_identical(campaigns, config, want):
    assert digest(campaigns[config]) == want


def test_jacobi_run_is_bit_identical():
    result = run_program(SPEC, jacobi_smpi, 16, seed=SEED, args=(20,))
    reports = [dataclasses.astuple(r) for r in result.monitor.reports()]
    got = {
        "finish_times": digest(result.finish_times),
        "comm_stats": digest(result.comm_stats),
        "reports": digest(reports),
    }
    assert got == {
        "finish_times": "66db8b2b37cfa7fb",
        "comm_stats": "6d49c1c11982f968",
        "reports": "063570ced9f6c3e1",
    }


#: the large configs run short
SHORT = BenchSettings(reps=4, warmup=1)


def _bench(spec=SPEC, settings=SETTINGS) -> MPIBench:
    return MPIBench(spec, seed=SEED, settings=settings)


#: cell -> results of one MPIBench driver run
DRIVER_CELLS = {
    "isend-64x1": lambda: _bench(settings=SHORT).run_isend_all(
        64, 1, [0, 1024, 16384, 65536]
    ),
    "ring-16x1": lambda: _bench().run_isend_all(16, 1, SIZES, pattern="ring"),
    "pingpong-8x2": lambda: {"pingpong": _bench().run_pingpong(8, 2, SIZES)},
    "bcast-16x2": lambda: {"bcast": _bench(settings=SHORT).run_bcast(16, 2, SIZES)},
    "barrier-32x1": lambda: {"barrier": _bench(settings=SHORT).run_barrier(32, 1)},
    "gigabit-8x2": lambda: _bench(gigabit_cluster(16)).run_isend_all(8, 2, SIZES),
}


@pytest.mark.parametrize(
    "cell, want",
    [
        ("isend-64x1", "5867429ad8f93951"),
        ("ring-16x1", "0f864f72011b4445"),
        ("pingpong-8x2", "3eac32a2e1edaa21"),
        ("bcast-16x2", "847a7b928f6a9ed0"),
        ("barrier-32x1", "83669da93cc0bbf7"),
        ("gigabit-8x2", "5f221eddba042108"),
    ],
)
def test_driver_cell_is_bit_identical(cell, want):
    assert digest(samples(DRIVER_CELLS[cell]())) == want


def test_aborted_send_is_bit_identical():
    """Every attempt is lost, so the send aborts after its retransmits;
    the attempt count and the abort time pin the RTO draws."""
    spec = perseus(8).with_(
        tcp=TcpModel(
            loss_max_probability=1.0,
            loss_backlog_threshold=-1.0,
            loss_backlog_scale=1e-12,
            max_retransmits=3,
        )
    )

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1024, dest=1)
        else:
            yield from comm.recv(source=0)

    job = MpiRun(spec, 2, seed=SEED)
    with pytest.raises(TransmissionAborted) as info:
        job.run(program)
    assert (info.value.attempts, job.sim.now) == (4, 0.6392095543290136)
