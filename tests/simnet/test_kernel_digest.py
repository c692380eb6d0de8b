"""Bit-identity pin of what the network simulator produces.

The goldens' DB holds only eager sizes up to 2 KiB on at most 16x1, so
it never reaches the rendezvous protocol, NIC sharing, intra-node sends
or a TCP retransmission.  These cells do: MPIBench isend campaigns on
``perseus(64)`` at 16x2 (NIC sharing) and 1x2 (intra-node only) over
0 B, 1 KiB and 64 KiB (eager and rendezvous), plus a 16-process Jacobi
run through smpi, whose finish times, per-rank comm stats and per-pipe
monitor reports are pinned too.  Each digest is the first 16 hex digits
of a sha256 over the values' reprs, which round-trip every float
exactly, so a change to the kernel's event order, RNG draw order or
arithmetic shows.
"""

import dataclasses
import hashlib

import pytest

from repro.apps.jacobi import jacobi_smpi
from repro.mpibench import BenchSettings, MPIBench
from repro.simnet import perseus
from repro.smpi import run_program

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
