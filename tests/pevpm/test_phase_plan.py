"""Phase plans and the batched virtual machine that runs them.

The golden suite runs 2 Monte Carlo runs per cell, and in those cells
each run's own NIC order never differs from the batch-mean order, so a
wrong shared-pipe chain would pass it.  These cells run 32 runs of the
static workloads under sampled ``DistributionTiming`` at ppn 1 and 2
and every NIC mode, and pin a sha256 digest (first 16 hex digits) of
every field :class:`~repro.pevpm.vector.BatchedVirtualMachine` returns,
plus each cell's mean elapsed time so a drift reads as a number.

The structure tests hold :meth:`CompiledProgram.plan` to the per-run
engine's rounds, and pin that orphan message ids are compile order.
"""

import hashlib

import numpy as np
import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import (
    BatchedVirtualMachine,
    HockneyTiming,
    TimingModel,
    VirtualMachine,
    compile_program,
    timing_from_db,
)
from repro.service.records import MODELS
from repro.simnet import perseus
from repro.trace_import import sample_trace

SPEC = perseus(16)
RUNS = 32
SEED = 11

#: model name -> (nprocs, parameter overrides on the registry defaults)
SHAPES = {
    "jacobi": (16, {"iterations": 4, "xsize": 64}),
    "fft": (16, {"n_points": 1024}),
    "halo": (12, {"iterations": 2, "nx": 12, "px": 2, "reduce_every": 1}),
    "amg": (16, {"iterations": 1, "nx": 8, "coarse_nx": 4}),
    "imported": (16, {}),
}

FIELDS = (
    "elapsed", "finish_times", "send_time", "recv_wait_time",
    "compute_time", "sweeps", "peak_contention", "messages",
)


@pytest.fixture(scope="module")
def db():
    # Built as tests/test_goldens.py builds its DB.
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


@pytest.fixture(scope="module")
def programs():
    """Each shape's compiled program."""
    out = {}
    for name, (nprocs, overrides) in SHAPES.items():
        if name == "imported":
            model, vm_params = sample_trace(nprocs=nprocs, hops=3).model(), None
        else:
            defaults, builder = MODELS[name]
            model, vm_params = builder(SPEC, dict(defaults, **overrides))
        out[name] = compile_program(model, nprocs, vm_params)
    return out


def run_cell(db, program, nic, ppn):
    timing = timing_from_db(db, mode="distribution", nprocs=program.nprocs)
    return BatchedVirtualMachine(
        program.nprocs, timing, seed=SEED, runs=RUNS,
        nic_serialisation=nic, ppn=ppn,
    ).run(program)


def digest(values) -> str:
    # repr round-trips every float exactly.
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def cell_doc(results) -> dict:
    doc = {f: digest([getattr(r, f) for r in results]) for f in FIELDS}
    doc["mean"] = float(np.mean([r.elapsed for r in results]))
    return doc


#: (name, nic, ppn) -> field digests and mean elapsed
PINNED = {
    ('amg', 'off', 1): {'elapsed': '5541768ce6f99886', 'finish_times': 'd99a68ec0f34653b', 'send_time': '0b32f6fe77c9359d', 'recv_wait_time': 'b69f724953fcf445', 'compute_time': 'efefddc53012f67d', 'sweeps': '966c170faab40895', 'peak_contention': 'e82dcad579e57e95', 'messages': '22c10d0d68e79b43', 'mean': 0.005394488113809352},
    ('amg', 'off', 2): {'elapsed': '1c41a8997daac6b5', 'finish_times': 'bf5d58e06f35a676', 'send_time': 'ca698f36583ef1a3', 'recv_wait_time': '92f5556289837b4d', 'compute_time': 'efefddc53012f67d', 'sweeps': '966c170faab40895', 'peak_contention': 'e82dcad579e57e95', 'messages': '22c10d0d68e79b43', 'mean': 0.004070590952811601},
    ('amg', 'tx', 1): {'elapsed': '96e467542fcd809c', 'finish_times': '8bbdad63f67466e7', 'send_time': 'b42886d1a983c027', 'recv_wait_time': '00390101015e1c21', 'compute_time': 'efefddc53012f67d', 'sweeps': '966c170faab40895', 'peak_contention': 'e82dcad579e57e95', 'messages': '22c10d0d68e79b43', 'mean': 0.005919934628568717},
    ('amg', 'tx', 2): {'elapsed': '7d8a690c2c697a92', 'finish_times': '7b0cdba91d297d2a', 'send_time': 'fa74991619c3c326', 'recv_wait_time': '4d8e69e68a9ddbd1', 'compute_time': 'efefddc53012f67d', 'sweeps': '966c170faab40895', 'peak_contention': 'e82dcad579e57e95', 'messages': '22c10d0d68e79b43', 'mean': 0.004326259184212514},
    ('amg', 'txrx', 1): {'elapsed': '6d787355c7bbb31b', 'finish_times': '6ee54b129721915a', 'send_time': 'b42886d1a983c027', 'recv_wait_time': 'c562aaf2b94a7a23', 'compute_time': 'efefddc53012f67d', 'sweeps': '966c170faab40895', 'peak_contention': 'e82dcad579e57e95', 'messages': '22c10d0d68e79b43', 'mean': 0.005921223657246942},
    ('amg', 'txrx', 2): {'elapsed': '5ccc1a5aeadf7923', 'finish_times': '82d54491a315c3c8', 'send_time': 'fa74991619c3c326', 'recv_wait_time': '5e4e4ef743847e1b', 'compute_time': 'efefddc53012f67d', 'sweeps': '966c170faab40895', 'peak_contention': 'e82dcad579e57e95', 'messages': '22c10d0d68e79b43', 'mean': 0.004334159945780163},
    ('fft', 'off', 1): {'elapsed': 'cedf30117a1af3fe', 'finish_times': '2646a39958035923', 'send_time': 'e9b42d56dc90abfd', 'recv_wait_time': '1e6208258ab5f812', 'compute_time': 'bc61f11e8f71e9a3', 'sweeps': 'e01e7abbfdc899cd', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '212bff16199e45d1', 'mean': 0.002384674111257188},
    ('fft', 'off', 2): {'elapsed': '40a53efeec9aa8fd', 'finish_times': '82d2767bc70425a3', 'send_time': 'd28a17629ce197b0', 'recv_wait_time': 'b49904b35c6db47a', 'compute_time': 'bc61f11e8f71e9a3', 'sweeps': 'e01e7abbfdc899cd', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '212bff16199e45d1', 'mean': 0.002291433775641997},
    ('fft', 'tx', 1): {'elapsed': 'cedf30117a1af3fe', 'finish_times': '2646a39958035923', 'send_time': 'e9b42d56dc90abfd', 'recv_wait_time': '1e6208258ab5f812', 'compute_time': 'bc61f11e8f71e9a3', 'sweeps': 'e01e7abbfdc899cd', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '212bff16199e45d1', 'mean': 0.002384674111257188},
    ('fft', 'tx', 2): {'elapsed': 'abe43125e732719a', 'finish_times': 'd9b95d71e6c579f8', 'send_time': '0e1791bd5c04b610', 'recv_wait_time': 'b3790e751e52540d', 'compute_time': 'bc61f11e8f71e9a3', 'sweeps': 'e01e7abbfdc899cd', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '212bff16199e45d1', 'mean': 0.002480249515057457},
    ('fft', 'txrx', 1): {'elapsed': 'cedf30117a1af3fe', 'finish_times': '2646a39958035923', 'send_time': 'e9b42d56dc90abfd', 'recv_wait_time': '1e6208258ab5f812', 'compute_time': 'bc61f11e8f71e9a3', 'sweeps': 'e01e7abbfdc899cd', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '212bff16199e45d1', 'mean': 0.002384674111257188},
    ('fft', 'txrx', 2): {'elapsed': '03ff864b3895e2c7', 'finish_times': '693849edb67d72d7', 'send_time': '5e0bdabd4acdf90d', 'recv_wait_time': '15cc67a408022cf5', 'compute_time': 'bc61f11e8f71e9a3', 'sweeps': 'e01e7abbfdc899cd', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '212bff16199e45d1', 'mean': 0.002559688593951781},
    ('halo', 'off', 1): {'elapsed': '77f93b331b7efe01', 'finish_times': '39394ba487ac2bd4', 'send_time': '58e10b86fdfd9099', 'recv_wait_time': 'dc91065aa14e59b2', 'compute_time': 'bb4193f48c6b33f8', 'sweeps': '66989a4cdc2e5010', 'peak_contention': 'bf2f53f8448863b4', 'messages': 'a5838d429d837623', 'mean': 0.0019300546812588918},
    ('halo', 'off', 2): {'elapsed': '0ebc8fb63c233ae2', 'finish_times': 'cc377309c216a1a6', 'send_time': 'c082dd0623c17b7f', 'recv_wait_time': '7f8e64fea37febd2', 'compute_time': 'bb4193f48c6b33f8', 'sweeps': '66989a4cdc2e5010', 'peak_contention': 'bf2f53f8448863b4', 'messages': 'a5838d429d837623', 'mean': 0.0016067478242619403},
    ('halo', 'tx', 1): {'elapsed': 'c3e83f63864282f8', 'finish_times': 'f6e57de872cbe826', 'send_time': '0fd8b2b18f6171dd', 'recv_wait_time': '4eaa427fa29662eb', 'compute_time': 'bb4193f48c6b33f8', 'sweeps': '66989a4cdc2e5010', 'peak_contention': 'bf2f53f8448863b4', 'messages': 'a5838d429d837623', 'mean': 0.0022619535603243027},
    ('halo', 'tx', 2): {'elapsed': '6e84b1942d0bff0b', 'finish_times': '50464b69e1a02807', 'send_time': '4f944aca285c6d28', 'recv_wait_time': 'b2aa40ca82ad5e92', 'compute_time': 'bb4193f48c6b33f8', 'sweeps': '66989a4cdc2e5010', 'peak_contention': 'bf2f53f8448863b4', 'messages': 'a5838d429d837623', 'mean': 0.0016882681419413616},
    ('halo', 'txrx', 1): {'elapsed': 'cd12e701d39104ad', 'finish_times': 'de9c38910ec2eb4b', 'send_time': '0fd8b2b18f6171dd', 'recv_wait_time': 'e89db32203dcd096', 'compute_time': 'bb4193f48c6b33f8', 'sweeps': '66989a4cdc2e5010', 'peak_contention': 'bf2f53f8448863b4', 'messages': 'a5838d429d837623', 'mean': 0.0022731941643408422},
    ('halo', 'txrx', 2): {'elapsed': '1cc924a0e094ae10', 'finish_times': '6fac723426c39be0', 'send_time': '9d58772e1cf76009', 'recv_wait_time': 'ce875501588fb89d', 'compute_time': 'bb4193f48c6b33f8', 'sweeps': '66989a4cdc2e5010', 'peak_contention': 'bf2f53f8448863b4', 'messages': 'a5838d429d837623', 'mean': 0.0017322366323022707},
    ('imported', 'off', 1): {'elapsed': '0103336abc86bcc4', 'finish_times': 'd605300236893760', 'send_time': '4d38c95b7b41351d', 'recv_wait_time': '2ef303a1c85967cb', 'compute_time': '19cf58d4e854f74d', 'sweeps': '252bf1781a8e64ac', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '46a8537bf9a47423', 'mean': 0.0011156090372255057},
    ('imported', 'off', 2): {'elapsed': '9b91c1dd3802c488', 'finish_times': '71b5cdccae203613', 'send_time': '70bfa78ec3d5bfa8', 'recv_wait_time': '38bdbcfb6afc5479', 'compute_time': '19cf58d4e854f74d', 'sweeps': '252bf1781a8e64ac', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '46a8537bf9a47423', 'mean': 0.0009292362621801164},
    ('imported', 'tx', 1): {'elapsed': '0103336abc86bcc4', 'finish_times': 'd605300236893760', 'send_time': '4d38c95b7b41351d', 'recv_wait_time': '2ef303a1c85967cb', 'compute_time': '19cf58d4e854f74d', 'sweeps': '252bf1781a8e64ac', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '46a8537bf9a47423', 'mean': 0.0011156090372255057},
    ('imported', 'tx', 2): {'elapsed': '9b91c1dd3802c488', 'finish_times': '71b5cdccae203613', 'send_time': '70bfa78ec3d5bfa8', 'recv_wait_time': '38bdbcfb6afc5479', 'compute_time': '19cf58d4e854f74d', 'sweeps': '252bf1781a8e64ac', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '46a8537bf9a47423', 'mean': 0.0009292362621801164},
    ('imported', 'txrx', 1): {'elapsed': '0103336abc86bcc4', 'finish_times': 'cc27d045abed49d0', 'send_time': '4d38c95b7b41351d', 'recv_wait_time': '7ac3cf487eb44916', 'compute_time': '19cf58d4e854f74d', 'sweeps': '252bf1781a8e64ac', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '46a8537bf9a47423', 'mean': 0.0011156090372255057},
    ('imported', 'txrx', 2): {'elapsed': '86e4f4f6fe99d104', 'finish_times': '8480e2f25fa26616', 'send_time': '70bfa78ec3d5bfa8', 'recv_wait_time': '4d53addedac963d6', 'compute_time': '19cf58d4e854f74d', 'sweeps': '252bf1781a8e64ac', 'peak_contention': 'e01e7abbfdc899cd', 'messages': '46a8537bf9a47423', 'mean': 0.000928868962885344},
    ('jacobi', 'off', 1): {'elapsed': '20ddbf2c805be8b7', 'finish_times': '79388931a82dd9de', 'send_time': '26a3a68a91c04ab1', 'recv_wait_time': '9f42697eab187771', 'compute_time': '8756c41de451e9f1', 'sweeps': '2bc76a526daac77e', 'peak_contention': '4b1b0145d25e71a9', 'messages': '4a1541734113e622', 'mean': 0.0023189128917867493},
    ('jacobi', 'off', 2): {'elapsed': '5c3e1cb92f943af2', 'finish_times': '5d3f348e134bd89f', 'send_time': '70c9d4f3349d5d33', 'recv_wait_time': '9d8695991a390bb8', 'compute_time': '8756c41de451e9f1', 'sweeps': '2bc76a526daac77e', 'peak_contention': '4b1b0145d25e71a9', 'messages': '4a1541734113e622', 'mean': 0.0021313480548631816},
    ('jacobi', 'tx', 1): {'elapsed': '6b32f160e5c5fd3d', 'finish_times': '388558eeea4bde45', 'send_time': '26a3a68a91c04ab1', 'recv_wait_time': 'a96ccdcdb3b25602', 'compute_time': '8756c41de451e9f1', 'sweeps': '2bc76a526daac77e', 'peak_contention': '4b1b0145d25e71a9', 'messages': '4a1541734113e622', 'mean': 0.0023333399450656193},
    ('jacobi', 'tx', 2): {'elapsed': '5c3e1cb92f943af2', 'finish_times': '5d3f348e134bd89f', 'send_time': '70c9d4f3349d5d33', 'recv_wait_time': '9d8695991a390bb8', 'compute_time': '8756c41de451e9f1', 'sweeps': '2bc76a526daac77e', 'peak_contention': '4b1b0145d25e71a9', 'messages': '4a1541734113e622', 'mean': 0.0021313480548631816},
    ('jacobi', 'txrx', 1): {'elapsed': 'bad15c317411a16d', 'finish_times': 'bcdfaf032b038b7d', 'send_time': '2252c19a7369456f', 'recv_wait_time': '264c1e5c40ae5db2', 'compute_time': '8756c41de451e9f1', 'sweeps': '2bc76a526daac77e', 'peak_contention': '4b1b0145d25e71a9', 'messages': '4a1541734113e622', 'mean': 0.0024150720995643055},
    ('jacobi', 'txrx', 2): {'elapsed': '5c3e1cb92f943af2', 'finish_times': '5d3f348e134bd89f', 'send_time': '70c9d4f3349d5d33', 'recv_wait_time': '9d8695991a390bb8', 'compute_time': '8756c41de451e9f1', 'sweeps': '2bc76a526daac77e', 'peak_contention': '4b1b0145d25e71a9', 'messages': '4a1541734113e622', 'mean': 0.0021313480548631816},
}


@pytest.mark.parametrize("ppn", [1, 2])
@pytest.mark.parametrize("nic", ["off", "tx", "txrx"])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_cell_is_bit_identical(db, programs, name, nic, ppn):
    got = cell_doc(run_cell(db, programs[name], nic, ppn))
    want = PINNED[(name, nic, ppn)]
    assert got["mean"] == want["mean"]
    assert got == want


def widest_pipe(plan) -> int:
    """The most messages one NIC pipe carries in one match phase."""
    return max(
        (k for _, match in plan.rounds if match for k, *_ in match.tx + match.rx),
        default=0,
    )


@pytest.mark.parametrize("ppn", [1, 2])
def test_cells_chain_three_messages_through_one_pipe(programs, ppn):
    # The k >= 3 chain (a stable argsort per run) is what the digests
    # pin beyond the two-message case.
    assert any(
        widest_pipe(program.plan(ppn, nic)) >= 3
        for program in programs.values() for nic in ("tx", "txrx")
    )


class RoundEnds:
    """A profiler stand-in that notes how many receive events the traced
    per-run engine has recorded at the end of each match phase."""

    def __init__(self):
        self.vm = None
        self.ends = []

    def mark(self):
        return 0.0

    def add(self, phase, seconds):
        pass

    def exclusive(self, phase, seconds, mark):
        if phase == "match":
            events = self.vm.trace.events
            self.ends.append(sum(1 for e in events if e.category == "recv"))


@pytest.mark.parametrize("ppn", [1, 2])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_plan_rounds_are_the_per_run_engine_rounds(programs, name, ppn):
    program = programs[name]
    rounds = RoundEnds()
    vm = rounds.vm = VirtualMachine(
        program.nprocs, HockneyTiming(latency=1e-4, bandwidth=1e7),
        trace=True, ppn=ppn, profiler=rounds,
    )
    ref = vm.run(program)
    plan = program.plan(ppn, "tx")
    assert len(plan.rounds) == ref.sweeps
    receivers = [e.proc for e in ref.trace.events if e.category == "recv"]
    matches = [match for _, match in plan.rounds if match is not None]
    assert len(matches) == len(rounds.ends)
    for match, start, end in zip(matches, [0] + rounds.ends, rounds.ends):
        assert match.procs == sorted(receivers[start:end])


class ZeroSendTiming(TimingModel):
    """Sends cost the sender nothing; one-way times are random."""

    name = "zero-send"

    def one_way_time(self, size, contention, rng, intra=False):
        return float(rng.exponential(1e-4))

    def local_send_time(self, size, contention, rng, intra=False):
        return 0.0


def late_orphans(ctx):
    """Ranks 1 and 2 each end with a send nobody receives.  The match
    before it serves them in order of their block times, which are
    arrival draws -- so the order they send in varies with the seed."""
    if ctx.procnum == 0:
        yield ctx.send(1, 64)
        yield ctx.send(2, 64)
        yield ctx.recv(1)
        yield ctx.recv(2)
        yield ctx.send(1, 64)
        yield ctx.send(2, 64)
    else:
        yield ctx.recv(0)
        yield ctx.send(0, 64)
        yield ctx.recv(0)
        yield ctx.send(0, 32, payload=ctx.procnum)


def test_orphan_ids_are_compile_order():
    program = compile_program(late_orphans, 3)
    seen = set()
    for seed in (1, 2):
        results = BatchedVirtualMachine(
            3, ZeroSendTiming(), seed=seed, runs=8
        ).run(program)
        for res in results:
            ids = [(o.msg_id, o.src, o.payload) for o in res.orphans]
            seen.add(tuple(ids))
            for o in res.orphans:
                # The orphan is its sender's last op, and sends are free.
                assert o.depart_time == res.finish_times[o.src]
    assert seen == {((6, 1, 1), (7, 2, 2))}
