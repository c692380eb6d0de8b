"""The per-run virtual machine, pinned bit for bit.

Divergent programs -- a wildcard receive racing its senders -- run one
Monte Carlo run at a time on :class:`~repro.pevpm.VirtualMachine`.  The
golden suite holds only two runs of an 8-task farm at ppn 1, which
leaves most of its match machinery unpinned: the draw order of a
wildcard's candidate sources, drawn messages a later specific receive
takes, intra-node messages, and the order a deadlock reports its
blocked processes in.

These cells run the task farm and a wildcard-heavy program at 8 and 16
processes, ppn 1 and 2, every NIC mode and 8 seeds under sampled
``DistributionTiming``, and pin a sha256 digest (first 16 hex digits)
of every :class:`~repro.pevpm.MachineResult` field, plus each cell's
mean elapsed time so a drift reads as a number.  The first seed of a
cell runs traced and pins its trace events.  The deadlock cells pin
``ModelDeadlock.blocked`` in its insertion order, the orphans and the
message.

Two more DBs pin the per-run path's other inverse CDFs at ``nic="tx"``:
the same DB stripped of its retained samples, so every draw goes
through a histogram's binned inverse CDF, and the same DB with every
0-byte histogram collapsed to a constant, which the wildcard program's
0-byte messages draw exactly and the farm's 8-byte stop message blends
with the 512-byte measurement.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import make_tasks, taskfarm_model
from repro.mpibench import (
    BenchmarkResult,
    BenchSettings,
    DistributionDB,
    Histogram,
    MPIBench,
)
from repro.pevpm import ANY_SOURCE, ModelDeadlock, VirtualMachine, timing_from_db
from repro.simnet import perseus

SPEC = perseus(16)
SEED = 23
RUNS = 8
ROUNDS = 6


@pytest.fixture(scope="module")
def db():
    # Built as tests/test_goldens.py builds its DB.
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def stripped_db(db):
    """The same DB without retained samples, as
    ``tests/pevpm/test_phase_plan.py`` builds its binned DB."""
    return DistributionDB.from_doc(db.to_doc(include_samples=False))


def degenerate_db(db):
    """The same DB with every 0-byte histogram's samples set to its
    minimum: a degenerate (constant) histogram per op and config."""
    out = DistributionDB(cluster=db.cluster)
    for op in db.ops():
        for nodes, ppn in db.configs(op):
            result = db.result(op, nodes, ppn)
            hists = dict(result.histograms)
            zero = hists[0]
            hists[0] = Histogram.from_samples([zero.min] * zero.n, bins=zero.nbins)
            out.add(BenchmarkResult(
                op=op, nodes=nodes, ppn=ppn, cluster=result.cluster,
                histograms=hists, reps=result.reps, seed=result.seed,
            ))
    return out


@pytest.fixture(scope="module")
def form_dbs(db):
    return {"binned": stripped_db(db), "degenerate": degenerate_db(db)}


def wildcard_mix(ctx):
    """Each round every rank sends to both ring neighbours and reports to
    rank 0.  A rank other than 0 takes one neighbour with a wildcard and
    then the other by name -- often a message the wildcard drew and
    passed over; rank 0 takes everything with wildcards."""
    P, me = ctx.numprocs, ctx.procnum
    left, right = (me - 1) % P, (me + 1) % P
    for r in range(ROUNDS):
        yield ctx.serial(1e-4 * (1 + (3 * me + r) % 5), label="work")
        yield ctx.send(left, 512, label="ring", payload=r)
        yield ctx.send(right, 1024 if r % 2 else 0, label="ring", payload=r)
        if me:
            yield ctx.send(0, 2048, label="report", payload=(me, r))
            first = yield ctx.recv(label="ring-any")
            other = right if first.src == left else left
            yield ctx.recv(other, label="ring-other")
        else:
            for _ in range(P + 1):
                yield ctx.recv(label="gather")


def stalls(ctx):
    """A ring exchange, then an unmatched send from each even rank, then
    a receive nobody serves except on ranks 0 mod 6.  Block times come
    from arrival draws, so the blocked map is not in procnum order."""
    P, me = ctx.numprocs, ctx.procnum
    yield ctx.serial(1e-4 * (P - me))
    yield ctx.send((me + 1) % P, 512)
    yield ctx.recv((me - 1) % P)
    if me % 2 == 0:
        yield ctx.send((me + 2) % P, 1024, payload=me)
    yield ctx.recv(ANY_SOURCE if me % 3 == 0 else (me + 1) % P)


PROGRAMS = {
    "taskfarm": taskfarm_model(make_tasks(40, seed=5)),
    "wildcard": wildcard_mix,
}

FIELDS = (
    "elapsed", "finish_times", "compute_time", "send_time",
    "recv_wait_time", "messages", "peak_contention", "sweeps",
)


def digest(values) -> str:
    # repr round-trips every float exactly.
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def orphan_rows(orphans) -> list[tuple]:
    return [
        (o.msg_id, o.src, o.dst, o.size, o.depart_time, o.intra, o.payload)
        for o in orphans
    ]


def machine(db, nprocs, nic, ppn, child, trace=False):
    timing = timing_from_db(db, mode="distribution", nprocs=nprocs)
    return VirtualMachine(
        nprocs, timing, seed=child, trace=trace,
        nic_serialisation=nic, ppn=ppn,
    )


def run_cell(db, name, nprocs, nic, ppn) -> dict:
    children = np.random.SeedSequence(SEED).spawn(RUNS)
    results = [
        machine(db, nprocs, nic, ppn, child, trace=i == 0).run(PROGRAMS[name])
        for i, child in enumerate(children)
    ]
    doc = {f: digest([getattr(r, f) for r in results]) for f in FIELDS}
    doc["orphans"] = digest([orphan_rows(r.orphans) for r in results])
    doc["trace"] = digest([
        (e.proc, e.category, e.label, e.start, e.end)
        for e in results[0].trace.events
    ])
    doc["mean"] = float(np.mean([r.elapsed for r in results]))
    return doc


def deadlock_cell(db, nic, ppn, seed) -> dict:
    with pytest.raises(ModelDeadlock) as info:
        machine(db, 8, nic, ppn, seed).run(stalls)
    exc = info.value
    return {
        "blocked": list(exc.blocked.items()),
        "orphans": digest(orphan_rows(exc.orphans)),
        "message": str(exc),
    }


#: (program, nprocs, nic, ppn) -> field digests and mean elapsed
PINNED = {
    ('taskfarm', 8, 'off', 1): {'elapsed': 'b967329caa0c44ff', 'finish_times': 'ded598294c5a8b8f', 'compute_time': '41c138d91cdf1b0a', 'send_time': '50cca202ccf55e8b', 'recv_wait_time': '064ab7adbb1730e7', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': '0f34d96125529948', 'mean': 0.03582872909537656},
    ('taskfarm', 8, 'off', 2): {'elapsed': 'eda5c62b40f55479', 'finish_times': '9c77cf39698f66b5', 'compute_time': 'c9844545ba3467a2', 'send_time': '729451a0280c709f', 'recv_wait_time': '531cc1621e2740e1', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': '3b7f9e49d41632ea', 'mean': 0.03407060094424035},
    ('taskfarm', 8, 'tx', 1): {'elapsed': '7c15b4ff96e29729', 'finish_times': '6c60401bb11cd08b', 'compute_time': '2065709b8ab36ad6', 'send_time': 'ba4b7d34592dc210', 'recv_wait_time': '99ae731088fb92a6', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': '39ee61d6b16be5c9', 'mean': 0.036037394430839795},
    ('taskfarm', 8, 'tx', 2): {'elapsed': '52856cc035c2892f', 'finish_times': 'abd11ea9bc1f5fd8', 'compute_time': 'b4dc84157c1bc59d', 'send_time': '8817b0dde4653d17', 'recv_wait_time': 'ad6ef5bf4772f0ec', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': 'd7d836fc72882dfd', 'mean': 0.03789931215112627},
    ('taskfarm', 8, 'txrx', 1): {'elapsed': '1da2a2c9fda00899', 'finish_times': '52abb6e7b3790bbd', 'compute_time': '2191ffaf4631e4e6', 'send_time': '27d44311c145b6de', 'recv_wait_time': 'dfc48bc4180cfb7c', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': 'a492d57d87606b15', 'mean': 0.046952561406125366},
    ('taskfarm', 8, 'txrx', 2): {'elapsed': '1e2833da76ec25c9', 'finish_times': '4f27153efa857ff5', 'compute_time': 'ad6dabf9ba279fec', 'send_time': 'cd018f9f1ea4f608', 'recv_wait_time': '4acf525bd4e22aab', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': 'f8a3a5e40a5fa9d0', 'mean': 0.04619884986250557},
    ('taskfarm', 16, 'off', 1): {'elapsed': '4e7bfa9be6ca7544', 'finish_times': '3276fad9fc0977eb', 'compute_time': 'ba4c76f38debbfc4', 'send_time': '41487c0dd7d3cdcc', 'recv_wait_time': '1981235a952f77e4', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '9a84033f5091097a', 'mean': 0.02049580215956526},
    ('taskfarm', 16, 'off', 2): {'elapsed': '32305e53a13aa4a9', 'finish_times': 'f4fa670eec50f90b', 'compute_time': 'c54a96c0c497423e', 'send_time': '45aeed868865bd5c', 'recv_wait_time': '70006c9400a6931d', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '0e417768633cca2b', 'mean': 0.020424137940332612},
    ('taskfarm', 16, 'tx', 1): {'elapsed': '79674cce6a6f22a9', 'finish_times': '7742332cdad6f302', 'compute_time': '4fc3374e1ab9049a', 'send_time': '41e50407d3c408f7', 'recv_wait_time': '6df37cb11958242f', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '4262ba7948ab793e', 'mean': 0.02166896038757646},
    ('taskfarm', 16, 'tx', 2): {'elapsed': '2ad4d1df8404bb21', 'finish_times': 'ed776b7037dc7936', 'compute_time': '2148e1a9603f45c3', 'send_time': '5b299daaa73a8045', 'recv_wait_time': 'b1c27f48ff0bc103', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '731eee741cac26b5', 'mean': 0.02194665978409216},
    ('taskfarm', 16, 'txrx', 1): {'elapsed': '0f5395ee7b7eee0c', 'finish_times': 'e98fdf963380a887', 'compute_time': '30b6bde6ff797dc6', 'send_time': 'b9cf8821ef5f403b', 'recv_wait_time': '8b96755b7d35c4ec', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '6a39a0849261201e', 'mean': 0.02673885251078616},
    ('taskfarm', 16, 'txrx', 2): {'elapsed': 'ce77954925302404', 'finish_times': 'b31ea97d63829133', 'compute_time': '2a76fa2497fcb288', 'send_time': 'b58154169d5282af', 'recv_wait_time': 'f22e00b072cffc5d', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '50bc0207deb92a0d', 'mean': 0.02615723751634652},
    ('wildcard', 8, 'off', 1): {'elapsed': 'edf6c21e410fe506', 'finish_times': '2dc475531763d857', 'compute_time': 'a0d5656de9350bc2', 'send_time': 'd19648eef047652f', 'recv_wait_time': 'ed58e095d2180886', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '7b3dfa817215d2ab', 'mean': 0.004290256605311855},
    ('wildcard', 8, 'off', 2): {'elapsed': 'c0d3a9398ab63045', 'finish_times': 'a9cdac9db20881ba', 'compute_time': 'a0d5656de9350bc2', 'send_time': 'b0c2789562715005', 'recv_wait_time': 'b74d5b69d3349bb0', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '5d8da46a16d7c53f', 'mean': 0.004066008218744841},
    ('wildcard', 8, 'tx', 1): {'elapsed': '6af7978c0ea104f0', 'finish_times': 'c0af23faad2c42a1', 'compute_time': 'a0d5656de9350bc2', 'send_time': '120aff16b0ed5b56', 'recv_wait_time': '568f81278e47a9c0', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '723a7ba6c646c2bf', 'mean': 0.00625200958653089},
    ('wildcard', 8, 'tx', 2): {'elapsed': '6af11e6162168c99', 'finish_times': '25650fa1d9778585', 'compute_time': 'a0d5656de9350bc2', 'send_time': '9f74900443c001b0', 'recv_wait_time': '3bc5013caece7e08', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '326b140c35fc4d9e', 'mean': 0.006037791742393356},
    ('wildcard', 8, 'txrx', 1): {'elapsed': '382fbf951a0d50ca', 'finish_times': 'ff5f7e52718f1614', 'compute_time': 'a0d5656de9350bc2', 'send_time': '1ba56ca813398c04', 'recv_wait_time': '0008d32e72553433', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '84fbd271234d33f3', 'mean': 0.00976877716442075},
    ('wildcard', 8, 'txrx', 2): {'elapsed': 'e489ecdac04b43db', 'finish_times': 'c3fac5e011209ae6', 'compute_time': 'a0d5656de9350bc2', 'send_time': 'cc041b3971683eea', 'recv_wait_time': '42ddff730af1a828', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '567a76cc0d1e4bd8', 'mean': 0.008731296600657074},
    ('wildcard', 16, 'off', 1): {'elapsed': 'd8cd939471cb2b79', 'finish_times': 'ffa8ba744c24c609', 'compute_time': '27115fa82a3c2484', 'send_time': '8c76d1ad472d72b2', 'recv_wait_time': 'be059a5affe5c7aa', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': '5034d5386bb95f80', 'mean': 0.004252006892486334},
    ('wildcard', 16, 'off', 2): {'elapsed': '2a43bfade207ff95', 'finish_times': 'f5e1f9010b15fc2e', 'compute_time': '27115fa82a3c2484', 'send_time': '224d625360963c00', 'recv_wait_time': '88143d70b09eb0b3', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': 'c58ead5f07f845e4', 'mean': 0.004000704049996754},
    ('wildcard', 16, 'tx', 1): {'elapsed': 'a8dfc14d1b8fc756', 'finish_times': '64a85556dab14611', 'compute_time': '27115fa82a3c2484', 'send_time': '893ef57909f2271b', 'recv_wait_time': '881083c713312a6b', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': '3db17bc385f95627', 'mean': 0.006441192730098308},
    ('wildcard', 16, 'tx', 2): {'elapsed': 'c671d6ab76e626cc', 'finish_times': 'b83e69f57658a8e9', 'compute_time': '27115fa82a3c2484', 'send_time': 'ce341ae1322cdea2', 'recv_wait_time': 'fa8b2a27aef8b0db', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': '21b76ca6d815b65d', 'mean': 0.006938464471315244},
    ('wildcard', 16, 'txrx', 1): {'elapsed': '916554a0a58a1212', 'finish_times': '7207c8022803008e', 'compute_time': '27115fa82a3c2484', 'send_time': '7ee39a2c3dceacb7', 'recv_wait_time': '8cbe1769c6095654', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': '13927946d33367b1', 'mean': 0.018394706416948087},
    ('wildcard', 16, 'txrx', 2): {'elapsed': 'b3cdfa224c9fdea3', 'finish_times': 'ca17ac13545fc4a2', 'compute_time': '27115fa82a3c2484', 'send_time': 'd362307630491f2c', 'recv_wait_time': 'ded9406351f41040', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': 'acdede8ec0147167', 'mean': 0.018505361794715257},
}


#: (DB form, program, nprocs, ppn) -> the same, at ``nic="tx"`` on the
#: stripped or degenerate DB
PINNED_FORMS = {
    ('binned', 'taskfarm', 8, 1): {'elapsed': '771d6acdeabad5ad', 'finish_times': '71e7c94eecbe511f', 'compute_time': '2065709b8ab36ad6', 'send_time': '593546c04b3fa6e8', 'recv_wait_time': '11438ec6b5a18936', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': '9daf4102e826dd6c', 'mean': 0.03604158613384677},
    ('binned', 'taskfarm', 8, 2): {'elapsed': '91cd5dcf5eefbb97', 'finish_times': '5c3c26644ce6ff12', 'compute_time': 'b4dc84157c1bc59d', 'send_time': '2334f206537a319e', 'recv_wait_time': 'ca54806a9d9795b5', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': 'cbc4480107f4969e', 'mean': 0.03790165300298327},
    ('binned', 'taskfarm', 16, 1): {'elapsed': 'a7b3117212c954d5', 'finish_times': 'c0df2ee38c41c560', 'compute_time': '4fc3374e1ab9049a', 'send_time': 'd31efa7ffbe45143', 'recv_wait_time': '404de2be56ee8b8c', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': 'e166e2b747b4ddcf', 'mean': 0.021669674904032796},
    ('binned', 'taskfarm', 16, 2): {'elapsed': 'd68526f1830c7959', 'finish_times': '034457f96a2aaec5', 'compute_time': '2148e1a9603f45c3', 'send_time': 'df1fef278a7cb111', 'recv_wait_time': 'e1b8d3bceb7f44c3', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '5b4569d165d99977', 'mean': 0.02194783558248946},
    ('binned', 'wildcard', 8, 1): {'elapsed': 'e4d65188002ae3d6', 'finish_times': '36a420cefcc3f229', 'compute_time': 'a0d5656de9350bc2', 'send_time': '42994e28ebcd5c3d', 'recv_wait_time': '9e74ee89ca3492f7', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': 'dfcde57b7ddb41bf', 'mean': 0.006228795083954146},
    ('binned', 'wildcard', 8, 2): {'elapsed': 'ffd8442aa6fc9556', 'finish_times': '5f10d9d0e32dbfea', 'compute_time': 'a0d5656de9350bc2', 'send_time': '71016721f87e1ff7', 'recv_wait_time': 'afe6d2373b69ed0a', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': 'b08c2d74c9c7d0ce', 'mean': 0.006050314978647817},
    ('binned', 'wildcard', 16, 1): {'elapsed': '16c1283a8311bf7a', 'finish_times': 'e092d59656c53cac', 'compute_time': '27115fa82a3c2484', 'send_time': '14f065f0a69010eb', 'recv_wait_time': '93005bc11a691a26', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': 'e9db66d2270e5e50', 'mean': 0.006449305312618975},
    ('binned', 'wildcard', 16, 2): {'elapsed': '3a685d6a138921ee', 'finish_times': 'd5d27556b6946579', 'compute_time': '27115fa82a3c2484', 'send_time': '76dc6d400d8c65be', 'recv_wait_time': '8d940842d1abcb41', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': '4e0640b6f316fec5', 'mean': 0.006942526377044467},
    ('degenerate', 'taskfarm', 8, 1): {'elapsed': '4733e1b004b73273', 'finish_times': '2d15c1f021612767', 'compute_time': '2065709b8ab36ad6', 'send_time': '07945b96eb8dd5e8', 'recv_wait_time': '6959739e1488b450', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': '182e64f1309e5ee3', 'mean': 0.03603700873867671},
    ('degenerate', 'taskfarm', 8, 2): {'elapsed': 'cbf1feeb3b1a6171', 'finish_times': '5528e15a54375e1f', 'compute_time': 'b4dc84157c1bc59d', 'send_time': '3e42a9242e7cd5bb', 'recv_wait_time': '52cb533f979e4c7b', 'messages': 'b5a3001d8f764ae9', 'peak_contention': '73aad18427eee87c', 'sweeps': 'd0aae172f00645e5', 'orphans': 'e0af4f4b011b185c', 'trace': 'b7019fbbdab6dcc9', 'mean': 0.03789904807498556},
    ('degenerate', 'taskfarm', 16, 1): {'elapsed': '1cee4ab44c1e9a38', 'finish_times': '893c220390863b82', 'compute_time': '4fc3374e1ab9049a', 'send_time': '6819e68a9f9101d9', 'recv_wait_time': '4f6a3be7d8ec8ed1', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': '1e081e5643bb75ca', 'mean': 0.021668007269315982},
    ('degenerate', 'taskfarm', 16, 2): {'elapsed': '65b7f6ae60c892f1', 'finish_times': '85151efb7474fb5b', 'compute_time': '2148e1a9603f45c3', 'send_time': '9ee7c9238ba9ee4e', 'recv_wait_time': '8dfaca3b2bb18c18', 'messages': '354ef13e7ddd8bec', 'peak_contention': '130b719e6b6c4184', 'sweeps': '6e5ab8b72fc0a5ed', 'orphans': 'e0af4f4b011b185c', 'trace': 'ff6a748db68a6282', 'mean': 0.021945645830827414},
    ('degenerate', 'wildcard', 8, 1): {'elapsed': 'cc74a7f75d21496c', 'finish_times': '12e16a5dda7e16ad', 'compute_time': 'a0d5656de9350bc2', 'send_time': 'be863be6a49fd828', 'recv_wait_time': 'c1af0e0a711f1556', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': '2405b61b191f3dde', 'mean': 0.006173570682382083},
    ('degenerate', 'wildcard', 8, 2): {'elapsed': '56193d64ef0a8ecd', 'finish_times': 'db927b85d685e592', 'compute_time': 'a0d5656de9350bc2', 'send_time': 'cb5f2e645517efff', 'recv_wait_time': 'ce142165862468f2', 'messages': '77d148157a85e93f', 'peak_contention': 'b70d90ef3e5c7cb7', 'sweeps': 'fe5df1035a53ec79', 'orphans': 'e0af4f4b011b185c', 'trace': 'a651e02c3eeefdbf', 'mean': 0.006032523232247676},
    ('degenerate', 'wildcard', 16, 1): {'elapsed': '172ae37b5a093f34', 'finish_times': '652fc972089b1d9d', 'compute_time': '27115fa82a3c2484', 'send_time': '59d6c53579e40b8b', 'recv_wait_time': '59965c3a87691249', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': 'ab9bc8e9c8efd40f', 'mean': 0.006336691405984683},
    ('degenerate', 'wildcard', 16, 2): {'elapsed': '49664fa5f956f6c7', 'finish_times': '33f94f5ad3e3fb4c', 'compute_time': '27115fa82a3c2484', 'send_time': '8e6ded133375de09', 'recv_wait_time': '230dfd5f3d08cd52', 'messages': 'cf91583e278d9193', 'peak_contention': '1896c6d39b54f4a1', 'sweeps': '83d8f352563b3106', 'orphans': 'e0af4f4b011b185c', 'trace': '64a54706010ae63e', 'mean': 0.006911686832151898},
}


#: (nic, ppn, seed) -> the deadlock's blocked items, orphans, message
PINNED_DEADLOCK = {
    ('off', 1, 1): {'blocked': [(7, 0), (5, 6), (4, 5), (3, -1), (2, 3), (1, 2)], 'orphans': '81abf0ff8a74b316', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('off', 1, 2): {'blocked': [(7, 0), (5, 6), (4, 5), (3, -1), (2, 3), (1, 2)], 'orphans': '080c18d94740c726', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('off', 2, 1): {'blocked': [(7, 0), (5, 6), (3, -1), (4, 5), (1, 2), (2, 3)], 'orphans': '81abf0ff8a74b316', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('off', 2, 2): {'blocked': [(7, 0), (5, 6), (3, -1), (4, 5), (1, 2), (2, 3)], 'orphans': '813aa391477ad6ab', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('tx', 1, 1): {'blocked': [(7, 0), (5, 6), (4, 5), (3, -1), (2, 3), (1, 2)], 'orphans': '81abf0ff8a74b316', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('tx', 1, 2): {'blocked': [(7, 0), (5, 6), (4, 5), (3, -1), (2, 3), (1, 2)], 'orphans': '080c18d94740c726', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('tx', 2, 1): {'blocked': [(7, 0), (5, 6), (3, -1), (4, 5), (1, 2), (2, 3)], 'orphans': '81abf0ff8a74b316', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('tx', 2, 2): {'blocked': [(7, 0), (5, 6), (3, -1), (4, 5), (1, 2), (2, 3)], 'orphans': '813aa391477ad6ab', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('txrx', 1, 1): {'blocked': [(7, 0), (5, 6), (4, 5), (3, -1), (2, 3), (1, 2)], 'orphans': '81abf0ff8a74b316', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('txrx', 1, 2): {'blocked': [(7, 0), (5, 6), (4, 5), (3, -1), (2, 3), (1, 2)], 'orphans': '080c18d94740c726', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('txrx', 2, 1): {'blocked': [(7, 0), (5, 6), (3, -1), (4, 5), (1, 2), (2, 3)], 'orphans': '81abf0ff8a74b316', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
    ('txrx', 2, 2): {'blocked': [(7, 0), (5, 6), (3, -1), (4, 5), (1, 2), (2, 3)], 'orphans': '813aa391477ad6ab', 'message': 'model deadlock: proc 1 waiting on proc 2, proc 2 waiting on proc 3, proc 3 waiting on ANY, proc 4 waiting on proc 5, proc 5 waiting on proc 6, proc 7 waiting on proc 0; 2 message(s) in flight'},
}


@pytest.mark.parametrize("ppn", [1, 2])
@pytest.mark.parametrize("nic", ["off", "tx", "txrx"])
@pytest.mark.parametrize("nprocs", [8, 16])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cell_is_bit_identical(db, name, nprocs, nic, ppn):
    got = run_cell(db, name, nprocs, nic, ppn)
    want = PINNED[(name, nprocs, nic, ppn)]
    assert got["mean"] == want["mean"]
    assert got == want


@pytest.mark.parametrize("ppn", [1, 2])
@pytest.mark.parametrize("nprocs", [8, 16])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("form", ["binned", "degenerate"])
def test_form_cell_is_bit_identical(form_dbs, form, name, nprocs, ppn):
    got = run_cell(form_dbs[form], name, nprocs, "tx", ppn)
    want = PINNED_FORMS[(form, name, nprocs, ppn)]
    assert got["mean"] == want["mean"]
    assert got == want


def test_degenerate_db_collapses_zero_byte_histograms(form_dbs):
    # The degenerate cells pin the constant inverse CDF only if the
    # collapsed histograms are degenerate and the programs draw them.
    db = form_dbs["degenerate"]
    for op in db.ops():
        for nodes, ppn in db.configs(op):
            assert db.result(op, nodes, ppn).histograms[0].degenerate


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("ppn", [1, 2])
@pytest.mark.parametrize("nic", ["off", "tx", "txrx"])
def test_deadlock_is_bit_identical(db, nic, ppn, seed):
    assert deadlock_cell(db, nic, ppn, seed) == PINNED_DEADLOCK[(nic, ppn, seed)]


def test_deadlock_blocked_map_is_not_procnum_order():
    # The pin above would not see the insertion order if every cell
    # blocked in procnum order.
    orders = [[p for p, _ in doc["blocked"]] for doc in PINNED_DEADLOCK.values()]
    assert any(order != sorted(order) for order in orders)
