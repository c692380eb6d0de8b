"""Property-based parity tests: compiled schedules vs the interpreter.

Random message-passing programs are generated from a *global linear
order of events* -- each event is either a compute burst on one process
or a message (src, dst, size), and every process executes its slice of
the event list in order.  Programs built this way are deadlock-free by
construction: consider the earliest event whose operation never
completes; every prior event completed, so its sender reached its send
(sends never block), and FIFO/counting delivery then completes the recv
-- contradiction.  Wildcard receives are safe under the same argument as
long as each process uses either only-wildcard or only-fixed receives
(mixing the two lets a wildcard steal a later fixed receive's message),
so the generator draws that choice per process.

Each program is traced, compiled, and executed.  The per-run machine
runs a compiled program's generator form, the reference: every run of a
batch on the schedule equals the per-run interpreted run under Hockney
timing, and a one-run batch draws a stochastic model's stream in the
per-run order.
Receivers sometimes react to the delivered :class:`MatchInfo` (a
compute burst proportional to the received size), so a mis-delivered
size or payload in the traced schedule shows up as a clock difference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pevpm import (
    ANY_SOURCE,
    BatchedVirtualMachine,
    HockneyTiming,
    TimingModel,
    VirtualMachine,
    compile_program,
)


class StochasticTiming(TimingModel):
    """A cheap, distribution-free stochastic timing source: every call
    draws from the run's RNG, so any reordering or miscount of draw
    sites between the compiled and interpreted paths breaks parity."""

    name = "stochastic-test"

    def one_way_time(self, size, contention, rng, intra=False):
        base = 2e-5 if not intra else 4e-6
        return base * (1.0 + 0.05 * contention) + rng.random() * 1e-6 * (
            1.0 + size / 1024.0
        )

    def local_send_time(self, size, contention, rng, intra=False):
        return 1e-6 + rng.random() * 2e-7 * (1.0 + size / 4096.0)


@st.composite
def programs(draw):
    """(program callable, nprocs, n_messages) from a global event order."""
    nprocs = draw(st.integers(min_value=2, max_value=4))
    # Per-process receive style: True -> every recv is a wildcard.
    wildcard = [draw(st.booleans()) for _ in range(nprocs)]
    n_events = draw(st.integers(min_value=1, max_value=14))
    events = []
    for _ in range(n_events):
        if draw(st.booleans()):
            src = draw(st.integers(min_value=0, max_value=nprocs - 1))
            dst = draw(
                st.integers(min_value=0, max_value=nprocs - 2).map(
                    lambda d, s=src: d if d < s else d + 1
                )
            )
            size = draw(st.sampled_from([0, 64, 512, 2048]))
            react = draw(st.booleans())
            events.append(("msg", src, dst, size, react))
        else:
            proc = draw(st.integers(min_value=0, max_value=nprocs - 1))
            micros = draw(st.integers(min_value=1, max_value=50))
            events.append(("compute", proc, micros))

    scripts = [[] for _ in range(nprocs)]
    n_messages = 0
    for event in events:
        if event[0] == "compute":
            _, proc, micros = event
            scripts[proc].append(("serial", micros * 1e-6))
        else:
            _, src, dst, size, react = event
            n_messages += 1
            scripts[src].append(("send", dst, size))
            scripts[dst].append(
                ("recv", ANY_SOURCE if wildcard[dst] else src, react)
            )

    def program(ctx):
        for step in scripts[ctx.procnum]:
            if step[0] == "serial":
                yield ctx.serial(step[1], label="work")
            elif step[0] == "send":
                yield ctx.send(step[1], step[2], label="m",
                               payload=step[2] * 2.0)
            else:
                info = yield ctx.recv(step[1], label="m")
                assert info.payload == info.size * 2.0
                if step[2]:
                    # React to the delivered MatchInfo: wrong size or
                    # payload in a traced schedule shifts the clock.
                    yield ctx.serial(1e-7 * (1.0 + info.size), label="react")

    return program, nprocs, n_messages


@settings(max_examples=30, deadline=None)
@given(programs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_scalar_parity_deterministic_and_stochastic(progspec, seed):
    program, nprocs, n_messages = progspec
    compiled = compile_program(program, nprocs)
    if not compiled.divergent:
        assert compiled.messages == n_messages
    # The per-run machine runs a CompiledProgram as its generator form.
    for timing in (HockneyTiming(1e-5, 1e-9), StochasticTiming()):
        a = VirtualMachine(nprocs, timing, seed=seed).run(program)
        b = VirtualMachine(nprocs, timing, seed=seed).run(compiled)
        assert b.elapsed == a.elapsed
        assert b.finish_times == a.finish_times
        assert b.compute_time == a.compute_time
        assert b.recv_wait_time == a.recv_wait_time
        assert b.messages == a.messages
        assert b.sweeps == a.sweeps


@settings(max_examples=15, deadline=None)
@given(programs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_batched_parity_stochastic(progspec, seed):
    program, nprocs, _ = progspec
    compiled = compile_program(program, nprocs)
    if compiled.divergent:
        with pytest.raises(ValueError, match="divergent"):
            BatchedVirtualMachine(nprocs, HockneyTiming(1e-5, 1e-9)).run(compiled)
        return
    # A one-run batch draws a scalar-only model's stream in the scalar
    # engine's order; under Hockney timing every run of a batch agrees.
    for timing, runs in ((StochasticTiming(), 1), (HockneyTiming(1e-5, 1e-9), 4)):
        ref = VirtualMachine(nprocs, timing, seed=seed).run(program)
        batch = BatchedVirtualMachine(nprocs, timing, seed=seed, runs=runs).run(compiled)
        for b in batch:
            assert b.elapsed == ref.elapsed
            assert b.finish_times == ref.finish_times
            assert b.compute_time == ref.compute_time
            assert b.send_time == ref.send_time
            assert b.recv_wait_time == ref.recv_wait_time
            assert (b.messages, b.peak_contention, b.sweeps) == (
                ref.messages, ref.peak_contention, ref.sweeps
            )


@settings(max_examples=15, deadline=None)
@given(programs())
def test_compile_is_idempotent_and_schedules_cover_all_ops(progspec):
    program, nprocs, _ = progspec
    first = compile_program(program, nprocs)
    again = compile_program(program, nprocs)
    assert again.divergent == first.divergent
    if first.divergent:
        return
    assert again.ops == first.ops
    plan = first.plan(2, "tx")
    # The sweeps' op ranges cover every op exactly once, in order.
    covered = [[] for _ in range(nprocs)]
    for sweep, _ in plan.rounds:
        for p, start, end in zip(sweep.procs, sweep.starts, sweep.ends):
            assert start == len(covered[p])
            covered[p] += first.ops[p][start:end]
    assert covered == first.ops
    for ops in first.ops:
        for op in ops:
            assert op[0] in ("serial", "send", "recv")
    sends = np.concatenate([sweep.intra for sweep, _ in plan.rounds])
    assert sends.dtype == bool and len(sends) == first.messages
