"""Tests for FIFO bandwidth resources, including hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import Simulator
from repro.simnet.resources import BandwidthResource


def _drain(sim, res, sizes):
    """Submit transfers of the given sizes at t=0, advance the clock to the
    last drain and return every drain time."""
    done = [res.transmit(n) for n in sizes]
    sim.run(until=max(done))
    return done


def test_transmit_returns_drain_time_and_schedules_nothing():
    sim = Simulator()
    res = BandwidthResource(sim, rate=1000.0)
    assert res.transmit(500) == 0.5
    assert sim.peek() == float("inf")


def test_single_transfer_takes_service_time():
    sim = Simulator()
    res = BandwidthResource(sim, rate=1000.0)  # 1000 B/s
    times = _drain(sim, res, [500])
    assert times == [pytest.approx(0.5)]


def test_back_to_back_transfers_serialise():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    times = _drain(sim, res, [100, 100, 100])
    assert times == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_backlog_reflects_queued_work():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    assert res.backlog == 0.0
    res.transmit(100)
    assert res.backlog == pytest.approx(1.0)
    res.transmit(50)
    assert res.backlog == pytest.approx(1.5)


def test_pipe_idles_between_separated_transfers():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    done = []

    def proc():
        drained = res.transmit(100)  # finishes at 1.0
        done.append(drained)
        yield sim.timeout(drained + 5.0)  # idle until 6.0
        assert res.backlog == 0.0
        done.append(res.transmit(100))  # starts fresh at 6.0, finishes 7.0

    sim.spawn(proc())
    sim.run()
    assert done == [pytest.approx(1.0), pytest.approx(7.0)]


def test_service_scale_inflates_occupancy():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    res.transmit(100, service_scale=2.0)
    # The slow transfer occupies the pipe for 2s, so a second arrival
    # queues behind the full inflated time.
    assert res.backlog == pytest.approx(2.0)


def test_zero_byte_transfer_completes_instantly():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    times = _drain(sim, res, [0])
    assert times == [pytest.approx(0.0)]


def test_stats_accumulate():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    _drain(sim, res, [100, 200])
    assert res.stats.messages == 2
    assert res.stats.bytes == 300
    assert res.stats.busy_time == pytest.approx(3.0)
    assert res.stats.queued_messages == 1  # the second arrival queued
    assert res.stats.max_backlog == pytest.approx(1.0)


def test_utilisation_bounded():
    sim = Simulator()
    res = BandwidthResource(sim, rate=100.0)
    _drain(sim, res, [100])
    assert res.utilisation() == pytest.approx(1.0)
    assert 0.0 <= res.utilisation(elapsed=10.0) <= 1.0
    assert res.utilisation(elapsed=0.0) == 0.0


def test_invalid_arguments():
    sim = Simulator()
    with pytest.raises(ValueError):
        BandwidthResource(sim, rate=0.0)
    res = BandwidthResource(sim, rate=1.0)
    with pytest.raises(ValueError):
        res.transmit(-1)
    with pytest.raises(ValueError):
        res.transmit(1, service_scale=0.0)
    with pytest.raises(ValueError):
        res.service_time(-5)


# -- property-based -----------------------------------------------------------


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30),
    rate=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_fifo_completion_order_and_conservation(sizes, rate):
    """Transfers complete in submission order, and the total busy time
    equals the sum of individual service times (work conservation)."""
    sim = Simulator()
    res = BandwidthResource(sim, rate=rate)
    times = [res.transmit(n) for n in sizes]

    # FIFO: each transfer starts when the one before it has drained.
    assert times == sorted(times)
    for before, after, n in zip([0.0, *times], times, sizes):
        assert after == pytest.approx(before + n / rate, rel=1e-9, abs=1e-12)
    # Last completion = total work / rate (all submitted at t=0).
    assert times[-1] == pytest.approx(sum(sizes) / rate, rel=1e-9, abs=1e-12)
    assert res.stats.busy_time == pytest.approx(sum(sizes) / rate, rel=1e-9, abs=1e-12)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10_000), min_size=2, max_size=20)
)
@settings(max_examples=40, deadline=None)
def test_backlog_never_negative_and_decreases_with_time(sizes):
    sim = Simulator()
    res = BandwidthResource(sim, rate=1000.0)
    for n in sizes:
        res.transmit(n)
        assert res.backlog >= 0.0
    total = sum(sizes) / 1000.0
    observed = []

    def watcher():
        while res.backlog > 0:
            observed.append(res.backlog)
            yield sim.timeout(total / 10)

    sim.spawn(watcher())
    sim.run(detect_deadlock=False)
    assert all(b >= 0 for b in observed)
    assert observed == sorted(observed, reverse=True)
