"""Tests for point-to-point MPI semantics on the simulated cluster."""

import pytest

from repro.simnet import ideal_cluster, perseus
from repro.smpi import (
    ANY_SOURCE,
    ANY_TAG,
    CommAbort,
    RankError,
    TagError,
    run_program,
)


def run2(program, spec=None, nprocs=2, **kw):
    return run_program(spec or ideal_cluster(max(4, nprocs)), program, nprocs=nprocs, **kw)


class TestBasicSendRecv:
    def test_payload_and_status_roundtrip(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(512, dest=1, tag=9, payload={"k": 1})
                return None
            payload, st = yield from comm.recv(source=0, tag=9)
            return payload, st

        r = run2(program)
        payload, st = r.returns[1]
        assert payload == {"k": 1}
        assert st.source == 0 and st.tag == 9 and st.size == 512

    def test_zero_byte_message(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(0, dest=1)
                return None
            _, st = yield from comm.recv(source=0)
            return st.size

        assert run2(program).returns[1] == 0

    def test_any_source_any_tag(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(16, dest=1, tag=42, payload="x")
                return None
            payload, st = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
            return payload, st.source, st.tag

        assert run2(program).returns[1] == ("x", 0, 42)

    def test_send_takes_positive_time(self):
        def program(comm):
            t0 = comm.true_time()
            if comm.rank == 0:
                yield from comm.send(1024, dest=1)
            else:
                yield from comm.recv(source=0)
            return comm.true_time() - t0

        r = run2(program)
        assert r.returns[0] > 0
        assert r.returns[1] > r.returns[0]  # receiver finishes after sender

    def test_tag_selectivity(self):
        """A receive for tag 2 must not match a tag-1 message even if that
        message arrived first."""

        def program(comm):
            if comm.rank == 0:
                yield from comm.send(8, dest=1, tag=1, payload="one")
                yield from comm.send(8, dest=1, tag=2, payload="two")
                return None
            p2, _ = yield from comm.recv(source=0, tag=2)
            p1, _ = yield from comm.recv(source=0, tag=1)
            return (p1, p2)

        assert run2(program).returns[1] == ("one", "two")

    def test_message_order_preserved_same_tag(self):
        """Non-overtaking: same source, same tag arrive in send order."""

        def program(comm):
            if comm.rank == 0:
                for i in range(10):
                    yield from comm.send(8, dest=1, tag=0, payload=i)
                return None
            seen = []
            for _ in range(10):
                p, _ = yield from comm.recv(source=0, tag=0)
                seen.append(p)
            return seen

        # Run on perseus (with jitter) to exercise the pair-FIFO clamp.
        r = run2(program, spec=perseus(4), seed=11)
        assert r.returns[1] == list(range(10))


class TestNonblocking:
    def test_isend_irecv_wait(self):
        def program(comm):
            if comm.rank == 0:
                req = yield from comm.isend(256, dest=1, payload="hi")
                yield from comm.wait(req)
                return None
            req = yield from comm.irecv(source=0)
            payload, st = yield from comm.wait(req)
            return payload

        assert run2(program).returns[1] == "hi"

    def test_eager_isend_completes_locally(self):
        """An eager isend's request is complete before any receive is
        posted (the message is buffered)."""

        def program(comm):
            if comm.rank == 0:
                req = yield from comm.isend(1024, dest=1)
                complete = comm.test(req)
                yield from comm.wait(req)
                return complete
            yield from comm.compute(1.0)  # post the recv very late
            yield from comm.recv(source=0)
            return None

        assert run2(program).returns[0] is True

    def test_rendezvous_isend_waits_for_receiver(self):
        """A rendezvous send cannot complete until the receiver posts."""

        def program(comm):
            if comm.rank == 0:
                req = yield from comm.isend(65536, dest=1)
                early = comm.test(req)
                yield from comm.wait(req)
                return early, comm.true_time()
            yield from comm.compute(0.5)
            yield from comm.recv(source=0)
            return None

        r = run2(program)
        early, finish = r.returns[0]
        assert early is False
        assert finish > 0.5  # sender blocked past the receiver's delay

    def test_waitall_orders_results(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(3):
                    yield from comm.send(8, dest=1, tag=i, payload=i * 100)
                return None
            reqs = []
            for i in range(3):
                req = yield from comm.irecv(source=0, tag=i)
                reqs.append(req)
            results = yield from comm.waitall(reqs)
            return [p for p, _st in results]

        assert run2(program).returns[1] == [0, 100, 200]

    def test_double_wait_rejected(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(8, dest=1)
                return None
            req = yield from comm.irecv(source=0)
            yield from comm.wait(req)
            with pytest.raises(ValueError):
                yield from comm.wait(req)
            return True

        assert run2(program).returns[1] is True

    def test_iprobe_sees_buffered_message(self):
        def program(comm):
            if comm.rank == 0:
                yield from comm.send(128, dest=1, tag=4)
                return None
            yield from comm.compute(0.1)  # let the message arrive
            st = comm.iprobe(source=0, tag=4)
            missing = comm.iprobe(source=0, tag=5)
            yield from comm.recv(source=0, tag=4)
            return (st.size if st else None, missing)

        assert run2(program).returns[1] == (128, None)


class TestSendrecvAndExchange:
    def test_sendrecv_no_deadlock_head_to_head(self):
        def program(comm):
            other = 1 - comm.rank
            payload, st = yield from comm.sendrecv(
                1024, dest=other, source=other, payload=f"from{comm.rank}"
            )
            return payload

        r = run2(program)
        assert r.returns == ["from1", "from0"]

    def test_large_sendrecv_no_deadlock(self):
        """Rendezvous-sized head-to-head exchange must not deadlock (both
        sides post the receive before blocking in the send)."""

        def program(comm):
            other = 1 - comm.rank
            payload, _ = yield from comm.sendrecv(
                65536, dest=other, source=other, payload=comm.rank
            )
            return payload

        r = run2(program)
        assert r.returns == [1, 0]


class TestProtocolBoundary:
    def test_eager_vs_rendezvous_latency_jump(self):
        """Crossing the 16 KB threshold adds the RTS/CTS round trip: the
        per-byte-normalised time jumps at the knee (paper Figure 2)."""

        def make(size):
            def program(comm):
                if comm.rank == 0:
                    t0 = comm.true_time()
                    yield from comm.send(size, dest=1)
                    return None
                yield from comm.recv(source=0)
                return comm.true_time()

            return program

        spec = ideal_cluster(2)
        below = run2(make(16 * 1024), spec=spec).returns[1]
        above = run2(make(16 * 1024 + 1), spec=spec).returns[1]
        # 1 extra byte of payload but two extra control messages:
        extra = above - below
        assert extra > 2 * 50e-6  # much larger than 1 byte of bandwidth

    def test_protocol_threshold_is_configurable(self):
        spec = ideal_cluster(2).with_(eager_threshold=1024)

        def program(comm):
            if comm.rank == 0:
                req = yield from comm.isend(2048, dest=1)  # now rendezvous
                return comm.test(req)
            yield from comm.compute(0.01)
            yield from comm.recv(source=0)
            return None

        r = run_program(spec, program, nprocs=2)
        assert r.returns[0] is False


class TestValidation:
    def test_bad_dest_rank(self):
        def program(comm):
            if comm.rank == 0:
                with pytest.raises(RankError):
                    yield from comm.send(8, dest=5)
            return True

        assert run2(program).returns[0] is True

    def test_bad_tag(self):
        def program(comm):
            with pytest.raises(TagError):
                yield from comm.isend(8, dest=1 - comm.rank, tag=-3)
            if False:
                yield
            return True

        assert run2(program).returns == [True, True]

    def test_negative_size(self):
        def program(comm):
            with pytest.raises(ValueError):
                yield from comm.isend(-1, dest=1 - comm.rank)
            if False:
                yield
            return True

        assert run2(program).returns == [True, True]

    def test_negative_compute_rejected(self):
        def program(comm):
            with pytest.raises(ValueError):
                yield from comm.compute(-1.0)
            if False:
                yield
            return True

        assert run2(program).returns == [True, True]

    def test_nan_compute_rejected(self):
        # NaN passes a `seconds < 0` check, and the barrier would then
        # finish as if the compute took no time.
        def program(comm):
            if comm.rank == 0:
                yield from comm.compute(float("nan"))
            yield from comm.barrier()

        with pytest.raises(ValueError, match="nan"):
            run_program(perseus(4), program, nprocs=4)


class TestClocks:
    def test_local_clocks_disagree_but_true_time_agrees(self):
        def program(comm):
            yield from comm.barrier()
            return comm.clock(), comm.true_time()

        r = run_program(perseus(4), program, nprocs=2, seed=1)
        (l0, t0), (l1, t1) = r.returns
        # Ranks finish the barrier at slightly different true times but
        # their *local* clocks disagree far more than that gap.
        assert abs(l0 - l1) > 1e-4
        assert abs(t0 - t1) < 1e-2

    def test_perfect_clocks_agree_with_truth(self):
        def program(comm):
            yield from comm.compute(0.5)
            return comm.clock(), comm.true_time()

        r = run_program(perseus(4), program, nprocs=2, seed=1, perfect_clocks=True)
        for local, true in r.returns:
            assert local == pytest.approx(true)


class TestMaxTime:
    def test_overrunning_job_aborts(self):
        def program(comm):
            yield from comm.compute(10.0)
            return None

        with pytest.raises(CommAbort):
            run_program(ideal_cluster(2), program, nprocs=2, max_time=1.0)
