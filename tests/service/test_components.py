"""Unit tests for the service building blocks.

Each funnel stage -- metrics, cache tiers, the evaluation queue
(singleflight, admission, micro-batching), request schema -- is
exercised in isolation here; the end-to-end behaviour (and the
reproducibility contract) is covered by ``test_service_e2e.py``.
"""

import asyncio
import gc
import threading

import pytest

from repro.mpibench import DistributionDB
from repro.pevpm.parallel import VECTOR_BATCH
from repro.service import (
    MicroBatcher,
    PredictionService,
    PredictRequest,
    QueueFull,
    RequestError,
    ServiceMetrics,
)

pytestmark = pytest.mark.service


class TestServiceMetrics:
    def test_counters_with_labels(self):
        m = ServiceMetrics()
        m.inc("repro_requests_total", endpoint="/predict")
        m.inc("repro_requests_total", endpoint="/predict")
        m.inc("repro_requests_total", endpoint="/healthz")
        assert m.counter("repro_requests_total", endpoint="/predict") == 2
        assert m.counter("repro_requests_total", endpoint="/healthz") == 1
        assert m.counter("repro_requests_total", endpoint="/nope") == 0

    def test_latency_quantiles(self):
        m = ServiceMetrics()
        for i in range(100):
            m.observe("/predict", (i + 1) / 1000)
        q = m.latency_quantiles("/predict")
        assert set(q) == {0.5, 0.9, 0.99}
        assert 0 < q[0.5] <= q[0.9] <= q[0.99] <= 0.101
        assert m.latency_quantiles("/never") == {}

    def test_reservoir_is_bounded(self):
        m = ServiceMetrics(reservoir=16)
        for i in range(100):
            m.observe("/predict", float(i))
        hist = m.latency_histogram("/predict")
        # Only the most recent 16 samples are kept.
        assert hist.min >= 84

    def test_render_prometheus(self):
        m = ServiceMetrics()
        m.inc("repro_responses_total", code="200")
        m.inc("repro_batches_total")
        m.observe("/predict", 0.01)
        text = m.render_prometheus()
        assert "# TYPE repro_responses_total counter" in text
        assert 'repro_responses_total{code="200"} 1' in text
        assert "repro_batches_total 1" in text
        assert "# TYPE repro_request_latency_seconds summary" in text
        assert 'repro_request_latency_seconds_count{endpoint="/predict"} 1' in text

    def test_snapshot(self):
        m = ServiceMetrics()
        m.inc("repro_batches_total", 3)
        m.observe("/predict", 0.5)
        snap = m.snapshot()
        assert snap["counters"]["repro_batches_total"] == 3
        assert snap["latency_seconds"]["/predict"]["count"] == 1

    def test_inc_is_thread_safe(self):
        # Counters are bumped from the evaluator thread concurrently
        # with the event loop; racing unlocked read-modify-writes would
        # silently lose increments.
        import threading

        m = ServiceMetrics()
        per_thread = 5000

        def hammer():
            for _ in range(per_thread):
                m.inc("repro_evaluation_errors_total")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("repro_evaluation_errors_total") == 4 * per_thread


class TestTieredCache:
    """The service's prediction cache: an LRU memory tier in front of
    the optional on-disk store, with hit/miss/eviction counters, driven
    through ``handle_predict`` over a stand-in engine that answers each
    request's seed as its one time and logs what it evaluated."""

    @staticmethod
    def serve(lru_size, seeds, cache_dir=None):
        """Send one request per seed; (service, engine log, responses)."""
        svc = PredictionService(
            DistributionDB(), lru_size=lru_size, cache_dir=cache_dir
        )
        evaluated = []

        def engine(reqs):
            evaluated.extend(req.seed for req in reqs)
            return [
                {"times": [float(req.seed)], "run_walls": [0.0],
                 "nprocs": req.nprocs, "timing": "stub", "wall_time": 0.0}
                for req in reqs
            ]

        svc.batcher._evaluate = engine
        body = {"model": "jacobi", "nprocs": 2, "runs": 1}

        async def scenario():
            return [
                (await svc.handle_predict(dict(body, seed=seed)))[2]
                for seed in seeds
            ]

        try:
            docs = asyncio.run(scenario())
        finally:
            svc.close()
        assert [doc["times"] for doc in docs] == [[float(s)] for s in seeds]
        return svc, evaluated, [doc["served_from"] for doc in docs]

    def test_lru_evicts_least_recently_used(self):
        # Touching 1 makes 2 the least recent, so 3 evicts 2; 1 and 3
        # then hit, and 2 is evaluated again (evicting 1).
        svc, evaluated, sources = self.serve(2, [1, 2, 1, 3, 1, 3, 2])
        assert evaluated == [1, 2, 3, 2]
        assert sources == [
            "engine", "engine", "cache", "engine", "cache", "cache", "engine",
        ]
        m = svc.metrics
        assert m.counter("repro_cache_evictions_total") == 2
        assert m.counter("repro_cache_misses_total") == 4
        assert m.counter("repro_cache_hits_total", tier="memory") == 3

    def test_disk_hits_promoted_to_memory(self, tmp_path):
        self.serve(4, [5], tmp_path)
        # A fresh memory tier over the same directory: the first read
        # comes from disk, the second from the promoted memory entry.
        svc, evaluated, sources = self.serve(4, [5, 5], tmp_path)
        assert evaluated == []
        assert sources == ["cache", "cache"]
        m = svc.metrics
        assert m.counter("repro_cache_hits_total", tier="disk") == 1
        assert m.counter("repro_cache_hits_total", tier="memory") == 1

    def test_zero_capacity_disables_memory_tier(self):
        svc, evaluated, sources = self.serve(0, [5, 5])
        assert evaluated == [5, 5]
        assert sources == ["engine", "engine"]
        assert len(svc.lru) == 0
        assert svc.metrics.total("repro_cache_hits_total") == 0


def held_evaluator(results):
    """An evaluator that records each batch and blocks until its
    ``release`` event is set, and the event itself."""
    release = threading.Event()
    batches = []

    def evaluate(items):
        batches.append(list(items))
        assert release.wait(timeout=30), "evaluator never released"
        return results(items)

    return evaluate, release, batches


async def wait_until(predicate):
    while not predicate():
        await asyncio.sleep(0.001)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce(self):
        batches = []

        def evaluate(items):
            batches.append(list(items))
            return [i * 10 for i in items]

        async def scenario():
            m = ServiceMetrics()
            b = MicroBatcher(evaluate, m, max_batch=8)
            try:
                # Submitted in one event-loop turn: all four are queued
                # before the collector first looks at the queue.
                results = await asyncio.gather(
                    *(b.submit(i, i) for i in range(4))
                )
            finally:
                b.close()
            assert results == [(i * 10, "engine") for i in range(4)]
            assert len(batches) == 1
            assert m.counter("repro_batches_total") == 1
            assert m.counter("repro_batched_requests_total") == 4
            assert m.counter("repro_coalesced_requests_total") == 3

        asyncio.run(scenario())

    def test_max_batch_bounds_coalescing(self):
        batches = []

        def evaluate(items):
            batches.append(list(items))
            return list(items)

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), max_batch=2)
            try:
                await asyncio.gather(*(b.submit(i, i) for i in range(5)))
            finally:
                b.close()
            assert [len(batch) for batch in batches] == [2, 2, 1]

        asyncio.run(scenario())

    def test_lone_request_evaluated_without_a_window(self):
        # An idle batcher dispatches a lone request to the evaluator
        # within a few event-loop turns of its submit: no timer runs
        # between them waiting for batch-mates.
        m = ServiceMetrics()

        async def scenario():
            b = MicroBatcher(list, m, max_batch=8)
            try:
                fut = asyncio.ensure_future(b.submit(7, 7))
                turns = 0
                while m.counter("repro_batches_total") == 0 and turns < 10**4:
                    await asyncio.sleep(0)
                    turns += 1
                assert await fut == (7, "engine")
            finally:
                b.close()
            return turns

        assert asyncio.run(scenario()) <= 3

    @pytest.mark.parametrize("queued, max_batch", [(3, 8), (5, 2)])
    def test_requests_queued_while_busy_share_the_next_batch(
        self, queued, max_batch
    ):
        evaluate, release, batches = held_evaluator(list)

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), max_batch=max_batch)
            first = asyncio.ensure_future(b.submit(-1, -1))
            try:
                await wait_until(lambda: batches)  # evaluator busy
                later = [
                    asyncio.ensure_future(b.submit(i, i))
                    for i in range(queued)
                ]
                await asyncio.sleep(0.01)  # they queue behind the batch
                assert batches == [[-1]]
                release.set()
                assert await first == (-1, "engine")
                assert await asyncio.gather(*later) == [
                    (i, "engine") for i in range(queued)
                ]
            finally:
                release.set()
                b.close()
            assert batches[1] == list(range(min(queued, max_batch)))

        asyncio.run(scenario())

    def test_per_item_exception_does_not_poison_batch(self):
        def evaluate(items):
            return [
                ValueError(f"bad {i}") if i % 2 else i for i in items
            ]

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics())
            try:
                good, bad = await asyncio.gather(
                    b.submit(2, 2), b.submit(3, 3), return_exceptions=True
                )
            finally:
                b.close()
            assert good == (2, "engine")
            assert isinstance(bad, ValueError)

        asyncio.run(scenario())

    def test_wholesale_evaluator_failure_fails_every_item(self):
        def evaluate(items):
            raise RuntimeError("engine down")

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics())
            try:
                results = await asyncio.gather(
                    b.submit(1, 1), b.submit(2, 2), return_exceptions=True
                )
            finally:
                b.close()
            assert all(isinstance(r, RuntimeError) for r in results)

        asyncio.run(scenario())

    def test_max_batch_of_one_evaluates_each_submit_alone(self):
        batches = []

        def evaluate(items):
            batches.append(list(items))
            return list(items)

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), max_batch=1)
            try:
                await asyncio.gather(*(b.submit(i, i) for i in range(3)))
            finally:
                b.close()
            assert sorted(len(batch) for batch in batches) == [1, 1, 1]

        asyncio.run(scenario())

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, ServiceMetrics(), max_batch=0)

    def test_drain_waits_for_the_batch_in_flight(self):
        # A popped batch is in neither the queue nor resolved while the
        # evaluator runs it; drain() must not declare the batcher empty
        # then, or stop() cancels a connection still awaiting that batch.
        evaluate, release, batches = held_evaluator(
            lambda items: [i * 2 for i in items]
        )

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), max_batch=8)
            try:
                fut = asyncio.ensure_future(b.submit(21, 21))
                await wait_until(lambda: batches)  # popped and evaluating
                drained = asyncio.ensure_future(b.drain())
                await asyncio.sleep(0.01)
                assert not drained.done()
                release.set()
                await drained
                assert fut.done()
                assert fut.result() == (42, "engine")
            finally:
                release.set()
                b.close()

        asyncio.run(scenario())


class TestJobQueue:
    """The job-queue bound (``repro_jobs_*``): at most ``limit`` entries
    queued or evaluating, each freed however its evaluation ends."""

    def test_sheds_beyond_limit(self):
        evaluate, release, _ = held_evaluator(list)
        m = ServiceMetrics()

        async def scenario():
            b = MicroBatcher(evaluate, m, limit=2)
            try:
                held = [asyncio.ensure_future(b.submit(k, k)) for k in "ab"]
                await asyncio.sleep(0)  # both have submitted
                with pytest.raises(QueueFull) as exc_info:
                    await b.submit("c", "c")
                assert exc_info.value.limit == 2
                assert exc_info.value.retry_after == 1.0
                assert b.inflight == 2
                assert "c" not in b  # a shed key leaves no entry
                release.set()
                await asyncio.gather(*held)
                # The bound counts entries, not past submits: "c" fits now.
                return await b.submit("c", "c")
            finally:
                release.set()
                b.close()

        assert asyncio.run(scenario()) == ("c", "engine")
        assert m.counter("repro_jobs_admitted_total") == 3
        assert m.counter("repro_jobs_shed_total") == 1

    def test_context_manager_releases_on_error(self):
        # No context manager holds the slot any more: the entry does,
        # and an evaluator that raises outright still frees it.
        def evaluate(items):
            raise RuntimeError("boom")

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), limit=1)
            try:
                waiter = asyncio.ensure_future(b.submit("k", 1))
                await asyncio.sleep(0)
                assert b.inflight == 1
                with pytest.raises(RuntimeError, match="boom"):
                    await waiter
                assert b.inflight == 0
                # Admitted again (QueueFull is a RuntimeError too, but
                # would not match "boom").
                with pytest.raises(RuntimeError, match="boom"):
                    await b.submit("j", 2)
                return b.inflight
            finally:
                b.close()

        assert asyncio.run(scenario()) == 0

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(list, ServiceMetrics(), limit=0)


class TestSingleFlight:
    """One evaluation per key (``repro_singleflight_*``): every waiter
    of a queued or evaluating key shares its entry's outcome."""

    def test_leader_and_followers_share_result(self):
        batches = []

        def evaluate(items):
            batches.append(list(items))
            return [object() for _ in items]

        m = ServiceMetrics()

        async def scenario():
            b = MicroBatcher(evaluate, m)
            try:
                shared = await asyncio.gather(
                    *(b.submit("k", 1) for _ in range(3))
                )
                # The key left the queue once settled: a new entry.
                again = await b.submit("k", 1)
            finally:
                b.close()
            return shared, again

        shared, again = asyncio.run(scenario())
        assert batches == [[1], [1]]
        assert [source for _, source in shared] == [
            "engine", "singleflight", "singleflight",
        ]
        assert len({id(result) for result, _ in shared}) == 1
        assert again[1] == "engine" and again[0] is not shared[0][0]
        assert m.counter("repro_singleflight_leads_total") == 2
        assert m.counter("repro_singleflight_hits_total") == 2

    def test_reject_propagates_to_followers(self):
        settled = []

        async def scenario():
            b = MicroBatcher(
                lambda items: [RuntimeError("engine failed") for _ in items],
                ServiceMetrics(),
                settle=lambda key, item, result: settled.append(
                    (key, item, result)
                ),
            )
            try:
                return await asyncio.gather(
                    b.submit("k", 1), b.submit("k", 1),
                    return_exceptions=True,
                )
            finally:
                b.close()

        first, second = asyncio.run(scenario())
        assert isinstance(first, RuntimeError) and second is first
        assert settled == [("k", 1, first)]


class Throttled(RuntimeError):
    """A stand-in tenant limiter's rejection."""


class TestEvaluationQueue:
    """One entry per key, at most ``limit`` of them: singleflight and
    admission, driven through ``MicroBatcher.submit``."""

    def test_new_key_beyond_limit_is_shed_and_a_joiner_takes_no_slot(self):
        evaluate, release, batches = held_evaluator(list)
        m = ServiceMetrics()

        async def scenario():
            b = MicroBatcher(evaluate, m, limit=2)
            try:
                first = asyncio.ensure_future(b.submit("a", 1))
                second = asyncio.ensure_future(b.submit("b", 2))
                joiner = asyncio.ensure_future(b.submit("a", 1))
                await asyncio.sleep(0)  # all three have submitted
                assert b.inflight == 2  # the joiner took no slot
                with pytest.raises(QueueFull) as exc_info:
                    await b.submit("c", 3)
                assert exc_info.value.limit == 2
                assert exc_info.value.retry_after == 1.0
                release.set()
                assert await first == (1, "engine")
                assert await joiner == (1, "singleflight")
                assert await second == (2, "engine")
                return b.inflight
            finally:
                release.set()
                b.close()

        assert asyncio.run(scenario()) == 0
        assert m.counter("repro_jobs_admitted_total") == 2
        assert m.counter("repro_jobs_shed_total") == 1
        assert m.gauge("repro_queue_depth") == 0

    def test_limiter_runs_before_the_bound(self):
        evaluate, release, _ = held_evaluator(list)
        tenants = []

        def limiter(tenant):
            tenants.append(tenant)
            if tenant == "noisy":
                raise Throttled(tenant)

        m = ServiceMetrics()

        async def scenario():
            b = MicroBatcher(evaluate, m, limit=1, limiter=limiter)
            try:
                first = asyncio.ensure_future(b.submit("a", 1, tenant="t"))
                await asyncio.sleep(0)
                # The queue is full, but the limiter speaks first.
                with pytest.raises(Throttled):
                    await b.submit("b", 2, tenant="noisy")
                with pytest.raises(QueueFull):
                    await b.submit("b", 2, tenant="t")
                # Joining a queued key asks neither.
                joiner = asyncio.ensure_future(b.submit("a", 1, tenant="noisy"))
                release.set()
                assert await first == (1, "engine")
                assert await joiner == (1, "singleflight")
            finally:
                release.set()
                b.close()

        asyncio.run(scenario())
        assert tenants == ["t", "noisy", "t"]
        assert m.counter("repro_jobs_shed_total") == 2

    def test_failed_evaluation_frees_its_slot(self):
        def evaluate(items):
            return [ValueError("bad") if i < 0 else i for i in items]

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), limit=1)
            try:
                with pytest.raises(ValueError):
                    await b.submit("bad", -1)
                assert b.inflight == 0
                return await b.submit("good", 2)  # the one slot, reused
            finally:
                b.close()

        assert asyncio.run(scenario()) == (2, "engine")

    def test_an_entry_nobody_awaits_still_settles_and_logs_nothing(self):
        evaluate, release, _ = held_evaluator(
            lambda items: [RuntimeError("late") for _ in items]
        )
        settled = []

        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, ctx: errors.append(ctx)
            )
            b = MicroBatcher(
                evaluate, ServiceMetrics(),
                settle=lambda key, item, result: settled.append(result),
            )
            try:
                waiter = asyncio.ensure_future(b.submit("k", 1))
                await wait_until(lambda: b.inflight)
                waiter.cancel()  # the only waiter leaves
                await asyncio.wait([waiter])
                assert waiter.cancelled()
                del waiter  # its traceback holds the entry's future
                release.set()
                await b.drain()
                assert b.inflight == 0
            finally:
                release.set()
                b.close()
            await asyncio.sleep(0)  # the collector finishes
            gc.collect()  # an unretrieved exception reports here
            await asyncio.sleep(0)
            return errors

        assert asyncio.run(scenario()) == []
        assert [type(result) for result in settled] == [RuntimeError]


class TestPredictRequest:
    def test_defaults_filled(self):
        req = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        assert req.runs == 16
        assert req.seed == 0
        assert req.vector_batch == VECTOR_BATCH
        assert req.model_params == {"iterations": 100, "xsize": 256}

    @pytest.mark.parametrize(
        "body",
        [
            "not an object",
            {"nprocs": 8},  # missing model
            {"model": "nope", "nprocs": 8},
            {"model": "jacobi", "nprocs": 8, "bogus": 1},
            {"model": "jacobi", "nprocs": 8, "model_params": {"bogus": 1}},
            {"model": "jacobi", "nprocs": 0},
            {"model": "jacobi", "nprocs": True},
            {"model": "jacobi", "nprocs": 8, "runs": 0},
            {"model": "jacobi", "nprocs": 8, "seed": -1},
            {"model": "jacobi", "nprocs": 8, "timing_mode": "psychic"},
            {"model": "jacobi", "nprocs": 8, "timing_source": "4x4"},
            {"model": "jacobi", "nprocs": 8, "nic_serialisation": "maybe"},
            {"model": "jacobi", "nprocs": 8, "deadline_s": 0},
            # the program's shape picks the engine; no engine switch
            {"model": "jacobi", "nprocs": 8, "vector_runs": False},
            # predict() picks the chunk size; no request sets it
            {"model": "jacobi", "nprocs": 8, "vector_batch": 8},
        ],
    )
    def test_invalid_requests_rejected(self, body):
        with pytest.raises(RequestError):
            PredictRequest.from_dict(body)

    def test_key_is_content_addressed(self):
        a = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        b = PredictRequest.from_dict(
            {"model": "jacobi", "nprocs": 8, "runs": 16, "seed": 0}
        )
        assert a.key("db0") == b.key("db0")  # defaults fill identically

    @pytest.mark.parametrize(
        "variant",
        [
            {"seed": 1},
            {"runs": 8},
            {"nprocs": 4},
            {"ppn": 2},
            {"model_params": {"iterations": 50}},
            {"timing_mode": "average"},
            {"nic_serialisation": "off"},
            {"timing_source": "2x1"},
        ],
    )
    def test_key_varies_with_request(self, variant):
        base = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        other = PredictRequest.from_dict(
            {"model": "jacobi", "nprocs": 8, **variant}
        )
        assert base.key("db0") != other.key("db0")

    def test_chunk_sizes_of_one_chunk_share_the_key(self):
        # Up to one chunk of runs draws alike whatever the chunk size,
        # so the request key agrees with the prediction cache's: an
        # adaptive request's first total (one min_runs chunk) keys as
        # the fixed request of that many runs (one chunk of 64).
        a = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8, "runs": 8})
        adaptive = PredictRequest.from_dict(
            {"model": "jacobi", "nprocs": 8, "target_rse": 0.05, "min_runs": 8}
        )
        assert (a.vector_batch, adaptive.vector_batch) == (VECTOR_BATCH, 8)
        assert adaptive.fixed_key("db0", 8) == a.key("db0")
        assert adaptive.fixed_key("db0", 16) != PredictRequest.from_dict(
            {"model": "jacobi", "nprocs": 8, "runs": 16}
        ).key("db0")

    def test_key_varies_with_db_fingerprint(self):
        req = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        assert req.key("db0") != req.key("db1")

    def test_deadline_excluded_from_key(self):
        base = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        other = PredictRequest.from_dict(
            {"model": "jacobi", "nprocs": 8, "deadline_s": 0.5}
        )
        # The deadline changes how long a caller waits, never the numbers.
        assert base.key("db0") == other.key("db0")
