"""Unit tests for the service building blocks.

Each funnel stage -- metrics, admission, singleflight, cache tiers,
micro-batcher, request schema -- is exercised in isolation here; the
end-to-end behaviour (and the reproducibility contract) is covered by
``test_service_e2e.py``.
"""

import asyncio

import pytest

from repro.mpibench import DistributionDB
from repro.pevpm.parallel import VECTOR_BATCH
from repro.service import (
    JobQueue,
    MicroBatcher,
    PredictionService,
    PredictRequest,
    QueueFull,
    RequestError,
    ServiceMetrics,
    SingleFlight,
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
        # Counters are bumped from the evaluator thread (pool rebuilds,
        # fault hooks) concurrently with the event loop; racing unlocked
        # read-modify-writes would silently lose increments.
        import threading

        m = ServiceMetrics()
        per_thread = 5000

        def hammer():
            for _ in range(per_thread):
                m.inc("repro_pool_rebuilds_total")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("repro_pool_rebuilds_total") == 4 * per_thread


class TestJobQueue:
    def test_sheds_beyond_limit(self):
        m = ServiceMetrics()
        q = JobQueue(2, m, retry_after=0.5)
        q.acquire()
        q.acquire()
        with pytest.raises(QueueFull) as exc_info:
            q.acquire()
        assert exc_info.value.limit == 2
        assert exc_info.value.retry_after == 0.5
        assert q.inflight == 2
        assert q.peak == 2
        assert m.counter("repro_jobs_admitted_total") == 2
        assert m.counter("repro_jobs_shed_total") == 1

    def test_context_manager_releases_on_error(self):
        q = JobQueue(1, ServiceMetrics())
        with pytest.raises(RuntimeError):
            with q:
                assert q.inflight == 1
                raise RuntimeError("boom")
        assert q.inflight == 0

    def test_release_without_acquire_rejected(self):
        q = JobQueue(1, ServiceMetrics())
        with pytest.raises(RuntimeError):
            q.release()

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            JobQueue(0, ServiceMetrics())


class TestSingleFlight:
    def test_leader_and_followers_share_result(self):
        async def scenario():
            m = ServiceMetrics()
            sf = SingleFlight(m)
            leader, fut = sf.claim("k")
            follower, fut2 = sf.claim("k")
            assert leader and not follower
            assert fut is fut2
            assert sf.inflight == 1
            sf.resolve("k", 42)
            assert await fut2 == 42
            assert sf.inflight == 0
            # Key is released: the next claimant leads again.
            leader_again, _ = sf.claim("k")
            assert leader_again
            assert m.counter("repro_singleflight_hits_total") == 1
            assert m.counter("repro_singleflight_leads_total") == 2

        asyncio.run(scenario())

    def test_reject_propagates_to_followers(self):
        async def scenario():
            sf = SingleFlight(ServiceMetrics())
            _, fut = sf.claim("k")
            sf.claim("k")
            sf.reject("k", RuntimeError("engine failed"))
            with pytest.raises(RuntimeError, match="engine failed"):
                await fut

        asyncio.run(scenario())


class TestTieredCache:
    """The service's prediction cache: an LRU memory tier in front of
    the optional on-disk store, with hit/miss/eviction counters."""

    @staticmethod
    def service(lru_size, cache_dir=None):
        return PredictionService(
            DistributionDB(), lru_size=lru_size, cache_dir=cache_dir
        )

    def test_lru_evicts_least_recently_used(self):
        svc = self.service(2)
        m = svc.metrics
        svc._cache_put("a", {"v": 1})
        svc._cache_put("b", {"v": 2})
        assert svc._cache_get("a") == {"v": 1}  # touch "a": "b" becomes LRU
        svc._cache_put("c", {"v": 3})
        assert svc._cache_get("b") is None
        assert svc._cache_get("a") == {"v": 1}
        assert svc._cache_get("c") == {"v": 3}
        assert m.counter("repro_cache_evictions_total") == 1
        assert m.counter("repro_cache_misses_total") == 1
        assert m.counter("repro_cache_hits_total", tier="memory") == 3
        svc.close()

    def test_disk_hits_promoted_to_memory(self, tmp_path):
        first = self.service(4, tmp_path)
        first._cache_put("k", {"times": [1.0]})
        first.close()
        # A fresh memory tier over the same directory: first read comes
        # from disk, the second from the promoted memory entry.
        second = self.service(4, tmp_path)
        m = second.metrics
        doc = second._cache_get("k")
        assert doc["times"] == [1.0]
        assert m.counter("repro_cache_hits_total", tier="disk") == 1
        second._cache_get("k")
        assert m.counter("repro_cache_hits_total", tier="memory") == 1
        second.close()

    def test_zero_capacity_disables_memory_tier(self):
        svc = self.service(0)
        svc._cache_put("k", {"v": 1})
        assert len(svc.lru) == 0
        assert svc._cache_get("k") is None
        svc.close()


class TestMicroBatcher:
    def test_concurrent_submits_coalesce(self):
        batches = []

        def evaluate(items):
            batches.append(list(items))
            return [i * 10 for i in items]

        async def scenario():
            m = ServiceMetrics()
            b = MicroBatcher(evaluate, m, max_batch=8, max_wait=0.2)
            try:
                results = await asyncio.gather(*(b.submit(i) for i in range(4)))
            finally:
                b.close()
            assert results == [0, 10, 20, 30]
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
            b = MicroBatcher(
                evaluate, ServiceMetrics(), max_batch=2, max_wait=0.2
            )
            try:
                await asyncio.gather(*(b.submit(i) for i in range(5)))
            finally:
                b.close()
            assert all(len(batch) <= 2 for batch in batches)

        asyncio.run(scenario())

    def test_per_item_exception_does_not_poison_batch(self):
        def evaluate(items):
            return [
                ValueError(f"bad {i}") if i % 2 else i for i in items
            ]

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), max_wait=0.05)
            try:
                good, bad = await asyncio.gather(
                    b.submit(2), b.submit(3), return_exceptions=True
                )
            finally:
                b.close()
            assert good == 2
            assert isinstance(bad, ValueError)

        asyncio.run(scenario())

    def test_wholesale_evaluator_failure_fails_every_item(self):
        def evaluate(items):
            raise RuntimeError("engine down")

        async def scenario():
            b = MicroBatcher(evaluate, ServiceMetrics(), max_wait=0.05)
            try:
                results = await asyncio.gather(
                    b.submit(1), b.submit(2), return_exceptions=True
                )
            finally:
                b.close()
            assert all(isinstance(r, RuntimeError) for r in results)

        asyncio.run(scenario())

    def test_disabled_mode_evaluates_each_submit_alone(self):
        batches = []

        def evaluate(items):
            batches.append(list(items))
            return list(items)

        async def scenario():
            b = MicroBatcher(
                evaluate, ServiceMetrics(), max_wait=0.2, enabled=False
            )
            try:
                await asyncio.gather(*(b.submit(i) for i in range(3)))
            finally:
                b.close()
            assert sorted(len(batch) for batch in batches) == [1, 1, 1]

        asyncio.run(scenario())

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, ServiceMetrics(), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, ServiceMetrics(), max_wait=-1)

    def test_drain_waits_out_coalescing_window(self):
        # Regression: between the collector popping an item off the
        # queue and creating its dispatch task (up to max_wait), the
        # item is in neither _pending nor _dispatches; drain() must not
        # declare the batcher empty then, or stop() cancels a
        # connection still awaiting that batch.
        def evaluate(items):
            return [i * 2 for i in items]

        async def scenario():
            b = MicroBatcher(
                evaluate, ServiceMetrics(), max_batch=8, max_wait=0.1
            )
            try:
                fut = asyncio.ensure_future(b.submit(21))
                # Let the collector pop the item into its coalescing
                # window (it then waits max_wait for batch-mates).
                while not b._coalescing:
                    await asyncio.sleep(0.001)
                await b.drain()
                assert fut.done()
                assert fut.result() == 42
            finally:
                b.close()

        asyncio.run(scenario())


class TestPredictRequest:
    def test_defaults_filled(self):
        req = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        assert req.runs == 16
        assert req.seed == 0
        assert req.vector_runs is True
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
            {"vector_runs": False},
        ],
    )
    def test_key_varies_with_request(self, variant):
        base = PredictRequest.from_dict({"model": "jacobi", "nprocs": 8})
        other = PredictRequest.from_dict(
            {"model": "jacobi", "nprocs": 8, **variant}
        )
        assert base.key("db0") != other.key("db0")

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
