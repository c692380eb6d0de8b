"""Concurrency stress tests for the evaluation queue.

The funnel's coalescing contract under load: however many concurrent
``/predict`` requests arrive for the same content key, the engine
evaluates that key **exactly once** (the first request queues one
entry; the rest join its future; later arrivals hit the cache), every
caller still gets a 200 with the key's bit-identical ``times``, and
nothing leaks -- no queue entries left behind, no futures whose
exceptions are never retrieved.

Two drivers: an asyncio variant where interleaving is adversarially
shuffled but deterministic (seeded), and a threaded HTTP variant that
hammers a live ``ServiceThread`` through real sockets.
"""

import asyncio
import gc
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.service import PredictionService, ServiceClient, ServiceThread
from repro.simnet import perseus

from .test_service_e2e import jacobi_request

pytestmark = pytest.mark.service

SPEC = perseus(16)


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def _count_evaluations(service) -> Counter:
    """Wrap the batcher's evaluator to count engine calls per key.

    The batcher holds the only reference that reaches the engine, so
    every path that actually evaluates -- batched or unbatched -- is
    counted; cache hits and singleflight followers never get here.
    """
    counts = Counter()
    inner = service.batcher._evaluate

    def counting(reqs):
        for req in reqs:
            counts[req.key(service.db_fingerprint)] += 1
        return inner(reqs)

    service.batcher._evaluate = counting
    return counts


class TestAsyncStress:
    """48 interleaved tasks over 6 keys on one event loop."""

    def test_exactly_once_evaluation_per_key(self, db):
        n_keys, n_tasks = 6, 48
        service = PredictionService(db, spec=SPEC, queue_limit=n_tasks)
        counts = _count_evaluations(service)
        requests = [
            jacobi_request(seed=i % n_keys) for i in range(n_tasks)
        ]
        random.Random(2026).shuffle(requests)

        async def main():
            loop_errors = []
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: loop_errors.append(ctx)
            )
            try:
                results = await asyncio.gather(
                    *(service.handle_predict(r) for r in requests)
                )
            finally:
                service.close()
            # Collect any resolved-but-unawaited futures now, while the
            # exception handler is still ours: a future whose exception
            # is never retrieved reports through it at GC time.
            gc.collect()
            await asyncio.sleep(0)
            return results, loop_errors

        results, loop_errors = asyncio.run(main())
        assert loop_errors == []
        assert [status for status, _h, _d in results] == [200] * n_tasks
        # Exactly-once: one engine evaluation per distinct key, total.
        assert len(counts) == n_keys
        assert set(counts.values()) == {1}
        # Every caller of a key saw the same bit-identical answer.
        by_seed = {}
        for _status, _headers, doc in results:
            times = by_seed.setdefault(doc["seed"], doc["times"])
            assert doc["times"] == times
        assert len(by_seed) == n_keys
        # Nothing left in flight once the dust settles.
        assert service.batcher.inflight == 0
        assert service.metrics.counter("repro_singleflight_leads_total") >= 1

    def test_follower_counts_add_up(self, db):
        """leaders + followers + cache hits account for every request."""
        n_keys, n_tasks = 3, 24
        service = PredictionService(db, spec=SPEC, queue_limit=n_tasks)
        counts = _count_evaluations(service)
        requests = [jacobi_request(seed=i % n_keys) for i in range(n_tasks)]

        async def main():
            try:
                return await asyncio.gather(
                    *(service.handle_predict(r) for r in requests)
                )
            finally:
                service.close()

        results = asyncio.run(main())
        assert all(status == 200 for status, _h, _d in results)
        assert sum(counts.values()) == n_keys
        m = service.metrics
        served = (
            m.counter("repro_singleflight_leads_total")
            + m.counter("repro_singleflight_hits_total")
            + m.counter("repro_cache_hits_total", tier="memory")
            + m.counter("repro_cache_hits_total", tier="disk")
        )
        assert served == n_tasks


@pytest.mark.slow
class TestThreadedHttpStress:
    """32 socket requests from 8 threads against a live server."""

    def test_exactly_once_over_real_sockets(self, db):
        n_keys, n_requests, n_threads = 4, 32, 8
        service = PredictionService(db, spec=SPEC, queue_limit=n_requests)
        counts = _count_evaluations(service)
        requests = [
            jacobi_request(seed=i % n_keys) for i in range(n_requests)
        ]
        random.Random(7).shuffle(requests)

        def fire(address, request):
            client = ServiceClient(*address)
            try:
                return client.predict(**request)
            finally:
                client.close()

        with ServiceThread(service) as thread:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                records = list(
                    pool.map(lambda r: fire(thread.address, r), requests)
                )

        assert len(records) == n_requests
        # Exactly-once per key, however the requests raced.
        assert sum(counts.values()) == n_keys
        assert set(counts.values()) == {1}
        by_seed = {}
        for record in records:
            times = by_seed.setdefault(record["seed"], record["times"])
            assert record["times"] == times
        assert len(by_seed) == n_keys
        assert service.batcher.inflight == 0
