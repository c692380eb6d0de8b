"""Fault-tolerance tests: crash recovery, retries, breaker, chaos harness.

The contract under test (ISSUE 4): under injected faults -- a SIGKILLed
pool worker, a corrupted disk-cache entry, a stalled evaluator -- the
service still returns *correct, bit-identical* predictions for every
request it admits.  Recovery must never change numbers: re-dispatched
work units carry the same per-run seed streams they had the first time,
a quarantined cache entry is simply re-evaluated, and client retries
re-request content-addressed (idempotent) documents.
"""

import asyncio
import http.client
import os
import signal
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.apps.jacobi import parse_jacobi
from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import PredictionCache, predict, timing_from_db
from repro.pevpm import parallel as _parallel
from repro.pevpm.parallel import (
    POOL_REBUILD_LIMIT,
    RunGroup,
    as_seed_sequence,
    evaluate_groups,
    install_fault_injector,
)
from repro.service import (
    BreakerOpen,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    JobQueue,
    LeaderCancelled,
    LoadGenerator,
    PredictionService,
    PredictRequest,
    QueueFull,
    RetryPolicy,
    ServiceClient,
    ServiceMetrics,
    ServiceThread,
    SingleFlight,
)
from repro.simnet import perseus

pytestmark = [pytest.mark.service, pytest.mark.chaos]

SPEC = perseus(16)
ITER = 20


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def jacobi_request(**overrides) -> dict:
    request = {
        "model": "jacobi",
        "model_params": {"iterations": ITER},
        "nprocs": 4,
        "runs": 4,
        "seed": 7,
    }
    request.update(overrides)
    return request


def direct_jacobi(db, request: dict):
    params = {
        "iterations": request.get("model_params", {}).get("iterations", 100),
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }
    return predict(
        parse_jacobi(),
        request["nprocs"],
        timing_from_db(db, mode="distribution", nprocs=request["nprocs"]),
        runs=request.get("runs", 16),
        seed=request.get("seed", 0),
        params=params,
        vector_runs=request.get("vector_runs", True),
    )


def run_service(db, scenario, **kwargs):
    service = PredictionService(db, spec=SPEC, **kwargs)

    async def main():
        try:
            return await scenario(service)
        finally:
            service.close()

    return asyncio.run(main())


def jacobi_group(db, runs=8, seed=5, vector_batch=1) -> RunGroup:
    params = {
        "iterations": ITER,
        "xsize": 256,
        "serial_time": SPEC.jacobi_serial_time,
    }
    return RunGroup(
        model=parse_jacobi(),
        nprocs=4,
        timing=timing_from_db(db, mode="distribution", nprocs=4),
        seed=as_seed_sequence(seed),
        runs=runs,
        params=params,
        vector_runs=True,
        vector_batch=vector_batch,
    )


# -- the fault injector itself -------------------------------------------------
class TestFaultInjector:
    def test_seeded_plans_are_replayable(self):
        one = FaultPlan.seeded(11, length=6)
        two = FaultPlan.seeded(11, length=6)
        assert one == two
        assert len(one.faults) == 6
        assert all(spec.kind in ("kill_worker", "corrupt_cache",
                                 "delay_cache", "stall_evaluator")
                   for spec in one.faults)
        assert FaultPlan.seeded(12, length=6) != one

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(kind="delay_cache", seconds=-1)
        with pytest.raises(ValueError):
            FaultPlan.seeded(0, length=0)

    def test_fault_fires_at_counted_site_event(self):
        injector = FaultInjector(seed=0)
        injector.arm("stall_evaluator", seconds=0.0, at=2)
        injector.on_evaluate()  # event 1: not yet
        assert injector.injected["stall_evaluator"] == 0
        injector.on_evaluate()  # event 2: fires
        assert injector.injected["stall_evaluator"] == 1
        injector.on_evaluate()  # spec consumed: nothing left to fire
        assert injector.injected["stall_evaluator"] == 1
        assert injector.events["evaluate"] == 3

    def test_corrupt_now_without_cache_is_a_noop(self, tmp_path):
        injector = FaultInjector(seed=0)
        assert injector.corrupt_now() is None
        injector.stores = {"prediction": PredictionCache(tmp_path)}  # empty
        assert injector.corrupt_now() is None

    def test_snapshot_shape(self):
        injector = FaultInjector(seed=3)
        injector.arm("delay_cache", seconds=0.01)
        snap = injector.snapshot()
        assert snap["armed"]["delay_cache"] == 1
        assert set(snap["events"]) == {"evaluate", "cache_read", "dispatch"}


# -- engine crash recovery (tentpole part 2) -----------------------------------
class TestEngineRecovery:
    def test_worker_kill_recovers_bit_identical(self, db):
        group = jacobi_group(db)
        baseline = evaluate_groups([jacobi_group(db)], workers=1)
        rebuilds = []
        injector = FaultInjector(seed=0)
        injector.arm("kill_worker")
        install_fault_injector(injector)
        try:
            recovered = evaluate_groups(
                [group], workers=2, on_rebuild=rebuilds.append
            )
        finally:
            install_fault_injector(None)
        assert injector.injected["kill_worker"] == 1
        assert [o.elapsed for o in recovered[0]] == [
            o.elapsed for o in baseline[0]
        ]

    def test_persistent_pool_failure_falls_back_to_serial(self, db):
        class AlwaysKill:
            kills = 0

            def on_pool_dispatch(self, pool):
                procs = list(getattr(pool, "_processes", {}).values())
                if procs:
                    os.kill(procs[0].pid, signal.SIGKILL)
                    self.kills += 1

        group = jacobi_group(db, runs=6)
        baseline = evaluate_groups([jacobi_group(db, runs=6)], workers=1)
        rebuilds = []
        killer = AlwaysKill()
        install_fault_injector(killer)
        try:
            recovered = evaluate_groups(
                [group], workers=2, on_rebuild=rebuilds.append
            )
        finally:
            install_fault_injector(None)
        # Every pool was killed at dispatch; past the rebuild limit the
        # remaining units must have finished on the serial path -- with
        # the same numbers either way.
        assert killer.kills >= 1
        assert rebuilds == list(range(1, len(rebuilds) + 1))
        assert len(rebuilds) <= POOL_REBUILD_LIMIT + 1
        assert [o.elapsed for o in recovered[0]] == [
            o.elapsed for o in baseline[0]
        ]

    @pytest.mark.slow
    def test_wedged_pool_is_killed_and_recovered(self, db, monkeypatch):
        # A forked child that inherits a held lock deadlocks without
        # ever crashing, so no BrokenProcessPool is raised on its own.
        # SIGSTOP models that: the workers stay alive but silent.  The
        # watchdog must kill the pool and recover bit-identically.
        class StopAllOnce:
            stopped = 0

            def on_pool_dispatch(self, pool):
                if self.stopped:
                    return
                for proc in getattr(pool, "_processes", {}).values():
                    os.kill(proc.pid, signal.SIGSTOP)
                    self.stopped += 1

        monkeypatch.setattr(_parallel, "POOL_WEDGE_TIMEOUT", 1.0)
        group = jacobi_group(db, runs=6)
        baseline = evaluate_groups([jacobi_group(db, runs=6)], workers=1)
        rebuilds = []
        wedger = StopAllOnce()
        install_fault_injector(wedger)
        try:
            recovered = evaluate_groups(
                [group], workers=2, on_rebuild=rebuilds.append
            )
        finally:
            install_fault_injector(None)
        assert wedger.stopped == 2
        assert rebuilds == [1]
        assert [o.elapsed for o in recovered[0]] == [
            o.elapsed for o in baseline[0]
        ]

    def test_served_prediction_survives_worker_kill(self, db):
        # Scalar mode: each of the 8 runs is its own pool work unit.
        request = jacobi_request(runs=8, vector_runs=False)
        injector = FaultInjector(seed=1)
        injector.arm("kill_worker")
        service = PredictionService(
            db, spec=SPEC, workers=2, fault_injector=injector
        )
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                record = client.predict(**request)
            finally:
                client.close()
        assert record["times"] == direct_jacobi(db, request).times
        assert injector.injected["kill_worker"] == 1


# -- cache corruption quarantine (satellite a) ---------------------------------
class TestCacheQuarantine:
    def test_served_request_reevaluates_after_corruption(self, db, tmp_path):
        request = jacobi_request()
        service = PredictionService(db, spec=SPEC, cache_dir=tmp_path)
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                first = client.predict(**request)
            finally:
                client.close()
        assert first["served_from"] == "engine"
        injector = FaultInjector(seed=0)
        injector.stores = {"prediction": PredictionCache(tmp_path)}
        assert injector.corrupt_now() is not None
        # A fresh service over the poisoned disk tier: the corrupt entry
        # must quarantine, count, and re-evaluate to the same bits.
        service = PredictionService(db, spec=SPEC, cache_dir=tmp_path)
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                second = client.predict(**request)
            finally:
                client.close()
        assert second["served_from"] == "engine"
        assert second["times"] == first["times"]
        assert service.metrics.counter(
            "repro_cache_corrupt_total", store="prediction"
        ) == 1


# -- client retry/backoff (tentpole part 3) ------------------------------------
class TestRetryPolicy:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(retries=5, base=0.1, cap=0.5, jitter=0.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.4)
        assert policy.backoff(3) == pytest.approx(0.5)  # capped

    def test_jitter_is_seeded_and_bounded(self):
        one = RetryPolicy(base=0.1, cap=1.0, jitter=0.5, seed=9)
        two = RetryPolicy(base=0.1, cap=1.0, jitter=0.5, seed=9)
        delays = [one.backoff(k) for k in range(4)]
        assert delays == [two.backoff(k) for k in range(4)]
        for k, delay in enumerate(delays):
            nominal = min(1.0, 0.1 * 2 ** k)
            assert nominal / 2 <= delay <= nominal

    def test_retry_after_overrides_but_stays_capped(self):
        policy = RetryPolicy(cap=0.5, jitter=0.0)
        assert policy.backoff(0, retry_after=0.25) == 0.25
        assert policy.backoff(0, retry_after=60.0) == 0.5
        assert policy.backoff(0, retry_after=-1.0) == 0.0

    def test_retry_after_gets_additive_jitter(self):
        # Every client shed by the same 429/503 receives the same hint;
        # without a spread they all wake and retry in lockstep against a
        # just-recovered server.
        policy = RetryPolicy(cap=2.0, jitter=0.5, seed=11)
        delays = [policy.backoff(0, retry_after=0.25) for _ in range(16)]
        for delay in delays:
            assert 0.25 <= delay <= 0.25 * 1.5  # hint + up to jitter*hint
        assert len(set(delays)) > 1  # spread, not one synchronised sleep
        other = RetryPolicy(cap=2.0, jitter=0.5, seed=99)
        assert [
            RetryPolicy(cap=2.0, jitter=0.5, seed=11).backoff(0, retry_after=0.25)
        ] != [other.backoff(0, retry_after=0.25)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class _ScriptedClient(ServiceClient):
    """A client whose HTTP attempts are scripted (no sockets)."""

    def __init__(self, script, **kwargs):
        super().__init__("test", 0, **kwargs)
        self.script = list(script)
        self.attempts = 0
        self.slept = []
        self._sleep = self.slept.append

    def _attempt(self, method, path, payload, headers):
        self.attempts += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestClientRetries:
    def test_retries_retryable_statuses_until_success(self):
        client = _ScriptedClient(
            [
                (503, {"Retry-After": "0.25"}, {"error": "breaker"}),
                (504, {}, {"error": "deadline"}),
                (200, {}, {"ok": True}),
            ],
            retry=RetryPolicy(retries=3, base=0.05, jitter=0.0),
        )
        status, _, doc = client._request("POST", "/predict", {"x": 1})
        assert status == 200 and doc == {"ok": True}
        assert client.attempts == 3
        # First sleep honoured the server's Retry-After exactly; the
        # second used the policy's own backoff for attempt 1.
        assert client.slept == [0.25, pytest.approx(0.1)]
        assert client.metrics.counter(
            "repro_client_retries_total", reason="503"
        ) == 1
        assert client.metrics.counter(
            "repro_client_retries_total", reason="504"
        ) == 1

    def test_transport_errors_reconnect_and_retry(self):
        client = _ScriptedClient(
            [ConnectionResetError(), (200, {}, {"ok": True})],
            retry=RetryPolicy(retries=2, base=0.01, jitter=0.0),
        )
        status, _, _ = client._request("GET", "/healthz")
        assert status == 200
        assert client.metrics.counter(
            "repro_client_retries_total", reason="transport"
        ) == 1

    def test_exhausted_retries_return_last_status(self):
        client = _ScriptedClient(
            [(429, {}, {})] * 3,
            retry=RetryPolicy(retries=2, base=0.01, jitter=0.0),
        )
        status, _, _ = client._request("POST", "/predict", {})
        assert status == 429
        assert client.attempts == 3

    def test_non_idempotent_requests_never_retry(self):
        client = _ScriptedClient(
            [(503, {}, {"error": "breaker"})],
            retry=RetryPolicy(retries=3),
        )
        status, _, _ = client.predict_raw({"model": "jacobi"})
        assert status == 503
        assert client.attempts == 1
        with pytest.raises(ConnectionResetError):
            _ScriptedClient(
                [ConnectionResetError()], retry=RetryPolicy(retries=3)
            ).predict_raw({})

    def test_default_client_does_not_retry(self):
        client = _ScriptedClient([(503, {}, {})])
        status, _, _ = client._request("POST", "/predict", {})
        assert status == 503
        assert client.attempts == 1


# -- circuit breaker + admission slots (tentpole part 4 + satellite c) ---------
class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = {"now": 0.0}
        metrics = ServiceMetrics()
        breaker = CircuitBreaker(
            metrics=metrics, clock=lambda: clock["now"], **kwargs
        )
        return breaker, clock, metrics

    def test_trips_after_threshold_consecutive_failures(self):
        breaker, _, metrics = self.make(threshold=3, cooldown=1.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_success()  # success resets the streak
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert 0 < breaker.retry_after <= 1.0
        assert metrics.counter("repro_breaker_open_total") == 1
        assert metrics.counter("repro_breaker_rejected_total") == 1

    def test_half_open_single_probe_then_close(self):
        breaker, clock, _ = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock["now"] = 1.5
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_full_cooldown(self):
        breaker, clock, metrics = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock["now"] = 1.5
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after == pytest.approx(1.0)
        assert metrics.counter("repro_breaker_open_total") == 2

    def test_released_probe_frees_the_slot(self):
        # Regression: a probe that ends without a health verdict (shed
        # by admission, model deadlock, cancelled) must give the slot
        # back -- otherwise allow() returns False forever and the
        # breaker wedges open until restart.
        breaker, clock, _ = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure()
        clock["now"] = 1.5
        assert breaker.allow()       # the probe goes through
        assert not breaker.allow()   # slot held
        breaker.release_probe()      # probe shed: no success, no failure
        assert breaker.state == "half-open"
        assert breaker.allow()       # a fresh probe may go through
        breaker.record_success()
        assert breaker.state == "closed"

    def test_release_probe_when_closed_is_a_noop(self):
        breaker, _, _ = self.make(threshold=2, cooldown=1.0)
        breaker.release_probe()
        assert breaker.state == "closed" and breaker.allow()


class TestJobSlot:
    def test_slot_releases_exactly_once(self):
        queue = JobQueue(2, ServiceMetrics())
        with queue.admit() as slot:
            assert queue.inflight == 1
            slot.release()   # early release (e.g. handler cleanup)
            assert queue.inflight == 0
        # __exit__ after an explicit release must not double-release.
        assert queue.inflight == 0
        queue.admit().__enter__()
        assert queue.inflight == 1  # no underflow corrupted the count

    def test_exception_path_releases(self):
        queue = JobQueue(1, ServiceMetrics())
        with pytest.raises(RuntimeError):
            with queue.admit():
                raise RuntimeError("engine blew up")
        assert queue.inflight == 0
        with queue.admit():  # the slot is reusable
            with pytest.raises(QueueFull):
                queue.admit().__enter__()

    def test_failed_acquire_leaks_nothing(self):
        queue = JobQueue(1, ServiceMetrics())
        with queue.admit():
            slot = queue.admit()
            with pytest.raises(QueueFull):
                slot.__enter__()
            slot.release()  # releasing an unacquired slot is a no-op
            assert queue.inflight == 1
        assert queue.inflight == 0


class TestBreakerInService:
    def test_engine_failures_open_breaker_and_probe_recovers(self, db):
        clock = {"now": 0.0}

        async def scenario(service):
            service.breaker = CircuitBreaker(
                threshold=2, cooldown=1.0, metrics=service.metrics,
                clock=lambda: clock["now"],
            )
            healthy = service.batcher._evaluate

            def broken(reqs):
                raise RuntimeError("evaluator crashed")

            service.batcher._evaluate = broken
            out = []
            for seed in range(3):
                status, headers, doc = await service.handle_predict(
                    jacobi_request(seed=seed)
                )
                out.append((status, headers, doc))
            # Engine healthy again, cooldown elapsed: the probe closes it.
            service.batcher._evaluate = healthy
            clock["now"] = 2.0
            probe = await service.handle_predict(jacobi_request(seed=0))
            closed = service.breaker.state
            return out, probe, closed

        out, probe, closed = run_service(db, scenario, caching=False)
        assert [status for status, _, _ in out] == [500, 500, 503]
        status, headers, doc = out[2]
        assert doc["error"] == "circuit breaker open"
        assert float(headers["Retry-After"]) > 0
        assert probe[0] == 200
        assert closed == "closed"

    def test_shed_probe_does_not_wedge_breaker(self, db):
        # Regression: if the half-open probe is shed by admission (or
        # hits a model deadlock / bad request), the probe slot must be
        # released -- otherwise every later engine-bound request gets
        # 503 forever even though the engine is healthy again.
        clock = {"now": 0.0}

        async def scenario(service):
            service.breaker = CircuitBreaker(
                threshold=1, cooldown=1.0, metrics=service.metrics,
                clock=lambda: clock["now"],
            )
            service.breaker.record_failure()  # breaker opens
            clock["now"] = 2.0                # cooldown elapsed: half-open
            service.jobs.acquire()            # admission full: probe is shed
            shed = await service.handle_predict(jacobi_request())
            service.jobs.release()
            after = await service.handle_predict(jacobi_request())
            return shed, after, service.breaker.state

        shed, after, state = run_service(
            db, scenario, caching=False, queue_limit=1
        )
        assert shed[0] == 429   # shed by admission, not by the breaker
        assert after[0] == 200  # the next request probed: no wedge
        assert state == "closed"

    def test_cache_hits_served_while_breaker_open(self, db):
        async def scenario(service):
            body = jacobi_request()
            warm = await service.handle_predict(body)
            service.breaker._opened_at = service.breaker._clock()
            hit = await service.handle_predict(body)
            miss = await service.handle_predict(jacobi_request(seed=99))
            return warm, hit, miss

        warm, hit, miss = run_service(db, scenario)
        assert warm[0] == 200 and hit[0] == 200
        assert hit[2]["served_from"] == "cache"
        assert hit[2]["times"] == warm[2]["times"]
        assert miss[0] == 503  # only engine-bound work is shed


# -- singleflight leader cancellation (satellite d) ----------------------------
class TestLeaderCancellation:
    def test_followers_get_rejection_not_hang(self):
        async def main():
            flight = SingleFlight(ServiceMetrics())
            leader, fut = flight.claim("k")
            assert leader
            follower_sees = asyncio.ensure_future(asyncio.wait_for(fut, 5))
            await asyncio.sleep(0)
            flight.reject("k", asyncio.CancelledError())
            with pytest.raises(LeaderCancelled):
                await follower_sees
            assert flight.inflight == 0

        asyncio.run(main())

    def test_follower_gets_retryable_503_then_success(self, db):
        body = jacobi_request()

        async def scenario(service):
            req = PredictRequest.from_dict(body)
            key = req.key(service.db_fingerprint)
            leader = asyncio.ensure_future(service._predict(req, key))
            while service.dedup.inflight == 0:  # leader has claimed
                await asyncio.sleep(0.001)
            follower = asyncio.ensure_future(service.handle_predict(body))
            await asyncio.sleep(0.01)  # follower is awaiting the future
            leader.cancel()
            status, headers, doc = await follower
            with pytest.raises(asyncio.CancelledError):
                await leader
            retry = await service.handle_predict(body)
            return (status, doc), retry

        (status, doc), retry = run_service(
            db, scenario, max_wait=0.2, caching=False
        )
        assert status == 503
        assert "leader" in doc["error"]
        assert retry[0] == 200  # a retry elects a new leader
        assert retry[2]["times"] == direct_jacobi(db, body).times


# -- prometheus escaping (satellite b) -----------------------------------------
class TestPrometheusEscaping:
    HOSTILE = 'va"l\\ue\nwith everything'

    def test_escape_label_value(self):
        from repro.service.metrics import escape_label_value

        assert escape_label_value(self.HOSTILE) == (
            'va\\"l\\\\ue\\nwith everything'
        )
        assert escape_label_value("plain") == "plain"

    def test_render_escapes_counter_and_latency_labels(self):
        metrics = ServiceMetrics()
        metrics.inc("repro_requests_total", endpoint=self.HOSTILE)
        metrics.observe(self.HOSTILE, 0.001)
        text = metrics.render_prometheus()
        assert '\nrepro_requests_total{endpoint="va\\"l\\\\ue\\nwith everything"} 1' in text
        assert 'repro_request_latency_seconds{endpoint="va\\"l\\\\ue\\nwith everything",quantile="0.5"}' in text
        # No raw newline inside any sample line: every line is either a
        # comment or one whole `name{labels} value` sample.
        import re

        for line in text.splitlines():
            assert line.startswith("#") or re.fullmatch(
                r"[a-zA-Z_][\w:]*(\{.*\})? \S+", line
            ), line

    def test_hostile_endpoint_over_http_keeps_exposition_parseable(self, db):
        service = PredictionService(db, spec=SPEC)
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                client._request("GET", '/nope"quoted')
                text = client.metrics_text()
            finally:
                client.close()
        assert 'endpoint="/nope\\"quoted"' in text


# -- chaos endpoint + drain (tentpole parts 1 and 4, over HTTP) ----------------
class TestChaosEndpoint:
    def test_chaos_routes_only_in_chaos_mode(self, db):
        service = PredictionService(db, spec=SPEC)
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                status, _, _ = client._request("GET", "/chaos")
            finally:
                client.close()
        assert status == 404

    def test_arm_and_fire_over_http(self, db, tmp_path):
        injector = FaultInjector(seed=2)
        service = PredictionService(
            db, spec=SPEC, cache_dir=tmp_path, fault_injector=injector
        )
        request = jacobi_request()
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                snap = client.chaos()
                assert snap["chaos"]["armed"]["stall_evaluator"] == 0
                armed = client.chaos(
                    {"kind": "stall_evaluator", "seconds": 0.01}
                )
                assert armed["armed"] == [
                    {"kind": "stall_evaluator", "seconds": 0.01}
                ]
                record = client.predict(**request)
                snap = client.chaos()
                health = client.healthz()
                bad = client._request("POST", "/chaos", {"kind": "nope"})
            finally:
                client.close()
        assert record["times"] == direct_jacobi(db, request).times
        assert snap["chaos"]["injected"]["stall_evaluator"] == 1
        assert health["chaos"]["events"]["evaluate"] >= 1
        assert health["breaker"] == "closed"
        assert health["draining"] is False
        assert bad[0] == 400

    def test_arm_plan_over_http(self, db):
        injector = FaultInjector(seed=2)
        service = PredictionService(db, spec=SPEC, fault_injector=injector)
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                doc = client.chaos({"plan": {"seed": 5, "length": 3}})
            finally:
                client.close()
        assert len(doc["armed"]) == 3
        expected = [s.to_dict() for s in FaultPlan.seeded(5, length=3).faults]
        assert doc["armed"] == expected


class TestDrain:
    def test_draining_sheds_new_predictions_with_503(self, db):
        service = PredictionService(db, spec=SPEC)
        with ServiceThread(service) as thread:
            client = ServiceClient(*thread.address)
            try:
                ok = client.predict(**jacobi_request())
                service.draining = True
                status, headers, doc = client.predict_raw(jacobi_request())
            finally:
                client.close()
        assert ok["times"]
        assert status == 503
        assert doc["error"] == "server draining"
        assert headers.get("Connection") == "close"
        assert service.metrics.counter("repro_drain_rejected_total") == 1

    def test_drain_finishes_inflight_then_stops(self, db):
        request = jacobi_request(runs=16, seed=21)
        service = PredictionService(db, spec=SPEC, max_wait=0.1)
        thread = ServiceThread(service)
        host, port = thread.start()
        pool = ThreadPoolExecutor(1)
        try:
            client = ServiceClient(host, port)
            inflight = pool.submit(client.predict, **request)
            while service.jobs.inflight == 0 and not inflight.done():
                pass  # busy-wait: the request has reached admission
            thread.drain(grace=30.0)
            record = inflight.result(timeout=30)
        finally:
            pool.shutdown(wait=False)
            thread.stop()
        # The admitted request got its full, correct response...
        assert record["times"] == direct_jacobi(db, request).times
        # ...and the listener is gone: new connections are refused.
        with pytest.raises(OSError):
            conn = http.client.HTTPConnection(host, port, timeout=2)
            try:
                conn.request("GET", "/healthz")
                conn.getresponse()
            finally:
                conn.close()


# -- loadgen resilience (acceptance: no malformed responses) -------------------
class TestLoadGeneratorRetries:
    @pytest.mark.slow
    def test_retries_mask_backpressure(self, db):
        service = PredictionService(
            db, spec=SPEC, queue_limit=1, max_wait=0.1, caching=False,
            dedup=False,
        )
        with ServiceThread(service) as thread:
            host, port = thread.address
            gen = LoadGenerator(
                host, port,
                lambda seq: jacobi_request(seed=seq % 4),
                concurrency=4,
                retry=RetryPolicy(retries=4, base=0.05, jitter=0.5, seed=0),
            )
            result = gen.run(total_requests=8)
        summary = result.summary()
        assert summary["errors"] == 0
        assert summary["retries"] > 0
        # With retries every logical request eventually succeeded.
        assert summary["status_counts"].keys() == {"200"}
