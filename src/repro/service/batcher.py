"""The evaluation queue: one keyed, bounded queue in front of the engine.

Every ``/predict`` miss that reaches the engine passes through one
:class:`MicroBatcher`, which holds **one entry per content key** from
the moment the key is first submitted until its evaluation settles:

* **singleflight** -- a submit whose key is already queued or
  evaluating shares that entry's future instead of queueing again;
  identical requests are guaranteed the same bit-identical answer
  (:meth:`~repro.service.records.PredictRequest.key`), so sharing never
  changes what any client receives, only how often the engine runs;
* **admission** -- a new key is first passed to the optional tenant
  *limiter*, then shed with :class:`~repro.service.jobs.QueueFull` (HTTP
  429 + ``Retry-After``) when ``limit`` entries already exist, which
  keeps time-to-decision constant under overload;
* **micro-batching** -- the collector takes the first queued entry plus
  whatever else queued while the evaluator was busy, up to
  ``max_batch``, and hands them to the engine as **one**
  :func:`~repro.pevpm.predict.evaluate_with_precision` call
  (``PredictionService._evaluate_requests``).  A lone request is
  evaluated at once -- no window waits for batch-mates.

An entry's future belongs to the queue, not to any caller: a waiter
that is cancelled or times out only stops waiting.  The dispatch hands
each evaluated item to the ``settle(key, item, result)`` callback on
the event loop, then drops the key, then resolves the future, so a
request arriving in between finds the result wherever *settle* put it
(the service's cache tiers) or the entry in the queue, never neither.

A batch shares only the hop to the evaluator thread.  Each request
stays its own :class:`~repro.pevpm.parallel.RunGroup` with its own seed
streams, so every request's times remain bit-identical to a direct
``predict(...)`` call.  Evaluation runs on a single dedicated executor
thread, so the engine's timing-model state is never shared between
threads.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .jobs import QueueFull
from .metrics import ServiceMetrics

__all__ = ["MicroBatcher"]


def _ignore(key, item, result) -> None:
    """The default ``settle``: keep nothing."""


class MicroBatcher:
    """One entry per key, at most *limit* of them, batched to *evaluate*.

    *evaluate* is called with a list of items on the evaluator thread
    and must return one result per item **in order**; a result may be an
    exception instance, which is re-raised to that item's waiters only
    (one poisoned request must not fail its batch-mates).  *max_batch*
    caps a batch, and so how long its first request waits for its
    batch-mates to be evaluated.  *limiter*, when given, is called with
    a new key's tenant before the *limit* check and raises to shed it
    (e.g. the registry's ``TenantManager.admit`` token bucket), so a
    throttled tenant cannot crowd others out of the queue.  *settle* is
    called on the event loop with each evaluated ``(key, item, result)``
    before the key leaves the queue.
    """

    def __init__(
        self,
        evaluate: Callable[[list], list],
        metrics: ServiceMetrics,
        max_batch: int = 8,
        limit: int = 64,
        limiter: Callable[[str | None], None] | None = None,
        settle: Callable[[str, object, object], None] = _ignore,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self._evaluate = evaluate
        self._metrics = metrics
        self.max_batch = max_batch
        self.limit = limit
        self._limiter = limiter
        self._settle = settle
        #: key -> the future its queued or evaluating entry resolves
        self._entries: dict[str, asyncio.Future] = {}
        #: monotonically increasing batch ordinal (trace/log correlation)
        self._batch_seq = 0
        self._pending: asyncio.Queue | None = None
        self._collector: asyncio.Task | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )

    def __contains__(self, key: str) -> bool:
        """Whether *key* is queued or evaluating."""
        return key in self._entries

    @property
    def inflight(self) -> int:
        """Entries queued or evaluating (what admission bounds)."""
        return len(self._entries)

    async def submit(
        self, key: str, item, trace=None, tenant: str | None = None
    ) -> tuple[object, str]:
        """Await the result of *item*, evaluated once per *key*.

        Returns ``(result, source)``: ``"engine"`` for the submit that
        queued the entry, ``"singleflight"`` for one that joined it.
        With *trace*, the submit is recorded as a ``dedup`` annotation
        carrying its ``role``; a new entry adds the ``admission``
        annotation and a ``batch`` span over its stay in the queue, and
        the dispatch an ``engine`` span over the evaluator-thread call
        (tagged with batch ordinal and size); a joiner's wait is a
        ``singleflight.wait`` span.
        """
        fut = self._entries.get(key)
        if fut is not None:
            self._metrics.inc("repro_singleflight_hits_total")
            if trace is None:
                return await asyncio.shield(fut), "singleflight"
            trace.annotate("dedup", role="follower")
            with trace.span("singleflight.wait"):
                return await asyncio.shield(fut), "singleflight"
        self._metrics.inc("repro_singleflight_leads_total")
        if trace is not None:
            trace.annotate("dedup", role="leader")
        self._admit(trace, tenant)
        start = None if trace is None else trace.now()
        fut = self._entries[key] = asyncio.get_running_loop().create_future()
        self._metrics.set_gauge("repro_queue_depth", len(self._entries))
        if self._pending is None:
            self._pending = asyncio.Queue()
        if self._collector is None or self._collector.done():
            # Crash recovery: a collector that died (or was torn down)
            # would strand every queued entry; restart it and count the
            # restart.
            if self._collector is not None:
                self._collector.cancelled() or self._collector.exception()
                self._metrics.inc("repro_batcher_restarts_total")
            self._collector = asyncio.create_task(self._collect())
        self._pending.put_nowait((key, item, fut, trace))
        try:
            return await asyncio.shield(fut), "engine"
        finally:
            if trace is not None:
                trace.add_span("batch", start, trace.now())

    def _admit(self, trace=None, tenant: str | None = None) -> None:
        """Admit a new entry or shed it.

        The *limiter* runs first, then the *limit* check.  With
        *trace*, the decision is recorded as an ``admission`` annotation
        carrying the queue depth at the moment of the decision.
        """
        depth = len(self._entries)
        if self._limiter is not None:
            try:
                self._limiter(tenant)
            except Exception:
                self._metrics.inc("repro_jobs_shed_total")
                if trace is not None:
                    trace.annotate(
                        "admission", queue_depth=depth, status="throttled",
                        tenant=tenant,
                    )
                raise
        if depth >= self.limit:
            self._metrics.inc("repro_jobs_shed_total")
            self._metrics.set_gauge("repro_queue_depth", depth)
            if trace is not None:
                trace.annotate("admission", queue_depth=depth, status="shed")
            raise QueueFull(self.limit)
        self._metrics.inc("repro_jobs_admitted_total")
        if trace is not None:
            trace.annotate(
                "admission", queue_depth=depth + 1, status="admitted"
            )

    async def _collect(self) -> None:
        while True:
            batch = [await self._pending.get()]
            while len(batch) < self.max_batch and not self._pending.empty():
                batch.append(self._pending.get_nowait())
            try:
                await self._dispatch(batch)
            finally:
                for key, _, fut, _ in batch:
                    # No-ops once settled; a dispatch cut short (the
                    # collector cancelled) must not strand its waiters.
                    self._drop(key, fut)
                    fut.cancel()
                    self._pending.task_done()

    def _drop(self, key: str, fut: asyncio.Future) -> None:
        if self._entries.get(key) is fut:
            del self._entries[key]
            self._metrics.set_gauge("repro_queue_depth", len(self._entries))

    async def _dispatch(self, batch: list[tuple]) -> None:
        self._batch_seq += 1
        batch_id = self._batch_seq
        self._metrics.inc("repro_batches_total")
        self._metrics.inc("repro_batched_requests_total", len(batch))
        if len(batch) > 1:
            self._metrics.inc("repro_coalesced_requests_total", len(batch) - 1)
        self._metrics.set_gauge("repro_batch_occupancy", len(batch))
        loop = asyncio.get_running_loop()
        items = [item for _, item, _, _ in batch]
        # All traces of a service share one tracer clock, so one
        # timestamp pair brackets the evaluator call for every request
        # in the batch.
        traces = [tr for _, _, _, tr in batch if tr is not None]
        t0 = traces[0].now() if traces else None
        try:
            results = await loop.run_in_executor(
                self._pool, self._evaluate, items
            )
        except Exception as exc:  # evaluator itself failed wholesale
            results = [exc] * len(batch)
        if traces:
            t1 = traces[0].now()
            for tr in traces:
                tr.add_span(
                    "engine", t0, t1,
                    batch_id=batch_id, batch_size=len(batch),
                )
        for (key, item, fut, _), result in zip(batch, results):
            self._settle(key, item, result)
            self._drop(key, fut)
            if isinstance(result, BaseException):
                fut.set_exception(result)
                fut.exception()  # an entry nobody awaits logs nothing
            else:
                fut.set_result(result)

    async def drain(self) -> None:
        """Wait until every queued entry has been evaluated and every
        in-flight batch has resolved (the graceful-shutdown barrier:
        callers holding responses still get them)."""
        if self._pending is not None:
            await self._pending.join()

    def close(self) -> None:
        if self._collector is not None:
            self._collector.cancel()
            self._collector = None
        self._pool.shutdown(wait=False, cancel_futures=True)
