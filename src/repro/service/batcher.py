"""Micro-batching: batch the misses that queue while the evaluator is busy.

Concurrent ``/predict`` misses are handed to the engine as **one**
:func:`~repro.pevpm.predict.evaluate_with_precision` call per batch
(``PredictionService._evaluate_requests``).  The
collector takes the first queued request plus whatever else is already
queued, up to ``max_batch``, evaluates that batch, and only then looks
at the queue again.  A lone request is therefore evaluated at once --
no window waits for batch-mates -- and requests that arrive during an
evaluation share the next batch.

A batch shares only the hop to the evaluator thread.  Each request
stays its own :class:`~repro.pevpm.parallel.RunGroup` with its own seed
streams, so every request's times remain bit-identical to a direct
``predict(...)`` call; compiled programs, model trees and timing
instances are cached for the whole process, batched or not.

Evaluation runs on a single dedicated executor thread, so the engine's
timing-model state is never shared between threads.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .metrics import ServiceMetrics

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Batch ``submit()`` items that queue while the evaluator is busy.

    *evaluate* is called with a list of items on the evaluator thread
    and must return one result per item **in order**; a result may be an
    exception instance, which is re-raised to that item's awaiter only
    (one poisoned request must not fail its batch-mates).  *max_batch*
    caps a batch, and so how long its first request waits for its
    batch-mates to be evaluated.
    """

    def __init__(
        self,
        evaluate: Callable[[list], list],
        metrics: ServiceMetrics,
        max_batch: int = 8,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._evaluate = evaluate
        self._metrics = metrics
        self.max_batch = max_batch
        #: monotonically increasing batch ordinal (trace/log correlation)
        self._batch_seq = 0
        self._pending: asyncio.Queue | None = None
        self._collector: asyncio.Task | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )

    async def submit(self, item, trace=None) -> object:
        """Queue *item* for batched evaluation; await its result.

        With *trace*, the whole stay in the batcher -- queueing behind
        a busy evaluator plus evaluation -- is recorded as a ``batch``
        span, and the dispatch adds a per-request ``engine`` span
        covering the evaluator-thread call (tagged with batch ordinal
        and size).
        """
        start = None if trace is None else trace.now()
        try:
            fut = asyncio.get_running_loop().create_future()
            if self._pending is None:
                self._pending = asyncio.Queue()
            if self._collector is None or self._collector.done():
                # Crash recovery: a collector that died (or was torn
                # down) would strand every queued submit in an un-awaited
                # future; restart it and count the restart.
                if self._collector is not None:
                    self._collector.cancelled() or self._collector.exception()
                    self._metrics.inc("repro_batcher_restarts_total")
                self._collector = asyncio.create_task(self._collect())
            self._pending.put_nowait((item, fut, trace))
            return await fut
        finally:
            if trace is not None:
                trace.add_span("batch", start, trace.now())

    async def _collect(self) -> None:
        while True:
            batch = [await self._pending.get()]
            while len(batch) < self.max_batch and not self._pending.empty():
                batch.append(self._pending.get_nowait())
            try:
                await self._dispatch(batch)
            finally:
                for _, fut, _ in batch:
                    # A no-op once resolved; a dispatch cut short (the
                    # collector cancelled) must not strand its waiters.
                    fut.cancel()
                    self._pending.task_done()

    async def _dispatch(self, batch: list[tuple]) -> None:
        self._batch_seq += 1
        batch_id = self._batch_seq
        self._metrics.inc("repro_batches_total")
        self._metrics.inc("repro_batched_requests_total", len(batch))
        if len(batch) > 1:
            self._metrics.inc("repro_coalesced_requests_total", len(batch) - 1)
        self._metrics.set_gauge("repro_batch_occupancy", len(batch))
        loop = asyncio.get_running_loop()
        items = [item for item, _, _ in batch]
        # All traces of a service share one tracer clock, so one
        # timestamp pair brackets the evaluator call for every request
        # in the batch.
        traces = [tr for _, _, tr in batch if tr is not None]
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
        for (_, fut, _), result in zip(batch, results):
            if fut.done():
                continue
            if isinstance(result, BaseException):
                fut.set_exception(result)
            else:
                fut.set_result(result)

    async def drain(self) -> None:
        """Wait until every queued item has been evaluated and every
        in-flight batch has resolved (the graceful-shutdown barrier:
        callers holding responses still get them)."""
        if self._pending is not None:
            await self._pending.join()

    def close(self) -> None:
        if self._collector is not None:
            self._collector.cancel()
            self._collector = None
        self._pool.shutdown(wait=False, cancel_futures=True)
