"""Micro-batching: coalesce concurrent predictions into engine batches.

PR 2's :class:`~repro.pevpm.vector.BatchedVirtualMachine` evaluates a
whole chunk of Monte Carlo runs in one lockstep sweep/match pass --
exactly the shape a serving layer wants.  The micro-batcher completes
the picture on the request side: concurrent ``/predict`` misses are
collected for up to ``max_wait`` seconds (or ``max_batch`` requests,
whichever first) and handed to the engine as **one**
:func:`~repro.pevpm.parallel.evaluate_groups` call.  Each request stays
its own :class:`~repro.pevpm.parallel.RunGroup` with its own seed
streams -- coalescing shares per-group program compilation, but never
the random draws, so every request's times remain bit-identical to a
direct ``predict(...)`` call.  Within a group, a static program is
evaluated as ``BatchedVirtualMachine`` chunks, the engine's
highest-throughput path.

Evaluation runs on a single dedicated executor thread: batches pipeline
(the collector keeps coalescing the next batch while the current one
evaluates) and the engine's timing-model state is never shared between
threads.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .metrics import ServiceMetrics

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Coalesce ``submit()`` items into batched evaluator calls.

    *evaluate* is called with a list of items on the evaluator thread
    and must return one result per item **in order**; a result may be an
    exception instance, which is re-raised to that item's awaiter only
    (one poisoned request must not fail its batch-mates).
    """

    def __init__(
        self,
        evaluate: Callable[[list], list],
        metrics: ServiceMetrics,
        max_batch: int = 8,
        max_wait: float = 0.002,
        enabled: bool = True,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self._evaluate = evaluate
        self._metrics = metrics
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.enabled = enabled
        #: monotonically increasing batch ordinal (trace/log correlation)
        self._batch_seq = 0
        self._pending: asyncio.Queue | None = None
        self._collector: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        #: True while the collector holds popped items it has not yet
        #: handed to a dispatch task (the coalescing window); drain()
        #: must not declare the batcher empty during it.
        self._coalescing = False
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )

    async def submit(self, item, trace=None) -> object:
        """Queue *item* for batched evaluation; await its result.

        With *trace*, the whole stay in the batcher -- coalescing wait
        plus evaluation -- is recorded as a ``batch`` span, and the
        dispatch adds a per-request ``engine`` span covering the
        evaluator-thread call (tagged with batch ordinal and size).
        """
        start = None if trace is None else trace.now()
        try:
            loop = asyncio.get_running_loop()
            fut: asyncio.Future = loop.create_future()
            if not self.enabled:
                await self._dispatch([(item, fut, trace)])
                return await fut
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
            await self._pending.put((item, fut, trace))
            return await fut
        finally:
            if trace is not None:
                trace.add_span("batch", start, trace.now())

    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._pending.get()
            self._coalescing = True
            try:
                batch = [first]
                deadline = loop.time() + self.max_wait
                while len(batch) < self.max_batch:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self._pending.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
                # Evaluate in the background so the collector keeps
                # coalescing the next batch while this one runs; track the
                # task so shutdown can drain in-flight evaluations.
                task = asyncio.create_task(self._dispatch(batch))
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)
            finally:
                self._coalescing = False

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
        except BaseException as exc:  # evaluator itself failed wholesale
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
        """Wait until every queued item has been dispatched and every
        in-flight batch has resolved (the graceful-shutdown barrier:
        callers holding responses still get them)."""
        while True:
            if self._dispatches:
                await asyncio.gather(
                    *list(self._dispatches), return_exceptions=True
                )
                continue
            if self._coalescing or (
                self._pending is not None and not self._pending.empty()
            ):
                # Queued items, or items the collector popped but has
                # not yet handed to a dispatch task: wait a coalescing
                # interval and re-check (returning now would let stop()
                # cancel connections still awaiting that batch).
                await asyncio.sleep(self.max_wait or 0.001)
                continue
            return

    def close(self) -> None:
        if self._collector is not None:
            self._collector.cancel()
            self._collector = None
        self._pool.shutdown(wait=False, cancel_futures=True)
