"""Observability: end-to-end tracing, per-phase profiling, JSON logging.

The paper's contribution beyond raw numbers is *attribution*: PEVPM
tells you where a modelled program loses time (send overhead,
contention, rendezvous stalls).  This package applies the same
discipline to the serving stack itself -- when a ``/predict`` is slow,
the question "which stage?" must be answerable from the system's own
records, not from guesswork (the built-in-measurement shape Nansamba et
al. argue for with Caliper/Benchpark).

* :mod:`.tracer`  -- explicit-clock spans grouped into per-request
  traces, propagated via the ``X-Repro-Trace`` HTTP header, kept in a
  bounded ring buffer and exported by ``GET /trace``;
* :mod:`.profile` -- per-phase accumulators for the engine's
  sweep/match/sample buckets (PEVPM's loss-attribution categories
  applied to host time), returned on each
  :class:`~repro.pevpm.parallel.RunOutcome`;
* :mod:`.jsonlog` -- one structured JSON line per served prediction
  (trace ID, cache tier outcome, batch ID, retry count) behind
  ``repro serve --log-json``;
* :mod:`.render`  -- the ASCII waterfall ``repro trace`` prints.

The whole package is stdlib-only and *zero-cost when disabled*: a
service built without a tracer passes ``trace=None`` through the
funnel and every call site is guarded.  Spans observe wall clocks only
and never touch the engine's seeded RNG streams, so tracing cannot
perturb the bit-identical reproducibility contract (test-asserted).
"""

from .jsonlog import JsonLogger
from .profile import ENGINE_PHASES, PhaseProfiler, merge_phases
from .render import render_waterfall
from .tracer import Span, Trace, Tracer, clean_trace_id, span_or_null

__all__ = [
    "ENGINE_PHASES",
    "JsonLogger",
    "PhaseProfiler",
    "Span",
    "Trace",
    "Tracer",
    "clean_trace_id",
    "merge_phases",
    "render_waterfall",
    "span_or_null",
]
