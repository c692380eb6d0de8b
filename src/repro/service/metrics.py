"""Service observability: counters and latency distributions.

Nansamba et al. (*Leveraging Caliper and Benchpark*) make the case for
measurement hooks built into the system rather than bolted on; the
prediction service follows suit.  Counters cover the request funnel
(admitted / shed / deduplicated / batched / cache tiers) and latencies
are kept as raw second-valued samples per endpoint, summarised on demand
through :class:`repro.mpibench.histogram.Histogram` -- the same
distribution machinery MPIBench uses for communication times, because a
serving latency is just another operation-time distribution.

Rendering follows the Prometheus text exposition format, so ``/metrics``
can be scraped by standard tooling (or just read by a human).

Beyond counters and endpoint latency summaries, the service exposes
*attribution* metrics (the observability layer of :mod:`repro.obs`):

* per-stage latency **histograms** (``repro_stage_seconds_bucket`` with
  exponential ``le`` bounds) -- one series per funnel stage and engine
  phase (cache, dedup, batch, engine, engine.sweep/match/sample,
  serialize), mirroring PEVPM's loss-attribution buckets;
* **gauges** -- queue depth, micro-batch occupancy, trace-buffer fill;
  a gauge is either a stored value (:meth:`ServiceMetrics.set_gauge`)
  or a callable sampled at render time
  (:meth:`ServiceMetrics.register_gauge`).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

from ..mpibench.histogram import Histogram

__all__ = ["ServiceMetrics", "escape_label_value", "unescape_label_value"]

#: latency quantiles exposed per endpoint
QUANTILES = (0.5, 0.9, 0.99)

#: exponential ``le`` bounds for stage histograms: 10us .. ~100s covers
#: everything from an LRU hit to a pathological engine evaluation
STAGE_BUCKETS = tuple(1e-5 * 4 ** i for i in range(12))

#: power-of-two ``le`` bounds for the Monte Carlo runs-spent histogram:
#: the adaptive stopping rule's doubling schedule lands totals exactly
#: on these, so each bucket is one possible stopping point
RUNS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text exposition format.

    The spec requires ``\\`` -> ``\\\\``, ``"`` -> ``\\"`` and newline ->
    ``\\n`` inside quoted label values; without this a hostile (or merely
    unlucky) label -- an endpoint path with a quote, say -- renders an
    exposition scrapers reject wholesale.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (what a scraper does).

    Processes one escape at a time so ``\\\\n`` round-trips as a
    backslash followed by ``n``, not as a newline -- the property the
    exposition format (and our Hypothesis round-trip test) demands.
    """
    out: list[str] = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(c)
        i += 1
    return "".join(out)


class _Histogram:
    """One cumulative-bucket histogram family: per value of its one
    *label*, a row of bucket counts (one per ``le`` bound), the +Inf
    count and the sum.  Guarded by its :class:`ServiceMetrics` lock."""

    def __init__(self, label: str, bounds: tuple):
        self.label = label
        self.bounds = bounds
        #: label value -> [bucket cumulative counts..., +Inf count, sum]
        self.rows: dict[str, list[float]] = {}

    def observe(self, value: str, x: float) -> None:
        row = self.rows.get(value)
        if row is None:
            row = self.rows[value] = [0.0] * (len(self.bounds) + 2)
        for i, bound in enumerate(self.bounds):
            if x <= bound:
                row[i] += 1.0
        row[-2] += 1.0  # +Inf
        row[-1] += x  # sum


def _label_str(labels) -> str:
    """Render a ``(key, value)`` label tuple as ``{k="v",...}``."""
    if not labels:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{escape_label_value(v)}"' for k, v in labels)
        + "}"
    )


class ServiceMetrics:
    """Counters plus bounded latency reservoirs for one service.

    *constant_labels* (e.g. ``{"shard_id": "3"}``) are stamped onto
    **every** rendered series -- counters, gauges, stage histograms and
    latency summaries -- so a router-level aggregation of N shards'
    expositions stays a valid scrape with no colliding series.  They
    are a rendering concern only: recording and querying use the
    per-call labels unchanged, so nothing inside one process needs to
    know which shard it is.
    """

    def __init__(
        self,
        reservoir: int = 8192,
        constant_labels: dict[str, str] | None = None,
    ):
        #: sorted (key, value) items merged into every rendered series
        self._const: tuple = tuple(sorted((constant_labels or {}).items()))
        #: (name, labels-tuple) -> value
        self._counters: dict[tuple[str, tuple], float] = {}
        #: endpoint -> bounded deque of latency samples (seconds)
        self._latencies: dict[str, deque] = {}
        #: name -> histogram family: per-stage seconds, and Monte Carlo
        #: runs spent per mode ("adaptive" | "fixed")
        self._histograms = {
            "repro_stage_seconds": _Histogram("stage", STAGE_BUCKETS),
            "repro_prediction_runs": _Histogram("mode", RUNS_BUCKETS),
        }
        #: (name, labels-tuple) -> stored gauge value
        self._gauges: dict[tuple[str, tuple], float] = {}
        #: (name, labels-tuple) -> callable sampled at render time
        self._gauge_fns: dict[tuple[str, tuple], Callable[[], float]] = {}
        self._reservoir = reservoir
        # Counters are bumped from the event loop *and* the evaluator
        # thread; the lock makes the read-modify-write atomic so no
        # increment is lost.  Cheap relative to any engine evaluation.
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def observe(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            buf = self._latencies.get(endpoint)
            if buf is None:
                buf = self._latencies[endpoint] = deque(maxlen=self._reservoir)
        buf.append(seconds)

    def _observe(self, name: str, value: str, x: float) -> None:
        with self._lock:
            self._histograms[name].observe(value, x)

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one per-stage duration into the stage histogram
        (``repro_stage_seconds{stage=...}``) -- called with funnel-span
        and engine-phase durations by the tracing layer."""
        self._observe("repro_stage_seconds", stage, seconds)

    def observe_runs(self, runs: int, mode: str) -> None:
        """Record the Monte Carlo run count of one engine-served
        prediction (``repro_prediction_runs{mode=...}``) -- *mode* is
        ``"adaptive"`` (stopping rule decided the spend) or ``"fixed"``
        (the request pinned it), so the runs-saved story of adaptive
        mode is readable straight off ``/metrics``."""
        self._observe("repro_prediction_runs", mode, runs)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Store a gauge value (last write wins)."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._gauges[key] = float(value)

    def register_gauge(
        self, name: str, fn: Callable[[], float], **labels
    ) -> None:
        """Register a gauge sampled at render/snapshot time -- the shape
        for live depths (jobs in flight, trace-buffer fill) that change
        far more often than anyone scrapes."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            self._gauge_fns[key] = fn

    # -- queries -----------------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(
                (name, tuple(sorted(labels.items()))), 0.0
            )

    def total(self, name: str) -> float:
        """Sum of *name* across every label combination."""
        with self._lock:
            return sum(
                value for (n, _), value in self._counters.items() if n == name
            )

    def gauge(self, name: str, **labels) -> float | None:
        """Current value of a gauge (stored or sampled); ``None`` when
        the gauge does not exist."""
        key = (name, tuple(sorted(labels.items())))
        with self._lock:
            fn = self._gauge_fns.get(key)
            if fn is None:
                return self._gauges.get(key)
        try:
            return float(fn())
        except Exception:
            return None

    def _count_sum(self, name: str, value: str) -> tuple[int, float]:
        """(observations, sum) of one histogram row."""
        with self._lock:
            row = self._histograms[name].rows.get(value)
            return (0, 0.0) if row is None else (int(row[-2]), row[-1])

    def stage_count(self, stage: str) -> int:
        """Observations recorded for one stage histogram."""
        return self._count_sum("repro_stage_seconds", stage)[0]

    def runs_count(self, mode: str) -> int:
        """Predictions recorded in the runs-spent histogram for *mode*."""
        return self._count_sum("repro_prediction_runs", mode)[0]

    def runs_sum(self, mode: str) -> float:
        """Total Monte Carlo runs spent across *mode*'s predictions."""
        return self._count_sum("repro_prediction_runs", mode)[1]

    def _histogram_rows(self) -> list[tuple[str, _Histogram, list]]:
        """(name, family, sorted (label value, row copy) pairs) of each
        histogram family, in a consistent snapshot."""
        with self._lock:
            return [
                (name, hist, sorted((k, list(v)) for k, v in hist.rows.items()))
                for name, hist in self._histograms.items()
            ]

    def latency_histogram(self, endpoint: str) -> Histogram | None:
        buf = self._latencies.get(endpoint)
        if not buf:
            return None
        return Histogram.from_samples(buf, bins=min(64, len(buf)))

    def latency_quantiles(self, endpoint: str) -> dict[float, float]:
        hist = self.latency_histogram(endpoint)
        if hist is None:
            return {}
        return {q: hist.quantile(q) for q in QUANTILES}

    def _gauge_items(self) -> list[tuple[tuple[str, tuple], float]]:
        """Stored and sampled gauges, merged (sampled wins on clash)."""
        with self._lock:
            stored = dict(self._gauges)
            fns = dict(self._gauge_fns)
        for key, fn in fns.items():
            try:
                stored[key] = float(fn())
            except Exception:
                stored.pop(key, None)  # a dead sampler drops its series
        return sorted(stored.items())

    def snapshot(self) -> dict:
        """JSON-able view of every counter, gauge and latency summary."""
        with self._lock:
            items = sorted(self._counters.items())
        counters: dict[str, float] = {}
        for (name, labels), value in items:
            counters[name + _label_str(labels)] = value
        gauges = {
            name + _label_str(labels): value
            for (name, labels), value in self._gauge_items()
        }
        latencies = {}
        for endpoint in sorted(self._latencies):
            hist = self.latency_histogram(endpoint)
            if hist is None:
                continue
            latencies[endpoint] = {
                "count": len(self._latencies[endpoint]),
                "mean": hist.mean,
                **{f"p{int(q * 100)}": hist.quantile(q) for q in QUANTILES},
            }
        snap = {
            "counters": counters,
            "gauges": gauges,
            "latency_seconds": latencies,
        }
        for name, _, rows in self._histogram_rows():
            # repro_stage_seconds -> "stage_seconds", and so on
            snap[name.removeprefix("repro_")] = {
                value: {"count": int(row[-2]), "sum": row[-1]}
                for value, row in rows
            }
        return snap

    # -- exposition ----------------------------------------------------------------
    def _stamped(self, labels: tuple) -> tuple:
        """Per-call labels merged with the constant labels, sorted."""
        if not self._const:
            return labels
        return tuple(sorted({**dict(self._const), **dict(labels)}.items()))

    def render_prometheus(self) -> str:
        """The Prometheus text format (v0.0.4) for ``/metrics``."""
        lines: list[str] = []
        seen_names: set[str] = set()
        with self._lock:
            counter_items = sorted(self._counters.items())
        for (name, labels), value in counter_items:
            if name not in seen_names:
                seen_names.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{_label_str(self._stamped(labels))} {value:g}")
        for (name, labels), value in self._gauge_items():
            if name not in seen_names:
                seen_names.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{_label_str(self._stamped(labels))} {value:g}")
        for name, hist, rows in self._histogram_rows():
            if rows:
                lines.append(f"# TYPE {name} histogram")
            for value, row in rows:
                base = self._stamped(((hist.label, value),))
                lbl = _label_str(base)[1:-1]  # inner 'k="v",...' text
                for bound, count in zip(hist.bounds, row):
                    lines.append(
                        f'{name}_bucket{{{lbl},le="{bound:g}"}} {count:g}'
                    )
                lines.append(f'{name}_bucket{{{lbl},le="+Inf"}} {row[-2]:g}')
                lines.append(f"{name}_count{{{lbl}}} {row[-2]:g}")
                lines.append(f"{name}_sum{{{lbl}}} {row[-1]:g}")
        for endpoint in sorted(self._latencies):
            buf = self._latencies[endpoint]
            hist = self.latency_histogram(endpoint)
            if hist is None:
                continue
            name = "repro_request_latency_seconds"
            if name not in seen_names:
                seen_names.add(name)
                lines.append(f"# TYPE {name} summary")
            base = self._stamped((("endpoint", endpoint),))
            lbl = _label_str(base)[1:-1]
            for q in QUANTILES:
                lines.append(
                    f'{name}{{{lbl},quantile="{q:g}"}} '
                    f"{hist.quantile(q):.6g}"
                )
            lines.append(f"{name}_count{{{lbl}}} {len(buf)}")
            lines.append(f"{name}_sum{{{lbl}}} {sum(buf):.6g}")
        return "\n".join(lines) + "\n"
