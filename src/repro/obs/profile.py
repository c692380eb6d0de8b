"""Per-phase host-time accumulators for the prediction engine.

PEVPM attributes a modelled program's *virtual* time to loss categories
(send overhead, contention, rendezvous stalls).  This module applies
the same idea to the engine's own *host* time: one evaluation is
bucketed into

* ``sweep``  -- advancing model programs to their next decision point,
* ``match``  -- completing blocked receives (candidate selection,
  divergence handling),
* ``sample`` -- drawing from the measured timing distributions (the
  Monte Carlo inner kernel; carved out of sweep/match so that "time
  goes to the histogram lookups" is distinguishable from "time goes to
  the interpreter"),

with ``serialize`` (building the response document) added by the
serving layer.  Buckets are **disjoint**: callers timing an enclosing
region subtract the sample time recorded inside it (see
:meth:`PhaseProfiler.exclusive`).

A profiler is plain mutable state with no locks -- each evaluation
owns its own instance, and the per-run shares ride back on
:class:`~repro.pevpm.parallel.RunOutcome` as a ``dict[str, float]``.
"""

from __future__ import annotations

__all__ = ["ENGINE_PHASES", "PhaseProfiler", "merge_phases"]

#: engine-side buckets (the serving layer adds "serialize")
ENGINE_PHASES = ("sweep", "match", "sample")


class PhaseProfiler:
    """Disjoint per-phase second counters for one evaluation."""

    __slots__ = ("phases",)

    def __init__(self):
        self.phases: dict[str, float] = {p: 0.0 for p in ENGINE_PHASES}

    def add(self, phase: str, seconds: float) -> None:
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def mark(self) -> float:
        """Current ``sample`` total -- pair with :meth:`exclusive`."""
        return self.phases.get("sample", 0.0)

    def exclusive(self, phase: str, elapsed: float, sample_mark: float) -> None:
        """Attribute *elapsed* seconds to *phase*, minus whatever landed
        in ``sample`` since *sample_mark* (keeps the buckets disjoint
        when sampling happens inside a swept/matched region)."""
        inner = self.phases.get("sample", 0.0) - sample_mark
        self.add(phase, max(0.0, elapsed - inner))

    def scaled(self, factor: float) -> dict[str, float]:
        """The phase dict scaled by *factor* (a batched chunk divides
        its shared cost equally over its runs, like ``wall``)."""
        return {k: v * factor for k, v in self.phases.items() if v > 0.0}

    def snapshot(self) -> dict[str, float]:
        return {k: v for k, v in self.phases.items() if v > 0.0}


def merge_phases(outcomes) -> dict[str, float]:
    """Sum the per-run phase dicts of an outcome list (request-level
    attribution for spans/metrics); outcomes without phases contribute
    nothing."""
    total: dict[str, float] = {}
    for outcome in outcomes:
        phases = getattr(outcome, "phases", None)
        if not phases:
            continue
        for k, v in phases.items():
            total[k] = total.get(k, 0.0) + v
    return total
