"""Sequential stopping rule for Monte Carlo evaluation.

:class:`PrecisionTarget` is the contract between "how precise must this
answer be" and "how many runs does that cost".  The engine evaluates in
increments, checks the confidence-interval half-width on the mean after
each, and stops at the first total that meets the target (or at
``max_runs``).  Two properties make the rule safe to serve from:

* **Determinism** -- the increment schedule :func:`next_total` is a pure
  function of (target, vector_batch), so two adaptive evaluations of one
  request stop at the same total having drawn the same streams; combined
  with the engine's absolute run-index seeding (``run_offset``), an
  adaptive run stopping at N is bit-identical to a fixed ``runs=N`` run.
* **Chunk parity** -- batched-VM chunks are not prefix-stable (a chunk
  of 4 runs draws differently from the first 4 runs of a chunk of 64),
  so for vectorised groups every scheduled total is a multiple of the
  chunk size: the adaptive increments decompose into exactly the chunks
  a one-shot ``runs=N`` evaluation would dispatch.  The hard cap may
  fall off-multiple; its final partial chunk matches the fixed
  decomposition's final partial chunk, so parity still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci import z_for_level

__all__ = ["PrecisionTarget", "achieved_rse", "next_total"]


def _half_width(times, level: float) -> tuple[float, float, int]:
    """(mean, CI half-width, n) of *times* -- sample std, ddof=1."""
    arr = np.asarray(times, dtype=float)
    n = int(arr.size)
    if n < 2:
        return (float(arr[0]) if n else 0.0), float("inf"), n
    mean = float(np.mean(arr))
    half = z_for_level(level) * float(np.std(arr, ddof=1)) / math.sqrt(n)
    return mean, half, n


def achieved_rse(times, level: float = 0.95) -> float:
    """CI half-width relative to |mean| -- the quantity targets bound.

    ``inf`` when inestimable (n < 2, or a zero mean with spread).
    """
    mean, half, n = _half_width(times, level)
    if n < 2:
        return float("inf")
    if mean == 0.0:
        return 0.0 if half == 0.0 else float("inf")
    return half / abs(mean)


@dataclass(frozen=True)
class PrecisionTarget:
    """Stop when the mean's CI half-width meets every set bound.

    *rse* bounds the half-width relative to |mean|; *abs_halfwidth*
    bounds it absolutely (seconds).  At least one must be set; when both
    are, both must hold.  *min_runs* is the first total evaluated (the
    spread of fewer than 2 runs is inestimable, so >= 2); *max_runs*
    caps the spend -- the rule reports non-convergence rather than
    running forever on a heavy-tailed workload.
    """

    rse: float | None = None
    abs_halfwidth: float | None = None
    level: float = 0.95
    min_runs: int = 4
    max_runs: int = 256

    def __post_init__(self):
        if self.rse is None and self.abs_halfwidth is None:
            raise ValueError("set at least one of rse / abs_halfwidth")
        if self.rse is not None and not 0.0 < self.rse:
            raise ValueError(f"rse must be positive, got {self.rse!r}")
        if self.abs_halfwidth is not None and not 0.0 < self.abs_halfwidth:
            raise ValueError(
                f"abs_halfwidth must be positive, got {self.abs_halfwidth!r}"
            )
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {self.level!r}")
        if self.min_runs < 2:
            raise ValueError("min_runs must be >= 2 (spread needs 2 samples)")
        if self.max_runs < self.min_runs:
            raise ValueError("max_runs must be >= min_runs")

    def to_doc(self) -> dict:
        """JSON-able identity of this target (cache-key component and
        response-record field); ``None`` bounds are omitted."""
        doc = {
            "level": self.level,
            "min_runs": self.min_runs,
            "max_runs": self.max_runs,
        }
        if self.rse is not None:
            doc["rse"] = self.rse
        if self.abs_halfwidth is not None:
            doc["abs_halfwidth"] = self.abs_halfwidth
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "PrecisionTarget":
        return cls(
            rse=doc.get("rse"),
            abs_halfwidth=doc.get("abs_halfwidth"),
            level=float(doc.get("level", 0.95)),
            min_runs=int(doc.get("min_runs", 4)),
            max_runs=int(doc.get("max_runs", 256)),
        )

    def satisfied(self, times) -> bool:
        """Whether *times* already meets every set bound."""
        mean, half, n = _half_width(times, self.level)
        if n < max(2, self.min_runs):
            return False
        if self.abs_halfwidth is not None and half > self.abs_halfwidth:
            return False
        if self.rse is not None:
            if mean == 0.0:
                return half == 0.0
            if half / abs(mean) > self.rse:
                return False
        return True


def next_total(done: int, target: PrecisionTarget, batch: int | None = None) -> int:
    """The next cumulative run total of the doubling schedule.

    ``done=0`` starts at ``min_runs``; afterwards the total doubles
    (geometric growth keeps the number of refinement rounds -- each an
    engine call -- logarithmic in the final spend).  With *batch* set
    (a vectorised group's chunk size), totals align **up** to chunk
    multiples so every increment is whole chunks; the ``max_runs`` cap
    wins over alignment (its final chunk may be partial -- see module
    docstring).  Returns ``done`` unchanged once the cap is reached.
    """
    if done >= target.max_runs:
        return done
    total = target.min_runs if done == 0 else done * 2
    if batch is not None:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        total = ((total + batch - 1) // batch) * batch
    total = min(total, target.max_runs)
    # Alignment can only move totals up, and done is always a previous
    # total, so progress is guaranteed until the cap.
    return max(total, min(done + 1, target.max_runs))
