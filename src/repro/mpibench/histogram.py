"""Probability distributions of communication times.

MPIBench's defining feature (Section 2 of the paper) is that it produces
*distributions* of individual operation times, "in the form of histograms",
rather than the single averages other benchmarks report.  This module
implements that representation:

* :class:`Histogram` -- fixed-bin counts over a [min, max] support, built
  from raw samples, with pdf/cdf/quantile queries, merging, and inverse-CDF
  sampling (what PEVPM draws from during its match phases);
* summary statistics (mean/std/min/max/quantiles) computed from the raw
  samples where available so they are exact, with the binned form used for
  persistence and sampling -- deliberately so, because the paper attributes
  PEVPM's residual prediction error to "the granularity (i.e. histogram
  bin size) of the benchmark results", an effect we reproduce and expose
  via the ``bins`` parameter.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["Histogram"]


class Histogram:
    """An empirical distribution with equal-width bins.

    Construct with :meth:`from_samples`; direct construction takes
    pre-computed ``edges`` (length ``nbins+1``) and ``counts`` (length
    ``nbins``).
    """

    __slots__ = ("edges", "counts", "n", "_mean", "_std", "_min", "_max", "_samples", "_sorted", "_cum", "_icdf")

    def __init__(
        self,
        edges: np.ndarray,
        counts: np.ndarray,
        *,
        mean: float | None = None,
        std: float | None = None,
        vmin: float | None = None,
        vmax: float | None = None,
        samples: np.ndarray | None = None,
    ):
        edges = np.asarray(edges, dtype=float)
        counts = np.asarray(counts, dtype=float)
        if edges.ndim != 1 or counts.ndim != 1 or len(edges) != len(counts) + 1:
            raise ValueError("edges must be 1-D with len(counts)+1 entries")
        if len(counts) == 0:
            raise ValueError("histogram needs at least one bin")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = float(counts.sum())
        if total <= 0:
            raise ValueError("histogram must contain at least one sample")
        if samples is not None and len(samples) == 0:
            # An empty retained-sample array (e.g. a document persisted
            # with "samples": []) carries no information; treat it as
            # absent so every quantile/sampling path uses the binned
            # form instead of indexing into an empty sorted array.
            samples = None
        self.edges = edges
        self.counts = counts
        self.n = int(round(total))
        self._samples = samples
        self._sorted = None  # lazily cached sorted samples (fast quantiles)
        self._icdf = None  # lazily compiled inverse-CDF table (see icdf())
        # Cumulative bin counts, precomputed at construction (and so on
        # DB load): every sampling/quantile path needs them, and PEVPM's
        # first draw from each histogram used to pay the cumsum.
        self._cum = np.cumsum(counts)
        # Exact moments when raw samples are retained; binned estimates
        # otherwise.
        if samples is not None and len(samples):
            self._mean = float(np.mean(samples))
            self._std = float(np.std(samples))
            self._min = float(np.min(samples))
            self._max = float(np.max(samples))
        else:
            centres = 0.5 * (edges[:-1] + edges[1:])
            w = counts / total
            self._mean = mean if mean is not None else float(np.dot(w, centres))
            if std is not None:
                self._std = std
            else:
                var = float(np.dot(w, (centres - self._mean) ** 2))
                self._std = math.sqrt(max(0.0, var))
            self._min = vmin if vmin is not None else float(edges[0])
            self._max = vmax if vmax is not None else float(edges[-1])

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples: Iterable[float],
        bins: int = 100,
        keep_samples: bool = True,
    ) -> "Histogram":
        """Bin raw timing samples into an equal-width histogram.

        *bins* is the paper's granularity knob: fewer bins -> coarser
        distribution -> larger PEVPM sampling error.  With
        ``keep_samples=True`` the raw data rides along, making summary
        statistics exact and allowing re-binning.
        """
        arr = np.asarray(list(samples), dtype=float)
        if arr.size == 0:
            raise ValueError("cannot build a histogram from zero samples")
        if np.any(~np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi or not np.all(np.diff(np.linspace(lo, hi, bins + 1)) > 0):
            # Degenerate: all samples identical, or the span too narrow to
            # split into *bins* distinct edges; widen a hair so the single
            # bin has positive width.
            eps = max(abs(lo) * 1e-12, abs(hi) * 1e-12, 1e-15)
            edges = np.array([lo - eps, hi + eps])
            counts = np.array([float(arr.size)])
        else:
            counts, edges = np.histogram(arr, bins=bins, range=(lo, hi))
            counts = counts.astype(float)
        return cls(edges, counts, samples=arr if keep_samples else None)

    def rebinned(self, bins: int) -> "Histogram":
        """Re-bin (requires retained samples)."""
        if self._samples is None:
            raise ValueError("cannot re-bin a histogram without raw samples")
        return Histogram.from_samples(self._samples, bins=bins)

    # -- statistics ----------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        """**Population** standard deviation (ddof=0): the spread of the
        recorded sample set itself -- exact from raw samples when
        retained, the binned estimate otherwise.  For inference about
        the underlying distribution use :attr:`sample_std`; the two were
        previously conflated (``summary_stats`` and the parametric
        fitter both read this attribute, each assuming a different
        estimator), so both are now explicit."""
        return self._std

    @property
    def sample_std(self) -> float:
        """**Sample** standard deviation (ddof=1): the unbiased-variance
        estimator of the underlying spread, the form every CI and
        stopping rule is defined against.  Exact from raw samples when
        retained; otherwise the binned population estimate scaled by
        ``sqrt(n/(n-1))``.  0.0 when a single sample makes it
        inestimable."""
        if self.n <= 1:
            return 0.0
        if self._samples is not None and len(self._samples) > 1:
            return float(np.std(self._samples, ddof=1))
        return self._std * math.sqrt(self.n / (self.n - 1))

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    @property
    def samples(self) -> np.ndarray | None:
        """The raw samples, when retained."""
        return self._samples

    @property
    def nbins(self) -> int:
        return len(self.counts)

    @property
    def degenerate(self) -> bool:
        """True when the recorded support is a single point (every
        sample identical).  ``from_samples`` widens the lone bin's edges
        by an epsilon so it has positive width; queries must not leak
        that widening back out as jitter on the constant."""
        return self._min == self._max

    def _total(self) -> float:
        """Total mass, guarded: a histogram whose counts were zeroed
        after construction (in-place mutation, a hand-rolled
        ``__setstate__`` payload) used to surface as a cryptic
        divide-by-zero ``RuntimeWarning`` and NaN curves downstream;
        fail loudly at the query instead."""
        total = float(self._cum[-1]) if len(self._cum) else 0.0
        if total <= 0:
            raise ValueError(
                "histogram has zero total mass -- its counts were emptied "
                "after construction; pdf/cdf/ks_distance are undefined"
            )
        return total

    def pdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(bin centres, probability density) -- the curves of Figures 3-4.

        Raises :class:`ValueError` on a zero-mass histogram instead of
        dividing by zero.
        """
        total = self._total()
        widths = np.diff(self.edges)
        centres = 0.5 * (self.edges[:-1] + self.edges[1:])
        density = self.counts / (total * widths)
        return centres, density

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges[1:], cumulative probability).  Raises on zero mass."""
        return self.edges[1:], self._cum / self._total()

    def quantile(self, q: float) -> float:
        """Inverse CDF with linear interpolation inside bins (or, when raw
        samples are retained, over the sorted samples -- exact and fast via
        a cached sort)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.degenerate:
            return self._min
        if self._samples is not None:
            srt = self._sorted
            if srt is None:
                srt = self._sorted = np.sort(self._samples)
            pos = q * (len(srt) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(srt) - 1)
            frac = pos - lo
            return float(srt[lo] * (1.0 - frac) + srt[hi] * frac)
        cum = self._cum
        total = cum[-1]
        target = q * total
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, len(self.counts) - 1)
        prev = cum[idx - 1] if idx > 0 else 0.0
        inbin = self.counts[idx]
        frac = 0.0 if inbin == 0 else (target - prev) / inbin
        lo, hi = self.edges[idx], self.edges[idx + 1]
        return float(lo + frac * (hi - lo))

    def ks_distance(self, other: "Histogram") -> float:
        """Kolmogorov-Smirnov distance between two distributions: the
        largest CDF gap over the union of their supports.  Used by the
        campaign-comparison tooling to say not just how much slower a
        configuration is but how differently it *behaves*.  Raises on a
        zero-mass histogram (either side)."""
        self._total()
        other._total()
        lo = min(self.min, other.min)
        hi = max(self.max, other.max)
        if hi <= lo:
            return 0.0
        xs = np.linspace(lo, hi, 512)

        def cdf_at(hist, points):
            cum = hist._cum
            total = cum[-1]
            idx = np.searchsorted(hist.edges, points, side="right") - 1
            out = np.empty_like(points)
            below = idx < 0
            above = idx >= len(hist.counts)
            mid = ~(below | above)
            out[below] = 0.0
            out[above] = 1.0
            i = idx[mid]
            prev = np.where(i > 0, cum[np.maximum(i - 1, 0)], 0.0)
            width = hist.edges[i + 1] - hist.edges[i]
            frac = (points[mid] - hist.edges[i]) / width
            out[mid] = (prev + frac * hist.counts[i]) / total
            return out

        return float(np.max(np.abs(cdf_at(self, xs) - cdf_at(other, xs))))

    def quantiles(self, qs: np.ndarray) -> np.ndarray:
        """Vectorised inverse CDF (see :meth:`quantile`) for an array of
        probabilities.  Delegates to the compiled :meth:`icdf` table, so
        repeated calls pay one gather, not per-call table setup."""
        return self.icdf()(np.asarray(qs, dtype=float))

    def icdf(self):
        """The compiled inverse-CDF: a callable mapping an array of
        probabilities in ``[0, 1]`` to quantile values, bit-identical to
        :meth:`quantiles`.

        Every per-call constant -- the sorted-sample table and its
        scale, or the cumulative-count table -- is bound once, so a draw
        is a single multiply + gather(+lerp) instead of a table rebuild.
        PEVPM's draws use the binned form through
        ``DistributionDB.cell`` for histograms without retained samples;
        the DB's flat table reproduces the other two forms bit for bit.
        Compiled lazily and cached; never pickled (a clone recompiles on
        first use).
        """
        f = self._icdf
        if f is not None:
            return f
        if self.degenerate:
            const = self._min

            def f(qs):
                return np.full(np.shape(qs), const)
        elif self._samples is not None:
            srt = self._sorted
            if srt is None:
                srt = self._sorted = np.sort(self._samples)
            scale = len(srt) - 1
            nmax = len(srt) - 1

            def f(qs):
                pos = qs * scale
                lo = pos.astype(int)
                hi = np.minimum(lo + 1, nmax)
                frac = pos - lo
                return srt[lo] * (1.0 - frac) + srt[hi] * frac
        else:
            cum = self._cum
            total = cum[-1]
            counts = self.counts
            edges_lo = self.edges[:-1]
            edges_hi = self.edges[1:]
            last = len(counts) - 1

            def f(qs):
                target = qs * total
                idx = np.minimum(
                    np.searchsorted(cum, target, side="left"), last
                )
                prev = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
                inbin = counts[idx]
                frac = np.where(
                    inbin > 0,
                    (target - prev) / np.where(inbin > 0, inbin, 1.0),
                    0.0,
                )
                lo = edges_lo[idx]
                hi = edges_hi[idx]
                return lo + frac * (hi - lo)
        self._icdf = f
        return f

    # -- pickling ---------------------------------------------------------------
    # Histograms pickle inside pickled DBs and timing models; the
    # compiled inverse-CDF is a closure (unpicklable) and cheap to
    # rebuild, so it is dropped from the pickled state.
    def __getstate__(self):
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_icdf"
        }

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)
        self._icdf = None

    def tail_mass(self, threshold: float) -> float:
        """Fraction of samples above *threshold* -- used to quantify the
        RTO outlier clusters of Figure 4."""
        if self._samples is not None:
            return float(np.mean(self._samples > threshold))
        idx = np.searchsorted(self.edges, threshold, side="left")
        if idx <= 0:
            return 1.0
        if idx > len(self.counts):
            return 0.0
        # Whole bins above, plus a partial bin containing the threshold.
        above = self.counts[idx:].sum()
        binlo, binhi = self.edges[idx - 1], self.edges[idx]
        frac = (binhi - threshold) / (binhi - binlo)
        above += self.counts[idx - 1] * np.clip(frac, 0.0, 1.0)
        return float(above / self.counts.sum())

    # -- sampling --------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the *binned* distribution (inverse CDF, uniform within
        the bin).

        This is intentionally the binned -- not the raw-sample -- form:
        PEVPM's inputs are histograms, and the binning granularity is part
        of the method's error budget (Section 6).
        """
        # One shared inverse-CDF implementation; the scalar form is the
        # n=1 vector draw (identical stream consumption: Generator.random()
        # and Generator.random(1) advance the bit stream the same way).
        n = 1 if size is None else size
        if self.degenerate:
            # Every recorded sample was the same value: return it
            # exactly instead of jitter inside the epsilon-widened bin.
            # Both uniform draws are still consumed so the caller's RNG
            # stream stays aligned with the non-degenerate path.
            rng.random(n)
            rng.random(n)
            const = self._min
            return const if size is None else np.full(n, const)
        u = rng.random(n) * self._cum[-1]
        idx = np.minimum(
            np.searchsorted(self._cum, u, side="right"), len(self.counts) - 1
        )
        lo = self.edges[idx]
        hi = self.edges[idx + 1]
        values = lo + rng.random(n) * (hi - lo)
        return float(values[0]) if size is None else values

    # -- combination -------------------------------------------------------------------
    def merge(self, other: "Histogram") -> "Histogram":
        """Pool two histograms (e.g. per-rank sample sets) into one.

        Requires retained samples on both (exact pooling); re-bins to the
        larger bin count of the two.
        """
        if self._samples is None or other._samples is None:
            raise ValueError("merge requires retained samples on both histograms")
        pooled = np.concatenate([self._samples, other._samples])
        return Histogram.from_samples(pooled, bins=max(self.nbins, other.nbins))

    # -- persistence --------------------------------------------------------------------
    def to_dict(self, include_samples: bool = False) -> dict:
        d = {
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "mean": self._mean,
            "std": self._std,
            "min": self._min,
            "max": self._max,
        }
        if include_samples and self._samples is not None:
            d["samples"] = self._samples.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Histogram":
        """Decode a :meth:`to_dict` document.  Raises ``ValueError`` on
        non-finite edges, counts or samples (JSON readers accept
        ``NaN``, which would pass the ordering checks and turn every
        draw into ``nan``)."""
        edges = np.asarray(d["edges"], dtype=float)
        counts = np.asarray(d["counts"], dtype=float)
        samples = d.get("samples")
        if samples is not None:
            samples = np.asarray(samples, dtype=float)
        arrays = {"edges": edges, "counts": counts, "samples": samples}
        for name, values in arrays.items():
            if values is not None and not np.all(np.isfinite(values)):
                raise ValueError(f"histogram {name} must be finite")
        return cls(
            edges,
            counts,
            mean=d.get("mean"),
            std=d.get("std"),
            vmin=d.get("min"),
            vmax=d.get("max"),
            samples=samples,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram n={self.n} bins={self.nbins} "
            f"mean={self.mean:.3g} min={self.min:.3g} max={self.max:.3g}>"
        )
