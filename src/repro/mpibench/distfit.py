"""Parametrised fits to measured timing distributions.

Section 2 of the paper: "It is also possible to use parametrised functions
to model the PDFs, based on fits to the histograms using standard
functions."  Communication-time distributions have a hard left edge (the
contention-free minimum) and a right skew, so the natural families are the
*shifted* (three-parameter) gamma and lognormal.  This module fits both by
maximum likelihood (via :mod:`scipy.stats`), scores them with the
Kolmogorov-Smirnov statistic, and wraps the winner in a sampler that can
stand in for a histogram as a PEVPM timing source.

scipy is imported where a fit is made or used, not when this module
loads: importing it takes about a second, and most processes that load
the package (``repro`` commands, service shards) never fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .histogram import Histogram

__all__ = ["ParametricFit", "fit_histogram", "fit_samples"]


_FAMILIES = ("gamma", "lognorm")


def _family(name: str):
    """The scipy distribution of a fit family."""
    if name not in _FAMILIES:
        raise KeyError(name)
    from scipy import stats

    return getattr(stats, name)


@dataclass(frozen=True)
class ParametricFit:
    """A fitted standard distribution, usable as a sampling source.

    *family* is ``"gamma"`` or ``"lognorm"``; *params* the scipy shape
    parameters ``(shape, loc, scale)``; *ks* the Kolmogorov-Smirnov
    distance between fit and data (smaller is better).
    """

    family: str
    params: tuple
    ks: float
    n: int

    @property
    def frozen(self):
        """The frozen scipy distribution object."""
        return _family(self.family)(*self.params)

    @property
    def mean(self) -> float:
        return float(self.frozen.mean())

    @property
    def std(self) -> float:
        return float(self.frozen.std())

    @property
    def support_min(self) -> float:
        """The fitted location (left edge) -- the contention-free bound."""
        return float(self.params[-2])

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw from the fitted distribution."""
        out = self.frozen.rvs(size=1 if size is None else size, random_state=rng)
        return float(out[0]) if size is None else out

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.frozen.pdf(x)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": list(self.params),
            "ks": self.ks,
            "n": self.n,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ParametricFit":
        return cls(
            family=d["family"], params=tuple(d["params"]), ks=d["ks"], n=d["n"]
        )


def fit_samples(samples: np.ndarray, families: tuple[str, ...] = ("gamma", "lognorm")) -> ParametricFit:
    """Fit each candidate family to raw samples; return the best by KS.

    The location parameter is constrained to lie below the sample minimum
    (a communication time cannot undercut the contention-free bound).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < 8:
        raise ValueError("need at least 8 samples for a meaningful fit")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("samples must be finite and non-negative")
    spread = float(arr.max() - arr.min())
    if spread == 0.0:
        # Degenerate data: a point mass; represent as a vanishingly narrow
        # gamma at the observed value.
        loc = float(arr.min())
        return ParametricFit(
            family="gamma", params=(1.0, loc, max(loc, 1.0) * 1e-12),
            ks=0.0, n=arr.size,
        )

    from scipy import stats

    best: ParametricFit | None = None
    for name in families:
        dist = _family(name)
        # Anchor the left edge slightly below the observed minimum: the
        # distributions "rise from a bounded minimum time", and fixing the
        # location makes the remaining two-parameter MLE stable (free-loc
        # fits of shifted gamma/lognormal are notoriously ill-conditioned).
        loc = float(arr.min()) - 0.01 * spread
        try:
            params = dist.fit(arr, floc=loc)
        except Exception:  # scipy fit can fail on pathological data
            continue
        if not np.all(np.isfinite(params)):
            continue
        ks = float(stats.kstest(arr, dist.name, args=params).statistic)
        fit = ParametricFit(family=name, params=tuple(map(float, params)), ks=ks, n=arr.size)
        if best is None or fit.ks < best.ks:
            best = fit
    if best is None:
        raise RuntimeError("no distribution family produced a valid fit")
    return best


def fit_histogram(hist: Histogram, families: tuple[str, ...] = ("gamma", "lognorm")) -> ParametricFit:
    """Fit a histogram's underlying samples (requires retained samples)."""
    if hist.samples is None:
        raise ValueError("fit_histogram requires a histogram with raw samples")
    return fit_samples(hist.samples, families=families)
