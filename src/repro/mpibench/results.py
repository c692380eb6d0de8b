"""Benchmark results and the distribution database.

A :class:`BenchmarkResult` holds the histograms from one benchmark run
(one operation on one n x p configuration).  A :class:`DistributionDB`
aggregates results across configurations and is the hand-off artefact from
MPIBench to PEVPM: PEVPM's match phase asks it for the distribution of an
operation at a given message size *and contention level*, exactly as the
paper describes ("These probability distributions are a function of
message size and the total number of messages on the scoreboard").

Lookup semantics:

* configuration: the benchmark config whose total process count is nearest
  to the requested contention level (in log-space, since configs are
  typically powers of two);
* message size: either the nearest measured size, or quantile-space
  interpolation between the two bracketing sizes (``interpolate=True``),
  which samples ``u ~ U(0,1)`` once and blends the two inverse CDFs.

Everything serialises to JSON so a benchmark campaign can be saved and
reloaded without re-simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .histogram import Histogram

__all__ = ["BenchmarkResult", "DistributionDB"]


class _CellSampler:
    """A fully-resolved sampling cell: the compiled inverse-CDF table(s)
    for one (op, size, contention, intra) lookup, plus the precomputed
    size-interpolation blend weights.

    Calling it draws *n* times with a single uniform batch and one or two
    table gathers -- no dict probes, no histogram dispatch.  Built by
    :meth:`DistributionDB.make_sampler`, bit-identical to the historical
    ``sample_times`` arithmetic (the blend uses a precomputed ``1.0 - w``,
    which is the same float the old expression produced per call).
    """

    __slots__ = ("_flo", "_fhi", "_w", "_one_minus_w")

    def __init__(self, flo, fhi=None, w: float = 0.0):
        self._flo = flo
        self._fhi = fhi
        self._w = w
        self._one_minus_w = 1.0 - w

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        """The cell's times at uniform draws *u* (any shape).  Every step
        is element-wise, so a ``(k, n)`` block gives exactly the rows k
        separate ``(n,)`` calls would."""
        if self._fhi is None:
            return self._flo(u)
        return self._one_minus_w * self._flo(u) + self._w * self._fhi(u)

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.quantiles(rng.random(n))


@dataclass
class BenchmarkResult:
    """All histograms from one (operation, nodes x ppn) benchmark run."""

    op: str  #: e.g. "isend", "bcast", "barrier"
    nodes: int
    ppn: int
    cluster: str  #: spec name, e.g. "perseus"
    histograms: dict[int, Histogram]  #: message size -> distribution
    reps: int = 0
    seed: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def nprocs(self) -> int:
        return self.nodes * self.ppn

    @property
    def label(self) -> str:
        """The paper's n x p curve label, e.g. ``64x2``."""
        return f"{self.nodes}x{self.ppn}"

    @property
    def sizes(self) -> list[int]:
        return sorted(self.histograms)

    def mean_curve(self) -> list[tuple[int, float]]:
        """(size, mean time) series -- one line of Figure 1/2."""
        return [(s, self.histograms[s].mean) for s in self.sizes]

    def min_curve(self) -> list[tuple[int, float]]:
        """(size, min time) series -- the paper's ``min`` curve."""
        return [(s, self.histograms[s].min) for s in self.sizes]

    def to_dict(self, include_samples: bool = False) -> dict:
        return {
            "op": self.op,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "cluster": self.cluster,
            "reps": self.reps,
            "seed": self.seed,
            "metadata": self.metadata,
            "histograms": {
                str(size): h.to_dict(include_samples=include_samples)
                for size, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkResult":
        return cls(
            op=d["op"],
            nodes=d["nodes"],
            ppn=d["ppn"],
            cluster=d["cluster"],
            reps=d.get("reps", 0),
            seed=d.get("seed", 0),
            metadata=d.get("metadata", {}),
            histograms={
                int(size): Histogram.from_dict(h)
                for size, h in d["histograms"].items()
            },
        )


class DistributionDB:
    """Queryable store of benchmark distributions across configurations."""

    def __init__(self, cluster: str = ""):
        self.cluster = cluster
        #: set by :meth:`freeze`: the DB is registered somewhere that
        #: caches by its fingerprint, so further mutation must fail
        self._frozen = False
        #: op -> {(nodes, ppn) -> BenchmarkResult}
        self._results: dict[str, dict[tuple[int, int], BenchmarkResult]] = {}
        # Lookup caches (PEVPM samples millions of times per study):
        # nearest-config and size-bracketing resolution, the fused
        # (op, size, contention) -> (result, lo, hi) hot-path lookup,
        # and scalar mean/min stats for the Figure 6 ablations.
        self._nearest_cache: dict[tuple, tuple[int, int]] = {}
        self._bracket_cache: dict[tuple, tuple[int, int]] = {}
        self._locate_cache: dict[tuple, tuple[BenchmarkResult, int, int]] = {}
        self._stat_cache: dict[tuple, float] = {}
        # (op, size, contention, intra) -> _CellSampler: the compiled
        # inverse-CDF tables PEVPM's hot path draws through.  Holds
        # closures, so it is dropped on pickle (see __getstate__).
        self._sampler_cache: dict[tuple, _CellSampler] = {}
        # (op, nodes, ppn, lo, hi, w) -> _CellSampler: lookup cells that
        # resolve to the same tables share one sampler object, so a
        # block draw can group its rows by sampler.
        self._cell_cache: dict[tuple, _CellSampler] = {}
        self._fingerprint: str | None = None

    # -- population --------------------------------------------------------------
    def add(self, result: BenchmarkResult) -> None:
        if self._frozen:
            raise RuntimeError(
                "DistributionDB is frozen (registered under its content "
                "fingerprint); build a new DB instead of mutating this one"
            )
        if not result.histograms:
            raise ValueError("refusing to add an empty BenchmarkResult")
        if self.cluster and result.cluster != self.cluster:
            raise ValueError(
                f"result from cluster {result.cluster!r} does not belong in "
                f"a DB for {self.cluster!r}"
            )
        if not self.cluster:
            self.cluster = result.cluster
        self._results.setdefault(result.op, {})[(result.nodes, result.ppn)] = result
        self._nearest_cache.clear()
        self._bracket_cache.clear()
        self._locate_cache.clear()
        self._stat_cache.clear()
        self._sampler_cache.clear()
        self._cell_cache.clear()
        self._fingerprint = None

    def ops(self) -> list[str]:
        return sorted(self._results)

    def configs(self, op: str) -> list[tuple[int, int]]:
        """(nodes, ppn) configurations measured for *op*."""
        return sorted(self._results.get(op, {}))

    def result(self, op: str, nodes: int, ppn: int) -> BenchmarkResult:
        try:
            return self._results[op][(nodes, ppn)]
        except KeyError:
            raise KeyError(
                f"no benchmark for op={op!r} config {nodes}x{ppn}; "
                f"have {self.configs(op)}"
            ) from None

    # -- lookup ---------------------------------------------------------------------
    def _configs_for(self, op: str, intra: bool) -> list[tuple[int, int]]:
        """Configurations relevant to intra-node (single-node benchmark)
        or inter-node (multi-node) messages, falling back to everything
        when no dedicated measurements exist."""
        configs = self.configs(op)
        if not configs:
            raise KeyError(f"no benchmarks recorded for op {op!r}")
        if intra:
            picked = [c for c in configs if c[0] == 1]
        else:
            picked = [c for c in configs if c[0] > 1]
        return picked or configs

    def nearest_config(self, op: str, nprocs: int, intra: bool = False) -> tuple[int, int]:
        """Config whose total process count is nearest *nprocs* (log-space).

        With ``intra=True``, only single-node (shared-memory) benchmark
        configurations are considered -- intra-node messages have an
        entirely different time scale than wire messages."""
        key = (op, nprocs, intra)
        cached = self._nearest_cache.get(key)
        if cached is not None:
            return cached
        configs = self._configs_for(op, intra)
        target = math.log(max(1, nprocs))
        best = min(configs, key=lambda c: abs(math.log(c[0] * c[1]) - target))
        self._nearest_cache[key] = best
        return best

    def histogram(
        self, op: str, size: int, nodes: int, ppn: int
    ) -> Histogram:
        """Exact-config lookup with nearest measured size."""
        lo, hi = self.bracketing_sizes(op, size, nodes, ppn)
        nearest = lo if abs(size - lo) <= abs(hi - size) else hi
        return self.result(op, nodes, ppn).histograms[nearest]

    def _locate(
        self, op: str, size: int, contention: int, intra: bool
    ) -> tuple[BenchmarkResult, int, int]:
        """Fused hot-path lookup: the benchmark result matching the
        contention level plus the bracketing measured sizes.  One dict
        probe per sampling call instead of three."""
        key = (op, size, contention, intra)
        hit = self._locate_cache.get(key)
        if hit is None:
            nodes, ppn = self.nearest_config(op, max(2, contention), intra=intra)
            lo, hi = self.bracketing_sizes(op, size, nodes, ppn)
            hit = (self.result(op, nodes, ppn), lo, hi)
            self._locate_cache[key] = hit
        return hit

    def bracketing_sizes(
        self, op: str, size: int, nodes: int, ppn: int
    ) -> tuple[int, int]:
        """The two measured sizes bracketing *size* (equal at the ends)."""
        key = (op, size, nodes, ppn)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        sizes = self.result(op, nodes, ppn).sizes
        below = [s for s in sizes if s <= size]
        above = [s for s in sizes if s >= size]
        lo = max(below) if below else min(sizes)
        hi = min(above) if above else max(sizes)
        self._bracket_cache[key] = (lo, hi)
        return lo, hi

    def sample_time(
        self,
        op: str,
        size: int,
        contention: int,
        rng: np.random.Generator,
        interpolate: bool = True,
        intra: bool = False,
    ) -> float:
        """Draw one operation time -- PEVPM's match-phase primitive.

        *contention* is the number of messages on the scoreboard (PEVPM's
        contention level); it selects the benchmark configuration whose
        process count is nearest, since a benchmark with P communicating
        processes keeps ~P messages in flight.  *intra* selects the
        shared-memory (single-node) measurements.
        """
        result, lo, hi = self._locate(op, size, contention, intra)
        if not interpolate or lo == hi:
            nearest = lo if abs(size - lo) <= abs(hi - size) else hi
            return float(result.histograms[nearest].sample(rng))
        # Quantile-space interpolation between the bracketing sizes.
        w = (size - lo) / (hi - lo)
        u = float(rng.random())
        qlo = result.histograms[lo].quantile(u)
        qhi = result.histograms[hi].quantile(u)
        return float((1.0 - w) * qlo + w * qhi)

    def make_sampler(
        self, op: str, size: int, contention: int, intra: bool = False
    ) -> _CellSampler:
        """The compiled sampler for one lookup cell.

        Resolves the contention->configuration and size-bracketing
        lookups once and binds the bracketing histograms' inverse-CDF
        tables (:meth:`Histogram.icdf`) with the interpolation weight, so
        every subsequent draw is a uniform batch plus one or two
        gathers.  Cached per (op, size, contention, intra); lookups that
        resolve to the same configuration, bracketing sizes and blend
        weight return the *same* sampler object.  Invalidated by
        :meth:`add`."""
        key = (op, size, contention, intra)
        sampler = self._sampler_cache.get(key)
        if sampler is None:
            result, lo, hi = self._locate(op, size, contention, intra)
            w = 0.0 if lo == hi else (size - lo) / (hi - lo)
            cell = (op, result.nodes, result.ppn, lo, hi, w)
            sampler = self._cell_cache.get(cell)
            if sampler is None:
                if lo == hi:
                    sampler = _CellSampler(result.histograms[lo].icdf())
                else:
                    sampler = _CellSampler(
                        result.histograms[lo].icdf(),
                        result.histograms[hi].icdf(),
                        w,
                    )
                self._cell_cache[cell] = sampler
            self._sampler_cache[key] = sampler
        return sampler

    def sample_times(
        self,
        op: str,
        size: int,
        contention: int,
        rng: np.random.Generator,
        n: int,
        intra: bool = False,
    ) -> np.ndarray:
        """Vectorised version of :meth:`sample_time`: *n* independent
        draws at once (quantile-space size interpolation included).
        Delegates to the cached :meth:`make_sampler` cell, consuming the
        RNG stream exactly as the uncached form did."""
        return self.make_sampler(op, size, contention, intra)(rng, n)

    def _stat_time(self, stat: str, op: str, size: int, contention: int, intra: bool) -> float:
        key = (stat, op, size, contention, intra)
        value = self._stat_cache.get(key)
        if value is None:
            result, lo, hi = self._locate(op, size, contention, intra)
            nearest = lo if abs(size - lo) <= abs(hi - size) else hi
            value = getattr(result.histograms[nearest], stat)
            self._stat_cache[key] = value
        return value

    def describe(
        self,
        op: str,
        size: int,
        contention: int,
        intra: bool = False,
        quantiles: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99),
    ) -> dict:
        """JSON-able summary of the distribution a lookup would sample.

        This is the prediction service's ``/distributions`` query path:
        it reports which benchmark configuration the contention level
        resolved to, the measured sizes bracketing the request, and the
        nearest size's histogram statistics and quantiles -- everything a
        client needs to understand (and reproduce) what PEVPM would draw
        from, without shipping the raw histogram.
        """
        result, lo, hi = self._locate(op, size, contention, intra)
        nearest = lo if abs(size - lo) <= abs(hi - size) else hi
        hist = result.histograms[nearest]
        return {
            "op": op,
            "cluster": self.cluster,
            "requested_size": size,
            "contention": contention,
            "intra": bool(intra),
            "config": result.label,
            "nodes": result.nodes,
            "ppn": result.ppn,
            "bracketing_sizes": [lo, hi],
            "nearest_size": nearest,
            "samples": hist.n,
            "bins": hist.nbins,
            "mean": hist.mean,
            "std": hist.std,
            "sample_std": hist.sample_std,
            "min": hist.min,
            "max": hist.max,
            "quantiles": {f"{q:g}": hist.quantile(q) for q in quantiles},
            "db_fingerprint": self.fingerprint(),
        }

    def mean_time(self, op: str, size: int, contention: int, intra: bool = False) -> float:
        """Average-time lookup (the 'avg' ablation of Figure 6)."""
        return self._stat_time("mean", op, size, contention, intra)

    def min_time(self, op: str, size: int, contention: int, intra: bool = False) -> float:
        """Minimum-time lookup (the 'min' ablation of Figure 6)."""
        return self._stat_time("min", op, size, contention, intra)

    # -- identity ---------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "DistributionDB":
        """Make this DB immutable: any further :meth:`add` raises.

        Anything that caches or addresses a DB by its
        :meth:`fingerprint` -- the distribution registry, the served
        request keys -- relies on the content behind that fingerprint
        never changing.  ``add()`` clears the fingerprint cache, so a
        mutated DB would silently serve different times under a key
        minted for the old content; freezing turns that hazard into an
        immediate error.  Idempotent; returns ``self`` for chaining.
        """
        self._frozen = True
        return self

    def fingerprint(self) -> str:
        """Stable content hash of the distributions this DB serves.

        Summarises every histogram by its shape and moments rather than
        hashing raw samples, so the digest is cheap (microseconds, cached
        until :meth:`add` invalidates it) yet changes whenever a lookup
        could return different times.  Used to key the PEVPM on-disk
        prediction cache.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(self.cluster.encode())
            for op in self.ops():
                for (nodes, ppn) in self.configs(op):
                    result = self._results[op][(nodes, ppn)]
                    h.update(f"{op}:{nodes}x{ppn}:{result.reps}:{result.seed}".encode())
                    for size in result.sizes:
                        hist = result.histograms[size]
                        h.update(
                            (
                                f"{size}:{hist.n}:{hist.nbins}:{hist.mean!r}:"
                                f"{hist.std!r}:{hist.min!r}:{hist.max!r}"
                            ).encode()
                        )
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- pickling ---------------------------------------------------------------------
    # The DB ships to prediction-pool workers by pickle; the sampler
    # cache holds compiled closures (unpicklable, cheap to rebuild), so
    # it travels empty and each worker recompiles its cells on first use.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_sampler_cache"] = {}
        state["_cell_cache"] = {}
        return state

    # -- persistence -------------------------------------------------------------------
    def to_doc(self, include_samples: bool = True) -> dict:
        """The whole DB as one JSON-able document (what :meth:`save`
        writes and the registry's content-addressed store keeps)."""
        return {
            "cluster": self.cluster,
            "results": [
                r.to_dict(include_samples=include_samples)
                for per_op in self._results.values()
                for r in per_op.values()
            ],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DistributionDB":
        """Rebuild a DB from a :meth:`to_doc` document.

        Raises ``ValueError``/``KeyError``/``TypeError`` on a malformed
        document -- the registry's upload path maps those to HTTP 400.
        """
        if not isinstance(doc, dict):
            raise ValueError("distribution document must be a JSON object")
        results = doc.get("results")
        if not isinstance(results, list) or not results:
            raise ValueError(
                "distribution document needs a non-empty 'results' list"
            )
        db = cls(cluster=doc.get("cluster", ""))
        for rd in results:
            db.add(BenchmarkResult.from_dict(rd))
        return db

    def save(self, path: str | Path, include_samples: bool = True) -> None:
        """Write the whole DB as JSON."""
        Path(path).write_text(
            json.dumps(self.to_doc(include_samples=include_samples))
        )

    @classmethod
    def load(cls, path: str | Path) -> "DistributionDB":
        return cls.from_doc(json.loads(Path(path).read_text()))

    def __len__(self) -> int:
        return sum(len(v) for v in self._results.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DistributionDB cluster={self.cluster!r} results={len(self)}>"
