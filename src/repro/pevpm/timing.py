"""Timing models: where PEVPM gets its operation times from.

The paper's headline methodological claim (Figure 6) is a comparison of
*timing sources* inside the same virtual machine:

* sampling from full probability **distributions**, conditioned on message
  size and current contention (the accurate method);
* using **average** times -- from a 2x1 ping-pong benchmark (what other
  tools provide) or from a contention-matched n x p benchmark;
* using **minimum** times (ideal, contention-free);
* a **parametric** variant sampling from fitted standard functions
  (Section 2's "parametrised functions to model the PDFs");
* a **Hockney** ``T = l + b/W`` analytic model (Section 3's common
  approximation), fitted from benchmark data by :mod:`repro.models.hockney`.

Every model answers two questions for the virtual machine:

* :meth:`~TimingModel.one_way_time` -- time from send initiation to
  receive completion (what MPIBench's synchronised clock measures);
* :meth:`~TimingModel.local_send_time` -- how long the *sender* is busy in
  the send call (measured by MPIBench as ``isend_local``).
"""

from __future__ import annotations

import abc
import hashlib
import pickle

import numpy as np

from ..mpibench.distfit import ParametricFit, fit_samples
from ..mpibench.results import DistributionDB

__all__ = [
    "TimingModel",
    "DistributionTiming",
    "AverageTiming",
    "MinimumTiming",
    "ParametricTiming",
    "HockneyTiming",
    "clamp_times",
    "timing_from_db",
]

ONEWAY_OP = "isend"
LOCAL_OP = "isend_local"


def clamp_times(value):
    """Clamp sampled operation times to be non-negative.

    Fitted parametric tails (and histogram bins widened around a
    degenerate support) can dip marginally below zero; a communication
    time cannot.  Accepts a scalar or an ``(n,)`` vector draw and
    preserves the input's form.
    """
    if isinstance(value, np.ndarray):
        return np.maximum(value, 0.0)
    return value if value > 0.0 else 0.0


class TimingModel(abc.ABC):
    """Source of operation times for the virtual parallel machine."""

    #: short name used in reports / figure legends
    name: str = "timing"

    @abc.abstractmethod
    def one_way_time(
        self, size: int, contention: int, rng: np.random.Generator,
        intra: bool = False,
    ) -> float:
        """Send-initiation to receive-completion time for one message.

        *intra* marks intra-node (shared-memory) messages, which live on a
        different time scale than wire messages."""

    @abc.abstractmethod
    def local_send_time(
        self, size: int, contention: int, rng: np.random.Generator,
        intra: bool = False,
    ) -> float:
        """Time the sending process is occupied by the send call."""

    # -- batch API (the vectorised virtual machine's hot path) ------------------
    #
    # ``one_way_times``/``local_send_times`` answer the same questions as
    # their scalar forms but for *n* Monte Carlo runs at once, returning
    # an ``(n,)`` vector.  The defaults loop over the scalar methods so
    # every model supports batching; data-driven subclasses override with
    # genuinely vectorised draws.  Batch draws consume the generator's
    # bit stream differently from the scalar path -- batch-mode
    # evaluation defines its own seed-stream convention (see DESIGN.md).

    def one_way_times(
        self, size: int, contention: int, rng: np.random.Generator,
        n: int, intra: bool = False,
    ) -> np.ndarray:
        """One-way times for *n* runs at one (size, contention) point."""
        return np.array([
            self.one_way_time(size, contention, rng, intra=intra)
            for _ in range(n)
        ])

    def local_send_times(
        self, size: int, contention: int, rng: np.random.Generator,
        n: int, intra: bool = False,
    ) -> np.ndarray:
        """Local send occupancies for *n* runs at once."""
        return np.array([
            self.local_send_time(size, contention, rng, intra=intra)
            for _ in range(n)
        ])

    def draw_block(
        self, specs: list[tuple], rng: np.random.Generator, n: int,
    ) -> np.ndarray:
        """Every draw of one engine phase as a ``(len(specs), n)`` array.

        Row *i* answers ``specs[i] = (op, size, contention, intra)``,
        *op* being :data:`ONEWAY_OP` (``one_way_times``) or
        :data:`LOCAL_OP` (``local_send_times``).  The rows, and the state
        *rng* is left in, are exactly those of one batch call per spec in
        order -- which is what this default does.
        """
        out = np.empty((len(specs), n))
        for i, (op, size, contention, intra) in enumerate(specs):
            draw = self.one_way_times if op == ONEWAY_OP else self.local_send_times
            out[i] = draw(size, contention, rng, n, intra=intra)
        return out

    def reset(self) -> None:
        """Discard any cached sampling state.  Called by the virtual
        machine at the start of every run so that identical (seed, model)
        evaluations draw identical samples regardless of what was sampled
        before."""

    def _fingerprint_state(self):
        """Model-specific identity beyond the class and name; subclasses
        return whatever determines the times they produce (fitted
        parameters, the backing database, ...)."""
        return None

    def fingerprint(self) -> str:
        """Stable content hash identifying the times this model produces.

        Used to key the on-disk prediction cache: two models with the
        same fingerprint are interchangeable as timing sources.
        """
        state = (type(self).__qualname__, self.name, self._fingerprint_state())
        try:
            blob = pickle.dumps(state, protocol=4)
        except Exception:
            blob = repr(state).encode()
        return hashlib.sha256(blob).hexdigest()

    def serialisation_gap(self, size: int, intra: bool = False) -> float:
        """Minimum spacing between successive messages through one NIC.

        The virtual machine uses this to model back-to-back sends from (or
        arrivals at) a single process: an MPI_Send returns once the data is
        buffered, but the NIC drains at wire speed, so the *next* message
        cannot depart until this one has.  Data-driven implementations
        derive it from contention-free benchmarks as
        ``min_one_way(size) - min_one_way(smallest size)`` -- the size-
        dependent part of the minimum time is exactly the serialisation.
        The default (no information) is zero.
        """
        return 0.0


class _DbGapMixin:
    """Shared data-driven serialisation-gap estimate for DB-backed models.

    Uses the contention-free (smallest) benchmark configuration: the
    minimum one-way time as a function of size is latency plus wire
    serialisation, so its increase over the smallest measured size is the
    per-message NIC occupancy.  Linear interpolation between measured
    sizes; cached per size.
    """

    db: DistributionDB
    _gap_cache: dict

    def _fingerprint_state(self):
        return (self.db.fingerprint(), getattr(self, "fixed_contention", None))

    def serialisation_gap(self, size: int, intra: bool = False) -> float:
        cache = getattr(self, "_gap_cache", None)
        if cache is None:
            cache = self._gap_cache = {}
        gap = cache.get((size, intra))
        if gap is None:
            nodes, ppn = self.db.nearest_config(ONEWAY_OP, 2, intra=intra)
            result = self.db.result(ONEWAY_OP, nodes, ppn)
            sizes = result.sizes
            base = result.histograms[sizes[0]].min
            lo, hi = self.db.bracketing_sizes(ONEWAY_OP, size, nodes, ppn)
            mlo = result.histograms[lo].min
            mhi = result.histograms[hi].min
            if hi == lo:
                m = mlo
            else:
                w = (size - lo) / (hi - lo)
                m = (1.0 - w) * mlo + w * mhi
            gap = clamp_times(m - base)
            cache[(size, intra)] = gap
        return gap


class DistributionTiming(_DbGapMixin, TimingModel):
    """Sample from MPIBench histograms, contention-aware (the PEVPM way).

    *fixed_contention* pins the benchmark configuration regardless of the
    scoreboard (used for the '2x1 distribution' ablation); ``None`` means
    use the live contention level.

    Every draw -- the scalar buffered path, the vectorised batch methods
    and :meth:`draw_block` alike -- resolves its (op, size, contention,
    intra) cell to a cached inverse-CDF lookup table
    (:meth:`~repro.mpibench.results.DistributionDB.make_sampler`) bound
    once per cell: a draw is one uniform batch plus one or two table
    gathers, bit-identical to the uncached arithmetic.
    """

    #: initial draws pre-sampled per (op, size, contention) key; PEVPM
    #: consumes millions of samples per study, so batching the
    #: inverse-CDF work matters (see the eval-cost benchmark).  Each
    #: refill doubles the key's buffer up to :attr:`BATCH_MAX`, so hot
    #: keys amortise towards pure vectorised sampling while one-shot
    #: keys (a single barrier message) never over-draw.
    BATCH = 64
    BATCH_MAX = 8192

    def __init__(
        self,
        db: DistributionDB,
        fixed_contention: int | None = None,
        pattern: str = "pairs",
    ):
        self.db = db
        self.fixed_contention = fixed_contention
        self.name = (
            "dist-nxp" if fixed_contention is None else f"dist-{fixed_contention}"
        )
        # Pattern-matched sampling: a model of neighbour-local code can ask
        # for ring-pattern distributions ("isend:ring") when the DB has
        # them; fall back to the default pairs pattern otherwise.
        self._oneway_op = ONEWAY_OP
        self._local_op = LOCAL_OP
        if pattern != "pairs":
            self.name += f"-{pattern}"
            candidate = f"{ONEWAY_OP}:{pattern}"
            if candidate in db.ops():
                self._oneway_op = candidate
                self._local_op = f"{LOCAL_OP}:{pattern}"
        self._buffers: dict[tuple, tuple] = {}

    def _contention(self, contention: int) -> int:
        return self.fixed_contention if self.fixed_contention is not None else contention

    def reset(self) -> None:
        self._buffers.clear()

    def _draw(self, op, size, contention, rng, intra):
        c = self._contention(contention)
        # Key on the raw contention level (it determines the benchmark
        # config deterministically) to keep the hot path free of config
        # lookups.
        key = (op, size, c, intra)
        buf = self._buffers.get(key)
        if buf is None or buf[1] >= len(buf[0]):
            batch = (
                self.BATCH
                if buf is None
                else min(2 * len(buf[0]), self.BATCH_MAX)
            )
            values = self.db.sample_times(op, size, c, rng, batch, intra=intra)
            buf = [values, 0]
            self._buffers[key] = buf
        value = float(buf[0][buf[1]])
        buf[1] += 1
        return value

    def one_way_time(self, size, contention, rng, intra=False):
        return self._draw(self._oneway_op, size, contention, rng, intra)

    def local_send_time(self, size, contention, rng, intra=False):
        return self._draw(self._local_op, size, contention, rng, intra)

    # Batch draws go straight to the vectorised DB sampler: exactly *n*
    # inverse-CDF draws, no per-key buffers (the buffers exist to amortise
    # scalar calls; a batch call is already amortised).
    def one_way_times(self, size, contention, rng, n, intra=False):
        return clamp_times(self.db.sample_times(
            self._oneway_op, size, self._contention(contention), rng, n,
            intra=intra,
        ))

    def local_send_times(self, size, contention, rng, n, intra=False):
        return clamp_times(self.db.sample_times(
            self._local_op, size, self._contention(contention), rng, n,
            intra=intra,
        ))

    def draw_block(self, specs, rng, n):
        # Generator.random fills float64s in stream order, so one (k, n)
        # block holds the uniforms of k successive (n,) draws; rows that
        # share a sampler then go through its tables together.
        u = rng.random((len(specs), n))
        oneway, local = self._oneway_op, self._local_op
        fixed = self.fixed_contention
        make = self.db.make_sampler
        groups: dict = {}
        for i, (op, size, contention, intra) in enumerate(specs):
            sampler = make(
                oneway if op == ONEWAY_OP else local, size,
                contention if fixed is None else fixed, intra,
            )
            rows = groups.get(sampler)
            if rows is None:
                groups[sampler] = [i]
            else:
                rows.append(i)
        if len(groups) == 1:
            out = next(iter(groups)).quantiles(u)
        else:
            out = np.empty_like(u)
            for sampler, rows in groups.items():
                if len(rows) == 1:  # a plain row index skips the gather
                    out[rows[0]] = sampler.quantiles(u[rows[0]])
                else:
                    out[rows] = sampler.quantiles(u[rows])
        # Every quantiles() result is a fresh array, so clamp in place.
        return np.maximum(out, 0.0, out=out)


class AverageTiming(_DbGapMixin, TimingModel):
    """Use mean times -- what conventional benchmarks offer (Figure 6's
    'avg' ablations).  *fixed_contention* = 2 models ping-pong data;
    setting it to the job's process count models 'avg n x p' data."""

    def __init__(self, db: DistributionDB, fixed_contention: int = 2):
        self.db = db
        self.fixed_contention = fixed_contention
        self.name = f"avg-{fixed_contention}"

    def one_way_time(self, size, contention, rng, intra=False):
        return self.db.mean_time(ONEWAY_OP, size, self.fixed_contention, intra=intra)

    def local_send_time(self, size, contention, rng, intra=False):
        return self.db.mean_time(LOCAL_OP, size, self.fixed_contention, intra=intra)

    def one_way_times(self, size, contention, rng, n, intra=False):
        return np.full(n, self.one_way_time(size, contention, rng, intra=intra))

    def local_send_times(self, size, contention, rng, n, intra=False):
        return np.full(n, self.local_send_time(size, contention, rng, intra=intra))


class MinimumTiming(_DbGapMixin, TimingModel):
    """Use minimum (contention-free) times -- the most optimistic source."""

    def __init__(self, db: DistributionDB, fixed_contention: int = 2):
        self.db = db
        self.fixed_contention = fixed_contention
        self.name = f"min-{fixed_contention}"

    def one_way_time(self, size, contention, rng, intra=False):
        return self.db.min_time(ONEWAY_OP, size, self.fixed_contention, intra=intra)

    def local_send_time(self, size, contention, rng, intra=False):
        return self.db.min_time(LOCAL_OP, size, self.fixed_contention, intra=intra)

    def one_way_times(self, size, contention, rng, n, intra=False):
        return np.full(n, self.one_way_time(size, contention, rng, intra=intra))

    def local_send_times(self, size, contention, rng, n, intra=False):
        return np.full(n, self.local_send_time(size, contention, rng, intra=intra))


class ParametricTiming(_DbGapMixin, TimingModel):
    """Sample from standard functions fitted to the measured histograms.

    Cheaper to store than histograms and smooth in the tails; fits are
    computed lazily per (op, config, size) and cached.
    """

    def __init__(self, db: DistributionDB, fixed_contention: int | None = None):
        self.db = db
        self.fixed_contention = fixed_contention
        self.name = "parametric"
        self._fits: dict[tuple, ParametricFit] = {}

    def _fit(self, op: str, size: int, contention: int, intra: bool = False) -> ParametricFit:
        c = self.fixed_contention if self.fixed_contention is not None else contention
        nodes, ppn = self.db.nearest_config(op, max(2, c), intra=intra)
        lo, hi = self.db.bracketing_sizes(op, size, nodes, ppn)
        nearest = lo if abs(size - lo) <= abs(hi - size) else hi
        key = (op, nodes, ppn, nearest)
        fit = self._fits.get(key)
        if fit is None:
            hist = self.db.result(op, nodes, ppn).histograms[nearest]
            if hist.samples is None:
                raise ValueError(
                    "ParametricTiming needs histograms with retained samples"
                )
            fit = fit_samples(hist.samples)
            self._fits[key] = fit
        return fit

    def one_way_time(self, size, contention, rng, intra=False):
        return clamp_times(self._fit(ONEWAY_OP, size, contention, intra).sample(rng))

    def local_send_time(self, size, contention, rng, intra=False):
        return clamp_times(self._fit(LOCAL_OP, size, contention, intra).sample(rng))

    def one_way_times(self, size, contention, rng, n, intra=False):
        return clamp_times(
            self._fit(ONEWAY_OP, size, contention, intra).sample(rng, size=n)
        )

    def local_send_times(self, size, contention, rng, n, intra=False):
        return clamp_times(
            self._fit(LOCAL_OP, size, contention, intra).sample(rng, size=n)
        )


class HockneyTiming(TimingModel):
    """The analytic ``T = l + b/W`` model of Section 3.

    Deterministic and contention-blind: the classic textbook approximation
    that PEVPM's distribution sampling is shown to beat.  *send_fraction*
    is the share of the one-way time the sender is occupied for (the local
    overhead of an eager send).
    """

    def __init__(self, latency: float, bandwidth: float, send_fraction: float = 0.3):
        if latency < 0 or bandwidth <= 0:
            raise ValueError("need latency >= 0 and bandwidth > 0")
        if not 0.0 <= send_fraction <= 1.0:
            raise ValueError("send_fraction must be in [0, 1]")
        self.latency = latency
        self.bandwidth = bandwidth
        self.send_fraction = send_fraction
        self.name = "hockney"

    def _fingerprint_state(self):
        return (self.latency, self.bandwidth, self.send_fraction)

    def one_way_time(self, size, contention, rng, intra=False):
        return self.latency + size / self.bandwidth

    def local_send_time(self, size, contention, rng, intra=False):
        return self.send_fraction * self.one_way_time(size, contention, rng)

    def one_way_times(self, size, contention, rng, n, intra=False):
        return np.full(n, self.one_way_time(size, contention, rng, intra=intra))

    def local_send_times(self, size, contention, rng, n, intra=False):
        return np.full(n, self.local_send_time(size, contention, rng, intra=intra))

    def serialisation_gap(self, size, intra=False):
        return 0.0 if intra else size / self.bandwidth


def timing_from_db(
    db: DistributionDB,
    mode: str = "distribution",
    source: str = "nxp",
    nprocs: int | None = None,
) -> TimingModel:
    """Build the timing model for one of the paper's Figure 6 variants.

    *mode* in {"distribution", "average", "minimum", "parametric"};
    *source* "nxp" (contention-matched benchmarks) or "2x1" (ping-pong).
    For fixed-source averages of an n x p run, pass the job's *nprocs*.
    """
    if source not in ("nxp", "2x1"):
        raise ValueError(f"unknown source {source!r}")
    if source == "2x1":
        fixed = 2
    elif mode == "distribution" or mode == "parametric":
        fixed = None  # live scoreboard contention
    else:
        if nprocs is None:
            raise ValueError("average/minimum n x p timing needs nprocs")
        fixed = nprocs
    if mode == "distribution":
        return DistributionTiming(db, fixed_contention=fixed)
    if mode == "average":
        return AverageTiming(db, fixed_contention=fixed if fixed is not None else 2)
    if mode == "minimum":
        return MinimumTiming(db, fixed_contention=fixed if fixed is not None else 2)
    if mode == "parametric":
        return ParametricTiming(db, fixed_contention=fixed)
    raise ValueError(f"unknown timing mode {mode!r}")
