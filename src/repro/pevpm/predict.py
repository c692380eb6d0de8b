"""High-level prediction API: Monte Carlo evaluation and speedups.

"The PEVPM approach is like a Monte Carlo simulation of performance, and
the number of [runs] can be chosen so that the statistical error in the
mean is negligibly small" (Section 6).  :func:`predict` evaluates a model
several times with independent random streams and aggregates; helpers
compute speedups (for Figure 6) and compare the paper's timing-source
variants side by side.

A stopping rule decides each evaluation's run count.  A fixed ``runs``
is the one-round rule; a :class:`~repro.stats.PrecisionTarget` extends
the runs in doubling rounds until the mean is precise enough.  Every
entry point, and the prediction service, evaluates through
:func:`evaluate_with_precision`, which runs every Monte Carlo run (and
the ``proc_counts`` / timing-mode axes of the helpers) in the caller's
process, each run on its own ``SeedSequence`` stream.  Pass
``cache_dir`` to reuse finished evaluations across calls and processes.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..cas import ContentStore
from ..stats import PrecisionTarget, achieved_rse, next_total
from ..stats.ci import ConfidenceInterval, mean_ci
from .machine import MachineResult
from .parallel import (
    VECTOR_BATCH,
    RunGroup,
    as_seed_sequence,
    evaluate_groups,
    keyed_batch,
    run_seeds,
)
from .timing import TimingModel, timing_from_db
from .trace import LossReport

__all__ = [
    "Prediction",
    "PredictionCache",
    "AdaptiveResult",
    "build_prediction",
    "prediction_from_doc",
    "draws_as_fixed",
    "evaluate_with_precision",
    "precision_doc",
    "predict",
    "prediction_key",
    "predict_speedups",
    "compare_timing_modes",
]


@dataclass
class Prediction:
    """Aggregated Monte Carlo prediction for one (model, nprocs, timing)."""

    nprocs: int
    timing_name: str
    times: list[float]  #: predicted completion time of each MC run
    results: list[MachineResult] = field(repr=False, default_factory=list)
    wall_time: float = 0.0  #: host seconds spent evaluating (the paper's cost metric)
    run_walls: list[float] = field(default_factory=list)  #: host seconds per MC run
    cached: bool = False  #: True when served from the on-disk cache
    #: adaptive-evaluation provenance (``None`` for fixed-``runs``):
    #: the precision target, per-round totals/RSE, and whether the
    #: stopping rule converged before the run cap.
    precision: dict | None = None

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times))

    @property
    def std_time(self) -> float:
        """Population standard deviation (ddof=0) of the run times --
        the spread of the Monte Carlo sample itself."""
        return float(np.std(self.times))

    @property
    def sample_std(self) -> float:
        """Sample standard deviation (ddof=1) -- the estimator of the
        underlying spread that inference (stderr, CIs, stopping rules)
        must use.  0.0 when fewer than two runs make it inestimable."""
        if len(self.times) <= 1:
            return 0.0
        return float(np.std(self.times, ddof=1))

    @property
    def stderr(self) -> float:
        """Standard error of the mean: sample std over sqrt(n).

        Uses ddof=1 (the population form underestimates it) and returns
        0.0 -- not NaN, not a ZeroDivisionError -- for empty or
        single-run predictions, where the error is simply inestimable.
        """
        n = len(self.times)
        if n <= 1:
            return 0.0
        return self.sample_std / n ** 0.5

    def ci(self, level: float = 0.95) -> ConfidenceInterval:
        """Normal-theory confidence interval on the mean prediction --
        what the sequential stopping rule tests against its target."""
        return mean_ci(self.times, level)

    @property
    def rse(self) -> float:
        """Relative standard error: stderr over |mean| (0.0 when
        inestimable or the mean is 0 with no spread)."""
        err = self.stderr
        if err == 0.0:
            return 0.0
        mean = self.mean_time
        return float("inf") if mean == 0.0 else err / abs(mean)

    @property
    def runs(self) -> int:
        return len(self.times)

    def speedup(self, serial_time: float) -> float:
        """Predicted speedup relative to a one-process time."""
        if serial_time <= 0:
            raise ValueError("serial_time must be positive")
        return serial_time / self.mean_time

    @property
    def simulated_per_wall(self) -> float:
        """Simulated processor-seconds evaluated per host wall second --
        the paper's '67.5 times its actual execution speed' metric
        (which counts all processors' time)."""
        if self.wall_time <= 0:
            return float("inf")
        total_proc_seconds = sum(self.times) * self.nprocs
        return total_proc_seconds / self.wall_time

    @property
    def mean_run_wall(self) -> float:
        """Mean host seconds per Monte Carlo run (0 when unknown)."""
        if not self.run_walls:
            return 0.0
        return float(np.mean(self.run_walls))

    @property
    def max_run_wall(self) -> float:
        """Slowest single run's host seconds (a batched chunk's runs each
        carry an equal share of the chunk's wall)."""
        if not self.run_walls:
            return 0.0
        return float(np.max(self.run_walls))

    def loss_report(self) -> LossReport | None:
        """Attribution for the last run, when it was traced."""
        last = self.results[-1] if self.results else None
        if last is None or last.trace is None:
            return None
        return LossReport(last.trace, last.elapsed, self.nprocs)


def build_prediction(group: RunGroup, outcomes, wall: float) -> Prediction:
    """Aggregate one group's :class:`~repro.pevpm.parallel.RunOutcome`
    list into a :class:`Prediction` -- the entry point shared by
    :func:`predict` and the prediction service's micro-batcher (which
    evaluates a batch per :func:`evaluate_with_precision` call and
    builds each request's prediction separately)."""
    return Prediction(
        nprocs=group.nprocs,
        timing_name=group.timing.name,
        times=[o.elapsed for o in outcomes],
        results=[o.result for o in outcomes],
        wall_time=wall,
        run_walls=[o.wall for o in outcomes],
    )


def prediction_from_doc(doc: dict) -> Prediction:
    """Rehydrate a cached prediction document (the JSON form stored by
    :class:`PredictionCache` and the service's in-memory tier) into a
    :class:`Prediction`, with its ``precision`` block when it has one."""
    return Prediction(
        nprocs=int(doc.get("nprocs", 0)),
        timing_name=str(doc.get("timing", "")),
        times=[float(t) for t in doc["times"]],
        results=[],
        wall_time=0.0,
        run_walls=[float(w) for w in doc.get("run_walls", [])],
        cached=True,
        precision=doc.get("precision"),
    )


def prediction_doc(group: RunGroup, pred: Prediction) -> dict:
    """The JSON-able cache document for one finished evaluation
    (inverse of :func:`prediction_from_doc`)."""
    return {
        "times": pred.times,
        "run_walls": pred.run_walls,
        "nprocs": group.nprocs,
        "timing": group.timing.name,
    }


# -- the prediction cache -------------------------------------------------------
class PredictionCache(ContentStore):
    """Finished evaluations (:func:`prediction_doc`), one
    ``predict-<key>.json`` per :func:`prediction_key`; safe to delete
    wholesale.  A non-object document is corrupt; one of another
    :attr:`VERSION`, or with no ``times`` list (an older adaptive
    pointer entry), is a plain miss that the next put replaces."""

    VERSION = 5

    def __init__(self, root):
        super().__init__(root, "predict-{}.json", self._decode)

    def _decode(self, key: str, doc) -> dict | None:
        if not isinstance(doc, dict):
            raise ValueError("cache entry is not a JSON object")
        if doc.get("version") != self.VERSION or not isinstance(
            doc.get("times"), list
        ):
            return None
        return doc

    def put(self, key: str, doc: dict) -> int:
        return super().put(key, dict(doc, version=self.VERSION))


def prediction_key(
    group: RunGroup, precision: PrecisionTarget | None = None
) -> str | None:
    """Content fingerprint of one group's evaluation (the cache key).

    The chunk size is keyed as :func:`~repro.pevpm.parallel.keyed_batch`
    records it.  With *precision* it keys an adaptive evaluation: the
    target replaces ``runs``, which the stopping rule decides.  ``None``
    when the model and params do not pickle: nothing else identifies a
    program's content (a closure's ``repr`` is its memory address, which
    CPython reuses), so such a group is never read from or written to
    the cache.
    """
    try:
        model_blob = pickle.dumps((group.model, group.params), protocol=4)
    except Exception:
        return None
    ident = {
        "v": PredictionCache.VERSION,
        "nprocs": group.nprocs,
        "timing": group.timing.fingerprint(),
        "seed": [str(group.seed.entropy), list(group.seed.spawn_key)],
        "runs": group.runs,
        "nic": group.nic_serialisation,
        "ppn": group.ppn,
        "vbatch": keyed_batch(group.runs, group.vector_batch),
    }
    if precision is not None:
        ident["runs"] = None
        ident["vbatch"] = keyed_batch(None, group.vector_batch)
        ident["precision"] = dict(sorted(precision.to_doc().items()))
    elif group.run_offset:  # zero offsets omit the field: older keys stay stable
        ident["offset"] = group.run_offset
    h = hashlib.sha256()
    h.update(model_blob)
    h.update(json.dumps(ident, sort_keys=True).encode())
    return h.hexdigest()


# -- evaluation under a stopping rule -------------------------------------------
@dataclass
class AdaptiveResult:
    """One group's evaluation: outcomes plus the stopping rule's trail.

    A fixed-``runs`` group (a ``None`` target) evaluates whole in the
    first round: its ``rounds`` is empty and ``converged`` is True.
    """

    outcomes: list  #: run-ordered RunOutcomes, length = runs spent
    rounds: list[dict]  #: per-round {"runs", "added", "rse", "wall"}
    converged: bool  #: target met (False: stopped at the run cap)
    wall: float  #: host seconds attributed to this group

    @property
    def runs(self) -> int:
        return len(self.outcomes)


class _AdaptiveState:
    """Progress of one group through its stopping rule (a ``None``
    target is the one-round rule of a fixed run count)."""

    def __init__(self, group: RunGroup, target: PrecisionTarget | None):
        if target is not None:
            if group.run_offset:
                raise ValueError("adaptive groups must start at run_offset 0")
            if group.trace_last:
                raise ValueError(
                    "trace_last is incompatible with adaptive evaluation "
                    "(the last run is not known until the rule stops)"
                )
        self.group = group
        self.target = target
        self.outcomes: list = []
        self.rounds: list[dict] = []
        self.done = 0
        self.wall = 0.0
        self.converged = False

    def next_increment(self) -> RunGroup | None:
        """The next refinement slice, or ``None`` when finished."""
        if self.converged:
            return None
        if self.target is None:
            return self.group
        if self.done >= self.target.max_runs:
            return None
        total = next_total(self.done, self.target, self.group.vector_batch)
        if total <= self.done:
            return None
        return replace(self.group, runs=total - self.done, run_offset=self.done)

    def absorb(self, increment: RunGroup, outcomes, wall_share: float) -> None:
        self.outcomes.extend(outcomes)
        self.done += increment.runs
        self.wall += wall_share
        if self.target is None:
            self.converged = True
            return
        times = [o.elapsed for o in self.outcomes]
        rse = achieved_rse(times, self.target.level)
        self.converged = self.target.satisfied(times)
        self.rounds.append({
            "runs": self.done,
            "added": increment.runs,
            "rse": None if rse == float("inf") else rse,
            "wall": wall_share,
        })

    def result(self) -> AdaptiveResult:
        return AdaptiveResult(
            outcomes=self.outcomes,
            rounds=self.rounds,
            converged=self.converged,
            wall=self.wall,
        )


def evaluate_with_precision(
    pairs: list[tuple[RunGroup, PrecisionTarget | None]],
) -> list[AdaptiveResult]:
    """Evaluate each ``(group, target)`` pair under its stopping rule.

    A ``None`` target is a fixed run count: the group evaluates whole in
    the first round.  A :class:`~repro.stats.PrecisionTarget` extends its
    group in doubling increments until the target or ``max_runs`` is
    met.  Each round issues **one** :func:`evaluate_groups` call
    covering every unfinished group's next increment, so the service's
    batch-mates share each round's call.  Increments extend each group's
    seed streams at absolute run indices (``run_offset``), and every
    scheduled total is chunk-aligned, so a group stopping at N runs has
    drawn exactly what a one-shot ``runs=N`` evaluation would --
    bit-identical times (the Hypothesis property
    ``tests/pevpm/test_adaptive_predict.py`` pins).

    Returns one :class:`AdaptiveResult` per pair.  Each round's wall
    time is attributed to its groups in proportion to the host cost of
    their own runs.
    """
    states = [_AdaptiveState(group, target) for group, target in pairs]
    while True:
        active = [(st, st.next_increment()) for st in states]
        active = [(st, inc) for st, inc in active if inc is not None]
        if not active:
            break
        t0 = _time.perf_counter()
        per = evaluate_groups([inc for _, inc in active])
        wall = _time.perf_counter() - t0
        total_w = sum(o.wall for outs in per for o in outs) or 1.0
        for (st, inc), outs in zip(active, per):
            st.absorb(inc, outs, wall * sum(o.wall for o in outs) / total_w)
    return [st.result() for st in states]


def precision_doc(target: PrecisionTarget, result: AdaptiveResult) -> dict:
    """The JSON-able adaptive-provenance block riding on predictions."""
    return {
        "target": target.to_doc(),
        "converged": result.converged,
        "achieved_rse": result.rounds[-1]["rse"] if result.rounds else None,
        "rounds": result.rounds,
    }


def _evaluate_predictions(
    pairs: list[tuple[RunGroup, PrecisionTarget | None]], cache_dir
) -> list[Prediction]:
    """Serve each ``(group, target)`` pair from the cache when possible;
    evaluate the rest (the misses of *all* pairs in one
    :func:`evaluate_with_precision` call) and persist their results.
    The evaluation path of every entry point: it rejects a fixed group
    of fewer than one run.

    Each result is stored under its own :func:`prediction_key`.  An
    adaptive result's document carries its ``precision`` block there.
    When a ``runs=N`` call at the run count it spent draws the same
    chunks (:func:`draws_as_fixed`), it is stored again without the
    block under that call's key, which then hits it.
    """
    if any(target is None and group.runs < 1 for group, target in pairs):
        raise ValueError("runs must be >= 1")
    cache = PredictionCache(cache_dir) if cache_dir is not None else None
    preds: list[Prediction | None] = [None] * len(pairs)
    keys: list[str | None] = [None] * len(pairs)
    misses: list[int] = []
    for i, (group, target) in enumerate(pairs):
        # Traced runs carry MachineResult/TraceRecorder state the JSON
        # cache does not hold -- always evaluate those live.
        key = keys[i] = (
            None if cache is None or group.trace_last
            else prediction_key(group, target)
        )
        doc = None if key is None else cache.get(key)
        if doc is None:
            misses.append(i)
        else:
            preds[i] = prediction_from_doc(doc)
    results = evaluate_with_precision([pairs[i] for i in misses])
    for i, result in zip(misses, results):
        group, target = pairs[i]
        pred = preds[i] = build_prediction(group, result.outcomes, result.wall)
        if target is not None:
            pred.precision = precision_doc(target, result)
        if keys[i] is None:
            continue
        doc = prediction_doc(group, pred)
        if target is not None:
            if draws_as_fixed(result.runs, group.vector_batch):
                cache.put(prediction_key(replace(group, runs=result.runs)), doc)
            doc = dict(doc, precision=pred.precision)
        cache.put(keys[i], doc)
    return preds  # type: ignore[return-value]


def _resolve_precision(
    precision: PrecisionTarget | None,
    target_rse: float | None,
    min_runs: int,
    max_runs: int,
) -> PrecisionTarget | None:
    """Fold the convenience ``target_rse=`` form into a PrecisionTarget."""
    if target_rse is None:
        return precision
    if precision is not None:
        raise ValueError("give either precision or target_rse, not both")
    return PrecisionTarget(rse=target_rse, min_runs=min_runs, max_runs=max_runs)


def draws_as_fixed(runs: int, vector_batch: int) -> bool:
    """Whether *runs* runs in chunks of *vector_batch* draw exactly what
    a fixed ``predict(runs=runs)`` call draws, which chunks at
    ``VECTOR_BATCH``: only then is an adaptive result that spent *runs*
    also that call's answer (for a ``min_runs`` chunk, when the
    stopping rule stopped at its first total)."""
    return keyed_batch(runs, vector_batch) == keyed_batch(runs, VECTOR_BATCH)


def _vector_batch(target: PrecisionTarget | None) -> int:
    """Chunk size for a group under *target*: the default chunk for a
    fixed run count; for a precision target its first scheduled total,
    so the refinement increment *is* one chunk and a loose target can
    stop after ``min_runs`` instead of a full default chunk of 64."""
    return VECTOR_BATCH if target is None else target.min_runs


def predict(
    model,
    nprocs: int,
    timing: TimingModel,
    runs: int = 5,
    seed: int | np.random.SeedSequence = 0,
    params: dict | None = None,
    trace_last: bool = False,
    nic_serialisation: str = "tx",
    ppn: int = 1,
    cache_dir=None,
    vector_runs: bool = False,
    precision: PrecisionTarget | None = None,
    target_rse: float | None = None,
    min_runs: int = 4,
    max_runs: int = 256,
) -> Prediction:
    """Evaluate *model* (directive Block or program callable) *runs* times.

    Run *i* uses child stream *i* of ``SeedSequence(seed)``, so results
    are independent across runs and fixed by the seed.  Evaluation runs
    in the caller's process; more cores serve more requests through
    ``repro serve --shards N``.  ``cache_dir`` enables the on-disk
    prediction cache for models that pickle (:func:`prediction_key`);
    the last run can be traced for loss attribution (which bypasses the
    cache).

    The model is compiled once (:mod:`repro.pevpm.compile`) and its
    shape picks the engine.  A static program runs on the batched
    virtual machine (:mod:`repro.pevpm.vector`): all runs of a
    fixed-size chunk advance in one sweep/match pass with vectorised
    timing draws.  A program whose
    structure is timing-dependent (a wildcard receive with racing
    senders, detected at compile time) runs run by run on the per-run
    engine.  Tracing the last run never changes the times.
    ``vector_runs`` selects nothing; it is accepted because ``bench/``
    still passes it.

    **Adaptive mode**: pass ``precision=PrecisionTarget(...)`` (or the
    shorthand ``target_rse=0.01``) and the run count is decided by the
    sequential stopping rule instead of ``runs`` -- evaluation proceeds
    in doubling increments until the mean's CI half-width meets the
    target or ``max_runs`` is reached.  Adaptive groups chunk at
    ``min_runs`` (a loose target can then stop after the first chunk
    rather than a full default chunk), and increments continue each
    run's seed stream at its absolute index, so an adaptive evaluation
    that stops at N runs is bit-identical to N runs in chunks of
    ``min_runs`` with the same seed -- to ``runs=N`` itself when N is at
    most ``min_runs``.  The resulting :class:`Prediction` carries its
    decision trail in ``.precision``.  Incompatible with ``trace_last``
    (the last run is unknown until the rule stops).
    """
    target = _resolve_precision(precision, target_rse, min_runs, max_runs)
    group = RunGroup(
        model=model,
        nprocs=nprocs,
        timing=timing,
        seed=as_seed_sequence(seed),
        runs=runs,
        params=params,
        trace_last=trace_last,
        nic_serialisation=nic_serialisation,
        ppn=ppn,
        vector_batch=_vector_batch(target),
    )
    return _evaluate_predictions([(group, target)], cache_dir)[0]


def predict_speedups(
    model_factory: Callable[[int], object],
    proc_counts: list[int],
    timing_factory: Callable[[int], TimingModel],
    serial_time: float,
    runs: int = 5,
    seed: int | np.random.SeedSequence = 0,
    params: dict | None = None,
    ppn: int = 1,
    cache_dir=None,
    precision: PrecisionTarget | None = None,
    target_rse: float | None = None,
    min_runs: int = 4,
    max_runs: int = 256,
) -> dict[int, float]:
    """Speedup curve across machine sizes (the Figure 6 x-axis).

    *model_factory(nprocs)* builds the model for each size (symbolic
    models just return the same Block); *timing_factory(nprocs)* builds
    the timing source (average-n x p models depend on nprocs).  Each
    machine size gets its own child seed stream, so the points are
    statistically independent.

    With ``precision``/``target_rse`` set, every size stops at its own
    adaptive total: small machines (low variance) spend few runs, large
    contended ones spend more -- the curve reaches uniform *relative*
    precision instead of uniform spend.
    """
    target = _resolve_precision(precision, target_rse, min_runs, max_runs)
    root = as_seed_sequence(seed)
    children = run_seeds(root, len(proc_counts))
    groups = [
        RunGroup(
            model=model_factory(nprocs),
            nprocs=nprocs,
            timing=timing_factory(nprocs),
            seed=child,
            runs=runs,
            params=params,
            ppn=ppn,
            vector_batch=_vector_batch(target),
        )
        for nprocs, child in zip(proc_counts, children)
    ]
    preds = _evaluate_predictions([(g, target) for g in groups], cache_dir)
    return {
        nprocs: pred.speedup(serial_time)
        for nprocs, pred in zip(proc_counts, preds)
    }


def compare_timing_modes(
    model,
    nprocs: int,
    db,
    modes: list[tuple[str, str]] | None = None,
    runs: int = 5,
    seed: int | np.random.SeedSequence = 0,
    params: dict | None = None,
    nic_serialisation: str = "tx",
    ppn: int = 1,
    cache_dir=None,
    precision: PrecisionTarget | None = None,
    target_rse: float | None = None,
    min_runs: int = 4,
    max_runs: int = 256,
) -> dict[str, Prediction]:
    """Run the paper's Figure 6 ablation at one machine size.

    *modes* is a list of (mode, source) pairs; defaults to the paper's
    four: distribution sampling vs. min/avg ping-pong vs. avg n x p.
    Every mode reuses the same seed streams (a paired comparison: the
    ablation differs only in timing source, not in random draws).

    ``precision``/``target_rse`` makes each mode stop at its own
    adaptive total -- the deterministic modes (min/avg ping-pong draw no
    randomness per op) converge immediately at ``min_runs`` while the
    distribution-sampling mode spends what its variance demands.
    """
    target = _resolve_precision(precision, target_rse, min_runs, max_runs)
    modes = modes or [
        ("distribution", "nxp"),
        ("average", "2x1"),
        ("minimum", "2x1"),
        ("average", "nxp"),
    ]
    root = as_seed_sequence(seed)
    groups = [
        RunGroup(
            model=model,
            nprocs=nprocs,
            timing=timing_from_db(db, mode=mode, source=source, nprocs=nprocs),
            seed=root,
            runs=runs,
            params=params,
            nic_serialisation=nic_serialisation,
            ppn=ppn,
            vector_batch=_vector_batch(target),
        )
        for mode, source in modes
    ]
    preds = _evaluate_predictions([(g, target) for g in groups], cache_dir)
    return {
        f"{mode}-{source}": pred
        for (mode, source), pred in zip(modes, preds)
    }
