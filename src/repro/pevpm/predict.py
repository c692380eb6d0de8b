"""High-level prediction API: Monte Carlo evaluation and speedups.

"The PEVPM approach is like a Monte Carlo simulation of performance, and
the number of [runs] can be chosen so that the statistical error in the
mean is negligibly small" (Section 6).  :func:`predict` evaluates a model
several times with independent random streams and aggregates; helpers
compute speedups (for Figure 6) and compare the paper's timing-source
variants side by side.

All entry points route through :mod:`repro.pevpm.parallel`: Monte Carlo
runs (and the ``proc_counts`` / timing-mode axes of the helpers) fan out
over a process pool when ``workers`` allows, with per-run
``SeedSequence`` streams keeping serial and parallel evaluation
bit-identical for the same seed.  Pass ``cache_dir`` to reuse finished
evaluations across calls and processes.
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
        """Slowest single run's host seconds -- the parallel critical path."""
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
    evaluates many groups per :func:`~repro.pevpm.parallel.evaluate_groups`
    call and builds each request's prediction separately)."""
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
    :class:`Prediction`."""
    return Prediction(
        nprocs=int(doc.get("nprocs", 0)),
        timing_name=str(doc.get("timing", "")),
        times=[float(t) for t in doc["times"]],
        results=[],
        wall_time=0.0,
        run_walls=[float(w) for w in doc.get("run_walls", [])],
        cached=True,
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
    wholesale.  A non-object document is corrupt, one of another
    :attr:`VERSION` a plain miss."""

    VERSION = 5

    def __init__(self, root):
        super().__init__(root, "predict-{}.json", self._decode)

    def _decode(self, key: str, doc) -> dict | None:
        if not isinstance(doc, dict):
            raise ValueError("cache entry is not a JSON object")
        return doc if doc.get("version") == self.VERSION else None

    def put(self, key: str, doc: dict) -> int:
        return super().put(key, dict(doc, version=self.VERSION))


def prediction_key(group: RunGroup, precision: PrecisionTarget | None = None) -> str:
    """Content fingerprint of one group's evaluation (the cache key).

    The chunk size is keyed as :func:`~repro.pevpm.parallel.keyed_batch`
    records it.  With *precision* it is the key of an adaptive request's
    pointer entry: the target replaces ``runs``, which the stopping rule
    decides.
    """
    try:
        model_blob = pickle.dumps((group.model, group.params), protocol=4)
    except Exception:
        model_blob = repr((group.model, group.params)).encode()
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


def _evaluate_predictions(
    groups: list[RunGroup],
    workers: int | None,
    cache_dir,
) -> list[Prediction]:
    """Serve each group from the cache when possible; evaluate the rest
    (misses of *all* groups share one pool) and persist their results."""
    cache = PredictionCache(cache_dir) if cache_dir is not None else None
    preds: list[Prediction | None] = [None] * len(groups)
    keys: list[str | None] = [None] * len(groups)
    misses: list[int] = []
    for i, group in enumerate(groups):
        # Traced runs carry MachineResult/TraceRecorder state the JSON
        # cache does not hold -- always evaluate those live.
        if cache is None or group.trace_last:
            misses.append(i)
            continue
        key = keys[i] = prediction_key(group)
        doc = cache.get(key)
        if doc is not None:
            preds[i] = prediction_from_doc(doc)
        else:
            misses.append(i)
    if misses:
        t0 = _time.perf_counter()
        outcomes = evaluate_groups([groups[i] for i in misses], workers=workers)
        wall = _time.perf_counter() - t0
        for i, group_outcomes in zip(misses, outcomes):
            # Attribute the shared pool's wall time to each group by its
            # own runs' host cost (exact when serial; proportional under
            # the pool).
            own = sum(o.wall for o in group_outcomes)
            total = sum(o.wall for per in outcomes for o in per) or 1.0
            preds[i] = build_prediction(groups[i], group_outcomes, wall * own / total)
            if cache is not None and keys[i] is not None:
                cache.put(keys[i], prediction_doc(groups[i], preds[i]))
    return preds  # type: ignore[return-value]


# -- adaptive (precision-targeted) evaluation ---------------------------------
@dataclass
class AdaptiveResult:
    """One group's adaptive evaluation: outcomes plus the decision trail."""

    outcomes: list  #: run-ordered RunOutcomes, length = runs spent
    rounds: list[dict]  #: per-round {"runs", "added", "rse", "wall"}
    converged: bool  #: target met (False: stopped at the run cap)
    wall: float  #: host seconds attributed to this group

    @property
    def runs(self) -> int:
        return len(self.outcomes)


class _AdaptiveState:
    """Progress of one group through the sequential stopping rule."""

    def __init__(self, group: RunGroup, target: PrecisionTarget):
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
        if self.converged or self.done >= self.target.max_runs:
            return None
        total = next_total(self.done, self.target, self.group.vector_batch)
        if total <= self.done:
            return None
        return replace(self.group, runs=total - self.done, run_offset=self.done)

    def absorb(self, increment: RunGroup, outcomes, wall_share: float) -> None:
        self.outcomes.extend(outcomes)
        self.done += increment.runs
        self.wall += wall_share
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
    fixed_groups: list[RunGroup],
    adaptive_pairs: list[tuple[RunGroup, PrecisionTarget]],
    workers: int | None = None,
    on_rebuild: Callable[[int], None] | None = None,
) -> tuple[list[list], list[float], list[AdaptiveResult]]:
    """Round-based evaluation mixing fixed and adaptive groups.

    Each round issues **one** :func:`evaluate_groups` call covering every
    adaptive group's next increment (fixed groups join the first round),
    so concurrent refinements share the pool and the micro-batcher's
    coalescing just as fixed batches do.  Increments extend each group's
    seed streams at absolute run indices (``run_offset``), and every
    scheduled total is chunk-aligned, so a group stopping at N runs has
    drawn exactly what a one-shot ``runs=N`` evaluation would --
    bit-identical times (the Hypothesis property
    ``tests/pevpm/test_adaptive_predict.py`` pins).

    Returns ``(fixed_outcomes, fixed_walls, adaptive_results)``; wall
    time of each round's shared pool is attributed proportionally to the
    host cost of each group's own runs, as in fixed evaluation.
    """
    states = [_AdaptiveState(g, t) for g, t in adaptive_pairs]
    fixed_out: list[list | None] = [None] * len(fixed_groups)
    fixed_walls = [0.0] * len(fixed_groups)
    first = True
    while True:
        round_groups: list[RunGroup] = []
        owners: list[tuple[str, int]] = []
        if first:
            for i, g in enumerate(fixed_groups):
                round_groups.append(g)
                owners.append(("fixed", i))
        for i, st in enumerate(states):
            inc = st.next_increment()
            if inc is not None:
                round_groups.append(inc)
                owners.append(("adaptive", i))
        if not round_groups:
            break
        first = False
        t0 = _time.perf_counter()
        per = evaluate_groups(round_groups, workers=workers, on_rebuild=on_rebuild)
        wall = _time.perf_counter() - t0
        total_w = sum(o.wall for outs in per for o in outs) or 1.0
        for owner, g, outs in zip(owners, round_groups, per):
            share = wall * sum(o.wall for o in outs) / total_w
            if owner[0] == "fixed":
                fixed_out[owner[1]] = outs
                fixed_walls[owner[1]] = share
            else:
                states[owner[1]].absorb(g, outs, share)
    return fixed_out, fixed_walls, [st.result() for st in states]  # type: ignore[return-value]


def precision_doc(target: PrecisionTarget, result: AdaptiveResult) -> dict:
    """The JSON-able adaptive-provenance block riding on predictions."""
    return {
        "target": target.to_doc(),
        "converged": result.converged,
        "achieved_rse": result.rounds[-1]["rse"] if result.rounds else None,
        "rounds": result.rounds,
    }


def _evaluate_adaptive_predictions(
    groups: list[RunGroup],
    targets: list[PrecisionTarget],
    workers: int | None,
    cache_dir,
) -> list[Prediction]:
    """Adaptive counterpart of :func:`_evaluate_predictions`.

    Cache story: the full result document is stored under the
    **fixed-runs key of the achieved total** (so a later ``runs=N``
    request drawing the same chunks hits it -- adaptive and fixed
    answers for the same content are bit-identical by construction),
    and a small *pointer* document
    is stored under the adaptive key mapping target -> achieved run
    count, so a repeated adaptive request replays the lookup without
    re-running the stopping rule.
    """
    cache = PredictionCache(cache_dir) if cache_dir is not None else None
    preds: list[Prediction | None] = [None] * len(groups)
    miss_pairs: list[tuple[RunGroup, PrecisionTarget]] = []
    miss_idx: list[int] = []
    pointer_keys: list[str | None] = [None] * len(groups)
    for i, (group, target) in enumerate(zip(groups, targets)):
        if cache is None:
            miss_pairs.append((group, target))
            miss_idx.append(i)
            continue
        pkey = pointer_keys[i] = prediction_key(group, target)
        pointer = cache.get(pkey)
        if pointer is not None and isinstance(pointer.get("achieved_runs"), int):
            achieved = pointer["achieved_runs"]
            doc = cache.get(prediction_key(replace(group, runs=achieved)))
            if doc is not None:
                pred = prediction_from_doc(doc)
                pred.precision = pointer.get("precision")
                preds[i] = pred
                continue
        miss_pairs.append((group, target))
        miss_idx.append(i)
    if miss_pairs:
        _, _, results = evaluate_with_precision(
            [], miss_pairs, workers=workers
        )
        for i, (group, target), result in zip(miss_idx, miss_pairs, results):
            finished = replace(group, runs=result.runs)
            pred = build_prediction(finished, result.outcomes, result.wall)
            pred.precision = precision_doc(target, result)
            preds[i] = pred
            if cache is not None:
                cache.put(prediction_key(finished), prediction_doc(finished, pred))
                cache.put(pointer_keys[i], {
                    "kind": "adaptive",
                    "achieved_runs": result.runs,
                    "precision": pred.precision,
                })
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


def _adaptive_batch(precision: PrecisionTarget) -> int:
    """Chunk size for adaptive groups: the first scheduled total, so the
    refinement increment *is* one chunk and a loose target can stop
    after ``min_runs`` instead of a full default chunk of 64."""
    return precision.min_runs


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
    workers: int | None = 1,
    cache_dir=None,
    vector_runs: bool = False,
    precision: PrecisionTarget | None = None,
    target_rse: float | None = None,
    min_runs: int = 4,
    max_runs: int = 256,
) -> Prediction:
    """Evaluate *model* (directive Block or program callable) *runs* times.

    Run *i* uses child stream *i* of ``SeedSequence(seed)``, so results
    are independent across runs yet bit-identical for any ``workers``
    setting.  ``workers=1`` (the default) evaluates serially; ``None``
    uses one process per host core.  The pool's work unit is a chunk of
    runs for a static program and one run for a divergent one, so a
    static program only spreads over workers once its runs fill several
    chunks, and each worker first recompiles the program and rebuilds
    its sampler tables.  ``cache_dir`` enables the on-disk prediction
    cache; the last run can be traced for loss attribution (which
    bypasses the cache).

    The model is compiled once (:mod:`repro.pevpm.compile`) and its
    shape picks the engine.  A static program runs on the batched
    virtual machine (:mod:`repro.pevpm.vector`): all runs of a
    fixed-size chunk advance in one sweep/match pass with vectorised
    timing draws, and chunks fan out over ``workers``.  A program whose
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
    if target is not None and trace_last:
        raise ValueError("trace_last is incompatible with adaptive evaluation")
    if target is None and runs < 1:
        raise ValueError("runs must be >= 1")
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
    )
    if target is not None:
        group = replace(group, vector_batch=_adaptive_batch(target))
        return _evaluate_adaptive_predictions(
            [group], [target], workers, cache_dir
        )[0]
    return _evaluate_predictions([group], workers, cache_dir)[0]


def predict_speedups(
    model_factory: Callable[[int], object],
    proc_counts: list[int],
    timing_factory: Callable[[int], TimingModel],
    serial_time: float,
    runs: int = 5,
    seed: int | np.random.SeedSequence = 0,
    params: dict | None = None,
    ppn: int = 1,
    workers: int | None = 1,
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
    statistically independent; with ``workers`` > 1 the (size x run)
    grid evaluates in one shared pool.

    With ``precision``/``target_rse`` set, every size stops at its own
    adaptive total: small machines (low variance) spend few runs, large
    contended ones spend more -- the curve reaches uniform *relative*
    precision instead of uniform spend.
    """
    target = _resolve_precision(precision, target_rse, min_runs, max_runs)
    root = as_seed_sequence(seed)
    children = run_seeds(root, len(proc_counts))
    batch_kw = {"vector_batch": _adaptive_batch(target)} if target is not None else {}
    groups = [
        RunGroup(
            model=model_factory(nprocs),
            nprocs=nprocs,
            timing=timing_factory(nprocs),
            seed=child,
            runs=runs,
            params=params,
            ppn=ppn,
            **batch_kw,
        )
        for nprocs, child in zip(proc_counts, children)
    ]
    if target is not None:
        preds = _evaluate_adaptive_predictions(
            groups, [target] * len(groups), workers, cache_dir
        )
    else:
        preds = _evaluate_predictions(groups, workers, cache_dir)
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
    workers: int | None = 1,
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
    ablation differs only in timing source, not in random draws); with
    ``workers`` > 1 the (mode x run) grid shares one pool.

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
    batch_kw = {"vector_batch": _adaptive_batch(target)} if target is not None else {}
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
            **batch_kw,
        )
        for mode, source in modes
    ]
    if target is not None:
        preds = _evaluate_adaptive_predictions(
            groups, [target] * len(groups), workers, cache_dir
        )
    else:
        preds = _evaluate_predictions(groups, workers, cache_dir)
    return {
        f"{mode}-{source}": pred
        for (mode, source), pred in zip(modes, preds)
    }
