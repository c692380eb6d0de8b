"""Request schema, model registry, and the prediction response record.

The service's reproducibility contract hinges on this module: a
``/predict`` request is parsed into a :class:`PredictRequest` whose
*canonical* form fills in every default, and the response record echoes
back the seed and every engine flag that influenced the numbers.  A
client can therefore replay any served prediction with a direct
:func:`repro.pevpm.predict` call and obtain bit-identical times -- the
discipline Hunold & Carpen-Amarie's *MPI Benchmarking Revisited* asks of
benchmark results applies to served predictions too.

The same :func:`prediction_record` serialiser backs ``repro predict
--json``, so CLI output and service responses share one machine-readable
format.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

from ..apps.amg import amg_model
from ..apps.fft import fft_model
from ..apps.halo import halo_model
from ..apps.jacobi import parse_jacobi
from ..apps.taskfarm import make_tasks, taskfarm_model
from ..pevpm.parallel import VECTOR_BATCH, keyed_batch
from ..pevpm.predict import Prediction

__all__ = [
    "MODELS",
    "PredictRequest",
    "RequestError",
    "prediction_record",
    "routing_key_for",
]


class RequestError(ValueError):
    """A malformed or unsupported request (HTTP 400)."""


#: legal ``db`` refs: a registry alias (``perseus@v3``) or a full
#: content fingerprint -- mirrors ``repro.registry.store.ALIAS_RE``
#: without importing the registry package into the request schema
_DB_REF_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._@-]{0,63}$")

#: legal imported-program refs: fingerprints only (programs have no
#: aliases -- they are immutable by construction)
_PROGRAM_REF_RE = re.compile(r"^[0-9a-f]{64}$")


def _jacobi(spec, params: dict):
    vm_params = {
        "iterations": params["iterations"],
        "xsize": params["xsize"],
        "serial_time": spec.jacobi_serial_time,
    }
    return parse_jacobi(), vm_params


def _fft(spec, params: dict):
    return fft_model(params["n_points"]), None


def _taskfarm(spec, params: dict):
    tasks = make_tasks(
        params["n_tasks"],
        mean=params["task_mean"],
        cv=params["task_cv"],
        seed=params["task_seed"],
    )
    return taskfarm_model(tasks), None


def _halo(spec, params: dict):
    try:
        model = halo_model(
            iterations=params["iterations"],
            nx=params["nx"],
            halo=params["halo"],
            dims=params["dims"],
            px=params["px"],
            reduce_every=params["reduce_every"],
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad halo parameters: {exc}") from None
    return model, None


def _amg(spec, params: dict):
    try:
        model = amg_model(
            iterations=params["iterations"],
            nx=params["nx"],
            halo=params["halo"],
            dims=params["dims"],
            px=params["px"],
            coarse_nx=params["coarse_nx"],
        )
    except (TypeError, ValueError) as exc:
        raise RequestError(f"bad amg parameters: {exc}") from None
    return model, None


def _imported(spec, params: dict):
    # Imported programs live in the service's ProgramStore; the service
    # resolves the ref and substitutes the stored model before this
    # builder is ever consulted (see PredictionService._group_for).
    raise RequestError(
        "model 'imported' needs a program resolved from the service's "
        "program store; POST the trace to /programs first"
    )


#: name -> (defaulted parameters, builder(spec, params) -> (model, vm_params)).
#: One entry per communication-pattern class of Section 6, plus the
#: collectives-era workloads (halo, amg) and trace-imported programs.
MODELS: dict[str, tuple[dict, object]] = {
    "jacobi": ({"iterations": 100, "xsize": 256}, _jacobi),
    "fft": ({"n_points": 4096}, _fft),
    "taskfarm": (
        {"n_tasks": 64, "task_mean": 5e-3, "task_cv": 0.5, "task_seed": 0},
        _taskfarm,
    ),
    "halo": (
        {
            "iterations": 10, "nx": 64, "halo": 1, "dims": 2, "px": 1,
            "reduce_every": 0,
        },
        _halo,
    ),
    "amg": (
        {
            "iterations": 4, "nx": 32, "halo": 1, "dims": 2, "px": 1,
            "coarse_nx": 8,
        },
        _amg,
    ),
    #: ``program`` is the sha256 fingerprint returned by POST /programs
    "imported": ({"program": ""}, _imported),
}

_TIMING_MODES = ("distribution", "average", "minimum", "parametric")
_TIMING_SOURCES = ("nxp", "2x1")
_NIC_MODES = ("off", "tx", "txrx")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RequestError(msg)


def _as_int(value, name: str, minimum: int) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{name} must be an integer",
    )
    _require(value >= minimum, f"{name} must be >= {minimum}")
    return value


def _as_positive(value, name: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and 0 < value < math.inf,
        f"{name} must be a positive finite number",
    )
    return value


def _check_jacobi(params: dict, nprocs: int) -> None:
    _as_int(params["iterations"], "iterations", 0)
    _as_int(params["xsize"], "xsize", 0)


def _check_fft(params: dict, nprocs: int) -> None:
    n_points = _as_int(params["n_points"], "n_points", 1)
    try:
        fft_model(n_points)
    except ValueError as exc:
        raise RequestError(f"bad fft parameters: {exc}") from None
    _require(
        n_points % (nprocs * nprocs) == 0,
        f"fft needs n_points divisible by nprocs^2 for the transpose "
        f"(n_points={n_points}, nprocs={nprocs})",
    )


def _check_taskfarm(params: dict, nprocs: int) -> None:
    _require(
        nprocs >= 2, "taskfarm needs nprocs >= 2: a master and at least one worker"
    )
    _as_int(params["n_tasks"], "n_tasks", 1)
    _as_positive(params["task_mean"], "task_mean")
    _as_positive(params["task_cv"], "task_cv")
    _as_int(params["task_seed"], "task_seed", 0)


#: ingress checks of the models whose builders or programs raise plain
#: errors, given the request's nprocs; the halo and amg builders turn
#: theirs into RequestError themselves
_PARAM_CHECKS = {
    "jacobi": _check_jacobi,
    "fft": _check_fft,
    "taskfarm": _check_taskfarm,
}


@dataclass
class PredictRequest:
    """One validated ``/predict`` request, defaults filled in."""

    model: str
    nprocs: int
    model_params: dict = field(default_factory=dict)
    ppn: int = 1
    runs: int = 16
    seed: int = 0
    timing_mode: str = "distribution"
    timing_source: str = "nxp"
    nic_serialisation: str = "tx"
    deadline_s: float | None = None  #: per-request deadline override
    #: registry ref (alias or fingerprint) of the distribution database
    #: to predict against; ``None`` means the service's startup default
    db: str | None = None
    #: adaptive mode: stop when the mean's CI half-width relative to
    #: |mean| meets this target (mutually exclusive with an explicit
    #: ``runs`` in the request body; ``runs`` is then decided by the
    #: stopping rule and echoed back as the achieved total)
    target_rse: float | None = None
    min_runs: int = 4  #: adaptive: first total evaluated
    max_runs: int = 256  #: adaptive: hard spend cap
    #: not a field: selects nothing (the program's shape picks the
    #: engine); kept because ``bench/`` passes it on to ``predict``
    vector_runs = True

    @classmethod
    def from_dict(cls, doc: object) -> "PredictRequest":
        _require(isinstance(doc, dict), "request body must be a JSON object")
        known = {
            "model", "nprocs", "model_params", "ppn", "runs", "seed",
            "timing_mode", "timing_source", "nic_serialisation",
            "deadline_s", "db",
            "target_rse", "min_runs", "max_runs",
        }
        unknown = set(doc) - known
        _require(not unknown, f"unknown request fields: {sorted(unknown)}")
        model = doc.get("model")
        _require(model in MODELS, f"model must be one of {sorted(MODELS)}")
        defaults, _ = MODELS[model]
        raw_params = doc.get("model_params", {})
        _require(isinstance(raw_params, dict), "model_params must be an object")
        bad = set(raw_params) - set(defaults)
        _require(not bad, f"unknown model_params for {model!r}: {sorted(bad)}")
        params = dict(defaults, **raw_params)
        nprocs = _as_int(doc.get("nprocs"), "nprocs", 1)
        check = _PARAM_CHECKS.get(model)
        if check is not None:
            check(params, nprocs)
        if model == "imported":
            ref = params.get("program")
            _require(
                isinstance(ref, str) and bool(_PROGRAM_REF_RE.match(ref)),
                "model 'imported' needs model_params.program set to a "
                "program fingerprint (sha256 hex, as returned by "
                "POST /programs)",
            )
        mode = doc.get("timing_mode", "distribution")
        _require(mode in _TIMING_MODES, f"timing_mode must be one of {_TIMING_MODES}")
        source = doc.get("timing_source", "nxp")
        _require(
            source in _TIMING_SOURCES,
            f"timing_source must be one of {_TIMING_SOURCES}",
        )
        nic = doc.get("nic_serialisation", "tx")
        _require(nic in _NIC_MODES, f"nic_serialisation must be one of {_NIC_MODES}")
        deadline = doc.get("deadline_s")
        if deadline is not None:
            _require(
                isinstance(deadline, (int, float)) and deadline > 0,
                "deadline_s must be a positive number",
            )
        db_ref = doc.get("db")
        if db_ref is not None:
            _require(
                isinstance(db_ref, str) and bool(_DB_REF_RE.match(db_ref)),
                "db must be a registry alias or fingerprint",
            )
        target_rse = doc.get("target_rse")
        if target_rse is not None:
            _require(
                isinstance(target_rse, (int, float))
                and not isinstance(target_rse, bool)
                and target_rse > 0,
                "target_rse must be a positive number",
            )
            _require(
                "runs" not in doc,
                "give either runs or target_rse, not both "
                "(adaptive mode decides the run count)",
            )
        else:
            _require(
                "min_runs" not in doc and "max_runs" not in doc,
                "min_runs/max_runs only apply with target_rse",
            )
        min_runs = _as_int(doc.get("min_runs", 4), "min_runs", 2)
        max_runs = _as_int(doc.get("max_runs", 256), "max_runs", 2)
        _require(max_runs >= min_runs, "max_runs must be >= min_runs")
        return cls(
            model=model,
            nprocs=nprocs,
            model_params=params,
            ppn=_as_int(doc.get("ppn", 1), "ppn", 1),
            runs=_as_int(doc.get("runs", 16), "runs", 1),
            seed=_as_int(doc.get("seed", 0), "seed", 0),
            timing_mode=mode,
            timing_source=source,
            nic_serialisation=nic,
            deadline_s=None if deadline is None else float(deadline),
            db=db_ref,
            target_rse=None if target_rse is None else float(target_rse),
            min_runs=min_runs,
            max_runs=max_runs,
        )

    @property
    def adaptive(self) -> bool:
        """Whether the run count is decided by the stopping rule."""
        return self.target_rse is not None

    @property
    def vector_batch(self) -> int:
        """Runs per batched-VM chunk: the chunk ``predict()`` picks, 64
        for a fixed run count and ``min_runs`` under a target (a loose
        target can then stop after its first chunk)."""
        return self.min_runs if self.adaptive else VECTOR_BATCH

    def precision_target(self):
        """The :class:`repro.stats.PrecisionTarget` of an adaptive
        request (``None`` for fixed-``runs`` ones)."""
        if self.target_rse is None:
            return None
        from ..stats import PrecisionTarget

        return PrecisionTarget(
            rse=self.target_rse, min_runs=self.min_runs, max_runs=self.max_runs
        )

    def canonical(self) -> dict:
        """Every field that determines the numbers, defaults filled.

        Adaptive requests null ``runs`` and add a ``precision`` block
        instead (the run count is the rule's *output*).  The chunk size
        is keyed as :func:`~repro.pevpm.parallel.keyed_batch` records it.
        """
        runs = None if self.target_rse is not None else self.runs
        doc = {
            "model": self.model,
            "model_params": dict(sorted(self.model_params.items())),
            "nprocs": self.nprocs,
            "ppn": self.ppn,
            "runs": runs,
            "seed": self.seed,
            "timing_mode": self.timing_mode,
            "timing_source": self.timing_source,
            "nic_serialisation": self.nic_serialisation,
            "vector_batch": keyed_batch(runs, self.vector_batch),
        }
        if runs is None:
            doc["precision"] = self.precision_target().to_doc()
        return doc

    def fixed_canonical(self, runs: int) -> dict:
        """The canonical form of the fixed request of an adaptive one:
        same content, ``runs`` pinned to the stopping rule's achieved
        total, no precision block.  When the two draw the same chunks
        (:func:`~repro.pevpm.predict.draws_as_fixed`) their results are
        bit-identical, so caching the adaptive result under this key
        lets a later ``runs=N`` request hit."""
        doc = self.canonical()
        doc.pop("precision", None)
        doc["runs"] = runs
        doc["vector_batch"] = keyed_batch(runs, self.vector_batch)
        return doc

    def fixed_key(self, db_fingerprint: str, runs: int) -> str:
        """Cache key of :meth:`fixed_canonical` (see there)."""
        blob = json.dumps(
            {"db": db_fingerprint, "request": self.fixed_canonical(runs)},
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def key(self, db_fingerprint: str) -> str:
        """Content-addressed identity of this request against one
        distribution database -- the singleflight / cache-tier key.

        Two requests share a key exactly when a direct ``predict(...)``
        call would produce bit-identical times for both, so serving one
        evaluation (or one cached document) to all of them preserves the
        reproducibility contract.  Stable across server restarts and
        hosts (unlike pickled closures, which the on-disk prediction
        cache's ``prediction_key`` falls back to for callable models).
        """
        blob = json.dumps(
            {"db": db_fingerprint, "request": self.canonical()}, sort_keys=True
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def routing_key(self) -> str:
        """Shard-routing identity: the canonical request plus the *ref*
        of the database it targets (never the resolved fingerprint).

        The front router (and the sharding-aware load generator) must
        map a request to its owner shard before any shard is consulted,
        so the routing key cannot depend on the fingerprint only shards
        can resolve.  Ref-less requests hash the canonical form alone
        (all shards serve the startup database, so a shared routing key
        implies a shared cache/singleflight key -- unchanged from the
        single-db service).  Requests naming a ``db`` ref fold the ref
        in, so tenant traffic against different databases spreads
        across the ring instead of piling one shard with every tenant's
        copy of a popular request.  Hashing the *ref* -- not its
        current resolution -- keeps routing stable across alias
        promotions: an in-flight hot-swap moves no keys between shards,
        and the full :meth:`key` (which embeds the resolved
        fingerprint) still separates old- and new-version results in
        every cache tier.
        """
        doc = self.canonical()
        if self.db is not None:
            doc = {"db_ref": self.db, "request": doc}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def build_model(self, spec) -> tuple[object, dict | None]:
        """Instantiate (model, vm params) for the simulated *spec*."""
        _, builder = MODELS[self.model]
        return builder(spec, self.model_params)


def routing_key_for(body: object) -> str | None:
    """Best-effort routing key for a raw ``/predict`` body.

    Returns ``None`` when *body* does not validate -- the caller routes
    it anywhere and lets the owning shard produce the 400, keeping
    request validation in exactly one place (the shard).
    """
    try:
        return PredictRequest.from_dict(body).routing_key()
    except RequestError:
        return None


def prediction_record(
    pred: Prediction,
    *,
    seed: int | None = None,
    vector_batch: int | None = None,
    nic_serialisation: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Machine-readable record of one prediction.

    Shared between the service's ``/predict`` response serialiser and
    ``repro predict --json``: carries the per-run times plus the seed and
    engine flags needed to reproduce them bit-identically with a direct
    ``predict(...)`` call.
    """
    record = {
        "nprocs": pred.nprocs,
        "timing": pred.timing_name,
        "runs": pred.runs,
        "times": [float(t) for t in pred.times],
        "mean_time": pred.mean_time,
        "std_time": pred.std_time,
        "stderr": pred.stderr,
        "wall_time": pred.wall_time,
        "cached": pred.cached,
        "engine": {},
    }
    if pred.precision is not None:
        # Adaptive provenance: the target, per-round RSE trail, and
        # whether the stopping rule converged before the run cap.
        record["precision"] = pred.precision
    if seed is not None:
        record["seed"] = seed
    record["engine"]["vector_batch"] = vector_batch or VECTOR_BATCH
    if nic_serialisation is not None:
        record["engine"]["nic_serialisation"] = nic_serialisation
    if extra:
        record.update(extra)
    return record
