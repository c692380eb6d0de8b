"""Deterministic fault injection for the serving stack.

Real clusters fail partially -- the paper's 200 ms outlier tails *are*
fault behaviour (TCP retransmission timeouts under saturation) -- and a
serving layer over the prediction engine has the same obligation the
benchmark harness has: survive the fault, report it, and keep the
numbers right.  This module provides the controlled failures the
fault-tolerance tests, the chaos benchmark and the ``repro chaos`` CLI
inject:

* ``kill_worker``      -- SIGKILL one process of the engine's
  :class:`~concurrent.futures.ProcessPoolExecutor` mid-evaluation
  (exercises the ``BrokenProcessPool`` rebuild/re-dispatch path);
* ``corrupt_cache``    -- overwrite an on-disk entry of one of the
  service's content stores (prediction cache, registry databases,
  imported programs) with truncated garbage (exercises the one
  quarantine-on-read path of :mod:`repro.cas`);
* ``delay_cache``      -- stall the next disk-cache read;
* ``stall_evaluator``  -- put the evaluator thread to sleep before the
  next micro-batch (exercises deadlines, admission and the breaker).

Every fault is *armed* explicitly (or through a seeded
:class:`FaultPlan`) and fires at a deterministic site: the injector
counts site events (evaluator batches, disk-cache reads, pool
dispatches) and a fault armed ``at=k`` fires on event *k*; ``at=None``
fires on the next event.  Randomness (which cache entry to corrupt,
plan composition) comes only from the injector's own seeded generator,
so a chaos run is replayable.

The injector is attached to a :class:`~.server.PredictionService`
(``fault_injector=``/``repro serve --chaos``) which exposes it over
``POST /chaos`` -- the endpoint ``repro chaos`` drives.  Injection
hooks are cheap no-ops when nothing is armed, and the harness never
changes served numbers: every fault either delays work or destroys
state the recovery paths must reconstruct bit-identically.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time as _time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["FAULT_KINDS", "FaultInjector", "FaultPlan", "FaultSpec"]

#: the injectable fault kinds, in the order seeded plans draw them
FAULT_KINDS = ("kill_worker", "corrupt_cache", "delay_cache", "stall_evaluator")

#: site whose event counter triggers each fault kind
_SITE_FOR = {
    "kill_worker": "dispatch",
    "corrupt_cache": "cache_read",
    "delay_cache": "cache_read",
    "stall_evaluator": "evaluate",
}

#: bytes a corrupted cache entry is truncated to (invalid JSON)
_GARBAGE = '{"version": 2, "times": [0.0'


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: what to inject, when, and how hard."""

    kind: str
    seconds: float = 0.0  #: stall/delay duration
    at: int | None = None  #: site event index to fire on (None = next)
    key: str | None = None  #: corrupt_cache: a specific request key

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        if self.seconds:
            doc["seconds"] = self.seconds
        if self.at is not None:
            doc["at"] = self.at
        if self.key is not None:
            doc["key"] = self.key
        return doc


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults (the ``repro chaos plan`` unit)."""

    faults: tuple[FaultSpec, ...]
    seed: int | None = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        length: int = 4,
        max_seconds: float = 0.05,
        kinds: tuple[str, ...] = FAULT_KINDS,
    ) -> "FaultPlan":
        """Draw *length* faults from a seeded generator.

        Two plans built from the same arguments are identical, so a
        chaos campaign is replayable from its seed alone.
        """
        if length < 1:
            raise ValueError("length must be >= 1")
        rng = random.Random(seed)
        faults = []
        for _ in range(length):
            kind = kinds[rng.randrange(len(kinds))]
            seconds = 0.0
            if kind in ("delay_cache", "stall_evaluator"):
                seconds = round(rng.uniform(0.0, max_seconds), 6)
            faults.append(FaultSpec(kind=kind, seconds=seconds))
        return cls(faults=tuple(faults), seed=seed)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
        }


class FaultInjector:
    """Armed-fault registry plus the injection hooks the stack calls.

    Thread-safe: faults are armed from the event-loop thread (the
    ``/chaos`` endpoint) or a test, and fire on the evaluator thread
    (stalls, pool kills) or the event-loop thread (cache reads).
    """

    def __init__(self, seed: int = 0):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        #: name -> :class:`~repro.cas.ContentStore` (or ``None``) whose
        #: entries ``corrupt_cache`` may poison; the service attaches its
        #: ``prediction``, ``registry`` and ``program`` stores
        self.stores: dict = {}
        self._armed: dict[str, list[FaultSpec]] = {k: [] for k in FAULT_KINDS}
        #: site -> events seen so far
        self.events: dict[str, int] = {
            "evaluate": 0, "cache_read": 0, "dispatch": 0,
        }
        #: kind -> faults actually fired
        self.injected: dict[str, int] = {k: 0 for k in FAULT_KINDS}

    # -- arming ------------------------------------------------------------------
    def arm(
        self,
        kind: str,
        seconds: float = 0.0,
        at: int | None = None,
        key: str | None = None,
    ) -> FaultSpec:
        """Arm one fault; ``corrupt_cache`` fires immediately when an
        on-disk entry already exists (otherwise on the next read)."""
        spec = FaultSpec(kind=kind, seconds=seconds, at=at, key=key)
        if kind == "corrupt_cache" and at is None:
            if self.corrupt_now(key=key) is not None:
                return spec
        with self._lock:
            self._armed[kind].append(spec)
        return spec

    def arm_plan(self, plan: FaultPlan) -> list[FaultSpec]:
        return [
            self.arm(s.kind, seconds=s.seconds, at=s.at, key=s.key)
            for s in plan.faults
        ]

    def _take(self, kind: str, site: str) -> FaultSpec | None:
        """Pop the first armed *kind* fault due at the current event."""
        with self._lock:
            count = self.events[site]
            armed = self._armed[kind]
            for i, spec in enumerate(armed):
                if spec.at is None or spec.at <= count:
                    armed.pop(i)
                    self.injected[kind] += 1
                    return spec
        return None

    # -- direct injection --------------------------------------------------------
    def corrupt_now(self, key: str | None = None) -> Path | None:
        """Overwrite a stored entry with truncated garbage; returns the
        poisoned path (None when nothing to hit).

        With *key* the target is that specific prediction-cache entry;
        keyless corruption draws seeded from every on-disk entry of
        every attached store, in store order, so a chaos plan exercises
        the quarantine path for each kind of artifact.
        """
        if key is not None:
            store = self.stores.get("prediction")
            path = None if store is None else store.path(key)
            candidates = [path] if path is not None and path.exists() else []
        else:
            candidates = [
                path
                for store in self.stores.values()
                if store is not None
                for path in store.paths()
            ]
        if not candidates:
            return None
        path = candidates[self._rng.randrange(len(candidates))]
        path.write_text(_GARBAGE)
        with self._lock:
            self.injected["corrupt_cache"] += 1
        return path

    # -- hooks (called by the stack) ---------------------------------------------
    def on_evaluate(self) -> None:
        """Evaluator thread, before each micro-batch evaluation."""
        with self._lock:
            self.events["evaluate"] += 1
        spec = self._take("stall_evaluator", "evaluate")
        if spec is not None and spec.seconds > 0:
            _time.sleep(spec.seconds)

    def on_cache_read(self, path: Path | None) -> None:
        """Event-loop thread, before each disk-cache read."""
        with self._lock:
            self.events["cache_read"] += 1
        spec = self._take("corrupt_cache", "cache_read")
        if spec is not None and path is not None and path.exists():
            path.write_text(_GARBAGE)
        spec = self._take("delay_cache", "cache_read")
        if spec is not None and spec.seconds > 0:
            _time.sleep(spec.seconds)

    def on_pool_dispatch(self, pool) -> None:
        """Engine thread, after submitting work to a fresh process pool."""
        with self._lock:
            self.events["dispatch"] += 1
        spec = self._take("kill_worker", "dispatch")
        if spec is None:
            return
        procs = sorted(
            getattr(pool, "_processes", {}).values(), key=lambda p: p.pid
        )
        if not procs:
            # Pool has no live worker yet: re-arm for the next dispatch.
            with self._lock:
                self.injected["kill_worker"] -= 1
                self._armed["kill_worker"].insert(0, spec)
            return
        victim = procs[self._rng.randrange(len(procs))]
        try:
            os.kill(victim.pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            pass

    # -- introspection -----------------------------------------------------------
    @property
    def armed(self) -> dict[str, int]:
        with self._lock:
            return {k: len(v) for k, v in self._armed.items()}

    def snapshot(self) -> dict:
        """JSON-able state for ``GET /chaos`` and ``repro chaos status``."""
        with self._lock:
            return {
                "armed": {k: len(v) for k, v in self._armed.items()},
                "injected": dict(self.injected),
                "events": dict(self.events),
                "stores": {
                    name: str(store.root)
                    for name, store in self.stores.items()
                    if store is not None and store.root is not None
                },
            }
