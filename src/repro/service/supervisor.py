"""Multi-process shard supervision for the sharded serving tier.

``repro serve --shards N`` runs here: a :class:`Supervisor` forks N
full server processes (each its own event loop, evaluator thread, LRU
and breaker -- the whole :class:`~.server.PredictionService` funnel)
and binds them together into one deployment:

* **shared cache plane** -- every shard points its disk tier at one
  cache directory.  Content-store writes are already atomic
  (:mod:`repro.cas`) and corrupt entries quarantine on read,
  so concurrent shard processes need no further coordination: a
  prediction computed by any shard is a disk hit for all of them.
  ``repro predict --cache-dir`` may share the directory and its file
  format, but not entries: the library keys a prediction by its
  pickled model, the service by its canonical request.
* **front router** -- a :class:`~.router.ShardRouter` on the public
  port, consistent-hash routing per :mod:`.sharding`: one ``/metrics``
  and one ``/healthz`` for the tier, and per-key cache and singleflight
  affinity.
* **restart** -- a monitor thread waits on the child process sentinels;
  an unexpected exit marks the backend down (its hash range fails over
  to the next ring owner) and respawns it on the same port, after
  which its range snaps back.
* **rolling drain** -- SIGTERM drains shards one at a time: mark the
  shard draining at the router, SIGTERM it (the child runs the same
  graceful drain as a standalone server), wait, move on.  At most one
  shard's capacity is gone at any moment.

Shards are spawned (not forked): the supervisor already runs threads,
and spawn keeps the children import-clean.  Each child loads the
distribution database from a JSON snapshot on disk -- the supervisor
saves one if it was handed a live DB -- so all shards provably serve
the same ``db_fingerprint``.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import shutil
import signal
import socket
import tempfile
import threading
import time

from .http import LoopThread
from .router import Backend, ShardRouter

__all__ = ["Supervisor"]

#: seconds a freshly spawned shard gets to pass /healthz
STARTUP_TIMEOUT = 60.0


def _free_port(host: str) -> int:
    """A currently free TCP port on *host* (bind-to-0 trick)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _shard_service(cfg: dict):
    """The :class:`~.server.PredictionService` one shard serves: the
    supervisor's service options, plus the shard's identity and the
    deployment's shared database snapshot, cache and registry planes.

    *cfg* is a plain picklable dict (spawn ships it across).
    """
    from ..mpibench import DistributionDB
    from ..obs import Tracer
    from ..registry import RegistryStore
    from ..simnet import perseus
    from .server import PredictionService

    tracer = Tracer(capacity=cfg["trace_buffer"]) if cfg["tracing"] else None
    # All shards of one deployment open the same registry directory:
    # writes are atomic per file, so a database uploaded (or an alias
    # promoted) through any shard is immediately visible to every
    # other -- the shared registry plane, same idea as the cache plane.
    registry = (
        RegistryStore(cfg["registry_dir"])
        if cfg.get("registry_dir")
        else None
    )
    return PredictionService(
        DistributionDB.load(cfg["db_path"]),
        spec=perseus(),
        cache_dir=cfg["cache_dir"],
        tracer=tracer,
        shard_id=cfg["shard_id"],
        registry=registry,
        **cfg["service"],
    )


def _shard_main(cfg: dict) -> None:  # pragma: no cover - runs in the child
    """Child-process entry point: one full prediction server, with the
    same SIGTERM/SIGINT graceful drain a standalone ``repro serve``
    process has, so the supervisor's rolling drain is just a SIGTERM
    per shard."""
    from .server import ServiceServer

    service = _shard_service(cfg)
    ServiceServer(service, host=cfg["host"], port=cfg["port"]).run(
        cfg["drain_grace"]
    )


class Supervisor:
    """N shard server processes behind the front router."""

    def __init__(
        self,
        db,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        drain_grace: float = 10.0,
        tracing: bool = True,
        trace_buffer: int = 256,
        registry_dir=None,
        **service_options,
    ):
        """*service_options* are :class:`~.server.PredictionService`
        keywords (``lru_size``, ``max_batch``, ``breaker_threshold``,
        ...), passed to every shard's service as given."""
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.db = db  # a DistributionDB or a path to a saved one
        self._db_path = (
            os.fspath(db) if isinstance(db, (str, os.PathLike)) else None
        )
        self.n_shards = n_shards
        self.host = host
        self.port = port  #: public port: the router's
        self.drain_grace = drain_grace
        self.tracing = tracing
        self.trace_buffer = trace_buffer
        self.service_options = service_options
        self.cache_dir = cache_dir
        self._tmp_cache = cache_dir is None and n_shards > 1
        #: one registry directory shared by every shard.  Multi-shard
        #: deployments always get one -- per-shard in-memory registries
        #: would let an upload land on one shard and 404 on its
        #: siblings.  An unconfigured one is made here, so a caller can
        #: seed it before start(), and :meth:`stop` removes it.
        self.registry_dir = registry_dir
        self._tmp_registry = registry_dir is None and n_shards > 1
        if self._tmp_registry:
            self.registry_dir = tempfile.mkdtemp(prefix="repro-registry-")
        self._tmp_db: str | None = None
        self.shard_ports: list[int] = []
        self.procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self.router_thread: LoopThread | None = None
        self.restarts = 0  #: shards respawned after unexpected death
        self._ctx = multiprocessing.get_context("spawn")
        self._stopping = threading.Event()
        self._wake = threading.Event()  # router saw a backend die
        self._monitor: threading.Thread | None = None
        self._lock = threading.Lock()  # guards procs across threads

    # -- wiring ----------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The public (host, port) clients should talk to."""
        return self.host, self.port

    def shard_address(self, shard_id: int) -> tuple[str, int]:
        return self.host, self.shard_ports[shard_id]

    def _shard_cfg(self, shard_id: int) -> dict:
        return {
            "db_path": self._db_path,
            "shard_id": shard_id,
            "host": self.host,
            "port": self.shard_ports[shard_id],
            "cache_dir": self.cache_dir,
            "drain_grace": self.drain_grace,
            "registry_dir": (
                None if self.registry_dir is None
                else os.fspath(self.registry_dir)
            ),
            "tracing": self.tracing,
            "trace_buffer": self.trace_buffer,
            "service": self.service_options,
        }

    def _spawn(self, shard_id: int):
        proc = self._ctx.Process(
            target=_shard_main,
            args=(self._shard_cfg(shard_id),),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        proc.start()
        return proc

    def _wait_healthy(self, shard_id: int, timeout: float = STARTUP_TIMEOUT):
        """Block until the shard answers /healthz (or raise)."""
        from .client import ServiceClient

        host, port = self.shard_address(shard_id)
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            proc = self.procs.get(shard_id)
            if proc is not None and not proc.is_alive():
                raise RuntimeError(
                    f"shard {shard_id} exited during startup "
                    f"(exitcode {proc.exitcode})"
                )
            client = ServiceClient(host, port, timeout=5.0)
            try:
                doc = client.healthz()
                if doc.get("status") == "ok":
                    return doc
            except Exception as exc:
                last = exc
            finally:
                client.close()
            time.sleep(0.05)
        raise RuntimeError(
            f"shard {shard_id} not healthy after {timeout:g}s: {last}"
        )

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        from ..mpibench.results import DistributionDB

        if self._db_path is None:
            # Snapshot the live DB so spawned children (which do not
            # inherit our heap) load the exact same distributions.
            fd, self._tmp_db = tempfile.mkstemp(
                prefix="repro-shard-db-", suffix=".json"
            )
            os.close(fd)
            self.db.save(self._tmp_db)
            self._db_path = self._tmp_db
        if self._tmp_cache:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-shard-cache-")
        self.shard_ports = [
            _free_port(self.host) for _ in range(self.n_shards)
        ]
        for shard_id in range(self.n_shards):
            self.procs[shard_id] = self._spawn(shard_id)
        for shard_id in range(self.n_shards):
            self._wait_healthy(shard_id)
        backends = [
            Backend(i, self.host, self.shard_ports[i])
            for i in range(self.n_shards)
        ]
        router = ShardRouter(
            backends,
            host=self.host,
            port=self.port,
            on_down=lambda _sid: self._wake.set(),
        )
        self.router_thread = LoopThread(router)
        _, self.port = self.router_thread.start()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()
        return self.address

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _router_call(self, fn, *args) -> None:
        """Run ``fn(router, *args)`` on the router's loop (if it runs)."""
        if self.router_thread is not None:
            self.router_thread.call(fn, self.router_thread.server, *args)

    # -- shard death -----------------------------------------------------------
    def _monitor_loop(self) -> None:
        """Wait on child sentinels; restart whoever dies unexpectedly."""
        while not self._stopping.is_set():
            with self._lock:
                sentinels = {
                    proc.sentinel: sid for sid, proc in self.procs.items()
                }
            if not sentinels:
                if self._stopping.wait(timeout=0.2):
                    return
                continue
            ready = multiprocessing.connection.wait(
                list(sentinels), timeout=0.2
            )
            self._wake.clear()
            if self._stopping.is_set():
                return
            for sentinel in ready:
                self._handle_death(sentinels[sentinel])

    def _handle_death(self, shard_id: int) -> None:
        with self._lock:
            proc = self.procs.get(shard_id)
            # Death is judged by sentinel readiness, not is_alive():
            # if the child was already reaped elsewhere, waitpid gets
            # ECHILD and is_alive() misreports True forever, while a
            # dead child's sentinel is reliably readable.
            if proc is None or not multiprocessing.connection.wait(
                [proc.sentinel], timeout=0
            ):
                return
            proc.join(timeout=5.0)
            self._router_call(ShardRouter.mark_down, shard_id)
            self.procs[shard_id] = self._spawn(shard_id)
            self.restarts += 1
        try:
            self._wait_healthy(shard_id)
        except RuntimeError:
            return  # stays down; the ring keeps its range failed over
        self._router_call(ShardRouter.mark_up, shard_id)

    def kill_shard(self, shard_id: int) -> int:
        """SIGKILL one shard (tests / chaos drills); returns its pid."""
        with self._lock:
            proc = self.procs[shard_id]
            pid = proc.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    # -- shutdown --------------------------------------------------------------
    def rolling_drain(self) -> None:
        """Drain shards one at a time, then the router: at most one
        shard's capacity is out of service at any moment."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for shard_id in range(self.n_shards):
            with self._lock:
                proc = self.procs.get(shard_id)
            if proc is None or not proc.is_alive():
                continue
            self._router_call(ShardRouter.mark_draining, shard_id)
            proc.terminate()  # SIGTERM -> child-side graceful drain
            proc.join(timeout=self.drain_grace + 10.0)
            if proc.is_alive():  # pragma: no cover - wedged child
                proc.kill()
                proc.join(timeout=5.0)
            self._router_call(ShardRouter.mark_down, shard_id)
        self._router_call(setattr, "draining", True)
        self.stop()

    def stop(self) -> None:
        """Immediate shutdown (idempotent; rolling_drain ends here)."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            procs = list(self.procs.values())
            self.procs = {}
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=self.drain_grace + 10.0)
            if proc.is_alive():  # pragma: no cover - wedged child
                proc.kill()
                proc.join(timeout=5.0)
        if self.router_thread is not None:
            self.router_thread.stop()
            self.router_thread = None
        if self._tmp_db is not None:
            try:
                os.unlink(self._tmp_db)
            except OSError:  # pragma: no cover
                pass
            self._tmp_db = self._db_path = None
        if self._tmp_cache and self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
        if self._tmp_registry and self.registry_dir is not None:
            shutil.rmtree(self.registry_dir, ignore_errors=True)
            self.registry_dir = None

    # -- CLI entry -------------------------------------------------------------
    def run(self) -> int:  # pragma: no cover - CLI foreground loop
        """Foreground supervision for ``repro serve --shards N``."""
        stop = threading.Event()

        def _signalled(signum, frame):
            stop.set()

        old = {
            sig: signal.signal(sig, _signalled)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            host, port = self.start()
            print(
                f"repro service listening on http://{host}:{port} "
                f"({self.n_shards} shards, router; shard ports: "
                f"{json.dumps(self.shard_ports)})",
                flush=True,
            )
            stop.wait()
            print(
                f"rolling drain (grace {self.drain_grace:g}s/shard)...",
                flush=True,
            )
            self.rolling_drain()
        finally:
            self.stop()
            for sig, handler in old.items():
                signal.signal(sig, handler)
        print("drained; bye", flush=True)
        return 0
