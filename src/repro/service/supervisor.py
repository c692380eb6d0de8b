"""Multi-process shard supervision for the sharded serving tier.

``repro serve --shards N`` runs here: a :class:`Supervisor` forks N
full server processes (each its own event loop, evaluator thread, LRU
and breaker -- the whole :class:`~.server.PredictionService` funnel)
and binds them together into one deployment:

* **shared cache plane** -- every shard points its disk tier at one
  cache directory.  Content-store writes are already atomic
  (:mod:`repro.cas`) and corrupt entries quarantine on read,
  so concurrent shard processes need no further coordination: a
  prediction computed by any shard (or by ``repro predict`` against
  the same directory) is a disk hit for all of them.
* **front router** (default) -- a :class:`~.router.ShardRouter` on the
  public port, consistent-hash routing per :mod:`.sharding`; or
* **SO_REUSEPORT** -- no router: every shard binds the same (host,
  port) and the kernel spreads connections.  Zero added hops, no cache
  affinity; the shared disk tier is what keeps repeat traffic cheap.
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

from .router import Backend, RouterThread, ShardRouter

__all__ = ["Supervisor"]

#: seconds a freshly spawned shard gets to pass /healthz
STARTUP_TIMEOUT = 60.0


def _free_port(host: str) -> int:
    """A currently free TCP port on *host* (bind-to-0 trick)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _shard_main(cfg: dict) -> None:  # pragma: no cover - runs in the child
    """Child-process entry point: one full prediction server.

    *cfg* is a plain picklable dict (spawn ships it across).  The child
    installs the same SIGTERM/SIGINT graceful drain a standalone
    ``repro serve`` process has, so the supervisor's rolling drain is
    just a SIGTERM per shard.
    """
    import asyncio

    from ..mpibench import DistributionDB
    from ..obs import Tracer
    from ..registry import RegistryStore
    from ..simnet import perseus
    from .server import PredictionService, ServiceServer

    db = DistributionDB.load(cfg["db_path"])
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
    service = PredictionService(
        db,
        spec=perseus(),
        workers=cfg["workers"],
        cache_dir=cfg["cache_dir"],
        lru_size=cfg["lru_size"],
        max_batch=cfg["max_batch"],
        max_wait=cfg["max_wait"],
        queue_limit=cfg["queue_limit"],
        deadline_s=cfg["deadline_s"],
        batching=cfg["batching"],
        dedup=cfg["dedup"],
        caching=cfg["caching"],
        tracer=tracer,
        shard_id=cfg["shard_id"],
        registry=registry,
        tenant_rate=cfg.get("tenant_rate", 0.0),
    )
    server = ServiceServer(
        service,
        host=cfg["host"],
        port=cfg["port"],
        reuse_port=cfg["reuse_port"],
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        stop_signal = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop_signal.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        try:
            await stop_signal.wait()
            await server.drain(cfg["drain_grace"])
        finally:
            serve_task.cancel()
            await asyncio.gather(serve_task, return_exceptions=True)
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass


class Supervisor:
    """N shard server processes plus (optionally) the front router."""

    def __init__(
        self,
        db,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir=None,
        router: bool = True,
        reuse_port: bool = False,
        restart: bool = True,
        drain_grace: float = 10.0,
        workers: int | None = 1,
        lru_size: int = 1024,
        max_batch: int = 8,
        max_wait: float = 0.002,
        queue_limit: int = 64,
        deadline_s: float = 30.0,
        batching: bool = True,
        dedup: bool = True,
        caching: bool = True,
        tracing: bool = True,
        trace_buffer: int = 256,
        registry_dir=None,
        tenant_rate: float = 0.0,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
                raise RuntimeError("SO_REUSEPORT not available on this platform")
            router = False
        self.db = db  # a DistributionDB or a path to a saved one
        self.n_shards = n_shards
        self.host = host
        self.port = port  #: public port (router's, or the shared one)
        self.use_router = router
        self.reuse_port = reuse_port
        self.restart = restart
        self.drain_grace = drain_grace
        self._opts = {
            "workers": workers,
            "lru_size": lru_size,
            "max_batch": max_batch,
            "max_wait": max_wait,
            "queue_limit": queue_limit,
            "deadline_s": deadline_s,
            "batching": batching,
            "dedup": dedup,
            "caching": caching,
            "tracing": tracing,
            "trace_buffer": trace_buffer,
        }
        self.cache_dir = cache_dir
        self._tmp_cache = cache_dir is None and n_shards > 1
        #: one registry directory shared by every shard.  Multi-shard
        #: deployments always get one (temporary if unconfigured) --
        #: per-shard in-memory registries would let an upload land on
        #: one shard and 404 on its siblings.
        self.registry_dir = registry_dir
        self.tenant_rate = tenant_rate
        self._tmp_registry = registry_dir is None and n_shards > 1
        self._tmp_db: str | None = None
        self.shard_ports: list[int] = []
        self.procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self.router_thread: RouterThread | None = None
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
            "reuse_port": self.reuse_port,
            "drain_grace": self.drain_grace,
            "registry_dir": (
                None if self.registry_dir is None
                else os.fspath(self.registry_dir)
            ),
            "tenant_rate": self.tenant_rate,
            **self._opts,
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

        if isinstance(self.db, (str, os.PathLike)):
            self._db_path = os.fspath(self.db)
        else:
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
        if self._tmp_registry:
            self.registry_dir = tempfile.mkdtemp(prefix="repro-registry-")
        if self.reuse_port:
            # All shards share the public port; pick one if unbound.
            if self.port == 0:
                self.port = _free_port(self.host)
            self.shard_ports = [self.port] * self.n_shards
        else:
            self.shard_ports = [
                _free_port(self.host) for _ in range(self.n_shards)
            ]
        for shard_id in range(self.n_shards):
            self.procs[shard_id] = self._spawn(shard_id)
        for shard_id in range(self.n_shards):
            self._wait_healthy(shard_id)
        if self.use_router:
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
            self.router_thread = RouterThread(router)
            _, self.port = self.router_thread.start()
        elif not self.reuse_port:
            # Router-less, distinct ports: "the public port" is shard
            # 0's; callers route client-side via shard_address().
            self.port = self.shard_ports[0]
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
            if self.router_thread is not None:
                self.router_thread.mark_down(shard_id)
            if not self.restart:
                del self.procs[shard_id]
                return
            self.procs[shard_id] = self._spawn(shard_id)
            self.restarts += 1
        try:
            self._wait_healthy(shard_id)
        except RuntimeError:
            return  # stays down; the ring keeps its range failed over
        if self.router_thread is not None:
            self.router_thread.mark_up(shard_id)

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
            if self.router_thread is not None:
                self.router_thread.mark_draining(shard_id)
            proc.terminate()  # SIGTERM -> child-side graceful drain
            proc.join(timeout=self.drain_grace + 10.0)
            if proc.is_alive():  # pragma: no cover - wedged child
                proc.kill()
                proc.join(timeout=5.0)
            if self.router_thread is not None:
                self.router_thread.mark_down(shard_id)
        if self.router_thread is not None:
            self.router_thread.set_draining()
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
            self._tmp_db = None
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
            topology = (
                "SO_REUSEPORT" if self.reuse_port
                else "router" if self.use_router
                else "direct"
            )
            print(
                f"repro service listening on http://{host}:{port} "
                f"({self.n_shards} shards, {topology}; shard ports: "
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
