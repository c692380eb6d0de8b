"""The benchmark's four workloads, one function each (see README.md).

Each function sets up, calls ``run.setup_done()``, measures rounds
until the window closes, runs its output checks and reports metrics
through the :class:`run.Run` it is given.  Each imports only the parts
of the package it uses, so ``setup_s`` covers exactly its own imports.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
#: the frozen PEVPM input: an MPIBench sweep of perseus(64) (configs
#: 1x2 2x1 8x1 16x1 32x1 64x1 32x2 64x2, sizes 0-2048 B, 40 reps, seed 1)
DB_PATH = ROOT / "bench" / "data" / "perseus64-fig6.json"
DB_SHA256 = "235f8a4ff2f7616c940196ef62ba4cf1f1e30be80f7748a5b256c7f0cfa2ebd3"

#: Monte Carlo runs per predict() call in the library workloads
RUNS = 64
QUICK_RUNS = 16


def load_db(run):
    """The frozen distribution DB; a changed file fails the run's checks,
    because every number depends on it."""
    from repro.mpibench import DistributionDB

    data = DB_PATH.read_bytes()
    run.check("input DB sha256", hashlib.sha256(data).hexdigest() == DB_SHA256)
    return DistributionDB.from_doc(json.loads(data))


# -- PEVPM engine workloads ------------------------------------------------------
@dataclass
class Program:
    """One model program at one machine size, ready for predict()."""

    name: str
    model: object
    nprocs: int
    timing: object
    params: dict | None = None


def compile_cold(run, programs: list[Program]) -> tuple[float, list]:
    """Seconds to compile every program from an empty compile cache,
    and the compiled forms."""
    from repro.pevpm import clear_compile_cache, compiled_program_for

    clear_compile_cache()
    compiled, wall = run.op(
        "pevpm.compiled_program_for",
        lambda: [compiled_program_for(p.model, p.nprocs, p.params) for p in programs],
    )
    return wall, compiled


def warm_up(programs: list[Program]) -> None:
    """One small call per program, so lazily built sampling tables exist
    before the first timed call."""
    from repro.pevpm import predict

    for p in programs:
        predict(p.model, p.nprocs, p.timing, runs=4, seed=0, params=p.params, vector_runs=True)


class EngineCalls:
    """Timed predict() calls.  In traced runs each call is repeated with
    the same seed through ``evaluate_groups`` with ``profile=True``,
    which yields the engine's phase times."""

    def __init__(self, run, runs: int):
        self.run = run
        self.runs = runs
        self.phases: dict[str, float] = {}
        self.profiled_walls: list[float] = []
        self.paired_walls: list[float] = []  #: plain walls of profiled calls

    def call(self, prog: Program, seed: int):
        from repro.pevpm import predict

        pred, wall = self.run.op(
            "pevpm.predict", predict, prog.model, prog.nprocs, prog.timing,
            runs=self.runs, seed=seed, params=prog.params, vector_runs=True,
        )
        if pred is None:
            return None
        self.run.record(prog.name, wall, sum(pred.times) * prog.nprocs)
        if self.run.trace:
            from repro.obs import merge_phases

            outcomes, profiled_wall = self.profiled(prog, seed, pred.times)
            if outcomes is not None:
                for phase, seconds in merge_phases(outcomes).items():
                    self.phases[phase] = self.phases.get(phase, 0.0) + seconds * self.run.scale
                self.profiled_walls.append(profiled_wall)
                self.paired_walls.append(wall)
        return pred

    def profiled(self, prog: Program, seed: int, times):
        """Re-run *seed* with the phase profiler on and check its times
        are bit-identical to the unprofiled call's: (outcomes, wall)."""
        from repro.pevpm import RunGroup, as_seed_sequence, evaluate_groups

        group = RunGroup(
            model=prog.model, nprocs=prog.nprocs, timing=prog.timing,
            seed=as_seed_sequence(seed), runs=self.runs, params=prog.params,
            vector_runs=True, profile=True,
        )
        outs, wall = self.run.op("pevpm.evaluate_groups", evaluate_groups, [group], workers=1)
        outcomes = None if outs is None else outs[0]
        self.run.check(
            "profiled times == unprofiled times",
            outcomes is not None and [o.elapsed for o in outcomes] == list(times),
        )
        return outcomes, wall

    def report(self) -> None:
        run = self.run
        run.report_ops()
        for name, walls in run.shape_walls.items():
            run.report(f"pevpm.call_p50_ms.{name}", median(walls) * 1e3, len(walls))
        n = len(self.profiled_walls)
        if not n:
            return
        profiled = sum(self.profiled_walls)
        for phase in ("sweep", "match", "sample"):
            run.report(f"pevpm.{phase}_ms", self.phases.get(phase, 0.0) / n * 1e3, n)
        run.report("pevpm.other_ms", (profiled - sum(self.phases.values())) / n * 1e3, n)
        run.report("pevpm.sample_share", self.phases.get("sample", 0.0) / profiled, n)
        run.report("obs.trace_overhead_pct", (profiled / sum(self.paired_walls) - 1) * 100, n)

    def report_compiled(self, compile_s: float, compiled: list) -> None:
        self.run.report("pevpm.compile_ms", compile_s * 1e3, len(compiled))
        self.run.report("pevpm.messages_per_run", sum(c.messages for c in compiled))
        self.run.report("pevpm.divergent_programs", sum(c.divergent for c in compiled))


#: Jacobi iterations of the Figure 6 shape
FIG6_ITERATIONS = 50
#: predict() calls per round; rates are medians over rounds
FIG6_ROUND_CALLS = 4
#: predict() calls whose mean enters the Figure 6 error (fixed, so the
#: error is a function of the seed alone)
FIG6_ERR_CALLS = 8


def fig6_jacobi(run) -> None:
    """predict() of the annotated Jacobi at 64 processes, one fresh seed
    per call; simnet runs the real program as ground truth afterwards."""
    from repro.apps import jacobi_smpi, parse_jacobi
    from repro.pevpm import predict, timing_from_db
    from repro.simnet import perseus
    from repro.smpi import run_program

    truth_seed = run.new_seed()
    db = load_db(run)
    spec = perseus(64)
    params = {
        "iterations": FIG6_ITERATIONS, "xsize": 256,
        "serial_time": spec.jacobi_serial_time,
    }
    prog = Program(
        "jacobi", parse_jacobi(), 64,
        timing_from_db(db, mode="distribution", nprocs=64), params,
    )
    compile_s, compiled = compile_cold(run, [prog])
    warm_up([prog])
    run.setup_done()

    calls = EngineCalls(run, QUICK_RUNS if run.quick else RUNS)
    first: list[tuple[int, object]] = []
    for _ in run.rounds():
        for _ in range(FIG6_ROUND_CALLS):
            seed = run.new_seed()
            pred = calls.call(prog, seed)
            if pred is not None and len(first) < FIG6_ERR_CALLS:
                first.append((seed, pred))

    seed, pred = first[0]
    again, _ = run.op(
        "pevpm.predict", predict, prog.model, 64, prog.timing,
        runs=calls.runs, seed=seed, params=params, vector_runs=True,
    )
    run.check("same seed, bit-identical times", again is not None and again.times == pred.times)
    measured, smpi_wall = run.op(
        "smpi.run_program", run_program, spec, jacobi_smpi, nprocs=64,
        seed=truth_seed, args=(FIG6_ITERATIONS,),
    )
    if measured is not None:
        predicted = sum(p.mean_time for _, p in first) / len(first)
        err = abs(predicted - measured.elapsed) / measured.elapsed
        run.check("Figure 6 error at 64 procs < 25%", err < 0.25)
        run.report("pevpm.fig6_err_pct", err * 100)
        run.report("smpi.run_ms", smpi_wall * 1e3)
        run.report("smpi.messages", sum(s["sends"] for s in measured.comm_stats))
        run.report("simnet.sim_per_wall", measured.elapsed * 64 / smpi_wall)
    calls.report()
    calls.report_compiled(compile_s, compiled)


#: the replayed trace: a 16-rank ring of 64 hops of 2 KiB messages
TRACE_ARGS = {"nprocs": 16, "hops": 64, "nbytes": 2048}


def collectives_mix(run) -> None:
    """Rounds of five programs whose collectives lower to trees and
    rings; taskfarm is divergent and runs the generator fallback."""
    from repro.apps import amg_model, fft_model, halo_model, make_tasks, taskfarm_model
    from repro.pevpm import timing_from_db
    from repro.trace_import import parse_trace, sample_trace

    db = load_db(run)
    timing16 = timing_from_db(db, mode="distribution", nprocs=16)
    timing32 = timing_from_db(db, mode="distribution", nprocs=32)
    jsonl = sample_trace(**TRACE_ARGS).to_jsonl()
    imported, parse_wall = run.op("trace_import.parse_trace", parse_trace, jsonl)
    parse_walls = [parse_wall]
    programs = [
        Program("fft", fft_model(4096), 32, timing32),
        Program("halo", halo_model(iterations=5, nx=16, dims=3, reduce_every=1), 16, timing16),
        Program("amg", amg_model(), 32, timing32),
        Program("taskfarm", taskfarm_model(make_tasks(64, seed=run.seed)), 16, timing16),
        Program("imported", imported.model(), 16, timing16),
    ]
    compile_s, compiled = compile_cold(run, programs)
    warm_up(programs)
    run.setup_done()

    calls = EngineCalls(run, QUICK_RUNS if run.quick else RUNS)
    first_round = []
    for r in run.rounds():
        for prog in programs:
            seed = run.new_seed()
            pred = calls.call(prog, seed)
            if r == 0 and pred is not None:
                first_round.append((prog, seed, pred.times))
    if not run.trace:  # traced runs check every call already
        for prog, seed, times in first_round:
            calls.profiled(prog, seed, times)
    else:
        for _ in range(4):
            again, wall = run.op("trace_import.parse_trace", parse_trace, jsonl)
            run.check("trace re-parses to the same program",
                      again is not None and again.fingerprint == imported.fingerprint)
            parse_walls.append(wall)
        run.report("trace_import.parse_ms", median(parse_walls) * 1e3, len(parse_walls))
    calls.report()
    calls.report_compiled(compile_s, compiled)


# -- MPIBench --------------------------------------------------------------------
CAMPAIGN_CONFIGS = [(2, 1), (8, 1), (16, 2), (32, 1), (64, 1)]
QUICK_CONFIGS = [(2, 1), (64, 1)]
#: across the 16 KiB eager -> rendezvous switch
CAMPAIGN_SIZES = [0, 1024, 16384, 65536]
CAMPAIGN_REPS = 40


def mpibench_campaign(run) -> None:
    """Seeded MPIBench isend campaigns on the simulated Perseus; PEVPM
    does no work here."""
    from repro.mpibench import BenchSettings, MPIBench
    from repro.simnet import perseus

    spec = perseus(64)
    settings = BenchSettings(reps=CAMPAIGN_REPS, warmup=5)
    MPIBench(spec, seed=0, settings=BenchSettings(reps=2, warmup=1)).run_isend_all(2, 1, [0])
    run.setup_done()

    configs = QUICK_CONFIGS if run.quick else CAMPAIGN_CONFIGS
    traced_walls, campaign_samples = [], []
    for _ in run.rounds():
        bench = MPIBench(spec, seed=run.new_seed(), settings=settings)
        means, samples = {}, 0
        for nodes, ppn in configs:
            label = f"{nodes}x{ppn}"
            res, wall = run.op("mpibench.run_isend_all", bench.run_isend_all, nodes, ppn, CAMPAIGN_SIZES)
            if res is None:
                continue
            hists = [h for r in res.values() for h in r.histograms.values()]
            run.check(
                "every histogram holds reps x procs samples",
                len(hists) == 2 * len(CAMPAIGN_SIZES)
                and all(h.n == settings.reps * nodes * ppn for h in hists),
            )
            samples += sum(h.n for h in hists)
            run.record(label, wall, res["isend"].metadata["elapsed_simulated_s"] * nodes * ppn)
            means[label] = {s: h.mean for s, h in res["isend"].histograms.items()}
            if run.trace:
                # The untraced twin: same call and seed, no bench span.
                run.spans.enabled = False
                twin, twin_wall = run.op("mpibench.run_isend_all", bench.run_isend_all,
                                         nodes, ppn, CAMPAIGN_SIZES)
                run.spans.enabled = True
                run.check(
                    "same seed, same histograms",
                    twin is not None
                    and {s: h.mean for s, h in twin["isend"].histograms.items()} == means[label],
                )
                traced_walls.append((wall, twin_wall))
        campaign_samples.append(samples)
        if "2x1" in means and "64x1" in means:
            run.check(
                "64x1 mean above 2x1 mean at >= 16 KiB",
                all(means["64x1"][s] > means["2x1"][s] for s in CAMPAIGN_SIZES if s >= 16384),
            )
    run.report_ops()
    run.report("simnet.sim_per_wall", run.metrics["sim_per_wall"], run.counts["sim_per_wall"])
    run.report("mpibench.samples", median(campaign_samples), len(campaign_samples))
    for label, walls in run.shape_walls.items():
        run.report(f"mpibench.run_ms.{label}", median(walls) * 1e3, len(walls))
    if traced_walls:
        traced, untraced = map(sum, zip(*traced_walls))
        run.report("obs.trace_overhead_pct", (traced / untraced - 1) * 100, len(traced_walls))


# -- the prediction service ------------------------------------------------------
#: (model, nprocs, model_params) of the served mix, each requested equally often
SERVE_MIX = [
    ("jacobi", 8, {"iterations": 20}),
    ("halo", 16, {}),
    ("amg", 16, {}),
    ("fft", 16, {}),
]
SERVE_RUNS = 16
ROUND_REQUESTS = 300
QUICK_ROUND_REQUESTS = 60
#: seed popularity is Zipf(ZIPF_S) over SEED_RANGE seeds, offset per
#: round so every round starts with a cold cache; 84% of requests hit
#: the LRU
ZIPF_S = 2.0
SEED_RANGE = 512
SERVER_STARTS = 3
#: requests between two host-speed measurements
CHUNK_REQUESTS = 50
CHECKED_RESPONSES = 8


class Server:
    """A ``repro serve`` subprocess on a free local port."""

    def __init__(self, traced: bool):
        cmd = [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--db", str(DB_PATH), "--workers", "1",
            "--no-seed-registry",
        ]
        if not traced:
            cmd.append("--no-trace")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._drain = None
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            self.port = self._read_port()
            # Keep reading the log so the server never blocks on a full pipe.
            self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
            self._drain.start()
            self.client().healthz()
        except BaseException:
            self.close()
            raise
        finally:
            watchdog.cancel()
        self.start_s = time.perf_counter() - t

    def _read_port(self) -> int:
        for line in self.proc.stdout:
            m = re.search(r"listening on http://[^:]+:(\d+)", line)
            if m:
                return int(m.group(1))
        raise RuntimeError(f"repro serve exited with {self.proc.wait()} before listening")

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=60.0)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.proc.stdout.close()


def zipf_counts(n: int) -> list[int]:
    """Requests per popularity rank: the Zipf(:data:`ZIPF_S`) expected
    counts of *n* draws over :data:`SEED_RANGE` ranks, rounded by
    largest remainder.  Fixing them makes every round miss equally
    often; only which seeds and in what order come from ``--seed``."""
    weights = [1.0 / k**ZIPF_S for k in range(1, SEED_RANGE + 1)]
    expected = [n * w / sum(weights) for w in weights]
    counts = [int(e) for e in expected]
    by_remainder = sorted(range(SEED_RANGE), key=lambda k: counts[k] - expected[k])
    for k in by_remainder[: n - sum(counts)]:
        counts[k] += 1
    return [c for c in counts if c]


def round_requests(run, r: int, n: int) -> list[dict]:
    """Round *r*: each model of the mix n / 4 times, its seeds drawn
    from the round's own range with Zipf popularity, in seeded order."""
    requests = []
    counts = zipf_counts(n // len(SERVE_MIX))
    for model, nprocs, params in SERVE_MIX:
        seeds = run.rng.choice(SEED_RANGE, size=len(counts), replace=False) + r * SEED_RANGE
        requests += [
            {"model": model, "nprocs": nprocs, "model_params": params,
             "runs": SERVE_RUNS, "seed": int(seed)}
            for seed, count in zip(seeds, counts) for _ in range(count)
        ]
    return [requests[i] for i in run.rng.permutation(len(requests))]


def closed_loop(run, server: Server, requests: list[dict]):
    """Send *requests* from one client, each after the reply to the one
    before, measuring host speed between chunks of
    :data:`CHUNK_REQUESTS`.  Returns one ``(latency, status, doc)`` per
    request (status ``None`` on a transport error) and the busy time,
    both in seconds at reference speed."""
    client = server.client()
    results, busy = [], 0.0
    before = run.calibration_walls(3)
    try:
        for first in range(0, len(requests), CHUNK_REQUESTS):
            chunk = []
            start = time.perf_counter()
            for request in requests[first:first + CHUNK_REQUESTS]:
                t = time.perf_counter()
                try:
                    with run.spans("POST /predict"):
                        status, _, doc = client.predict_raw(request)
                except (OSError, http.client.HTTPException, ValueError):
                    status, doc = None, None
                chunk.append((time.perf_counter() - t, status, doc))
            wall = time.perf_counter() - start
            after = run.calibration_walls(3)
            scale = run.speed(before + after)
            before = after
            busy += wall * scale
            results += [(latency * scale, status, doc) for latency, status, doc in chunk]
    finally:
        client.close()
    return results, busy


def direct_times(db, request: dict) -> list[float]:
    """The times a direct predict() gives for a served request."""
    from repro.pevpm import predict, timing_from_db
    from repro.service.records import PredictRequest
    from repro.simnet import perseus

    req = PredictRequest.from_dict(request)
    model, vm_params = req.build_model(perseus())
    timing = timing_from_db(db, mode=req.timing_mode, source=req.timing_source, nprocs=req.nprocs)
    return predict(
        model, req.nprocs, timing, runs=req.runs, seed=req.seed, params=vm_params,
        nic_serialisation=req.nic_serialisation, ppn=req.ppn, vector_runs=req.vector_runs,
    ).times


def scrape(server: Server) -> dict:
    """``/metrics`` as ``{(name, labels): value}``."""
    client = server.client()
    try:
        text = client.metrics_text()
    finally:
        client.close()
    samples = {}
    for line in text.splitlines():
        m = re.match(r"^([A-Za-z_:][\w:]*)(?:\{([^}]*)\})?\s+(\S+)$", line)
        if m:
            samples[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return samples


def report_service(run, metrics: dict, latencies: list[float], scale: float) -> None:
    """Per-layer service numbers from a traced server's ``/metrics``;
    server-side seconds are brought to reference speed by *scale*."""

    def total(name):
        return sum(v for (n, _), v in metrics.items() if n == name)

    def stage(name):
        key = f'stage="{name}"'
        return (metrics.get(("repro_stage_seconds_sum", key), 0.0) * scale,
                metrics.get(("repro_stage_seconds_count", key), 0.0))

    def per(num, den):
        return num / den if den else 0.0

    request_s, requests = stage("request")
    run.report("service.request_ms", per(request_s, requests) * 1e3, int(requests))
    run.report("service.client_overhead_ms",
               (per(sum(latencies), len(latencies)) - per(request_s, requests)) * 1e3)
    cache_s, cache_n = stage("cache")
    run.report("service.cache_ms", per(cache_s, cache_n) * 1e3, int(cache_n))
    hits, misses = total("repro_cache_hits_total"), total("repro_cache_misses_total")
    run.report("service.cache.hit_ratio", per(hits, hits + misses), int(hits + misses))
    batch_s, batch_n = stage("batch")
    run.report("service.batch_ms", per(batch_s, batch_n) * 1e3, int(batch_n))
    engine_s, engines = stage("engine")
    run.report("service.engine_ms", per(engine_s, engines) * 1e3, int(engines))
    attributed = 0.0
    for phase in ("sweep", "match", "sample", "serialize"):
        seconds, _ = stage(f"engine.{phase}")
        attributed += seconds
        if phase != "serialize":
            run.report(f"service.engine.{phase}_ms", per(seconds, engines) * 1e3, int(engines))
    run.report("service.engine.unattributed_ms", per(engine_s - attributed, engines) * 1e3)


def serve_zipf(run) -> None:
    """A closed loop of one client against ``repro serve``.  Untraced
    runs time the server's start three times; traced runs send every
    round to an untraced and a traced server in turn."""
    db = load_db(run)  # also verifies the file the server is about to load
    servers: list[Server] = []
    try:
        if run.trace:
            servers = [Server(traced=False), Server(traced=True)]
            run.setup_done([])
        else:
            starts = []
            for i in range(1 if run.quick else SERVER_STARTS):
                if servers:
                    servers.pop().close()
                servers.append(Server(traced=False))
                starts.append(servers[-1].start_s * run.speed(run.calibration_walls(5)))
            run.setup_done(starts)

        size = QUICK_ROUND_REQUESTS if run.quick else ROUND_REQUESTS
        busy = [0.0 for _ in servers]
        checked: dict[str, tuple[dict, list]] = {}
        for r in run.rounds():
            requests = round_requests(run, r, size)
            # The last server is the measured one; a traced run first
            # sends the same round to the untraced server.
            for i, server in enumerate(servers):
                with run.spans("serve.round"):
                    results, round_busy = closed_loop(run, server, requests)
                busy[i] += round_busy
                run.attempted += len(results)
                for request, (latency, status, doc) in zip(requests, results):
                    if status != 200 or not isinstance(doc, dict) or "times" not in doc:
                        run.failed += 1
                        continue
                    if i == len(servers) - 1:
                        run.record("request", latency, sum(doc["times"]) * doc["nprocs"])
                    key = json.dumps(request, sort_keys=True)
                    if len(checked) < CHECKED_RESPONSES:
                        checked.setdefault(key, (request, doc["times"]))
            # Busy time includes the client's own work between requests.
            run.round_stats[-1][1] = round_busy
        if run.trace:
            metrics = scrape(servers[1])
            report_service(run, metrics, run.shape_walls.get("request", []), median(run.scales))
            run.report("obs.trace_overhead_pct", (busy[1] / busy[0] - 1) * 100,
                       len(run.round_stats))
    finally:
        for server in servers:
            server.close()

    for request, times in checked.values():
        run.check("served times == direct predict() times", direct_times(db, request) == times)
    run.report_ops()


WORKLOADS = {
    "fig6-jacobi": fig6_jacobi,
    "collectives-mix": collectives_mix,
    "mpibench-campaign": mpibench_campaign,
    "serve-zipf": serve_zipf,
}
