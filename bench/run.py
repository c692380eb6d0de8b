#!/usr/bin/env python3
"""Benchmark of the MPIBench + PEVPM reproduction.

Times the package's public entry points from outside, on one workload
per process (bench/README.md says why each workload exists)::

    python3 bench/run.py --workload fig6-jacobi --seed 1 [--seconds N] [--trace 0|1] [--out FILE]
    python3 bench/run.py --all --seed 1 [--trace 0|1] [--out DIR]

An untraced run (``--trace 0``, the default) measures every end-to-end
metric of BENCHMARK.json; a traced run (``--trace 1`` or bare
``--trace``) measures every per-layer metric instead.  Each metric is
printed as ``name value unit``; output checks run in both modes, and a
failed check, a raised exception or a non-200 response counts in
``failed``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Inputs are generated from ``--seed`` alone.  ``--out`` writes the row
(metrics, checks, bench-side spans, and the commit / host / version
tags) as JSON for ``bench/compare.py``.  ``--quick`` shrinks every
workload to one round for the smoke test.  The script puts
``<checkout>/src`` on ``sys.path`` itself and exits 2 without a result
when the package sources are missing.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: fresh processes that repeat a library workload's set-up, besides the
#: measuring process itself; ``setup_s`` is the median of all of them
SETUP_PROBES = 2

#: Wall seconds of :func:`calibration_loop` on the reference host.  The
#: host this benchmark was built on changes speed by up to 1.5x within a
#: second (CPU time moves with wall time, so this is not accounted
#: steal), so every reported time is scaled to reference speed:
#: multiplied by this over the loop's median wall measured around it.
CALIBRATION_REF_S = 0.003


def calibration_loop() -> None:
    """Fixed interpreter and numpy work whose wall time tracks host speed."""
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    x = np.linspace(0.0, 1.0, 2000)
    for _ in range(50):
        x = np.sort(x)[::-1] * 1.0001


class Spans:
    """Bench-side spans around each public call (name, start, end, parent,
    id), kept in memory and written to ``--out`` at exit.  Recording is
    off in untraced runs."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def __call__(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.records.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start - T0, "end": time.perf_counter() - T0,
            })


class Run:
    """One benchmark run: its inputs, counters, checks and metrics."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = 0.0 if args.quick else args.seconds
        self.trace = bool(args.trace)
        self.quick = args.quick
        self.setup_only = args.setup_only
        self.rng = np.random.default_rng(args.seed)
        self.spans = Spans(self.trace)
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.metrics: dict[str, float] = {}
        self.counts: dict[str, int] = {}  #: samples behind a metric
        self.setup_samples: list[float] = []
        #: reference-speed factor applied to the last op's wall
        self.scale = 1.0
        self.scales: list[float] = []  #: every factor measured
        #: shape -> reference-speed seconds of each successful op
        self.shape_walls: dict[str, list[float]] = {}
        #: per round: [ops, busy seconds, simulated processor-seconds]
        self.round_stats: list[list[float]] = []

    @staticmethod
    def calibration_walls(samples: int) -> list[float]:
        walls = []
        for _ in range(samples):
            t = time.perf_counter()
            calibration_loop()
            walls.append(time.perf_counter() - t)
        return walls

    def speed(self, walls: list[float]) -> float:
        """Host speed factor: :data:`CALIBRATION_REF_S` over the median
        of calibration loop *walls*."""
        self.scales.append(CALIBRATION_REF_S / float(np.median(walls)))
        return self.scales[-1]

    def new_seed(self) -> int:
        return int(self.rng.integers(2**31))

    def rounds(self):
        """Round indices until the measuring window closes; a round that
        starts inside the window finishes, and there is always one."""
        deadline = time.perf_counter() + self.seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            self.round_stats.append([0, 0.0, 0.0])
            yield r
            r += 1

    def record(self, shape: str, wall: float, sim_proc_s: float = 0.0) -> None:
        """One successful op of the current round."""
        self.shape_walls.setdefault(shape, []).append(wall)
        stats = self.round_stats[-1]
        stats[0] += 1
        stats[1] += wall
        stats[2] += sim_proc_s

    def op(self, name: str, fn, *args, **kwargs):
        """One timed call into the program: ``(result, seconds at
        reference speed)``.  A raised exception counts as a failed op and
        gives ``None``.  Host speed is measured just before and just
        after the call."""
        before = self.calibration_walls(3)
        self.attempted += 1
        t = time.perf_counter()
        try:
            with self.spans(name):
                result = fn(*args, **kwargs)
        except Exception as exc:  # any failure of the program under test
            self.failed += 1
            print(f"{name} failed: {exc!r}", file=sys.stderr)
            result = None
        wall = time.perf_counter() - t
        self.scale = self.speed(before + self.calibration_walls(3))
        return result, wall * self.scale

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)

    def report(self, name: str, value: float, n: int | None = None) -> None:
        if name not in UNITS:
            raise KeyError(f"{name} is not a metric of BENCHMARK.json")
        self.metrics[name] = float(value)
        if n is not None:
            self.counts[name] = n

    def report_ops(self) -> None:
        """The end-to-end op metrics every workload reports.  ``op_p50``
        is the geometric mean over the workload's shapes of each shape's
        exact median, so no percentile falls between two shapes;
        ``op_p90`` scales it by the 90th percentile of every op's wall
        over its shape's median.  With one shape both are the plain
        percentiles.  Rates are medians over rounds."""
        walls = [w for w in self.shape_walls.values() if w]
        rounds = [r for r in self.round_stats if r[0]]
        if not walls:
            raise RuntimeError("no operation succeeded")
        medians = [np.median(w) for w in walls]
        typical = float(np.exp(np.mean(np.log(medians))))
        relative = np.concatenate([np.asarray(w) / m for w, m in zip(walls, medians)])
        n = len(relative)
        self.report("op_p50_ms", typical * 1e3, n)
        self.report("op_p90_ms", typical * float(np.percentile(relative, 90)) * 1e3, n)
        self.report("ops_per_s", median(ops / busy for ops, busy, _ in rounds), len(rounds))
        self.report("sim_per_wall", median(sim / busy for _, busy, sim in rounds), len(rounds))

    def setup_done(self, samples: list[float] | None = None) -> None:
        """Mark the end of set-up.  *samples* are set-up times the
        workload measured itself; otherwise ``setup_s`` is the median of
        this process's own set-up time and :data:`SETUP_PROBES` fresh
        processes repeating it."""
        own = time.perf_counter() - T0
        own *= self.speed(self.calibration_walls(5))
        if self.setup_only:
            print(f"{own!r}")
            raise SystemExit(0)
        if samples is None:
            samples = [own]
            if not (self.quick or self.trace):
                samples += [probe_setup(self) for _ in range(SETUP_PROBES)]
        self.setup_samples = samples


def probe_setup(run: Run) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", run.workload,
         "--seed", str(run.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def tags() -> dict:
    """Provenance of a row: commit, dirty flag, host and versions."""

    def git(*cmd):
        # The ceiling keeps git from adopting a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(
                ["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=10,
            )
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def finish(run: Run, out: str | None) -> dict:
    kind = "per_layer" if run.trace else "end_to_end"
    if not run.trace:
        run.report("setup_s", float(np.median(run.setup_samples)), len(run.setup_samples))
    names = [m["name"] for m in SPEC[kind]]
    missing = [n for n in names if n not in run.metrics]
    if missing and not run.trace:
        raise RuntimeError(f"{run.workload} did not measure {missing}")
    if not all(np.isfinite(list(run.metrics.values()))):
        raise RuntimeError(f"non-finite metric in {run.metrics}")
    # A layer the workload never enters reads 0 (bench/README.md lists
    # which workload fills which layer).
    metrics = {
        n: {"value": run.metrics.get(n, 0.0), "unit": UNITS[n]} for n in names
    }
    for name, m in metrics.items():
        n = run.counts.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{suffix}")
    for name, ok in run.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    if out:
        row = {
            "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
            "seconds": run.seconds, **tags(), **result,
            "counts": run.counts, "checks": run.checks,
            "setup_samples": run.setup_samples,
            "host_scale": float(np.median(run.scales)) if run.scales else None,
            "shape_walls": run.shape_walls, "round_stats": run.round_stats,
            "host_scales": run.scales,
            "spans": run.spans.records,
        }
        Path(out).write_text(json.dumps(row, indent=1) + "\n")
    return result


def run_all(args) -> int:
    """Every workload in a fresh process; the last line sums them up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    for w in SPEC["workloads"]:
        name = w["name"]
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        if args.out:
            cmd += ["--out", str(Path(args.out) / f"{name}-s{args.seed}-t{args.trace}.json")]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: measure the per-layer metrics instead")
    parser.add_argument("--out", help="write the JSON row here (a directory with --all)")
    parser.add_argument("--quick", action="store_true", help="one small round (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    # One CPU for this process and every process it starts, so the
    # calibration loop measures the CPU the program runs on.  Every
    # workload is single-threaded or, for the server, alternates with
    # its one client.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run = Run(args)
    workloads.WORKLOADS[args.workload](run)
    result = finish(run, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
