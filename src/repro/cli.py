"""Command-line interface: ``repro`` (or ``python -m repro``).

Subcommands:

* ``repro info``      -- describe the simulated cluster;
* ``repro bench``     -- run an MPIBench campaign, print the Figure 1/2
  style table, optionally save the distribution database as JSON;
* ``repro pdf``       -- print distribution tables/ASCII plots for one
  configuration (the Figure 3/4 views);
* ``repro predict``   -- build/load a database and predict a registered
  workload's run time with PEVPM (``--model jacobi|fft|taskfarm|halo|amg``,
  ``--model-params JSON``), comparing timing modes (``--json`` for the
  machine-readable record the service also serves);
* ``repro import-trace`` -- parse a recorded MPI trace (JSON-lines or
  OTF2-like text) into a validated model program; ``--export`` the
  canonical form, ``--upload`` it to a service's ``/programs``
  endpoint, or ``--predict`` it locally across timing modes;
* ``repro serve``     -- run the prediction service (HTTP/JSON); drains
  gracefully on SIGTERM/SIGINT, and ``--chaos`` enables the
  fault-injection endpoint;
* ``repro loadgen``   -- drive a running service with closed-loop load
  (``--retries`` adds client-side backoff);
* ``repro registry``  -- manage the service's distribution registry
  (list / upload / promote / delete versioned cluster databases);
* ``repro chaos``     -- arm deterministic faults on a ``--chaos``
  server (corrupt/delay the disk cache, stall the evaluator) and
  inspect what fired;
* ``repro trace``     -- fetch recent request traces from a running
  service and render them as per-stage ASCII waterfalls.

Exit codes: 0 on success, 3 when the modelled (or simulated) program
deadlocks -- deadlock discovery is a PEVPM feature (Section 5), and
scripts must be able to distinguish it from success.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._tables import format_table, format_time
from .apps.jacobi import jacobi_serial_time, jacobi_smpi, parse_jacobi
from .mpibench import BenchSettings, DistributionDB, MPIBench
from .mpibench.report import average_times_table, pdf_plots, tail_report
from .pevpm import ModelDeadlock, compare_timing_modes
from .simnet import perseus
from .smpi import MpiDeadlock, run_program

__all__ = ["main", "build_parser"]

DEFAULT_SIZES = [0, 256, 1024, 4096, 16384, 65536]

#: exit code for deadlock detected in the model or the simulated run
EXIT_DEADLOCK = 3


def _parse_config(text: str) -> tuple[int, int]:
    """Parse an ``NxP`` configuration label like ``64x2``."""
    try:
        nodes, ppn = text.lower().split("x")
        return int(nodes), int(ppn)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"config must look like '8x1' or '64x2', got {text!r}"
        ) from None


def _quick_campaign(seed: int, reps: int = 50) -> DistributionDB:
    """The small MPIBench campaign ``predict``, ``import-trace
    --predict`` and ``serve`` measure when given no ``--db``."""
    bench = MPIBench(perseus(), seed=seed, settings=BenchSettings(reps=reps))
    configs = [(1, 2), (2, 1), (8, 1), (16, 1), (32, 1)]
    return bench.sweep_isend(configs, sizes=[0, 512, 1024, 2048])


def _serve_workers(text: str) -> int:
    """``repro serve --workers``: only 1 is accepted.  A server
    evaluates in its own process; more cores serve through shards."""
    if text.strip() != "1":
        raise argparse.ArgumentTypeError(
            f"only 1 is accepted, got {text!r}; serve on more cores "
            "with --shards N"
        )
    return 1


def _int_at_least(low: int):
    """argparse type: an integer of at least *low*."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's message for a non-number
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a number greater than 0 (not NaN)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be greater than 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPIBench + PEVPM reproduction (Grove & Coddington)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="describe the simulated cluster")
    p_info.add_argument("--nodes", type=int, default=116)

    p_bench = sub.add_parser("bench", help="run an MPIBench campaign")
    p_bench.add_argument(
        "--config", type=_parse_config, action="append", dest="configs",
        help="NxP configuration, repeatable (default: 2x1 8x1 32x1)",
    )
    p_bench.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    p_bench.add_argument("--reps", type=int, default=60)
    p_bench.add_argument(
        "--target-rse", type=float, default=None, metavar="FRAC",
        help="auto-reps: after the first --reps repetitions keep doubling "
             "until every (op, size) mean has a 95%% CI half-width within "
             "this fraction of the mean (e.g. 0.01), or --max-reps is hit",
    )
    p_bench.add_argument(
        "--max-reps", type=int, default=1600, metavar="N",
        help="auto-reps spend cap per message size (default 1600)",
    )
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--save", metavar="FILE", help="save DB as JSON")
    p_bench.add_argument(
        "--export", metavar="FILE.dat",
        help="also write the mean-time curves as a gnuplot .dat series",
    )

    p_pdf = sub.add_parser("pdf", help="show timing distributions (Fig 3/4)")
    p_pdf.add_argument("--config", type=_parse_config, default=(64, 1))
    p_pdf.add_argument("--sizes", type=int, nargs="+", default=[0, 1024, 16384])
    p_pdf.add_argument("--reps", type=int, default=60)
    p_pdf.add_argument("--seed", type=int, default=1)

    p_pred = sub.add_parser(
        "predict", help="PEVPM prediction of a registered workload (Fig 6)"
    )
    p_pred.add_argument(
        "--model", default="jacobi",
        choices=["jacobi", "fft", "taskfarm", "halo", "amg"],
        help="workload to predict (the service's model registry; "
             "imported traces go through 'repro import-trace')",
    )
    p_pred.add_argument(
        "--model-params", metavar="JSON", default=None,
        help="model parameters as JSON, e.g. '{\"nx\": 32, \"px\": 2}' "
             "(defaults: GET /models on a running service)",
    )
    p_pred.add_argument("--db", metavar="FILE", help="load a saved DistributionDB")
    p_pred.add_argument("--nprocs", type=int, default=16)
    p_pred.add_argument("--ppn", type=int, default=1)
    p_pred.add_argument("--iterations", type=int, default=200)
    p_pred.add_argument("--runs", type=int, default=5)
    p_pred.add_argument(
        "--target-rse", type=float, default=None, metavar="FRAC",
        help="adaptive mode: ignore --runs and keep doubling Monte Carlo "
             "runs until each mode's mean has a 95%% CI half-width within "
             "this fraction of the mean (e.g. 0.01)",
    )
    p_pred.add_argument(
        "--min-runs", type=int, default=4, metavar="N",
        help="adaptive mode: first total evaluated (default 4)",
    )
    p_pred.add_argument(
        "--max-runs", type=int, default=256, metavar="N",
        help="adaptive mode: hard run cap (default 256)",
    )
    p_pred.add_argument("--seed", type=int, default=1)
    p_pred.add_argument(
        "--measure", action="store_true",
        help="also run the real (simulated) Jacobi for comparison",
    )
    p_pred.add_argument(
        "--cache-dir", metavar="DIR",
        help="reuse finished predictions from this on-disk cache",
    )
    p_pred.add_argument(
        "--json", action="store_true",
        help="print the machine-readable prediction record (the same "
             "serialisation the prediction service returns) instead of "
             "the table",
    )

    p_imp = sub.add_parser(
        "import-trace",
        help="parse a recorded MPI trace into a predictable model program",
    )
    p_imp.add_argument(
        "file", metavar="FILE",
        help="trace file (JSON-lines or OTF2-like text; '-' reads stdin)",
    )
    p_imp.add_argument(
        "--name", default=None,
        help="program name (default: the trace's own, else the file stem)",
    )
    p_imp.add_argument(
        "--export", metavar="FILE", default=None,
        help="re-export the validated program as canonical JSON-lines",
    )
    p_imp.add_argument(
        "--upload", action="store_true",
        help="POST the trace to a running service's /programs endpoint",
    )
    p_imp.add_argument("--host", default="127.0.0.1")
    p_imp.add_argument("--port", type=int, default=8080)
    p_imp.add_argument("--tenant", default=None, metavar="NAME")
    p_imp.add_argument(
        "--predict", action="store_true",
        help="predict the imported program locally across timing modes",
    )
    p_imp.add_argument(
        "--db", metavar="FILE",
        help="DistributionDB for --predict (default: quick campaign)",
    )
    p_imp.add_argument("--runs", type=int, default=5)
    p_imp.add_argument("--seed", type=int, default=1)
    p_imp.add_argument(
        "--json", action="store_true",
        help="print the program's metadata record as JSON",
    )

    p_serve = sub.add_parser(
        "serve", help="run the HTTP/JSON prediction service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8100)
    p_serve.add_argument(
        "--shards", type=_int_at_least(1), default=1, metavar="N",
        help="server processes to run (N > 1: supervised sharded tier "
             "behind a consistent-hash router, sharing one disk cache); "
             "the way to serve on more than one core",
    )
    p_serve.add_argument(
        "--db", metavar="FILE",
        help="serve from a saved DistributionDB (default: run a quick "
             "benchmark campaign at start-up)",
    )
    p_serve.add_argument(
        "--reps", type=int, default=50,
        help="benchmark repetitions for the start-up campaign (no --db)",
    )
    p_serve.add_argument("--seed", type=int, default=1)
    p_serve.add_argument(
        "--workers", type=_serve_workers, default=1, metavar="1",
        help="accepted for compatibility; only 1 (each server evaluates "
             "in its own process -- use --shards N for more cores)",
    )
    p_serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="on-disk prediction cache tier (repro predict --cache-dir "
             "may share the directory, but not its entries)",
    )
    p_serve.add_argument(
        "--lru-size", type=_int_at_least(0), default=1024,
        help="in-memory prediction cache entries (0 disables the tier)",
    )
    p_serve.add_argument(
        "--max-batch", type=_int_at_least(1), default=8,
        help="most requests evaluated together; requests queued while "
             "the evaluator is busy share its next batch",
    )
    p_serve.add_argument("--queue-limit", type=_int_at_least(1), default=64)
    p_serve.add_argument(
        "--deadline-s", type=_positive_float, default=30.0,
        help="default per-request deadline (504 when exceeded)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=_int_at_least(1), default=5,
        help="consecutive engine failures that open the circuit breaker",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=_positive_float, default=2.0,
        help="seconds the open breaker sheds before probing the engine",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds to let in-flight requests finish on SIGTERM/SIGINT",
    )
    p_serve.add_argument(
        "--chaos", action="store_true",
        help="enable the /chaos fault-injection endpoint (repro chaos)",
    )
    p_serve.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the fault injector's own randomness",
    )
    p_serve.add_argument(
        "--no-trace", action="store_true",
        help="disable request tracing (spans, /trace, X-Repro-Trace)",
    )
    p_serve.add_argument(
        "--trace-buffer", type=_int_at_least(1), default=256, metavar="N",
        help="finished traces kept in the ring buffer behind GET /trace",
    )
    p_serve.add_argument(
        "--log-json", action="store_true",
        help="emit one structured JSON log line per served /predict",
    )
    p_serve.add_argument(
        "--registry-dir", metavar="DIR",
        help="on-disk distribution registry root (default: in-memory "
             "standalone; a shared temp dir with --shards)",
    )
    p_serve.add_argument(
        "--seed-registry", action=argparse.BooleanOptionalAction,
        default=True,
        help="register the built-in cluster fleet (gigabit + degraded "
             "perseus) at start-up (--no-seed-registry skips the fits)",
    )
    p_serve.add_argument(
        "--seed-reps", type=int, default=24,
        help="benchmark repetitions for the built-in registry fits",
    )
    p_serve.add_argument(
        "--tenant-rate", type=float, default=0.0, metavar="RPS",
        help="per-tenant request rate limit (token bucket; 0 disables)",
    )

    p_trace = sub.add_parser(
        "trace", help="fetch traces from a running service as waterfalls"
    )
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument("--port", type=int, default=8100)
    p_trace.add_argument(
        "--id", default=None, metavar="TRACE_ID",
        help="one specific trace (default: the most recent ones)",
    )
    p_trace.add_argument(
        "--limit", type=int, default=5, metavar="N",
        help="how many recent traces to show (without --id)",
    )
    p_trace.add_argument(
        "--json", action="store_true",
        help="print the raw trace documents instead of waterfalls",
    )

    p_chaos = sub.add_parser(
        "chaos", help="arm faults on a --chaos prediction service"
    )
    p_chaos.add_argument(
        "action",
        choices=[
            "status", "corrupt-cache", "delay-cache", "stall", "plan",
        ],
        help="fault to arm (or 'status' to inspect the injector)",
    )
    p_chaos.add_argument("--host", default="127.0.0.1")
    p_chaos.add_argument("--port", type=int, default=8100)
    p_chaos.add_argument(
        "--seconds", type=float, default=0.05,
        help="stall/delay duration for delay-cache, stall and plan",
    )
    p_chaos.add_argument(
        "--at", type=int, default=None, metavar="N",
        help="site event index to fire on (default: next event)",
    )
    p_chaos.add_argument(
        "--key", default=None,
        help="corrupt-cache: a specific request key (default: seeded pick)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="plan: the schedule seed"
    )
    p_chaos.add_argument(
        "--length", type=int, default=4, help="plan: number of faults"
    )

    p_reg = sub.add_parser(
        "registry", help="manage a running service's distribution registry"
    )
    reg_sub = p_reg.add_subparsers(dest="registry_command", required=True)

    def _reg_common(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8100)
        p.add_argument(
            "--tenant", default=None,
            help="tenant namespace (X-Repro-Tenant; default: public)",
        )
        p.add_argument(
            "--json", action="store_true",
            help="print the raw response document",
        )

    p_reg_ls = reg_sub.add_parser("ls", help="list the registry fleet")
    _reg_common(p_reg_ls)

    p_reg_add = reg_sub.add_parser(
        "add", help="upload a database (a saved JSON file or a fitted topology)"
    )
    _reg_common(p_reg_add)
    p_reg_add.add_argument(
        "--db", metavar="FILE",
        help="a saved DistributionDB JSON to upload verbatim",
    )
    p_reg_add.add_argument(
        "--topology", metavar="NAME",
        help="a simnet topology to simulate and fit server-side "
             "(perseus, gigabit, perseus-degraded, ideal)",
    )
    p_reg_add.add_argument(
        "--nodes", type=int, default=None, help="topology node count"
    )
    p_reg_add.add_argument(
        "--reps", type=int, default=24, help="topology fit repetitions"
    )
    p_reg_add.add_argument(
        "--seed", type=int, default=7, help="topology fit seed"
    )
    p_reg_add.add_argument(
        "--alias", default=None,
        help="also point this alias at the uploaded database",
    )

    p_reg_promote = reg_sub.add_parser(
        "promote", help="hot-swap an alias to a database (zero restart)"
    )
    _reg_common(p_reg_promote)
    p_reg_promote.add_argument("ref", help="target alias or fingerprint")
    p_reg_promote.add_argument("alias", help="alias to (re)point")

    p_reg_rm = reg_sub.add_parser("rm", help="delete a database")
    _reg_common(p_reg_rm)
    p_reg_rm.add_argument("ref", help="alias or fingerprint to delete")

    p_load = sub.add_parser(
        "loadgen", help="closed-loop load against a running service"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=8100)
    p_load.add_argument(
        "--concurrency", type=int, nargs="+", default=[1, 8],
        help="closed-loop client counts to sweep",
    )
    p_load.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds per concurrency level",
    )
    p_load.add_argument("--model", default="jacobi")
    p_load.add_argument("--nprocs", type=int, default=8)
    p_load.add_argument("--runs", type=int, default=16)
    p_load.add_argument(
        "--target-rse", type=float, default=None, metavar="FRAC",
        help="send adaptive precision-targeted requests (the service "
             "decides the run count; replaces --runs in the body)",
    )
    p_load.add_argument(
        "--model-params", metavar="JSON", default=None,
        help='model parameters, e.g. \'{"iterations": 20}\'',
    )
    p_load.add_argument(
        "--distinct-seeds", type=int, default=16, metavar="K",
        help="cycle requests over K distinct seeds (K distinct cache keys)",
    )
    p_load.add_argument(
        "--retries", type=int, default=0, metavar="K",
        help="client-side retry attempts with capped jittered backoff "
             "(0: measure the raw service, every 429/504 verbatim)",
    )
    p_load.add_argument(
        "--retry-base", type=float, default=0.05,
        help="first backoff step in seconds (doubles per attempt)",
    )
    p_load.add_argument(
        "--json", action="store_true",
        help="print per-level results as JSON instead of a table",
    )
    return parser


def cmd_info(args) -> int:
    spec = perseus(args.nodes)
    rows = [
        ["name", spec.name],
        ["nodes", spec.n_nodes],
        ["processors/node", spec.processors_per_node],
        ["link bandwidth", f"{spec.link_bandwidth * 8 / 1e6:.0f} Mbit/s"],
        ["switches", f"{spec.n_switches} x {spec.ports_per_switch} ports"],
        ["backplane/link", f"{spec.backplane_bandwidth * 8 / 1e9:.1f} Gbit/s"],
        ["eager threshold", f"{spec.eager_threshold} B"],
        ["TCP RTO", format_time(spec.tcp.rto)],
    ]
    print(format_table(["parameter", "value"], rows, title="Simulated cluster"))
    return 0


def cmd_bench(args) -> int:
    configs = args.configs or [(2, 1), (8, 1), (32, 1)]
    spec = perseus()
    bench = MPIBench(
        spec,
        seed=args.seed,
        settings=BenchSettings(
            reps=args.reps,
            target_rse=args.target_rse,
            max_reps=max(args.max_reps, args.reps),
        ),
    )
    db = bench.sweep_isend(configs, sizes=args.sizes)
    if args.target_rse is not None:
        for nodes, ppn in configs:
            meta = db.result("isend", nodes, ppn).metadata.get("auto_reps")
            if meta:
                state = "converged" if meta["converged"] else "hit cap"
                print(
                    f"auto-reps {nodes}x{ppn}: {meta['reps']} reps over "
                    f"{meta['rounds']} round(s), {state} "
                    f"(target RSE {meta['target_rse']:g})"
                )
        print()
    print(average_times_table(db, "isend", args.sizes, configs))
    if args.save:
        db.save(args.save)
        print(f"\nsaved distribution database to {args.save}")
    if args.export:
        from .mpibench import export_series

        out = export_series(db, "isend", args.export)
        print(f"exported gnuplot series to {out}")
    return 0


def cmd_pdf(args) -> int:
    nodes, ppn = args.config
    spec = perseus()
    bench = MPIBench(spec, seed=args.seed, settings=BenchSettings(reps=args.reps))
    result = bench.run_isend(nodes, ppn, args.sizes)
    print(pdf_plots(result, args.sizes))
    print()
    print(tail_report(result))
    return 0


def _resolve_workload(args, spec):
    """Build (params, model, vm_params, serial_time) for ``--model``.

    Parameters come from the service's model registry defaults, overridden
    by ``--model-params`` JSON.  For backward compatibility the jacobi
    model additionally honours ``--iterations`` (overridden in turn by an
    explicit ``--model-params`` entry).
    """
    from .apps import (
        amg_serial_time,
        fft_serial_time,
        halo_serial_time,
        make_tasks,
        taskfarm_serial_time,
    )
    from .service.records import MODELS

    defaults, builder = MODELS[args.model]
    params = dict(defaults)
    if args.model == "jacobi":
        params["iterations"] = args.iterations
    if args.model_params:
        overrides = json.loads(args.model_params)
        if not isinstance(overrides, dict):
            raise ValueError("--model-params must be a JSON object")
        unknown = sorted(set(overrides) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown {args.model} parameter(s): {', '.join(unknown)} "
                f"(expected a subset of: {', '.join(sorted(defaults))})"
            )
        params.update(overrides)
    model, vm_params = builder(spec, params)
    if args.model == "jacobi":
        serial = jacobi_serial_time(spec, params["iterations"])
    elif args.model == "fft":
        serial = fft_serial_time(params["n_points"])
    elif args.model == "taskfarm":
        serial = taskfarm_serial_time(make_tasks(
            params["n_tasks"], mean=params["task_mean"],
            cv=params["task_cv"], seed=params["task_seed"],
        ))
    elif args.model == "halo":
        serial = halo_serial_time(
            params["nx"], params["dims"], params["iterations"]
        )
    else:  # amg
        serial = amg_serial_time(
            params["nx"], params["dims"], params["iterations"]
        )
    return params, model, vm_params, serial


def cmd_predict(args) -> int:
    spec = perseus()
    if args.measure and args.model != "jacobi":
        print(
            "repro predict: --measure only supports the jacobi model "
            "(the other workloads have no smpi reference run)",
            file=sys.stderr,
        )
        return 2
    if args.target_rse is None and args.runs < 1:
        # Checked before the campaign; adaptive mode ignores --runs.
        print("repro predict: runs must be >= 1", file=sys.stderr)
        return 1
    try:
        params, model, vm_params, serial = _resolve_workload(args, spec)
    except ValueError as exc:
        print(f"repro predict: {exc}", file=sys.stderr)
        return 1
    if args.db:
        db = DistributionDB.load(args.db)
    else:
        if not args.json:
            print("no --db given: running a quick benchmark campaign first...")
        db = _quick_campaign(args.seed)
    try:
        preds = compare_timing_modes(
            model, args.nprocs, db, runs=args.runs, seed=args.seed,
            params=vm_params, ppn=args.ppn,
            cache_dir=args.cache_dir, target_rse=args.target_rse,
            min_runs=args.min_runs, max_runs=args.max_runs,
        )
        measured = None
        if args.measure:
            measured = run_program(
                spec, jacobi_smpi, nprocs=args.nprocs, ppn=args.ppn,
                seed=42, args=(args.iterations,),
            ).elapsed
    except (ModelDeadlock, MpiDeadlock) as exc:
        if args.json:
            print(json.dumps({"error": "deadlock", "detail": str(exc)}))
        print(f"repro predict: deadlock detected: {exc}", file=sys.stderr)
        return EXIT_DEADLOCK
    except ValueError as exc:
        print(f"repro predict: {exc}", file=sys.stderr)
        return 1
    if args.json:
        from .service.records import prediction_record

        doc = {
            "workload": {
                "model": args.model,
                "model_params": params,
                "nprocs": args.nprocs,
                "ppn": args.ppn,
                # Adaptive mode decides the run count per timing mode;
                # each prediction record carries its achieved total.
                "runs": None if args.target_rse is not None else args.runs,
                "target_rse": args.target_rse,
                "seed": args.seed,
            },
            "serial_time": serial,
            "db_fingerprint": db.fingerprint(),
            "predictions": {
                name: prediction_record(
                    pred,
                    seed=args.seed,
                    vector_batch=args.min_runs if args.target_rse is not None else None,
                    nic_serialisation="tx",
                    extra={"speedup": pred.speedup(serial)},
                )
                for name, pred in preds.items()
            },
        }
        if measured is not None:
            doc["measured_time"] = measured
        print(json.dumps(doc, indent=2))
        return 0
    rows = []
    adaptive = args.target_rse is not None
    if measured is not None:
        rows.append(["measured (simulated run)", format_time(measured),
                     f"{serial / measured:.2f}", "-"]
                    + (["-"] if adaptive else []))
    for name, pred in preds.items():
        err = (
            f"{(pred.mean_time - measured) / measured * 100:+.1f}%"
            if measured
            else "-"
        )
        row = [name, format_time(pred.mean_time),
               f"{pred.speedup(serial):.2f}", err]
        if adaptive:
            info = pred.precision or {}
            mark = "" if info.get("converged", True) else " (cap)"
            row.append(f"{pred.runs}{mark}")
        rows.append(row)
    headers = ["timing source", "predicted time", "speedup", "error"]
    if adaptive:
        headers.append("runs")
    print(
        format_table(
            headers,
            rows,
            title=f"{args.model} ({_params_summary(params)}) "
                  f"on {args.nprocs} procs (ppn={args.ppn})",
        )
    )
    if adaptive:
        print(f"\nadaptive: target RSE {args.target_rse:g}, "
              f"min {args.min_runs} / max {args.max_runs} runs per mode")
    if args.runs >= 2:
        from .pevpm import render_run_spread

        dist = preds.get("distribution-nxp")
        if dist is not None:
            print()
            print(render_run_spread(dist.times))
    return 0


def _params_summary(params: dict) -> str:
    return ", ".join(f"{k}={params[k]}" for k in sorted(params))


def cmd_import_trace(args) -> int:
    from pathlib import Path

    from .trace_import import TraceDeadlock, TraceError, parse_trace

    if args.predict and args.runs < 1:
        print("repro import-trace: runs must be >= 1", file=sys.stderr)
        return 1
    if args.file == "-":
        text = sys.stdin.read()
        default_name = args.name
    else:
        path = Path(args.file)
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"repro import-trace: {exc}", file=sys.stderr)
            return 1
        default_name = args.name or path.stem
    try:
        program = parse_trace(text, name=default_name)
    except TraceDeadlock as exc:
        if args.json:
            print(json.dumps({"error": "deadlock", "detail": str(exc)}))
        print(f"repro import-trace: deadlock detected: {exc}",
              file=sys.stderr)
        return EXIT_DEADLOCK
    except TraceError as exc:
        if args.json:
            print(json.dumps({"error": "invalid trace", "detail": str(exc)}))
        print(f"repro import-trace: invalid trace: {exc}", file=sys.stderr)
        return 1
    meta = program.meta()
    if args.export:
        Path(args.export).write_text(program.to_jsonl())
        if not args.json:
            print(f"exported canonical JSON-lines to {args.export}")
    if args.upload:
        from .service import ServiceClient, ServiceError

        client = ServiceClient(args.host, args.port, tenant=args.tenant)
        try:
            meta = client.program_add(text, name=program.name)
        except ServiceError as exc:
            print(f"repro import-trace: upload failed: {exc}",
                  file=sys.stderr)
            return 1
        except OSError as exc:
            print(
                f"repro import-trace: cannot reach "
                f"{args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 1
        finally:
            client.close()
        if not args.json:
            print(f"uploaded program {meta['fingerprint']} "
                  f"to {args.host}:{args.port}")
    doc = dict(meta)
    if args.predict:
        if args.db:
            db = DistributionDB.load(args.db)
        else:
            if not args.json:
                print("no --db given: running a quick benchmark "
                      "campaign first...")
            db = _quick_campaign(args.seed)
        try:
            preds = compare_timing_modes(
                program.model(), program.nprocs, db,
                runs=args.runs, seed=args.seed,
            )
        except ValueError as exc:
            print(f"repro import-trace: {exc}", file=sys.stderr)
            return 1
        doc["db_fingerprint"] = db.fingerprint()
        doc["predictions"] = {
            name: {"mean_time": pred.mean_time, "times": list(pred.times)}
            for name, pred in preds.items()
        }
        if not args.json:
            rows = [
                [name, format_time(pred.mean_time)]
                for name, pred in preds.items()
            ]
            print()
            print(format_table(
                ["timing source", "predicted time"], rows,
                title=f"{program.name} on {program.nprocs} procs",
            ))
    if args.json:
        print(json.dumps(doc, indent=2))
    elif not (args.export or args.upload or args.predict):
        print(f"{program.name}: {program.nprocs} procs, "
              f"{meta['events']} events, {meta['messages']} messages")
        print(f"fingerprint: {program.fingerprint}")
    return 0


def cmd_serve(args) -> int:
    from .obs import Tracer
    from .service import FaultInjector, PredictionService, ServiceServer

    if args.db:
        db = DistributionDB.load(args.db)
    else:
        print(
            f"no --db given: running a quick benchmark campaign "
            f"(reps={args.reps})...",
            flush=True,
        )
        db = _quick_campaign(args.seed, reps=args.reps)
    # The PredictionService options a standalone server and every shard
    # of a sharded one share.
    options = dict(
        lru_size=args.lru_size,
        max_batch=args.max_batch,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline_s,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        tenant_rate=args.tenant_rate,
    )
    if args.shards > 1:
        from .registry import RegistryStore
        from .registry.seeds import seed_builtin
        from .service.supervisor import Supervisor

        if args.chaos or args.log_json:
            print(
                "repro serve: --chaos and --log-json are per-process "
                "features; run them without --shards",
                file=sys.stderr,
            )
            return 2
        supervisor = Supervisor(
            args.db if args.db else db,
            args.shards,
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            drain_grace=args.drain_grace,
            tracing=not args.no_trace,
            trace_buffer=args.trace_buffer,
            registry_dir=args.registry_dir,
            **options,
        )
        # Seed the shared registry plane once, in the parent, before any
        # shard opens it -- every shard then lists the same fleet.
        if args.seed_registry:
            print(
                f"seeding built-in registry fleet (reps={args.seed_reps})...",
                flush=True,
            )
            try:
                seeded = seed_builtin(
                    RegistryStore(supervisor.registry_dir),
                    reps=args.seed_reps,
                )
            except BaseException:
                supervisor.stop()  # removes a temporary registry plane
                raise
            print(f"registry fleet: {json.dumps(sorted(seeded))}", flush=True)
        return supervisor.run()
    registry = None
    if args.registry_dir:
        from .registry import RegistryStore

        registry = RegistryStore(args.registry_dir)
    injector = FaultInjector(seed=args.chaos_seed) if args.chaos else None
    # Tracing is on by default for the served configuration (the CI
    # smoke scrapes /trace and the stage histograms); --no-trace keeps
    # every funnel call site on its guarded no-op path.
    tracer = None if args.no_trace else Tracer(capacity=args.trace_buffer)
    service = PredictionService(
        db,
        spec=perseus(),
        cache_dir=args.cache_dir,
        fault_injector=injector,
        tracer=tracer,
        log_json=args.log_json,
        registry=registry,
        **options,
    )
    if args.seed_registry:
        from .registry.seeds import seed_builtin

        print(
            f"seeding built-in registry fleet (reps={args.seed_reps})...",
            flush=True,
        )
        seeded = seed_builtin(service.registry, reps=args.seed_reps)
        print(f"registry fleet: {json.dumps(sorted(seeded))}", flush=True)
    if args.chaos:
        print("chaos mode: /chaos enabled", flush=True)
    server = ServiceServer(service, host=args.host, port=args.port)
    server.run(args.drain_grace, log=lambda line: print(line, flush=True))
    print("drained; bye", flush=True)
    return 0


def cmd_trace(args) -> int:
    from .obs import render_waterfall
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=10.0)
    try:
        if args.id is not None:
            docs = [client.trace(args.id)]
        else:
            docs = client.trace(limit=args.limit).get("traces", [])
    except ServiceError as exc:
        if exc.status == 404:
            print(f"repro trace: {exc}", file=sys.stderr)
            print(
                "(tracing may be disabled: restart the server without "
                "--no-trace)",
                file=sys.stderr,
            )
        else:
            print(f"repro trace: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"repro trace: cannot reach {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1
    finally:
        client.close()
    if args.json:
        print(json.dumps(docs if args.id is None else docs[0], indent=2))
        return 0
    if not docs:
        print("no traces recorded yet (serve a /predict first)")
        return 0
    for i, doc in enumerate(docs):
        if i:
            print()
        print(render_waterfall(doc))
    return 0


def cmd_chaos(args) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=10.0)
    try:
        if args.action == "status":
            doc = client.chaos()
        elif args.action == "plan":
            doc = client.chaos({
                "plan": {
                    "seed": args.seed,
                    "length": args.length,
                    "max_seconds": args.seconds,
                },
            })
        else:
            kind = {
                "corrupt-cache": "corrupt_cache",
                "delay-cache": "delay_cache",
                "stall": "stall_evaluator",
            }[args.action]
            payload = {"kind": kind, "seconds": args.seconds}
            if args.at is not None:
                payload["at"] = args.at
            if args.key is not None:
                payload["key"] = args.key
            doc = client.chaos(payload)
    except ServiceError as exc:
        if exc.status == 404:
            print(
                "repro chaos: the server is not in chaos mode "
                "(restart it with 'repro serve --chaos')",
                file=sys.stderr,
            )
        else:
            print(f"repro chaos: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"repro chaos: cannot reach {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1
    finally:
        client.close()
    print(json.dumps(doc, indent=2))
    return 0


def cmd_registry(args) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(
        args.host, args.port, timeout=120.0, tenant=args.tenant
    )
    try:
        if args.registry_command == "ls":
            doc = client.registry_list()
            if args.json:
                print(json.dumps(doc, indent=2))
                return 0
            aliases = doc.get("aliases", {})
            by_fpr: dict[str, list[str]] = {}
            for alias, fpr in aliases.items():
                by_fpr.setdefault(fpr, []).append(alias)
            rows = [
                [
                    entry.get("fingerprint", "")[:12],
                    entry.get("cluster", "?"),
                    entry.get("tenant", "?"),
                    str(entry.get("results", "?")),
                    str(entry.get("bytes", "?")),
                    ",".join(sorted(entry.get("aliases", []))) or "-",
                ]
                for entry in doc.get("dbs", [])
            ]
            print(
                format_table(
                    ["fingerprint", "cluster", "tenant", "results", "bytes",
                     "aliases"],
                    rows,
                    title="distribution registry",
                )
            )
            return 0
        if args.registry_command == "add":
            if bool(args.db) == bool(args.topology):
                print(
                    "repro registry add: give exactly one of --db FILE "
                    "or --topology NAME",
                    file=sys.stderr,
                )
                return 2
            if args.db:
                with open(args.db) as fh:
                    results = json.load(fh)
                doc = client.registry_add(results=results, alias=args.alias)
            else:
                topology = {
                    "spec": args.topology,
                    "reps": args.reps,
                    "seed": args.seed,
                }
                if args.nodes is not None:
                    topology["n_nodes"] = args.nodes
                doc = client.registry_add(topology=topology, alias=args.alias)
        elif args.registry_command == "promote":
            doc = client.registry_promote(args.ref, args.alias)
        else:  # rm
            doc = client.registry_delete(args.ref)
    except ServiceError as exc:
        print(f"repro registry: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(
            f"repro registry: cannot reach {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1
    finally:
        client.close()
    print(json.dumps(doc, indent=2))
    return 0


def cmd_loadgen(args) -> int:
    from .service.client import LoadGenerator, RetryPolicy, ServiceClient

    model_params = json.loads(args.model_params) if args.model_params else {}

    def request_factory(sequence: int) -> dict:
        body = {
            "model": args.model,
            "model_params": model_params,
            "nprocs": args.nprocs,
            "seed": sequence % args.distinct_seeds,
        }
        # runs and target_rse are mutually exclusive in the request
        # schema: adaptive bodies carry the precision target only.
        if args.target_rse is not None:
            body["target_rse"] = args.target_rse
        else:
            body["runs"] = args.runs
        return body

    # Fail fast (and warm the campaign-dependent code paths) before
    # unleashing the client threads.
    probe = ServiceClient(args.host, args.port)
    try:
        probe.healthz()
    finally:
        probe.close()
    retry = None
    if args.retries > 0:
        retry = RetryPolicy(retries=args.retries, base=args.retry_base)
    summaries = []
    for concurrency in args.concurrency:
        gen = LoadGenerator(
            args.host, args.port, request_factory, concurrency=concurrency,
            retry=retry,
        )
        result = gen.run(duration=args.duration)
        summaries.append(result.summary())
    if args.json:
        print(json.dumps(summaries, indent=2))
        return 0
    rows = [
        [
            str(s["concurrency"]), str(s["requests"]), str(s["errors"]),
            str(s["retries"]),
            f"{s['throughput_rps']:.1f}", f"{s['p50_ms']:.2f}",
            f"{s['p99_ms']:.2f}",
        ]
        for s in summaries
    ]
    print(
        format_table(
            ["clients", "requests", "errors", "retries", "rps", "p50 ms",
             "p99 ms"],
            rows,
            title=f"closed-loop load: {args.model} x{args.nprocs} "
                  f"({args.duration:g}s per level)",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "bench": cmd_bench,
        "pdf": cmd_pdf,
        "predict": cmd_predict,
        "import-trace": cmd_import_trace,
        "serve": cmd_serve,
        "registry": cmd_registry,
        "loadgen": cmd_loadgen,
        "chaos": cmd_chaos,
        "trace": cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
