"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_config, build_parser, main


class TestParser:
    def test_config_parsing(self):
        assert _parse_config("8x1") == (8, 1)
        assert _parse_config("64X2") == (64, 2)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_config("8")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_config("axb")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert capsys.readouterr().out.strip()

    def test_predict_has_no_workers_option(self, capsys):
        # Evaluation is serial; more cores serve through shards.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err


class TestInfo:
    def test_info_prints_cluster(self, capsys):
        assert main(["info", "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert "perseus" in out
        assert "100 Mbit/s" in out
        assert "2.1 Gbit/s" in out


class TestBench:
    def test_bench_prints_table_and_saves(self, capsys, tmp_path):
        db_path = tmp_path / "db.json"
        rc = main([
            "bench", "--config", "2x1", "--sizes", "0", "1024",
            "--reps", "10", "--save", str(db_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2x1" in out and "1024" in out
        assert db_path.exists()

        from repro.mpibench import DistributionDB

        db = DistributionDB.load(db_path)
        assert db.configs("isend") == [(2, 1)]


class TestPdf:
    def test_pdf_renders(self, capsys):
        rc = main([
            "pdf", "--config", "4x1", "--sizes", "1024", "--reps", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "size=1024B" in out
        assert "outlier" in out


class TestPredict:
    def test_predict_with_saved_db(self, capsys, tmp_path):
        db_path = tmp_path / "db.json"
        main([
            "bench", "--config", "2x1", "--config", "4x1",
            "--sizes", "0", "1024", "--reps", "10", "--save", str(db_path),
        ])
        capsys.readouterr()
        rc = main([
            "predict", "--db", str(db_path), "--nprocs", "4",
            "--iterations", "20", "--runs", "2", "--measure",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "distribution-nxp" in out
        assert "measured" in out
        assert "%" in out


class TestExport:
    def test_bench_export_dat(self, capsys, tmp_path):
        dat = tmp_path / "curves.dat"
        rc = main([
            "bench", "--config", "2x1", "--sizes", "0", "512",
            "--reps", "8", "--export", str(dat),
        ])
        assert rc == 0
        lines = dat.read_text().strip().splitlines()
        assert lines[0].startswith("# size")
        assert len(lines) == 3


@pytest.fixture()
def saved_db(tmp_path):
    db_path = tmp_path / "db.json"
    main([
        "bench", "--config", "2x1", "--config", "4x1",
        "--sizes", "0", "1024", "--reps", "10", "--save", str(db_path),
    ])
    return db_path


class TestPredictJson:
    def test_json_record_is_machine_readable(self, capsys, saved_db):
        import json

        capsys.readouterr()
        rc = main([
            "predict", "--db", str(saved_db), "--nprocs", "4",
            "--iterations", "20", "--runs", "2", "--seed", "3",
            "--json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"]["model"] == "jacobi"
        assert doc["workload"]["nprocs"] == 4
        assert doc["serial_time"] > 0
        assert doc["db_fingerprint"]
        record = doc["predictions"]["distribution-nxp"]
        # The record carries the seed and engine flags needed to replay
        # it -- the same serialisation the prediction service returns.
        assert record["seed"] == 3
        assert record["engine"]["vector_batch"] == 64
        assert len(record["times"]) == 2
        assert record["speedup"] > 0

    def test_json_matches_direct_predict(self, capsys, saved_db):
        import json

        from repro.apps.jacobi import parse_jacobi
        from repro.mpibench import DistributionDB
        from repro.pevpm import predict, timing_from_db
        from repro.simnet import perseus

        capsys.readouterr()
        main([
            "predict", "--db", str(saved_db), "--nprocs", "4",
            "--iterations", "20", "--runs", "2", "--seed", "3",
            "--json",
        ])
        doc = json.loads(capsys.readouterr().out)
        spec = perseus()
        db = DistributionDB.load(saved_db)
        direct = predict(
            parse_jacobi(), 4,
            timing_from_db(db, mode="distribution", nprocs=4),
            runs=2, seed=3,
            params={
                "iterations": 20, "xsize": 256,
                "serial_time": spec.jacobi_serial_time,
            },
        )
        assert doc["predictions"]["distribution-nxp"]["times"] == direct.times


class TestRunsBelowOne:
    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_predict_exits_1(self, capsys, saved_db, runs):
        capsys.readouterr()
        rc = main([
            "predict", "--db", str(saved_db), "--nprocs", "4",
            "--iterations", "20", "--runs", runs,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "repro predict: runs must be >= 1" in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_import_trace_predict_exits_1(self, capsys, saved_db, tmp_path, runs):
        from repro.trace_import import sample_trace

        path = tmp_path / "ring.jsonl"
        path.write_text(sample_trace(nprocs=4).to_jsonl())
        capsys.readouterr()
        rc = main([
            "import-trace", str(path), "--predict", "--db", str(saved_db),
            "--runs", runs,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "repro import-trace: runs must be >= 1" in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out


    @pytest.mark.parametrize("command", ["predict", "import-trace"])
    def test_rejected_before_the_quick_campaign(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # Without --db the command would first measure a campaign of a
        # few seconds; a bad --runs must fail before it starts.
        from repro.mpibench import MPIBench
        from repro.trace_import import sample_trace

        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran before --runs was checked")

        monkeypatch.setattr(MPIBench, "sweep_isend", no_campaign)
        if command == "predict":
            argv = ["predict", "--iterations", "20", "--runs", "0"]
        else:
            path = tmp_path / "ring.jsonl"
            path.write_text(sample_trace(nprocs=4).to_jsonl())
            argv = ["import-trace", str(path), "--predict", "--runs", "0"]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"repro {command}: runs must be >= 1" in captured.err
        assert "campaign" not in captured.out


def test_importing_the_cli_loads_no_scipy():
    # scipy costs about a second to import and only parametric fits
    # use it, so no repro command should pay for it at start-up.
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.cli, repro.service.server; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=src),
    ).stdout
    assert out.strip() == "[]"


class TestDeadlockExitCode:
    def test_predict_returns_3_on_model_deadlock(
        self, capsys, monkeypatch, saved_db
    ):
        from repro.pevpm import ModelDeadlock

        def deadlock(*args, **kwargs):
            raise ModelDeadlock({0: 1, 1: 0}, [])

        monkeypatch.setattr("repro.cli.compare_timing_modes", deadlock)
        capsys.readouterr()
        rc = main([
            "predict", "--db", str(saved_db), "--nprocs", "4", "--runs", "2",
        ])
        assert rc == 3
        assert "deadlock detected" in capsys.readouterr().err

    def test_json_mode_reports_deadlock_on_stdout(
        self, capsys, monkeypatch, saved_db
    ):
        import json

        from repro.pevpm import ModelDeadlock

        def deadlock(*args, **kwargs):
            raise ModelDeadlock({0: 1, 1: 0}, [])

        monkeypatch.setattr("repro.cli.compare_timing_modes", deadlock)
        capsys.readouterr()
        rc = main([
            "predict", "--db", str(saved_db), "--nprocs", "4",
            "--runs", "2", "--json",
        ])
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["error"] == "deadlock"


class TestServiceParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8100
        assert args.queue_limit == 64
        assert args.max_batch == 8
        assert args.lru_size == 1024
        assert args.shards == 1
        assert args.trace_buffer == 256
        assert args.breaker_threshold == 5
        assert args.deadline_s == 30.0
        assert args.breaker_cooldown == 2.0

    @pytest.mark.parametrize("flag,value", [
        ("--shards", "0"),
        ("--max-batch", "0"),
        ("--queue-limit", "0"),
        ("--trace-buffer", "0"),
        ("--breaker-threshold", "0"),
        ("--lru-size", "-1"),
        ("--deadline-s", "0"),
        ("--breaker-cooldown", "0"),
    ])
    def test_out_of_range_sizes_are_usage_errors(self, flag, value, capsys):
        # Rejected while parsing, before any campaign or server starts.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be" in err
        assert "Traceback" not in err

    def test_smallest_sizes_accepted(self):
        args = build_parser().parse_args([
            "serve", "--shards", "1", "--max-batch", "1", "--queue-limit", "1",
            "--trace-buffer", "1", "--breaker-threshold", "1",
            "--lru-size", "0", "--deadline-s", "0.001",
            "--breaker-cooldown", "0.001",
        ])
        assert (args.shards, args.max_batch, args.queue_limit) == (1, 1, 1)
        assert (args.trace_buffer, args.breaker_threshold, args.lru_size) == (
            1, 1, 0
        )
        assert args.deadline_s == args.breaker_cooldown == 0.001

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--max-batch", "1", "--lru-size", "0",
            "--queue-limit", "4", "--breaker-threshold", "9",
        ])
        assert args.port == 0
        assert args.max_batch == 1 and args.lru_size == 0
        assert args.queue_limit == 4
        assert args.breaker_threshold == 9

    @pytest.mark.parametrize(
        "flag", ["--max-wait-ms=2", "--no-batch", "--no-dedup", "--no-cache"]
    )
    def test_removed_funnel_switches_rejected(self, flag, capsys):
        # Batching, singleflight and caching are always on; --max-batch 1
        # and --lru-size 0 give the naive funnel.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_loadgen_concurrency_sweep(self):
        args = build_parser().parse_args([
            "loadgen", "--concurrency", "1", "4", "16", "--duration", "2",
        ])
        assert args.concurrency == [1, 4, 16]
        assert args.duration == 2.0

    def test_bench_serve_argv_parses(self):
        # The repo benchmark's serve-zipf workload starts the server
        # with exactly this command line.
        args = build_parser().parse_args([
            "serve", "--host", "127.0.0.1", "--port", "0", "--db", "db.json",
            "--workers", "1", "--no-seed-registry", "--no-trace",
        ])
        assert args.workers == 1
        assert args.port == 0 and args.db == "db.json"
        assert not args.seed_registry and args.no_trace

    def test_serve_workers_above_one_names_shards(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "2"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["serve", "--shards", "2", "--reuseport"],
        ["loadgen", "--endpoints", "127.0.0.1:8101", "127.0.0.1:8102"],
    ], ids=["reuseport", "endpoints"])
    def test_removed_topology_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_sharded_serve_removes_its_registry_plane(
    monkeypatch, tmp_path, saved_db
):
    # Without --registry-dir, a --shards N server's shared registry
    # plane is temporary; the supervisor owns it, so it is removed even
    # when start-up fails.
    import tempfile

    from repro.service.supervisor import Supervisor

    def fail_to_start(self):
        raise RuntimeError("start failed")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(Supervisor, "start", fail_to_start)
    with pytest.raises(RuntimeError, match="start failed"):
        main([
            "serve", "--shards", "2", "--db", str(saved_db),
            "--no-seed-registry",
        ])
    assert not list(tmp_path.glob("repro-registry-*"))



def test_service_commands_close_their_clients(capsys, tmp_path):
    # loadgen's fail-fast probe and import-trace --upload each open a
    # client; neither may leave its socket to the garbage collector.
    import gc
    import warnings

    from repro.mpibench import BenchSettings, MPIBench
    from repro.service import PredictionService, ServiceThread
    from repro.simnet import perseus
    from repro.trace_import import sample_trace

    spec = perseus(16)
    bench = MPIBench(spec, seed=3, settings=BenchSettings(reps=10, warmup=2))
    db = bench.sweep_isend([(2, 1), (4, 1)], sizes=[0, 1024])
    trace = tmp_path / "ring.jsonl"
    trace.write_text(sample_trace(nprocs=4).to_jsonl())
    with ServiceThread(PredictionService(db, spec=spec)) as thread:
        where = ["--host", thread.address[0], "--port", str(thread.address[1])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main([
                "loadgen", *where, "--concurrency", "1", "--duration", "0.2",
                "--nprocs", "4", "--runs", "2", "--json",
                "--model-params", '{"iterations": 5}',
            ]) == 0
            assert main(["import-trace", str(trace), "--upload", *where]) == 0
            gc.collect()
    assert "uploaded program" in capsys.readouterr().out
    assert [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning)
    ] == []

class TestPredictModels:
    """``repro predict --model`` reaches beyond jacobi."""

    def test_halo_json_record(self, capsys, tmp_path):
        from repro.mpibench import BenchSettings, MPIBench
        from repro.simnet import perseus

        db_path = tmp_path / "db.json"
        bench = MPIBench(perseus(16), seed=3,
                         settings=BenchSettings(reps=20, warmup=2))
        bench.sweep_isend(
            [(1, 2), (2, 1), (8, 1)], sizes=[0, 512, 1024]
        ).save(db_path)
        rc = main([
            "predict", "--model", "halo",
            "--model-params", '{"nx": 8, "iterations": 2}',
            "--db", str(db_path), "--nprocs", "4", "--runs", "2", "--json",
        ])
        assert rc == 0
        import json as _json

        doc = _json.loads(capsys.readouterr().out)
        assert doc["workload"]["model"] == "halo"
        assert doc["workload"]["model_params"]["nx"] == 8
        assert doc["serial_time"] > 0
        assert doc["predictions"]["distribution-nxp"]["times"]

    def test_unknown_model_param_rejected(self, capsys):
        rc = main([
            "predict", "--model", "fft", "--model-params", '{"nx": 8}',
        ])
        assert rc == 1
        assert "unknown fft parameter" in capsys.readouterr().err

    def test_measure_restricted_to_jacobi(self, capsys):
        rc = main(["predict", "--model", "amg", "--measure"])
        assert rc == 2
        assert "--measure" in capsys.readouterr().err


class TestImportTrace:
    def ring(self, tmp_path):
        from repro.trace_import import sample_trace

        program = sample_trace(nprocs=4)
        path = tmp_path / "ring.jsonl"
        path.write_text(program.to_jsonl())
        return program, path

    def test_summary_and_json(self, capsys, tmp_path):
        program, path = self.ring(tmp_path)
        assert main(["import-trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert program.fingerprint in out
        assert "4 procs" in out

        assert main(["import-trace", str(path), "--json"]) == 0
        import json as _json

        doc = _json.loads(capsys.readouterr().out)
        assert doc["fingerprint"] == program.fingerprint

    def test_export_round_trips(self, capsys, tmp_path):
        program, path = self.ring(tmp_path)
        out_path = tmp_path / "exported.jsonl"
        assert main([
            "import-trace", str(path), "--export", str(out_path),
        ]) == 0
        from repro.trace_import import parse_jsonl

        assert parse_jsonl(out_path.read_text()).fingerprint == \
            program.fingerprint

    def test_deadlock_exits_3(self, capsys, tmp_path):
        path = tmp_path / "dead.trace"
        path.write_text(
            "NPROCS 2\n0 MPI_RECV 1\n1 MPI_RECV 0\n"
            "0 MPI_SEND 1 8\n1 MPI_SEND 0 8\n"
        )
        assert main(["import-trace", str(path)]) == 3
        assert "deadlock" in capsys.readouterr().err

    def test_invalid_trace_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("NPROCS 2\n0 MPI_SEND 1 8\n")
        assert main(["import-trace", str(path)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["import-trace", "/nonexistent/t.jsonl"]) == 1
        assert capsys.readouterr().err
