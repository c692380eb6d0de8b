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
            "--workers", "1", "--json",
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
            "--workers", "1", "--json",
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
        assert args.max_wait_ms == 2.0
        assert not args.no_batch and not args.no_dedup and not args.no_cache

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--no-batch", "--no-dedup", "--no-cache",
            "--max-wait-ms", "0.5", "--queue-limit", "4",
        ])
        assert args.port == 0
        assert args.no_batch and args.no_dedup and args.no_cache
        assert args.max_wait_ms == 0.5
        assert args.queue_limit == 4

    def test_loadgen_concurrency_sweep(self):
        args = build_parser().parse_args([
            "loadgen", "--concurrency", "1", "4", "16", "--duration", "2",
        ])
        assert args.concurrency == [1, 4, 16]
        assert args.duration == 2.0


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
