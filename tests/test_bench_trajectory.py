"""``scripts/bench_trajectory.py``: appending ``bench/run.py`` rows to the
committed trajectory and judging its newest row with ``bench/compare.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]
SEEDS = range(1, 6)


def value(seed: int) -> float:
    """A metric value that spreads 1% per seed, well inside every bound."""
    return 100.0 * (1 + 0.01 * seed)


def bench_row(workload: str, seed: int, **tags) -> dict:
    """An untraced ``bench/run.py --out`` row of one clean commit."""
    row = {
        "workload": workload, "seed": seed, "trace": 0,
        "commit": "a" * 40, "dirty": False, "nproc": 2,
        "correct": True, "attempted": 40, "failed": 0,
        "metrics": {m: {"value": value(seed), "unit": "x"} for m in METRICS},
    }
    return {**row, **tags}


def rows_dir(path: Path, rows: list[dict]) -> Path:
    path.mkdir()
    for i, r in enumerate(rows):
        (path / f"row{i}.json").write_text(json.dumps(r))
    return path


def full_set(**tags) -> list[dict]:
    return [bench_row(w, s, **tags) for w in WORKLOADS for s in SEEDS]


def ledger_row(commit: str, nproc: int = 2, scale: float = 1.0) -> dict:
    return {"commit": commit, "nproc": nproc, "workloads": {
        w: [{"seed": s, **{m: value(s) * scale for m in METRICS},
             "attempted": 40, "failed": 0} for s in SEEDS]
        for w in WORKLOADS
    }}


def write_ledger(path: Path, rows: list[dict]) -> Path:
    path.write_text(json.dumps(rows))
    return path


def test_add_appends_one_row_per_commit(tmp_path):
    ledger = tmp_path / "trajectory.json"
    trajectory.add(rows_dir(tmp_path / "a", full_set()), ledger)
    trajectory.add(rows_dir(tmp_path / "b", full_set(commit="b" * 40)), ledger)
    rows = json.loads(ledger.read_text())
    assert [r["commit"] for r in rows] == ["a" * 40, "b" * 40]
    assert rows[0]["nproc"] == 2
    assert list(rows[0]["workloads"]) == WORKLOADS
    first = rows[0]["workloads"][WORKLOADS[0]]
    assert [s["seed"] for s in first] == list(SEEDS)
    assert first[0] == {"seed": 1, **{m: value(1) for m in METRICS},
                        "attempted": 40, "failed": 0}
    assert trajectory.check(ledger) == 0


def two_commits() -> list[dict]:
    return full_set()[:-1] + [bench_row(WORKLOADS[-1], SEEDS[-1], commit="b" * 40)]


@pytest.mark.parametrize("rows, reason", [
    (full_set()[:-1] + [bench_row(WORKLOADS[-1], SEEDS[-1], dirty=True)], "clean tree"),
    (full_set()[:-1] + [bench_row(WORKLOADS[-1], SEEDS[-1], dirty=None)], "clean tree"),
    (full_set()[:-1] + [bench_row(WORKLOADS[-1], SEEDS[-1], trace=1)], "traced"),
    (full_set()[:-1] + [bench_row(WORKLOADS[-1], SEEDS[-1], correct=False, failed=1)],
     "not correct"),
    (two_commits(), "2 commits"),
    (full_set()[:-1] + [bench_row(WORKLOADS[-1], SEEDS[-1], nproc=4)], "nproc"),
    (full_set() + [bench_row(WORKLOADS[0], SEEDS[0])], "two rows of one workload and seed"),
    ([r for r in full_set() if r["workload"] != WORKLOADS[1]], "no rows of"),
], ids=["dirty", "dirty-unknown", "traced", "incorrect", "two-commits", "two-hosts",
        "duplicate-seed", "missing-workload"])
def test_add_refuses(tmp_path, rows, reason):
    ledger = tmp_path / "trajectory.json"
    with pytest.raises(SystemExit, match=reason):
        trajectory.add(rows_dir(tmp_path / "rows", rows), ledger)
    assert not ledger.exists()


def test_check_fails_on_a_median_worse_than_its_bound(tmp_path, capsys):
    newest = ledger_row("b")
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "op_p50_ms")
    for s in newest["workloads"][WORKLOADS[0]]:
        s["op_p50_ms"] *= 1 + 2 * bound
    ledger = write_ledger(tmp_path / "trajectory.json", [ledger_row("a"), newest])
    assert trajectory.check(ledger) == 1
    worse = [line for line in capsys.readouterr().out.splitlines() if line.endswith("worse")]
    assert len(worse) == 1
    assert worse[0].split()[:2] == [WORKLOADS[0], "op_p50_ms"]


def test_check_fails_when_the_failed_share_grows(tmp_path, capsys):
    newest = ledger_row("b")
    newest["workloads"][WORKLOADS[2]][0]["failed"] = 1
    ledger = write_ledger(tmp_path / "trajectory.json", [ledger_row("a"), newest])
    assert trajectory.check(ledger) == 1
    assert f"{WORKLOADS[2]}: failed share rose" in capsys.readouterr().out


def test_check_passes_a_near_identical_row(tmp_path, capsys):
    ledger = write_ledger(tmp_path / "trajectory.json",
                          [ledger_row("a"), ledger_row("b", scale=1.01)])
    assert trajectory.check(ledger) == 0
    out = capsys.readouterr().out
    assert out.count("unchanged") == len(WORKLOADS) * len(METRICS)


def test_check_compares_rows_of_the_same_nproc_only(tmp_path, capsys):
    ledger = write_ledger(tmp_path / "trajectory.json",
                          [ledger_row("a", nproc=2), ledger_row("b", nproc=4, scale=3.0)])
    assert trajectory.check(ledger) == 0
    assert "nproc 4; nothing to compare" in capsys.readouterr().out
    # An older row of the same nproc is found past a row of another.
    rows = json.loads(ledger.read_text()) + [ledger_row("c", nproc=2, scale=3.0)]
    assert trajectory.check(write_ledger(ledger, rows)) == 1
    assert "against a (nproc 2)" in capsys.readouterr().out


def test_check_skips_a_workload_the_earlier_row_lacks(tmp_path, capsys):
    earlier = ledger_row("a")
    del earlier["workloads"][WORKLOADS[-1]]
    ledger = write_ledger(tmp_path / "trajectory.json", [earlier, ledger_row("b")])
    assert trajectory.check(ledger) == 0
    assert WORKLOADS[-1] not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["check", "--strict"], ["add"], ["list"]])
def test_main_takes_add_dir_or_check_only(argv, capsys):
    assert trajectory.main(argv) == 2
    assert "add DIR" in capsys.readouterr().err
