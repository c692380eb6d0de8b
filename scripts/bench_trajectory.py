#!/usr/bin/env python3
"""The committed benchmark trajectory, ``BENCH_trajectory.json``.

    python3 scripts/bench_trajectory.py add DIR
    python3 scripts/bench_trajectory.py check

``add DIR`` appends one row built from the untraced ``bench/run.py
--out`` rows in DIR, which must all come from one clean commit, be
``correct`` and cover every workload of ``BENCHMARK.json``.  The row
holds the commit, the host's ``nproc`` and, per workload, each seed's
end-to-end metric values with its ``attempted`` and ``failed`` counts;
medians and quartiles are computed when the file is read, so nothing is
stored twice.

``check`` compares the newest row with the newest earlier row measured
with the same ``nproc``.  Every (workload, end-to-end metric) gets
``bench/compare.py``'s own ``verdict()``, loaded from that file, and a
line with each row's median [q1, q3] and seed count.  The exit status is
1 when any verdict is ``worse`` or a workload's failed share grows.
Only numpy and ``bench/compare.py`` are used, so a change to the package
cannot change its judge.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_trajectory.json"

_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def read(ledger: Path) -> list[dict]:
    return json.loads(ledger.read_text()) if ledger.exists() else []


def add(rows_dir: Path, ledger: Path) -> None:
    """Append the row built from the ``bench/run.py`` rows in *rows_dir*."""
    runs = []
    for path in sorted(rows_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        runs.extend(doc if isinstance(doc, list) else [doc])
    for r in runs:
        name = f"{rows_dir}: {r['workload']} seed {r['seed']}"
        if r.get("dirty") is not False:
            raise SystemExit(f"{name} was not measured on a clean tree")
        if r.get("trace"):
            raise SystemExit(f"{name} is traced; the trajectory keeps end-to-end rows")
        if not r.get("correct"):
            raise SystemExit(f"{name} is not correct ({r.get('failed')} failed)")
    commits = sorted({r["commit"] for r in runs})
    if len(commits) != 1:
        raise SystemExit(f"{rows_dir} holds rows of {len(commits)} commits {commits}; give one")
    nprocs = {r["nproc"] for r in runs}
    if len(nprocs) != 1:
        raise SystemExit(f"{rows_dir} holds rows of hosts with nproc {sorted(nprocs)}")
    if len({(r["workload"], r["seed"]) for r in runs}) != len(runs):
        raise SystemExit(f"{rows_dir} holds two rows of one workload and seed")
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    missing = [w for w in workloads if all(r["workload"] != w for r in runs)]
    if missing:
        raise SystemExit(f"{rows_dir} has no rows of {missing}")
    metrics = [m["name"] for m in spec["end_to_end"]]
    row = {"commit": commits[0], "nproc": nprocs.pop(), "workloads": {
        w: [{"seed": r["seed"], **{m: r["metrics"][m]["value"] for m in metrics},
             "attempted": r["attempted"], "failed": r["failed"]}
            for r in sorted(runs, key=lambda r: r["seed"]) if r["workload"] == w]
        for w in workloads
    }}
    rows = read(ledger) + [row]
    # One row per line, so appending a row adds one line to the file.
    ledger.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    seeds = ", ".join(f"{w} {len(s)}" for w, s in row["workloads"].items())
    print(f"added {row['commit']} (nproc {row['nproc']}), seeds: {seeds}")


def values(row: dict, workload: str, metric: str) -> dict[int, float]:
    """Seed -> value of one metric on one workload of a ledger row."""
    return {s["seed"]: s[metric] for s in row["workloads"][workload]}


def failed_share(row: dict, workload: str) -> float:
    seeds = row["workloads"][workload]
    return sum(s["failed"] for s in seeds) / sum(s["attempted"] for s in seeds)


def check(ledger: Path) -> int:
    """Judge the newest row against the newest earlier row of its ``nproc``."""
    rows = read(ledger)
    if not rows:
        print(f"{ledger.name} has no rows; nothing to compare")
        return 0
    newest = rows[-1]
    earlier = [r for r in rows[:-1] if r["nproc"] == newest["nproc"]]
    if not earlier:
        print(f"no row before {newest['commit']} was measured with nproc "
              f"{newest['nproc']}; nothing to compare")
        return 0
    base = earlier[-1]
    print(f"newest {newest['commit']} against {base['commit']} (nproc {base['nproc']})")
    print(f"{'workload':18} {'metric':14} {'earlier median [q1, q3] n':34} "
          f"{'newest median [q1, q3] n':34} {'change':>8}  verdict")
    spec = benchmark_spec()
    worse = False
    for w in (w["name"] for w in spec["workloads"]):
        if w not in base["workloads"] or w not in newest["workloads"]:
            continue
        for m in spec["end_to_end"]:
            a, b = values(base, w, m["name"]), values(newest, w, m["name"])
            v = compare.verdict(a, b, m["bound"], m["better"] == "higher")
            worse |= v == "worse"
            qa = np.percentile(list(a.values()), [25, 50, 75])
            qb = np.percentile(list(b.values()), [25, 50, 75])
            print(f"{w:18} {m['name']:14} "
                  f"{qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] {len(a):<3} "
                  f"{qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {len(b):<3} "
                  f"{(qb[1] - qa[1]) / abs(qa[1]) * 100:+7.2f}%  {v}")
        fa, fb = failed_share(base, w), failed_share(newest, w)
        if fb > fa:
            print(f"{w}: failed share rose from {fa:.4g} to {fb:.4g}")
            worse = True
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if argv == ["check"]:
        return check(LEDGER)
    if len(argv) == 2 and argv[0] == "add":
        add(Path(argv[1]), LEDGER)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
