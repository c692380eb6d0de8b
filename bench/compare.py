#!/usr/bin/env python3
"""Compare two sets of benchmark rows against the bounds in BENCHMARK.json.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py parent/*.json change/*.json

Rows are the ``--out`` files of ``bench/run.py`` (a file may hold one row
or a list).  Given files, the two sets are told apart by directory, in
the order they first appear.  For every (workload, end-to-end metric)
the script prints each set's median and quartiles and a verdict:

* ``unresolved`` -- either set's IQR is wider than the metric's bound,
  unless every change run reads better than every parent run;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``better`` -- the change wins at least 9 of 10 runs paired by seed and
  its median is better by more than the parent's IQR;
* ``unchanged`` -- otherwise.

The exit status is 1 when any verdict is ``worse``.  Only numpy is used,
so a change to the package cannot change its own judge.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[Path]) -> list[dict]:
    rows = []
    for path in paths:
        doc = json.loads(path.read_text())
        rows.extend(doc if isinstance(doc, list) else [doc])
    return [r for r in rows if not r.get("trace")]


def split(args: list[str]) -> tuple[list[Path], list[Path]]:
    paths = [Path(a) for a in args]
    if len(paths) == 2 and all(p.is_dir() for p in paths):
        return sorted(paths[0].glob("*.json")), sorted(paths[1].glob("*.json"))
    dirs = list(dict.fromkeys(p.parent for p in paths))
    if len(dirs) != 2:
        raise SystemExit("give two directories, or files from exactly two directories")
    return [p for p in paths if p.parent == dirs[0]], [p for p in paths if p.parent == dirs[1]]


def values(rows: list[dict], workload: str, metric: str) -> dict[int, float]:
    """Seed -> value of one metric on one workload."""
    return {
        r["seed"]: r["metrics"][metric]["value"]
        for r in rows
        if r["workload"] == workload and metric in r["metrics"]
    }


def verdict(a: dict[int, float], b: dict[int, float], bound: float, higher: bool) -> str:
    qa, qb = np.percentile(list(a.values()), [25, 50, 75]), np.percentile(list(b.values()), [25, 50, 75])
    sign = 1.0 if higher else -1.0
    gain = sign * (qb[1] - qa[1]) / abs(qa[1])
    if (qa[2] - qa[0]) > bound * abs(qa[1]) or (qb[2] - qb[0]) > bound * abs(qb[1]):
        if higher:
            all_better = min(b.values()) > max(a.values())
        else:
            all_better = max(b.values()) < min(a.values())
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    seeds = sorted(set(a) & set(b))
    wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and gain > 0 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (load(p) for p in split(argv))
    worse = False
    print(f"{'workload':18} {'metric':14} {'parent median [q1, q3] n':34} "
          f"{'change median [q1, q3] n':34} {'change':>8}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a, b = values(parent, w["name"], m["name"]), values(change, w["name"], m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["bound"], m["better"] == "higher")
            worse |= v == "worse"
            qa = np.percentile(list(a.values()), [25, 50, 75])
            qb = np.percentile(list(b.values()), [25, 50, 75])
            print(f"{w['name']:18} {m['name']:14} "
                  f"{qa[1]:11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] {len(a):<3} "
                  f"{qb[1]:11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {len(b):<3} "
                  f"{(qb[1] - qa[1]) / abs(qa[1]) * 100:+7.2f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
