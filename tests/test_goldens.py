"""Golden-model regression suite.

One canonical prediction document is pinned under ``tests/goldens/``
for every registered workload x NIC serialisation mode, produced from a
fixed-seed benchmark campaign with a tiny run count.  Each test
evaluates the workload -- static programs on the batched engine, the
divergent task farm on the per-run one -- and byte-compares the
resulting document against the pinned golden.

Any change to the predicted numbers -- an engine regression, a timing
model edit, a collective lowering tweak -- fails here first, with a
diffable JSON document.  Intentional changes are re-pinned with::

    python scripts/regen_goldens.py
    # or: pytest tests/test_goldens.py --regen-goldens
"""

import json
from pathlib import Path

import pytest

from repro.mpibench import BenchSettings, MPIBench
from repro.pevpm import predict, timing_from_db
from repro.service.records import MODELS
from repro.simnet import perseus
from repro.trace_import import sample_trace

GOLDEN_DIR = Path(__file__).parent / "goldens"

SPEC = perseus(16)

#: model name -> (nprocs, parameter overrides on the registry defaults)
WORKLOADS = {
    "jacobi": (8, {"iterations": 5, "xsize": 64}),
    "fft": (8, {"n_points": 256}),
    "taskfarm": (8, {"n_tasks": 8}),
    "halo": (8, {"iterations": 2, "nx": 8}),
    "amg": (8, {"iterations": 1, "nx": 8, "coarse_nx": 4}),
    "imported": (4, {}),
}

NIC_MODES = ["off", "tx", "txrx"]

RUNS = 2
SEED = 7


@pytest.fixture(scope="module")
def db():
    bench = MPIBench(SPEC, seed=3, settings=BenchSettings(reps=30, warmup=3))
    return bench.sweep_isend(
        [(1, 2), (2, 1), (8, 1), (16, 1)], sizes=[0, 512, 1024, 2048]
    )


def build_workload(name):
    """(model, vm_params, params, nprocs) for one golden workload."""
    nprocs, overrides = WORKLOADS[name]
    if name == "imported":
        program = sample_trace(nprocs=nprocs)
        return program.model(), None, {"program": program.fingerprint}, nprocs
    defaults, builder = MODELS[name]
    params = dict(defaults, **overrides)
    model, vm_params = builder(SPEC, params)
    return model, vm_params, params, nprocs


def golden_doc(db, name, nic):
    """The canonical document for one workload x NIC mode."""
    model, vm_params, params, nprocs = build_workload(name)
    timing = timing_from_db(db, mode="distribution", nprocs=nprocs)
    pred = predict(
        model,
        nprocs,
        timing,
        runs=RUNS,
        seed=SEED,
        params=vm_params,
        nic_serialisation=nic,
    )
    times = list(pred.times)
    return {
        "model": name,
        "model_params": params,
        "nprocs": nprocs,
        "runs": RUNS,
        "seed": SEED,
        "nic_serialisation": nic,
        "db_fingerprint": db.fingerprint(),
        "times": times,
        "mean_time": sum(times) / len(times),
    }


def render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("nic", NIC_MODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden(db, name, nic, request):
    doc = golden_doc(db, name, nic)
    path = GOLDEN_DIR / f"{name}-{nic}.json"
    if request.config.getoption("--regen-goldens"):
        path.write_text(render(doc))
        return
    assert path.exists(), (
        f"missing golden {path.name}; regenerate with "
        f"'python scripts/regen_goldens.py'"
    )
    assert render(doc) == path.read_text(), (
        f"{path.name} drifted from the current prediction; if the "
        f"change is intentional, re-pin with "
        f"'python scripts/regen_goldens.py'"
    )


def test_no_stale_goldens():
    """Every pinned document corresponds to a registered workload/NIC
    pair -- renames must clean up after themselves."""
    expected = {
        f"{name}-{nic}.json" for name in WORKLOADS for nic in NIC_MODES
    }
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
