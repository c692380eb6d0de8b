"""Robustness suite of the one content-addressed store (:mod:`repro.cas`).

Every durable artifact -- finished predictions, registry databases and
their aliases, imported programs -- goes through
:class:`~repro.cas.ContentStore`, so its durability contract is tested
once, here: atomic writes (no torn entries, no stray temp files),
idempotent same-content puts under a thread race, torn-free pointer
swaps under concurrent readers, quarantine of corrupt entries and
repair by re-put, and the chaos ``corrupt_cache`` fault reaching every
store through the same path.  The typed stores are thin codecs over it;
their own codec tests live next to them.

The literals at the top were computed before the stores were unified:
a change in key or path bytes would silently orphan every existing
cache and registry directory, so it must fail here loudly.
"""

import json
import threading

import numpy as np
import pytest

import repro.cas as cas_mod
from repro.cas import LRU, ContentStore, NotOwner
from repro.mpibench import BenchmarkResult, DistributionDB, Histogram
from repro.pevpm import PredictionCache, RunGroup
from repro.pevpm.predict import prediction_key
from repro.registry import RegistryStore, UnknownRef
from repro.service import FaultInjector, PredictionService
from repro.stats import PrecisionTarget
from repro.trace_import import ProgramStore, sample_trace

RING = sample_trace(nprocs=4)

PINNED_KEY = "f0d7ac574cfb04d626738ed88178f9010783e22796773ea32e6ca9fcd941c8b2"
PINNED_ADAPTIVE_KEY = (
    "17521ca044f498f7a3ea09bd02aebf2f1b46375c75ac821c200b53f3b1a6105d"
)
PINNED_DB = "c04bca22c134cea95d03b696eac7d0215993cd3299d04ef43cf2da6cd60dd171"
PINNED_PROGRAM = (
    "01012714cf3570757cd94b41970add8173d7a6a4a75b9ce222e60f559710190d"
)


def pinned_db() -> DistributionDB:
    """A small database built from deterministic samples."""
    db = DistributionDB()
    for nodes in (2, 4):
        hists = {
            size: Histogram.from_samples(
                np.linspace(1e-4, 2e-4, 64) * (1 + size / 1024) * nodes,
                bins=16,
            )
            for size in (0, 1024)
        }
        db.add(BenchmarkResult(
            op="isend", nodes=nodes, ppn=1, cluster="perseus",
            histograms=hists, reps=64,
        ))
    return db


def checked(key, doc):
    """A verifying decode: the document must carry its own key."""
    if doc["key"] != key:
        raise ValueError("content does not match its key")
    return doc


@pytest.fixture(params=["disk", "memory"])
def store(request, tmp_path):
    root = tmp_path / "store" if request.param == "disk" else None
    return ContentStore(root, "doc-{}.json", checked)


class PinnedTiming:
    def fingerprint(self) -> str:
        return "timing-fp"


class TestPinnedBytes:
    GROUP = RunGroup(
        model=("pinned-model", 1), params={"iterations": 20}, nprocs=4,
        timing=PinnedTiming(), seed=np.random.SeedSequence(7), runs=4,
    )

    def test_prediction_keys(self):
        assert PredictionCache.VERSION == 5
        assert prediction_key(self.GROUP) == PINNED_KEY
        target = PrecisionTarget(rse=0.01)
        assert prediction_key(self.GROUP, target) == PINNED_ADAPTIVE_KEY

    def test_prediction_path(self, tmp_path):
        path = PredictionCache(tmp_path).path(PINNED_KEY)
        assert path == tmp_path / f"predict-{PINNED_KEY}.json"

    def test_registry_paths(self, tmp_path):
        RegistryStore(tmp_path).put(pinned_db())
        assert sorted(
            p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json")
        ) == [f"cas/db-{PINNED_DB}.json", f"meta/db-{PINNED_DB}.json"]

    def test_program_path(self, tmp_path):
        ProgramStore(tmp_path).put(RING)
        assert [p.name for p in tmp_path.glob("*.json")] == [
            f"prog-{PINNED_PROGRAM}.json"
        ]


class TestLRU:
    def test_evicts_least_recently_used(self):
        lru = LRU(2)
        assert lru.put("a", 1) == 0
        lru.put("b", 2)
        assert lru.get("a") == 1  # touch "a": "b" becomes the LRU entry
        assert lru.put("c", 3) == 1
        assert lru.get("b") is None
        assert (lru.get("a"), lru.get("c"), len(lru)) == (1, 3, 2)

    def test_zero_capacity_holds_nothing(self):
        lru = LRU(0)
        assert lru.put("k", 1) == 0
        assert lru.get("k") is None and len(lru) == 0
        with pytest.raises(ValueError):
            LRU(-1)


class TestPutGet:
    def test_round_trip_listing_and_stats(self, store):
        assert store.put("a", {"key": "a", "v": 1}) > 0
        store.put("b", {"key": "b", "v": 2})
        assert store.get("a") == {"key": "a", "v": 1}
        assert store.keys() == ["a", "b"]
        assert "a" in store and "zz" not in store
        assert [key for key, _, _ in store.entries()] == ["a", "b"]
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] == sum(n for _, _, n in store.entries())
        assert store.get("zz") is None

    def test_valid_content_is_kept_and_skips_the_check(self, store):
        first = store.put("a", {"key": "a", "v": 1})

        def boom(nbytes):
            raise AssertionError("quota check must not run on re-put")

        assert store.put("a", {"key": "a", "v": 2}, check=boom) == first
        assert store.get("a")["v"] == 1  # first complete write wins

    def test_check_runs_before_any_write(self, store):
        def refuse(nbytes):
            raise RuntimeError("quota")

        with pytest.raises(RuntimeError, match="quota"):
            store.put("a", {"key": "a"}, check=refuse)
        assert store.keys() == [] and store.stats()["bytes"] == 0

    def test_put_seeds_the_lru_with_the_callers_value(self, tmp_path):
        store = ContentStore(tmp_path, lru_size=4)
        value = object()
        store.put("a", {"v": 1}, value=value)
        assert store.get("a") is value
        assert ContentStore(tmp_path).get("a") == {"v": 1}

    def test_delete_checks_the_owner(self, store):
        store.put("a", {"key": "a", "tenant": "alice"})
        with pytest.raises(NotOwner, match="alice"):
            store.delete("a", tenant="bob")
        assert "a" in store
        assert store.delete("a", tenant="alice")
        assert not store.delete("a")
        assert store.get("a") is None

    def test_write_replaces_unconditionally(self, store):
        store.write("p", {"key": "p", "v": 1})
        store.write("p", {"key": "p", "v": 2})
        assert store.get("p")["v"] == 2


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_once(self, tmp_path):
        store = ContentStore(tmp_path, "doc-{}.json", checked)
        seen = []
        store.on_corrupt = seen.append
        store.put("a", {"key": "a"})
        path = store.path("a")
        path.write_text('{"version": 2, "times": [1.0')  # truncated
        assert store.get("a") is None
        assert not path.exists() and path.with_suffix(".corrupt").exists()
        assert store.corruptions == 1 and seen == ["a"]
        # Out of the lookup path: the next read is a plain miss.
        assert store.get("a") is None
        assert store.corruptions == 1
        assert store.keys() == []

    @pytest.mark.parametrize(
        "garbage", ["[1, 2, 3]", '{"version": 3'], ids=["array", "truncated"]
    )
    def test_non_object_prediction_is_quarantined(self, tmp_path, garbage):
        cache = PredictionCache(tmp_path)
        cache.put("aa", {"times": []})
        cache.path("aa").write_text(garbage)
        assert cache.get("aa") is None
        assert cache.corruptions == 1

    def test_version_mismatch_is_a_miss_not_a_quarantine(self, tmp_path):
        cache = PredictionCache(tmp_path)
        cache.path("aa").write_text('{"version": 1, "times": []}')
        assert cache.get("aa") is None
        assert cache.corruptions == 0
        assert cache.path("aa").exists()
        # A put replaces the stale entry (it is not valid content).
        cache.put("aa", {"times": [1.0]})
        assert cache.get("aa")["times"] == [1.0]

    def test_tampered_content_is_quarantined(self, store):
        store.write("a", {"key": "b"})  # valid JSON, wrong content
        assert store.get("a") is None
        assert store.corruptions == 1

    def test_quarantine_then_repair_by_re_put(self, tmp_path):
        store = ContentStore(tmp_path, "doc-{}.json", checked)
        store.put("a", {"key": "a"})
        store.path("a").write_text("garbage")
        assert store.get("a") is None
        assert store.put("a", {"key": "a"}) > 0
        assert store.get("a") == {"key": "a"}

    def test_re_put_verifies_before_skipping(self, tmp_path):
        ContentStore(tmp_path, "doc-{}.json", checked).put("a", {"key": "a"})
        ContentStore(tmp_path, "doc-{}.json", checked).path("a").write_text("x")
        fresh = ContentStore(tmp_path, "doc-{}.json", checked)
        fresh.put("a", {"key": "a"})  # must not trust the corrupt file
        assert fresh.corruptions == 1
        assert ContentStore(tmp_path, "doc-{}.json", checked).get("a")


class TestAtomicity:
    def test_failed_write_leaves_no_entry_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        store = ContentStore(tmp_path)

        def crash(src, dst):
            raise OSError("killed mid-write")

        monkeypatch.setattr(cas_mod.os, "replace", crash)
        with pytest.raises(OSError):
            store.put("a", {"v": 1})
        monkeypatch.undo()
        assert store.get("a") is None
        assert list(tmp_path.iterdir()) == []
        store.put("a", {"v": 1})  # the retry succeeds
        assert store.get("a") == {"v": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    DOC = {"key": "k", "payload": list(range(2000))}
    #: kind -> (open a store over a root, one racer's writes, verify)
    RACERS = {
        "content": (
            lambda root: ContentStore(root, "doc-{}.json", checked),
            lambda store: store.put("k", TestAtomicity.DOC),
            lambda store: store.get("k") == TestAtomicity.DOC,
        ),
        "registry": (
            RegistryStore,
            lambda store: (
                store.put(pinned_db()), store.set_alias("race", PINNED_DB)
            ),
            lambda store: store.resolve("race") == PINNED_DB
            and store.get(PINNED_DB).fingerprint() == PINNED_DB
            and len(store) == 1,
        ),
        "program": (
            ProgramStore,
            lambda store: store.put(RING),
            lambda store: store.get(RING.fingerprint).ranks == RING.ranks
            and len(store) == 1,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(RACERS))
    def test_same_content_put_race_converges(self, tmp_path, kind):
        """Eight writers (own store each, as separate shard processes
        would have) racing the same content all succeed, leaving one
        whole entry and no temp files."""
        open_store, race, verify = self.RACERS[kind]
        n = 8
        barrier = threading.Barrier(n)
        errors = []

        def put():
            store = open_store(tmp_path)
            barrier.wait(timeout=30)
            try:
                race(store)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=put) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        survivor = open_store(tmp_path)
        assert verify(survivor)
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.corrupt")) == []

    def test_pointer_swap_is_never_torn(self, tmp_path):
        """Readers racing repeated replacements of one key (a registry
        alias promotion) see the old document or the new one, whole."""
        writer = ContentStore(tmp_path)
        targets = [{"target": "a" * 64}, {"target": "b" * 64}]
        writer.write("prod", targets[0])
        stop = threading.Event()
        bad = []

        def read():
            reader = ContentStore(tmp_path)
            while not stop.is_set():
                found = reader.raw("prod")
                if found is None or found[0] not in targets:
                    bad.append(found)  # pragma: no cover - failure path

        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(100):
                writer.write("prod", targets[i % 2])
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestChaosCorruptCache:
    def test_corrupt_cache_reaches_every_store_through_one_path(
        self, tmp_path
    ):
        """``corrupt_cache`` draws from the service's prediction,
        registry and program stores alike; every poisoned entry is
        quarantined on its next read and counted under its store."""
        injector = FaultInjector(seed=0)
        registry = RegistryStore(tmp_path / "registry", lru_size=0)
        programs = ProgramStore(tmp_path / "registry" / "programs", lru_size=0)
        service = PredictionService(
            pinned_db(), cache_dir=tmp_path / "cache", registry=registry,
            programs=programs, fault_injector=injector,
        )
        try:
            assert set(injector.snapshot()["stores"]) == {
                "prediction", "registry", "program",
            }
            service.disk.put("k" * 64, {"times": [1.0]})
            programs.put(RING)
            poisoned = set()
            while (path := injector.corrupt_now()) is not None:
                poisoned.add(path.name)
                if path.name.startswith("predict-"):
                    assert service.disk.get("k" * 64) is None
                elif path.name.startswith("prog-"):
                    with pytest.raises(UnknownRef, match="corrupt"):
                        programs.get(RING.fingerprint)
                else:
                    with pytest.raises(UnknownRef, match="quarantined"):
                        registry.get(PINNED_DB)
            assert poisoned == {
                f"predict-{'k' * 64}.json",
                f"db-{PINNED_DB}.json",
                f"prog-{PINNED_PROGRAM}.json",
            }
            for name in ("prediction", "registry", "program"):
                assert service.metrics.counter(
                    "repro_cache_corrupt_total", store=name
                ) == 1
            text = service.metrics.render_prometheus()
            assert 'repro_cache_corrupt_total{store="program"} 1' in text
            # Re-putting the same content repairs each store.
            registry.put(pinned_db())
            programs.put(RING)
            assert registry.get(PINNED_DB).fingerprint() == PINNED_DB
            assert programs.get(RING.fingerprint).fingerprint == RING.fingerprint
        finally:
            service.close()

    def test_keyed_corruption_targets_one_prediction(self, tmp_path):
        injector = FaultInjector(seed=0)
        cache = PredictionCache(tmp_path)
        injector.stores = {"prediction": cache}
        assert injector.corrupt_now(key="aa") is None
        cache.put("aa", {"times": [1.0]})
        assert injector.corrupt_now(key="aa") == cache.path("aa")
        assert json.loads(cache.path("aa").read_text() + "]}")["times"] == [0.0]
        assert cache.get("aa") is None and cache.corruptions == 1
        assert injector.snapshot()["injected"]["corrupt_cache"] == 1
