"""Unit tests for the registry's database codec and alias index.

The durability contract the registry inherits -- atomic writes,
same-content races, torn-free alias swaps, quarantine -- is tested once
for every store in ``tests/test_cas.py``.  Here: registration, alias
resolution and hot-swap, ownership, accounting, and the registry's own
verification (a CAS entry must hash to its fingerprint).
"""

import json

import numpy as np
import pytest

from repro.mpibench import BenchmarkResult, DistributionDB, Histogram
from repro.registry import (
    NotOwner,
    RegistryError,
    RegistryStore,
    UnknownRef,
)


def _result(op="isend", nodes=4, ppn=1, sizes=(0, 1024), centre=100e-6,
            cluster="perseus"):
    rng = np.random.default_rng(nodes * 1000 + ppn)
    hists = {}
    for size in sizes:
        loc = centre * (1 + size / 1024) * (nodes * ppn) ** 0.25
        hists[size] = Histogram.from_samples(
            loc + rng.gamma(3.0, loc / 10, size=64), bins=20
        )
    return BenchmarkResult(
        op=op, nodes=nodes, ppn=ppn, cluster=cluster, histograms=hists, reps=64
    )


def make_db(cluster="perseus", configs=((2, 1), (4, 1))) -> DistributionDB:
    db = DistributionDB()
    for nodes, ppn in configs:
        db.add(_result(nodes=nodes, ppn=ppn, cluster=cluster))
    return db


@pytest.fixture(params=["disk", "memory"])
def store(request, tmp_path):
    root = tmp_path / "registry" if request.param == "disk" else None
    return RegistryStore(root)


class TestPutResolveGet:
    def test_put_returns_meta_and_get_round_trips(self, store):
        db = make_db()
        meta = store.put(db, tenant="alice", source="test")
        fpr = db.fingerprint()
        assert meta["fingerprint"] == fpr
        assert meta["tenant"] == "alice"
        assert meta["cluster"] == "perseus"
        assert meta["results"] == len(db)
        assert meta["bytes"] > 0
        assert store.resolve(fpr) == fpr
        # LRU serves back the very object we registered.
        assert store.get(fpr) is db

    def test_put_freezes_the_db(self, store):
        db = make_db()
        store.put(db)
        assert db.frozen
        with pytest.raises(RuntimeError, match="frozen"):
            db.add(_result(nodes=8))

    def test_put_is_idempotent_and_skips_quota(self, store):
        db = make_db()
        first = store.put(db, tenant="alice")

        def boom(nbytes):
            raise AssertionError("quota check must not run on re-upload")

        again = store.put(make_db(), tenant="bob", check=boom)
        # Same content: same entry, first uploader keeps ownership.
        assert again["fingerprint"] == first["fingerprint"]
        assert again["tenant"] == "alice"
        assert len(store) == 1

    def test_check_runs_before_any_write(self, store):
        def refuse(nbytes):
            raise RuntimeError("quota")

        with pytest.raises(RuntimeError, match="quota"):
            store.put(make_db(), check=refuse)
        assert len(store) == 0
        assert store.stats()["bytes"] == 0

    def test_cold_load_bit_identical(self, tmp_path):
        root = tmp_path / "reg"
        db = make_db()
        RegistryStore(root).put(db)
        # A brand-new store (fresh process, empty LRU) reloads the
        # identical content.
        reloaded = RegistryStore(root).get(db.fingerprint())
        assert reloaded is not db
        assert reloaded.fingerprint() == db.fingerprint()
        assert reloaded.frozen

    def test_unknown_ref_raises(self, store):
        with pytest.raises(UnknownRef):
            store.resolve("a" * 64)
        with pytest.raises(UnknownRef):
            store.get("no-such-alias")

    def test_malformed_ref_raises_registry_error(self, store):
        with pytest.raises(RegistryError):
            store.resolve("")
        with pytest.raises(RegistryError):
            store.resolve("spaces are bad")
        with pytest.raises(RegistryError):
            store.resolve(None)


class TestAliases:
    def test_alias_set_resolve_and_listing(self, store):
        db = make_db()
        fpr = db.fingerprint()
        store.put(db, tenant="alice")
        assert store.set_alias("perseus@v1", fpr, tenant="alice") == fpr
        assert store.resolve("perseus@v1") == fpr
        assert store.aliases()["perseus@v1"]["fingerprint"] == fpr
        entry = store.entries()[0]
        assert entry["aliases"] == ["perseus@v1"]

    def test_alias_repoint_is_hot_swap(self, store):
        db1, db2 = make_db(), make_db(cluster="gigabit")
        store.put(db1)
        store.put(db2)
        store.set_alias("prod", db1.fingerprint())
        assert store.resolve("prod") == db1.fingerprint()
        store.set_alias("prod", db2.fingerprint())
        # Fresh resolution sees the new target; the old fingerprint is
        # still directly addressable (in-flight requests pinned to it
        # keep working).
        assert store.resolve("prod") == db2.fingerprint()
        assert store.resolve(db1.fingerprint()) == db1.fingerprint()

    def test_alias_to_alias_ref(self, store):
        db = make_db()
        store.put(db)
        store.set_alias("v1", db.fingerprint())
        # set_alias accepts an alias as the ref and stores the resolved
        # fingerprint, not a chain.
        store.set_alias("prod", "v1")
        assert store.aliases()["prod"]["fingerprint"] == db.fingerprint()

    def test_alias_to_unknown_ref_rejected(self, store):
        with pytest.raises(UnknownRef):
            store.set_alias("prod", "b" * 64)

    def test_alias_cannot_look_like_fingerprint(self, store):
        db = make_db()
        store.put(db)
        with pytest.raises(RegistryError):
            store.set_alias("c" * 64, db.fingerprint())

    def test_alias_to_deleted_db_is_unknown(self, store):
        db = make_db()
        store.put(db)
        store.set_alias("prod", db.fingerprint())
        store.delete(db.fingerprint())
        with pytest.raises(UnknownRef):
            store.resolve("prod")


class TestDelete:
    def test_delete_removes_cas_meta_aliases(self, store):
        db = make_db()
        fpr = db.fingerprint()
        store.put(db, tenant="alice")
        store.set_alias("prod", fpr)
        assert store.delete(fpr, tenant="alice") == fpr
        assert len(store) == 0
        assert store.aliases() == {}
        assert store.meta(fpr) is None
        with pytest.raises(UnknownRef):
            store.get(fpr)

    def test_delete_by_other_tenant_refused(self, store):
        db = make_db()
        store.put(db, tenant="alice")
        with pytest.raises(NotOwner):
            store.delete(db.fingerprint(), tenant="bob")
        assert len(store) == 1

    def test_admin_delete_ignores_ownership(self, store):
        db = make_db()
        store.put(db, tenant="alice")
        store.delete(db.fingerprint())  # tenant=None: administrative
        assert len(store) == 0


class TestQuarantine:
    def test_corrupt_entry_quarantined_and_reuploadable(self, tmp_path):
        root = tmp_path / "reg"
        store = RegistryStore(root, lru_size=0)  # force disk reads
        db = make_db()
        fpr = db.fingerprint()
        store.put(db)
        cas = root / "cas" / f"db-{fpr}.json"
        cas.write_text('{"version": 2, "times": [0.0')
        seen = []
        store.cas.on_corrupt = seen.append
        with pytest.raises(UnknownRef, match="quarantined"):
            store.get(fpr)
        assert store.corruptions == 1
        assert seen == [fpr]
        assert not cas.exists()
        assert cas.with_suffix(".corrupt").exists()
        assert store.meta(fpr) is None  # no longer counted for its tenant
        # Plain miss now; re-uploading the same content repairs it.
        with pytest.raises(UnknownRef):
            store.resolve(fpr)
        store.put(make_db())
        assert store.get(fpr).fingerprint() == fpr

    def test_reupload_repairs_corrupt_entry_nobody_read(self, tmp_path):
        """A re-upload must verify the stored bytes before trusting
        them: a fresh store that never read the corrupt entry still
        repairs it."""
        root = tmp_path / "reg"
        db = make_db()
        fpr = db.fingerprint()
        RegistryStore(root).put(db)
        (root / "cas" / f"db-{fpr}.json").write_text("garbage")
        RegistryStore(root).put(make_db())
        assert RegistryStore(root, lru_size=0).get(fpr).fingerprint() == fpr

    def test_tampered_content_detected_by_hash(self, tmp_path):
        root = tmp_path / "reg"
        store = RegistryStore(root, lru_size=0)
        db = make_db()
        fpr = db.fingerprint()
        store.put(db)
        cas = root / "cas" / f"db-{fpr}.json"
        # Valid JSON, valid DB document -- but not the content the
        # fingerprint promises.
        cas.write_text(json.dumps(make_db(cluster="evil").to_doc()))
        with pytest.raises(UnknownRef, match="quarantined"):
            store.get(fpr)
        assert store.corruptions == 1


class TestIntrospection:
    def test_lru_eviction(self, store):
        store.cas.lru.capacity = 1
        db1, db2 = make_db(), make_db(cluster="gigabit")
        store.put(db1)
        store.put(db2)
        assert len(store.cas.lru) == 1
        # Evicted entries are still servable (reloaded from the CAS).
        assert store.get(db1.fingerprint()).fingerprint() == db1.fingerprint()

    def test_tenant_usage_and_stats(self, store):
        db1, db2 = make_db(), make_db(cluster="gigabit")
        m1 = store.put(db1, tenant="alice")
        store.put(db2, tenant="bob")
        count, used = store.tenant_usage("alice")
        assert (count, used) == (1, m1["bytes"])
        stats = store.stats()
        assert stats["dbs"] == 2
        assert stats["bytes"] == sum(m["bytes"] for m in store.entries())
        assert stats["aliases"] == 0
        assert stats["corruptions"] == 0
        store.set_alias("prod", db1.fingerprint())
        assert store.stats()["aliases"] == 1
        assert store.stats()["index_mtime"] is not None
