"""Versioned store of distribution databases, with aliases.

Three :class:`~repro.cas.ContentStore` namespaces under one registry
root, shared by every shard of a deployment (in memory when
``root=None``):

    root/cas/db-<fingerprint>.json   -- the DB document (``to_doc``)
    root/meta/db-<fingerprint>.json  -- ownership + size accounting
    root/aliases/<alias>.json        -- one file per alias

:mod:`repro.cas` supplies atomic writes, quarantine and the LRU; this
module adds the database codec (a load must hash to its fingerprint)
and the alias index.  One file *per alias* makes a promotion a single
atomic replacement: a reader sees the old fingerprint or the new one,
never a torn index.  Resolution re-reads that small file per lookup, so
a promotion on any shard is instantly visible to all of them.
"""

from __future__ import annotations

import re
import time
from pathlib import Path
from typing import Callable

from ..cas import ContentStore, NotOwner, UnknownRef
from ..cas import StoreError as RegistryError
from ..mpibench.results import DistributionDB

__all__ = ["NotOwner", "RegistryError", "RegistryStore", "UnknownRef"]

#: legal aliases / tenant names: filesystem-safe, ``perseus@v3``-style
ALIAS_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._@-]{0,63}$")
#: a full content fingerprint (sha256 hex)
FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")


def _decode_db(fingerprint: str, doc) -> DistributionDB:
    db = DistributionDB.from_doc(doc)
    if db.fingerprint() != fingerprint:
        raise ValueError("content does not match its fingerprint")
    db.freeze()
    return db


class RegistryStore:
    """CAS + alias index + LRU over :class:`DistributionDB` artifacts."""

    def __init__(self, root: str | Path | None = None, lru_size: int = 8):
        self.root = Path(root) if root is not None else None
        under = (lambda name: None) if root is None else self.root.joinpath
        #: the database documents (the entries chaos may corrupt)
        self.cas = ContentStore(under("cas"), "db-{}.json", _decode_db, lru_size)
        self._meta = ContentStore(under("meta"), "db-{}.json")
        self._aliases = ContentStore(under("aliases"))

    @property
    def corruptions(self) -> int:
        """Corrupt CAS entries quarantined since construction."""
        return self.cas.corruptions

    # -- population --------------------------------------------------------------
    def put(
        self,
        db: DistributionDB,
        tenant: str = "public",
        source: str | None = None,
        check: Callable[[int], None] | None = None,
    ) -> dict:
        """Register and freeze *db* (the content behind a fingerprint
        must never change); returns its meta.  *check(nbytes)*, the
        quota hook, is skipped for already-stored content, whose first
        uploader keeps ownership."""
        fingerprint = db.fingerprint()
        db.freeze()
        nbytes = self.cas.put(
            fingerprint, db.to_doc(include_samples=True), value=db, check=check
        )
        meta = self.meta(fingerprint)
        if meta is None:
            meta = {
                "fingerprint": fingerprint,
                "cluster": db.cluster,
                "tenant": tenant,
                "bytes": nbytes,
                "results": len(db),
                "ops": db.ops(),
                "created_ns": time.time_ns(),
            }
            if source is not None:
                meta["source"] = source
            self._meta.put(fingerprint, meta)
        return meta

    # -- resolution --------------------------------------------------------------
    def resolve(self, ref: str) -> str:
        """Resolve an alias or full fingerprint to a stored fingerprint
        (checked against the CAS, so a deleted database 404s even if an
        LRU copy lingers)."""
        if not isinstance(ref, str) or not ref:
            raise RegistryError("registry ref must be a non-empty string")
        if FINGERPRINT_RE.match(ref):
            if ref in self.cas:
                return ref
            raise UnknownRef(f"no database with fingerprint {ref[:16]}...")
        if not ALIAS_RE.match(ref):
            raise RegistryError(f"malformed registry ref {ref!r}")
        found = self._aliases.raw(ref)
        entry = found[0] if found else None
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise UnknownRef(f"no database or alias named {ref!r}")
        fingerprint = str(entry["fingerprint"])
        if fingerprint not in self.cas:
            raise UnknownRef(
                f"alias {ref!r} points at a deleted database "
                f"({fingerprint[:16]}...)"
            )
        return fingerprint

    def get(self, ref: str) -> DistributionDB:
        """Load (alias or fingerprint) -> frozen :class:`DistributionDB`;
        a corrupt entry is quarantined and its meta dropped."""
        fingerprint = self.resolve(ref)
        seen = self.cas.corruptions
        db = self.cas.get(fingerprint)
        if db is not None:
            return db
        if self.cas.corruptions == seen:
            raise UnknownRef(f"no database with fingerprint {fingerprint[:16]}...")
        self._meta.delete(fingerprint)
        raise UnknownRef(
            f"database {fingerprint[:16]}... was corrupt and has been "
            f"quarantined; upload it again"
        )

    # -- aliases -----------------------------------------------------------------
    def set_alias(self, alias: str, ref: str, tenant: str = "public") -> str:
        """Point *alias* at *ref* (alias or fingerprint); returns the
        resolved fingerprint.  One atomic file replacement -- in-flight
        requests that already resolved the old fingerprint keep serving
        it; new resolutions see the new one.  This *is* hot-swap."""
        if not isinstance(alias, str) or not ALIAS_RE.match(alias):
            raise RegistryError(
                f"malformed alias {alias!r} (want {ALIAS_RE.pattern})"
            )
        if FINGERPRINT_RE.match(alias):
            raise RegistryError("an alias cannot look like a fingerprint")
        fingerprint = self.resolve(ref)
        self._aliases.write(alias, {
            "alias": alias,
            "fingerprint": fingerprint,
            "tenant": tenant,
            "updated_ns": time.time_ns(),
        })
        return fingerprint

    def aliases(self) -> dict[str, dict]:
        """alias -> ``{"fingerprint", "tenant", "updated_ns"}``."""
        return {
            alias: doc
            for alias, doc, _ in self._aliases.entries()
            if isinstance(doc, dict) and "fingerprint" in doc
        }

    # -- removal -----------------------------------------------------------------
    def delete(self, ref: str, tenant: str | None = None) -> str:
        """Remove a database and its aliases; returns its fingerprint.
        With *tenant* the caller must own it (``None``: admin)."""
        fingerprint = self.resolve(ref)
        self._meta.delete(fingerprint, tenant)  # ownership checked first
        self.cas.delete(fingerprint)
        for alias, entry in self.aliases().items():
            if entry.get("fingerprint") == fingerprint:
                self._aliases.delete(alias)
        return fingerprint

    # -- introspection -----------------------------------------------------------
    def meta(self, fingerprint: str) -> dict | None:
        found = self._meta.raw(fingerprint)
        return found[0] if found and isinstance(found[0], dict) else None

    def entries(self) -> list[dict]:
        """One meta document per stored database, aliases attached --
        the ``GET /distributions`` fleet listing."""
        aliases = self.aliases().items()
        return [
            dict(
                self.meta(fp) or {"fingerprint": fp},
                aliases=[a for a, entry in aliases if entry["fingerprint"] == fp],
            )
            for fp in self.cas.keys()
        ]

    def tenant_usage(self, tenant: str) -> tuple[int, int]:
        """(database count, total bytes) owned by *tenant*."""
        owned = [
            meta
            for meta in map(self.meta, self.cas.keys())
            if meta is not None and meta.get("tenant") == tenant
        ]
        return len(owned), sum(int(meta.get("bytes", 0)) for meta in owned)

    def stats(self) -> dict:
        """Registry state for ``/healthz`` and the metrics gauges."""
        cas = self.cas.stats()
        stamps = [entry.get("updated_ns", 0) for entry in self.aliases().values()]
        return {
            "dbs": cas["entries"],
            "bytes": cas["bytes"],
            "aliases": len(stamps),
            "corruptions": cas["corruptions"],
            "index_mtime": max(stamps) / 1e9 if stamps else None,
            "root": str(self.root) if self.root is not None else None,
        }

    def __len__(self) -> int:
        return len(self.cas.keys())
