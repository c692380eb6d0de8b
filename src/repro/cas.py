"""The content-addressed store every durable artifact lives in.

Predictions (``predict-<key>.json``), registry databases (``cas/``,
``meta/``, ``aliases/``) and imported programs (``prog-<fp>.json``) are
all :class:`ContentStore` entries: keyed JSON documents in a directory,
or an in-process dict when ``root=None``.  The typed stores are codecs
choosing a file pattern and a *decode* step; durability lives here:

* **Atomic writes**: ``mkstemp`` beside the entry, fsync, ``os.replace``.
  A killed writer leaves at most a stray ``*.tmp``, never a truncated
  entry, and the last complete rename wins -- so shard processes can
  share one directory without locks.
* **Verified reads**: when ``decode(key, doc)`` raises ``KeyError``,
  ``TypeError`` or ``ValueError`` the entry is quarantined (renamed
  ``*.corrupt``, counted, reported to ``on_corrupt``) and reads as a
  miss; ``decode`` returning ``None`` is a miss without quarantine.
* **Idempotent puts**: valid stored content is kept and the quota
  ``check`` skipped; anything else is written, so a re-put repairs.
* **An LRU of decoded values** in front of the backing store.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable

__all__ = ["LRU", "ContentStore", "NotOwner", "StoreError", "UnknownRef"]


class StoreError(ValueError):
    """A malformed store operation (HTTP 400)."""


class UnknownRef(KeyError):
    """A ref that resolves to no stored entry (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its repr by default
        return self.args[0] if self.args else "unknown ref"


class NotOwner(StoreError):
    """A mutation by a tenant that does not own the entry (HTTP 403)."""


class LRU:
    """Bounded, thread-safe least-recently-used map (capacity 0: off)."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key, value) -> int:
        """Insert *value* as most recent; returns the number evicted."""
        evicted = 0
        with self._lock:
            if self.capacity > 0:
                self._data[key] = value
                self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
        return evicted

    def pop(self, key) -> None:
        with self._lock:
            self._data.pop(key, None)


class ContentStore:
    """Keyed JSON documents over a directory (or a dict when ``root=None``);
    *pattern* names an entry's file, ``{}`` standing for the key."""

    def __init__(
        self,
        root: str | Path | None,
        pattern: str = "{}.json",
        decode: Callable[[str, object], object] | None = None,
        lru_size: int = 0,
    ):
        self.root = Path(root) if root is not None else None
        self.pattern = pattern
        self.decode = decode or (lambda key, doc: doc)
        self.lru = LRU(lru_size)
        #: entries quarantined since construction
        self.corruptions = 0
        #: optional callback(key) fired on every quarantine
        self.on_corrupt: Callable[[str], None] | None = None
        self._mem: dict[str, str] = {}

    def path(self, key: str) -> Path | None:
        """The file of entry *key* (``None`` for an in-memory store)."""
        return None if self.root is None else self.root / self.pattern.format(key)

    def keys(self) -> list[str]:
        if self.root is None:
            return sorted(self._mem)
        prefix, suffix = self.pattern.split("{}")
        return sorted(
            p.name[len(prefix):len(p.name) - len(suffix)]
            for p in self.root.glob(f"{prefix}*{suffix}")
        )

    def paths(self) -> list[Path]:
        """Every stored entry's file (none in memory)."""
        return [self.path(key) for key in self.keys()] if self.root else []

    def __contains__(self, key: str) -> bool:
        if self.root is None:
            return key in self._mem
        return self.path(key).exists()

    def _read(self, key: str) -> str | None:
        if self.root is None:
            return self._mem.get(key)
        try:
            return self.path(key).read_text()
        except OSError:
            return None

    def raw(self, key: str) -> tuple[object, int] | None:
        """Unverified (document, bytes) of *key*, for listings."""
        text = self._read(key)
        try:
            return None if text is None else (json.loads(text), len(text))
        except ValueError:
            return None

    def entries(self) -> list[tuple[str, object, int]]:
        """``(key, document, bytes)`` of every parseable entry."""
        found = ((key, self.raw(key)) for key in self.keys())
        return [(key, *raw) for key, raw in found if raw is not None]

    def get(self, key: str):
        """The decoded value of *key*, or ``None`` on a miss."""
        value = self.lru.get(key)
        if value is None:
            value, _ = self._load(key)
            if value is not None:
                self.lru.put(key, value)
        return value

    def _load(self, key: str) -> tuple[object, int]:
        """Read and verify *key* past the LRU: ``(value, bytes)``."""
        text = self._read(key)
        if text is None:
            return None, 0
        try:
            return self.decode(key, json.loads(text)), len(text)
        except (KeyError, TypeError, ValueError):
            pass
        self.corruptions += 1
        self.lru.pop(key)
        if self.root is None:
            self._mem.pop(key, None)
        else:
            path = self.path(key)
            try:
                path.replace(path.with_suffix(".corrupt"))
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
        if self.on_corrupt is not None:
            self.on_corrupt(key)
        return None, 0

    def put(self, key: str, doc, value=None, check=None) -> int:
        """Store *doc* under *key* unless valid content is already there;
        returns the entry's size in bytes.  *check(nbytes)*, the quota
        hook, runs before anything is written.  *value*, the decoded
        form of *doc* if the caller holds it, seeds the LRU."""
        stored, nbytes = self._load(key)
        if stored is None:
            text = json.dumps(doc)
            nbytes = len(text)
            if check is not None:
                check(nbytes)
            self._write(key, text)
        if value is not None:
            self.lru.put(key, value)
        return nbytes

    def write(self, key: str, doc) -> None:
        """Store *doc* under *key* unconditionally (a pointer that
        moves, such as a registry alias)."""
        self._write(key, json.dumps(doc))

    def _write(self, key: str, text: str) -> None:
        self.lru.pop(key)
        if self.root is None:
            self._mem[key] = text
            return
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{path.stem[:24]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def delete(self, key: str, tenant: str | None = None) -> bool:
        """Remove *key*; returns whether it existed.  With *tenant*, a
        stored ``"tenant"`` field must match or :class:`NotOwner` is
        raised before anything changes."""
        found = self.raw(key) if tenant is not None else None
        doc = found[0] if found else None
        owner = doc.get("tenant") if isinstance(doc, dict) else None
        if owner is not None and owner != tenant:
            raise NotOwner(
                f"{key[:16]}... belongs to tenant {owner!r}, not {tenant!r}"
            )
        self.lru.pop(key)
        if self.root is None:
            return self._mem.pop(key, None) is not None
        try:
            self.path(key).unlink()
        except OSError:
            return False
        return True

    def _size(self, key: str) -> int | None:
        if self.root is None:
            text = self._mem.get(key)
            return None if text is None else len(text)
        try:
            return self.path(key).stat().st_size
        except OSError:
            return None

    def stats(self) -> dict:
        sizes = [n for n in map(self._size, self.keys()) if n is not None]
        return {
            "entries": len(sizes),
            "bytes": sum(sizes),
            "corruptions": self.corruptions,
            "root": str(self.root) if self.root is not None else None,
        }
