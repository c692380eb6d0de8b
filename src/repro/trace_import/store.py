"""Content-addressed store of imported trace programs.

One :class:`~repro.cas.ContentStore` of ``root/prog-<fingerprint>.json``
envelopes (the canonical program plus name, owning tenant and source);
the service puts ``root`` at ``programs/`` under the registry root, or
in memory without one.  Programs are *only* addressed by fingerprint --
no aliases -- so a ``/predict`` keyed on a program ref can be cached
forever.  Loads re-validate and re-fingerprint the stored document, so
a corrupt or tampered file can never impersonate its address.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from ..cas import ContentStore
from ..registry.store import FINGERPRINT_RE, RegistryError, UnknownRef
from .importer import TraceProgram

__all__ = ["ProgramStore"]


def _decode_program(fingerprint: str, envelope) -> TraceProgram:
    doc = envelope["program"]
    program = TraceProgram.build(
        str(envelope.get("name", "trace")),
        doc["nprocs"],
        [[tuple(event) for event in rank] for rank in doc["ranks"]],
    )
    if program.fingerprint != fingerprint:
        raise ValueError("content does not match its fingerprint")
    return program


class ProgramStore:
    """CAS + LRU over imported :class:`TraceProgram` artifacts."""

    def __init__(self, root: str | Path | None = None, lru_size: int = 16):
        self.root = Path(root) if root is not None else None
        self.cas = ContentStore(self.root, "prog-{}.json", _decode_program, lru_size)

    def put(
        self,
        program: TraceProgram,
        tenant: str = "public",
        source: str | None = None,
        check: Callable[[int], None] | None = None,
    ) -> dict:
        """Store *program* under its fingerprint; returns its meta.
        *check(nbytes)*, the quota hook, is skipped for stored content."""
        envelope = {"name": program.name, "tenant": tenant}
        envelope["program"] = program.canonical()
        if source is not None:
            envelope["source"] = source
        self.cas.put(program.fingerprint, envelope, value=program, check=check)
        return self.meta(program.fingerprint)

    def get(self, ref: str) -> TraceProgram:
        """Fingerprint -> validated :class:`TraceProgram` (404 on miss)."""
        if not isinstance(ref, str) or not FINGERPRINT_RE.match(ref):
            raise RegistryError(
                f"malformed program ref {ref!r} (want a sha256 fingerprint)"
            )
        seen = self.cas.corruptions
        program = self.cas.get(ref)
        if program is None:
            raise UnknownRef(
                f"program {ref[:16]}... was corrupt and has been removed; "
                f"import it again" if self.cas.corruptions != seen else
                f"no imported program with fingerprint {ref[:16]}..."
            )
        return program

    def delete(self, ref: str, tenant: str | None = None) -> str:
        """Remove a program; with *tenant*, the caller must own it."""
        if not FINGERPRINT_RE.match(ref or "") or not self.cas.delete(ref, tenant):
            raise UnknownRef(f"no imported program with fingerprint {ref!r}")
        return ref

    # -- introspection -----------------------------------------------------------
    def meta(self, fingerprint: str) -> dict | None:
        try:
            envelope, nbytes = self.cas.raw(fingerprint)
            program = envelope["program"]
            ranks = program.get("ranks", [])
        except (AttributeError, KeyError, TypeError):
            return None
        meta = {
            "fingerprint": fingerprint,
            "name": envelope.get("name", "trace"),
            "tenant": envelope.get("tenant", "public"),
            "nprocs": program.get("nprocs", 0),
            "events": sum(map(len, ranks)),
            "messages": sum(e[0] == "send" for rank in ranks for e in rank),
            "bytes": nbytes,
        }
        if "source" in envelope:
            meta["source"] = envelope["source"]
        return meta

    def entries(self) -> list[dict]:
        """One meta document per stored program (``GET /programs``)."""
        return [m for m in map(self.meta, self.cas.keys()) if m is not None]

    def tenant_usage(self, tenant: str) -> tuple[int, int]:
        """(program count, total bytes) owned by *tenant*."""
        owned = [m for m in self.entries() if m["tenant"] == tenant]
        return len(owned), sum(m["bytes"] for m in owned)

    def stats(self) -> dict:
        cas = self.cas.stats()
        return {"programs": cas.pop("entries"), **cas}

    def __len__(self) -> int:
        return len(self.cas.keys())
