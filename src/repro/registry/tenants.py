"""Per-tenant namespaces over the registry: quotas and request rates.

A tenant is named by the ``X-Repro-Tenant`` request header (default
``public``).  Two enforcement points:

* **upload quota** -- database count and total bytes per tenant
  (databases and imported programs alike count toward the bytes),
  checked *before* the CAS write so a rejected upload leaves no
  partial state (and re-uploading already-stored content is always
  free: content-addressing makes it a no-op);
* **request rate** -- a token bucket per tenant, plugged into the
  service's :class:`~repro.service.jobs.JobQueue` admission path so a
  throttled tenant gets the same 429 + ``Retry-After`` contract as a
  full queue, before any engine work is done.

Both failures carry a ``retry_after`` hint, matching the admission
layer's existing backpressure idiom.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .store import ALIAS_RE, RegistryError, RegistryStore

__all__ = [
    "QuotaExceeded",
    "TenantManager",
    "TenantQuota",
    "TenantThrottled",
    "clean_tenant",
]

DEFAULT_TENANT = "public"


class QuotaExceeded(RuntimeError):
    """Tenant storage quota exhausted (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class TenantThrottled(RuntimeError):
    """Tenant request rate exhausted (HTTP 429 + Retry-After)."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


def clean_tenant(value: str | None) -> str:
    """Validate an ``X-Repro-Tenant`` header value; ``None``/empty means
    the shared :data:`DEFAULT_TENANT` namespace."""
    if value is None:
        return DEFAULT_TENANT
    value = value.strip()
    if not value:
        return DEFAULT_TENANT
    if not ALIAS_RE.match(value):
        raise RegistryError(
            f"malformed tenant name {value!r} (want {ALIAS_RE.pattern})"
        )
    return value


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant limits.  ``rate=0`` disables request throttling."""

    max_dbs: int = 16
    max_bytes: int = 256 * 1024 * 1024
    #: sustained requests/second replenished into the bucket
    rate: float = 0.0
    #: bucket capacity (burst head-room)
    burst: int = 8
    #: Retry-After floor for quota rejections
    retry_after: float = 1.0


class _Bucket:
    __slots__ = ("tokens", "stamp")

    def __init__(self, tokens: float, stamp: float):
        self.tokens = tokens
        self.stamp = stamp


class TenantManager:
    """Quota + rate accounting for one registry store."""

    def __init__(
        self,
        store: RegistryStore,
        quota: TenantQuota | None = None,
        clock=time.monotonic,
    ):
        self.store = store
        #: the program store whose bytes also count toward ``max_bytes``
        #: (the service attaches its own)
        self.programs = None
        self.quota = quota or TenantQuota()
        self._clock = clock
        self._buckets: dict[str, _Bucket] = {}
        self._lock = threading.Lock()
        #: throttle rejections since construction (metrics hook)
        self.throttled = 0

    # -- request rate ------------------------------------------------------------
    def admit(self, tenant: str | None) -> None:
        """Take one token from *tenant*'s bucket or raise
        :class:`TenantThrottled`.  No-op when throttling is disabled
        (``rate <= 0``)."""
        quota = self.quota
        if quota.rate <= 0:
            return
        name = tenant or DEFAULT_TENANT
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(name)
            if bucket is None:
                bucket = _Bucket(float(quota.burst), now)
                self._buckets[name] = bucket
            else:
                bucket.tokens = min(
                    float(quota.burst),
                    bucket.tokens + (now - bucket.stamp) * quota.rate,
                )
                bucket.stamp = now
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                return
            wait = (1.0 - bucket.tokens) / quota.rate
            self.throttled += 1
        raise TenantThrottled(
            f"tenant {name!r} exceeded its request rate", retry_after=wait
        )

    # -- storage quota -----------------------------------------------------------
    def _usage(self, tenant: str) -> tuple[int, int]:
        """(database count, bytes across databases and programs)."""
        count, used = self.store.tenant_usage(tenant)
        if self.programs is not None:
            used += self.programs.tenant_usage(tenant)[1]
        return count, used

    def check_upload(self, tenant: str, nbytes: int) -> None:
        """Admit or refuse an upload of *nbytes* new content by
        *tenant*; the quota hook :meth:`RegistryStore.put` and
        :meth:`~repro.trace_import.ProgramStore.put` run before writing."""
        quota = self.quota
        count, used = self._usage(tenant)
        if count + 1 > quota.max_dbs:
            raise QuotaExceeded(
                f"tenant {tenant!r} already stores {count} databases "
                f"(limit {quota.max_dbs})",
                retry_after=quota.retry_after,
            )
        if used + nbytes > quota.max_bytes:
            raise QuotaExceeded(
                f"tenant {tenant!r} would store {used + nbytes} bytes "
                f"(limit {quota.max_bytes})",
                retry_after=quota.retry_after,
            )

    def usage(self, tenant: str) -> dict:
        count, used = self._usage(tenant)
        return {
            "tenant": tenant,
            "dbs": count,
            "bytes": used,
            "max_dbs": self.quota.max_dbs,
            "max_bytes": self.quota.max_bytes,
        }
