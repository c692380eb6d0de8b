"""Consistent-hash shard routing over content-addressed request keys.

The sharded serving tier (:mod:`.router` / :mod:`.supervisor`) scales
the service past one event loop by running N full server processes.
For the funnel's throughput tiers to keep working *cluster-wide*, every
request key must always land on the same shard:

* **cache affinity** -- a shard's LRU only ever sees its own key range,
  so N shards hold N disjoint working sets instead of N copies of one;
* **singleflight** -- concurrent identical requests meet in one process
  and still collapse to a single evaluation;
* **micro-batching** -- misses that queue on a busy shard share its
  next batch, which saves only the hop to its evaluator thread.

:class:`HashRing` is the classic consistent-hash ring (Karger et al.)
with virtual nodes: each shard hashes to ``replicas`` points on a
64-bit ring and a key is owned by the first point clockwise from its
hash.  Removing a shard remaps *only* the keys it owned (they fall to
the next point clockwise -- the shard's *failover owner*); every other
key keeps its owner.  That property is what makes shard death cheap:
the router re-routes exactly the dead shard's hash range and nothing
else, and when the supervisor restarts the shard its range snaps back.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

__all__ = ["HashRing", "ring_hash"]

#: virtual nodes per shard; enough for even ownership at small N while
#: keeping ring construction/lookup trivial
DEFAULT_REPLICAS = 64


def ring_hash(data: str) -> int:
    """Position of *data* on the 64-bit ring (stable across processes).

    ``blake2b`` with an 8-byte digest: cryptographic diffusion (request
    keys are already sha256 hex, but shard labels are not) at a fraction
    of sha256's cost, and -- unlike ``hash()`` -- independent of
    ``PYTHONHASHSEED``, so every process maps keys identically.
    """
    return int.from_bytes(
        hashlib.blake2b(data.encode(), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring mapping string keys to member nodes."""

    def __init__(self, nodes=(), replicas: int = DEFAULT_REPLICAS):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        #: sorted ring positions and their owning node, kept in lockstep
        self._points: list[int] = []
        self._owners: list[object] = []
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> list:
        return sorted(self._nodes, key=str)

    def add(self, node) -> None:
        """Insert *node* (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = ring_hash(f"{node}#{replica}")
            at = bisect_right(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node) -> None:
        """Remove *node*; only its keys change owner (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [
            (p, o)
            for p, o in zip(self._points, self._owners)
            if o != node
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def owner(self, key: str):
        """The node owning *key* (first ring point clockwise)."""
        owners = self.owners(key, count=1)
        if not owners:
            raise LookupError("hash ring is empty")
        return owners[0]

    def owners(self, key: str, count: int | None = None) -> list:
        """Distinct nodes in preference order for *key*.

        The first entry is the owner; the second is the *failover owner*
        (where the key's range falls if the owner is removed), and so on.
        With ``count=None`` every member is returned, so a router can
        walk the full preference list when shards keep failing.
        """
        if not self._points:
            return []
        if count is None:
            count = len(self._nodes)
        found: list = []
        start = bisect_right(self._points, ring_hash(key))
        n = len(self._points)
        for step in range(n):
            node = self._owners[(start + step) % n]
            if node not in found:
                found.append(node)
                if len(found) >= count:
                    break
        return found
