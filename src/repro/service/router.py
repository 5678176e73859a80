"""Deterministic fid → shard routing for the sharded mining service.

A router is a pure function of the fid (no state, no RNG), so any
component — the service, the cluster wiring, a benchmark partitioning a
trace, or a future remote client — computes the same owner for the same
file. Three policies ship:

* :class:`HashShardRouter` — ``fid % n_shards``, the same modulo
  partitioning HUSt applies to its metadata servers, so pairing shard
  *i* with MDS *i* co-locates each miner with the server that receives
  its files' requests;
* :class:`RangeShardRouter` — contiguous fid blocks, preserving
  namespace locality (files allocated together mine together). Either
  striped fixed-size blocks (the default, needs no knowledge of the fid
  space) or explicit split points for hand-tuned partitions;
* :class:`ConsistentHashRouter` — a virtual-node hash ring. Modulo
  partitioning reassigns almost every fid when ``n_shards`` changes; a
  consistent-hash ring moves only ~1/n of the namespace per added
  shard, which is what makes :meth:`~repro.service.ShardedFarmer.
  rebalance` a migration of the minority instead of a full re-mine.
  Per-shard ``weights`` scale each shard's virtual-node count, so a
  loaded (or beefier) server can own a larger slice of the ring.

The ring hashes with a seeded SplitMix64 finalizer rather than Python's
``hash`` so virtual-node placement is identical across processes and
interpreter runs regardless of ``PYTHONHASHSEED`` — a requirement for
restoring a durable snapshot and for clients that route independently.

:func:`make_router` builds a router from the ``FarmerConfig`` knobs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError

__all__ = [
    "ShardRouter",
    "HashShardRouter",
    "RangeShardRouter",
    "ConsistentHashRouter",
    "make_router",
]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a strong, dependency-free 64-bit mix.

    Pure integer arithmetic — no interpreter hash randomization, no
    platform variance — so two processes (or a router reconstructed from
    config on a remote client) place virtual nodes identically.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@runtime_checkable
class ShardRouter(Protocol):
    """Structural protocol: a deterministic total map fid → shard index."""

    n_shards: int

    def route(self, fid: int) -> int:
        """Owning shard of ``fid`` (always in ``range(n_shards)``)."""
        ...  # pragma: no cover - protocol stub


class HashShardRouter:
    """Modulo partitioning — uniform load, no locality."""

    __slots__ = ("n_shards",)

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        self.n_shards = n_shards

    def route(self, fid: int) -> int:
        """``fid % n_shards`` (matches the HUSt cluster's MDS routing)."""
        return fid % self.n_shards


class RangeShardRouter:
    """Contiguous-block partitioning — locality over uniformity.

    Without ``boundaries`` the fid space is striped in fixed-size blocks
    (``block_size`` consecutive fids per block, blocks dealt round-robin
    to shards), which keeps neighbouring files together while still
    spreading load without knowing the fid population. With explicit
    ``boundaries`` (a sorted tuple of ``n_shards - 1`` split points),
    shard ``i`` owns the fids up to and including ``boundaries[i]``.
    """

    __slots__ = ("n_shards", "block_size", "boundaries")

    def __init__(
        self,
        n_shards: int,
        block_size: int = 1024,
        boundaries: tuple[int, ...] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if block_size < 1:
            raise ConfigError("block_size must be >= 1")
        if boundaries is not None:
            if len(boundaries) != n_shards - 1:
                raise ConfigError(
                    f"range router needs {n_shards - 1} boundaries, "
                    f"got {len(boundaries)}"
                )
            if list(boundaries) != sorted(boundaries):
                raise ConfigError("range boundaries must be sorted ascending")
            boundaries = tuple(boundaries)
        self.n_shards = n_shards
        self.block_size = block_size
        self.boundaries = boundaries

    def route(self, fid: int) -> int:
        """Owning shard by explicit split points or striped blocks."""
        if self.boundaries is not None:
            return bisect_left(self.boundaries, fid)
        return (fid // self.block_size) % self.n_shards


class ConsistentHashRouter:
    """Virtual-node consistent-hash ring — the rebalancing policy.

    Each shard owns ``virtual_nodes`` points on a 64-bit ring (scaled by
    its normalized weight); a fid is routed to the shard owning the
    first point at or after the fid's hash, wrapping around. Changing
    the shard count (or the weights) moves only the fids whose nearest
    point changed hands — about ``1/n`` of the namespace per added
    shard — instead of the almost-total reshuffle modulo hashing causes.

    Determinism: ring placement is a pure function of ``(n_shards,
    virtual_nodes, seed, weights)`` through :func:`splitmix64`, so every
    process reconstructing the router from config routes identically.

    ``weights`` need not be normalized (they are divided by their sum);
    a zero weight gives that shard no ring points — an intentionally
    *empty* shard, e.g. one being drained before decommissioning.
    """

    __slots__ = (
        "n_shards",
        "virtual_nodes",
        "seed",
        "weights",
        "_weight_total",
        "_points",
        "_owners",
    )

    def __init__(
        self,
        n_shards: int,
        virtual_nodes: int = 64,
        seed: int = 0,
        weights: Sequence[float] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if virtual_nodes < 1:
            raise ConfigError("virtual_nodes must be >= 1")
        if weights is not None:
            if len(weights) != n_shards:
                raise ConfigError(
                    f"consistent-hash router needs {n_shards} weights, "
                    f"got {len(weights)}"
                )
            if any(w < 0 for w in weights):
                raise ConfigError("shard weights must be >= 0")
            total = float(sum(weights))
            if total <= 0:
                raise ConfigError("at least one shard weight must be positive")
            weights = tuple(float(w) for w in weights)
        self.n_shards = n_shards
        self.virtual_nodes = virtual_nodes
        self.seed = seed
        self.weights = weights
        self._weight_total = float(sum(weights)) if weights is not None else 0.0
        ring: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for j in range(self._vnode_count(shard)):
                # ties (astronomically unlikely) resolve by (point,
                # shard) ordering, which is itself deterministic
                point = splitmix64(splitmix64(seed * 0x9E3779B9 + shard) ^ j)
                ring.append((point, shard))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    def _vnode_count(self, shard: int) -> int:
        """Ring points owned by ``shard`` (weight-scaled, 0 if weight 0)."""
        if self.weights is None:
            return self.virtual_nodes
        share = self.weights[shard] / self._weight_total
        if share == 0.0:
            return 0
        return max(1, round(self.virtual_nodes * self.n_shards * share))

    def vnode_counts(self) -> tuple[int, ...]:
        """Virtual-node count per shard (diagnostics / tests)."""
        return tuple(self._vnode_count(s) for s in range(self.n_shards))

    def route(self, fid: int) -> int:
        """Owner = shard of the first ring point at or after hash(fid)."""
        h = splitmix64(fid ^ (self.seed * 0x94D049BB))
        idx = bisect_left(self._points, h)
        if idx == len(self._points):
            idx = 0  # wrap around the ring
        return self._owners[idx]


def make_router(
    policy: str,
    n_shards: int,
    *,
    virtual_nodes: int = 64,
    seed: int = 0,
    weights: Sequence[float] | None = None,
) -> ShardRouter:
    """Router for a ``FarmerConfig.shard_policy`` value.

    ``virtual_nodes``, ``seed`` and ``weights`` only apply to the
    ``"consistent_hash"`` policy (they mirror the
    ``FarmerConfig.router_virtual_nodes`` / ``router_seed`` knobs).
    """
    if policy == "hash":
        return HashShardRouter(n_shards)
    if policy == "range":
        return RangeShardRouter(n_shards)
    if policy == "consistent_hash":
        return ConsistentHashRouter(
            n_shards, virtual_nodes=virtual_nodes, seed=seed, weights=weights
        )
    raise ConfigError(f"unknown shard policy {policy!r}")
