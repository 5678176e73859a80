"""FARMER configuration (every §3 knob in one validated object)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.traces.record import ATTRIBUTE_NAMES

__all__ = ["FarmerConfig", "DEFAULT_ATTRIBUTES", "PATHLESS_ATTRIBUTES"]

# The paper's HP-trace attribute set (Table 5 left) and the INS/RES set
# (Table 5 right: File ID + device stand in for the missing path).
DEFAULT_ATTRIBUTES: tuple[str, ...] = ("user", "process", "host", "path")
PATHLESS_ATTRIBUTES: tuple[str, ...] = ("user", "process", "host", "file", "dev")


@dataclass(frozen=True, slots=True)
class FarmerConfig:
    """All tunables of the FARMER model.

    The mining schedule itself is not a knob: ``observe`` marks the
    requested file's Correlator List dirty and the one-pass re-rank
    runs on its first query, and a sharded service delivers each
    boundary echo inside the call that produced it. The paper-literal references (eager
    per-request Algorithm 1, the entrywise re-rank) live in
    the test suite's oracle module and are compared against there.

    Attributes:
        weight_p: the Function 2 blend — weight of semantic distance
            (paper default 0.7; p=0 reduces FARMER to Nexus).
        max_strength: validity threshold; correlations with degree at or
            below it are filtered out (paper operating point 0.4).
        window: look-ahead window for successor edges.
        lda_decrement: LDA weight decrement per unit distance (§3.2.2).
        weight_schedule: "lda" or "uniform" (ablation).
        attributes: semantic attributes fed into vectors (Table 5 rows).
        path_method: "ipa" (paper's choice) or "dpa".
        path_mode: directory-similarity mode, "bag" (paper's arithmetic)
            or "prefix".
        sv_policy: how a file's semantic vector tracks its requests —
            "merge" (default: accumulate up to ``merge_cap`` recent
            distinct values per attribute, the VSM document-vector
            reading), "latest" (most recent request only) or "first"
            (§3.2.3 notes attributes are rarely modified). "merge" is
            essential for files shared across users/processes: a shared
            library's vector must overlap with every program that links
            it, not only the last one.
        merge_cap: distinct recent values kept per attribute under the
            "merge" policy.
        successor_capacity: max retained successors per graph node.
        correlator_capacity: max entries per Correlator List.
        prefetch_k: how many correlates the FPA prefetcher requests.
        op_filter: if set, only these operations are mined.
        n_shards: how many independent miner shards a
            :class:`~repro.service.ShardedFarmer` partitions the fid
            namespace across (1 = plain single-miner FARMER).
        shard_policy: namespace partitioning policy for the service
            router — "hash" (fid modulo, matches the HUSt cluster's MDS
            partitioning), "range" (contiguous fid blocks, preserves
            directory locality) or "consistent_hash" (a virtual-node
            hash ring: changing the shard count moves only ~1/n of the
            namespace, which is what makes ``ShardedFarmer.rebalance``
            a minority migration instead of a full re-mine).
        router_virtual_nodes: ring points per shard for the
            "consistent_hash" policy (more points = smoother load
            spread, larger routing table; ignored by other policies).
        router_seed: deterministic seed for consistent-hash ring
            placement. The ring hashes with a seeded SplitMix64 mix, so
            two processes (or a remote client) reconstructing the
            router from config route identically regardless of
            ``PYTHONHASHSEED``.
        replication: if True, a :class:`~repro.service.ShardedFarmer`
            keeps one warm standby per primary shard
            (:mod:`repro.service.replication`), synced through the
            shard-migration seam every ``standby_sync_interval``
            accepted requests. ``fail_shard(i)`` / ``promote_standby(i)``
            then make shard failover a first-class operation: the
            promoted standby serves exactly what the failed primary
            served at the last sync barrier. False (default) keeps the
            service unreplicated (no standby memory, no sync work).
        standby_sync_interval: accepted requests between standby sync
            barriers (only meaningful with ``replication=True``). At a
            barrier every primary's changed graph nodes and
            freshly-ranked Correlator Lists are copied to its standby;
            a smaller interval narrows the failover loss window at the
            cost of more sync work.
        cross_shard_edges: if True (default), a request whose immediate
            predecessor in the service-level stream lives on a different
            shard (a *boundary request*) is observed by both owner
            shards, so adjacent inter-shard correlations are mined
            instead of silently dropped. False gives strict partition
            isolation: each shard sees exactly its own substream.
    """

    weight_p: float = 0.7
    max_strength: float = 0.4
    window: int = 4
    lda_decrement: float = 0.1
    weight_schedule: str = "lda"
    attributes: tuple[str, ...] = DEFAULT_ATTRIBUTES
    path_method: str = "ipa"
    path_mode: str = "bag"
    sv_policy: str = "merge"
    merge_cap: int = 6
    successor_capacity: int = 32
    correlator_capacity: int = 16
    prefetch_k: int = 4
    op_filter: tuple[str, ...] | None = None
    n_shards: int = 1
    shard_policy: str = "hash"
    router_virtual_nodes: int = 64
    router_seed: int = 0
    replication: bool = False
    standby_sync_interval: int = 1024
    cross_shard_edges: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight_p <= 1.0:
            raise ConfigError("weight_p must be in [0, 1]")
        if not 0.0 <= self.max_strength <= 1.0:
            raise ConfigError("max_strength must be in [0, 1]")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if not 0.0 <= self.lda_decrement <= 1.0:
            raise ConfigError("lda_decrement must be in [0, 1]")
        if self.weight_schedule not in ("lda", "uniform"):
            raise ConfigError(f"unknown weight schedule {self.weight_schedule!r}")
        if not self.attributes:
            raise ConfigError("at least one semantic attribute is required")
        for attr in self.attributes:
            if attr not in ATTRIBUTE_NAMES:
                raise ConfigError(
                    f"unknown attribute {attr!r}; valid: {ATTRIBUTE_NAMES}"
                )
        if self.path_method not in ("ipa", "dpa"):
            raise ConfigError(f"unknown path method {self.path_method!r}")
        if self.path_mode not in ("bag", "prefix"):
            raise ConfigError(f"unknown path mode {self.path_mode!r}")
        if self.sv_policy not in ("merge", "latest", "first"):
            raise ConfigError(f"unknown sv policy {self.sv_policy!r}")
        if self.merge_cap < 1:
            raise ConfigError("merge_cap must be >= 1")
        if self.successor_capacity < 1:
            raise ConfigError("successor_capacity must be >= 1")
        if self.correlator_capacity < 1:
            raise ConfigError("correlator_capacity must be >= 1")
        if self.prefetch_k < 0:
            raise ConfigError("prefetch_k must be >= 0")
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.shard_policy not in ("hash", "range", "consistent_hash"):
            raise ConfigError(f"unknown shard policy {self.shard_policy!r}")
        if self.router_virtual_nodes < 1:
            raise ConfigError("router_virtual_nodes must be >= 1")
        if self.standby_sync_interval < 1:
            raise ConfigError("standby_sync_interval must be >= 1")

    def with_(self, **changes) -> "FarmerConfig":
        """Functional update (re-validates)."""
        return replace(self, **changes)

    def as_nexus(self) -> "FarmerConfig":
        """The paper's reduction: p=0 and no semantic filtering ≙ Nexus."""
        return self.with_(weight_p=0.0, max_strength=0.0)
