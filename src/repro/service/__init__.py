"""The sharded mining service: namespace-partitioned FARMER at scale.

:class:`ShardedFarmer` splits the fid namespace across N independent
miner shards behind a deterministic router, sharing the vocabulary, the
vector store and a Function-1 evaluation counter.
This is the architectural seam for scaling the miner alongside the
metadata servers: shard *i* co-locates with MDS *i* in the cluster
simulator, and :class:`ParallelShardRunner` executes the shards on real
threads or processes (the shared stores are lock-protected for exactly
this). With ``FarmerConfig.replication=True`` each primary keeps a warm
standby (:mod:`repro.service.replication`) and ``fail_shard`` /
``promote_standby`` make shard failover a first-class operation;
``auto_rebalance`` feeds observed shard load back into consistent-hash
ring weights. Every future scaling step plugs in behind the same
façade.
"""

from repro.service.harness import (
    ServiceComparison,
    ShardTiming,
    WallClockComparison,
    compare_parallel_mine,
    compare_single_vs_sharded,
    replay_sharded,
    replay_single,
)
from repro.service.router import (
    ConsistentHashRouter,
    HashShardRouter,
    RangeShardRouter,
    ShardRouter,
    make_router,
)
from repro.service.replication import (
    FailoverReport,
    ShardReplica,
    ShardReplicator,
    StandbySyncReport,
)
from repro.service.runner import ParallelMineReport, ParallelShardRunner
from repro.service.sharded import (
    AutoRebalanceReport,
    RebalanceReport,
    ShardedFarmer,
    StreamIngestReport,
)
from repro.service.stats import (
    ServiceStats,
    combine_rerank_stats,
)

__all__ = [
    "ServiceComparison",
    "ShardTiming",
    "WallClockComparison",
    "compare_parallel_mine",
    "compare_single_vs_sharded",
    "replay_sharded",
    "replay_single",
    "ConsistentHashRouter",
    "HashShardRouter",
    "RangeShardRouter",
    "ShardRouter",
    "make_router",
    "FailoverReport",
    "ShardReplica",
    "ShardReplicator",
    "StandbySyncReport",
    "ParallelMineReport",
    "ParallelShardRunner",
    "AutoRebalanceReport",
    "RebalanceReport",
    "ShardedFarmer",
    "StreamIngestReport",
    "ServiceStats",
    "combine_rerank_stats",
]
