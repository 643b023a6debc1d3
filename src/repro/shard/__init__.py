"""Subscription subgrouping for the live broker's matcher (``serve --shards``).

The population is partitioned into signature subgroups with one
aggregate cover filter per shard (:mod:`~repro.shard.plan`), matched
in-process through cover-guarded indexes (:mod:`~repro.shard.matcher`),
and re-sharded under churn with minimal migration via max-flow
(:mod:`~repro.shard.rebalance`).  The sharded matcher answers exactly
what the unsharded one does; only the per-event work changes.
"""

from .matcher import CoverMatcher, ShardedMatcher
from .plan import MAX_COVER_RECTS, ShardPlan, plan_shards
from .rebalance import rebalance_groups, replan_shards

__all__ = [
    "CoverMatcher",
    "ShardedMatcher",
    "MAX_COVER_RECTS",
    "ShardPlan",
    "plan_shards",
    "rebalance_groups",
    "replan_shards",
]
