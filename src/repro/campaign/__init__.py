"""The campaign layer: sharded, resumable multi-day runs.

One :class:`CampaignConfig` describes a whole multi-day, multi-
exchange workload; :func:`run_campaign` partitions it into
self-contained shards, executes them across a process pool on the
columnar tier, and merges the mergeable partial results into a
:class:`CampaignResult` that is bit-identical regardless of worker
count, shard completion order, or kill/resume cycles.
"""

from .config import CampaignConfig, ShardSpec
from .fold import ShardAccumulator
from .handoff import HandoffError, ShardHandoff
from .manifest import CampaignLayout, ConfigMismatch
from .results import CampaignResult, PartialResult
from .runner import CampaignHooks, KillRun, run_campaign, run_shard

__all__ = [
    "CampaignConfig",
    "ShardSpec",
    "CampaignLayout",
    "CampaignHooks",
    "ConfigMismatch",
    "CampaignResult",
    "HandoffError",
    "KillRun",
    "PartialResult",
    "ShardAccumulator",
    "ShardHandoff",
    "run_campaign",
    "run_shard",
]
