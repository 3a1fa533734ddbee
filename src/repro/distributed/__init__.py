"""Multi-GPU scaling: topology, collectives, DAP, DDP, stragglers."""

from .collectives import (Collective, CommEvent, collective_time,
                          hierarchical_all_reduce_time)
from .dap import SHARDABLE_SCOPES, is_shardable, partition_step
from .ddp import gradient_buckets
from .numeric_dap import (DapEvoformerBlock, all_gather, all_reduce,
                          all_to_all, shard)
from .straggler import ImbalanceInputs, StragglerModel
from .topology import ClusterTopology, eos_cluster

__all__ = [
    "Collective", "CommEvent", "collective_time", "hierarchical_all_reduce_time",
    "SHARDABLE_SCOPES", "is_shardable", "partition_step",
    "gradient_buckets",
    "DapEvoformerBlock", "all_gather", "all_reduce", "all_to_all", "shard",
    "ImbalanceInputs", "StragglerModel",
    "ClusterTopology", "eos_cluster",
]
