"""The fleet runtime: thousands of switching groups in one process.

A single-group run gives every member a node port of its own.  The
fleet runtime multiplexes *groups*: every node runs one shared
:class:`~repro.stack.port.NodePort` (one network attach, routing by
group id to each member stack's own multiplexer), and a
:class:`~repro.fleet.manager.GroupManager` builds/starts/tears down
:class:`~repro.core.switchable.GroupHandle`\\ s over those ports.
Wire frames carry a varint group id (see ``net/codec.py``), so
thousands of groups share one set of sockets.

The :class:`~repro.core.oracle.FleetOracle` closes the loop: it reads
per-group delivery rates off the runner's per-group delivery counts and
escalates hot groups — sequencer to token ring — without touching cold
ones.

One process still caps out at one core; ``repro.fleet.sharding``
partitions the group-id space across worker processes by consistent
hashing and merges their slices back into one
:class:`~repro.fleet.runner.FleetResult`.
"""

from .manager import GroupManager
from .pool import SequencerPool
from .runner import (
    FleetConfig,
    FleetResult,
    GroupReport,
    plan_sequencers,
    run_fleet,
)
from .sharding import plan_shards, run_fleet_sharded, shard_of

__all__ = [
    "FleetConfig",
    "FleetResult",
    "GroupManager",
    "GroupReport",
    "SequencerPool",
    "plan_sequencers",
    "plan_shards",
    "run_fleet",
    "run_fleet_sharded",
    "shard_of",
]
