"""GroupManager: the fleet's control plane.

One manager per process.  It owns the per-node
:class:`~repro.stack.port.NodePort`\\ s (creating each lazily on a
group's first use of that node), allocates group ids, builds
:class:`~repro.core.switchable.GroupHandle`\\ s over the shared ports,
and walks groups through their lifecycle.  Wired with
a :class:`~repro.core.oracle.FleetOracle` — the one decision loop — it
has the oracle watch every group it creates and start and stop polling
on the manager's runtime.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..core.oracle import FleetOracle
from ..core.switchable import GroupHandle, ProtocolSpec, build_group_handle
from ..errors import SwitchError
from ..net.base import Network
from ..obs.bus import Bus, null_scope
from ..obs.metrics import Counter
from ..runtime.api import Runtime
from ..sim.rng import RandomStreams
from ..stack.layer import Layer
from ..stack.membership import Group
from ..stack.port import NodePort
from .pool import SequencerPool

__all__ = ["GroupManager"]


class GroupManager:
    """Creates, drives, and tears down switching groups over shared ports.

    Args:
        runtime: the shared clock/timer runtime.
        network: the shared network model (every group's traffic rides it).
        bus: instrumentation bus handed to every stack, with the
            manager's and ports' ``stats`` attached (optional).
        oracle: a :class:`FleetOracle` polled for per-group decisions
            (optional; groups are watched on creation, unwatched on
            teardown).
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        bus: Optional[Bus] = None,
        oracle: Optional[FleetOracle] = None,
    ) -> None:
        self.runtime = runtime
        self.network = network
        self.bus = bus
        self.oracle = oracle
        self.ports: Dict[int, NodePort] = {}
        self.handles: Dict[int, GroupHandle] = {}
        self.pool = SequencerPool()
        self.stats = Counter()
        self._obs = null_scope() if bus is None else bus.scoped(None)
        self._obs.attach("manager", self.stats)
        self._next_group_id = 1
        self._sequencers: Dict[int, int] = {}  # group id -> assigned rank
        self._torn_down: set = set()
        self._teardown_callbacks: list = []

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def port(self, node: int) -> NodePort:
        """The shared port for ``node``, attached on first use."""
        port = self.ports.get(node)
        if port is None:
            port = NodePort(self.network, node)
            self.ports[node] = port
            self._obs.attach("port", port.stats)
        return port

    # ------------------------------------------------------------------
    # Group lifecycle
    # ------------------------------------------------------------------
    def create_group(
        self,
        members: Sequence[int],
        protocols: Sequence[ProtocolSpec],
        initial: str,
        variant: str = "token",
        token_interval: float = 0.010,
        control_factory: Optional[Callable[[int], Sequence[Layer]]] = None,
        streams: Optional[RandomStreams] = None,
        auto_start: bool = True,
        group_id: Optional[int] = None,
    ) -> GroupHandle:
        """Build (and by default start) one switching group.

        Allocates the next group id (or takes an explicit ``group_id`` —
        a shard owns a slice of the fleet's global id space and must
        keep the ids the single-process layout would have used) and
        builds the handle over the member nodes' ports, where each
        member stack registers the group.  The oracle, if any, begins
        watching the group immediately.
        """
        if group_id is None:
            group_id = self._next_group_id
        elif group_id < 1:
            raise SwitchError(f"explicit group id {group_id} must be >= 1")
        elif group_id in self.handles:
            raise SwitchError(f"group id {group_id} is already in use")
        self._next_group_id = max(self._next_group_id, group_id + 1)
        group = Group(members)
        ports = {rank: self.port(rank) for rank in group}
        handle = build_group_handle(
            self.runtime,
            self.network,
            group,
            protocols,
            initial,
            variant=variant,
            token_interval=token_interval,
            control_factory=control_factory,
            streams=streams or RandomStreams(group_id),
            bus=self.bus,
            group_id=group_id,
            ports=ports,
            auto_start=auto_start,
        )
        self.handles[group_id] = handle
        if self.oracle is not None:
            self.oracle.watch(handle)
        self.stats.incr("groups_created")
        return handle

    def assign_sequencer(
        self,
        members: Sequence[int],
        rank: Optional[int] = None,
        group_id: Optional[int] = None,
    ) -> int:
        """Pool-balanced sequencer choice for a group about to be built.

        Call before :meth:`create_group` so the chosen rank can be baked
        into the group's sequencer :class:`ProtocolSpec`; the assignment
        is released automatically when the group (created next) is torn
        down.  A pre-planned ``rank`` (a shard replaying the global
        placement plan) is recorded as-is; ``group_id`` must match the
        explicit id the group will be created with, when one is used.
        """
        if rank is None:
            chosen = self.pool.assign(members)
        else:
            if rank not in members:
                raise SwitchError(
                    f"planned sequencer {rank} is not among members "
                    f"{sorted(members)}"
                )
            chosen = self.pool.occupy(rank)
        key = self._next_group_id if group_id is None else group_id
        self._sequencers[key] = chosen
        return chosen

    def on_teardown(self, callback: Callable[[int, bool], None]) -> None:
        """``callback(group_id, dirty)`` fires after every teardown.

        ``dirty`` is True when the group was still STARTED — it never
        drained, so in-flight traffic died with it.  The telemetry
        plane's flight recorder freezes a black box on dirty teardowns.
        """
        self._teardown_callbacks.append(callback)

    def teardown_group(self, group_id: int) -> bool:
        """Unregister, stop, and release one group.

        Idempotent: tearing down an already-torn-down group is a no-op
        returning ``False`` (shard restarts sweep their whole slice
        without tracking which groups a previous pass already released);
        a group id this manager never created still raises.  Returns
        ``True`` when this call performed the teardown.
        """
        handle = self.handles.pop(group_id, None)
        if handle is None:
            if group_id in self._torn_down:
                return False
            raise SwitchError(f"no group {group_id} to tear down")
        self._torn_down.add(group_id)
        dirty = handle.state == "started"
        # Each member stack unregisters the group from its port: packets
        # still in flight drop there as strays.
        handle.teardown()
        if self.oracle is not None:
            self.oracle.unwatch(group_id)
        sequencer = self._sequencers.pop(group_id, None)
        if sequencer is not None:
            self.pool.release(sequencer)
        self.stats.incr("groups_torn_down")
        for callback in self._teardown_callbacks:
            callback(group_id, dirty)
        return True

    # ------------------------------------------------------------------
    # The adaptive loop
    # ------------------------------------------------------------------
    def poll_oracle(self) -> Dict[int, str]:
        """One oracle pass; returns the switches requested
        (:meth:`~repro.core.oracle.AdaptiveController.poll`)."""
        return self._loop().poll()

    def start_oracle_polling(self, interval: float) -> None:
        """Poll the oracle every ``interval`` seconds until stopped
        (restart-safe: one poll chain is ever live)."""
        self._loop().start(self.runtime, interval)

    def stop_oracle_polling(self) -> None:
        """Stop the poll chain (idempotent) and cancel its armed timer."""
        if self.oracle is not None:
            self.oracle.stop()

    def _loop(self) -> FleetOracle:
        if self.oracle is None:
            raise SwitchError("no fleet oracle wired into this manager")
        return self.oracle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GroupManager groups={len(self.handles)} "
            f"nodes={len(self.ports)}>"
        )
