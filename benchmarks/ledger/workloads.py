"""The six named workloads, as plain data.

Nothing here imports ``repro``: ``adapter.py`` turns a :class:`Workload`
into a running system, ``loadgen.py`` turns it into a cast schedule.
Every number below is part of the benchmark's definition — changing one
changes what every later performance claim is measured against, so it
may only happen in a ``benchmark`` PR.

The two protocols' latencies differ by an order of magnitude, so where a
group spends half its time on each, the median sits on the edge between
the two modes and swings with the seed (it did, by 10-25 %, in sizing
runs).  ``dwell`` therefore keeps a group three times as long on the
sequencer as on the token ring, which puts p50 inside one mode and p90
inside the other.

Durations are in *runtime-clock* seconds: simulated seconds on the
``sim`` runtime, wall seconds on ``udp``.  ``clock_per_second`` converts
the command line's ``--seconds`` (a wall-clock budget) into runtime-clock
seconds of load, so a sim workload always simulates the same span for
the same ``--seconds`` and its digest repeats bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

BODY_SIZE = 64  # smallest-packet regime: per-packet cost dominates
SLOTS = ("sequencer", "tokenring")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runtime: str  # "sim" or "udp"
    network: str  # "ptp", "ether" or "udp"
    groups: int
    members: int
    nodes: int
    senders: int  # members of each group that cast (highest ranks first)
    cold_rate: float  # casts/s of one ordinary group, all its senders together
    clock_per_second: float  # runtime-clock seconds of load per --seconds second
    warmup: float = 0.0  # load excluded from the metrics
    settle: float = 2.0  # after the last cast, for deliveries to finish
    hot_groups: int = 0  # evenly spaced over the id range
    hot_rate: float = 0.0
    token_interval: float = 0.010  # SP NORMAL-token pacing
    hold_cost: float = 0.0  # token-ring per-hold cost; 0 free-spins an idle ring
    order_cost: float = 0.0  # sequencer per-message cost
    reliable: bool = False  # ReliableLayer under both order layers
    fault_tolerant: bool = False  # ResilientTokenSwitchProtocol
    loss_rate: float = 0.0
    reorder_jitter: float = 0.0
    dwell: Tuple[float, float] = (0.0, 0.0)  # seconds a group stays on (sequencer,
    # tokenring) before it is asked to leave; (0, 0) = no forced switches
    switch_stagger: float = 0.0  # offset between consecutive groups' requests
    slice: float = 1.0  # metrics are medians over slices of the load this long:
    # a whole number of switch cycles, so every slice holds the same mix
    oracle_poll: float = 0.0  # FleetOracle poll period (0 = no oracle)
    oracle_threshold: float = 0.0  # member-deliveries/s that escalate a group
    obs: bool = False  # enabled metrics bus + telemetry plane

    def is_hot(self, index: int) -> bool:
        if not self.hot_groups:
            return False
        stride = self.groups // self.hot_groups
        return index % stride == 0 and index // stride < self.hot_groups

    def rate_of(self, index: int) -> float:
        return self.hot_rate if self.is_hot(index) else self.cold_rate

    def load_seconds(self, seconds: float) -> float:
        """Runtime-clock length of the measured window."""
        return seconds * self.clock_per_second

    def slices(self, seconds: float) -> int:
        return max(1, round(self.load_seconds(seconds) / self.slice))


_UDP = dict(
    runtime="udp",
    network="udp",
    groups=8,
    members=3,
    nodes=8,
    senders=3,
    cold_rate=75.0,  # 600 casts/s over 8 groups
    clock_per_second=1.0,
    warmup=1.0,
    settle=1.5,
    token_interval=0.010,
    hold_cost=0.005,
    reliable=True,
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="sim_fleet_1k",
        why="1000 small groups on the simulator: timers, net.ptp, mux/fleet.port "
        "and idle token churn dominate; codec, UDP and reliable do nothing",
        runtime="sim",
        network="ptp",
        groups=1000,
        members=3,
        nodes=48,
        senders=3,
        cold_rate=2.0,
        hot_groups=50,
        hot_rate=100.0,
        clock_per_second=1.0,
        settle=2.0,
        token_interval=0.25,
        hold_cost=0.05,
        oracle_poll=0.5,
        oracle_threshold=50.0,
    ),
    Workload(
        name="sim_ether_n100",
        why="one group of 100 on the Ethernet model: dense events and fan-out "
        "of 100, so stack.message and the order layers dominate; fleet/mux idle",
        runtime="sim",
        network="ether",
        groups=1,
        members=100,
        nodes=100,
        senders=6,
        cold_rate=120.0,
        clock_per_second=6.0,
        settle=5.0,
        order_cost=0.9e-3,
        dwell=(15.0, 5.0),
        slice=20.0,
    ),
    Workload(
        name="sim_lossy_n10",
        why="the paper's 10-member group under 2% loss and reordering: the only "
        "workload where reliable NAK/retransmit, net.faults and the "
        "fault-tolerant SP do real work",
        runtime="sim",
        network="ptp",
        groups=1,
        members=10,
        nodes=10,
        senders=10,
        cold_rate=300.0,
        clock_per_second=6.0,
        settle=5.0,
        token_interval=0.005,
        reliable=True,
        fault_tolerant=True,
        loss_rate=0.02,
        reorder_jitter=1e-3,
        dwell=(4.5, 1.5),
        slice=6.0,
    ),
    Workload(
        name="udp_steady",
        why="the real-socket data path at a fixed sub-saturation rate: codec "
        "enc/dec, net.udp, runtime.aio, reliable; the SP is pass-through",
        **_UDP,
    ),
    Workload(
        name="udp_steady_obs",
        why="udp_steady with byte-identical inputs plus metrics bus and "
        "telemetry plane: the difference is the instrumentation cost",
        obs=True,
        **_UDP,
    ),
    Workload(
        name="udp_switch_churn",
        why="udp_steady load while every group switches twice a second: core "
        "does real work, so a steady-state gain that costs switch time shows",
        dwell=(0.75, 0.25),
        switch_stagger=0.0625,
        **_UDP,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
