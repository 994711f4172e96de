"""repro — a reproduction of *Protocol Switching: Exploiting
Meta-Properties* (Liu, van Renesse, Bickford, Kreitz, Constable;
WARGC/ICDCS 2001).

The package provides:

* :mod:`repro.core` — the switching protocol (broadcast and token-ring
  variants), oracles, and the decision loop that drives them (the
  adaptive hybrid is one group under it);
* :mod:`repro.traces` — the paper's trace theory: Table 1 properties,
  the six meta-properties, and mechanical Table 2 verification;
* :mod:`repro.protocols` — the group-communication protocol suite
  (sequencer/token total order, reliable multicast, security layers,
  virtual synchrony, ...);
* :mod:`repro.stack` — the Horus-style layered composition framework;
* :mod:`repro.runtime` — the runtime boundary: simulated virtual time
  (the :class:`Simulator` itself) or a real asyncio/UDP runtime
  (:class:`AsyncioRuntime`);
* :mod:`repro.net` / :mod:`repro.sim` — the network models and the
  discrete-event engine;
* :mod:`repro.workloads` — the §7 performance experiments.
"""

from ._version import __version__
from .core import (
    AdaptiveController,
    GroupHandle,
    HysteresisOracle,
    ManualOracle,
    Oracle,
    ProtocolSpec,
    ScheduledOracle,
    SwitchableStack,
    ThresholdOracle,
    ViewSwitchStack,
    build_group_handle,
)
from .errors import (
    NetworkError,
    ProtocolError,
    ReproError,
    SimulationError,
    StackError,
    SwitchError,
    TraceError,
    VerificationError,
)
from .net import EthernetNetwork, EthernetParams, FaultPlan, PointToPointNetwork
from .runtime import AsyncioRuntime, Runtime, Simulator
from .sim import RandomStreams
from .stack import Group, Message, ProcessStack, View, build_group
from .traces import Trace, TraceRecorder

__all__ = [
    "__version__",
    "AdaptiveController",
    "GroupHandle",
    "HysteresisOracle",
    "ManualOracle",
    "Oracle",
    "ProtocolSpec",
    "ScheduledOracle",
    "SwitchableStack",
    "ThresholdOracle",
    "ViewSwitchStack",
    "build_group_handle",
    "NetworkError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "StackError",
    "SwitchError",
    "TraceError",
    "VerificationError",
    "EthernetNetwork",
    "EthernetParams",
    "FaultPlan",
    "PointToPointNetwork",
    "RandomStreams",
    "Runtime",
    "AsyncioRuntime",
    "Simulator",
    "Group",
    "Message",
    "ProcessStack",
    "View",
    "build_group",
    "Trace",
    "TraceRecorder",
]
