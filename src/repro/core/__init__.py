"""The paper's primary contribution: the switching protocol and its
surroundings.

* :mod:`repro.core.base` — the shared SP state machine (modes, counts,
  buffering, drain).
* :mod:`repro.core.switch` — the broadcast/manager SP variant.
* :mod:`repro.core.token_switch` — the token-ring SP variant (three
  rotations: PREPARE, SWITCH, FLUSH).
* :mod:`repro.core.switchable` — per-process assembly (Figure 1).
* :mod:`repro.core.oracle` / :mod:`repro.core.signals` — when-to-switch
  policies, their inputs, and the one decision loop
  (:class:`AdaptiveController`) that turns them into switch requests.
* :mod:`repro.core.view_switch` — the §8 virtually-synchronous switching
  extension.
"""

from .base import ProtocolSlot, SwitchAborted, SwitchCore, SwitchMode
from .channel import ChannelEnd, SwitchableChannel
from .oracle import (
    AdaptiveController,
    CompositeOracle,
    DecisionRecord,
    HysteresisOracle,
    ManualOracle,
    Oracle,
    ScheduledOracle,
    ThresholdOracle,
)
from .signals import SignalTracker
from .switch import BroadcastSwitchProtocol
from .switchable import (
    GroupHandle,
    ProtocolSpec,
    SwitchableStack,
    build_group_handle,
)
from .token_switch import (
    FaultToleranceConfig,
    ResilientTokenSwitchProtocol,
    TokenSwitchProtocol,
)
from .view_switch import ViewSwitchStack

__all__ = [
    "ProtocolSlot",
    "SwitchAborted",
    "SwitchCore",
    "SwitchMode",
    "FaultToleranceConfig",
    "ResilientTokenSwitchProtocol",
    "ChannelEnd",
    "SwitchableChannel",
    "AdaptiveController",
    "DecisionRecord",
    "CompositeOracle",
    "HysteresisOracle",
    "ManualOracle",
    "Oracle",
    "ScheduledOracle",
    "ThresholdOracle",
    "SignalTracker",
    "BroadcastSwitchProtocol",
    "GroupHandle",
    "ProtocolSpec",
    "SwitchableStack",
    "build_group_handle",
    "TokenSwitchProtocol",
    "ViewSwitchStack",
]
