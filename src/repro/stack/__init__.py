"""Layered protocol-stack framework (the paper's §3 model, executable).

* :mod:`repro.stack.message` — immutable messages with per-layer headers.
* :mod:`repro.stack.layer` — the Layer abstraction and composition.
* :mod:`repro.stack.batching` — cast coalescing: one wire frame per batch.
* :mod:`repro.stack.multiplex` — a stack's private logical channels
  (the MULTIPLEX component of Figure 1).
* :mod:`repro.stack.port` — a node's one attach to a network, shared by
  every group with a member there.
* :mod:`repro.stack.stack` — per-process assembly and group builders.
* :mod:`repro.stack.membership` — groups, rings, and views.
"""

from .batching import BatchingLayer
from .layer import Layer, LayerContext, compose, start_layers
from .membership import Group, View
from .message import BASE_WIRE_OVERHEAD, Message, MessageId
from .multiplex import Multiplexer, MuxChannel
from .port import NodePort
from .stack import DEFAULT_BODY_SIZE, ProcessStack, build_group

__all__ = [
    "BatchingLayer",
    "Layer",
    "LayerContext",
    "compose",
    "start_layers",
    "Group",
    "View",
    "BASE_WIRE_OVERHEAD",
    "Message",
    "MessageId",
    "Multiplexer",
    "MuxChannel",
    "NodePort",
    "DEFAULT_BODY_SIZE",
    "ProcessStack",
    "build_group",
]
