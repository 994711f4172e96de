"""``repro chaos``'s flags, compiled into a scenario spec.

A chaos run drives the fault-tolerant SP through a seeded storm: loss,
duplication and reordering on the SP's bare control channel, scripted
crash/recovery windows, and switch requests at a fixed cadence from a
member drawn at random, so concurrent initiators and initiator takeover
get exercised.  :meth:`ChaosConfig.spec` writes that as a
:class:`~repro.scenarios.spec.ScenarioSpec`, and
:func:`~repro.scenarios.runner.run_scenario` runs and judges it like
any catalog entry::

    verdict = run_scenario(ChaosConfig(seed=7, control_loss=0.15).spec())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..scenarios.spec import (
    CrashSpec,
    ExpectSpec,
    GroupSpec,
    PhaseNet,
    PhaseSpec,
    ScenarioSpec,
    SettleSpec,
    Workload,
)

__all__ = ["ChaosConfig"]


@dataclass(frozen=True)
class ChaosConfig:
    """The flags of ``repro chaos``; every run is reproducible from them.

    Attributes:
        members: group size.
        seed: master seed of the run's random streams.
        duration: how long (simulated seconds) the workload keeps
            arriving.
        settle: convergence grace windows of one second each after the
            workload stops (0: convergence is judged at the horizon).
        cast_rate: expected application casts per second, group-wide.
        switch_every: interval between switch requests (0 disables).
        control_loss / control_dup / control_jitter: probabilistic
            faults on the SP control channel only; the data slots keep
            their own reliable layers.
        crashes: fail-silent crash windows at absolute times.
    """

    members: int = 4
    seed: int = 0
    duration: float = 6.0
    settle: int = 20
    cast_rate: float = 120.0
    switch_every: float = 0.7
    control_loss: float = 0.0
    control_dup: float = 0.0
    control_jitter: float = 0.0
    crashes: Tuple[CrashSpec, ...] = ()

    def spec(self) -> ScenarioSpec:
        """This run as a spec; an invalid flag is a ``ScenarioError``."""
        net = PhaseNet(
            loss=self.control_loss,
            dup=self.control_dup,
            jitter_ms=self.control_jitter * 1e3,
            scope="control",
        )
        return ScenarioSpec(
            name="chaos",
            summary="seeded fault storm on the fault-tolerant SP",
            phases=(
                PhaseSpec(
                    "storm",
                    self.duration,
                    Workload(self.members, self.cast_rate / self.members),
                    net,
                ),
            ),
            expect=ExpectSpec(None, max_switches=None, min_delivery_ratio=0.0),
            switch_every=self.switch_every,
            crashes=tuple(self.crashes),
            seed=self.seed,
            group=GroupSpec(
                members=self.members, token_interval=0.002, control="bare"
            ),
            settle=SettleSpec(windows=self.settle, window=1.0),
        )
