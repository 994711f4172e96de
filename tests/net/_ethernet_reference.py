"""Frozen pre-rewrite arrival path of the Ethernet model.

``_send``, ``_after_wire``, ``_schedule_receive`` and
``_count_and_deliver`` as they stood when every receiver of a frame got
its own arrival event.  ``test_ethernet_differential.py`` replays one
script on this and on :class:`EthernetNetwork`, which schedules one
arrival per frame when there is no jitter.

Do not "fix" or optimize this file — its value is that it does not move.
"""

from __future__ import annotations

from typing import List

from repro.net.ethernet import EthernetNetwork
from repro.net.packet import Packet


class ReferenceEthernetNetwork(EthernetNetwork):
    """:class:`EthernetNetwork` with one arrival event per receiver."""

    def _send(
        self,
        src: int,
        dsts: List[int],
        payload: object,
        size: int,
        group: int = 0,
    ) -> None:
        params = self.params
        sent_at = self.runtime.now
        self.stats.incr("sends")

        remote = [d for d in dsts if d != src]
        loop_local = src in dsts

        def after_src_cpu() -> None:
            if loop_local:
                self._schedule_receive(
                    Packet(src, src, payload, size, sent_at, group),
                    extra_delay=0.0,
                )
            if not remote:
                return
            self.medium.transmit(
                params.serialization(size),
                lambda: self._after_wire(
                    src, remote, payload, size, sent_at, group
                ),
            )

        self.cpus[src].run(params.cpu_send, after_src_cpu)

    def _after_wire(
        self,
        src: int,
        dsts: List[int],
        payload: object,
        size: int,
        sent_at: float,
        group: int = 0,
    ) -> None:
        params = self.params
        for sniffer in self._sniffers:
            sniffer(Packet(src, dsts[0], payload, size, sent_at, group))
        for dst in dsts:
            if not self._attached[dst]:
                continue
            if params.loss_rate and self._rng.random() < params.loss_rate:
                self.stats.incr("drops")
                continue
            extra = params.jitter * self._rng.random() if params.jitter else 0.0
            self._schedule_receive(
                Packet(src, dst, payload, size, sent_at, group),
                extra_delay=params.propagation + extra,
            )

    def _schedule_receive(self, packet: Packet, extra_delay: float) -> None:
        def arrive() -> None:
            self.cpus[packet.dst].run(
                self.params.cpu_recv, lambda: self._count_and_deliver(packet)
            )

        if extra_delay > 0:
            self.runtime.schedule(extra_delay, arrive)
        else:
            arrive()

    def _count_and_deliver(self, packet: Packet) -> None:
        self.stats.incr("deliveries")
        self._deliver(packet)
