"""Unit tests for workload generators."""

import pytest

from helpers import ptp_group
from repro.errors import ReproError
from repro.protocols.amoeba import AmoebaLayer
from repro.sim.rng import RandomStreams
from repro.workloads.generator import Payload, PoissonSender, UniformSender


def test_uniform_sender_rate():
    sim, stacks, log = ptp_group(2, lambda r: [])
    sender = UniformSender(sim, stacks[0], interval=0.1)
    sender.start()
    sim.run_until(1.05)
    assert sender.sent == 10


def test_poisson_sender_approximate_rate():
    sim, stacks, log = ptp_group(2, lambda r: [])
    rng = RandomStreams(1).stream("w")
    sender = PoissonSender(sim, stacks[0], rate=100.0, rng=rng)
    sender.start()
    sim.run_until(5.0)
    assert 350 <= sender.sent <= 650  # ~500 expected


def test_payload_carries_timestamp():
    sim, stacks, log = ptp_group(2, lambda r: [])
    sender = UniformSender(sim, stacks[0], interval=0.25)
    sender.start()
    sim.run_until(0.6)
    payloads = [b for b in log.bodies(1) if isinstance(b, Payload)]
    assert [p.sent_at for p in payloads] == pytest.approx([0.25, 0.5])
    assert all(p.origin == 0 for p in payloads)
    assert [p.seq for p in payloads] == [0, 1]


def test_start_stop_window():
    sim, stacks, log = ptp_group(2, lambda r: [])
    sender = UniformSender(sim, stacks[0], interval=0.1, start=0.5, stop=1.0)
    sender.start()
    sim.run_until(2.0)
    assert 4 <= sender.sent <= 5
    payloads = [b for b in log.bodies(1) if isinstance(b, Payload)]
    assert all(0.5 <= p.sent_at <= 1.0 for p in payloads)


def test_stop_method_halts():
    sim, stacks, log = ptp_group(2, lambda r: [])
    sender = UniformSender(sim, stacks[0], interval=0.1)
    sender.start()
    sim.run_until(0.35)
    sender.stop()
    sim.run_until(2.0)
    assert sender.sent == 3


def test_respect_backpressure_skips_when_blocked():
    sim, stacks, log = ptp_group(2, lambda r: [AmoebaLayer()])
    # Slow the loopback so the first message stays outstanding a while.
    sender = UniformSender(
        sim, stacks[0], interval=0.00001, respect_backpressure=True
    )
    sender.start()
    sim.run_until(0.0001)
    assert sender.skipped > 0


def test_rate_validation():
    sim, stacks, log = ptp_group(2, lambda r: [])
    rng = RandomStreams(1).stream("w")
    with pytest.raises(ReproError):
        PoissonSender(sim, stacks[0], rate=0, rng=rng)
    with pytest.raises(ReproError):
        UniformSender(sim, stacks[0], interval=0)


def test_double_start_is_idempotent():
    sim, stacks, log = ptp_group(2, lambda r: [])
    sender = UniformSender(sim, stacks[0], interval=0.1)
    sender.start()
    sender.start()
    sim.run_until(0.55)
    assert sender.sent == 5


def test_restart_within_one_gap_runs_one_chain():
    # Stopped and restarted before the armed gap fires: the old chain
    # must end, leaving one cast per interval from the restart on.
    sim, stacks, log = ptp_group(2, lambda r: [])
    sender = UniformSender(sim, stacks[0], interval=0.1)
    sender.start()
    sim.schedule_at(0.05, sender.stop)
    sim.schedule_at(0.05, sender.start)
    sim.run_until(1.0)
    assert sender.sent == 9
