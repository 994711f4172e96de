"""Session: only what no runner test reaches.

The runners' own suites (and ``test_harness_pins.py``) cover the happy
path byte for byte.  These cover the edges: sockets and loop released
when a bind fails or the run raises, settle's non-convergence report,
and the oracle's trace properties on evidence planted through the
recorder.
"""

import asyncio
import socket

import pytest

from repro.net.faults import FaultDecision, FaultPlan
from repro.stack.membership import Group
from repro.workloads.session import Session, total_order_specs
from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo

BASE_PORT = 47930
SLOTS = ("seq", "tok")


@pytest.fixture
def loops(monkeypatch):
    """Every event loop created during the test."""
    created = []
    new_event_loop = asyncio.new_event_loop

    def recording():
        created.append(new_event_loop())
        return created[-1]

    monkeypatch.setattr(asyncio, "new_event_loop", recording)
    return created


def bind(port):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", port))
    return sock


def test_failed_bind_releases_the_loop_and_the_lower_ports(loops):
    squatter = bind(BASE_PORT + 2)
    try:
        with pytest.raises(OSError):
            run_switch_demo(
                SwitchRunConfig(runtime="asyncio", base_port=BASE_PORT)
            )
    finally:
        squatter.close()
    assert loops and all(loop.is_closed() for loop in loops)
    # The ports bound before the collision are free again: a retry on
    # the same range does not collide with the failed attempt.
    bind(BASE_PORT).close()
    bind(BASE_PORT + 1).close()


def test_exit_closes_an_asyncio_runtime_after_an_exception_mid_run(loops):
    with pytest.raises(RuntimeError, match="mid-run"):
        with Session(2, 1, "asyncio", base_port=BASE_PORT + 10) as session:
            session.runtime.schedule(0.01, session.runtime.stop)
            session.run(0.05)
            raise RuntimeError("mid-run")
    assert [loop.is_closed() for loop in loops] == [True]
    bind(BASE_PORT + 10).close()


def recorded_group(faults=None, **switching):
    session = Session(3, 5, faults=faults)
    stacks = session.build(
        Group.of_size(3), total_order_specs(SLOTS), SLOTS[0], **switching
    ).stacks
    session.record(stacks)
    return session, stacks


def test_settle_names_the_ranks_still_switching():
    # Every control message is lost, so the initiator's PREPARE is never
    # answered and it stays mid-switch for good.
    drop_control = FaultPlan(
        intercept=lambda time, src, dst, channel, payload: (
            FaultDecision(drop=True) if channel == 0 else None
        )
    )
    session, stacks = recorded_group(drop_control, variant="broadcast")
    stacks[1].request_switch(SLOTS[1])
    settled_at, violations = session.settle(3, 0.5)
    assert settled_at == 1.5
    assert violations == [
        "group did not converge within 3 settle windows "
        "(still switching: [1])"
    ]


def test_settle_stops_at_the_first_quiescent_window():
    session, stacks = recorded_group()
    stacks[0].cast("m")
    assert session.settle(20, 0.25) == (0.25, [])


def planted(*deliveries, switch_to=None):
    """A group whose member 0 cast ``a`` and then ``b``, whose data
    reaches no other member, with ``deliveries`` — ``(rank, body)`` —
    planted through the recorder.  With ``switch_to``, ``b`` is cast
    once member 0 sends on that slot, so ``a`` and ``b`` travel on
    different slots."""
    drop_data = FaultPlan(
        intercept=lambda time, src, dst, channel, payload: (
            FaultDecision(drop=True) if channel != 0 else None
        )
    )
    session, stacks = recorded_group(drop_data)
    stacks[0].cast("a")
    if switch_to is not None:
        stacks[0].request_switch(switch_to)
        session.runtime.run_for(0.1)
        assert stacks[0].core.send_slot == switch_to
    stacks[0].cast("b")
    sent = {e.msg.body: e.msg for e in session.recorder.trace().sends()}
    for rank, body in deliveries:
        session.recorder.record_deliver(rank, sent[body])
    return session


def test_order_oracle_flags_a_planted_duplicate_and_inversion():
    in_order = [(rank, body) for rank in (0, 1, 2) for body in "ab"]
    live = [0, 1, 2]
    assert planted(*in_order).check_order(live) == (
        {r: "seq" for r in live},
        [],
    )

    [replay] = planted(*in_order, (1, "b")).check_order(live)[1]
    assert replay.startswith("No Replay: process 1 delivered body 'b' twice")

    inverted = in_order[:4] + [(2, "b"), (2, "a")]
    [order] = planted(*inverted).check_order(live)[1]
    assert order.startswith("Total Order: processes 0 and 2 disagree")
    assert order.endswith("(slot 'seq')")
    # A crashed member is outside the oracle's remit.
    assert planted(*inverted).check_order([0, 1])[1] == []
    # Messages cast on different slots may interleave differently after
    # an abort: the projection judges each slot on its own.
    across = planted(
        (1, "a"), (1, "b"), (2, "b"), (2, "a"), switch_to=SLOTS[1]
    )
    assert sorted(across.cast_slot.values()) == list(SLOTS)
    assert across.check_order([1, 2])[1] == []
