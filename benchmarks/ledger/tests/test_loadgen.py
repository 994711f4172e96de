from ledger.loadgen import HEADER, LoadGenerator, make_schedule, pack_body
from ledger.workloads import BODY_SIZE, BY_NAME, WORKLOADS


def test_schedule_is_byte_identical_per_seed_and_differs_across_seeds():
    for workload in WORKLOADS:
        a = make_schedule(workload, 5, 2.0)
        b = make_schedule(workload, 5, 2.0)
        c = make_schedule(workload, 6, 2.0)
        assert a.digest() == b.digest()
        assert a.due.tobytes() == b.due.tobytes()
        assert a.digest() != c.digest()


def test_obs_pair_gets_the_same_inputs():
    plain = make_schedule(BY_NAME["udp_steady"], 9, 3.0)
    obs = make_schedule(BY_NAME["udp_steady_obs"], 9, 3.0)
    assert plain.digest() == obs.digest()


def test_schedule_rate_and_hot_groups():
    fleet = BY_NAME["sim_fleet_1k"]
    schedule = make_schedule(fleet, 1, 4.0)
    expected = 4.0 * (950 * 2.0 + 50 * 100.0)
    assert abs(len(schedule) - expected) < 0.05 * expected
    hot = sum(1 for g in schedule.group if fleet.is_hot(g))
    assert abs(hot / len(schedule) - 5000 / 6900) < 0.02
    assert list(schedule.due) == sorted(schedule.due)
    assert max(schedule.sender) < fleet.senders


def test_body_is_64_bytes_with_the_header_first():
    body = pack_body(7, 3, 123456, 1.25)
    assert len(body) == BODY_SIZE and type(body) is bytes
    assert HEADER.unpack_from(body) == (7, 3, 123456, 1.25)
    assert body[HEADER.size:] == bytes(BODY_SIZE - HEADER.size)


class FakeRuntime:
    """A clock that jumps to each armed deadline (plus a fixed lag)."""

    def __init__(self, lag=0.0):
        self.now, self.lag, self.armed = 0.0, lag, []

    def schedule_at(self, when, callback):
        self.armed.append((when, callback))

    def run(self):
        while self.armed:
            when, callback = self.armed.pop(0)
            self.now = max(self.now, when + self.lag)
            callback()


def test_generator_casts_every_entry_and_reports_lateness():
    workload = BY_NAME["udp_steady"]
    schedule = make_schedule(workload, 2, 0.5)
    sent = []
    casters = [[(lambda body, g=g, s=s: sent.append((g, s, body))) for s in range(3)]
               for g in range(workload.groups)]
    origins = [(10, 11, 12)] * workload.groups
    runtime = FakeRuntime(lag=0.002)
    generator = LoadGenerator(runtime, schedule, casters, origins, start_at=1.0)
    generator.start()
    runtime.run()
    assert len(sent) == len(schedule)
    for seq, (group, sender, body) in enumerate(sent):
        assert (group, sender) == (schedule.group[seq], schedule.sender[seq])
        body_group, origin, body_seq, due_at = HEADER.unpack_from(body)
        assert (body_group, origin, body_seq) == (group, origins[group][sender], seq)
        assert abs(due_at - (1.0 + schedule.due[seq])) < 1e-12
    assert len(generator.late) == len(schedule)
    assert all(0.0 <= late <= 0.0020001 for late in generator.late)
    assert max(generator.late) > 0.0019
