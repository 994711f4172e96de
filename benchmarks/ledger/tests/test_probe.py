from ledger import probe
from ledger.loadgen import pack_body

GOOD = {0: [0, 1, 2, 3], 1: [0, 1, 2, 3], 2: [0, 1, 2, 3]}


def test_clean_run_passes():
    assert probe.find_duplicates(0, GOOD) == []
    assert probe.find_order_disagreements(0, GOOD) == []
    assert probe.failed_casts([0, 1, 2, 3], GOOD) == {}
    assert probe.check_convergence(0, {0: "tokenring", 1: "tokenring"}, []) == []


def test_duplicate_is_flagged_and_fails_the_cast():
    delivered = {**GOOD, 1: [0, 1, 1, 2, 3]}
    assert len(probe.find_duplicates(0, delivered)) == 1
    assert probe.failed_casts([0, 1, 2, 3], delivered) == {1: 0}


def test_reorder_is_flagged():
    delivered = {**GOOD, 2: [0, 2, 1, 3]}
    problems = probe.find_order_disagreements(0, delivered)
    assert len(problems) == 2  # rank 2 disagrees with ranks 0 and 1
    assert all("rank" in p for p in problems)


def test_missing_delivery_is_a_failed_cast_not_a_violation():
    delivered = {**GOOD, 1: [0, 1, 3]}
    assert probe.find_order_disagreements(0, delivered) == []
    assert probe.find_duplicates(0, delivered) == []
    assert probe.failed_casts([0, 1, 2, 3], delivered) == {2: 1}
    # casts outside the measured window are not judged
    assert probe.failed_casts([0, 1], delivered) == {}


def test_order_is_judged_on_common_casts_only():
    delivered = {0: [0, 1, 3], 1: [0, 2, 3], 2: [3, 0]}
    problems = probe.find_order_disagreements(0, delivered)
    assert len(problems) == 2 and all("2" in p for p in problems)


def test_unfinished_switch_and_split_group_are_flagged():
    assert probe.check_convergence(4, {0: "sequencer", 1: "tokenring"}, [])
    assert probe.check_convergence(4, {0: "tokenring", 1: "tokenring"}, [1])


def test_foreign_cast_is_flagged():
    cast_group = [0, 1, 0, 1]  # casts 1 and 3 belong to group 1
    assert probe.check_foreign(0, {0: [0, 2]}, cast_group) == []
    assert probe.check_foreign(0, {0: [0, 1]}, cast_group)
    assert probe.check_foreign(0, {0: [0, 9]}, cast_group)


class Clock:
    now = 5.0


def test_recorder_logs_latency_from_the_due_time_and_counts_corrupt_bodies():
    recorder = probe.Recorder(Clock(), [(0, 1)])
    sink = recorder.sink(0, 1)
    assert sink(pack_body(0, 1, 17, 4.75)) == 0.25
    sink(b"short")
    sink(pack_body(3, 1, 18, 4.75))  # another group's cast
    assert list(recorder.seqs[0][1]) == [17, 18]
    assert list(recorder.latency[0][1]) == [0.25, 0.25]
    assert recorder.corrupt == 2
    assert recorder.deliveries() == 2


def test_digest_is_sensitive_to_order_and_timing():
    def digest(seqs, now):
        clock = Clock()
        clock.now = now
        recorder = probe.Recorder(clock, [(0,)])
        for seq in seqs:
            recorder.sink(0, 0)(pack_body(0, 0, seq, 1.0))
        return probe.run_digest(recorder, ["x"])

    assert digest([1, 2], 2.0) == digest([1, 2], 2.0)
    assert digest([1, 2], 2.0) != digest([2, 1], 2.0)
    assert digest([1, 2], 2.0) != digest([1, 2], 2.5)
