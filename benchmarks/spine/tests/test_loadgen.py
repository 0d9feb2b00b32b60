import time

import pytest

import loadgen


def test_open_loop_counts_latency_from_the_due_time():
    """A server that stalls on the first request: later requests are
    sent late, and their latency still starts at their due time."""
    service = {0: 0.20}

    def send(worker, item):
        time.sleep(service.get(item, 0.01))

    due = [0.0, 0.05, 0.10]
    samples, dropped = loadgen.open_loop(send, [0, 1, 2], due, n_workers=1)
    assert dropped == 0 and [s.item for s in samples] == [0, 1, 2]
    first, second, third = samples
    assert first.late == pytest.approx(0.0, abs=0.02)
    # Request 1 was due at 0.05 but could only go at ~0.20.
    assert second.late == pytest.approx(0.15, abs=0.03)
    assert second.latency == pytest.approx(0.15 + 0.01, abs=0.03)
    assert third.latency == pytest.approx(0.11 + 0.01, abs=0.03)
    # Counted from the send instead, the stall would be invisible.
    assert second.done - second.sent < 0.05


def test_open_loop_drops_what_it_cannot_send_in_time():
    def send(worker, item):
        time.sleep(0.2)

    due = [0.0, 0.01, 0.02, 0.03]
    samples, dropped = loadgen.open_loop(send, list(range(4)), due, 1, drain_s=0.1)
    assert dropped == len(due) - len(samples) >= 2


def test_failed_sends_are_samples_with_an_error():
    def send(worker, item):
        if item == 1:
            raise RuntimeError("refused")

    samples, _ = loadgen.open_loop(send, [0, 1, 2], [0.0, 0.0, 0.0], 2)
    assert sorted(s.error is not None for s in samples) == [False, False, True]


def test_closed_loop_sends_back_to_back_until_the_deadline():
    seen = []

    def send(worker, item):
        seen.append((worker, item))
        time.sleep(0.01)

    samples = loadgen.closed_loop(send, iter(range(10_000)), 2, 0.2)
    assert 10 <= len(samples) <= 60
    assert {w for w, _ in seen} == {0, 1}
    assert sorted(i for _, i in seen) == list(range(len(seen)))   # no item twice
    assert all(s.due is None and s.late == 0.0 for s in samples)
