import pytest

from harness import Span, SpanRecorder, percentile, self_times, spearman, tail_percentile


def test_self_time_nested_and_sibling_spans():
    spans = [
        Span("op", 0.0, 10.0, None, 1),
        Span("parse", 1.0, 2.0, 0, 1),        # sibling 1
        Span("execute", 3.0, 9.0, 0, 1),      # sibling 2
        Span("fuse", 4.0, 6.0, 2, 1),         # nested in execute
    ]
    selfs = self_times(spans)
    assert selfs["op"] == pytest.approx(10.0 - 1.0 - 6.0)
    assert selfs["execute"] == pytest.approx(6.0 - 2.0)
    assert selfs["parse"] == pytest.approx(1.0)
    assert selfs["fuse"] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("op", 0.0, 10.0, None, 1),
        Span("a", 1.0, 5.0, 0, 1),
        Span("b", 3.0, 7.0, 0, 1),            # overlaps a on [3, 5]
        Span("c", 9.0, 12.0, 0, 1),           # sticks out of the parent
    ]
    assert self_times(spans)["op"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_links_parent_and_op():
    recorder = SpanRecorder()
    with recorder.span("op", 7):
        with recorder.span("inner", 7):
            pass
    with recorder.span("op", 8):
        pass
    names = [(s.name, s.parent, s.op) for s in recorder.spans]
    assert names == [("op", None, 7), ("inner", 0, 7), ("op", None, 8)]
    assert all(s.end >= s.start for s in recorder.spans)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([10, 20], 50) == 15
    assert percentile(range(101), 95) == 95
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, cap, expected", [
    (5, 99, 50),       # too small for any tail: the median
    (39, 99, 50),      # p75 would leave 9.75 beyond
    (40, 99, 75),
    (100, 99, 90),
    (200, 99, 95),
    (1000, 99, 99),
    (1000, 95, 95),    # the cap wins
    (110, 75, 75),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, cap, expected):
    p, value, count = tail_percentile(list(range(n)), cap)
    assert (p, count) == (expected, n)
    assert value == percentile(range(n), expected)


def test_spearman():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman([1, 1, 1], [1, 2, 3]) == 0.0
