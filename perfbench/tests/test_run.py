"""Statistics of the benchmark's request loop."""

from perfbench.run import CYCLE, MIN_REQUESTS, request_count, tail
from perfbench.workloads import WORKLOADS


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(100))) == (89, 90.0, 10)
    assert tail(list(range(400, 0, -1))) == (390, 97.5, 10)
    assert tail([5, 1, 3]) == (1, 100 / 3, 2)  # too few samples: the lowest, all beyond


def test_request_count_is_whole_label_cycles_and_independent_of_speed():
    for wl in WORKLOADS.values():
        n = request_count(wl, 25)
        assert n % CYCLE == 0 and n >= MIN_REQUESTS
        assert n == request_count(wl, 25)
        assert request_count(wl, 0.01) == MIN_REQUESTS


def test_foreign_check_overlaps_are_a_third_of_every_run():
    wl = WORKLOADS["foreign_check"]
    n = request_count(wl, 25)
    labels = [wl.make(0, i).label for i in range(n)]
    assert 3 * labels.count("overlap") == n
