"""The tail rule: the highest percentile with >= 10 samples beyond it."""

import pytest

from perfbench.stats import MIN_BEYOND, nearest_rank, tail_percentile


def test_too_few_samples_have_no_tail():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([]) is None


def test_twenty_samples_give_the_median():
    p, value, beyond = tail_percentile([float(i) for i in range(1, 21)])
    assert (p, value, beyond) == (50.0, 10.0, 10)


@pytest.mark.parametrize("n, p", [
    (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_enough_samples_beyond(n, p):
    values = [float(i) for i in range(n)]
    got, value, beyond = tail_percentile(values)
    assert got == p
    assert beyond >= MIN_BEYOND
    assert value == nearest_rank(values, p)[0]
    assert beyond == sum(v > value for v in values)


def test_failed_requests_count_as_infinite_latency():
    values = [0.1] * 190 + [float("inf")] * 10
    p, value, _ = tail_percentile(values)
    assert (p, value) == (95.0, 0.1)
    values[189] = float("inf")
    assert tail_percentile(values)[1] == float("inf")
