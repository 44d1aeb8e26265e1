"""LatencyHistogram: the plain-Python weighted record and the
vectorized pass fill identical buckets."""

import numpy as np
import pytest

from repro.perf.streaming import (
    _VECTOR_MIN,
    LatencyHistogram,
    tick_histogram,
    wall_histogram,
)

GEOMETRIES = [tick_histogram, wall_histogram]


def _probe_values(hist: LatencyHistogram) -> list:
    """Zero, negatives, every exact bucket edge and its float
    neighbours, values below ``lo``, at ``hi`` and beyond it."""
    edges = [
        hist.lo * 10.0 ** (i / hist.buckets_per_decade)
        for i in range(len(hist.counts) + 1)
    ]
    values = [0.0, -0.0, -1.0, -hist.hi, hist.lo / 3, hist.hi, 7 * hist.hi]
    for edge in edges:
        values += [
            np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)
        ]
    return [float(v) for v in values]


def _assert_same(got: LatencyHistogram, want: LatencyHistogram) -> None:
    np.testing.assert_array_equal(got.counts, want.counts)
    assert got.zeros == want.zeros
    assert got.min == want.min
    assert got.max == want.max
    assert got.count == want.count


@pytest.mark.parametrize("make", GEOMETRIES)
class TestWeightedRecord:
    def test_weighted_record_matches_record_many_of_repeats(self, make):
        values = _probe_values(make())
        weights = [1 + i % 5 for i in range(len(values))]
        got = make()
        for value, weight in zip(values, weights):
            got.record(value, weight)
        want = make()
        repeated = np.repeat(values, weights)
        assert len(repeated) >= _VECTOR_MIN  # the vectorized pass
        want.record_many(repeated)
        _assert_same(got, want)

    def test_weighted_vector_pass_matches_scalar_records(self, make):
        values = _probe_values(make())
        weights = [1 + i % 3 for i in range(len(values))]
        assert len(values) >= _VECTOR_MIN
        got = make()
        got.record_many(values, weights)
        want = make()
        for value, weight in zip(values, weights):
            want.record(value, weight)
        _assert_same(got, want)

    def test_short_batches_record_value_by_value(self, make):
        values = _probe_values(make())[: _VECTOR_MIN - 1]
        got = make()
        got.record_many(values, [2] * len(values))
        want = make()
        want.record_many(np.repeat(values, 2))
        _assert_same(got, want)

    def test_exact_edge_opens_its_bucket(self, make):
        hist = make()
        for i in (0, 1, 16, len(hist.counts) - 1):
            one = make()
            one.record(hist.lo * 10.0 ** (i / hist.buckets_per_decade))
            assert one.counts[i] == 1
        one = make()
        one.record(10 * hist.hi, 3)
        assert one.counts[-1] == 3

    def test_weight_must_be_positive(self, make):
        hist = make()
        with pytest.raises(ValueError):
            hist.record(1.0, 0)
        values = [1.0] * _VECTOR_MIN
        with pytest.raises(ValueError):
            hist.record_many(values, [1] * (_VECTOR_MIN - 1) + [0])
        assert hist.count == 0

    def test_pickle_round_trip_keeps_bucketing(self, make):
        import pickle

        hist = make()
        hist.record(3.0, 2)
        clone = pickle.loads(pickle.dumps(hist))
        for value in _probe_values(hist):
            hist.record(value)
            clone.record(value)
        _assert_same(clone, hist)
