"""Tests for the spatial, temporal, and window encoders."""

import numpy as np
import pytest

from repro.hdc import (
    ContinuousItemMemory,
    ItemMemory,
    SpatialEncoder,
    TemporalEncoder,
    WindowEncoder,
    bundle,
)
from repro.hdc import reference


@pytest.fixture
def spatial(rng):
    im = ItemMemory.for_channels(4, 256, rng)
    cim = ContinuousItemMemory(8, 256, rng)
    return SpatialEncoder(im, cim, 0.0, 21.0)


class TestSpatialEncoder:
    def test_dim_mismatch_rejected(self, rng):
        im = ItemMemory.for_channels(2, 64, rng)
        cim = ContinuousItemMemory(4, 128, rng)
        with pytest.raises(ValueError):
            SpatialEncoder(im, cim, 0.0, 1.0)

    def test_bad_signal_range(self, rng):
        im = ItemMemory.for_channels(2, 64, rng)
        cim = ContinuousItemMemory(4, 64, rng)
        with pytest.raises(ValueError):
            SpatialEncoder(im, cim, 1.0, 1.0)

    def test_encode_is_bundle_of_bound(self, spatial, rng):
        sample = rng.uniform(0, 21, size=4)
        bound = spatial.bound_vectors(sample)
        assert spatial.encode(sample) == bundle(bound)

    def test_wrong_channel_count(self, spatial):
        with pytest.raises(ValueError):
            spatial.encode(np.zeros(3))

    def test_encode_levels_matches_encode(self, spatial, rng):
        sample = rng.uniform(0, 21, size=4)
        levels = [
            spatial.continuous_memory.quantize(v, 0.0, 21.0)
            for v in sample
        ]
        assert spatial.encode_levels(levels) == spatial.encode(sample)

    def test_similar_samples_similar_vectors(self, spatial):
        a = spatial.encode([5.0, 10.0, 2.0, 18.0])
        b = spatial.encode([5.0, 10.0, 2.0, 18.0])
        assert a == b

    def test_deterministic_given_seeds(self, rng):
        sample = [1.0, 2.0, 3.0, 4.0]
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        enc_a = SpatialEncoder(
            ItemMemory.for_channels(4, 128, rng_a),
            ContinuousItemMemory(8, 128, rng_a), 0, 21,
        )
        enc_b = SpatialEncoder(
            ItemMemory.for_channels(4, 128, rng_b),
            ContinuousItemMemory(8, 128, rng_b), 0, 21,
        )
        assert enc_a.encode(sample) == enc_b.encode(sample)


class TestTemporalEncoder:
    def test_ngram_size_validation(self):
        with pytest.raises(ValueError):
            TemporalEncoder(0)

    def test_n1_is_identity(self, spatial, rng):
        enc = TemporalEncoder(1)
        v = spatial.encode(rng.uniform(0, 21, size=4))
        assert enc.encode([v]) == v

    def test_wrong_length_rejected(self, spatial, rng):
        enc = TemporalEncoder(3)
        v = spatial.encode(rng.uniform(0, 21, size=4))
        with pytest.raises(ValueError):
            enc.encode([v, v])

    def test_matches_rotation_formula(self, spatial, rng):
        enc = TemporalEncoder(3)
        vs = [spatial.encode(rng.uniform(0, 21, size=4)) for _ in range(3)]
        expected = vs[0] ^ vs[1].rotate(1) ^ vs[2].rotate(2)
        assert enc.encode(vs) == expected

    def test_matches_reference(self, rng):
        dim = 100
        seq = [reference.random_hv(dim, rng) for _ in range(4)]
        from repro.hdc import BinaryHypervector

        packed = [BinaryHypervector.from_bits(b) for b in seq]
        enc = TemporalEncoder(4)
        np.testing.assert_array_equal(
            enc.encode(packed).to_bits(), reference.temporal_encode(seq)
        )

    def test_sliding_count(self, spatial, rng):
        enc = TemporalEncoder(3)
        vs = [spatial.encode(rng.uniform(0, 21, size=4)) for _ in range(7)]
        grams = enc.sliding(vs)
        assert len(grams) == 5
        assert grams[0] == enc.encode(vs[0:3])
        assert grams[4] == enc.encode(vs[4:7])

    def test_sliding_too_short(self, spatial, rng):
        enc = TemporalEncoder(5)
        vs = [spatial.encode(rng.uniform(0, 21, size=4)) for _ in range(3)]
        with pytest.raises(ValueError):
            enc.sliding(vs)

    def test_order_sensitivity(self, spatial, rng):
        """Sequences in different orders encode to distant vectors."""
        enc = TemporalEncoder(2)
        a = spatial.encode(rng.uniform(0, 21, size=4))
        b = spatial.encode(rng.uniform(0, 21, size=4))
        forward = enc.encode([a, b])
        backward = enc.encode([b, a])
        assert forward.hamming(backward) > 0.2 * forward.dim


class TestWindowEncoder:
    def test_encode_shape_validation(self, spatial):
        enc = WindowEncoder(spatial, TemporalEncoder(1))
        with pytest.raises(ValueError):
            enc.encode(np.zeros(5))

    def test_n1_window_is_bundle_of_spatials(self, spatial, rng):
        enc = WindowEncoder(spatial, TemporalEncoder(1))
        window = rng.uniform(0, 21, size=(5, 4))
        expected = bundle([spatial.encode(row) for row in window])
        assert enc.encode(window) == expected

    def test_ngram_count(self, spatial, rng):
        enc = WindowEncoder(spatial, TemporalEncoder(3))
        window = rng.uniform(0, 21, size=(7, 4))
        assert len(enc.ngrams(window)) == 5

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64])
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_encode_levels_batch_range_check(
        self, spatial, rng, dtype, bad
    ):
        """A level below 0 or at n_levels (8 here) is refused whatever
        the dtype; -1 as uint8 wraps to 255."""
        window = WindowEncoder(spatial, TemporalEncoder(1))
        levels = rng.integers(0, 8, size=(3, 5, 4))
        assert len(window.encode_levels_batch(levels.astype(dtype))) == 3
        levels[1, 2, 3] = bad
        with pytest.raises(IndexError):
            window.encode_levels_batch(levels.astype(dtype))

    def test_encode_levels_batch_keeps_int64_input(self, spatial, rng):
        window = WindowEncoder(spatial, TemporalEncoder(1))
        levels = rng.integers(0, 8, size=(6, 5, 4))
        want = window.encode_levels_batch(levels.astype(np.uint8)).words
        before = levels.copy()
        np.testing.assert_array_equal(
            window.encode_levels_batch(levels).words, want
        )
        np.testing.assert_array_equal(levels, before)

    def test_matches_reference_classifier_encoding(self, rng):
        ref = reference.ReferenceHDClassifier(
            dim=128, n_channels=4, n_levels=8, ngram_size=2,
            signal_lo=0.0, signal_hi=21.0, seed=42,
        )
        from repro.hdc import BatchHDClassifier, HDClassifierConfig

        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=4, n_levels=8, ngram_size=2, seed=42
            )
        )
        window = rng.uniform(0, 21, size=(6, 4))
        np.testing.assert_array_equal(
            clf.encoder.encode(window).to_bits(),
            ref.encode_window(window),
        )
