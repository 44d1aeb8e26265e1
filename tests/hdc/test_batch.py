"""Bit-exact equivalence of the packed classifier with the golden model."""

import numpy as np
import pytest

from repro.hdc import BatchHDClassifier, HDClassifierConfig, engine
from repro.hdc.reference import ReferenceHDClassifier


def windows_and_labels(rng, n, timestamps, channels, n_classes=4):
    windows = rng.uniform(0, 21, size=(n, timestamps, channels))
    labels = [i % n_classes for i in range(n)]
    return windows, labels


def reference_for(cfg):
    return ReferenceHDClassifier(
        dim=cfg.dim, n_channels=cfg.n_channels, n_levels=cfg.n_levels,
        ngram_size=cfg.ngram_size, signal_lo=cfg.signal_lo,
        signal_hi=cfg.signal_hi, seed=cfg.seed,
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "ngram,channels",
        [(1, 4), (1, 3), (2, 4), (3, 5), (4, 2)],
    )
    def test_predictions_bit_exact(self, rng, ngram, channels):
        cfg = HDClassifierConfig(
            dim=320, n_channels=channels, n_levels=7,
            ngram_size=ngram, seed=17,
        )
        ref = reference_for(cfg)
        bat = BatchHDClassifier(cfg)
        t = 5 + ngram - 1
        train_w, train_l = windows_and_labels(rng, 20, t, channels)
        ref.fit(train_w, train_l)
        bat.fit(train_w, train_l)
        test_w, _ = windows_and_labels(rng, 15, t, channels)
        assert ref.predict(test_w) == bat.predict(test_w)

    def test_prototypes_bit_exact(self, rng):
        cfg = HDClassifierConfig(dim=256, n_levels=9, seed=3)
        ref = reference_for(cfg)
        bat = BatchHDClassifier(cfg)
        train_w, train_l = windows_and_labels(rng, 18, 5, 4)
        ref.fit(train_w, train_l)
        bat.fit(train_w, train_l)
        assert bat.labels == tuple(ref.prototypes)
        np.testing.assert_array_equal(
            engine.unpack_bits(bat.prototype_words, cfg.dim),
            np.stack(list(ref.prototypes.values())),
        )

    def test_im_cim_bit_exact(self):
        cfg = HDClassifierConfig(dim=192, n_levels=6, seed=55)
        ref = reference_for(cfg)
        spatial = BatchHDClassifier(cfg).encoder.spatial
        np.testing.assert_array_equal(
            engine.unpack_bits(spatial.item_memory.as_matrix64(), cfg.dim),
            np.stack(ref.item_memory),
        )
        np.testing.assert_array_equal(
            engine.unpack_bits(
                spatial.continuous_memory.as_matrix64(), cfg.dim
            ),
            np.stack(ref.cim),
        )

    def test_distances_match_hamming(self, rng):
        cfg = HDClassifierConfig(dim=256, seed=21)
        bat = BatchHDClassifier(cfg)
        train_w, train_l = windows_and_labels(rng, 12, 5, 4)
        bat.fit(train_w, train_l)
        test_w = train_w[:3]
        dists = bat.distances(test_w)
        queries = engine.unpack_bits(
            bat.encoder.encode_batch(test_w).words, cfg.dim
        )
        prototypes = engine.unpack_bits(bat.prototype_words, cfg.dim)
        for i in range(3):
            for j in range(len(bat.labels)):
                expected = int(
                    np.count_nonzero(queries[i] != prototypes[j])
                )
                assert dists[i, j] == expected


class TestValidation:
    def test_fit_mismatched(self, rng):
        bat = BatchHDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(ValueError):
            bat.fit(np.zeros((2, 5, 4)), [0])
        with pytest.raises(ValueError):
            bat.fit(np.zeros((0, 5, 4)), [])

    def test_window_too_short_for_ngram(self, rng):
        bat = BatchHDClassifier(HDClassifierConfig(dim=64, ngram_size=5))
        with pytest.raises(ValueError):
            bat.fit(np.zeros((1, 3, 4)), [0])

    def test_bad_shapes(self):
        bat = BatchHDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(ValueError):
            bat.fit(np.zeros((2, 5, 3)), [0, 1])  # wrong channel count
        with pytest.raises(ValueError):
            bat.fit(np.zeros((5, 4)), [0] * 5)  # missing axis

    def test_unfitted(self):
        bat = BatchHDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(RuntimeError):
            bat.predict(np.zeros((1, 5, 4)))
        with pytest.raises(RuntimeError):
            bat.am_matrix()

    def test_score_mismatch(self, rng):
        bat = BatchHDClassifier(HDClassifierConfig(dim=64))
        train_w, train_l = windows_and_labels(rng, 8, 5, 4)
        bat.fit(train_w, train_l)
        with pytest.raises(ValueError):
            bat.score(train_w, train_l[:-1])
