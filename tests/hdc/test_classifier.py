"""Tests for the end-to-end HD classifier."""

import numpy as np
import pytest

from repro.hdc import BatchHDClassifier, HDClassifierConfig, engine
from repro.hdc.reference import ReferenceHDClassifier
from repro.kernels import ChainDims, make_layout


def make_windows(rng, n, timestamps=5, channels=4, centers=None):
    """Labelled windows around per-class mean amplitudes."""
    if centers is None:
        centers = [4.0, 11.0, 18.0]
    windows, labels = [], []
    for i in range(n):
        label = i % len(centers)
        base = centers[label]
        windows.append(
            np.clip(
                rng.normal(base, 1.0, size=(timestamps, channels)), 0, 21
            )
        )
        labels.append(label)
    return np.stack(windows), labels


class TestConfig:
    def test_emg_preset(self):
        cfg = HDClassifierConfig.emg()
        assert cfg.dim == 10_000
        assert cfg.n_channels == 4
        assert cfg.n_levels == 22
        assert cfg.ngram_size == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0),
            dict(n_channels=0),
            dict(n_levels=1),
            dict(ngram_size=0),
            dict(signal_lo=5.0, signal_hi=5.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HDClassifierConfig(**kwargs)


class TestFitPredict:
    def test_learns_separable_task(self, rng):
        clf = BatchHDClassifier(HDClassifierConfig(dim=1024, n_levels=22))
        train_w, train_l = make_windows(rng, 30)
        clf.fit(train_w, train_l)
        test_w, test_l = make_windows(rng, 30)
        assert clf.score(test_w, test_l) > 0.9

    def test_unfitted_predict_rejected(self, rng):
        clf = BatchHDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(RuntimeError):
            clf.predict(np.zeros((1, 5, 4)))
        with pytest.raises(RuntimeError):
            clf.prototype_words

    def test_fit_validation(self, rng):
        clf = BatchHDClassifier(HDClassifierConfig(dim=64))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((1, 5, 4)), [0, 1])
        with pytest.raises(ValueError):
            clf.fit(np.zeros((0, 5, 4)), [])

    def test_score_validation(self, rng):
        clf = BatchHDClassifier(HDClassifierConfig(dim=64))
        train_w, train_l = make_windows(rng, 6)
        clf.fit(train_w, train_l)
        with pytest.raises(ValueError):
            clf.score(train_w, train_l[:-1])
        with pytest.raises(ValueError, match="empty"):
            clf.score(np.zeros((0, 5, 4)), [])
        with pytest.raises(ValueError, match="empty"):
            clf.score([], [])

    def test_deterministic_given_seed(self, rng):
        train_w, train_l = make_windows(rng, 12)
        test_w, _ = make_windows(rng, 6)
        preds = []
        for _ in range(2):
            clf = BatchHDClassifier(HDClassifierConfig(dim=256, seed=9))
            clf.fit(train_w, train_l)
            preds.append(clf.predict(test_w))
        assert preds[0] == preds[1]

    def test_labels_survive_roundtrip(self, rng):
        clf = BatchHDClassifier(HDClassifierConfig(dim=256))
        windows, _ = make_windows(rng, 9)
        labels = ["open", "close", "pinch"] * 3
        clf.fit(windows, labels)
        assert set(clf.predict(windows)) <= {"open", "close", "pinch"}

    def test_model_memory_matches_paper_estimate(self, rng):
        """Section 3: CIM 27 kB + IM 5 kB + AM 7 kB ~ 39 kB packed."""
        clf = BatchHDClassifier(HDClassifierConfig.emg())
        windows, _ = make_windows(rng, 10)
        labels = [i % 5 for i in range(10)]
        clf.fit(windows, labels)
        spatial = clf.encoder.spatial
        matrices = (
            spatial.continuous_memory.as_matrix(),
            spatial.item_memory.as_matrix(),
            clf.am_matrix(),
        )
        layout = make_layout(
            ChainDims(dim=10_000, n_classes=len(clf.labels)), n_cores=1
        )
        assert layout.model_bytes() == sum(m.nbytes for m in matrices)
        assert layout.model_bytes() == 38_812
        assert 35_000 < layout.model_bytes() < 45_000


class TestAgainstReference:
    """The packed classifier must match the unpacked golden model
    bit-for-bit (the paper's MATLAB-equivalence claim)."""

    @pytest.mark.parametrize("ngram", [1, 2, 3])
    def test_predictions_identical(self, rng, ngram):
        cfg = HDClassifierConfig(
            dim=256, n_channels=4, n_levels=8, ngram_size=ngram, seed=31
        )
        clf = BatchHDClassifier(cfg)
        ref = ReferenceHDClassifier(
            dim=256, n_channels=4, n_levels=8, ngram_size=ngram,
            signal_lo=cfg.signal_lo, signal_hi=cfg.signal_hi, seed=31,
        )
        timestamps = 5 + ngram - 1
        train_w, train_l = make_windows(rng, 15, timestamps=timestamps)
        clf.fit(train_w, train_l)
        ref.fit(train_w, train_l)
        test_w, _ = make_windows(rng, 10, timestamps=timestamps)
        assert clf.predict(test_w) == ref.predict(test_w)

    def test_prototypes_identical(self, rng):
        cfg = HDClassifierConfig(dim=128, n_levels=6, seed=77)
        clf = BatchHDClassifier(cfg)
        ref = ReferenceHDClassifier(
            dim=128, n_channels=4, n_levels=6, ngram_size=1,
            signal_lo=0.0, signal_hi=21.0, seed=77,
        )
        train_w, train_l = make_windows(rng, 12)
        clf.fit(train_w, train_l)
        ref.fit(train_w, train_l)
        assert clf.labels == tuple(ref.prototypes)
        for row, proto in zip(clf.prototype_words, ref.prototypes.values()):
            np.testing.assert_array_equal(
                engine.unpack_bits(row, cfg.dim), proto
            )
