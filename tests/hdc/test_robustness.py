"""Tests for fault injection and the graceful-degradation claim."""

import numpy as np
import pytest

from repro.hdc import (
    BatchHDClassifier,
    BinaryHypervector,
    HDClassifierConfig,
    degradation_curve,
    engine,
    faulty_memory,
    flip_bits,
    stuck_at,
)


class TestFaultPrimitives:
    def test_flip_changes_requested_fraction(self, rng):
        v = BinaryHypervector.random(10_000, rng)
        faulty = flip_bits(v, 0.1, rng)
        assert v.hamming(faulty) == 1000

    def test_flip_zero_is_identity(self, rng):
        v = BinaryHypervector.random(100, rng)
        assert flip_bits(v, 0.0, rng) == v

    def test_flip_fraction_validated(self, rng):
        v = BinaryHypervector.random(100, rng)
        with pytest.raises(ValueError):
            flip_bits(v, 1.5, rng)

    def test_stuck_at_value(self, rng):
        v = BinaryHypervector.random(10_000, rng)
        all_stuck = stuck_at(v, 1.0, 1, rng)
        assert all_stuck.popcount() == 10_000
        with pytest.raises(ValueError):
            stuck_at(v, 0.1, 2, rng)

    def test_faulty_memory_preserves_labels(self, rng):
        """Row i stays class i's prototype: faults hit it in place."""
        dim = 250
        protos = engine.random_words(4, dim, rng)
        original = protos.copy()
        for mode in ("flip", "stuck0", "stuck1"):
            faulty = faulty_memory(protos, dim, 0.2, rng, mode)
            assert faulty.shape == protos.shape
            assert faulty.dtype == np.uint64
            moved = engine.hamming_matrix(faulty, protos).diagonal()
            assert np.all(moved <= 50)
            assert faulty[:, -1].max() <= engine.pad_mask(dim)
        assert np.array_equal(protos, original)
        with pytest.raises(ValueError):
            faulty_memory(protos, dim, 0.2, rng, "cosmic-rays")


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(77)
    clf = BatchHDClassifier(HDClassifierConfig(dim=4096))
    centers = (3.0, 9.0, 15.0, 20.0)
    windows, labels = [], []
    for i in range(40):
        label = i % 4
        windows.append(
            np.clip(rng.normal(centers[label], 1.0, size=(5, 4)), 0, 21)
        )
        labels.append(label)
    clf.fit(np.stack(windows), labels)
    test_w, test_l = [], []
    for i in range(60):
        label = i % 4
        test_w.append(
            np.clip(rng.normal(centers[label], 1.0, size=(5, 4)), 0, 21)
        )
        test_l.append(label)
    return clf, test_w, test_l


class TestGracefulDegradation:
    """The paper's §4.1 robustness claim, quantified."""

    def test_accuracy_decays_gracefully(self, trained):
        clf, test_w, test_l = trained
        curve = degradation_curve(
            clf, test_w, test_l,
            fractions=(0.0, 0.1, 0.2, 0.3),
        )
        assert curve.is_graceful(threshold_drop=0.2)
        assert curve.accuracy_at(0.0) > 0.9

    def test_moderate_faults_barely_hurt(self, trained):
        """10% flipped prototype bits cost almost nothing at 4096-D."""
        clf, test_w, test_l = trained
        curve = degradation_curve(
            clf, test_w, test_l, fractions=(0.0, 0.1)
        )
        assert curve.accuracy_at(0.1) > curve.accuracy_at(0.0) - 0.1

    def test_total_corruption_destroys(self, trained):
        """Sanity: 50% flips = random prototypes = chance accuracy."""
        clf, test_w, test_l = trained
        curve = degradation_curve(
            clf, test_w, test_l, fractions=(0.5,), seed=5,
        )
        assert curve.accuracy_at(0.5) < 0.6

    def test_higher_dimension_more_robust(self):
        """The paper's trade-off: dimensionality buys fault tolerance."""
        rng = np.random.default_rng(3)
        accs = {}
        for dim in (256, 4096):
            clf = BatchHDClassifier(HDClassifierConfig(dim=dim))
            windows, labels = [], []
            for i in range(40):
                label = i % 4
                center = (3.0, 9.0, 15.0, 20.0)[label]
                windows.append(
                    np.clip(
                        rng.normal(center, 1.6, size=(5, 4)), 0, 21
                    )
                )
                labels.append(label)
            clf.fit(np.stack(windows), labels)
            curve = degradation_curve(
                clf, windows, labels, fractions=(0.35,), seed=11,
            )
            accs[dim] = curve.accuracy_at(0.35)
        assert accs[4096] >= accs[256]

    def test_curve_accessors(self, trained):
        clf, test_w, test_l = trained
        curve = degradation_curve(
            clf, test_w, test_l, fractions=(0.0, 0.2)
        )
        assert curve.mode == "flip"
        with pytest.raises(KeyError):
            curve.accuracy_at(0.123)

    def test_stuck_at_mode(self, trained):
        clf, test_w, test_l = trained
        curve = degradation_curve(
            clf, test_w, test_l, fractions=(0.0, 0.2), mode="stuck0"
        )
        assert curve.accuracy_at(0.0) >= curve.accuracy_at(0.2) - 0.02
