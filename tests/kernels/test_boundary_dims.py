"""Boundary-dimension coverage: packed-word edge cases through the
full chain.

The rotate-XOR kernel has two logical-boundary specials (the wrapped
carry of bit D−1 and the pad-bit mask) whose code paths differ when D is
an exact multiple of 32 (no pad bits, top bit at position 31) versus
not.  These tests push both shapes — plus single-word vectors — through
every kernel against the library.
"""

import numpy as np
import pytest

from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.kernels import HDChainSimulator
from repro.pulp import CORTEX_M4_SOC, PULPV3_SOC, WOLF_SOC

BOUNDARY_DIMS = [
    32,     # single word, no pad
    33,     # two words, 1-bit pad (31 pad bits)
    63,     # two words, top bit at position 30
    64,     # exact multiple: mask branch disabled
    96,     # three words, exact multiple
    257,    # many words, 1 valid bit in the last word
]


@pytest.mark.parametrize("dim", BOUNDARY_DIMS)
@pytest.mark.parametrize("ngram", [1, 3])
def test_chain_bit_exact_at_boundary_dims(rng, dim, ngram):
    cfg = HDClassifierConfig(
        dim=dim, n_channels=4, n_levels=5, ngram_size=ngram
    )
    clf = BatchHDClassifier(cfg)
    t = 5 + ngram - 1
    windows = rng.uniform(0, 21, size=(9, t, 4))
    clf.fit(windows, [i % 3 for i in range(9)])
    sim = HDChainSimulator.from_classifier(
        clf, WOLF_SOC, n_cores=3, window=5
    )
    for _ in range(3):
        window = rng.uniform(0, 21, size=(t, 4))
        result = sim.run_window(window)
        np.testing.assert_array_equal(
            sim.read_query(), clf.encoder.encode(window).words,
            err_msg=f"dim={dim} ngram={ngram}",
        )
        assert clf.labels[result.label_index] == clf.predict(window[None])[0]


@pytest.mark.parametrize("dim", [32, 64, 96])
def test_rotation_heavy_chain_at_exact_word_multiples(rng, dim):
    """N=5 hammers the rotate carry path with zero pad bits."""
    cfg = HDClassifierConfig(
        dim=dim, n_channels=3, n_levels=4, ngram_size=5
    )
    clf = BatchHDClassifier(cfg)
    windows = rng.uniform(0, 21, size=(6, 9, 3))
    clf.fit(windows, [i % 2 for i in range(6)])
    sim = HDChainSimulator.from_classifier(
        clf, PULPV3_SOC, n_cores=2, window=5
    )
    window = rng.uniform(0, 21, size=(9, 3))
    sim.run_window(window)
    np.testing.assert_array_equal(
        sim.read_query(), clf.encoder.encode(window).words
    )


def test_more_cores_than_words(rng):
    """Eight cores on a 2-word vector: six cores idle, still correct."""
    cfg = HDClassifierConfig(dim=50, n_channels=4, n_levels=4)
    clf = BatchHDClassifier(cfg)
    windows = rng.uniform(0, 21, size=(6, 5, 4))
    clf.fit(windows, [i % 2 for i in range(6)])
    sim = HDChainSimulator.from_classifier(
        clf, WOLF_SOC, n_cores=8, use_builtins=True, window=5
    )
    window = rng.uniform(0, 21, size=(5, 4))
    result = sim.run_window(window)
    np.testing.assert_array_equal(
        sim.read_query(), clf.encoder.encode(window).words
    )
    assert result.label_index in (0, 1)


def test_single_class_am(rng):
    """An AM with one prototype always answers that class."""
    cfg = HDClassifierConfig(dim=96, n_channels=4, n_levels=4)
    clf = BatchHDClassifier(cfg)
    windows = rng.uniform(0, 21, size=(4, 5, 4))
    clf.fit(windows, ["only"] * 4)
    sim = HDChainSimulator.from_classifier(
        clf, CORTEX_M4_SOC, n_cores=1, window=5
    )
    result = sim.run_window(rng.uniform(0, 21, size=(5, 4)))
    assert result.label_index == 0
    assert len(result.distances) == 1
