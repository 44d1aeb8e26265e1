"""Tests for the on-line learning mode (paper section 3)."""

import pickle

import numpy as np
import pytest

from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.hdc import engine
from repro.hdc.online import AdaptConfig, SessionDelta


def make_windows(rng, n, centers=(4.0, 11.0, 18.0)):
    windows, labels = [], []
    for i in range(n):
        label = i % len(centers)
        windows.append(
            np.clip(rng.normal(centers[label], 1.0, size=(5, 4)), 0, 21)
        )
        labels.append(label)
    return np.stack(windows), labels


def decide(delta, queries):
    """Labels of the nearest rows of the delta's effective AM."""
    indices, _ = engine.am_search(queries, delta.prototype_words())
    labels = delta.labels()
    return [labels[i] for i in indices]


def accuracy(predicted, truth):
    return np.mean([p == t for p, t in zip(predicted, truth)])


class TestOnlineBehaviour:
    """On-line learning over a fitted model, through a SessionDelta."""

    @staticmethod
    def fitted(windows, labels, dim=1024, **config):
        clf = BatchHDClassifier(HDClassifierConfig(dim=dim))
        clf.fit(windows, labels)
        delta = SessionDelta(
            clf.prototype_words, clf.labels, dim, AdaptConfig(**config)
        )
        return clf, delta

    def test_learns_new_class_on_the_fly(self, rng):
        windows, labels = make_windows(rng, 12, centers=(4.0, 18.0))
        clf, delta = self.fitted(windows, labels)
        assert delta.labels() == (0, 1)
        # A third activity appears mid-stream.
        new_windows = np.clip(rng.normal(11.0, 1.0, size=(6, 5, 4)), 0, 21)
        for query in clf.encoder.encode_batch(new_windows).words:
            delta.update(query, 2)
        assert delta.labels() == (0, 1, 2)
        probe = np.clip(rng.normal(11.0, 1.0, size=(1, 5, 4)), 0, 21)
        assert decide(delta, clf.encoder.encode_batch(probe).words) == [2]

    def test_adaptation_improves_on_drifted_data(self, rng):
        """On-line updates recover accuracy after a signal shift."""
        windows, labels = make_windows(rng, 24, centers=(3.0, 16.0))
        clf, delta = self.fitted(windows, labels)
        # Drift: both classes shift up by 3 mV.
        drift_w, drift_l = make_windows(rng, 40, centers=(6.0, 19.0))
        queries = clf.encoder.encode_batch(drift_w).words
        before = accuracy(decide(delta, queries[20:]), drift_l[20:])
        for query, label in zip(queries[:20], drift_l[:20]):
            delta.update(query, label)
        after = accuracy(decide(delta, queries[20:]), drift_l[20:])
        assert after >= before

    def test_mistake_driven_skips_correct(self, rng):
        windows, labels = make_windows(rng, 15)
        clf, delta = self.fitted(windows, labels, policy="mistake")
        more_w, more_l = make_windows(rng, 30)
        applied = 0
        queries = clf.encoder.encode_batch(more_w).words
        for query, label in zip(queries, more_l):
            served = decide(delta, query[None])[0]
            if delta.update(query, label, predicted=served):
                applied += 1
        # A trained separable model rejects most redundant updates.
        assert applied < len(more_l)

    def test_mistake_driven_always_applies_new_class(self, rng):
        windows, labels = make_windows(rng, 6)
        clf, delta = self.fitted(windows, labels, dim=256, policy="mistake")
        window = np.clip(rng.normal(5, 1, size=(1, 5, 4)), 0, 21)
        query = clf.encoder.encode_batch(window).words[0]
        served = decide(delta, query[None])[0]
        assert delta.update(query, "fresh", predicted=served)
        assert delta.labels()[-1] == "fresh"


class TestWarmStartParity:
    """On-line learning from nothing is off-line training, pinned.

    A ``SessionDelta`` over an empty ``(0, n_words)`` base, fed the
    training queries in order, must be bit-identical to
    ``BatchHDClassifier.fit`` — including even per-class totals, where
    the result hinges on the XOR-of-first-two tiebreak matching fit's
    append-tiebreak rule.
    """

    @staticmethod
    def warm_start(clf, windows, labels, read_every_update=False):
        dim = clf.config.dim
        empty = np.zeros((0, engine.words_for_dim(dim)), dtype=np.uint64)
        delta = SessionDelta(empty, [], dim)
        queries = clf.encoder.encode_batch(windows).words
        for query, label in zip(queries, labels):
            delta.update(query, label)
            if read_every_update:
                delta.prototype_words()
        return delta

    @pytest.mark.parametrize("n_per_class", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_batch_fit(self, rng, n_per_class):
        cfg = HDClassifierConfig(dim=96, seed=5)
        windows, labels = make_windows(rng, 3 * n_per_class)
        offline = BatchHDClassifier(cfg).fit(windows, labels)
        delta = self.warm_start(offline, windows, labels)
        assert delta.labels() == offline.labels
        assert np.array_equal(
            delta.prototype_words(), offline.prototype_words
        )

    def test_one_by_one_even_totals(self, rng):
        """Reading the AM between updates never freezes a stale tie."""
        cfg = HDClassifierConfig(dim=64, seed=3)
        windows, labels = make_windows(rng, 6)
        offline = BatchHDClassifier(cfg).fit(windows, labels)
        delta = self.warm_start(
            offline, windows, labels, read_every_update=True
        )
        assert np.array_equal(
            delta.prototype_words(), offline.prototype_words
        )

    def test_singleton_class_parity(self, rng):
        """A one-window class stores the query itself in both paths."""
        cfg = HDClassifierConfig(dim=128, seed=9)
        windows, labels = make_windows(rng, 7)
        labels[-1] = "single"
        offline = BatchHDClassifier(cfg).fit(windows, labels)
        query = offline.encoder.encode_batch(windows[-1:]).words[0]
        assert np.array_equal(offline.prototype_words[-1], query)
        delta = self.warm_start(offline, windows, labels)
        assert delta.labels() == offline.labels
        assert np.array_equal(
            delta.prototype_words(), offline.prototype_words
        )


class TestSessionDelta:
    def make_delta(self, rng, dim=96, n_classes=3, **kwargs):
        base = engine.random_words(n_classes, dim, rng)
        labels = [f"g{i}" for i in range(n_classes)]
        return (
            SessionDelta(base, labels, dim, AdaptConfig(**kwargs)),
            base,
        )

    def test_pristine_serves_the_base(self, rng):
        delta, base = self.make_delta(rng)
        assert delta.generation == 0
        assert np.array_equal(delta.prototype_words(), base)
        assert delta.labels() == ("g0", "g1", "g2")

    def test_update_touches_only_its_class(self, rng):
        delta, base = self.make_delta(rng, base_weight=1)
        query = engine.random_words(1, 96, rng)[0]
        assert delta.update(query, "g1")
        matrix = delta.prototype_words()
        assert np.array_equal(matrix[0], base[0])
        assert np.array_equal(matrix[2], base[2])
        assert delta.generation == 1

    def test_matches_online_fold_arithmetic(self, rng):
        """A touched class re-thresholds base_weight·base + counts."""
        dim = 64
        delta, base = self.make_delta(rng, dim=dim, base_weight=3)
        queries = engine.random_words(2, dim, rng)
        for q in queries:
            delta.update(q, "g0")
        counts = engine.bit_counts(queries, dim) + 3 * engine.unpack_bits(
            base[0], dim
        ).astype(np.int64)
        expected = engine.majority_from_counts(counts, 5, dim)
        assert np.array_equal(delta.prototype_words()[0], expected)

    def test_new_class_one_shot_semantics(self, rng):
        delta, _ = self.make_delta(rng)
        queries = engine.random_words(2, 96, rng)
        delta.update(queries[0], "new")
        assert delta.labels()[-1] == "new"
        assert np.array_equal(delta.prototype_words()[3], queries[0])
        delta.update(queries[1], "new")
        counts = engine.bit_counts(queries, 96)
        expected = engine.majority_from_counts(
            counts, 2, 96, queries[0] ^ queries[1]
        )
        assert np.array_equal(delta.prototype_words()[3], expected)

    def test_mistake_policy_skips_confirmations(self, rng):
        delta, _ = self.make_delta(rng, policy="mistake")
        query = engine.random_words(1, 96, rng)[0]
        assert not delta.update(query, "g0", predicted="g0")
        assert delta.generation == 0
        assert delta.update(query, "g0", predicted="g2")
        assert delta.generation == 1

    def test_compaction_bounds_memory_and_is_deterministic(self, rng):
        dim = 256
        base = engine.random_words(2, dim, rng)
        queries = engine.random_words(40, dim, rng)
        compacting = SessionDelta(
            base, ["a", "b"], dim, AdaptConfig(compact_every=4)
        )
        twin = SessionDelta(
            base, ["a", "b"], dim, AdaptConfig(compact_every=4)
        )
        for delta in (compacting, twin):
            for i, q in enumerate(queries):
                delta.update(q, "a" if i < 28 else "b")
        assert compacting.n_compactions > 0
        assert np.array_equal(
            compacting.prototype_words(), twin.prototype_words()
        )
        # Each class ended on a compaction boundary, so its pending
        # counts were folded back into packed words: resident delta
        # state stays far below one int64 counts row per class.
        unbounded = SessionDelta(
            base, ["a", "b"], dim, AdaptConfig(compact_every=0)
        )
        for i, q in enumerate(queries):
            unbounded.update(q, "a" if i < 28 else "b")
        assert compacting.memory_bytes() < unbounded.memory_bytes() / 4

    def test_snapshot_round_trip(self, rng):
        delta, base = self.make_delta(rng, compact_every=3)
        queries = engine.random_words(8, 96, rng)
        for i, q in enumerate(queries):
            delta.update(q, ["g0", "g1", "fresh"][i % 3])
        blob = pickle.dumps(delta.snapshot())
        restored = SessionDelta(
            base, ["g0", "g1", "g2"], 96, AdaptConfig(compact_every=3)
        )
        restored.restore(pickle.loads(blob))
        assert restored.generation == delta.generation
        assert restored.labels() == delta.labels()
        assert np.array_equal(
            restored.prototype_words(), delta.prototype_words()
        )
        # Divergence-free continuation after restore.
        more = engine.random_words(3, 96, rng)
        for q in more:
            delta.update(q, "fresh")
            restored.update(q, "fresh")
        assert np.array_equal(
            restored.prototype_words(), delta.prototype_words()
        )

    def test_restore_validation(self, rng):
        delta, base = self.make_delta(rng)
        query = engine.random_words(1, 96, rng)[0]
        delta.update(query, "g0")
        snap = delta.snapshot()
        dirty, _ = self.make_delta(rng)
        dirty.update(query, "g1")
        with pytest.raises(ValueError, match="pristine"):
            dirty.restore(snap)
        mismatched = SessionDelta(
            base, ["g0", "g1", "g2"], 96, AdaptConfig(base_weight=5)
        )
        with pytest.raises(ValueError, match="config"):
            mismatched.restore(snap)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="policy"):
            AdaptConfig(policy="nope")
        with pytest.raises(ValueError, match="base weight"):
            AdaptConfig(base_weight=0)
        with pytest.raises(ValueError, match="compact_every"):
            AdaptConfig(compact_every=-1)
        with pytest.raises(ValueError, match="feedback window"):
            AdaptConfig(feedback_window=0)
        with pytest.raises(ValueError):
            SessionDelta(np.zeros((2, 2), dtype=np.uint64), ["a"], 96)
