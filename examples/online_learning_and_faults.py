"""On-line learning and fault tolerance: the paper's robustness story.

Demonstrates the two HD properties the paper leans on beyond raw speed:
the AM can be "continuously updated for on-line learning" (section 3),
and classification "exhibits a graceful degradation with lower
dimensionality, or faulty components" (section 4.1).  On-line learning
runs through a ``SessionDelta`` over a fitted classifier's prototype
matrix, the path the streaming service adapts sessions through.

Run:  python examples/online_learning_and_faults.py
"""

import numpy as np

from repro.hdc import (
    BatchHDClassifier,
    HDClassifierConfig,
    SessionDelta,
    degradation_curve,
    engine,
)


def make_windows(rng, n, centers):
    windows, labels = [], []
    for i in range(n):
        label = i % len(centers)
        windows.append(
            np.clip(rng.normal(centers[label], 1.1, size=(5, 4)), 0, 21)
        )
        labels.append(label)
    return np.stack(windows), labels


def online_learning_demo(rng) -> None:
    print("== on-line learning ==")
    clf = BatchHDClassifier(HDClassifierConfig(dim=2048))
    train_w, train_l = make_windows(rng, 30, centers=(4.0, 16.0))
    clf.fit(train_w, train_l)
    # Copy-on-write updates over the fitted prototypes: the model
    # itself is never written.
    delta = SessionDelta(clf.prototype_words, clf.labels, clf.config.dim)
    print(f"trained off-line with classes {delta.labels()}")

    def decide(windows):
        queries = clf.encoder.encode_batch(windows).words
        indices, _ = engine.am_search(queries, delta.prototype_words())
        labels = delta.labels()
        return queries, [labels[i] for i in indices]

    # A new gesture shows up after deployment: learn it from a handful
    # of labelled windows, no retraining pass.
    new_w, _ = make_windows(rng, 8, centers=(10.0,))
    for query in clf.encoder.encode_batch(new_w).words:
        delta.update(query, 2)
    probe_w, probe_l = make_windows(rng, 30, centers=(4.0, 16.0, 10.0))
    _, decided = decide(probe_w)
    accuracy = np.mean([d == t for d, t in zip(decided, probe_l)])
    print(f"accuracy incl. the new class: {accuracy:.2%}")

    # Mistake-driven updates: a correction only counts when the decision
    # served for its window was wrong, so adapting costs minimal writes.
    stream_w, stream_l = make_windows(rng, 60, centers=(4.0, 16.0, 10.0))
    applied = 0
    for window, label in zip(stream_w, stream_l):
        queries, decided = decide(window[None])
        if delta.update(queries[0], label, predicted=decided[0]):
            applied += 1
    print(f"mistake-driven pass applied {applied}/{len(stream_w)} "
          f"updates (the rest were already correct)\n")


def fault_tolerance_demo(rng) -> None:
    print("== graceful degradation under prototype faults ==")
    for dim in (512, 10_000):
        clf = BatchHDClassifier(HDClassifierConfig(dim=dim))
        train_w, train_l = make_windows(
            rng, 40, centers=(3.0, 9.0, 15.0, 20.0)
        )
        clf.fit(train_w, train_l)
        test_w, test_l = make_windows(
            rng, 60, centers=(3.0, 9.0, 15.0, 20.0)
        )
        curve = degradation_curve(
            clf, test_w, test_l,
            fractions=(0.0, 0.1, 0.2, 0.3, 0.4),
        )
        line = "  ".join(
            f"{p.fault_fraction:.0%}:{p.accuracy:.2%}"
            for p in curve.points
        )
        print(f"  {dim:>6}-D  {line}")
    print("\nhigher dimensionality buys fault tolerance — the trade-off "
          "the paper exploits\nwhen shrinking to 200-D for the Cortex M4 "
          "(Table 1).")


if __name__ == "__main__":
    rng = np.random.default_rng(2018)
    online_learning_demo(rng)
    fault_tolerance_demo(rng)
