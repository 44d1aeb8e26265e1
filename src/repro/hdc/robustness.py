"""Fault injection and graceful degradation.

Section 4.1 of the paper: "the HD classifier exhibits a graceful
degradation with lower dimensionality, or faulty components, allowing a
trade-off between the application's accuracy and the available hardware
resources" [19, 20].  This module makes that claim testable: it injects
stuck-at / bit-flip faults, row by row, into the packed prototype matrix
of a fitted :class:`~repro.hdc.batch.BatchHDClassifier` and measures the
accuracy of the degraded model.

Because hypervector information is distributed holographically, flipping
a random fraction ``p`` of prototype components moves every query's
distance by a ~Binomial(pD) amount while the *margins* between classes
scale with D — so accuracy decays smoothly in ``p`` instead of
collapsing, and larger dimensions tolerate more damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .batch import BatchHDClassifier
from .hypervector import BinaryHypervector
from . import bitpack, engine


def flip_bits(
    vector: BinaryHypervector,
    fraction: float,
    rng: np.random.Generator,
) -> BinaryHypervector:
    """Flip a random ``fraction`` of the vector's components."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n_flips = int(round(fraction * vector.dim))
    if n_flips == 0:
        return vector
    bits = vector.to_bits()
    positions = rng.choice(vector.dim, size=n_flips, replace=False)
    bits[positions] ^= 1
    return BinaryHypervector(bitpack.pack_bits(bits), vector.dim)


def stuck_at(
    vector: BinaryHypervector,
    fraction: float,
    value: int,
    rng: np.random.Generator,
) -> BinaryHypervector:
    """Force a random ``fraction`` of components to a stuck value."""
    if value not in (0, 1):
        raise ValueError(f"stuck value must be 0 or 1, got {value}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    n_faults = int(round(fraction * vector.dim))
    if n_faults == 0:
        return vector
    bits = vector.to_bits()
    positions = rng.choice(vector.dim, size=n_faults, replace=False)
    bits[positions] = value
    return BinaryHypervector(bitpack.pack_bits(bits), vector.dim)


def faulty_memory(
    prototypes: np.ndarray,
    dim: int,
    fraction: float,
    rng: np.random.Generator,
    mode: str = "flip",
) -> np.ndarray:
    """A copy of a packed prototype matrix with faults in every row.

    ``prototypes`` is the ``(n_classes, n_words)`` uint64 AM of a fitted
    classifier (:attr:`~repro.hdc.batch.BatchHDClassifier.prototype_words`);
    rows are faulted in order, each by :func:`flip_bits` or
    :func:`stuck_at`.  ``mode`` is ``'flip'``, ``'stuck0'``, or
    ``'stuck1'``.
    """
    rows = []
    for words in prototypes:
        proto = BinaryHypervector.from_words64(words.copy(), dim)
        if mode == "flip":
            proto = flip_bits(proto, fraction, rng)
        elif mode == "stuck0":
            proto = stuck_at(proto, fraction, 0, rng)
        elif mode == "stuck1":
            proto = stuck_at(proto, fraction, 1, rng)
        else:
            raise ValueError(
                f"mode must be flip/stuck0/stuck1, got {mode!r}"
            )
        rows.append(proto.words64)
    return np.stack(rows)


@dataclass(frozen=True)
class DegradationPoint:
    """Accuracy under one fault rate."""

    fault_fraction: float
    accuracy: float


@dataclass(frozen=True)
class DegradationCurve:
    """Accuracy as a function of the injected fault rate."""

    mode: str
    points: List[DegradationPoint]

    def accuracy_at(self, fraction: float) -> float:
        """Accuracy at an exact swept fault rate."""
        for point in self.points:
            if point.fault_fraction == fraction:
                return point.accuracy
        raise KeyError(f"fault rate {fraction} not in the sweep")

    def is_graceful(self, threshold_drop: float = 0.15) -> bool:
        """No adjacent fault step loses more than ``threshold_drop``."""
        accs = [p.accuracy for p in self.points]
        return all(
            a - b <= threshold_drop for a, b in zip(accs, accs[1:])
        )


def degradation_curve(
    classifier: BatchHDClassifier,
    windows: Sequence[np.ndarray],
    labels: Sequence,
    fractions: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4),
    mode: str = "flip",
    seed: int = 1234,
) -> DegradationCurve:
    """Sweep fault rates over a trained classifier's AM.

    The windows are encoded once and searched against a freshly faulted
    copy of the fitted classifier's prototype matrix per fault rate.
    The original model is left untouched.
    """
    rng = np.random.default_rng(seed)
    queries = classifier.encoder.encode_batch(windows).words
    class_labels = classifier.labels
    points = []
    for fraction in fractions:
        prototypes = faulty_memory(
            classifier.prototype_words, classifier.config.dim,
            fraction, rng, mode,
        )
        indices, _ = engine.am_search(queries, prototypes)
        hits = sum(
            class_labels[i] == label for i, label in zip(indices, labels)
        )
        points.append(
            DegradationPoint(
                fault_fraction=float(fraction),
                accuracy=hits / len(labels),
            )
        )
    return DegradationCurve(mode=mode, points=points)
