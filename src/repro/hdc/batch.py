"""The HD classifier: fit / predict over packed hypervectors.

This composes the processing chain of Fig. 1 (CIM/IM mapping → spatial
and temporal encoders → AM) into a scikit-learn-flavoured object over
classification windows.  It owns one
:class:`~repro.hdc.encoder.WindowEncoder` and keeps every intermediate —
spatial vectors, N-grams, queries, class prototypes — in packed uint64
words on the shared engine.  ``fit`` and ``predict`` take one stacked
``(n_windows, T, n_channels)`` array; distances run through the
engine's packed Hamming kernel rather than a dense int64 matmul.

The packing is invisible in the bits: given the same configuration the
classifier matches the unpacked golden model
(:class:`~repro.hdc.reference.ReferenceHDClassifier`) bit for bit,
under the paper's deterministic rules:

* IM/CIM construction draws from one generator seeded by the config
  (IM rows first, then the CIM);
* channel-majority tiebreak = XOR of the first two bound vectors;
* window-majority tiebreak = XOR of the first two N-grams;
* class-prototype tiebreak = XOR of the first two encoded queries of the
  class (in training order);
* AM ties resolve to the earliest-stored class.

On-line adaptation of a fitted model runs through
:class:`~repro.hdc.online.SessionDelta` over :attr:`prototype_words`.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

import numpy as np

from . import bitpack, engine
from .classifier import HDClassifierConfig
from .encoder import SpatialEncoder, TemporalEncoder, WindowEncoder
from .item_memory import ContinuousItemMemory, ItemMemory


class BatchHDClassifier:
    """HD classifier over ``(n_windows, T, n_channels)`` signal windows.

    Constructed with fixed seeds (IM, CIM) and trained by majority-
    bundling the window queries of each class into one packed AM
    prototype.
    """

    def __init__(self, config: HDClassifierConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        # Draw order matches the golden model: IM rows first, then the
        # CIM (low endpoint, high endpoint, flip permutation).
        im = ItemMemory.for_channels(config.n_channels, config.dim, rng)
        cim = ContinuousItemMemory(config.n_levels, config.dim, rng)
        self._encoder = WindowEncoder(
            SpatialEncoder(im, cim, config.signal_lo, config.signal_hi),
            TemporalEncoder(config.ngram_size),
        )
        self._labels: List[Hashable] = []
        self._proto_words: np.ndarray | None = None

    @classmethod
    def from_state(
        cls,
        config: HDClassifierConfig,
        item_memory: ItemMemory,
        continuous_memory: ContinuousItemMemory,
        labels: Sequence[Hashable],
        prototype_words: np.ndarray,
    ) -> "BatchHDClassifier":
        """Rebuild a fitted classifier from stored model state.

        The model-store load path (:mod:`repro.hdc.serialize`): the seed
        memories and AM prototypes are adopted bit-for-bit — no RNG draw,
        no retraining — so a served model predicts exactly like the
        instance that was saved.
        """
        self = cls.__new__(cls)
        self.config = config
        self._encoder = WindowEncoder(
            SpatialEncoder(
                item_memory,
                continuous_memory,
                config.signal_lo,
                config.signal_hi,
            ),
            TemporalEncoder(config.ngram_size),
        )
        self._labels = list(labels)
        protos = np.ascontiguousarray(prototype_words, dtype=np.uint64)
        if protos.ndim != 2 or protos.shape != (
            len(self._labels),
            engine.words_for_dim(config.dim),
        ):
            raise ValueError(
                f"prototype matrix {protos.shape} does not match "
                f"{len(self._labels)} classes at dimension {config.dim}"
            )
        if not bitpack.pad_bits_are_zero(
            protos, config.dim, bitpack.WORD_BITS64
        ):
            # Dirty pads would silently inflate every packed Hamming
            # distance in AM search; reject like from_words64 does.
            raise ValueError(
                "prototype pad bits above the dimension must be zero"
            )
        self._proto_words = protos
        return self

    @property
    def encoder(self) -> WindowEncoder:
        """The window encoder (seeded by :attr:`config`)."""
        return self._encoder

    # -- train / predict ----------------------------------------------------------

    def fit(
        self, windows: np.ndarray, labels: Sequence[Hashable]
    ) -> "BatchHDClassifier":
        """Accumulate one majority prototype per class (packed throughout).

        ``windows`` is one stacked ``(n_windows, T, n_channels)`` array
        with T >= N; ``labels`` holds one hashable label per window.
        """
        labels = list(labels)
        windows = np.asarray(windows, dtype=np.float64)
        if len(labels) != windows.shape[0]:
            raise ValueError(
                f"{windows.shape[0]} windows but {len(labels)} labels"
            )
        if not labels:
            raise ValueError("cannot fit on an empty training set")
        queries = self._encoder.encode_batch(windows).words
        order: List[Hashable] = []
        for label in labels:
            if label not in order:
                order.append(label)
        protos = []
        for label in order:
            idx = [i for i, l in enumerate(labels) if l == label]
            protos.append(
                engine.majority_default_tie(queries[idx], self.config.dim)
            )
        self._labels = order
        self._proto_words = np.stack(protos)
        return self

    @property
    def labels(self) -> tuple:
        """Class labels in first-seen training order (AM row order)."""
        return tuple(self._labels)

    @property
    def prototype_words(self) -> np.ndarray:
        """The packed (n_classes, n_words) uint64 prototype matrix."""
        if self._proto_words is None:
            raise RuntimeError("classifier has not been fitted")
        return self._proto_words

    def am_matrix(self) -> np.ndarray:
        """The AM in the paper's (n_classes, n_words) uint32 layout.

        Row order matches :attr:`labels`; this is the matrix the ISS
        kernels stream from simulated L2 memory.
        """
        return bitpack.u64_to_u32(self.prototype_words, self.config.dim)

    def distances(self, windows: np.ndarray) -> np.ndarray:
        """Hamming distances (n_windows, n_classes) of window queries.

        Packed AM search: XOR + popcount over uint64 words — no dense
        component-matrix matmul is ever materialized.
        """
        protos = self.prototype_words
        queries = self._encoder.encode_batch(windows).words
        return engine.hamming_matrix(queries, protos)

    def predict(self, windows: np.ndarray) -> list:
        """Labels of the minimum-distance prototypes (first wins ties)."""
        indices, _ = engine.am_search(
            self._encoder.encode_batch(windows).words, self.prototype_words
        )
        return [self._labels[i] for i in indices]

    def score(
        self, windows: np.ndarray, labels: Sequence[Hashable]
    ) -> float:
        """Mean accuracy over a labelled window set."""
        labels = list(labels)
        if len(labels) != np.asarray(windows).shape[0]:
            raise ValueError("window / label count mismatch")
        if not labels:
            raise ValueError("cannot score an empty set")
        predictions = self.predict(windows)
        return sum(p == t for p, t in zip(predictions, labels)) / len(labels)
