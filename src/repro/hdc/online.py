"""On-line learning: copy-on-write prototype updates over a fitted AM.

Section 3 of the paper notes that "the AM matrix can be continuously
updated for on-line learning".  :class:`SessionDelta` implements that
mode over a fitted model's packed prototype matrix (typically
:attr:`~repro.hdc.batch.BatchHDClassifier.prototype_words`, or an
mmapped slice of the model store): the per-class one-counts of every
class that receives labelled windows stay resident beside the read-only
base, and the touched rows are re-thresholded in O(classes × dim) — no
retraining pass.  Labels the base does not know grow new rows, so a
delta over an empty ``(0, n_words)`` base fed the training queries in
order reproduces off-line ``fit`` bit for bit.

Two update policies are provided (:class:`AdaptConfig`):

* **accumulate** — every supplied window updates its class counts
  (mirror of off-line training, applied incrementally);
* **mistake** — a window only updates the counts when the decision
  served for it was wrong (a perceptron-flavoured rule that converges
  with far fewer updates once the prototypes are roughly right).

The serving layer (:mod:`repro.stream`) keeps one delta per adaptive
session, so many sessions can fine-tune one shared model without ever
touching (or copying) its prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from . import engine


@dataclass(frozen=True)
class AdaptConfig:
    """Policy knobs for per-session adaptation over a shared base AM.

    ``policy`` selects which feedback applies: ``"accumulate"`` folds
    every correction in; ``"mistake"`` only folds in corrections that
    disagree with the decision that was actually served.  ``base_weight``
    is the prior weight of each base prototype — the binary base row
    counts as that many bundled inputs, so early feedback nudges rather
    than overwrites a well-trained class (odd by default, keeping early
    totals odd so no tiebreak is needed until feedback accumulates).
    ``compact_every`` bounds delta memory: once a class has that many
    pending one-count folds they are re-thresholded back into a packed
    row (64× smaller) and the counts are dropped; 0 disables compaction.
    ``feedback_window`` is how many recent decided windows an adaptive
    session retains so late corrections can still be encoded.
    """

    policy: str = "accumulate"
    base_weight: int = 3
    compact_every: int = 0
    feedback_window: int = 64

    def __post_init__(self) -> None:
        if self.policy not in ("accumulate", "mistake"):
            raise ValueError(
                f"unknown adaptation policy {self.policy!r}; "
                f"expected 'accumulate' or 'mistake'"
            )
        if self.base_weight < 1:
            raise ValueError(
                f"base weight must be >= 1, got {self.base_weight}"
            )
        if self.compact_every < 0:
            raise ValueError(
                f"compact_every must be >= 0, got {self.compact_every}"
            )
        if self.feedback_window < 1:
            raise ValueError(
                f"feedback window must be >= 1, got {self.feedback_window}"
            )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for snapshot envelopes."""
        return {
            "policy": self.policy,
            "base_weight": self.base_weight,
            "compact_every": self.compact_every,
            "feedback_window": self.feedback_window,
        }


@dataclass
class _DeltaClass:
    """Adaptation state of one touched class.

    ``base`` is the packed row the class adapts over (the shared
    prototype copied on first touch, or the last compacted row) standing
    for ``weight`` bundled inputs; ``weight`` is 0 for a class the base
    model does not know.  ``counts``/``pending`` are the one-counts and
    fold count since ``base``; ``first`` the first query folded since
    ``base`` (it seeds the tiebreak row exactly like off-line training's
    XOR-of-first-two rule).
    """

    base: Optional[np.ndarray]
    weight: int
    counts: Optional[np.ndarray] = None
    pending: int = 0
    first: Optional[np.ndarray] = None
    tiebreak: Optional[np.ndarray] = None


class SessionDelta:
    """Copy-on-write prototype deltas over a read-only base AM.

    The base matrix (typically an mmapped slice of the model store) is
    never written: classes a session has received feedback for keep
    int64 one-count deltas on the side, and the session's effective
    prototype matrix is materialized on demand — untouched rows aliasing
    the base, touched rows re-thresholded from
    ``base_weight·base + counts``.  Labels the base does not know grow
    new rows with off-line ``fit`` semantics.  With
    ``compact_every`` set, a class's pending counts are deterministically
    folded back into a packed row once they reach that bound, so a
    long-lived session's memory stays O(classes · words) instead of
    O(classes · dim).

    Tiebreak rule (mirrors off-line ``fit``): for a class with a base
    row the even-total tiebreaker is ``base ^ first_feedback_query``;
    for a brand-new class it is ``first ^ second`` query.  Compaction
    re-arms the rule with the compacted row as the new base.

    ``generation`` increments on every applied update; the serving
    layer classifies a session with ``generation > 0`` against its own
    prototypes, outside its model's decision cache.
    """

    def __init__(
        self,
        base_words: np.ndarray,
        base_labels: Sequence[Hashable],
        dim: int,
        config: AdaptConfig = AdaptConfig(),
    ):
        base_words = np.asarray(base_words, dtype=np.uint64)
        n_words = engine.words_for_dim(dim)
        if base_words.ndim != 2 or base_words.shape[1] != n_words:
            raise ValueError(
                f"base matrix shape {base_words.shape} does not match "
                f"{len(base_labels)} classes x {n_words} words"
            )
        if base_words.shape[0] != len(base_labels):
            raise ValueError(
                f"{base_words.shape[0]} base rows but "
                f"{len(base_labels)} base labels"
            )
        self._dim = int(dim)
        self._n_words = n_words
        self._config = config
        self._base_words = base_words
        self._base_labels: List[Hashable] = list(base_labels)
        self._base_index = {
            label: i for i, label in enumerate(self._base_labels)
        }
        if len(self._base_index) != len(self._base_labels):
            raise ValueError("base labels must be unique")
        self._classes: Dict[Hashable, _DeltaClass] = {}
        self._new_labels: List[Hashable] = []
        self._generation = 0
        self._matrix: Optional[np.ndarray] = None
        self.n_updates = 0
        self.n_compactions = 0

    @property
    def config(self) -> AdaptConfig:
        return self._config

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def generation(self) -> int:
        """Monotonic count of applied updates (0 = pristine base)."""
        return self._generation

    def labels(self) -> tuple:
        """Base labels, then feedback-only labels in first-touch order."""
        return tuple(self._base_labels) + tuple(self._new_labels)

    def memory_bytes(self) -> int:
        """Resident delta state (counts + packed rows), excluding base."""
        total = 0
        for cls in self._classes.values():
            for arr in (cls.base, cls.counts, cls.first, cls.tiebreak):
                if arr is not None:
                    total += arr.nbytes
        return total

    # -- learning ---------------------------------------------------------

    def update(
        self,
        query_words: np.ndarray,
        label: Hashable,
        predicted: Optional[Hashable] = None,
    ) -> bool:
        """Fold one encoded, packed query into ``label``'s delta.

        ``predicted`` is the decision that was actually served for the
        window (the mistake-driven policy: when given and equal to
        ``label`` the correction is a confirmation and is skipped).
        Returns True when the delta changed.
        """
        query = np.asarray(query_words, dtype=np.uint64)
        if query.shape != (self._n_words,):
            raise ValueError(
                f"query shape {query.shape} does not match "
                f"({self._n_words},)"
            )
        if predicted is not None and predicted == label:
            return False
        cls = self._classes.get(label)
        if cls is None:
            base_idx = self._base_index.get(label)
            if base_idx is not None:
                cls = _DeltaClass(
                    base=np.array(
                        self._base_words[base_idx], dtype=np.uint64
                    ),
                    weight=self._config.base_weight,
                )
            else:
                cls = _DeltaClass(base=None, weight=0)
                self._new_labels.append(label)
            self._classes[label] = cls
        if cls.counts is None:
            cls.counts = np.zeros(self._dim, dtype=np.int64)
        cls.counts += engine.bit_counts(query[None, :], self._dim)
        cls.pending += 1
        if cls.first is None:
            cls.first = query.copy()
        elif cls.tiebreak is None:
            cls.tiebreak = cls.first ^ query
        self.n_updates += 1
        self._generation += 1
        self._matrix = None
        if (
            self._config.compact_every
            and cls.pending >= self._config.compact_every
        ):
            self._compact(cls)
        return True

    def _class_row(self, cls: _DeltaClass) -> np.ndarray:
        """The effective packed prototype row for one touched class."""
        if cls.pending == 0:
            assert cls.base is not None
            return cls.base
        if cls.weight == 0:
            if cls.pending == 1:
                return cls.first
            counts = cls.counts
            tie = cls.tiebreak
        else:
            counts = cls.counts + cls.weight * engine.unpack_bits(
                cls.base, self._dim
            ).astype(np.int64)
            tie = cls.base ^ cls.first
        total = cls.weight + cls.pending
        if total % 2 == 0:
            return engine.majority_from_counts(
                counts, total, self._dim, tie
            )
        return engine.majority_from_counts(counts, total, self._dim)

    def _compact(self, cls: _DeltaClass) -> None:
        """Re-threshold pending counts back into a packed base row."""
        cls.base = self._class_row(cls).copy()
        cls.weight += cls.pending
        cls.counts = None
        cls.pending = 0
        cls.first = None
        cls.tiebreak = None
        self.n_compactions += 1

    # -- inference --------------------------------------------------------

    def prototype_words(self) -> np.ndarray:
        """The session's effective packed AM (memoized per generation)."""
        if self._matrix is None:
            n_base = len(self._base_labels)
            out = np.empty(
                (n_base + len(self._new_labels), self._n_words),
                dtype=np.uint64,
            )
            out[:n_base] = self._base_words
            new_index = {
                label: n_base + i
                for i, label in enumerate(self._new_labels)
            }
            for label, cls in self._classes.items():
                idx = self._base_index.get(label)
                if idx is None:
                    idx = new_index[label]
                out[idx] = self._class_row(cls)
            self._matrix = out
        return self._matrix

    # -- snapshot ---------------------------------------------------------

    @staticmethod
    def _row_bytes(arr: Optional[np.ndarray]) -> Optional[bytes]:
        return None if arr is None else arr.tobytes()

    def _row_from(self, blob: Optional[bytes]) -> Optional[np.ndarray]:
        if blob is None:
            return None
        row = np.frombuffer(blob, dtype=np.uint64)
        if row.shape != (self._n_words,):
            raise ValueError(
                f"snapshot row has {row.shape[0]} words, "
                f"expected {self._n_words}"
            )
        return row.copy()

    def snapshot(self) -> Dict[str, object]:
        """Self-contained byte-exact state (includes the base matrix,
        so a restore reproduces this delta even if the serving entry
        has since been hot-swapped to a different base)."""
        return {
            "config": self._config.as_dict(),
            "dim": self._dim,
            "base_labels": list(self._base_labels),
            "base_words": self._base_words.tobytes(),
            "classes": [
                (
                    label,
                    {
                        "base": self._row_bytes(cls.base),
                        "weight": cls.weight,
                        "counts": self._row_bytes(cls.counts),
                        "pending": cls.pending,
                        "first": self._row_bytes(cls.first),
                        "tiebreak": self._row_bytes(cls.tiebreak),
                    },
                )
                for label, cls in self._classes.items()
            ],
            "new_labels": list(self._new_labels),
            "generation": self._generation,
            "n_updates": self.n_updates,
            "n_compactions": self.n_compactions,
        }

    def restore(self, state: Mapping[str, object]) -> None:
        """Adopt a snapshot; the delta must be pristine and configured
        identically (same dim and :class:`AdaptConfig`)."""
        if self._classes or self._generation:
            raise ValueError(
                "restore target must be a pristine SessionDelta"
            )
        if int(state["dim"]) != self._dim:
            raise ValueError(
                f"snapshot dimension {state['dim']} does not match "
                f"{self._dim}"
            )
        if dict(state["config"]) != self._config.as_dict():
            raise ValueError(
                f"snapshot adaptation config {state['config']!r} does "
                f"not match {self._config.as_dict()!r}"
            )
        base_labels = list(state["base_labels"])
        base_words = np.frombuffer(
            state["base_words"], dtype=np.uint64
        ).reshape(len(base_labels), self._n_words)
        self._base_words = base_words.copy()
        self._base_labels = base_labels
        self._base_index = {
            label: i for i, label in enumerate(base_labels)
        }
        self._classes = {}
        for label, cls_state in state["classes"]:
            counts = None
            if cls_state["counts"] is not None:
                counts = np.frombuffer(
                    cls_state["counts"], dtype=np.int64
                )
                if counts.shape != (self._dim,):
                    raise ValueError(
                        f"snapshot counts have {counts.shape[0]} "
                        f"components, expected {self._dim}"
                    )
                counts = counts.copy()
            self._classes[label] = _DeltaClass(
                base=self._row_from(cls_state["base"]),
                weight=int(cls_state["weight"]),
                counts=counts,
                pending=int(cls_state["pending"]),
                first=self._row_from(cls_state["first"]),
                tiebreak=self._row_from(cls_state["tiebreak"]),
            )
        self._new_labels = list(state["new_labels"])
        self._generation = int(state["generation"])
        self._matrix = None
        self.n_updates = int(state["n_updates"])
        self.n_compactions = int(state["n_compactions"])
