"""Unpacked golden model — the reproduction's stand-in for the paper's
MATLAB reference implementation.

Every operation here works on plain uint8 component arrays, one array
element per hypervector component, with no bit packing and no word-level
cleverness.  The packed library (:mod:`repro.hdc.ops` and friends) and the
ISS kernels are validated bit-for-bit against this module, mirroring the
paper's claim that the accelerator "preserves the semantic of HD computing
… and matches the golden MATLAB model".

Functions intentionally mirror the packed API one-to-one so tests can run
the same scenario through both paths.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence

import numpy as np


def _check_bits(v: np.ndarray, name: str = "vector") -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    as_u8 = v.astype(np.uint8)
    if np.any(as_u8 > 1):
        raise ValueError(f"{name} contains values other than 0 and 1")
    return as_u8


def random_hv(dim: int, rng: np.random.Generator) -> np.ndarray:
    """An unpacked random hypervector: i.i.d. Bernoulli(1/2) uint8 bits."""
    return rng.integers(0, 2, size=dim, dtype=np.uint8)


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise XOR of two unpacked hypervectors."""
    a, b = _check_bits(a, "a"), _check_bits(b, "b")
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return np.bitwise_xor(a, b)


def permute(v: np.ndarray, k: int = 1) -> np.ndarray:
    """Rotation ρ^k: component ``d`` moves to position ``(d + k) % dim``.

    ``np.roll(v, k)`` implements exactly that mapping, matching
    :func:`repro.hdc.bitpack.rotate_bits` on the packed side (a left
    rotation in bit-significance order).
    """
    return np.roll(_check_bits(v), k)


def bundle(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Componentwise majority with the paper's even-count tiebreaker."""
    if len(vectors) == 0:
        raise ValueError("cannot bundle zero hypervectors")
    checked = [_check_bits(v) for v in vectors]
    dim = checked[0].size
    for v in checked[1:]:
        if v.size != dim:
            raise ValueError("all bundled vectors must share a dimension")
    if len(checked) == 1:
        return checked[0].copy()
    effective = list(checked)
    if len(effective) % 2 == 0:
        effective.append(np.bitwise_xor(checked[0], checked[1]))
    counts = np.zeros(dim, dtype=np.int64)
    for v in effective:
        counts += v
    return (counts > len(effective) // 2).astype(np.uint8)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing components."""
    a, b = _check_bits(a, "a"), _check_bits(b, "b")
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    return int(np.count_nonzero(a != b))


def quantize(value: float, lo: float, hi: float, n_levels: int) -> int:
    """Round an analog value to the closest integer CIM level."""
    if hi <= lo:
        raise ValueError(f"invalid signal range [{lo}, {hi}]")
    scaled = (value - lo) / (hi - lo) * (n_levels - 1)
    return int(np.clip(round(scaled), 0, n_levels - 1))


def make_cim(
    n_levels: int, dim: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Unpacked continuous item memory; mirrors
    :class:`repro.hdc.item_memory.ContinuousItemMemory` exactly (same flip
    schedule), so seeding both with the same generator state produces the
    same vectors."""
    if n_levels < 2:
        raise ValueError(f"CIM needs at least 2 levels, got {n_levels}")
    low = rng.integers(0, 2, size=dim, dtype=np.uint8)
    high = rng.integers(0, 2, size=dim, dtype=np.uint8)
    flip_order = rng.permutation(dim)
    levels = []
    for level in range(n_levels):
        n_flips = round(level * dim / (n_levels - 1))
        bits = low.copy()
        taken = flip_order[:n_flips]
        bits[taken] = high[taken]
        levels.append(bits)
    return levels


def spatial_encode(
    channel_hvs: Sequence[np.ndarray], level_hvs: Sequence[np.ndarray]
) -> np.ndarray:
    """``S = [(E1 ⊕ V1) + ... + (Ei ⊕ Vi)]`` on unpacked vectors."""
    if len(channel_hvs) != len(level_hvs):
        raise ValueError(
            f"got {len(channel_hvs)} channel vectors but "
            f"{len(level_hvs)} level vectors"
        )
    bound = [bind(e, v) for e, v in zip(channel_hvs, level_hvs)]
    return bundle(bound)


def temporal_encode(spatial: Sequence[np.ndarray]) -> np.ndarray:
    """``S_t ⊕ ρ¹S_{t+1} ⊕ ... ⊕ ρ^{n-1}S_{t+n-1}`` on unpacked vectors."""
    if len(spatial) == 0:
        raise ValueError("cannot temporally encode zero vectors")
    out = _check_bits(spatial[0]).copy()
    for k, v in enumerate(spatial[1:], start=1):
        out = np.bitwise_xor(out, permute(v, k))
    return out


def am_classify(
    query: np.ndarray, prototypes: Dict[Hashable, np.ndarray]
) -> Hashable:
    """Label of the prototype at minimum Hamming distance.

    First-stored label wins ties, matching
    :func:`repro.hdc.engine.am_search` (and the ISS AM kernel).
    """
    if not prototypes:
        raise ValueError("no prototypes to classify against")
    best_label = None
    best_dist = None
    for label, proto in prototypes.items():
        d = hamming(query, proto)
        if best_dist is None or d < best_dist:
            best_label, best_dist = label, d
    return best_label


class ReferenceHDClassifier:
    """Unpacked end-to-end classifier mirroring
    :class:`repro.hdc.batch.BatchHDClassifier`.

    Given the same configuration (and therefore the same seed), the two
    classifiers construct identical IM/CIM contents and prototypes and
    must produce identical predictions on identical inputs — the
    library's equivalent of validating the C implementation against the
    MATLAB golden model.
    """

    def __init__(
        self,
        dim: int,
        n_channels: int,
        n_levels: int,
        ngram_size: int,
        signal_lo: float,
        signal_hi: float,
        seed: int,
    ):
        if ngram_size < 1:
            raise ValueError(f"ngram_size must be >= 1, got {ngram_size}")
        self.dim = int(dim)
        self.n_channels = int(n_channels)
        self.n_levels = int(n_levels)
        self.ngram_size = int(ngram_size)
        self.signal_lo = float(signal_lo)
        self.signal_hi = float(signal_hi)
        rng = np.random.default_rng(seed)
        # Draw order matches BatchHDClassifier: IM channels first, then CIM.
        self.item_memory = [random_hv(dim, rng) for _ in range(n_channels)]
        self.cim = make_cim(n_levels, dim, rng)
        self.prototypes: Dict[Hashable, np.ndarray] = {}

    def _encode_sample(self, sample: np.ndarray) -> np.ndarray:
        levels = [
            self.cim[quantize(v, self.signal_lo, self.signal_hi, self.n_levels)]
            for v in sample
        ]
        return spatial_encode(self.item_memory, levels)

    def encode_window(self, window: np.ndarray) -> np.ndarray:
        """Query hypervector of one (timestamps, channels) window."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 2 or window.shape[1] != self.n_channels:
            raise ValueError(
                f"window must be (timestamps, {self.n_channels}), "
                f"got {window.shape}"
            )
        if window.shape[0] < self.ngram_size:
            raise ValueError(
                f"window of {window.shape[0]} timestamps cannot form "
                f"{self.ngram_size}-grams"
            )
        spatial = [self._encode_sample(row) for row in window]
        ngrams = [
            temporal_encode(spatial[t : t + self.ngram_size])
            for t in range(len(spatial) - self.ngram_size + 1)
        ]
        return bundle(ngrams)

    def fit(
        self, windows: Sequence[np.ndarray], labels: Sequence[Hashable]
    ) -> "ReferenceHDClassifier":
        """Accumulate and threshold per-class prototypes."""
        if len(windows) != len(labels):
            raise ValueError(
                f"got {len(windows)} windows but {len(labels)} labels"
            )
        per_class: Dict[Hashable, List[np.ndarray]] = {}
        for window, label in zip(windows, labels):
            per_class.setdefault(label, []).append(self.encode_window(window))
        self.prototypes = {
            label: bundle(queries) for label, queries in per_class.items()
        }
        return self

    def predict_window(self, window: np.ndarray) -> Hashable:
        """Classify one window against the trained prototypes."""
        if not self.prototypes:
            raise RuntimeError("classifier has not been fitted")
        return am_classify(self.encode_window(window), self.prototypes)

    def predict(self, windows: Sequence[np.ndarray]) -> list:
        """Classify a batch of windows."""
        return [self.predict_window(w) for w in windows]
