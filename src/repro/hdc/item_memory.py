"""Item memory (IM) and continuous item memory (CIM).

The IM maps the discrete symbols of the system — channel names in a
biosignal application — to fresh quasi-orthogonal random hypervectors
(section 2.1.1 of the paper).  The CIM extends that mapping to analog
signal levels: orthogonal endpoint hypervectors are generated for the
minimum and maximum signal levels and the intermediate levels are obtained
by *linear interpolation* between the endpoints, so that nearby levels map
to similar hypervectors and distant levels to dissimilar ones.

Both memories are generated once (offline, in the paper's terms) and stay
fixed throughout the computation; they are the seeds from which all further
representations are made.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Sequence

import numpy as np

from . import bitpack
from .hypervector import BinaryHypervector


class ItemMemory:
    """Maps discrete symbols to fixed random hypervectors.

    Symbols may be any hashable values; in the EMG application they are the
    channel indices.  Each symbol receives an independent i.i.d. random
    hypervector, so any two symbols are quasi-orthogonal (Hamming distance
    ≈ dim/2).
    """

    def __init__(
        self,
        symbols: Iterable[Hashable],
        dim: int,
        rng: np.random.Generator,
    ):
        self._dim = int(dim)
        self._vectors: Dict[Hashable, BinaryHypervector] = {}
        for symbol in symbols:
            if symbol in self._vectors:
                raise ValueError(f"duplicate symbol {symbol!r} in item memory")
            self._vectors[symbol] = BinaryHypervector.random(dim, rng)
        if not self._vectors:
            raise ValueError("item memory needs at least one symbol")

    @classmethod
    def for_channels(
        cls, n_channels: int, dim: int, rng: np.random.Generator
    ) -> "ItemMemory":
        """An IM over integer channel indices ``0 .. n_channels - 1``."""
        if n_channels <= 0:
            raise ValueError(f"need at least one channel, got {n_channels}")
        return cls(range(n_channels), dim, rng)

    @classmethod
    def from_words64(
        cls,
        words: np.ndarray,
        dim: int,
        symbols: Iterable[Hashable] | None = None,
    ) -> "ItemMemory":
        """Rebuild an IM from a packed ``(n_symbols, n_words)`` uint64 matrix.

        The model-store load path: no RNG is involved, the rows are
        adopted bit-for-bit (pad bits must be zero).  ``symbols`` defaults
        to integer channel indices, matching :meth:`for_channels`.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(
                f"expected an (n_symbols, n_words) matrix, got {words.shape}"
            )
        syms = list(symbols) if symbols is not None else list(
            range(words.shape[0])
        )
        if len(syms) != words.shape[0]:
            raise ValueError(
                f"{words.shape[0]} rows but {len(syms)} symbols"
            )
        self = cls.__new__(cls)
        self._dim = int(dim)
        self._vectors = {}
        for symbol, row in zip(syms, words):
            if symbol in self._vectors:
                raise ValueError(f"duplicate symbol {symbol!r} in item memory")
            self._vectors[symbol] = BinaryHypervector.from_words64(
                row.copy(), dim
            )
        if not self._vectors:
            raise ValueError("item memory needs at least one symbol")
        return self

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self._dim

    @property
    def symbols(self) -> tuple:
        """The stored symbols, in insertion order."""
        return tuple(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, symbol: Hashable) -> bool:
        return symbol in self._vectors

    def __getitem__(self, symbol: Hashable) -> BinaryHypervector:
        try:
            return self._vectors[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} not in item memory") from None

    def as_matrix(self) -> np.ndarray:
        """All vectors packed as a (n_symbols, n_words) uint32 matrix.

        Row order matches :attr:`symbols`.  This is the layout the ISS
        kernels load into simulated L2 memory.
        """
        return np.stack([v.words for v in self._vectors.values()])

    def as_matrix64(self) -> np.ndarray:
        """The same rows in the engine's (n_symbols, n_words) uint64 layout."""
        return np.stack([v.words64 for v in self._vectors.values()])


class ContinuousItemMemory:
    """Maps quantised signal levels to hypervectors by linear interpolation.

    Following [19] and section 3 of the paper: the memory holds ``n_levels``
    hypervectors.  Level 0 is a random endpoint vector; the last level is
    (approximately) orthogonal to it; level ``k`` is obtained from the
    minimum endpoint by flipping the first ``k * dim / (n_levels - 1)``
    components to the maximum endpoint's values.  Flips accumulate in a
    fixed component order, so the Hamming distance between two levels is
    proportional to their level difference — the continuous structure the
    spatial encoder relies on.
    """

    def __init__(self, n_levels: int, dim: int, rng: np.random.Generator):
        if n_levels < 2:
            raise ValueError(f"CIM needs at least 2 levels, got {n_levels}")
        self._dim = int(dim)
        self._n_levels = int(n_levels)
        low = rng.integers(0, 2, size=dim, dtype=np.uint8)
        high = rng.integers(0, 2, size=dim, dtype=np.uint8)
        # Interpolate by progressively overwriting components of the low
        # endpoint with the high endpoint's values, in a random but fixed
        # order shared by all levels (so flips accumulate monotonically).
        flip_order = rng.permutation(dim)
        self._vectors = []
        for level in range(n_levels):
            n_flips = round(level * dim / (n_levels - 1))
            bits = low.copy()
            taken = flip_order[:n_flips]
            bits[taken] = high[taken]
            self._vectors.append(
                BinaryHypervector(bitpack.pack_bits(bits), dim)
            )

    @classmethod
    def from_words64(cls, words: np.ndarray, dim: int) -> "ContinuousItemMemory":
        """Rebuild a CIM from a packed ``(n_levels, n_words)`` uint64 matrix.

        The model-store load path: the interpolated level vectors are
        adopted bit-for-bit rather than regenerated from a seed, so a
        served model can never drift from the bits it was trained with.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(
                f"expected an (n_levels, n_words) matrix, got {words.shape}"
            )
        if words.shape[0] < 2:
            raise ValueError(
                f"CIM needs at least 2 levels, got {words.shape[0]}"
            )
        self = cls.__new__(cls)
        self._dim = int(dim)
        self._n_levels = int(words.shape[0])
        self._vectors = [
            BinaryHypervector.from_words64(row.copy(), dim) for row in words
        ]
        return self

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self._dim

    @property
    def n_levels(self) -> int:
        """Number of quantisation levels."""
        return self._n_levels

    def __len__(self) -> int:
        return self._n_levels

    def __getitem__(self, level: int) -> BinaryHypervector:
        if not 0 <= level < self._n_levels:
            raise IndexError(
                f"level {level} out of range 0..{self._n_levels - 1}"
            )
        return self._vectors[level]

    def quantize(self, value: float, lo: float, hi: float) -> int:
        """Round an analog value in [lo, hi] to the closest integer level.

        Values outside the range saturate to the endpoint levels, matching
        the paper's "simple quantization step in which every sample is
        rounded to the closest integer level".
        """
        if hi <= lo:
            raise ValueError(f"invalid signal range [{lo}, {hi}]")
        scaled = (value - lo) / (hi - lo) * (self._n_levels - 1)
        return int(np.clip(round(scaled), 0, self._n_levels - 1))

    def lookup(self, value: float, lo: float, hi: float) -> BinaryHypervector:
        """Quantize ``value`` and return the corresponding level vector."""
        return self._vectors[self.quantize(value, lo, hi)]

    def as_matrix(self) -> np.ndarray:
        """All level vectors as a (n_levels, n_words) uint32 matrix."""
        return np.stack([v.words for v in self._vectors])

    def as_matrix64(self) -> np.ndarray:
        """The same rows in the engine's (n_levels, n_words) uint64 layout."""
        return np.stack([v.words64 for v in self._vectors])

    def level_distances(self) -> np.ndarray:
        """Hamming distance of every level to level 0 (for tests/plots).

        By construction this is monotonically (approximately linearly)
        increasing in the level index.
        """
        base = self._vectors[0]
        return np.array([base.hamming(v) for v in self._vectors])


def quantize_samples(
    samples: Sequence[float] | np.ndarray,
    lo: float,
    hi: float,
    n_levels: int,
) -> np.ndarray:
    """Vectorised quantisation of raw samples to integer CIM levels.

    Functionally identical to calling :meth:`ContinuousItemMemory.quantize`
    per sample; used by the dataset pipeline and by the ISS kernels, which
    consume pre-quantised integer levels.
    """
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    if hi <= lo:
        raise ValueError(f"invalid signal range [{lo}, {hi}]")
    # (x - lo) / (hi - lo) * (n - 1), rounded half to even, clipped:
    # the same operations in the same order as a fresh expression, but
    # in one buffer, so no temporary is allocated per step.
    scaled = np.array(samples, dtype=np.float64)
    scaled -= lo
    scaled /= hi - lo
    scaled *= n_levels - 1
    np.rint(scaled, out=scaled)
    # The clip, as two ufuncs: np.clip adds a Python-level wrapper.
    np.maximum(scaled, 0, out=scaled)
    np.minimum(scaled, n_levels - 1, out=scaled)
    return scaled.astype(np.int64)
