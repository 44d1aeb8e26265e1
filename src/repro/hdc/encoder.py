"""Spatial and temporal encoders (section 2.1.1 and Fig. 1 of the paper).

* The **spatial encoder** represents the set of all channel-value pairs at
  one timestamp as a single hypervector: every channel vector is bound
  (XOR) to its quantised level vector, and the bound vectors are bundled
  (componentwise majority) into the spatial hypervector
  ``S_t = [(E1 ⊕ V1) + ... + (Ei ⊕ Vi)]``.
* The **temporal encoder** captures a temporal window by combining N
  consecutive spatial hypervectors into one N-gram:
  ``S_t ⊕ ρ¹S_{t+1} ⊕ ρ²S_{t+2} ⊕ ... ⊕ ρ^{n-1}S_{t+n-1}``.

Note the rotation convention: the *later* samples receive more rotations.
The N-gram of N=1 is the spatial hypervector itself, which is why the EMG
task in Tables 1–3 (N=1) skips the temporal kernel entirely.

* The **window encoder** turns a classification window of W consecutive
  timestamps into a single query hypervector by bundling the window's
  N-gram vectors, matching the paper's 10 ms detection window (W=5 at
  500 Hz).

Every encoder carries a whole-recording batched path over the packed
uint64 engine (``encode_batch`` / ``*_words``) in addition to the
object-per-vector API; the scalar methods are one-row calls into the same
kernels, so both produce bit-identical hypervectors by construction.

Two structural choices keep the batched chain fast.  The spatial encoder
binds every channel to every level once, into a prebound
``(n_channels, n_levels, n_words)`` table of ``IM[c] ^ CIM[l]``, so
binding a sample is a single gather.  The window encoder runs the whole
chain — gather, channel majority, N-grams, window majority — tile by
tile (``_TILE_ROWS`` spatial rows at a time) into a preallocated output,
so no whole-batch temporary ever round-trips through memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import engine
from .engine import HypervectorArray
from .hypervector import BinaryHypervector
from .item_memory import ContinuousItemMemory, ItemMemory, quantize_samples

_DEDUP_MIN_ROWS = 16
"""Smallest batch of windows worth the duplicate-window scan.

Quantised biosignal streams are massively redundant — a smooth envelope
held at a plateau repeats the same integer level tuple for many
consecutive samples (on the synthetic EMG task ~30 % of whole windows
are unique).  The offline window encoder (``encode_batch``, hence
``fit``/``predict``) therefore encodes each *unique* quantised window
once and scatters the packed queries back.  The chain is
row-independent, so the output is bit-identical to encoding every
window; batches whose unique fraction exceeds one half skip the detour
entirely.
"""

_TILE_ROWS = 160
"""Spatial rows per tile of the batched encode chain.

At D=10k a tile's bound stack is 160 x 4 channels x 157 words ≈ 0.8 MB
and its spatial rows 0.2 MB, so every intermediate of the chain stays
in a 2 MB L2.  On a 2-core Xeon VM, 512 unique 5-sample windows
encoded fastest at 160 rows per tile (3.8-3.9 ms, 80 and 320 within
8 %); the untiled chain (2560 rows) took 5.8-6.0 ms, 1.5x slower.
"""


def _tiled(fn, rows: np.ndarray, tile: int, n_words: int) -> np.ndarray:
    """``fn`` over ``rows``, ``tile`` rows at a time, into one
    ``(len(rows), n_words)`` output; a single tile's result is returned
    as it is, with no output buffer to fill."""
    if len(rows) <= tile:
        return fn(rows)
    out = np.empty((len(rows), n_words), dtype=np.uint64)
    for start in range(0, len(rows), tile):
        out[start : start + tile] = fn(rows[start : start + tile])
    return out


def _checked_levels(levels: np.ndarray, n_levels: int) -> np.ndarray:
    """``levels`` as int64; ``IndexError`` unless all are in
    ``0 .. n_levels - 1``.

    int64 levels (what :func:`quantize_samples` returns) are checked in
    one reduction and not copied: viewed as uint64, a negative level
    reads huge, so the maximum alone bounds both ends.  Other dtypes
    are first checked for negatives in their own type, so a fractional
    negative level is still refused, and then converted.
    """
    if levels.dtype != np.int64:
        if levels.size and levels.min() < 0:
            raise IndexError(f"levels out of range 0..{n_levels - 1}")
        levels = levels.astype(np.int64)
    if levels.size and levels.view(np.uint64).max() >= n_levels:
        raise IndexError(f"levels out of range 0..{n_levels - 1}")
    return levels


class SpatialEncoder:
    """Encodes multi-channel samples into spatial hypervectors."""

    # Always 0: read only by perfbench's encoder.row_cache_hit_frac.
    row_cache_hits = 0
    row_cache_misses = 0

    def __init__(
        self,
        item_memory: ItemMemory,
        continuous_memory: ContinuousItemMemory,
        signal_lo: float,
        signal_hi: float,
    ):
        if item_memory.dim != continuous_memory.dim:
            raise ValueError(
                f"IM dimension {item_memory.dim} != CIM dimension "
                f"{continuous_memory.dim}"
            )
        if signal_hi <= signal_lo:
            raise ValueError(f"invalid signal range [{signal_lo}, {signal_hi}]")
        self._im = item_memory
        self._cim = continuous_memory
        self._lo = float(signal_lo)
        self._hi = float(signal_hi)
        # IM[c] ^ CIM[l] for every channel/level pair, bound once for
        # the encoder's lifetime (4 x 22 rows, 110 KB at D=10k): binding
        # a sample is then one gather from this table.
        self._bound = (
            item_memory.as_matrix64()[:, None, :]
            ^ continuous_memory.as_matrix64()[None, :, :]
        )
        self._channels = np.arange(len(item_memory))[:, None]

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self._im.dim

    @property
    def n_channels(self) -> int:
        """Number of input channels (IM symbols)."""
        return len(self._im)

    @property
    def item_memory(self) -> ItemMemory:
        """The channel item memory."""
        return self._im

    @property
    def continuous_memory(self) -> ContinuousItemMemory:
        """The level continuous item memory."""
        return self._cim

    def bound_vectors(
        self, sample: Sequence[float] | np.ndarray
    ) -> list[BinaryHypervector]:
        """The per-channel bound vectors ``E_i ⊕ V_i`` for one sample."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.ndim != 1 or sample.size != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} channel values, "
                f"got shape {sample.shape}"
            )
        out = []
        for channel, value in zip(self._im.symbols, sample):
            level_vec = self._cim.lookup(value, self._lo, self._hi)
            out.append(self._im[channel] ^ level_vec)
        return out

    # -- batched kernels ---------------------------------------------------

    def _levels_to_words(self, levels: np.ndarray) -> np.ndarray:
        """Spatial-encode pre-quantised levels ``(..., n_channels)`` into
        packed ``(..., n_words)`` rows: a gather from the prebound table,
        then the channel majority, ``_TILE_ROWS`` rows at a time.

        The gather is channel-major, ``(n_channels, rows, n_words)``, so
        each channel's rows are contiguous and the majority's word ops
        run on contiguous operands.  At D=10,000 on the 2-core VM, 25
        rows took 18 µs and a 160-row tile 100 µs, against 25 and
        152 µs with the strided channel views of a row-major gather.
        """
        levels = np.asarray(levels)
        flat = levels.reshape(-1, levels.shape[-1])
        out = _tiled(
            self._bind_bundle, flat, _TILE_ROWS, self._bound.shape[-1]
        )
        return out.reshape(levels.shape[:-1] + (out.shape[-1],))

    def _bind_bundle(self, flat: np.ndarray) -> np.ndarray:
        """Spatial rows of ``(rows, n_channels)`` levels: one gather,
        one channel majority."""
        bound = self._bound[self._channels, flat.T]
        return engine.majority_default_tie(
            bound.transpose(1, 0, 2), self.dim
        )

    def quantize_batch(self, samples: np.ndarray) -> np.ndarray:
        """Quantise raw samples ``(..., n_channels)`` to integer levels."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape[-1] != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} channel values, "
                f"got shape {samples.shape}"
            )
        return quantize_samples(
            samples, self._lo, self._hi, self._cim.n_levels
        )

    def _samples_to_words(self, samples: np.ndarray) -> np.ndarray:
        """Quantise and spatial-encode raw samples ``(..., n_channels)``."""
        return self._levels_to_words(self.quantize_batch(samples))

    def encode_batch(self, samples: np.ndarray) -> HypervectorArray:
        """Whole-recording spatial encoding: ``(T, n_channels)`` raw
        samples → ``T`` packed spatial hypervectors."""
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2:
            raise ValueError(
                f"samples must be (timestamps, channels), got {samples.shape}"
            )
        return HypervectorArray._wrap(
            self._samples_to_words(samples), self.dim
        )

    def encode_levels_batch(self, levels: np.ndarray) -> HypervectorArray:
        """Batched :meth:`encode_levels`: ``(T, n_channels)`` integer
        levels → ``T`` packed spatial hypervectors."""
        levels = np.asarray(levels)
        if levels.ndim != 2 or levels.shape[-1] != self.n_channels:
            raise ValueError(
                f"levels must be (timestamps, {self.n_channels}), "
                f"got {levels.shape}"
            )
        levels = _checked_levels(levels, self._cim.n_levels)
        return HypervectorArray._wrap(self._levels_to_words(levels), self.dim)

    # -- scalar views of the same kernels ----------------------------------

    def encode(self, sample: Sequence[float] | np.ndarray) -> BinaryHypervector:
        """Spatial hypervector of one time-aligned multi-channel sample."""
        sample = np.asarray(sample, dtype=np.float64)
        if sample.ndim != 1 or sample.size != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} channel values, "
                f"got shape {sample.shape}"
            )
        return BinaryHypervector.from_words64(
            self._samples_to_words(sample[None, :])[0], self.dim
        )

    def encode_levels(self, levels: Sequence[int]) -> BinaryHypervector:
        """Spatial encoding from already-quantised integer levels.

        This is the exact operation the ISS kernels perform (they consume
        pre-quantised levels), exposed for bit-exact cross-validation.
        """
        levels = np.asarray(levels)
        if levels.ndim != 1 or levels.size != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} levels, got shape {levels.shape}"
            )
        levels = _checked_levels(levels, self._cim.n_levels)
        return BinaryHypervector.from_words64(
            self._levels_to_words(levels[None, :])[0], self.dim
        )


class TemporalEncoder:
    """Encodes N consecutive spatial hypervectors into one N-gram vector."""

    def __init__(self, ngram_size: int):
        if ngram_size < 1:
            raise ValueError(f"N-gram size must be >= 1, got {ngram_size}")
        self._n = int(ngram_size)

    @property
    def ngram_size(self) -> int:
        """The temporal window length N."""
        return self._n

    def ngram_words(self, spatial_words: np.ndarray, dim: int) -> np.ndarray:
        """All sliding N-grams of packed spatial rows, batched.

        ``spatial_words`` is ``(..., T, n_words)`` with ``T >= N``; the
        result is ``(..., T - N + 1, n_words)``, combining rotated rows
        ``G_t = S_t ⊕ ρ¹S_{t+1} ⊕ ... ⊕ ρ^{N-1}S_{t+N-1}``.  For N=1
        the N-grams are the spatial rows, and ``spatial_words`` itself
        is returned.
        """
        t_len = spatial_words.shape[-2]
        if t_len < self._n:
            raise ValueError(
                f"need at least {self._n} spatial vectors, got {t_len}"
            )
        if self._n == 1:
            return spatial_words
        n_grams = t_len - self._n + 1
        out = spatial_words[..., :n_grams, :].copy()
        for k in range(1, self._n):
            out ^= engine.rotate(
                spatial_words[..., k : k + n_grams, :], dim, k
            )
        return out

    def encode(
        self, spatial: Sequence[BinaryHypervector]
    ) -> BinaryHypervector:
        """N-gram hypervector of ``spatial[0] .. spatial[N-1]``.

        ``spatial`` must contain exactly N vectors ordered oldest first;
        vector ``k`` is rotated by ``k`` positions before XOR-combining.
        """
        if len(spatial) != self._n:
            raise ValueError(
                f"expected exactly {self._n} spatial vectors, got {len(spatial)}"
            )
        dim = spatial[0].dim
        stack = np.stack([v.words64 for v in spatial])
        return BinaryHypervector.from_words64(
            self.ngram_words(stack, dim)[0], dim
        )

    def sliding(
        self, spatial: Sequence[BinaryHypervector]
    ) -> list[BinaryHypervector]:
        """All N-grams of a longer spatial sequence (stride 1).

        A sequence of T >= N spatial vectors yields ``T - N + 1`` N-grams.
        """
        if len(spatial) < self._n:
            raise ValueError(
                f"need at least {self._n} spatial vectors, got {len(spatial)}"
            )
        dim = spatial[0].dim
        stack = np.stack([v.words64 for v in spatial])
        grams = self.ngram_words(stack, dim)
        return [
            BinaryHypervector.from_words64(grams[t], dim)
            for t in range(grams.shape[0])
        ]


class WindowEncoder:
    """End-to-end encoder: raw multi-channel window → query hypervector.

    A classification window of W timestamps is encoded by (1) spatially
    encoding each timestamp, (2) forming the sliding N-grams, and (3)
    bundling all N-grams of the window into one query vector.  With N=1
    this reduces to bundling the W spatial vectors.  To produce W N-grams
    per window the caller may supply ``W + N − 1`` timestamps; any T >= N
    is accepted and yields ``T − N + 1`` N-grams.

    :meth:`encode_batch` runs the same chain over a whole stack of
    same-length windows at once without leaving the packed domain.
    """

    def __init__(self, spatial: SpatialEncoder, temporal: TemporalEncoder):
        self._spatial = spatial
        self._temporal = temporal

    @property
    def spatial(self) -> SpatialEncoder:
        """The spatial (per-timestamp) encoder."""
        return self._spatial

    @property
    def temporal(self) -> TemporalEncoder:
        """The temporal (N-gram) encoder."""
        return self._temporal

    @property
    def dim(self) -> int:
        """Hypervector dimensionality."""
        return self._spatial.dim

    def _windows_to_words(self, windows: np.ndarray) -> np.ndarray:
        """Encode ``(n, T, channels)`` windows → packed ``(n, n_words)``.

        Windows whose quantised level patterns coincide encode once (see
        ``_DEDUP_MIN_ROWS``); the reconstruction is bit-exact because the
        whole chain is row-independent.
        """
        n_win, t_len, _ = windows.shape
        n = self._temporal.ngram_size
        if t_len < n:
            raise ValueError(
                f"windows of {t_len} timestamps cannot form {n}-grams"
            )
        levels = self._spatial.quantize_batch(windows)
        if n_win >= _DEDUP_MIN_ROWS:
            flat = levels.reshape(n_win, -1)
            unique, inverse = np.unique(flat, axis=0, return_inverse=True)
            if 2 * unique.shape[0] <= n_win:
                queries = self._levels_to_query_words(
                    unique.reshape(-1, t_len, levels.shape[-1])
                )
                return np.ascontiguousarray(queries[inverse.reshape(-1)])
        return self._levels_to_query_words(levels)

    def _levels_to_query_words(self, levels: np.ndarray) -> np.ndarray:
        """Quantised ``(n, T, channels)`` levels → packed query rows.

        The chain runs tile by tile, about ``_TILE_ROWS`` spatial rows
        (at least one window) per tile; several tiles fill one
        preallocated output.
        """
        per_tile = max(1, _TILE_ROWS // levels.shape[1])
        return _tiled(
            self._tile_query_words, levels, per_tile,
            engine.words_for_dim(self.dim),
        )

    def _tile_query_words(self, levels: np.ndarray) -> np.ndarray:
        """One tile of the chain: gather, channel majority, N-grams,
        window majority.

        The spatial rows are encoded time-major, ``(T, windows,
        n_words)``, and read through a ``(windows, T, n_words)`` view,
        so each timestamp's rows are contiguous for the window
        majority's word ops.
        """
        spatial = self._spatial._levels_to_words(levels.transpose(1, 0, 2))
        grams = self._temporal.ngram_words(
            spatial.transpose(1, 0, 2), self.dim
        )
        return engine.majority_default_tie(grams, self.dim)

    def encode_levels_batch(self, levels: np.ndarray) -> HypervectorArray:
        """Query hypervectors from pre-quantised integer level windows.

        ``levels`` is ``(n, T, n_channels)`` integers in range; this is
        the quantisation-free tail of :meth:`encode_batch`, exposed for
        callers that memoize on the quantised pattern (the streaming
        scheduler's decision cache).
        """
        levels = np.asarray(levels)
        if levels.ndim != 3 or levels.shape[-1] != self._spatial.n_channels:
            raise ValueError(
                f"levels must be (n, timestamps, "
                f"{self._spatial.n_channels}), got {levels.shape}"
            )
        if levels.shape[1] < self._temporal.ngram_size:
            raise ValueError(
                f"windows of {levels.shape[1]} timestamps cannot form "
                f"{self._temporal.ngram_size}-grams"
            )
        levels = _checked_levels(
            levels, self._spatial.continuous_memory.n_levels
        )
        return HypervectorArray._wrap(
            self._levels_to_query_words(levels), self.dim
        )

    def encode_batch(self, windows: np.ndarray) -> HypervectorArray:
        """Query hypervectors of a stack of same-length windows.

        ``windows`` is ``(n_windows, T, n_channels)`` raw samples with
        T >= N-gram size; the result has one packed row per window.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim != 3:
            raise ValueError(
                f"windows must be (n, timestamps, channels), got {windows.shape}"
            )
        return HypervectorArray._wrap(
            self._windows_to_words(windows), self.dim
        )

    def ngrams(self, window: np.ndarray) -> list[BinaryHypervector]:
        """The window's N-gram hypervectors.

        ``window`` is a (T, n_channels) array of raw samples with
        T >= N-gram size.
        """
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 2:
            raise ValueError(
                f"window must be (timestamps, channels), got {window.shape}"
            )
        spatial = self._spatial._samples_to_words(window)
        grams = self._temporal.ngram_words(spatial, self.dim)
        return [
            BinaryHypervector.from_words64(grams[t], self.dim)
            for t in range(grams.shape[0])
        ]

    def encode(self, window: np.ndarray) -> BinaryHypervector:
        """Query hypervector of one classification window."""
        window = np.asarray(window, dtype=np.float64)
        if window.ndim != 2:
            raise ValueError(
                f"window must be (timestamps, channels), got {window.shape}"
            )
        return BinaryHypervector.from_words64(
            self._windows_to_words(window[None, ...])[0], self.dim
        )
