"""The tiled host encode chain and the closed-form 4-row majority.

Both are restructurings of existing kernels, so every test compares
against an independent untiled formula: the bit-sliced
:func:`~repro.hdc.engine.majority` with an explicit ``r0 ^ r1`` tie row,
and an inline bind → channel majority → N-gram → window majority chain
over the whole batch at once.
"""

import numpy as np
import pytest

from repro.hdc import (
    ContinuousItemMemory,
    ItemMemory,
    SpatialEncoder,
    TemporalEncoder,
    WindowEncoder,
    bitpack,
    engine,
)
from repro.hdc import encoder as encoder_module

TILE = encoder_module._TILE_ROWS


def majority_explicit_tie(stack, dim):
    """Untiled bit-sliced majority with the paper's tie row spelled out."""
    n = stack.shape[-2]
    tie = stack[..., 0, :] ^ stack[..., 1, :] if n % 2 == 0 else None
    return engine.majority(stack, dim, tie)


def untiled_queries(window_encoder, levels):
    """Whole-batch reference chain, no table, no tiles."""
    spatial_enc = window_encoder.spatial
    dim = spatial_enc.dim
    n_gram = window_encoder.temporal.ngram_size
    im = spatial_enc.item_memory.as_matrix64()
    cim = spatial_enc.continuous_memory.as_matrix64()
    spatial = majority_explicit_tie(cim[levels] ^ im, dim)
    n_grams = levels.shape[1] - n_gram + 1
    grams = spatial[:, :n_grams].copy()
    for k in range(1, n_gram):
        grams ^= engine.rotate(spatial[:, k : k + n_grams], dim, k)
    return majority_explicit_tie(grams, dim)


def make_encoder(rng, dim, n_channels=4, n_levels=8, ngram=1):
    im = ItemMemory.for_channels(n_channels, dim, rng)
    cim = ContinuousItemMemory(n_levels, dim, rng)
    return WindowEncoder(
        SpatialEncoder(im, cim, 0.0, 1.0), TemporalEncoder(ngram)
    )


class TestFourRowMajority:
    def test_truth_table(self):
        """Component ``d`` of row ``i`` is bit ``i`` of ``d``: the 16
        components enumerate every 4-bit vote pattern."""
        dim = 16
        bits = (np.arange(dim)[None, :] >> np.arange(4)[:, None]) & 1
        stack = engine.pack_bits(bits.astype(np.uint8))
        got = engine.majority_default_tie(stack, dim)
        want = engine.majority(stack, dim, tie=stack[0] ^ stack[1])
        np.testing.assert_array_equal(got, want)
        votes = bits.sum(axis=0) + (bits[0] ^ bits[1])
        np.testing.assert_array_equal(
            engine.unpack_bits(got, dim), (votes > 2).astype(np.uint8)
        )

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 10000])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 5)])
    def test_random_stacks_match_counter(self, dim, batch, rng):
        stack = engine.random_words(
            int(np.prod(batch, dtype=np.int64)) * 4, dim, rng
        ).reshape(batch + (4, engine.words_for_dim(dim)))
        got = engine.majority_default_tie(stack, dim)
        assert got.shape == batch + (engine.words_for_dim(dim),)
        np.testing.assert_array_equal(got, majority_explicit_tie(stack, dim))
        assert bitpack.pad_bits_are_zero(
            got.reshape(-1, got.shape[-1]), dim, engine.WORD_BITS
        )


def _window_counts(t_len):
    per_tile = max(1, TILE // t_len)
    return sorted({0, 1, per_tile - 1, per_tile, per_tile + 1,
                   3 * per_tile + 7})


CHAINS = [
    # (timestamps per window, N-gram size, channels)
    (1, 1, 4),
    (5, 1, 4),
    (7, 3, 4),
    (5, 1, 3),
    (TILE + 13, 2, 4),
]


class TestTileBoundaries:
    @pytest.mark.parametrize("t_len,ngram,n_channels", CHAINS)
    def test_encode_levels_batch_matches_untiled(
        self, t_len, ngram, n_channels, rng
    ):
        enc = make_encoder(rng, 1000, n_channels=n_channels, ngram=ngram)
        for n in _window_counts(t_len):
            levels = rng.integers(0, 8, size=(n, t_len, n_channels))
            got = enc.encode_levels_batch(levels).words
            assert got.shape == (n, engine.words_for_dim(1000))
            np.testing.assert_array_equal(got, untiled_queries(enc, levels))

    def test_long_spatial_batch_matches_untiled(self, rng):
        """Spatial rows beyond one tile assemble into one output."""
        spatial = make_encoder(rng, 1000).spatial
        levels = rng.integers(0, 8, size=(2 * TILE + 3, 4))
        im = spatial.item_memory.as_matrix64()
        cim = spatial.continuous_memory.as_matrix64()
        np.testing.assert_array_equal(
            spatial.encode_levels_batch(levels).words,
            majority_explicit_tie(cim[levels] ^ im, 1000),
        )
