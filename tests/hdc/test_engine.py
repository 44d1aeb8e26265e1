"""Tests for the unified packed engine: batched kernels and the
HypervectorArray value type, with pad-bit invariants for every 2-D path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import BinaryHypervector, HypervectorArray, bitpack, engine
from repro.hdc import reference

# Dimensions straddling the uint64 word size: single partial word, exact
# word multiples, and multi-word with a partial tail.
AWKWARD_DIMS = (1, 7, 63, 64, 65, 100, 127, 128, 129, 313)


def pads_zero(words, dim):
    return bitpack.pad_bits_are_zero(words, dim, engine.WORD_BITS)


class TestPackUnpack:
    @pytest.mark.parametrize("dim", AWKWARD_DIMS)
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_roundtrip_and_pad_invariant(self, dim, n, rng):
        bits = rng.integers(0, 2, size=(n, dim), dtype=np.uint8)
        arr = HypervectorArray.from_bits(bits)
        assert len(arr) == n
        assert arr.dim == dim
        assert arr.n_words == engine.words_for_dim(dim)
        assert pads_zero(arr.words, dim)
        np.testing.assert_array_equal(arr.to_bits(), bits)

    def test_words_for_dim_paper(self):
        assert engine.words_for_dim(10_000) == 157
        assert engine.words_for_dim(64) == 1
        assert engine.words_for_dim(65) == 2

    def test_matches_u32_layout(self, rng):
        """uint64 packing is the byte-identical widening of the uint32 one."""
        for dim in AWKWARD_DIMS:
            bits = rng.integers(0, 2, size=dim, dtype=np.uint8)
            w64 = engine.pack_bits(bits)
            np.testing.assert_array_equal(
                w64, bitpack.u32_to_u64(bitpack.pack_bits(bits), dim)
            )

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            engine.pack_bits(np.array([[0, 2, 1]]))

    def test_unpack_word_count_mismatch(self):
        with pytest.raises(ValueError):
            engine.unpack_bits(np.zeros((2, 3), dtype=np.uint64), 64)


class TestConstruction:
    def test_rejects_dirty_pad_bits(self):
        words = np.full((2, 1), 0xFFFF, dtype=np.uint64)
        with pytest.raises(ValueError):
            HypervectorArray(words, 10)

    def test_rejects_wrong_word_count(self):
        with pytest.raises(ValueError):
            HypervectorArray(np.zeros((2, 3), dtype=np.uint64), 64)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            HypervectorArray(np.zeros(2, dtype=np.uint64), 128)

    def test_words_read_only(self, rng):
        arr = HypervectorArray.random(3, 100, rng)
        with pytest.raises(ValueError):
            arr.words[0, 0] = 1

    def test_zeros_and_empty(self):
        z = HypervectorArray.zeros(4, 70)
        assert z.popcounts().tolist() == [0, 0, 0, 0]
        e = HypervectorArray.empty(70)
        assert len(e) == 0
        assert e.dim == 70
        assert e.to_bits().shape == (0, 70)

    def test_from_vectors_roundtrip(self, rng):
        vecs = [BinaryHypervector.random(90, rng) for _ in range(4)]
        arr = HypervectorArray.from_vectors(vecs)
        for i, v in enumerate(vecs):
            assert arr[i] == v

    def test_from_vectors_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            HypervectorArray.from_vectors(
                [BinaryHypervector.random(64, rng),
                 BinaryHypervector.random(65, rng)]
            )

    def test_from_vectors_empty(self):
        with pytest.raises(ValueError):
            HypervectorArray.from_vectors([])

    def test_slicing(self, rng):
        arr = HypervectorArray.random(6, 100, rng)
        head = arr[:2]
        assert isinstance(head, HypervectorArray)
        assert len(head) == 2
        assert head[0] == arr[0]


class TestSingleRowAndEmptyEdges:
    def test_single_row_bundle_is_identity(self, rng):
        arr = HypervectorArray.random(1, 77, rng)
        assert arr.bundle() == arr[0]

    def test_empty_bundle_rejected(self, rng):
        with pytest.raises(ValueError):
            HypervectorArray.empty(77).bundle()

    def test_empty_rotate_and_xor(self, rng):
        e = HypervectorArray.empty(100)
        assert len(e.rotate(3)) == 0
        assert len(e ^ e) == 0

    def test_empty_hamming(self, rng):
        e = HypervectorArray.empty(100)
        p = HypervectorArray.random(4, 100, rng)
        assert e.hamming(p).shape == (0, 4)

    def test_empty_random(self, rng):
        assert len(HypervectorArray.random(0, 64, rng)) == 0


class TestRotate:
    @pytest.mark.parametrize("dim", AWKWARD_DIMS)
    def test_matches_roll_and_keeps_pads(self, dim, rng):
        bits = rng.integers(0, 2, size=(3, dim), dtype=np.uint8)
        arr = HypervectorArray.from_bits(bits)
        for k in (0, 1, dim - 1, dim, dim + 3, 2 * dim + 5):
            rot = arr.rotate(k)
            assert pads_zero(rot.words, dim)
            np.testing.assert_array_equal(
                rot.to_bits(), np.roll(bits, k, axis=1)
            )

    def test_scalar_and_batched_agree(self, rng):
        arr = HypervectorArray.random(5, 129, rng)
        rot = arr.rotate(17)
        for i in range(5):
            assert rot[i] == arr[i].rotate(17)


class TestMajority:
    @pytest.mark.parametrize("dim", AWKWARD_DIMS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9])
    def test_matches_reference_bundle(self, dim, n, rng):
        bits = rng.integers(0, 2, size=(n, dim), dtype=np.uint8)
        arr = HypervectorArray.from_bits(bits)
        bundled = arr.bundle()
        assert pads_zero(bundled.words64, dim)
        np.testing.assert_array_equal(
            bundled.to_bits(), reference.bundle(list(bits))
        )

    def test_even_requires_tie(self, rng):
        stack = engine.random_words(4, 100, rng)
        with pytest.raises(ValueError):
            engine.majority(stack, 100)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            engine.majority(np.zeros((0, 2), dtype=np.uint64), 100)

    def test_batched_axis(self, rng):
        """Leading batch axes vote independently."""
        bits = rng.integers(0, 2, size=(4, 5, 100), dtype=np.uint8)
        stack = engine.pack_bits(bits)
        out = engine.majority(stack, 100)
        assert pads_zero(out, 100)
        for b in range(4):
            np.testing.assert_array_equal(
                engine.unpack_bits(out[b], 100),
                reference.bundle(list(bits[b])),
            )

    @given(
        n=st.integers(2, 9), dim=st.integers(1, 200),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_majority_property(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n, dim), dtype=np.uint8)
        arr = HypervectorArray.from_bits(bits)
        bundled = arr.bundle()
        assert pads_zero(bundled.words64, dim)
        np.testing.assert_array_equal(
            bundled.to_bits(), reference.bundle(list(bits))
        )


class TestMajorityClosedForms:
    @pytest.mark.parametrize("dim", AWKWARD_DIMS)
    def test_five_rows_on_batched_axes(self, dim, rng):
        """The 5-row closed form of majority_default_tie (the window
        bundle) equals the bit-sliced counter of majority() on leading
        batch axes."""
        bits = rng.integers(0, 2, size=(3, 4, 5, dim), dtype=np.uint8)
        stack = engine.pack_bits(bits)
        out = engine.majority_default_tie(stack, dim)
        assert pads_zero(out, dim)
        np.testing.assert_array_equal(out, engine.majority(stack, dim))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_strided_rows_bundle_as_contiguous_ones(self, n, rng):
        """A row-strided view (the spatial encoder's channel-major
        gather) bundles as its contiguous copy does."""
        stack = engine.random_words(n * 7, 200, rng).reshape(n, 7, -1)
        view = stack.transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(
            engine.majority_default_tie(view, 200),
            engine.majority_default_tie(np.ascontiguousarray(view), 200),
        )


class TestBitCounts:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_unpacked_sum(self, n, rng):
        bits = rng.integers(0, 2, size=(n, 130), dtype=np.uint8)
        stack = engine.pack_bits(bits)
        np.testing.assert_array_equal(
            engine.bit_counts(stack, 130),
            bits.sum(axis=0, dtype=np.int64),
        )


class TestHammingSearch:
    def test_matches_pairwise_reference(self, rng):
        q = rng.integers(0, 2, size=(6, 100), dtype=np.uint8)
        p = rng.integers(0, 2, size=(3, 100), dtype=np.uint8)
        dists = engine.hamming_matrix(
            engine.pack_bits(q), engine.pack_bits(p)
        )
        for i in range(6):
            for j in range(3):
                assert dists[i, j] == reference.hamming(q[i], p[j])

    def test_loops_both_orientations(self, rng):
        """More queries than prototypes and vice versa give the same result."""
        a = engine.random_words(7, 90, rng)
        b = engine.random_words(2, 90, rng)
        np.testing.assert_array_equal(
            engine.hamming_matrix(a, b), engine.hamming_matrix(b, a).T
        )

    def test_am_search_first_min_wins(self):
        proto = engine.pack_bits(
            np.array([[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]],
                     dtype=np.uint8)
        )
        query = engine.pack_bits(np.array([[0, 0, 0, 0]], dtype=np.uint8))
        indices, dists = engine.am_search(query, proto)
        assert indices[0] == 0  # row 2 ties at distance 0; first wins
        assert dists[0].tolist() == [0, 4, 0]

    @pytest.mark.parametrize(
        "n_q, n_p, broadcast",
        [
            (1, 5, True), (5, 5, True), (16, 16, True),
            (512, 5, False), (5, 512, False),
        ],
    )
    def test_both_sides_of_the_broadcast_cut(
        self, n_q, n_p, broadcast, rng
    ):
        """Small searches take one broadcast pass, large ones the loop:
        both equal the unpacked reference, and the first minimum wins."""
        assert (n_q * n_p <= engine._BROADCAST_MAX_PAIRS) == broadcast
        dim = 130
        q = rng.integers(0, 2, size=(n_q, dim), dtype=np.uint8)
        p = rng.integers(0, 2, size=(n_p, dim), dtype=np.uint8)
        p[-1] = p[1]  # a later duplicate of prototype 1 ...
        q[0] = p[1]  # ... that query 0 matches exactly
        indices, dists = engine.am_search(
            engine.pack_bits(q), engine.pack_bits(p)
        )
        want = [[reference.hamming(a, b) for b in p] for a in q]
        np.testing.assert_array_equal(dists, want)
        assert indices[0] == 1
        protos = {j: p[j] for j in range(n_p)}
        assert indices.tolist() == [
            reference.am_classify(a, protos) for a in q
        ]

    def test_empty_prototypes_rejected(self, rng):
        with pytest.raises(ValueError):
            engine.am_search(
                engine.random_words(2, 64, rng),
                np.zeros((0, 1), dtype=np.uint64),
            )

    def test_word_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            engine.hamming_matrix(
                engine.random_words(2, 64, rng),
                engine.random_words(2, 128, rng),
            )


class TestMajorityFromCounts:
    @pytest.mark.parametrize("total", [2, 3, 4, 5])
    def test_matches_majority(self, total, rng):
        dim = 101
        bits = rng.integers(0, 2, size=(total, dim), dtype=np.uint8)
        stack = engine.pack_bits(bits)
        counts = bits.sum(axis=0, dtype=np.int64)
        tie = stack[0] ^ stack[1]
        packed = engine.majority_from_counts(counts, total, dim, tie)
        np.testing.assert_array_equal(
            packed, engine.majority(stack, dim, tie)
        )

    def test_even_total_requires_tie(self):
        with pytest.raises(ValueError):
            engine.majority_from_counts(np.ones(10, np.int64), 2, 10)


class TestAlgebraInvariants:
    def test_xor_broadcast_vector(self, rng):
        arr = HypervectorArray.random(4, 100, rng)
        v = BinaryHypervector.random(100, rng)
        bound = arr ^ v
        assert pads_zero(bound.words, 100)
        for i in range(4):
            assert bound[i] == (arr[i] ^ v)

    def test_xor_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            HypervectorArray.random(2, 64, rng) ^ HypervectorArray.random(
                2, 65, rng
            )

    def test_xor_type_error(self, rng):
        with pytest.raises(TypeError):
            HypervectorArray.random(2, 64, rng) ^ "nope"

    def test_u32_interop(self, rng):
        arr = HypervectorArray.random(3, 313 * 32, rng)
        m32 = arr.as_u32_matrix()
        assert m32.dtype == np.uint32
        for i in range(3):
            np.testing.assert_array_equal(m32[i], arr[i].words)

    def test_equality_and_hash(self, rng):
        a = HypervectorArray.random(3, 100, rng)
        b = HypervectorArray(a.words, 100)
        assert a == b
        assert hash(a) == hash(b)
        assert (a == "x") is False or (a == "x") is NotImplemented
