"""Tests for the MAP operations, cross-validated against the unpacked
reference model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdc import BinaryHypervector, bind, bundle, hamming
from repro.hdc import permute, similarity
from repro.hdc import reference
from repro.hdc.ops import tiebreaker


def from_bits(bits):
    return BinaryHypervector.from_bits(np.asarray(bits, dtype=np.uint8))


class TestBind:
    def test_self_inverse(self, rng):
        a = BinaryHypervector.random(300, rng)
        b = BinaryHypervector.random(300, rng)
        assert bind(bind(a, b), b) == a

    def test_commutative(self, rng):
        a = BinaryHypervector.random(300, rng)
        b = BinaryHypervector.random(300, rng)
        assert bind(a, b) == bind(b, a)

    def test_produces_dissimilar_vector(self, rng):
        """The paper: multiplication produces a dissimilar hypervector."""
        a = BinaryHypervector.random(10_000, rng)
        b = BinaryHypervector.random(10_000, rng)
        bound = bind(a, b)
        assert abs(bound.hamming(a) - 5000) < 4 * 50
        assert abs(bound.hamming(b) - 5000) < 4 * 50


class TestPermute:
    def test_dissimilar_after_rotation(self, rng):
        """The paper: permutation generates a pseudo-orthogonal vector."""
        v = BinaryHypervector.random(10_000, rng)
        assert abs(permute(v).hamming(v) - 5000) < 4 * 50

    def test_invertible(self, rng):
        v = BinaryHypervector.random(100, rng)
        assert permute(permute(v, 7), 93) == v


class TestBundle:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bundle([])

    def test_single_passthrough(self, rng):
        v = BinaryHypervector.random(50, rng)
        assert bundle([v]) == v

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            bundle(
                [BinaryHypervector.random(50, rng),
                 BinaryHypervector.random(51, rng)]
            )

    def test_odd_majority_explicit(self):
        a = from_bits([1, 1, 0, 0])
        b = from_bits([1, 0, 1, 0])
        c = from_bits([1, 0, 0, 1])
        assert bundle([a, b, c]) == from_bits([1, 0, 0, 0])

    def test_even_uses_first_two_tiebreaker(self):
        a = from_bits([1, 0, 1, 0])
        b = from_bits([0, 1, 1, 0])
        # tiebreaker = a ^ b = [1,1,0,0]; effective inputs [a,b,tie]
        assert bundle([a, b]) == from_bits([1, 1, 1, 0])

    def test_similar_to_inputs(self, rng):
        """The paper: addition produces a vector similar to its inputs."""
        inputs = [BinaryHypervector.random(10_000, rng) for _ in range(5)]
        bundled = bundle(inputs)
        for v in inputs:
            assert bundled.hamming(v) < 4000  # far below the 5000 baseline

    def test_tiebreaker_requires_two(self, rng):
        with pytest.raises(ValueError):
            tiebreaker([BinaryHypervector.random(8, rng)])


class TestSimilarity:
    def test_identical(self, rng):
        v = BinaryHypervector.random(64, rng)
        assert similarity(v, v) == 1.0

    def test_random_near_half(self, rng):
        a = BinaryHypervector.random(10_000, rng)
        b = BinaryHypervector.random(10_000, rng)
        assert 0.45 < similarity(a, b) < 0.55


# -- cross-validation against the unpacked golden model --------------------

@given(
    n_vectors=st.integers(2, 7),
    dim=st.integers(1, 150),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=50, deadline=None)
def test_bundle_matches_reference(n_vectors, dim, seed):
    rng = np.random.default_rng(seed)
    unpacked = [reference.random_hv(dim, rng) for _ in range(n_vectors)]
    packed = [BinaryHypervector.from_bits(v) for v in unpacked]
    expected = reference.bundle(unpacked)
    np.testing.assert_array_equal(bundle(packed).to_bits(), expected)


@given(dim=st.integers(1, 150), k=st.integers(0, 20), seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_permute_matches_reference(dim, k, seed):
    rng = np.random.default_rng(seed)
    bits = reference.random_hv(dim, rng)
    packed = BinaryHypervector.from_bits(bits)
    np.testing.assert_array_equal(
        permute(packed, k).to_bits(), reference.permute(bits, k)
    )


@given(dim=st.integers(1, 150), seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_hamming_matches_reference(dim, seed):
    rng = np.random.default_rng(seed)
    a = reference.random_hv(dim, rng)
    b = reference.random_hv(dim, rng)
    assert hamming(
        BinaryHypervector.from_bits(a), BinaryHypervector.from_bits(b)
    ) == reference.hamming(a, b)
