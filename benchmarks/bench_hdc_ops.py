"""Microbenchmarks of the core HD library primitives (numpy side).

The scalar cases track the object-per-vector API; the batched cases
track the packed uint64 engine the whole stack now runs on — in
particular the bulk-bind and AM-search cases at n = 1000, D = 10,000,
with the seed's dense int64-matmul distance kept as an explicit baseline
so the packed-vs-dense gap stays visible in every benchmark run.
"""

import numpy as np
import pytest

from repro.hdc import (
    BinaryHypervector,
    BatchHDClassifier,
    HDClassifierConfig,
    HypervectorArray,
    bind,
    bundle,
)
from repro.hdc import engine

DIM = 10_000
N_BULK = 1_000
N_CLASSES = 5


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(11)
    return [BinaryHypervector.random(DIM, rng) for _ in range(9)]


@pytest.fixture(scope="module")
def bulk_arrays():
    """Packed query/prototype batches for the engine-level cases."""
    rng = np.random.default_rng(13)
    queries = HypervectorArray.random(N_BULK, DIM, rng)
    prototypes = HypervectorArray.random(N_CLASSES, DIM, rng)
    return queries, prototypes


@pytest.fixture(scope="module")
def bulk_bits(bulk_arrays):
    """The same batches unpacked, for the dense-matmul baseline."""
    queries, prototypes = bulk_arrays
    return queries.to_bits(), prototypes.to_bits()


def test_bench_bind(benchmark, vectors):
    benchmark(bind, vectors[0], vectors[1])


def test_bench_bundle_five(benchmark, vectors):
    """The per-sample channel bundle of the EMG chain."""
    benchmark(bundle, vectors[:5])


def test_bench_rotate(benchmark, vectors):
    benchmark(vectors[0].rotate, 1)


def test_bench_hamming(benchmark, vectors):
    benchmark(vectors[0].hamming, vectors[1])


def test_bench_bulk_distances(benchmark, vectors):
    """One packed query against five prototypes (a single AM search)."""
    matrix = np.stack([v.words64 for v in vectors[:5]])
    benchmark(engine.hamming_matrix, vectors[5].words64[None, :], matrix)


# -- batched engine cases ---------------------------------------------------


def test_bench_bulk_bind(benchmark, bulk_arrays):
    """Bulk binding: 1000 query rows XOR one key row at 10,000-D."""
    queries, prototypes = bulk_arrays
    key = prototypes[0]
    result = benchmark(lambda: queries ^ key)
    assert len(result) == N_BULK


def test_bench_bulk_rotate(benchmark, bulk_arrays):
    """Bulk ρ¹ over 1000 packed rows (the temporal kernel's inner op)."""
    queries, _ = bulk_arrays
    result = benchmark(queries.rotate, 1)
    assert len(result) == N_BULK


def test_bench_am_search_packed(benchmark, bulk_arrays):
    """Packed AM search, 1000 queries × 5 prototypes at 10,000-D.

    This is the engine kernel behind ``BatchHDClassifier.distances``;
    compare against the dense-matmul baseline case below.
    """
    queries, prototypes = bulk_arrays
    indices, dists = benchmark(
        engine.am_search, queries.words, prototypes.words
    )
    assert dists.shape == (N_BULK, N_CLASSES)


def test_bench_am_search_dense_matmul_baseline(benchmark, bulk_bits):
    """The seed's dense int64-matmul distance on the same inputs.

    Kept as a baseline: the packed AM-search case above must beat this
    (it runs on 64× fewer bytes per component).
    """
    q_bits, p_bits = bulk_bits

    def dense():
        q = q_bits.astype(np.int32)
        p = p_bits.astype(np.int32)
        q_ones = q.sum(axis=1, dtype=np.int64)
        p_ones = p.sum(axis=1, dtype=np.int64)
        cross = q.astype(np.int64) @ p.T.astype(np.int64)
        return q_ones[:, None] + p_ones[None, :] - 2 * cross

    dists = benchmark(dense)
    assert dists.shape == (N_BULK, N_CLASSES)


def test_packed_matches_dense(bulk_arrays, bulk_bits):
    """The two distance paths agree exactly (not a timing case)."""
    queries, prototypes = bulk_arrays
    q_bits, p_bits = bulk_bits
    packed = engine.hamming_matrix(queries.words, prototypes.words)
    dense = (
        q_bits.sum(axis=1, dtype=np.int64)[:, None]
        + p_bits.sum(axis=1, dtype=np.int64)[None, :]
        - 2 * (q_bits.astype(np.int64) @ p_bits.T.astype(np.int64))
    )
    np.testing.assert_array_equal(packed, dense)


def test_bench_batch_window_encode(benchmark):
    """Vectorised encoding throughput (windows/second at 10,000-D)."""
    rng = np.random.default_rng(12)
    clf = BatchHDClassifier(HDClassifierConfig(dim=DIM))
    windows = rng.uniform(0, 21, size=(64, 5, 4))
    benchmark(clf.encoder.encode_batch, windows)
