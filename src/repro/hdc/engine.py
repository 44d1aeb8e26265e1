"""The unified packed hypervector engine.

Every layer of the HDC stack — the :class:`BinaryHypervector` value type,
the MAP operations, the encoders, the associative-memory search, and the
classifier — runs on the batched kernels in this module.  The
representation is a ``(n, n_words)`` matrix of **uint64** words, 64
hypervector components per word, LSB-first (the 64-bit widening of the
paper's 32-components-per-word layout; see :mod:`repro.hdc.bitpack` for
the layout authority and the lossless uint32 interop used by the ISS
kernels).

Kernels
-------

* :func:`rotate` — the permutation ρ^k as vectorized word shifts with
  cross-word carries (no arbitrary-precision integers anywhere).
* :func:`majority` — bundling via per-bit-plane counts: 64 shift/mask
  passes over the packed stack, majority decided and repacked one bit
  plane at a time, so no ``(n, dim)`` uint8 matrix is ever materialized.
* :func:`bit_counts` — the same plane walk exposed as per-component
  one-counts for streaming accumulators.
* :func:`hamming_matrix` / :func:`am_search` — the associative-memory
  distance kernel: XOR + popcount over packed words, replacing the dense
  int64 matmul the batch classifier used to carry.

All kernels accept arbitrary leading batch axes; the last axis is always
packed words and its pad bits are always zero on the way in and out.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import bitpack

WORD_BITS = bitpack.WORD_BITS64
"""Components per packed engine word."""

_ONE = np.uint64(1)

_BROADCAST_MAX_PAIRS = 512
"""Largest query x prototype count :func:`hamming_matrix` computes in
one broadcast pass.

Below it the loop's per-row numpy calls dominate; above it the
``(n_q, n_p, n_words)`` temporary does.  At D=10,000 on the 2-core VM
(interleaved medians), a 5x5 search took 21 µs broadcast against 56 µs
looped, 128x5 275 against 284, and 512x5 1,268 against 1,051.  A
max_wait=0 dispatch of one 5-window chunk (``emg_tcp``) searches at
most 5x5; a full max_batch=512 dispatch (``unique_batch``) 512x5.
"""


def words_for_dim(dim: int) -> int:
    """Packed uint64 words per ``dim``-component hypervector.

    >>> words_for_dim(10000)
    157
    """
    return bitpack.words_for_dim(dim, WORD_BITS)


def pad_mask(dim: int) -> np.uint64:
    """Mask of the valid bits in the final engine word."""
    return bitpack.pad_mask(dim, WORD_BITS)


def _check_words(words: np.ndarray, dim: int) -> np.ndarray:
    # Kernels read rows through views, so any strides will do: a
    # channel-major gather reaches the majority without a copy.
    words = np.asarray(words, dtype=np.uint64)
    if words.shape[-1] != words_for_dim(dim):
        raise ValueError(
            f"word count {words.shape[-1]} does not match dimension {dim} "
            f"(expected {words_for_dim(dim)})"
        )
    return words


# -- pack / unpack ----------------------------------------------------------


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack ``(..., dim)`` arrays of {0,1} components into uint64 words.

    The inverse is :func:`unpack_bits`.  Pad bits of the last word are
    zero by construction.
    """
    bits = np.asarray(bits)
    if bits.shape[-1] == 0:
        raise ValueError("cannot pack an empty bit axis")
    as_u8 = bits.astype(np.uint8)
    if np.any(as_u8 > 1):
        raise ValueError("bit array contains values other than 0 and 1")
    dim = bits.shape[-1]
    n_words = words_for_dim(dim)
    padded = np.zeros(bits.shape[:-1] + (n_words * WORD_BITS,), dtype=np.uint8)
    padded[..., :dim] = as_u8
    packed_bytes = np.packbits(padded, axis=-1, bitorder="little")
    return (
        np.ascontiguousarray(packed_bytes).view("<u8").astype(np.uint64)
    )


def unpack_bits(words: np.ndarray, dim: int) -> np.ndarray:
    """Unpack ``(..., n_words)`` uint64 rows to ``(..., dim)`` uint8."""
    words = _check_words(words, dim)
    as_bytes = np.ascontiguousarray(words.astype("<u8")).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :dim].astype(np.uint8)


def random_words(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` packed rows of i.i.d. Bernoulli(1/2) components."""
    if n < 0:
        raise ValueError(f"row count must be non-negative, got {n}")
    if n == 0:
        return np.zeros((0, words_for_dim(dim)), dtype=np.uint64)
    return pack_bits(rng.integers(0, 2, size=(n, dim), dtype=np.uint8))


# -- kernels ----------------------------------------------------------------


def rotate(words: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Permutation ρ^k on packed rows: component ``d`` → ``(d + k) % dim``.

    Vectorized word-shift/carry over any ``(..., n_words)`` stack.
    """
    return bitpack.rotate_words(words, dim, k, WORD_BITS)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-row popcounts of ``(..., n_words)`` packed rows (int64)."""
    return bitpack.popcount_rows(words)


def bit_counts(
    stack: np.ndarray, dim: int, dtype=np.int64
) -> np.ndarray:
    """Per-component one-counts across the row axis of a packed stack.

    ``stack`` is ``(..., n, n_words)``; the result is ``(..., dim)`` —
    entry ``d`` counts how many of the ``n`` rows have component ``d``
    set.  A single row degenerates to a plain unpack; larger stacks walk
    the bit planes so no ``(n, dim)`` uint8 matrix is materialized.
    """
    stack = _check_words(stack, dim)
    if stack.ndim < 2:
        raise ValueError("stack must have a row axis: shape (..., n, n_words)")
    if stack.shape[-2] == 1:
        return unpack_bits(stack[..., 0, :], dim).astype(dtype)
    n_words = stack.shape[-1]
    out = np.zeros(stack.shape[:-2] + (n_words, WORD_BITS), dtype=dtype)
    for b in range(WORD_BITS):
        plane = (stack >> np.uint64(b)) & _ONE
        out[..., b] = plane.sum(axis=-2, dtype=dtype)
    return out.reshape(stack.shape[:-2] + (n_words * WORD_BITS,))[..., :dim]


def _bitsliced_counter(rows) -> list:
    """Carry-save addition of one-bit rows into bit-sliced count planes.

    ``rows`` is an iterable of packed ``(..., n_words)`` arrays; the
    result is a list of planes, LSB first: bit ``b`` of the count of
    component ``d`` across all rows lives at component ``d`` of plane
    ``b``.  Each row costs one ripple of XOR/AND word ops through
    ``log2(rows_so_far)`` planes — the SWAR counter network the paper's
    software popcount uses, lifted to whole hypervector rows.
    """
    planes: list = []
    added = 0
    for row in rows:
        added += 1
        carry = row
        for j in range(len(planes)):
            s = planes[j]
            planes[j] = s ^ carry
            carry = s & carry
        if (1 << len(planes)) <= added:
            # The count can now reach 2**len(planes): the ripple carry is
            # the new most-significant plane.  Otherwise it is provably
            # all-zero and is dropped.
            planes.append(carry)
    return planes


def _planes_greater_than(planes: list, threshold: int) -> np.ndarray:
    """Packed ``count > threshold`` from bit-sliced count planes.

    Bitwise magnitude comparison against a constant, MSB plane first:
    keep an "all higher bits equal" mask and accumulate "greater" where a
    count bit is 1 above a 0 threshold bit.
    """
    if threshold >> len(planes):
        return np.zeros_like(planes[0])
    gt = None
    eq = None  # None = all-ones (every higher bit equal so far)
    for b in range(len(planes) - 1, -1, -1):
        s = planes[b]
        if (threshold >> b) & 1:
            eq = s if eq is None else eq & s
        else:
            contrib = s if eq is None else eq & s
            gt = contrib if gt is None else gt | contrib
            eq = ~s if eq is None else eq & ~s
    if gt is None:
        return np.zeros_like(planes[0])
    return gt


def majority(
    stack: np.ndarray, dim: int, tie: np.ndarray | None = None
) -> np.ndarray:
    """Componentwise majority across the row axis, packed in and out.

    ``stack`` is ``(..., n, n_words)``; the result is ``(..., n_words)``.
    For an even row count a ``tie`` row of the same batch shape must be
    supplied; its set components win exactly-split votes (the paper's
    reproducible tiebreaker, section 5.1): the tie row joins the count
    and the threshold stays ``n // 2``, which equals the strict majority
    of the ``n + 1`` effective inputs.

    The vote never leaves the packed domain: rows are carry-save-added
    into bit-sliced count planes and the threshold is a bitwise compare
    over those planes, so the unpacked dimension never materializes and
    the cost is O(n log n) word operations instead of O(n · dim).
    """
    stack = _check_words(stack, dim)
    if stack.ndim < 2:
        raise ValueError("stack must have a row axis: shape (..., n, n_words)")
    n = stack.shape[-2]
    if n == 0:
        raise ValueError("cannot take a majority of zero rows")
    if n == 1:
        return stack[..., 0, :].copy()
    rows = [stack[..., i, :] for i in range(n)]
    if n % 2 == 0:
        if tie is None:
            raise ValueError(
                f"majority over an even row count ({n}) needs a tie row"
            )
        rows.append(np.broadcast_to(_check_words(tie, dim), rows[0].shape))
    out = _planes_greater_than(_bitsliced_counter(rows), n // 2)
    out = np.ascontiguousarray(out)
    out[..., -1] &= pad_mask(dim)
    return out


def majority_default_tie(stack: np.ndarray, dim: int) -> np.ndarray:
    """:func:`majority` with the paper's default tiebreaker.

    For an even row count the tie row is the XOR of the first two rows
    (section 5.1: "one random but reproducible hypervector is generated,
    by componentwise XOR between two bound hypervectors").  This is the
    single authority for that rule; every bundling call site — MAP ops,
    channel majority, window majority, class prototypes — routes through
    here so the bit-exactness invariant cannot drift per site.

    Two row counts take a closed form instead of the bit-sliced
    counter of :func:`majority`, which every other count runs:

    * Four rows (the paper's 4-channel EMG bundle): with the
      ``r0 ^ r1`` tie row, "more than 2 of 5" holds exactly when
      ``(r0 | r1) & (r2 | r3)``.
    * Five rows (the paper's 5-sample window bundle, N=1): with
      ``s = a ^ b ^ c`` and ``m = maj(a, b, c)``, "at least 3 of 5" is
      ``(m & (s | d | e)) | (s & d & e)``: two of ``a, b, c`` need one
      of ``d, e``, exactly one needs both.  At D=10,000 on the 2-core
      VM it took 0.41-0.58x the counter's time from 1 to 512 windows.
    """
    stack = _check_words(stack, dim)
    if stack.ndim < 2:
        raise ValueError("stack must have a row axis: shape (..., n, n_words)")
    n = stack.shape[-2]
    # The closed forms use no NOT, so zero pad bits stay zero.
    if n == 4:
        out = stack[..., 0, :] | stack[..., 1, :]
        out &= stack[..., 2, :] | stack[..., 3, :]
        return out
    if n == 5:
        a, b, c, d, e = (stack[..., i, :] for i in range(5))
        s = a ^ b
        out = a & b
        out |= c & s  # maj(a, b, c)
        s ^= c  # a ^ b ^ c
        either = d | e
        either |= s
        out &= either
        s &= d
        s &= e
        out |= s
        return out
    tie = None
    if n >= 2 and n % 2 == 0:
        tie = stack[..., 0, :] ^ stack[..., 1, :]
    return majority(stack, dim, tie)


def majority_from_counts(
    counts: np.ndarray, total: int, dim: int, tie: np.ndarray | None = None
) -> np.ndarray:
    """Threshold pre-accumulated per-component counts into a packed row.

    The streaming form of :func:`majority` used by prototype
    accumulators: ``counts`` is ``(..., dim)`` one-counts over ``total``
    added rows; ``tie`` a packed ``(..., n_words)`` tiebreaker row used
    when ``total`` is even.
    """
    counts = np.asarray(counts)
    if counts.shape[-1] != dim:
        raise ValueError(
            f"counts axis {counts.shape[-1]} does not match dimension {dim}"
        )
    if total <= 0:
        raise ValueError("total must be positive")
    if total % 2 == 1:
        bits = counts > total // 2
    else:
        if tie is None:
            raise ValueError(
                f"majority over an even total ({total}) needs a tie row"
            )
        tie_bits = unpack_bits(_check_words(tie, dim), dim)
        bits = 2 * counts.astype(np.int64) + tie_bits > total
    return pack_bits(bits.astype(np.uint8))


def hamming_matrix(
    queries: np.ndarray, prototypes: np.ndarray
) -> np.ndarray:
    """All-pairs Hamming distances between two packed row sets.

    ``queries`` is ``(n_q, n_words)`` and ``prototypes`` ``(n_p,
    n_words)``; the result is ``(n_q, n_p)`` int64.  Pure XOR + popcount
    on packed words — the engine's replacement for the dense ±1 matmul.
    Up to ``_BROADCAST_MAX_PAIRS`` pairs take one broadcast XOR and one
    popcount pass; larger searches loop over the smaller side, so the
    XOR temporary stays one row set wide.
    """
    queries = np.ascontiguousarray(queries, dtype=np.uint64)
    prototypes = np.ascontiguousarray(prototypes, dtype=np.uint64)
    if queries.ndim != 2 or prototypes.ndim != 2:
        raise ValueError("queries and prototypes must be 2-D packed matrices")
    if queries.shape[1] != prototypes.shape[1]:
        raise ValueError(
            f"word count mismatch: queries {queries.shape[1]} vs "
            f"prototypes {prototypes.shape[1]}"
        )
    n_q, n_p = queries.shape[0], prototypes.shape[0]
    if n_q * n_p <= _BROADCAST_MAX_PAIRS:
        return bitpack.popcount_rows(queries[:, None, :] ^ prototypes)
    out = np.empty((n_q, n_p), dtype=np.int64)
    if n_p <= n_q:
        for j in range(n_p):
            out[:, j] = bitpack.popcount_rows(queries ^ prototypes[j])
    else:
        for i in range(n_q):
            out[i, :] = bitpack.popcount_rows(prototypes ^ queries[i])
    return out


def am_search(
    queries: np.ndarray, prototypes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Associative-memory search: nearest prototype per query row.

    Returns ``(indices, distances)`` where ``indices[i]`` is the row of
    the closest prototype (first minimum wins ties, matching the linear
    scan of the ISS AM kernel) and ``distances`` the full ``(n_q, n_p)``
    Hamming matrix.
    """
    dists = hamming_matrix(queries, prototypes)
    if dists.shape[1] == 0:
        raise ValueError("cannot search an empty prototype set")
    return dists.argmin(axis=1), dists


# -- the batched value type -------------------------------------------------


class HypervectorArray:
    """A batch of ``n`` packed binary hypervectors of one dimension.

    The batched twin of :class:`~repro.hdc.hypervector.BinaryHypervector`
    (which is itself a one-row view of this representation): rows are
    stored as an ``(n, n_words)`` uint64 matrix satisfying the pad-bit
    invariant.  ``n`` may be zero.  Instances are immutable; operations
    return new arrays.
    """

    __slots__ = ("_words", "_dim")

    def __init__(self, words: np.ndarray, dim: int, *, _trusted: bool = False):
        if _trusted:
            self._words = words
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.ndim != 2:
                raise ValueError(
                    f"packed rows must be 2-D, got shape {words.shape}"
                )
            if words.shape[1] != words_for_dim(dim):
                raise ValueError(
                    f"{words.shape[1]} words cannot hold a {dim}-D "
                    f"hypervector (need {words_for_dim(dim)})"
                )
            if not bitpack.pad_bits_are_zero(words, dim, WORD_BITS):
                raise ValueError(
                    "pad bits above the dimension must be zero"
                )
            self._words = words.copy()
        self._words.flags.writeable = False
        self._dim = int(dim)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, words: np.ndarray, dim: int) -> "HypervectorArray":
        """Adopt a freshly built kernel output without copy or re-check."""
        return cls(np.ascontiguousarray(words, dtype=np.uint64), dim,
                   _trusted=True)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "HypervectorArray":
        """Build from an ``(n, dim)`` {0,1} component matrix."""
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"expected (n, dim) bits, got shape {bits.shape}")
        if bits.shape[1] == 0:
            raise ValueError("dimension must be positive")
        if bits.shape[0] == 0:
            return cls.empty(bits.shape[1])
        return cls._wrap(pack_bits(bits), bits.shape[1])

    @classmethod
    def random(
        cls, n: int, dim: int, rng: np.random.Generator
    ) -> "HypervectorArray":
        """``n`` i.i.d. Bernoulli(1/2) rows."""
        return cls._wrap(random_words(n, dim, rng), dim)

    @classmethod
    def zeros(cls, n: int, dim: int) -> "HypervectorArray":
        """``n`` all-zero rows."""
        return cls._wrap(np.zeros((n, words_for_dim(dim)), np.uint64), dim)

    @classmethod
    def empty(cls, dim: int) -> "HypervectorArray":
        """A zero-row batch (useful as a fold seed)."""
        return cls.zeros(0, dim)

    @classmethod
    def from_vectors(cls, vectors: Sequence) -> "HypervectorArray":
        """Stack :class:`BinaryHypervector`-likes (anything with
        ``.words64`` and ``.dim``) into one batch."""
        vectors = list(vectors)
        if not vectors:
            raise ValueError(
                "cannot infer the dimension of an empty vector list; "
                "use HypervectorArray.empty(dim)"
            )
        dim = vectors[0].dim
        for v in vectors[1:]:
            if v.dim != dim:
                raise ValueError(
                    f"all stacked vectors must share a dimension, "
                    f"got {v.dim} vs {dim}"
                )
        return cls._wrap(np.stack([v.words64 for v in vectors]), dim)

    # -- views -------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of logical components per row."""
        return self._dim

    @property
    def n_words(self) -> int:
        """Packed uint64 words per row."""
        return self._words.shape[1]

    @property
    def words(self) -> np.ndarray:
        """The ``(n, n_words)`` uint64 matrix (read-only view)."""
        return self._words

    def to_bits(self) -> np.ndarray:
        """Unpack to an ``(n, dim)`` uint8 component matrix."""
        if len(self) == 0:
            return np.zeros((0, self._dim), dtype=np.uint8)
        return unpack_bits(self._words, self._dim)

    def as_u32_matrix(self) -> np.ndarray:
        """The same rows in the paper's uint32 layout (ISS kernel ABI)."""
        return bitpack.u64_to_u32(self._words, self._dim)

    def __len__(self) -> int:
        return self._words.shape[0]

    def __getitem__(self, index):
        """Row access: an ``int`` yields a :class:`BinaryHypervector`,
        a slice/index-array a new :class:`HypervectorArray`."""
        if isinstance(index, (int, np.integer)):
            from .hypervector import BinaryHypervector

            return BinaryHypervector.from_words64(
                self._words[int(index)], self._dim
            )
        return HypervectorArray._wrap(
            np.ascontiguousarray(self._words[index]), self._dim
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    # -- algebra -----------------------------------------------------------

    def _coerce_words(self, other) -> np.ndarray:
        if isinstance(other, HypervectorArray):
            words, dim = other._words, other._dim
        elif hasattr(other, "words64"):
            words, dim = other.words64[None, :], other.dim
        else:
            raise TypeError(
                f"expected HypervectorArray or BinaryHypervector, "
                f"got {type(other)!r}"
            )
        if dim != self._dim:
            raise ValueError(
                f"dimension mismatch: {self._dim} vs {dim}"
            )
        return words

    def __xor__(self, other) -> "HypervectorArray":
        """Rowwise binding; a single vector or 1-row array broadcasts."""
        words = self._coerce_words(other)
        return HypervectorArray._wrap(self._words ^ words, self._dim)

    def rotate(self, k: int = 1) -> "HypervectorArray":
        """Apply ρ^k to every row."""
        if len(self) == 0:
            return self
        return HypervectorArray._wrap(
            rotate(self._words, self._dim, k), self._dim
        )

    def bundle(self, tie: "HypervectorArray | None" = None):
        """Majority-bundle all rows into one :class:`BinaryHypervector`.

        For an even row count the tiebreaker defaults to the XOR of the
        first two rows (the paper's rule); pass a 1-row ``tie`` array to
        override.
        """
        from .hypervector import BinaryHypervector

        n = len(self)
        if n == 0:
            raise ValueError("cannot bundle zero hypervectors")
        if n % 2 == 0 and tie is not None:
            packed = majority(
                self._words, self._dim, self._coerce_words(tie).reshape(-1)
            )
        else:
            packed = majority_default_tie(self._words, self._dim)
        return BinaryHypervector.from_words64(packed, self._dim)

    def popcounts(self) -> np.ndarray:
        """Per-row number of set components (int64, length ``n``)."""
        return popcount(self._words)

    def hamming(self, other) -> np.ndarray:
        """All-pairs Hamming distances ``(n, m)`` against another batch."""
        words = self._coerce_words(other)
        return hamming_matrix(self._words, words)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HypervectorArray):
            return NotImplemented
        return self._dim == other._dim and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self._dim, self._words.tobytes()))

    def __repr__(self) -> str:
        return (
            f"HypervectorArray(n={len(self)}, dim={self._dim}, "
            f"words={self.n_words})"
        )
