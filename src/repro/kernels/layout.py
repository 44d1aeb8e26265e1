"""L1/L2 data layout of the HD processing chain.

Mirrors section 3 of the paper: the large, read-only model matrices (CIM,
IM, AM) and the per-window inputs live in the off-cluster L2; the hot
working set (the per-channel CIM row buffers being double-buffered, the
spatial/N-gram vectors, the query, and the AM row buffers) lives in the
L1 TCDM.  All addresses are baked into the generated kernels as
immediates, the way a static embedded build lays out its sections.

The layout is also the source of the paper's Fig. 5 memory-footprint
numbers: :meth:`ChainLayout.model_bytes` counts CIM + IM + AM (the L2
model) and :meth:`ChainLayout.l1_bytes` the working buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hdc import bitpack
from ..pulp.memory import L1_BASE, L2_BASE


@dataclass(frozen=True)
class ChainDims:
    """Shape of one HD processing-chain configuration.

    ``window`` is W, the number of classification timestamps bundled into
    a query (5 for the paper's 10 ms window at 500 Hz); ``ngram`` is N.
    The chain consumes ``W + N − 1`` input samples per window so that
    every window yields exactly W N-grams.
    """

    dim: int = 10_000
    n_channels: int = 4
    n_levels: int = 22
    n_classes: int = 5
    ngram: int = 1
    window: int = 5

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.n_channels <= 0:
            raise ValueError(
                f"n_channels must be positive, got {self.n_channels}"
            )
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        if self.n_classes < 1:
            raise ValueError(
                f"n_classes must be >= 1, got {self.n_classes}"
            )
        if self.ngram < 1:
            raise ValueError(f"ngram must be >= 1, got {self.ngram}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    @property
    def n_words(self) -> int:
        """Packed uint32 words per hypervector."""
        return bitpack.words_for_dim(self.dim)

    @property
    def row_bytes(self) -> int:
        """Bytes of one packed hypervector row."""
        return self.n_words * 4

    @property
    def n_samples(self) -> int:
        """Input timestamps consumed per classification window."""
        return self.window + self.ngram - 1

    @property
    def n_bundle_inputs(self) -> int:
        """Vectors entering the per-sample channel majority.

        The ``n_channels`` bound vectors plus, for an even channel count,
        the paper's XOR tiebreaker (section 5.1).
        """
        return self.n_channels + (1 if self.n_channels % 2 == 0 else 0)

    @property
    def n_window_inputs(self) -> int:
        """Vectors entering the window majority (W plus tiebreak)."""
        return self.window + (1 if self.window % 2 == 0 else 0)


@dataclass(frozen=True)
class ChainLayout:
    """Resolved addresses of every chain data structure.

    ``desc_l2`` is the window's CIM-row descriptor table the generated
    kernels read; the host writes it before each window.
    """

    dims: ChainDims
    # L2 (model + per-window input/output)
    im_l2: int
    cim_l2: int
    am_l2: int
    desc_l2: int
    result_l2: int
    # L1 (working set)
    im_l1: int
    cim_buf0: int
    cim_buf1: int
    spatial_ring: int
    gbuf0: int
    gbuf1: int
    ngram_ring: int
    query_l1: int
    am_buf0: int
    am_buf1: int
    partials_l1: int
    bound_buf: int
    l2_end: int
    l1_end: int

    # -- row accessors --------------------------------------------------------

    def im_l2_row(self, channel: int) -> int:
        """L2 address of the IM row for ``channel``."""
        return self.im_l2 + channel * self.dims.row_bytes

    def cim_l2_row(self, level: int) -> int:
        """L2 address of the CIM row for quantised ``level``."""
        return self.cim_l2 + level * self.dims.row_bytes

    def am_l2_row(self, class_index: int) -> int:
        """L2 address of the AM prototype row for ``class_index``."""
        return self.am_l2 + class_index * self.dims.row_bytes

    def desc_entry(self, sample: int, channel: int) -> int:
        """L2 address of the CIM-row descriptor for (sample, channel)."""
        return self.desc_l2 + (sample * self.dims.n_channels + channel) * 4

    def im_l1_row(self, channel: int) -> int:
        """L1 address of the staged IM row for ``channel``."""
        return self.im_l1 + channel * self.dims.row_bytes

    def cim_buf_row(self, buf: int, channel: int) -> int:
        """L1 address of CIM double-buffer ``buf`` (0/1), row ``channel``."""
        base = self.cim_buf0 if buf == 0 else self.cim_buf1
        return base + channel * self.dims.row_bytes

    def spatial_row(self, slot: int) -> int:
        """L1 address of spatial-ring slot ``slot`` (0 .. N−1)."""
        return self.spatial_ring + (slot % max(self.dims.ngram, 1)) * (
            self.dims.row_bytes
        )

    def ngram_row(self, index: int) -> int:
        """L1 address of the window's N-gram vector ``index`` (0 .. W−1)."""
        return self.ngram_ring + index * self.dims.row_bytes

    def result_label_addr(self) -> int:
        """L2 address where the AM kernel writes the predicted label."""
        return self.result_l2

    def result_distance_addr(self, class_index: int) -> int:
        """L2 address of the reported distance for ``class_index``."""
        return self.result_l2 + 4 + class_index * 4

    def partial_addr(self, class_index: int, core_id: int, n_cores: int) -> int:
        """L1 address of one core's partial Hamming sum for a class."""
        return self.partials_l1 + (class_index * n_cores + core_id) * 4

    # -- footprint accounting (Fig. 5) -----------------------------------------

    def model_bytes(self) -> int:
        """CIM + IM + AM model storage (the paper's L2 footprint)."""
        d = self.dims
        return (d.n_levels + d.n_channels + d.n_classes) * d.row_bytes

    def input_bytes(self) -> int:
        """Per-window input: the CIM-row descriptor table."""
        d = self.dims
        return d.n_samples * d.n_channels * 4

    def l1_bytes(self) -> int:
        """Working-set bytes resident in the L1 TCDM."""
        return self.l1_end - L1_BASE

    def total_bytes(self) -> int:
        """Full chain footprint: model + input + L1 working set."""
        return self.model_bytes() + self.input_bytes() + self.l1_bytes()


def make_layout(
    dims: ChainDims,
    n_cores: int = 8,
    uses_dma: bool = True,
    with_bound_buf: bool = True,
) -> ChainLayout:
    """Lay the chain out in the standard address map.

    ``n_cores`` sizes the per-core partial-sum array of the AM kernel
    (the layout supports any team up to that size).  Flat-memory
    machines (``uses_dma=False``) read the model matrices in place and
    need no CIM/AM staging buffers in L1; only the naive ``memory``
    spatial strategy stages bound vectors, so ``with_bound_buf`` can be
    dropped for the register and carry-save strategies.
    """
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    row = dims.row_bytes

    cursor = L2_BASE
    im_l2 = cursor
    cursor += dims.n_channels * row
    cim_l2 = cursor
    cursor += dims.n_levels * row
    am_l2 = cursor
    cursor += dims.n_classes * row
    desc_l2 = cursor
    cursor += dims.n_samples * dims.n_channels * 4
    result_l2 = cursor
    cursor += 4 + dims.n_classes * 4
    l2_end = cursor

    cursor = L1_BASE
    im_l1 = cursor
    cursor += dims.n_channels * row
    cim_buf0 = cursor
    if uses_dma:
        cursor += dims.n_channels * row
    cim_buf1 = cursor
    if uses_dma:
        cursor += dims.n_channels * row
    spatial_ring = cursor
    cursor += max(dims.ngram, 1) * row
    gbuf0 = cursor
    cursor += row
    gbuf1 = cursor
    cursor += row
    ngram_ring = cursor
    cursor += dims.window * row
    query_l1 = cursor
    cursor += row
    am_buf0 = cursor
    if uses_dma:
        cursor += row
    am_buf1 = cursor
    if uses_dma:
        cursor += row
    partials_l1 = cursor
    cursor += dims.n_classes * n_cores * 4
    bound_buf = cursor
    if with_bound_buf:
        cursor += dims.n_bundle_inputs * row
    l1_end = cursor

    return ChainLayout(
        dims=dims,
        im_l2=im_l2,
        cim_l2=cim_l2,
        am_l2=am_l2,
        desc_l2=desc_l2,
        result_l2=result_l2,
        im_l1=im_l1,
        cim_buf0=cim_buf0,
        cim_buf1=cim_buf1,
        spatial_ring=spatial_ring,
        gbuf0=gbuf0,
        gbuf1=gbuf1,
        ngram_ring=ngram_ring,
        query_l1=query_l1,
        am_buf0=am_buf0,
        am_buf1=am_buf1,
        partials_l1=partials_l1,
        bound_buf=bound_buf,
        l2_end=l2_end,
        l1_end=l1_end,
    )
