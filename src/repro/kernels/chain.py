"""The full HD processing chain on the simulated platform.

``build_encode_program`` generates the MAP + spatial + temporal encoder
kernel (the paper's ``MAP+ENCODERS`` row of Table 3): per input sample it
double-buffers the needed CIM rows from L2 via DMA, binds channels to
levels, majority-bundles the bound vectors into the spatial hypervector,
forms N-grams by iterated rotate-XOR, and finally majority-bundles the
window's N-grams into the query hypervector in L1.

``build_am_program`` (see :mod:`repro.kernels.am_search`) then scores the
query against the streamed AM matrix.  :class:`HDChainSimulator` wires
both onto a simulated cluster, feeds it real model matrices and window
data, and reads the predicted label back from simulated memory — the
functional-equivalence counterpart of the paper's "matches the golden
MATLAB model" claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import List, Optional

import numpy as np

from ..hdc.batch import BatchHDClassifier
from ..hdc.classifier import HDClassifierConfig
from ..hdc.item_memory import quantize_samples
from ..pulp.assembler import Assembler, Program
from ..pulp.cluster import Cluster, ClusterRunResult
from ..pulp.soc import SoCConfig
from . import codegen
from .am_search import build_am_program
from .layout import ChainDims, ChainLayout, make_layout
from .spatial import SpatialSource, choose_strategy, emit_spatial_sample
from .temporal import emit_ngram
from ..pulp.analyze import StaticContract

MAX_REGISTER_BUNDLE_ROWS = 7
"""Largest row count handled by the register window bundle."""

BATCH_CHUNK_WINDOWS = 32
"""Windows the batched driver runs as one lockstep chunk."""


_CHAIN_TELEMETRY = {
    # chunks the driver attempted to run window-laned
    "attempts": 0,
    # chunks / windows that completed fully laned (encode AND AM)
    "laned_chunks": 0,
    "laned_windows": 0,
    # windows of bailed chunks, run by per-window run_window_levels
    "fallback_windows": 0,
    # lockstep bail reason -> chunks that fell back for it
    "fallbacks": Counter(),
    # wall-clock seconds per phase of the laned path, accumulated
    # across batches: staging (descriptor tables, lane images), the two
    # kernels, and result readback
    "phase_s": {"staging": 0.0, "encode": 0.0, "am": 0.0, "readback": 0.0},
}


def chain_batch_telemetry() -> dict:
    """Snapshot of the batched driver's laned/fallback counters.

    ``fallbacks`` maps each :class:`~repro.pulp.lockstep.LockstepBail`
    reason to the number of chunks it pushed onto per-window runs —
    the driver-level view of *why* batched throughput was lost, without
    callers having to handle ineligibility themselves.  ``phase_s``
    splits the laned path's wall-clock across staging / encode / AM /
    readback so perf work can see where window time goes; windows run
    one at a time are not timed.
    """
    return {
        "attempts": _CHAIN_TELEMETRY["attempts"],
        "laned_chunks": _CHAIN_TELEMETRY["laned_chunks"],
        "laned_windows": _CHAIN_TELEMETRY["laned_windows"],
        "fallback_windows": _CHAIN_TELEMETRY["fallback_windows"],
        "fallbacks": dict(_CHAIN_TELEMETRY["fallbacks"]),
        "phase_s": dict(_CHAIN_TELEMETRY["phase_s"]),
    }


def reset_chain_batch_telemetry() -> None:
    """Zero the batched-driver counters (start of a measured run)."""
    _CHAIN_TELEMETRY["attempts"] = 0
    _CHAIN_TELEMETRY["laned_chunks"] = 0
    _CHAIN_TELEMETRY["laned_windows"] = 0
    _CHAIN_TELEMETRY["fallback_windows"] = 0
    _CHAIN_TELEMETRY["fallbacks"].clear()
    for phase in _CHAIN_TELEMETRY["phase_s"]:
        _CHAIN_TELEMETRY["phase_s"][phase] = 0.0


def emit_bundle_rows(
    asm: Assembler,
    layout: ChainLayout,
    base_addr: int,
    n_rows: int,
    dst_addr: int,
    n_cores: int,
    style: str,
) -> None:
    """Majority-bundle ``n_rows`` contiguous L1 rows into ``dst_addr``.

    Used for the window bundle (query formation).  Small row counts keep
    every row word in a register; larger counts fall back to a bit-serial
    sweep over the rows in memory.  Even row counts get the XOR
    tiebreaker of the first two rows, as everywhere else.
    """
    dims = layout.dims
    profile = asm.profile
    row = dims.row_bytes
    k = n_rows + (1 if n_rows % 2 == 0 else 0)

    if n_rows == 1:
        from .temporal import emit_copy_words

        emit_copy_words(asm, layout, base_addr, dst_addr, n_cores)
        return

    w = asm.reg("w")
    w_end = asm.reg("w_end")
    t = asm.reg("t")
    cnt = asm.reg("cnt")
    res = asm.reg("res")
    bit = asm.reg("bit")
    thresh = asm.reg("thresh")
    c32 = asm.reg("c32")
    p_base = asm.reg("p_base")
    p_dst = asm.reg("p_dst")

    codegen.emit_chunk_bounds(asm, dims.n_words, n_cores, w, w_end, t)
    asm.slli(t, w, 2)
    asm.li(p_base, base_addr)
    asm.add(p_base, p_base, t)
    asm.li(p_dst, dst_addr)
    asm.add(p_dst, p_dst, t)
    asm.li(thresh, k // 2)
    asm.li(c32, 32)

    if k <= MAX_REGISTER_BUNDLE_ROWS:
        regs = [asm.reg(f"b{j}") for j in range(k)]
        use_hw = profile.has_hw_loops and style == "bit-serial"

        def body() -> None:
            for j in range(n_rows):
                asm.lw(regs[j], p_base, j * row)
            if k > n_rows:
                asm.xor(regs[n_rows], regs[0], regs[1])
            codegen.emit_majority_word(
                asm, style, regs, res, cnt, t, bit, thresh, c32, use_hw
            )
            if profile.has_postincrement:
                asm.sw_postinc(res, p_dst, 4)
            else:
                asm.sw(res, p_dst, 0)

        def step() -> None:
            asm.addi(p_base, p_base, 4)
            if not profile.has_postincrement:
                asm.addi(p_dst, p_dst, 4)

        codegen.emit_word_loop(asm, profile, w, w_end, t, body, step, "wbun")
    else:
        if n_rows % 2 == 0:
            raise ValueError(
                "the memory window bundle supports odd row counts only; "
                "stage a tiebreak row explicitly for even counts"
            )
        p_row = asm.reg("p_row")
        ch = asm.reg("ch")
        k_reg = asm.reg("k_reg")
        asm.li(k_reg, n_rows)

        def body() -> None:
            asm.mv(res, 0)
            asm.mv(bit, 0)
            bitloop = codegen.asm_unique(asm, "wbunbit")
            asm.label(bitloop)
            asm.mv(cnt, 0)
            asm.mv(p_row, p_base)
            asm.mv(ch, 0)
            rowloop = codegen.asm_unique(asm, "wbunrow")
            asm.label(rowloop)
            asm.lw(t, p_row, 0)
            asm.srl(t, t, bit)
            asm.andi(t, t, 1)
            asm.add(cnt, cnt, t)
            asm.addi(p_row, p_row, row)
            asm.addi(ch, ch, 1)
            asm.bltu(ch, k_reg, rowloop)
            asm.sltu(t, thresh, cnt)
            asm.sll(t, t, bit)
            asm.or_(res, res, t)
            asm.addi(bit, bit, 1)
            asm.bltu(bit, c32, bitloop)
            asm.sw(res, p_dst, 0)

        def step() -> None:
            asm.addi(p_base, p_base, 4)
            asm.addi(p_dst, p_dst, 4)

        codegen.emit_word_loop(asm, profile, w, w_end, t, body, step, "wbun")
        asm.free_reg("p_row")
        asm.free_reg("ch")
        asm.free_reg("k_reg")


def build_encode_program(
    profile,
    layout: ChainLayout,
    n_cores: int,
    use_builtins: bool = False,
    uses_dma: bool = True,
    strategy: str = "auto",
    literal_fig2: bool = False,
) -> Program:
    """The MAP + spatial + temporal encoder program (one window)."""
    dims = layout.dims
    row = dims.row_bytes
    n_ch = dims.n_channels
    n = dims.ngram
    n_samples = dims.n_samples
    style = codegen.majority_style_for(profile, use_builtins, literal_fig2)
    if strategy == "auto":
        strategy = choose_strategy(dims.n_bundle_inputs, uses_dma, n_ch)

    asm = Assembler(profile, name=f"encode_{profile.name}")

    if uses_dma:
        s_src = asm.reg("s_src")
        s_dst = asm.reg("s_dst")
        s_size = asm.reg("s_size")
        skip = codegen.asm_unique(asm, "pro_skip")
        codegen.emit_core0_guard(asm, skip)
        # Stage the whole IM (contiguous rows: one transfer).
        asm.li(s_src, layout.im_l2)
        asm.li(s_dst, layout.im_l1)
        asm.li(s_size, n_ch * row)
        asm.dma_copy(s_src, s_dst, s_size)
        # Stage sample 0's CIM rows into buffer 0.
        asm.li(s_size, row)
        for ch in range(n_ch):
            asm.li(s_dst, layout.desc_entry(0, ch))
            asm.lw(s_src, s_dst, 0)
            asm.li(s_dst, layout.cim_buf_row(0, ch))
            asm.dma_copy(s_src, s_dst, s_size)
        asm.dma_wait()
        asm.label(skip)
        asm.barrier()

    for s in range(n_samples):
        if uses_dma and s + 1 < n_samples:
            # Prefetch the next sample's CIM rows into the other buffer.
            skip = codegen.asm_unique(asm, f"pf{s}_skip")
            codegen.emit_core0_guard(asm, skip)
            asm.li(s_size, row)
            for ch in range(n_ch):
                asm.li(s_dst, layout.desc_entry(s + 1, ch))
                asm.lw(s_src, s_dst, 0)
                asm.li(s_dst, layout.cim_buf_row((s + 1) % 2, ch))
                asm.dma_copy(s_src, s_dst, s_size)
            asm.label(skip)

        if uses_dma:
            source = SpatialSource(l1_block=layout.cim_buf_row(s % 2, 0))
        else:
            source = SpatialSource(
                desc_addrs=tuple(
                    layout.desc_entry(s, ch) for ch in range(n_ch)
                )
            )
        if n == 1:
            spatial_dst = layout.ngram_row(s)
        else:
            spatial_dst = layout.spatial_row(s % n)
        emit_spatial_sample(
            asm,
            layout,
            source,
            spatial_dst,
            n_cores,
            style,
            strategy,
            bound_buf=layout.bound_buf,
        )

        if n > 1 and s >= n - 1:
            spatial_addrs = [
                layout.spatial_row((s - n + 1 + i) % n) for i in range(n)
            ]
            emit_ngram(
                asm, layout, spatial_addrs,
                layout.ngram_row(s - n + 1), n_cores,
            )

        if uses_dma and s + 1 < n_samples:
            skip = codegen.asm_unique(asm, f"pfw{s}_skip")
            codegen.emit_core0_guard(asm, skip)
            asm.dma_wait()
            asm.label(skip)
        asm.barrier()

    emit_bundle_rows(
        asm,
        layout,
        layout.ngram_ring,
        dims.window,
        layout.query_l1,
        n_cores,
        style,
    )
    asm.barrier()
    asm.halt()
    return asm.build()


@dataclass(frozen=True)
class ChainConfig:
    """One accelerator configuration (machine × build × workload shape)."""

    soc: SoCConfig
    n_cores: int
    dims: ChainDims
    use_builtins: bool = False
    literal_fig2: bool = False
    strategy: str = "auto"
    #: ISS engine: "fast" (block-compiled/vectorizing), "interp" (the
    #: reference interpreter), or None for the REPRO_ISS_ENGINE default.
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_cores > self.soc.profile.max_cores:
            raise ValueError(
                f"{self.soc.name} supports at most "
                f"{self.soc.profile.max_cores} cores, got {self.n_cores}"
            )
        if self.use_builtins and not self.soc.profile.has_bitmanip:
            raise ValueError(
                f"{self.soc.name} has no bit-manipulation builtins"
            )


@dataclass(frozen=True)
class ChainResult:
    """Outcome of classifying one window on the simulated accelerator."""

    label_index: int
    distances: np.ndarray
    encode_cycles: int
    am_cycles: int
    encode_run: ClusterRunResult
    am_run: ClusterRunResult

    @property
    def total_cycles(self) -> int:
        """End-to-end cycles of the classification."""
        return self.encode_cycles + self.am_cycles

    @property
    def encode_load(self) -> float:
        """Fraction of total time in MAP+ENCODERS (Table 3's ld column)."""
        return self.encode_cycles / self.total_cycles

    @property
    def am_load(self) -> float:
        """Fraction of total time in the AM kernel."""
        return self.am_cycles / self.total_cycles


class HDChainSimulator:
    """Runs the HD classification chain on a simulated cluster."""

    def __init__(self, config: ChainConfig):
        self.config = config
        strategy = config.strategy
        if strategy == "auto":
            strategy = choose_strategy(
                config.dims.n_bundle_inputs,
                config.soc.uses_dma,
                config.dims.n_channels,
            )
        self.strategy = strategy
        soc = config.soc
        mem_cfg = soc.memory_config()
        from ..pulp.memory import L1_BASE, L2_BASE

        self.layout = make_layout(
            config.dims,
            n_cores=config.n_cores,
            uses_dma=soc.uses_dma,
            with_bound_buf=(strategy == "memory"),
        )
        if self.layout.l1_end - L1_BASE > mem_cfg.l1_bytes:
            raise ValueError(
                f"chain working set ({self.layout.l1_end - L1_BASE} B) "
                f"exceeds {soc.name} L1 ({mem_cfg.l1_bytes} B)"
            )
        if self.layout.l2_end - L2_BASE > mem_cfg.l2_bytes:
            raise ValueError(
                f"chain model ({self.layout.l2_end - L2_BASE} B) exceeds "
                f"{soc.name} L2 ({mem_cfg.l2_bytes} B)"
            )
        self.cluster: Cluster = soc.make_cluster(
            config.n_cores, engine=config.engine
        )
        self.encode_program = build_encode_program(
            soc.profile,
            self.layout,
            config.n_cores,
            use_builtins=config.use_builtins,
            uses_dma=soc.uses_dma,
            strategy=strategy,
            literal_fig2=config.literal_fig2,
        )
        self.am_program = build_am_program(
            soc.profile,
            self.layout,
            config.n_cores,
            use_builtins=config.use_builtins,
            uses_dma=soc.uses_dma,
        )
        self._model_loaded = False
        #: Raw-signal (lo, hi) range :meth:`run_window` quantises over;
        #: :meth:`from_classifier` records the model's own.
        self.signal_range = (
            HDClassifierConfig.signal_lo,
            HDClassifierConfig.signal_hi,
        )

    # -- model / input staging -------------------------------------------------

    def load_model(
        self,
        im_matrix: np.ndarray,
        cim_matrix: np.ndarray,
        am_matrix: np.ndarray,
    ) -> None:
        """Place the packed CIM/IM/AM matrices in simulated L2."""
        dims = self.config.dims
        expected = {
            "IM": (im_matrix, (dims.n_channels, dims.n_words)),
            "CIM": (cim_matrix, (dims.n_levels, dims.n_words)),
            "AM": (am_matrix, (dims.n_classes, dims.n_words)),
        }
        for name, (matrix, shape) in expected.items():
            matrix = np.asarray(matrix)
            if matrix.shape != shape:
                raise ValueError(
                    f"{name} matrix shape {matrix.shape} != expected {shape}"
                )
        self.cluster.write_words(self.layout.im_l2, im_matrix.ravel())
        self.cluster.write_words(self.layout.cim_l2, cim_matrix.ravel())
        self.cluster.write_words(self.layout.am_l2, am_matrix.ravel())
        if not self.config.soc.uses_dma:
            # Flat-memory machines have no DMA prologue: the IM working
            # copy is part of the program's data section, staged here.
            self.cluster.write_words(self.layout.im_l1, im_matrix.ravel())
        self._model_loaded = True

    @classmethod
    def from_classifier(
        cls,
        classifier: BatchHDClassifier,
        soc: SoCConfig,
        n_cores: int,
        use_builtins: bool = False,
        window: Optional[int] = None,
        **kwargs,
    ) -> "HDChainSimulator":
        """Build a simulator preloaded with a fitted classifier's model.

        The IM, CIM and AM matrices are the classifier's own, in the
        paper's uint32 layout; AM row ``i`` is ``classifier.labels[i]``.
        :meth:`run_window` quantises over the classifier's signal range.
        """
        cfg = classifier.config
        dims = ChainDims(
            dim=cfg.dim,
            n_channels=cfg.n_channels,
            n_levels=cfg.n_levels,
            n_classes=len(classifier.labels),
            ngram=cfg.ngram_size,
            window=window if window is not None else 5,
        )
        sim = cls(
            ChainConfig(
                soc=soc,
                n_cores=n_cores,
                dims=dims,
                use_builtins=use_builtins,
                **kwargs,
            )
        )
        spatial = classifier.encoder.spatial
        sim.load_model(
            spatial.item_memory.as_matrix(),
            spatial.continuous_memory.as_matrix(),
            classifier.am_matrix(),
        )
        sim.signal_range = (cfg.signal_lo, cfg.signal_hi)
        return sim

    # -- execution --------------------------------------------------------------

    def _validate_levels(self, levels: np.ndarray) -> np.ndarray:
        """Shape/dtype/range checks for a ``(n_windows, n_samples,
        n_channels)`` window batch.

        Structural checks run *before* any value inspection so an empty
        or float array raises the intended :class:`ValueError` instead
        of a confusing numpy error (or a silent float truncation).
        """
        dims = self.config.dims
        levels = np.asarray(levels)
        expected = (dims.n_samples, dims.n_channels)
        if levels.ndim != 3 or levels.shape[1:] != expected:
            raise ValueError(
                f"levels batch shape {levels.shape} != expected "
                f"(n_windows, {dims.n_samples}, {dims.n_channels})"
            )
        if levels.shape[0] == 0:
            raise ValueError("levels batch holds zero windows")
        if levels.dtype.kind not in "iu":
            raise ValueError(
                f"levels must be an integer array, got dtype "
                f"{levels.dtype}"
            )
        if levels.min() < 0 or levels.max() >= dims.n_levels:
            raise ValueError(
                f"levels must lie in [0, {dims.n_levels}), got "
                f"[{levels.min()}, {levels.max()}]"
            )
        return levels

    def _desc_tables(self, levels: np.ndarray) -> np.ndarray:
        """Descriptor tables for ``(..., n_samples, n_channels)`` levels.

        One vectorized address computation — ``cim_l2 + level * row`` —
        per entry, replacing the historical per-element Python loop
        (pinned equal by ``tests/kernels/test_chain_batch.py``).
        """
        dims = self.config.dims
        flat = levels.reshape(-1, dims.n_samples * dims.n_channels)
        return (
            np.uint32(self.layout.cim_l2)
            + flat.astype(np.uint32) * np.uint32(dims.row_bytes)
        )

    def _read_result(self, read_word, encode_run, am_run) -> ChainResult:
        """Read the label/distances back through ``read_word`` (the
        cluster's, or one lockstep lane's) and assemble a ChainResult."""
        layout = self.layout
        label = read_word(layout.result_label_addr())
        distances = np.array(
            [
                read_word(layout.result_distance_addr(c))
                for c in range(self.config.dims.n_classes)
            ],
            dtype=np.int64,
        )
        return ChainResult(
            label_index=int(label),
            distances=distances,
            encode_cycles=encode_run.total_cycles,
            am_cycles=am_run.total_cycles,
            encode_run=encode_run,
            am_run=am_run,
        )

    def run_window_levels(self, levels: np.ndarray) -> ChainResult:
        """Classify one window given pre-quantised integer levels.

        ``levels`` is (n_samples, n_channels) with entries in
        [0, n_levels).  Returns the chain result with the label read back
        from simulated memory.
        """
        if not self._model_loaded:
            raise RuntimeError("load_model must be called first")
        levels = self._validate_levels(np.asarray(levels)[None])
        # Descriptor table: L2 address of each (sample, channel) CIM row.
        self.cluster.write_words(
            self.layout.desc_l2, self._desc_tables(levels)[0]
        )
        encode_run = self.cluster.run(self.encode_program)
        am_run = self.cluster.run(self.am_program)
        return self._read_result(self.cluster.read_word, encode_run, am_run)

    def run_window_levels_batch(
        self, levels_batch: np.ndarray
    ) -> List[ChainResult]:
        """Classify N windows, amortizing per-window engine overhead.

        Semantically identical to N sequential :meth:`run_window_levels`
        calls — per-window labels, distances, cycle counts, and the
        final simulated-memory image are bit- and cycle-exact (pinned by
        the differential suite in ``tests/kernels/test_chain_batch.py``).
        The batch runs in chunks of :data:`BATCH_CHUNK_WINDOWS`.  On the
        fast engine a chunk of two or more windows runs through the
        window-laned lockstep engine (:mod:`repro.pulp.lockstep`), which
        runs *both* kernels — encode and the AM search, whose divergent
        argmin runs predicated — once with an extra lane axis over the
        chunk's windows.  Every other chunk (the interp engine, a
        one-window chunk, or a lockstep bail) is N calls of
        :meth:`run_window_levels` itself; a bail's reason is recorded in
        :func:`chain_batch_telemetry`.
        """
        if not self._model_loaded:
            raise RuntimeError("load_model must be called first")
        levels_batch = self._validate_levels(levels_batch)
        results: List[ChainResult] = []
        for start in range(0, len(levels_batch), BATCH_CHUNK_WINDOWS):
            chunk = levels_batch[start : start + BATCH_CHUNK_WINDOWS]
            chunk_results = None
            if len(chunk) > 1 and self.cluster.engine == "fast":
                chunk_results = self._run_chunk_lockstep(chunk)
            if chunk_results is None:
                chunk_results = [
                    self.run_window_levels(levels) for levels in chunk
                ]
            results.extend(chunk_results)
        return results

    def _run_chunk_lockstep(self, chunk) -> Optional[List[ChainResult]]:
        """Attempt the fully-laned (encode + AM) run for one chunk.

        Stages one :class:`~repro.pulp.lockstep.LockstepSession` whose
        lane ``i`` holds window ``i``'s descriptor table and runs *both*
        programs through it — the AM search's divergent argmin epilogue
        executes predicated, so no per-window engine runs remain on this
        path.  Returns per-window results, or ``None`` when the lockstep
        engine bailed (the caller falls back to per-window runs; a
        bailed attempt has written nothing to the cluster's memory
        image, each fallback run resets the stall accumulator it
        advanced, and the bail reason lands in
        :func:`chain_batch_telemetry`).
        """
        from ..pulp.lockstep import LockstepBail, LockstepSession

        _CHAIN_TELEMETRY["attempts"] += 1
        phases = _CHAIN_TELEMETRY["phase_s"]
        try:
            tick = perf_counter()
            lane_writes = [
                [(
                    self.layout.desc_l2,
                    np.ascontiguousarray(table, dtype="<u4").tobytes(),
                )]
                for table in self._desc_tables(chunk)
            ]
            ends = (self.layout.l1_end, self.layout.l2_end)
            session = LockstepSession(self.cluster, lane_writes, ends)
            tock = perf_counter()
            phases["staging"] += tock - tick
            encode_runs = session.run(self.encode_program)
            tick = perf_counter()
            phases["encode"] += tick - tock
            am_runs = session.run(self.am_program)
            tock = perf_counter()
            phases["am"] += tock - tick
        except LockstepBail as bail:
            _CHAIN_TELEMETRY["fallbacks"][bail.reason] += 1
            _CHAIN_TELEMETRY["fallback_windows"] += len(chunk)
            return None
        # Final-memory parity with N sequential runs: each lane starts
        # from the cluster's memory with its own table written where
        # the sequential path writes every table, and the kernels
        # overwrite the same working set each window, so the last
        # lane's post-AM image *is* the sequential end state.  The
        # lanes hold only the layout's span: an access past it would
        # have bailed, so no window wrote there, and the cluster's
        # bytes beyond the span already are that end state.
        tick = perf_counter()
        session.lane_image(len(chunk) - 1).restore_into(
            self.cluster.memory
        )
        results = [
            self._read_result(
                partial(session.read_word, lane),
                encode_runs[lane],
                am_runs[lane],
            )
            for lane in range(len(chunk))
        ]
        phases["readback"] += perf_counter() - tick
        _CHAIN_TELEMETRY["laned_chunks"] += 1
        _CHAIN_TELEMETRY["laned_windows"] += len(chunk)
        return results

    def run_window(self, window: np.ndarray) -> ChainResult:
        """Quantise a raw (n_samples, n_channels) window over
        :attr:`signal_range` and classify it."""
        dims = self.config.dims
        window = np.asarray(window, dtype=np.float64)
        if window.shape != (dims.n_samples, dims.n_channels):
            raise ValueError(
                f"window shape {window.shape} != expected "
                f"({dims.n_samples}, {dims.n_channels})"
            )
        levels = quantize_samples(
            window.ravel(), *self.signal_range, dims.n_levels
        ).reshape(window.shape)
        return self.run_window_levels(levels)

    def read_query(self) -> np.ndarray:
        """The query hypervector left in L1 by the encode program."""
        return self.cluster.read_words(
            self.layout.query_l1, self.config.dims.n_words
        )


#: Checked by ``python -m repro.pulp.analyze`` over the corpus.
STATIC_CONTRACT = StaticContract(
    name="kernels.chain",
    clean=True,
    # The M4 carry-save majority accumulates through a register the
    # classifier cannot prove inductive or reducible; those loops run
    # on the scalar path by design.
    allowed_rejects=frozenset({"carried-register"}),
    min_vector_loops=2,
)
