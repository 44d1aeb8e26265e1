"""Associative-memory kernel: Hamming search over the prototype matrix.

Streams the AM prototypes row by row (double-buffered via DMA on PULP,
read in place on flat-memory machines), XORs each against the query and
popcounts the mismatches.  The word range is split across the team; each
core deposits its partial count in an L1 partial array, and core 0
reduces, selects the minimum-distance class (first match wins ties, as in
:func:`repro.hdc.engine.am_search` behind
:meth:`repro.hdc.batch.BatchHDClassifier.predict`), and writes the label
plus all distances to the L2 result block.

The per-word popcount uses ``p.cnt`` when builtins are enabled and the
SWAR software expansion otherwise — the exact lever the paper credits
for the AM kernel's builtin speed-up (section 5.1).
"""

from __future__ import annotations

from ..pulp.assembler import Assembler, CORE_ID_REG
from ..pulp.isa import ArchProfile
from . import codegen
from .layout import ChainLayout
from ..pulp.analyze import StaticContract


def emit_am_distance(
    asm: Assembler,
    layout: ChainLayout,
    row_addr: int,
    class_index: int,
    n_cores: int,
    use_builtins: bool,
    consts,
) -> None:
    """Emit one class's partial Hamming distance (SPMD word chunk).

    ``row_addr`` is where this class's prototype row resides (an L1
    buffer or the L2 row itself); ``consts`` the preloaded SWAR popcount
    constants (ignored on the builtin path).
    """
    dims = layout.dims
    profile = asm.profile
    builtin_cnt = use_builtins and profile.has_bitmanip

    w = asm.reg("w")
    w_end = asm.reg("w_end")
    t = asm.reg("t")
    u = asm.reg("u")
    acc = asm.reg("acc")
    p_q = asm.reg("p_q")
    p_a = asm.reg("p_a")

    codegen.emit_chunk_bounds(asm, dims.n_words, n_cores, w, w_end, t)
    asm.slli(t, w, 2)
    asm.li(p_q, layout.query_l1)
    asm.add(p_q, p_q, t)
    asm.li(p_a, row_addr)
    asm.add(p_a, p_a, t)
    asm.mv(acc, 0)

    def body() -> None:
        if profile.has_postincrement:
            asm.lw_postinc(t, p_q, 4)
            asm.lw_postinc(u, p_a, 4)
        else:
            asm.lw(t, p_q, 0)
            asm.lw(u, p_a, 0)
        asm.xor(t, t, u)
        if builtin_cnt:
            asm.popcount(t, t)
        else:
            emit_sw = codegen.emit_software_popcount
            emit_sw(asm, t, t, u, consts)
        asm.add(acc, acc, t)

    def step() -> None:
        if not profile.has_postincrement:
            asm.addi(p_q, p_q, 4)
            asm.addi(p_a, p_a, 4)

    codegen.emit_word_loop(asm, profile, w, w_end, t, body, step, "am")

    # partials[class * n_cores + core_id] = acc
    asm.slli(t, CORE_ID_REG, 2)
    asm.li(u, layout.partials_l1 + class_index * n_cores * 4)
    asm.add(u, u, t)
    asm.sw(acc, u, 0)


def emit_am_reduction(
    asm: Assembler,
    layout: ChainLayout,
    n_cores: int,
) -> None:
    """Core 0 reduces partials, writes distances, label (argmin)."""
    dims = layout.dims
    t = asm.reg("t")
    u = asm.reg("u")
    dist = asm.reg("dist")
    best = asm.reg("best")
    best_idx = asm.reg("best_idx")
    p = asm.reg("p")

    skip = codegen.asm_unique(asm, "red_skip")
    asm.bne(CORE_ID_REG, 0, skip)
    asm.li(best, 0xFFFFFFFF)
    asm.mv(best_idx, 0)
    for c in range(dims.n_classes):
        asm.li(p, layout.partials_l1 + c * n_cores * 4)
        asm.lw(dist, p, 0)
        for core in range(1, n_cores):
            asm.lw(t, p, core * 4)
            asm.add(dist, dist, t)
        asm.li(u, layout.result_distance_addr(c))
        asm.sw(dist, u, 0)
        # Strict-minimum update keeps the first minimum on ties.
        keep = codegen.asm_unique(asm, f"red_keep{c}")
        asm.bgeu(dist, best, keep)
        asm.mv(best, dist)
        asm.li(best_idx, c)
        asm.label(keep)
    asm.li(u, layout.result_label_addr())
    asm.sw(best_idx, u, 0)
    asm.label(skip)


def build_am_program(
    profile: ArchProfile,
    layout: ChainLayout,
    n_cores: int,
    use_builtins: bool = False,
    uses_dma: bool = True,
) -> "Program":
    """The full AM kernel program (Table 3's ``AM`` row).

    Expects the query at ``layout.query_l1`` and the AM matrix at
    ``layout.am_l2``; writes the label and distances to the result block.
    The class loop is unrolled (class counts are small), with the next
    prototype row prefetched by DMA while the current one is scored.
    """
    asm = Assembler(profile, name=f"am_{profile.name}")
    dims = layout.dims
    row = dims.row_bytes
    builtin_cnt = use_builtins and profile.has_bitmanip
    consts = None if builtin_cnt else codegen.PopcountConsts(asm)

    if uses_dma:
        s_src = asm.reg("s_src")
        s_dst = asm.reg("s_dst")
        s_size = asm.reg("s_size")
        # Prologue: stage row 0 into buffer 0.
        skip = codegen.asm_unique(asm, "amdma0_skip")
        codegen.emit_core0_guard(asm, skip)
        asm.li(s_src, layout.am_l2_row(0))
        asm.li(s_dst, layout.am_buf0)
        asm.li(s_size, row)
        asm.dma_copy(s_src, s_dst, s_size)
        asm.dma_wait()
        asm.label(skip)
        asm.barrier()

    for c in range(dims.n_classes):
        if uses_dma:
            buf = layout.am_buf0 if c % 2 == 0 else layout.am_buf1
            next_buf = layout.am_buf1 if c % 2 == 0 else layout.am_buf0
            if c + 1 < dims.n_classes:
                skip = codegen.asm_unique(asm, f"amdma{c + 1}_skip")
                codegen.emit_core0_guard(asm, skip)
                asm.li(s_src, layout.am_l2_row(c + 1))
                asm.li(s_dst, next_buf)
                asm.li(s_size, row)
                asm.dma_copy(s_src, s_dst, s_size)
                asm.label(skip)
            row_addr = buf
        else:
            row_addr = layout.am_l2_row(c)
        emit_am_distance(
            asm, layout, row_addr, c, n_cores, use_builtins, consts
        )
        if uses_dma and c + 1 < dims.n_classes:
            skip = codegen.asm_unique(asm, f"amwait{c + 1}_skip")
            codegen.emit_core0_guard(asm, skip)
            asm.dma_wait()
            asm.label(skip)
        asm.barrier()

    emit_am_reduction(asm, layout, n_cores)
    asm.barrier()
    asm.halt()
    return asm.build()


#: Checked by ``python -m repro.pulp.analyze`` over the corpus.
STATIC_CONTRACT = StaticContract(
    name="kernels.am_search",
    clean=True,
    allowed_rejects=frozenset(),
    min_vector_loops=1,
)
