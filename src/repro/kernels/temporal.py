"""Temporal (N-gram) encoder kernel: iterated rotate-and-XOR.

The N-gram ``S_t ⊕ ρ¹S_{t+1} ⊕ ... ⊕ ρ^{n−1}S_{t+n−1}`` is computed the
way the paper describes (section 3): starting from the newest spatial
vector, the accumulator is rotated by one position and XORed with the
next-older spatial vector, N−1 times.  Each pass is an out-of-place
word-parallel sweep::

    dst[w] = ((src[w] << 1) | src[w−1].bit31) ^ S[w]

with two logical-boundary specials handled by the cores that own them:
word 0 receives the wrapped carry of logical bit D−1, and the final word
is masked back to the valid ``D mod 32`` bits so the pad-bit invariant of
:mod:`repro.hdc.bitpack` holds in kernel memory too.

A pass reads the previous pass's output, so the chain emits a barrier
between passes; within a pass, cores write disjoint chunks.
"""

from __future__ import annotations

from ..hdc import bitpack
from ..pulp.assembler import Assembler, CORE_ID_REG
from ..pulp.isa import ArchProfile
from . import codegen
from .layout import ChainLayout
from ..pulp.analyze import StaticContract


def emit_rotate_xor_pass(
    asm: Assembler,
    layout: ChainLayout,
    src_addr: int,
    s_addr: int,
    dst_addr: int,
    n_cores: int,
) -> None:
    """Emit one pass: ``dst = rot1(src) ^ S`` over packed words (SPMD).

    The caller must place a barrier before the pass (so ``src`` is
    complete) — none is needed after for the emitting core's own chunk,
    but the chain barriers between passes anyway.
    """
    dims = layout.dims
    profile = asm.profile
    n_words = dims.n_words
    dim = dims.dim
    rem = dim % 32
    top_shift = (rem - 1) if rem else 31
    mask = int(bitpack.pad_mask(dim))

    w = asm.reg("w")
    w_end = asm.reg("w_end")
    t = asm.reg("t")
    u = asm.reg("u")
    p_src = asm.reg("p_src")
    p_s = asm.reg("p_s")
    p_dst = asm.reg("p_dst")

    # Core 0 handles word 0: carry wraps from logical bit D-1.
    skip0 = codegen.asm_unique(asm, "rot_w0_skip")
    asm.bne(CORE_ID_REG, 0, skip0)
    asm.li(p_src, src_addr)
    asm.lw(t, p_src, (n_words - 1) * 4)  # last word
    asm.srli(t, t, top_shift)
    asm.andi(t, t, 1)  # wrapped carry bit
    asm.lw(u, p_src, 0)
    asm.slli(u, u, 1)
    asm.or_(u, u, t)
    if n_words == 1:
        asm.li(t, mask)
        asm.and_(u, u, t)
    asm.li(p_s, s_addr)
    asm.lw(t, p_s, 0)
    asm.xor(u, u, t)
    asm.li(p_dst, dst_addr)
    asm.sw(u, p_dst, 0)
    asm.label(skip0)

    if n_words > 1:
        # Words 1 .. n_words-1, chunked across the team.
        codegen.emit_chunk_bounds(
            asm, n_words, n_cores, w, w_end, t, first_item=1
        )
        asm.slli(t, w, 2)
        asm.li(p_src, src_addr)
        asm.add(p_src, p_src, t)
        asm.li(p_s, s_addr)
        asm.add(p_s, p_s, t)
        asm.li(p_dst, dst_addr)
        asm.add(p_dst, p_dst, t)

        def body() -> None:
            asm.lw(t, p_src, 0)
            asm.lw(u, p_src, -4)
            asm.slli(t, t, 1)
            asm.srli(u, u, 31)
            asm.or_(t, t, u)
            asm.lw(u, p_s, 0)
            asm.xor(t, t, u)
            if profile.has_postincrement:
                asm.sw_postinc(t, p_dst, 4)
            else:
                asm.sw(t, p_dst, 0)

        def step() -> None:
            asm.addi(p_src, p_src, 4)
            asm.addi(p_s, p_s, 4)
            if not profile.has_postincrement:
                asm.addi(p_dst, p_dst, 4)

        codegen.emit_word_loop(asm, profile, w, w_end, t, body, step, "rot")

        # The core owning the final word masks the pad bits in place.
        # Its id is known here; idle trailing cores, whose clamped range
        # also ends at n_words, must not touch the word.
        if mask != 0xFFFFFFFF:
            skip_mask = codegen.asm_unique(asm, "rot_mask_skip")
            owner = (n_words - 2) // codegen.ceil_div(n_words - 1, n_cores)
            asm.li(t, owner)
            asm.bne(CORE_ID_REG, t, skip_mask)
            asm.li(p_dst, dst_addr + (n_words - 1) * 4)
            asm.lw(t, p_dst, 0)
            asm.li(u, mask)
            asm.and_(t, t, u)
            asm.sw(t, p_dst, 0)
            asm.label(skip_mask)


def emit_copy_words(
    asm: Assembler,
    layout: ChainLayout,
    src_addr: int,
    dst_addr: int,
    n_cores: int,
) -> None:
    """Word-parallel copy of one hypervector (used when N == 1 paths
    need a vector relocated without recomputation)."""
    dims = layout.dims
    profile = asm.profile
    w = asm.reg("w")
    w_end = asm.reg("w_end")
    t = asm.reg("t")
    p_src = asm.reg("p_src")
    p_dst = asm.reg("p_dst")

    codegen.emit_chunk_bounds(asm, dims.n_words, n_cores, w, w_end, t)
    asm.slli(t, w, 2)
    asm.li(p_src, src_addr)
    asm.add(p_src, p_src, t)
    asm.li(p_dst, dst_addr)
    asm.add(p_dst, p_dst, t)

    def body() -> None:
        if profile.has_postincrement:
            asm.lw_postinc(t, p_src, 4)
            asm.sw_postinc(t, p_dst, 4)
        else:
            asm.lw(t, p_src, 0)
            asm.sw(t, p_dst, 0)

    def step() -> None:
        if not profile.has_postincrement:
            asm.addi(p_src, p_src, 4)
            asm.addi(p_dst, p_dst, 4)

    codegen.emit_word_loop(asm, profile, w, w_end, t, body, step, "copy")


def emit_ngram(
    asm: Assembler,
    layout: ChainLayout,
    spatial_addrs: list,
    dst_addr: int,
    n_cores: int,
) -> None:
    """Emit the N-gram of ``spatial_addrs`` (oldest first) into ``dst``.

    Iterates the rotate-XOR pass N−1 times through the two G ping-pong
    buffers, starting from the newest spatial vector and finishing
    directly in ``dst_addr``.  Each pass is separated by a barrier.  For
    N == 1 the N-gram *is* the spatial vector; callers should encode
    straight into ``dst_addr`` instead of calling this.
    """
    n = len(spatial_addrs)
    if n < 2:
        raise ValueError("emit_ngram requires N >= 2")
    src = spatial_addrs[-1]  # newest
    for j in range(1, n):
        s_addr = spatial_addrs[-1 - j]
        if j == n - 1:
            dst = dst_addr
        else:
            dst = layout.gbuf0 if j % 2 == 1 else layout.gbuf1
        asm.barrier()
        emit_rotate_xor_pass(asm, layout, src, s_addr, dst, n_cores)
        src = dst


def build_ngram_program(
    profile: ArchProfile,
    layout: ChainLayout,
    n_cores: int,
) -> "Program":
    """Standalone N-gram kernel for tests/benches.

    Expects N spatial vectors in the spatial ring (slot ``i`` = i-th
    oldest); writes the N-gram to ``layout.query_l1``.
    """
    asm = Assembler(profile, name=f"ngram_{profile.name}")
    n = layout.dims.ngram
    if n < 2:
        raise ValueError("standalone N-gram kernel requires N >= 2")
    addrs = [layout.spatial_row(i) for i in range(n)]
    emit_ngram(asm, layout, addrs, layout.query_l1, n_cores)
    asm.barrier()
    asm.halt()
    return asm.build()


#: Checked by ``python -m repro.pulp.analyze`` over the corpus.
STATIC_CONTRACT = StaticContract(
    name="kernels.temporal",
    clean=True,
    allowed_rejects=frozenset(),
    min_vector_loops=1,
)
