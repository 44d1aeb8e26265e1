"""Bail-reason coverage for the lockstep engine.

Every ``LockstepBail`` reason the laned engine can hit from assembled
code is provoked here by a purpose-built program and asserted to be
counted exactly once in ``lockstep_telemetry()["bails"]`` — so a
renamed or silently-dropped reason string breaks a test instead of a
dashboard.  Lane divergence is injected through the session's
``lane_writes`` staging: both lanes run the same program, but a load
from ``DIV`` observes different per-lane words.

Reasons that assembled code cannot reach (``dma-error`` needs a
negative transfer size the masked ALU never produces;
``unknown-terminator`` and ``block-address-shape`` guard states the
assembler cannot encode) are covered at the guard level instead.  The
two team-fusion reasons (``team-shared-data``, ``team-clock-read``)
are provoked, with their fallback parity, in ``test_lockstep_team.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.pulp import Assembler, Cluster, L1_BASE, L2_BASE, WOLF, WOLF_SOC
from repro.pulp.assembler import CORE_ID_REG
from repro.pulp.lockstep import (
    LanedMemory,
    LockstepBail,
    LockstepSession,
    _pred_no_load,
    _pred_no_store,
    lockstep_telemetry,
    reset_lockstep_telemetry,
)

# One word both lanes read; the staging below gives it per-lane values.
DIV = L1_BASE + 64
SCRATCH = L1_BASE + 128


def _whole(cluster):
    """The session ends that span the machine's whole L1 and L2."""
    config = cluster.memory.config
    return L1_BASE + config.l1_bytes, L2_BASE + config.l2_bytes


def _session(emit, lane_values=(0, 8), n_cores=1, max_instructions=None,
             ends=None):
    """Assemble ``emit`` and stage it laned: (session, program)."""
    cluster = Cluster(WOLF, n_cores, engine="fast")
    if max_instructions is not None:
        for core in cluster.cores:
            core.max_instructions = max_instructions
    asm = Assembler(WOLF)
    emit(asm)
    lane_writes = [
        [(DIV, int(value).to_bytes(4, "little"))] for value in lane_values
    ]
    session = LockstepSession(cluster, lane_writes, ends or _whole(cluster))
    return session, asm.build()


def _run_expecting(reason, emit, **kwargs):
    """Run ``emit`` laned, and demand exactly one bail."""
    session, program = _session(emit, **kwargs)
    reset_lockstep_telemetry()
    with pytest.raises(LockstepBail) as excinfo:
        session.run(program)
    assert excinfo.value.reason == reason
    telemetry = lockstep_telemetry()
    assert telemetry["bails"] == {reason: 1}
    assert telemetry["attempts"] == 1
    assert telemetry["runs"] == 0  # a bailed attempt is not a run


def _load_div(asm, rd):
    """rd <- the lane-divergent word staged at DIV."""
    p = asm.reg("p")
    asm.li(p, DIV)
    asm.lw(rd, p, 0)
    asm.free_reg("p")


class TestMemoryBails:
    def test_misaligned(self):
        def emit(asm):
            p, t = asm.reg("p"), asm.reg("t")
            asm.li(p, L1_BASE + 2)
            asm.lw(t, p, 0)
            asm.halt()

        _run_expecting("misaligned", emit)

    def test_address_range(self):
        def emit(asm):
            p, t = asm.reg("p"), asm.reg("t")
            asm.li(p, 64)  # neither L1 nor L2
            asm.lw(t, p, 0)
            asm.halt()

        _run_expecting("address-range", emit)

    @staticmethod
    def _store_at(addr):
        def emit(asm):
            p, t = asm.reg("p"), asm.reg("t")
            _load_div(asm, t)
            asm.li(p, addr)
            asm.sw(t, p, 0)
            asm.halt()

        return emit

    def test_store_past_the_ends_bails(self):
        """The images span only the session's ends: a store one word
        past them, though inside the machine's L1, is out of range."""
        ends = (L1_BASE + 0x1000, L2_BASE + 0x1000)
        _run_expecting(
            "address-range", self._store_at(ends[0]), ends=ends
        )

    def test_store_inside_whole_memory_runs_laned(self):
        """The same store runs laned when the ends are the whole
        memory, and each lane's image holds its own value."""
        addr = L1_BASE + 0x1000
        session, program = _session(self._store_at(addr))
        reset_lockstep_telemetry()
        session.run(program)
        telemetry = lockstep_telemetry()
        assert telemetry["runs"] == 1
        assert telemetry["bails"] == {}
        assert [session.read_word(lane, addr) for lane in (0, 1)] == [0, 8]
        image = session.lane_image(1)
        assert len(image.l1) == session.cluster.memory.config.l1_bytes
        assert image.l1[0x1000:0x1004] == (8).to_bytes(4, "little")

    def test_ends_outside_the_regions_rejected(self):
        cluster = Cluster(WOLF, 1, engine="fast")
        l1_top, l2_top = _whole(cluster)
        for ends in [
            (L1_BASE - 4, l2_top),
            (l1_top + 4, l2_top),
            (l1_top, L2_BASE - 4),
            (l1_top, l2_top + 4),
            (l1_top - 2, l2_top),  # not word aligned
        ]:
            with pytest.raises(ValueError, match="ends"):
                LockstepSession(cluster, [[], []], ends)

    def test_lanes_allocate_only_their_bytes(self):
        """Laned memory holds the lanes and nothing else: two lanes of
        4 KiB of L1 and 4 KiB of L2 on Wolf (576 KiB of memory) allocate
        under 64 KiB, so no scalar memory image is built beside them."""
        memory = WOLF_SOC.make_cluster(1, engine="fast").memory
        ends = (L1_BASE + 0x1000, L2_BASE + 0x1000)
        tracemalloc.start()
        try:
            lanes = LanedMemory(memory, 2, ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lanes.lane_image(1).l2 == memory.read_bytes(L2_BASE, 0x1000)
        assert peak < 64 << 10, f"{peak / 1024:.0f} KiB"

    def test_divergent_store_address(self):
        def emit(asm):
            t, b = asm.reg("t"), asm.reg("b")
            _load_div(asm, t)  # lanes 0 / 8
            asm.li(b, SCRATCH)
            asm.add(b, b, t)  # per-lane store target
            asm.sw(t, b, 0)
            asm.halt()

        _run_expecting("divergent-store-address", emit)


class TestControlFlowBails:
    def test_divergent_branch_with_ineligible_body(self):
        """A lane-divergent skip whose body touches memory cannot run
        predicated, so it must bail rather than predicate a store."""

        def emit(asm):
            t, q = asm.reg("t"), asm.reg("q")
            _load_div(asm, t)  # cond (t == 0) splits the lanes
            asm.li(q, SCRATCH)
            asm.beq(t, 0, "skip")
            asm.sw(t, q, 0)  # memory op: predication-ineligible
            asm.label("skip")
            asm.halt()

        _run_expecting("divergent-branch", emit)

    def test_divergent_jump(self):
        def emit(asm):
            t = asm.reg("t")
            _load_div(asm, t)
            asm.emit("jr", ra=t)
            asm.halt()

        _run_expecting("divergent-jump", emit, lane_values=(2, 3))

    def test_divergent_trip_count(self):
        def emit(asm):
            n, x = asm.reg("n"), asm.reg("x")
            _load_div(asm, n)  # lanes want 1 vs 2 trips
            asm.hw_loop(n, "end")
            asm.addi(x, x, 1)
            asm.label("end")
            asm.halt()

        _run_expecting("divergent-trip-count", emit, lane_values=(1, 2))

    def test_mid_block_entry(self):
        """A computed jump into the middle of a straight block: the
        scalar engine synthesizes a sub-block, the laned one bails."""

        def emit(asm):
            t, a = asm.reg("t"), asm.reg("a")
            asm.li(t, 4)
            asm.emit("jr", ra=t)  # pc 4 is inside the block below
            asm.li(a, 1)  # pc 2: block leader (follows a terminator)
            asm.li(a, 2)  # pc 3
            asm.li(a, 3)  # pc 4: not a leader
            asm.halt()

        _run_expecting("mid-block-entry", emit)

    def test_pc_overrun(self):
        def emit(asm):
            t = asm.reg("t")
            asm.li(t, 3)
            asm.emit("jr", ra=t)  # one past the final instruction
            asm.halt()

        _run_expecting("pc-overrun", emit)

    def test_loop_nesting(self):
        """Hardware loops nest at most two deep, as on the machine."""

        def emit(asm):
            regs = [asm.reg(f"n{i}") for i in range(3)]
            x = asm.reg("x")
            for reg in regs:
                asm.li(reg, 2)
            asm.hw_loop(regs[0], "e0")
            asm.addi(x, x, 1)
            asm.hw_loop(regs[1], "e1")
            asm.addi(x, x, 1)
            asm.hw_loop(regs[2], "e2")
            asm.addi(x, x, 1)
            asm.label("e2")
            asm.addi(x, x, 1)
            asm.label("e1")
            asm.addi(x, x, 1)
            asm.label("e0")
            asm.halt()

        _run_expecting("loop-nesting", emit)

    def test_instruction_cap(self):
        def emit(asm):
            x = asm.reg("x")
            for _ in range(8):
                asm.addi(x, x, 1)
            asm.halt()

        _run_expecting("instruction-cap", emit, max_instructions=4)

    def test_stop_disagreement(self):
        """Core 0 halts while core 1 reaches a barrier: the lockstep
        round cannot reconcile the two stop states."""

        def emit(asm):
            asm.bne(CORE_ID_REG, 0, "wait")
            asm.halt()
            asm.label("wait")
            asm.barrier()
            asm.halt()

        _run_expecting("stop-disagreement", emit, n_cores=2)


class TestDMABails:
    def test_divergent_dma_size(self):
        def emit(asm):
            size, src, dst = asm.reg("size"), asm.reg("s"), asm.reg("d")
            _load_div(asm, size)  # lanes 4 / 8
            asm.li(src, L2_BASE)
            asm.li(dst, L1_BASE)
            asm.dma_copy(src, dst, size)
            asm.halt()

        _run_expecting("divergent-dma", emit, lane_values=(4, 8))


class TestDefensiveGuards:
    """Reasons assembled code cannot produce still raise correctly."""

    def test_predicated_memory_stubs(self):
        with pytest.raises(LockstepBail) as excinfo:
            _pred_no_load(L1_BASE, 4)
        assert excinfo.value.reason == "predicated-memory"
        with pytest.raises(LockstepBail) as excinfo:
            _pred_no_store(L1_BASE, 0, 4)
        assert excinfo.value.reason == "predicated-memory"

    def test_block_address_shape(self):
        """A 2-D address array reaching a block load must bail, not
        silently gather garbage."""
        cluster = Cluster(WOLF, 1, engine="fast")
        session = LockstepSession(cluster, [[], []], _whole(cluster))
        asm = Assembler(WOLF)
        x = asm.reg("x")
        asm.addi(x, x, 1)
        asm.halt()
        program = asm.build()
        from repro.pulp.fastpath import compile_program

        compiled = compile_program(program, WOLF)
        from repro.pulp.lockstep import _LaneCore

        core = _LaneCore(
            0, WOLF, compiled, session.lmem, None, 1, 0, {}, {}, 10**9
        )
        # Poison a register with a 2-D lane array and run a block that
        # loads through it.
        asm2 = Assembler(WOLF)
        p, t = asm2.reg("p"), asm2.reg("t")
        asm2.lw(t, p, 0)
        asm2.halt()
        program2 = asm2.build()
        core.compiled = compile_program(program2, WOLF)
        core.regs[1] = np.zeros((2, 2), dtype=np.int64) + L1_BASE
        with pytest.raises(LockstepBail) as excinfo:
            core._run_block(0, 1)
        assert excinfo.value.reason == "block-address-shape"
