"""Team fusion in the lockstep engine: exactness and its contract.

A multi-core :class:`LockstepSession` steps its cores to their loop
plans and runs the cores parked at one plan as a single vector run, so
the cores' work interleaves instead of running core after core as
:meth:`Cluster.run` does.  These programs pin what keeps that exact:

* stall order: cores with different L1 access counts in one segment
  still get :meth:`Cluster.run`'s per-core cycles under a non-zero
  bank-conflict rate;
* the contract: a core reading what another core writes between the
  same barriers, or a core after core 0 issuing a DMA, bails with its
  own reason, and the driver's fallback (per-window runs) then gives
  the sequential results.
"""

import numpy as np

from repro.pulp import Assembler, Cluster, L1_BASE, L2_BASE, WOLF
from repro.pulp.assembler import CORE_ID_REG
from repro.pulp.lockstep import (
    LS_TEAM_CLOCK,
    LS_TEAM_SHARED_DATA,
    LockstepBail,
    LockstepSession,
    lockstep_telemetry,
    reset_lockstep_telemetry,
)

SRC = L1_BASE + 0x400  # per-core input chunks, 64 B apart
DST = L1_BASE + 0x800  # per-core output chunks
SHARED = L1_BASE + 0xC00
OUT = L1_BASE + 0xC40
N_CORES = 4


def _chunk_copy_program(extra):
    """Core k copies ``k + 2`` words SRC+64k -> DST+64k, adding one.

    The hardware loop is a vector plan, so every core parks at it and
    the team runs it fused; ``extra(asm, before)`` emits code before
    and after the loop.
    """
    asm = Assembler(WOLF)
    n, t, p, q, x = (asm.reg(name) for name in ("n", "t", "p", "q", "x"))
    asm.li(t, 2)
    asm.add(n, CORE_ID_REG, t)
    asm.slli(t, CORE_ID_REG, 6)
    asm.li(p, SRC)
    asm.add(p, p, t)
    asm.li(q, DST)
    asm.add(q, q, t)
    extra(asm, True)
    asm.hw_loop(n, "copy_end")
    asm.lw(x, p, 0)
    asm.addi(x, x, 1)
    asm.sw(x, q, 0)
    asm.addi(p, p, 4)
    asm.addi(q, q, 4)
    asm.label("copy_end")
    extra(asm, False)
    asm.halt()
    return asm.build()


def _lane_writes(n_lanes=3):
    """Per-lane input words, so lanes differ in data."""
    rng = np.random.default_rng(17)
    return [
        [(SRC, rng.integers(0, 2**31, 64, dtype=np.uint32).tobytes())]
        for _ in range(n_lanes)
    ]


def _sequential(program, lane_writes):
    """Per-window :meth:`Cluster.run` results and L1 images (the oracle)."""
    runs, images = [], []
    for writes in lane_writes:
        cluster = Cluster(WOLF, N_CORES, engine="fast")
        for addr, data in writes:
            cluster.memory.write_bytes(addr, data)
        runs.append(cluster.run(program))
        images.append(cluster.memory.read_bytes(L1_BASE, 0x1000))
    return runs, images


def _batched(program, lane_writes):
    """The batch driver's shape: a laned session, else per-window runs.

    Returns ``(runs, l1_images, bail_reason_or_None)``.
    """
    cluster = Cluster(WOLF, N_CORES, engine="fast")
    config = cluster.memory.config
    session = LockstepSession(
        cluster,
        lane_writes,
        (L1_BASE + config.l1_bytes, L2_BASE + config.l2_bytes),
    )
    try:
        runs = session.run(program)
    except LockstepBail as bail:
        return _sequential(program, lane_writes) + (bail.reason,)
    images = [
        session.lane_image(lane).l1[:0x1000]
        for lane in range(len(lane_writes))
    ]
    return runs, images, None


def test_uneven_l1_counts_keep_cluster_run_cycles():
    """Core k makes 2 (k + 2) loop accesses, five more around the loop
    (core 0 eight), at a conflict rate of 94 millicycles per L1 access.
    Cores run interleaved, yet each must get the carries of the
    core-major oracle; the segment ends at halt, so no barrier aligns
    the clocks and every core's cycles show."""

    def extra(asm, before):
        y, z = asm.reg("y"), asm.reg("z")
        asm.li(z, SHARED)
        for offset in range(3 if before else 2):
            asm.lw(y, z, offset * 4)
        if before:
            asm.bne(CORE_ID_REG, 0, "core0_done")
            for offset in range(3):
                asm.lw(y, z, offset * 4)
            asm.label("core0_done")

    program = _chunk_copy_program(extra)
    lane_writes = _lane_writes()
    reset_lockstep_telemetry()
    runs, images, reason = _batched(program, lane_writes)
    assert reason is None
    assert lockstep_telemetry()["team_runs"] == 1
    expected_runs, expected_images = _sequential(program, lane_writes)
    assert runs == expected_runs
    assert images == expected_images
    assert len(set(expected_runs[0].per_core_cycles)) == N_CORES


class TestContractBreaks:
    def test_core1_reads_core0_store(self):
        """Every core loads SHARED before the loop and core 0 stores 7
        there after it: core-major order gives cores 1-3 the 7,
        interleaved order the old 0, so the team must bail."""

        def extra(asm, before):
            y, z, w = asm.reg("y"), asm.reg("z"), asm.reg("w")
            if before:
                asm.li(z, SHARED)
                asm.lw(y, z, 0)
                return
            asm.bne(CORE_ID_REG, 0, "not_core0")
            asm.li(z, SHARED)
            asm.li(w, 7)
            asm.sw(w, z, 0)
            asm.label("not_core0")
            asm.li(z, OUT)
            asm.slli(w, CORE_ID_REG, 2)
            asm.add(z, z, w)
            asm.sw(y, z, 0)  # OUT[k] = SHARED as core k read it

        program = _chunk_copy_program(extra)
        out = self._expect_fallback(program, LS_TEAM_SHARED_DATA)
        assert out == [0, 7, 7, 7]

    def test_core1_issues_dma(self):
        def extra(asm, before):
            if before:
                s, d, z = asm.reg("s"), asm.reg("d"), asm.reg("z")
                asm.li(z, 1)
                asm.bne(CORE_ID_REG, z, "not_core1")
                asm.li(s, L2_BASE)
                asm.li(d, OUT)
                asm.li(z, 16)
                asm.dma_copy(s, d, z)
                asm.dma_wait()
                asm.label("not_core1")

        self._expect_fallback(_chunk_copy_program(extra), LS_TEAM_CLOCK)

    @staticmethod
    def _expect_fallback(program, reason):
        """Demand the bail, then sequential parity; OUT of lane 0."""
        lane_writes = _lane_writes()
        reset_lockstep_telemetry()
        runs, images, bailed = _batched(program, lane_writes)
        assert bailed == reason
        assert lockstep_telemetry()["bails"] == {reason: 1}
        assert (runs, images) == _sequential(program, lane_writes)
        offset = OUT - L1_BASE
        return np.frombuffer(
            images[0][offset : offset + 16], dtype="<u4"
        ).tolist()
