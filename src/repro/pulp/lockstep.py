"""Window-laned lockstep execution: one program, N memory images.

The batched-window driver (:meth:`repro.kernels.chain.HDChainSimulator.
run_window_levels_batch`) re-runs the *same* programs per window; only
the descriptor table — and therefore the data flowing through the
kernels — differs.  The kernels' control flow is counter-driven, so N
windows execute the identical instruction trace in lockstep.  This
module exploits that: it runs each program **once** over N per-window
memory images, carrying every register as either a plain int (uniform
across windows) or a length-N lane array, and extending the fast
path's trip-vectorized loops with a second lane axis — ``(trips,
windows)`` arrays flowing through the very same compiled segment
closures (:func:`repro.pulp.fastpath._compile_seg` is
shape-agnostic).  One numpy pass per loop then covers all windows,
which is where the batched driver's speed-up comes from.

The dispatch loop itself is **shared with the scalar engine**:
:class:`_LaneCore` is the laned instantiation of
:class:`repro.pulp.dispatch.DispatchCore` (block-plan gating,
terminator dispatch, and cycle charging live there, once).  What this
module adds on top of the shared loop is purely the lane dimension:

* per-engine hooks that collapse lane values to solver operands
  (``_uniform_int``), execute straight blocks over laned memory, and
  turn every unsupported situation into a :class:`LockstepBail`
  instead of an error;
* **predicated execution** of short, pure-ALU forward branches
  (``_predicate_branch``): when a branch outcome diverges between
  windows — the AM argmin epilogue's ``bgeu``/``mv``/``li`` pattern —
  the skipped body runs once over the lane arrays and every written
  register is merged back with a per-lane select, while ``cycles``
  and ``instr_count`` continue as per-lane arrays.  Data-divergent
  compares therefore no longer force a bail-out to N sequential
  runs, which is what lets the whole AM search run laned;
* :class:`LockstepSession`, which stages N lane images once and runs
  several programs back to back over them (encode then AM in the
  chain driver), returning *per-lane* :class:`ClusterRunResult`\\ s;
  an image spans only the extent the caller names, ``ends = (l1_end,
  l2_end)`` (at D = 10,000 the chain's layout is 72 KiB of Wolf's
  576 KiB), and an access past it bails, so a lane never holds bytes
  no window can touch;
* **team fusion**: a team's cores park at their loop plans, and the
  cores parked at one plan run it as *one* vector run over their trips
  concatenated in core order, so an 8-core window costs about what a
  1-core one does.  The interleaving is exact because cores touch
  disjoint data between barriers (:mod:`repro.pulp.cluster`'s segment
  model, checked per segment, else bail ``team-shared-data``) and stalls
  keep the core-major order: later cores' L1 conflict carries are
  charged at the barrier, so a DMA there bails ``team-clock-read``.

Exactness contract: per-window architectural results (memory images,
cycles, instruction counts, DMA bytes, barrier structure) are
identical to N sequential runs.  Everything the lane model cannot
reproduce bit-exactly — a divergent branch with an ineligible body, a
divergent hardware-loop trip count, lane-varying store addresses, any
access the memory model rejects — raises :class:`LockstepBail`
*before any caller-visible state is touched* (the engine writes only
its own image stack, and the stall accumulator it advances is reset by
every run), and the caller falls back to the sequential
per-window path.  The differential suite in
``tests/kernels/test_chain_batch.py`` pins the equivalence over
engine × strategy × core-count grids.

Cycle accounting mirrors the scalar engines: base costs are folded per
segment, and memory stalls are charged once for every lane on the
stall accumulator of the cluster's own :class:`MemorySystem`
(:meth:`~MemorySystem.bulk_stalls`).  One accumulator serves all lanes
because every lane's access trace is identical — the predicated bodies
are pure ALU, so lane-divergent paths never touch it — and sharing the
scalar engine's is exact because a run of either engine resets it
(:meth:`~MemorySystem.set_team_size`) before its first access.  DMA
timing runs the same busy-until clock with only the *payload*
differing per lane.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .assembler import CORE_ID_REG, N_CORES_REG, Program
from .cluster import ClusterRunResult
from .core import STOP_HALT
from .dispatch import (
    MAX_VECTOR_TRIPS,
    REASON_INSTRUCTION_CAP,
    DispatchCore,
    _Bail,
    _LOAD_OPS,
    _MASK32,
    _OP_ADD,
    _OP_AND,
    _OP_OR,
    _OP_XOR,
    _STORE_OPS,
    _TELEMETRY,
)
from .fastpath import (
    _VectorRun,
    _affine_stride,
    _base_cost,
    _compile_seg,
    _cond_v,
    _reads_writes,
    _seg_noop,
    compile_program,
)
from .memory import L1_BASE, L2_BASE, MemorySystem

_M64 = np.uint64(_MASK32)


def _lane64(value, n_lanes: int) -> np.ndarray:
    """Broadcast a register value to a (n,) uint64 lane array."""
    if isinstance(value, np.ndarray):
        return value
    return np.full(n_lanes, value, dtype=np.uint64)


def _lane_max(value) -> int:
    """The worst lane of an int-or-(n,) instruction count."""
    if isinstance(value, np.ndarray):
        return int(value.max())
    return value


def _core_rows(values, n_lanes: int):
    """A register's value on every core, or one uint64 row per core."""
    first = values[0]
    if all(value is first for value in values):
        return first
    if any(isinstance(value, np.ndarray) for value in values):
        return np.stack([_lane64(value, n_lanes) for value in values])
    if values.count(first) == len(values):
        return first
    return np.array(values, dtype=np.uint64)[:, None]


def _trip_span(flat: np.ndarray, width: int):
    """``(lo, hi, stride)`` of lane-uniform trip addresses, or a
    misaligned bail; affine strides decide from the endpoints alone."""
    stride = _affine_stride(flat)
    if stride is not None:
        lo, hi = int(flat[0]), int(flat[-1])
        misaligned = width > 1 and (lo % width or stride % width)
    else:
        lo, hi = int(flat.min()), int(flat.max())
        misaligned = width > 1 and (flat % width).any()
    if misaligned:
        raise LockstepBail(LS_MISALIGNED)
    return lo, hi + width - 1, stride


def _trip_cols(flat: np.ndarray, width: int, stride, lo: int, base: int):
    """Columns of trip addresses in a region's ``width``-byte view: a
    slice for unit strides, else an index array."""
    if stride == width:
        col0 = (lo - base) // width
        return slice(col0, col0 + flat.shape[0])
    return (flat.astype(np.int64) - base) // width


def _pred_no_load(addr, width):  # pragma: no cover - guarded by _pred_entry
    raise LockstepBail(LS_PREDICATED_MEMORY)


def _pred_no_store(addr, value, width):  # pragma: no cover - see above
    raise LockstepBail(LS_PREDICATED_MEMORY)


# ---------------------------------------------------------------------------
# LockstepBail reason vocabulary (analyzer-consumable, like the
# COMPILE_REJECT_REASONS / RUNTIME_BAIL_REASONS tables in dispatch.py).
# ---------------------------------------------------------------------------

LS_ADDRESS_RANGE = "address-range"
LS_MISALIGNED = "misaligned"
LS_DIVERGENT_STORE_ADDRESS = "divergent-store-address"
LS_DIVERGENT_JUMP = "divergent-jump"
LS_DIVERGENT_TRIP_COUNT = "divergent-trip-count"
LS_DIVERGENT_BRANCH = "divergent-branch"
LS_DIVERGENT_DMA = "divergent-dma"
LS_PC_OVERRUN = "pc-overrun"
LS_LOOP_NESTING = "loop-nesting"
LS_DMA_ERROR = "dma-error"
LS_UNKNOWN_TERMINATOR = "unknown-terminator"
LS_INSTRUCTION_CAP = "instruction-cap"
LS_MID_BLOCK_ENTRY = "mid-block-entry"
LS_STOP_DISAGREEMENT = "stop-disagreement"
LS_PREDICATED_MEMORY = "predicated-memory"
LS_BLOCK_ADDRESS_SHAPE = "block-address-shape"
LS_UNSUPPORTED = "unsupported"
# Team fusion (LockstepSession): cores shared data between barriers, or
# a core after core 0 read its own clock (a DMA) mid-segment.
LS_TEAM_SHARED_DATA = "team-shared-data"
LS_TEAM_CLOCK = "team-clock-read"

#: Every reason :class:`LockstepBail` can carry.
LOCKSTEP_BAIL_REASONS = frozenset({
    LS_ADDRESS_RANGE,
    LS_MISALIGNED,
    LS_DIVERGENT_STORE_ADDRESS,
    LS_DIVERGENT_JUMP,
    LS_DIVERGENT_TRIP_COUNT,
    LS_DIVERGENT_BRANCH,
    LS_DIVERGENT_DMA,
    LS_PC_OVERRUN,
    LS_LOOP_NESTING,
    LS_DMA_ERROR,
    LS_UNKNOWN_TERMINATOR,
    LS_INSTRUCTION_CAP,
    LS_MID_BLOCK_ENTRY,
    LS_STOP_DISAGREEMENT,
    LS_PREDICATED_MEMORY,
    LS_BLOCK_ADDRESS_SHAPE,
    LS_UNSUPPORTED,
    LS_TEAM_SHARED_DATA,
    LS_TEAM_CLOCK,
})

#: The window-laned vector path converts a ``LockstepBail`` into a
#: fastpath runtime bail tagged ``laned-<reason>``; it can additionally
#: emit the two lane-array-specific tags below that have no scalar
#: LockstepBail counterpart site.
LANED_BAIL_PREFIX = "laned-"
LS_LANED_STORE_ADDRESSES = "store-addresses"

#: The ``bails`` telemetry key space of the laned vector path.
LANED_BAIL_REASONS = frozenset(
    LANED_BAIL_PREFIX + reason
    for reason in LOCKSTEP_BAIL_REASONS | {LS_LANED_STORE_ADDRESSES}
)


class LockstepBail(Exception):
    """The lane model cannot reproduce this run; use the scalar path.

    Raised for divergent control flow, lane-varying store addresses,
    instruction-cap proximity, faulting accesses, and anything else the
    laned engine does not model — the caller's sequential fallback then
    reproduces the exact scalar behaviour (including exact errors).
    ``reason`` is always drawn from :data:`LOCKSTEP_BAIL_REASONS`.
    """

    def __init__(self, reason: str = LS_UNSUPPORTED):
        super().__init__(reason)
        self.reason = reason


_LOCKSTEP_TELEMETRY = {
    "attempts": 0,
    "runs": 0,
    "lanes": 0,
    # divergent branches executed predicated instead of bailing
    "predicated": 0,
    "bails": Counter(),
    # team-fused vector runs; fused runs that bailed (cores ran alone)
    "team_runs": 0,
    "team_bails": Counter(),
}


def lockstep_telemetry() -> dict:
    """Snapshot of the lockstep engine's attempt/bail counters."""
    return {
        key: dict(value) if isinstance(value, Counter) else value
        for key, value in _LOCKSTEP_TELEMETRY.items()
    }


def reset_lockstep_telemetry() -> None:
    """Zero the lockstep counters (start of a measured run)."""
    for key, value in _LOCKSTEP_TELEMETRY.items():
        if isinstance(value, Counter):
            value.clear()
        else:
            _LOCKSTEP_TELEMETRY[key] = 0


def _uniform_int(value) -> Optional[int]:
    """Collapse a lane value to an int, or ``None`` when it diverges."""
    if isinstance(value, np.ndarray):
        first = value.flat[0]
        if (value == first).all():
            return int(first)
        return None
    return int(value)


class LaneImage:
    """One lane's materialized memory snapshot: L1 and L2, each from
    its region's base up to the session's ends."""

    __slots__ = ("l1", "l2")

    def __init__(self, l1: bytes, l2: bytes):
        self.l1 = l1
        self.l2 = l2

    def restore_into(self, memory: MemorySystem) -> None:
        """Write this lane's image into a scalar memory system; the
        bytes past the ends are left as they are."""
        memory.write_bytes(L1_BASE, self.l1)
        memory.write_bytes(L2_BASE, self.l2)


class LanedMemory:
    """N per-lane copies of the memory a program runs in, batch addressable.

    Each lane holds ``[L1_BASE, l1_end)`` and ``[L2_BASE, l2_end)`` of
    ``ends = (l1_end, l2_end)`` (a chain's layout, not the whole
    machine); an access past an end bails ``address-range``.
    Functional accesses operate on ``(n_lanes, bytes)`` arrays, and a
    load every lane reads alike collapses to an int (or a ``(T, 1)``
    column).  Only the lanes' bytes are held here: every lane's access
    trace is identical, so regions are classified once and stalls are
    charged on the accumulator of ``stalls``, the
    :class:`MemorySystem` the lanes were tiled from.
    """

    def __init__(
        self, memory: MemorySystem, n_lanes: int, ends: Tuple[int, int]
    ):
        config = memory.config
        self.n_lanes = n_lanes
        l1_end, l2_end = ends
        if (
            not L1_BASE <= l1_end <= L1_BASE + config.l1_bytes
            or not L2_BASE <= l2_end <= L2_BASE + config.l2_bytes
            or (l1_end | l2_end) & 3
        ):
            raise ValueError(
                f"ends (0x{l1_end:08x}, 0x{l2_end:08x}) must be word "
                f"aligned and lie in L1 and L2"
            )
        l1 = np.frombuffer(
            memory.read_bytes(L1_BASE, l1_end - L1_BASE), dtype=np.uint8
        )
        l2 = np.frombuffer(
            memory.read_bytes(L2_BASE, l2_end - L2_BASE), dtype=np.uint8
        )
        self._l1 = np.tile(l1, (n_lanes, 1))
        self._l2 = np.tile(l2, (n_lanes, 1))
        self._l1_end = l1_end
        self._l2_end = l2_end
        self._views: Dict[Tuple[bool, int], np.ndarray] = {}
        self.stalls = memory

    def locate(self, lo: int, hi: int) -> Tuple[bool, int]:
        """(is_l1, region_base) for [lo, hi]; bail when out of range."""
        if L1_BASE <= lo and hi < self._l1_end:
            return True, L1_BASE
        if L2_BASE <= lo and hi < self._l2_end:
            return False, L2_BASE
        raise LockstepBail(LS_ADDRESS_RANGE)

    # -- functional access -------------------------------------------------

    def _view(self, is_l1: bool, width: int) -> np.ndarray:
        view = self._views.get((is_l1, width))
        if view is None:
            buf = self._l1 if is_l1 else self._l2
            view = buf.view({1: "<u1", 2: "<u2", 4: "<u4"}[width])
            self._views[(is_l1, width)] = view
        return view

    def write_lane_bytes(self, lane: int, addr: int, data: bytes) -> None:
        """Seed one lane's image (pre-run staging, untimed)."""
        is_l1, base = self.locate(addr, addr + len(data) - 1)
        buf = self._l1 if is_l1 else self._l2
        offset = addr - base
        buf[lane, offset : offset + len(data)] = np.frombuffer(
            data, dtype=np.uint8
        )

    def load_scalar(self, addr: int, width: int):
        """Load one address in every lane: int when uniform, else (n,)."""
        if width > 1 and addr % width:
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(addr, addr + width - 1)
        column = self._view(is_l1, width)[:, (addr - base) // width]
        first = int(column[0])
        if (column == first).all():
            return first, is_l1
        return column.astype(np.uint64), is_l1

    def store_scalar(self, addr: int, value, width: int) -> bool:
        """Store int-or-(n,) ``value`` at one address in every lane."""
        if width > 1 and addr % width:
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(addr, addr + width - 1)
        view = self._view(is_l1, width)
        mask = (1 << (8 * width)) - 1
        offset = addr - base
        if isinstance(value, np.ndarray):
            view[:, offset // width] = (
                value.astype(np.uint64) & np.uint64(mask)
            ).astype(view.dtype)
        else:
            view[:, offset // width] = int(value) & mask
        return is_l1

    def load_lanes(self, addr: np.ndarray, width: int):
        """Load a per-lane (n,) address vector: one value per lane."""
        lo = int(addr.min())
        hi = int(addr.max()) + width - 1
        if width > 1 and (addr % width).any():
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(lo, hi)
        view = self._view(is_l1, width)
        offsets = (addr.astype(np.int64) - base) // width
        values = view[np.arange(self.n_lanes), offsets]
        first = int(values[0])
        if (values == first).all():
            return first, is_l1
        return values.astype(np.uint64), is_l1

    def gather_cols(self, offsets, width: int, is_l1: bool):
        """Gather lane-uniform trip addresses: (T,) offsets (or a column
        slice) → (T, n), or (T, 1) when every lane holds the same bytes."""
        values = self._view(is_l1, width)[:, offsets].T.astype(np.uint64)
        if self.n_lanes > 1 and (values == values[:, :1]).all():
            return values[:, :1]
        return values

    def gather_2d(self, offsets: np.ndarray, width: int, is_l1: bool):
        """Gather per-(trip, lane) addresses: (T, n) offsets → (T, n)."""
        return self._view(is_l1, width)[
            np.arange(self.n_lanes)[None, :], offsets
        ].astype(np.uint64)

    def scatter_cols(self, offsets, values, width: int, is_l1: bool) -> None:
        """Scatter to lane-uniform trip addresses ((T,) offsets or a
        column slice)."""
        view = self._view(is_l1, width)
        mask = (1 << (8 * width)) - 1
        if isinstance(values, np.ndarray):
            masked = (values.astype(np.uint64) & np.uint64(mask)).astype(
                view.dtype
            )
            if masked.ndim == 2:  # (T, n), or (T, 1) for every lane
                view[:, offsets] = masked.T
            else:  # (n,) per-lane value, every trip column
                view[:, offsets] = masked[:, None]
        else:
            view[:, offsets] = int(values) & mask

    def dma_copy(self, src, dst: int, size: int) -> None:
        """Per-lane byte copy (functional half of a DMA transfer)."""
        if size == 0:
            return
        dst_l1, dst_base = self.locate(dst, dst + size - 1)
        dst_buf = self._l1 if dst_l1 else self._l2
        doff = dst - dst_base
        if isinstance(src, np.ndarray):
            lo = int(src.min())
            hi = int(src.max()) + size - 1
            src_l1, src_base = self.locate(lo, hi)
            src_buf = self._l1 if src_l1 else self._l2
            # One gather of each lane's source row from a (lanes,
            # start, size) view of the buffer: whole rows, not bytes.
            # It is a copy, so a source that overlaps the destination
            # is read as it was before the store.
            starts = src.astype(np.int64) - src_base
            lanes, length = src_buf.shape
            step = src_buf.strides[1]
            rows = np.ndarray(
                (lanes, length - size + 1, size), src_buf.dtype, src_buf,
                0, (src_buf.strides[0], step, step),
            )
            dst_buf[:, doff : doff + size] = rows[np.arange(lanes), starts]
        else:
            src = int(src)
            src_l1, src_base = self.locate(src, src + size - 1)
            src_buf = self._l1 if src_l1 else self._l2
            soff = src - src_base
            block = src_buf[:, soff : soff + size]
            if src_buf is dst_buf:
                block = block.copy()
            dst_buf[:, doff : doff + size] = block

    def read_lane_word(self, lane: int, addr: int) -> int:
        """Untimed aligned 32-bit read from one lane's image."""
        if addr & 3:
            raise LockstepBail(LS_MISALIGNED)
        is_l1, base = self.locate(addr, addr + 3)
        return int(self._view(is_l1, 4)[lane, (addr - base) // 4])

    def lane_image(self, lane: int) -> LaneImage:
        """Materialize one lane's memory as an immutable snapshot."""
        return LaneImage(
            self._l1[lane].tobytes(), self._l2[lane].tobytes()
        )


class _LanedDMA:
    """Busy-until DMA clock shared by all lanes (sizes are uniform); in
    a team only core 0 has it, and ``touched`` is its footprint."""

    __slots__ = (
        "_lmem", "_bytes_per_cycle", "busy_until", "total_bytes", "touched")

    def __init__(self, lmem: LanedMemory, bytes_per_cycle: int):
        self._lmem = lmem
        self._bytes_per_cycle = bytes_per_cycle
        self.busy_until = 0
        self.total_bytes = 0
        self.touched: Optional[list] = None

    def enqueue(self, src, dst, size, issue_cycle) -> None:
        dst = _uniform_int(dst)
        size = _uniform_int(size)
        if isinstance(issue_cycle, np.ndarray):
            # Lane-divergent issue cycles (predicated epilogue before a
            # DMA) would need a per-lane busy-until clock; bail instead.
            issue_cycle = _uniform_int(issue_cycle)
            if issue_cycle is None:
                raise LockstepBail(LS_DIVERGENT_DMA)
        if dst is None or size is None:
            raise LockstepBail(LS_DIVERGENT_DMA)
        if size < 0:
            raise LockstepBail(LS_DMA_ERROR)
        self._lmem.dma_copy(src, dst, size)
        if self.touched is not None and size:
            lanes = isinstance(src, np.ndarray)
            lo, hi = (src.min(), src.max()) if lanes else (src, src)
            self.touched += [(int(lo), int(hi) + size - 1, False, None, 0),
                             (dst, dst + size - 1, True, None, 0)]
        start = max(self.busy_until, issue_cycle)
        self.busy_until = start + -(-size // self._bytes_per_cycle)
        self.total_bytes += size


class _LanedReduction:
    """Per-core, per-lane reduction accumulator: the ``(C, n)`` twin of
    ``_Reduction`` (one row per core block of trips; C = 1 unfused)."""

    __slots__ = ("op", "base", "acc", "starts", "counts")

    def __init__(self, op: int, base, n_lanes: int, starts, counts):
        self.op = op
        self.base = base  # int, (n,), or one row per core
        self.starts = starts
        self.counts = np.array(counts, dtype=np.uint64)[:, None]
        fill = _MASK32 if op == _OP_AND else 0
        self.acc = np.full((len(counts), n_lanes), fill, dtype=np.uint64)

    def feed(self, value, lanes: int) -> None:
        op = self.op
        if isinstance(value, np.ndarray) and value.ndim == 2:
            # Trip-varying feed: reduce each core's block of trips.
            if op == _OP_ADD:
                block = np.add.reduceat(value, self.starts, 0, np.uint64)
                self.acc = (self.acc + block) & _M64
            elif op == _OP_OR:
                self.acc |= np.bitwise_or.reduceat(value, self.starts, 0)
            elif op == _OP_XOR:
                self.acc ^= np.bitwise_xor.reduceat(value, self.starts, 0)
            else:
                self.acc &= np.bitwise_and.reduceat(value, self.starts, 0)
        else:
            # Trip-invariant feed (int or (n,)): closed form per core.
            value = np.uint64(0) + value
            if op == _OP_ADD:
                self.acc = (self.acc + value * self.counts) & _M64
            elif op == _OP_OR:
                self.acc |= value
            elif op == _OP_XOR:
                self.acc ^= value * (self.counts & np.uint64(1))
            else:
                self.acc &= value

    def fold(self) -> np.ndarray:
        base = np.uint64(0) + self.base  # int, (n,) or rows → uint64
        if self.op == _OP_ADD:
            return (base + self.acc) & _M64
        if self.op == _OP_OR:
            return base | self.acc
        if self.op == _OP_XOR:
            return base ^ self.acc
        return base & self.acc


class _LanedVectorRun(_VectorRun):
    """A :class:`_VectorRun` whose lanes span (trips × windows).

    Trip-varying values are carried as ``(T, 1)`` (window-uniform) or
    ``(T, n)`` arrays, window-varying loop invariants as ``(n,)``; the
    inherited ``run_nodes`` / ``eval_prepared`` / compiled segment
    closures are shape-agnostic, so only state setup, the memory hooks,
    and commit differ from the scalar engine.

    A *team-fused* run (``team``: ``(core, trips)`` pairs, ``state``
    its first core, ``trips`` their sum) gives each core one block of
    the trip axis: inductions start from its registers, core-varying
    registers repeat over its block, reductions fold per block, and
    :meth:`commit` gives it its last trip and its share of the counts.
    """

    def __init__(self, state: "_LaneCore", plan, trips: int, team=None):
        self.core = state
        self.plan = plan
        self.trips = trips
        self.team = team or ((state, trips),)
        self.starts, self.lasts = np.zeros(1, np.intp), slice(-1, None)
        self.decoded = state.compiled.decoded
        self.profile = state.profile
        self.memory = state.lmem
        self.n_l1 = 0
        self.n_l2 = 0
        self.base_cycles = 0
        self.n_instr = 0
        self.tail = 0  # cycles each core adds once (fused branch exit)
        self.stores: List[tuple] = []
        self.loads: List[tuple] = []
        # Budget the worst lane (instr_count is a lane array after a
        # predicated branch); counts grow as per-trip counts times
        # ``trips``, so a fused run bails when any core's share would.
        self.budget = min(
            (core.max_instructions - _lane_max(core.instr_count))
            * trips // n
            for core, n in self.team
        )
        self._taken = 1 + state.profile.branch_taken_penalty
        self._not_taken = 1 + state.profile.branch_not_taken_penalty
        rows: List = list(state.regs)
        sym: List = list(rows)
        counts = [n for _, n in self.team]
        local = np.arange(trips, dtype=np.uint64)[:, None]  # (T, 1)
        if team is not None:
            self.lasts = np.cumsum(counts) - 1  # each core's last trip
            self.starts = self.lasts - counts + 1
            local -= np.repeat(self.starts, counts).astype(np.uint64)[:, None]
            for reg in plan.live_in:
                # What the body reads: one row per core where cores
                # differ, repeated over each core's block of trips.
                rows[reg] = sym[reg] = _core_rows(
                    [core.regs[reg] for core, _ in team], state.n_lanes
                )
                if getattr(rows[reg], "ndim", 0) == 2:
                    sym[reg] = np.repeat(rows[reg], counts, 0)
        sym[0] = 0
        for reg, step in plan.inductions.items():
            if reg == 0:
                continue
            base = sym[reg]
            if isinstance(base, np.ndarray):
                if base.ndim == 1:
                    base = base[None, :]  # (1, n) → broadcast to (T, n)
            else:
                base = np.uint64(base)
            sym[reg] = (base + local * np.uint64(step & _MASK32)) & _M64
        for _pc, (reg, op, _src) in plan.reduction_pcs.items():
            if reg:
                sym[reg] = _LanedReduction(
                    op, rows[reg], state.n_lanes, self.starts, counts
                )
        self.sym = sym

    # -- memory hooks ------------------------------------------------------

    def _load(self, addr, width: int):
        lmem: LanedMemory = self.memory
        try:
            if isinstance(addr, np.ndarray):
                if addr.ndim == 2 and addr.shape[1] == 1:
                    # Lane-uniform trip addresses.
                    flat = addr[:, 0]
                    lo, hi, stride = _trip_span(flat, width)
                    self._check_no_store_overlap(
                        lo, hi, flat, width, stride
                    )
                    is_l1, base = lmem.locate(lo, hi)
                    values = lmem.gather_cols(
                        _trip_cols(flat, width, stride, lo, base), width, is_l1
                    )
                    self.loads.append((lo, hi, flat, width, stride))
                elif addr.ndim == 2:
                    # Per-(trip, lane) addresses.
                    lo = int(addr.min())
                    hi = int(addr.max()) + width - 1
                    if width > 1 and (addr % width).any():
                        raise LockstepBail(LS_MISALIGNED)
                    self._check_no_store_overlap(lo, hi, None, width, None)
                    is_l1, base = lmem.locate(lo, hi)
                    values = lmem.gather_2d(
                        (addr.astype(np.int64) - base) // width, width, is_l1
                    )
                    self.loads.append((lo, hi, None, width, None))
                else:
                    # Per-lane loop-invariant address (n,).
                    lo = int(addr.min())
                    hi = int(addr.max()) + width - 1
                    self._check_no_store_overlap(lo, hi, None, width, None)
                    values, is_l1 = lmem.load_lanes(addr, width)
                    self.loads.append((lo, hi, None, width, None))
            else:
                addr = int(addr)
                lo, hi = addr, addr + width - 1
                self._check_no_store_overlap(lo, hi, addr, width, None)
                values, is_l1 = lmem.load_scalar(addr, width)
                self.loads.append((lo, hi, addr, width, None))
        except LockstepBail as bail:
            # Inside a vector attempt a memory-model refusal is a plan
            # bail (scalar lockstep execution may still handle it).
            raise _Bail(LANED_BAIL_PREFIX + bail.reason)
        if is_l1:
            self.n_l1 += self.trips
        else:
            self.n_l2 += self.trips
        return values

    def _store(self, addr, value, width: int) -> None:
        if isinstance(addr, np.ndarray) and (
            addr.ndim != 2 or addr.shape[1] != 1
        ):
            raise _Bail(LANED_BAIL_PREFIX + LS_LANED_STORE_ADDRESSES)
        try:
            if isinstance(addr, np.ndarray):
                addr = addr[:, 0]
                lo, hi, stride = _trip_span(addr, width)
                if stride is None and np.unique(addr).size != addr.size:
                    raise _Bail("duplicate-store-lanes")
            else:
                addr = int(addr)
                lo, hi, stride = addr, addr + width - 1, None
                if width > 1 and addr % width:
                    raise LockstepBail(LS_MISALIGNED)
                if isinstance(value, np.ndarray) and value.ndim == 2:
                    value = value[-1]  # last trip wins on one address
                    if value.shape[0] == 1 or (value == value[0]).all():
                        value = int(value[0])
            is_l1, _ = self.memory.locate(lo, hi)
        except LockstepBail as bail:
            raise _Bail(LANED_BAIL_PREFIX + bail.reason)
        self._check_no_store_overlap(lo, hi, addr, width, stride)
        self._check_no_load_overlap(lo, hi, addr, width, stride)
        self.stores.append((lo, hi, addr, value, width, stride))
        if is_l1:
            self.n_l1 += self.trips
        else:
            self.n_l2 += self.trips

    # -- commit ------------------------------------------------------------

    def commit(self) -> None:
        lmem: LanedMemory = self.memory
        for lo, _hi, addr, value, width, stride in self.stores:
            if isinstance(addr, np.ndarray):
                is_l1, base = lmem.locate(lo, _hi)
                lmem.scatter_cols(
                    _trip_cols(addr, width, stride, lo, base), value, width, is_l1
                )
            else:
                lmem.store_scalar(addr, value, width)
        # Only body-written registers can have changed in sym; each core
        # takes its row of a folded reduction or its last trip.
        for reg in self.plan.written_regs - {0}:
            value = self.sym[reg]
            if isinstance(value, _LanedReduction):
                value = value.fold()
            elif not isinstance(value, np.ndarray):
                for state, _ in self.team:
                    state.regs[reg] = value
                continue
            elif value.ndim == 2:
                value = value[self.lasts]
            else:  # a per-lane invariant: every core's
                value = np.broadcast_to(value, (len(self.team), value.size))
            if value.shape[1] == 1:
                rows = value[:, 0].tolist()
            else:  # per-lane rows, collapsed where uniform
                same = (value == value[:, :1]).all(axis=1).tolist()
                rows = [int(row[0]) if uniform else row.astype(np.uint64)
                        for row, uniform in zip(value, same)]
            for (state, _), row in zip(self.team, rows):
                state.regs[reg] = row
        T = self.trips
        totals = (self.n_instr, self.base_cycles, self.n_l1, self.n_l2)
        for state, n in self.team:
            # A fused run's totals are per-trip counts times T, so each
            # core's share is exact; a lone run keeps its totals.
            n_instr, base, n_l1, n_l2 = (
                totals if n == T else [x // T * n for x in totals]
            )
            state.cycles += base + self.tail + state._stall_cycles(
                n_l1, n_l2
            )
            state.instr_count += n_instr
        if self.core.touched is not None:
            self._record_footprints()

    def _record_footprints(self) -> None:
        """Add this run's accesses to each core's ``touched``, one entry
        per core block, with element addresses unless they tile it."""
        starts = self.starts.tolist()
        ends = [start + n - 1 for start, (_, n) in zip(starts, self.team)]
        for entries, write in ((self.loads, False), (self.stores, True)):
            for entry in entries:
                lo, hi, addr = entry[:3]
                width, stride = entry[-2:]
                if not isinstance(addr, np.ndarray):
                    spans = [(lo, hi - width + 1)] * len(starts)
                elif stride is not None:  # ascending affine: ends decide
                    spans = [(lo + a * stride, lo + b * stride)
                             for a, b in zip(starts, ends)]
                else:
                    spans = zip(
                        np.minimum.reduceat(addr, self.starts).tolist(),
                        np.maximum.reduceat(addr, self.starts).tolist(),
                    )
                elems = [None] * len(starts)
                if isinstance(addr, np.ndarray) and stride != width:
                    elems = np.split(addr, self.starts[1:])
                for (core, _), (a, b), e in zip(self.team, spans, elems):
                    core.touched.append((a, b + width - 1, write, e, width))


class _LaneCore(DispatchCore):
    """Per-core lockstep state: one trace, N lanes of data.

    The laned instantiation of
    :class:`repro.pulp.dispatch.DispatchCore`: the dispatch loop is
    inherited, and the hooks below supply lane semantics — uniformity
    proofs where the loop needs a scalar (trip counts, jump targets),
    :class:`LockstepBail` on anything the lane model cannot reproduce,
    and predicated execution of short divergent forward branches.
    ``cycles`` and ``instr_count`` start as plain ints and are promoted
    to per-lane ``(n,)`` arrays by the first predicated branch.

    A team's session sets ``parks``, ``touched`` (the segment's
    accesses: ``(lo, hi, is_write, elems, width)``, bytes ``[lo, hi]``
    or ``width`` bytes at each ``elems`` address) and, after core 0,
    ``deferred_l1`` (L1 accesses whose carries the barrier charges).
    """

    __slots__ = (
        "core_id",
        "profile",
        "compiled",
        "lmem",
        "dma",
        "n_lanes",
        "regs",
        "cycles",
        "instr_count",
        "pc",
        "_loop_stack",
        "max_instructions",
        "_disabled_plans",
        "_block_cache",
        "_pred_cache",
        "parks",
        "touched",
        "deferred_l1",
    )

    _vector_run_cls = _LanedVectorRun

    def __init__(
        self,
        core_id: int,
        profile,
        compiled,
        lmem: LanedMemory,
        dma: Optional[_LanedDMA],
        n_cores: int,
        fork_cycles: int,
        block_cache: dict,
        pred_cache: dict,
        max_instructions: int,
    ):
        self.core_id = core_id
        self.profile = profile
        self.compiled = compiled
        self.lmem = lmem
        self.dma = dma
        self.n_lanes = lmem.n_lanes
        self.regs: List = [0] * 32
        self.regs[CORE_ID_REG] = core_id
        self.regs[N_CORES_REG] = n_cores
        self.cycles = fork_cycles
        self.instr_count = 0
        self.pc = 0
        self._loop_stack: list = []
        self.max_instructions = max_instructions
        self._disabled_plans: set = set()
        self._block_cache = block_cache
        self._pred_cache = pred_cache
        self.parks = False
        self.touched: Optional[list] = None
        self.deferred_l1: Optional[int] = None

    def _stall_cycles(self, n_l1: int, n_l2: int) -> int:
        """Stalls of some accesses, keeping deferred L1 carries back."""
        if self.deferred_l1 is None:
            return self.lmem.stalls.bulk_stalls(n_l1, n_l2)
        self.deferred_l1 += n_l1
        return self.lmem.stalls.bulk_stalls(0, n_l2)

    # -- straight-line blocks ---------------------------------------------

    def _block_entry(self, start: int, n_straight: int):
        entry = self._block_cache.get(start)
        if entry is None:
            decoded = self.compiled.decoded
            prepared = []
            cost = 0
            for pc in range(start, start + n_straight):
                ins = decoded[pc]
                op = ins[0]
                prepared.append(
                    (
                        op, ins[1], ins[2], ins[3], ins[4],
                        ins[4] & _MASK32, ins[5], None,
                    )
                )
                cost += _base_cost(op, self.profile)
            closure = _compile_seg(tuple(prepared)) or _seg_noop
            entry = (closure, cost)
            self._block_cache[start] = entry
        return entry

    def _run_block(self, start: int, n_straight: int) -> None:
        closure, cost = self._block_entry(start, n_straight)
        lmem = self.lmem
        counts = [0, 0]  # [l2, l1] accesses
        touched = self.touched

        def load(addr, width):
            if isinstance(addr, np.ndarray):
                if addr.ndim != 1:
                    raise LockstepBail(LS_BLOCK_ADDRESS_SHAPE)
                value, is_l1 = lmem.load_lanes(addr, width)
                lo, hi, elems = int(addr.min()), int(addr.max()), addr
            else:
                value, is_l1 = lmem.load_scalar(int(addr), width)
                lo, hi, elems = int(addr), int(addr), None
            if touched is not None:
                touched.append((lo, hi + width - 1, False, elems, width))
            counts[is_l1] += 1
            return value

        def store(addr, value, width):
            uniform = _uniform_int(addr) if isinstance(
                addr, np.ndarray
            ) else int(addr)
            if uniform is None:
                raise LockstepBail(LS_DIVERGENT_STORE_ADDRESS)
            if touched is not None:
                touched.append((uniform, uniform + width - 1, True, None, 0))
            counts[lmem.store_scalar(uniform, value, width)] += 1

        regs = self.regs
        closure(regs, load, store, 1)
        regs[0] = 0
        self.instr_count += n_straight
        self.cycles += cost + self._stall_cycles(counts[1], counts[0])

    # -- dispatch-loop hooks (laned instantiation) -------------------------
    #
    # The loop itself is DispatchCore.dispatch_segment; every hook that
    # needs a lane-uniform scalar proves uniformity (or bails), and
    # every scalar-engine fault becomes a LockstepBail so the caller
    # falls back to exact per-window runs.

    def _fetch_block(self, pc: int):
        block = self.compiled.blocks.get(pc)
        if block is None:
            raise LockstepBail(LS_MID_BLOCK_ENTRY)
        return block

    def _uniform_reg(self, reg: int):
        return _uniform_int(self.regs[reg]) if reg else 0

    def _over_cap(self, needed: int) -> bool:
        return _lane_max(self.instr_count) + needed > self.max_instructions

    def _cap_handoff(self, pc: int):
        raise LockstepBail(LS_INSTRUCTION_CAP)

    def _exec_straight(self, block) -> None:
        self._run_block(block.start, block.n_straight)

    def _branch_next(
        self, op, ra, rb, target, fallthrough, taken, not_taken
    ):
        regs = self.regs
        cond = _cond_v(
            op, regs[ra] if ra else 0, regs[rb] if rb else 0
        )
        if isinstance(cond, np.ndarray):
            if cond.all():
                hit = True
            elif not cond.any():
                hit = False
            else:
                return self._predicate_branch(
                    cond, target, fallthrough, taken, not_taken
                )
        else:
            hit = bool(cond)
        if hit:
            self.cycles += taken
            return target
        self.cycles += not_taken
        return fallthrough

    def _jr_target(self, ra: int):
        next_pc = _uniform_int(self.regs[ra])
        if next_pc is None:
            raise LockstepBail(LS_DIVERGENT_JUMP)
        return next_pc

    def _lpsetup_trips(self, ra: int) -> int:
        trips = _uniform_int(self.regs[ra]) if ra else 0
        if trips is None:
            raise LockstepBail(LS_DIVERGENT_TRIP_COUNT)
        return trips

    def _dma_wait(self) -> None:
        cycles = self.cycles
        if isinstance(cycles, np.ndarray):
            self.cycles = np.maximum(cycles + 1, self.dma.busy_until)
        else:
            self.cycles = max(cycles + 1, self.dma.busy_until)

    def _fault_pc_overrun(self, pc: int):
        raise LockstepBail(LS_PC_OVERRUN)

    def _fault_loop_nesting(self):
        raise LockstepBail(LS_LOOP_NESTING)

    def _fault_no_dma(self, what: str):
        # Later team cores have no DMA: their clocks lack deferred carries.
        raise LockstepBail(
            LS_DMA_ERROR if self.deferred_l1 is None else LS_TEAM_CLOCK
        )

    def _fault_unknown_terminator(self, op: int):
        raise LockstepBail(LS_UNKNOWN_TERMINATOR)

    # -- predicated divergent branches -------------------------------------

    def _pred_entry(self, fallthrough: int, target: int):
        """Eligibility of the branch body [fallthrough, target) for
        predicated execution, memoized per branch.

        Eligible means: a short *forward* skip over exactly one
        fall-through block (no terminator, ends at the branch target)
        containing only pure-ALU instructions — no memory accesses, so
        skipping it has no effect on the shared stall accumulator and
        per-lane state reduces to the written registers, ``cycles``,
        and ``instr_count``.  Returns ``(closure, n_body, body_cost,
        written_regs)`` or ``None``.
        """
        entry = self._pred_cache.get(fallthrough, False)
        if entry is not False:
            return entry
        entry = None
        if target > fallthrough:
            block = self.compiled.blocks.get(fallthrough)
            if (
                block is not None
                and block.terminator is None
                and block.end == target
                and block.n_straight == target - fallthrough
            ):
                decoded = self.compiled.decoded
                prepared = []
                cost = 0
                written: List[int] = []
                for pc in range(fallthrough, target):
                    ins = decoded[pc]
                    op = ins[0]
                    if op in _LOAD_OPS or op in _STORE_OPS:
                        prepared = None
                        break
                    prepared.append(
                        (
                            op, ins[1], ins[2], ins[3], ins[4],
                            ins[4] & _MASK32, ins[5], None,
                        )
                    )
                    cost += _base_cost(op, self.profile)
                    for reg in _reads_writes(ins)[1]:
                        if reg and reg not in written:
                            written.append(reg)
                if prepared is not None:
                    closure = _compile_seg(tuple(prepared)) or _seg_noop
                    entry = (
                        closure,
                        target - fallthrough,
                        cost,
                        tuple(written),
                    )
        self._pred_cache[fallthrough] = entry
        return entry

    def _predicate_branch(
        self, cond, target, fallthrough, taken, not_taken
    ):
        """Execute a lane-divergent forward branch with per-lane selects.

        Lanes where ``cond`` holds take the branch and skip the body;
        the others fall through and execute it.  The body runs once
        over the lane arrays, each written register is merged back with
        ``np.where``, and ``cycles`` / ``instr_count`` pick up per-lane
        charges — bit/cycle-exact against per-window scalar runs
        because the body is pure ALU (no memory order, no stalls).
        """
        entry = self._pred_entry(fallthrough, target)
        loop_stack = self._loop_stack
        if entry is None or (loop_stack and target == loop_stack[-1][1]):
            # Ineligible body, or the skip lands on an active hardware
            # loop boundary (back-edge bookkeeping would diverge).
            raise LockstepBail(LS_DIVERGENT_BRANCH)
        closure, n_body, body_cost, written = entry
        instr_count = self.instr_count
        if _lane_max(instr_count) + n_body > self.max_instructions:
            raise LockstepBail(LS_INSTRUCTION_CAP)
        regs = self.regs
        n = self.n_lanes
        old = [regs[reg] for reg in written]
        closure(regs, _pred_no_load, _pred_no_store, 1)
        for reg, old_value in zip(written, old):
            merged = np.where(
                cond, _lane64(old_value, n), _lane64(regs[reg], n)
            )
            uniform = _uniform_int(merged)
            regs[reg] = merged if uniform is None else uniform
        regs[0] = 0
        self.cycles = self.cycles + np.where(
            cond, taken, not_taken + body_cost
        )
        self.instr_count = instr_count + np.where(cond, 0, n_body)
        _LOCKSTEP_TELEMETRY["predicated"] += 1
        return target


def _lane_val(value, lane: int) -> int:
    """Collapse a lane-or-uniform cycle/instr value to lane's scalar."""
    if isinstance(value, np.ndarray):
        return int(value[lane])
    return int(value)


def _run_team(plan, members) -> bool:
    """One vector run of ``plan`` for the parked ``(core, trips)``
    members; False when each must run it alone instead."""
    trips = sum(n for _, n in members)
    if trips > MAX_VECTOR_TRIPS:
        return False
    try:
        run = _LanedVectorRun(members[0][0], plan, trips, members)
        run.run_nodes(plan.exec_nodes)
        if plan.kind == "branch":
            # Each core's own back edge: (trips - 1) taken, 1 not taken.
            run.n_instr += trips
            run.base_cycles += run._taken * trips
            run.tail = run._not_taken - run._taken
            if run.n_instr > run.budget:
                raise _Bail(REASON_INSTRUCTION_CAP)
    except _Bail as bail:
        _LOCKSTEP_TELEMETRY["team_bails"][bail.reason] += 1
        return False
    run.commit()
    _LOCKSTEP_TELEMETRY["team_runs"] += 1
    site = (plan.kind, plan.head)
    for _, n in members:
        _TELEMETRY["engaged"][site] += 1
        _TELEMETRY["trips"][site] += n
    return True


def _check_disjoint(rows: list, n_cores: int) -> None:
    """Bail unless no core wrote bytes another core touched: interleaved
    cores match the core-major oracle only under :mod:`repro.pulp.cluster`'s
    segment model.  ``rows`` is flat ``lo, hi, core, is_write`` byte
    ranges, segments offset apart.  Sorted by ``lo``, a range overlaps one
    of core ``c`` iff it starts no later than the furthest end ``c`` reached.
    """
    spans = np.array(rows, dtype=np.int64).reshape(-1, 4)
    lo, hi, core, write = spans[spans[:, 0].argsort(kind="stable")].T
    mine = core == np.arange(n_cores)[:, None]  # (cores, ranges)
    ends = np.where(mine, hi, -1)
    reach = np.maximum.accumulate(
        np.stack([ends, np.where(write == 1, ends, -1)]), axis=2
    )[:, :, :-1] >= lo[1:]  # [any, write] range of core c reaches it
    if ((reach[1] | (reach[0] & (write[1:] == 1))) & ~mine[:, 1:]).any():
        raise LockstepBail(LS_TEAM_SHARED_DATA)


class LockstepSession:
    """N staged lane images, ready to run programs in lockstep.

    The chain driver stages each window's descriptor table once and
    then runs *both* programs (encode, then AM search) over the same
    lane images — data written by one program (the encoded query
    vectors) is visible to the next, exactly as on real memory.

    ``lane_writes`` supplies each lane's pre-run staging (address,
    bytes).  The images start from the cluster's *current* memory, up
    to ``ends`` (see :class:`LanedMemory`); the cluster's memory image
    is never written, but each :meth:`run` resets and advances its
    stall accumulator, as :meth:`Cluster.run` does.  :meth:`run`
    returns **per-lane**
    :class:`ClusterRunResult`\\ s (cycles and instruction counts may
    diverge between lanes once a predicated branch runs), or raises
    :class:`LockstepBail` — the caller then falls back to per-window
    scalar runs.
    """

    def __init__(
        self,
        cluster,
        lane_writes: Sequence[Sequence[Tuple[int, bytes]]],
        ends: Tuple[int, int],
    ):
        self.cluster = cluster
        self.n_lanes = len(lane_writes)
        self.lmem = LanedMemory(cluster.memory, self.n_lanes, ends)
        for lane, writes in enumerate(lane_writes):
            for addr, data in writes:
                self.lmem.write_lane_bytes(lane, addr, data)

    def run(self, program: Program) -> List[ClusterRunResult]:
        """Run ``program`` once per lane over the staged images."""
        from .runtime import runtime_costs

        cluster = self.cluster
        if program.profile_name != cluster.profile.name:
            raise ValueError(
                f"program was assembled for {program.profile_name!r}, "
                f"cluster is {cluster.profile.name!r}"
            )
        profile = cluster.profile
        lmem = self.lmem
        _LOCKSTEP_TELEMETRY["attempts"] += 1
        try:
            compiled = compile_program(program, profile)
            # Fresh-run semantics per program, mirroring Cluster.run:
            # conflict accumulator reset + fresh DMA engine.
            lmem.stalls.set_team_size(cluster.n_cores)
            dma = _LanedDMA(lmem, profile.dma_bytes_per_cycle)
            costs = runtime_costs(profile, cluster.n_cores)
            block_cache: dict = {}
            pred_cache: dict = {}
            states = [
                _LaneCore(
                    core_id,
                    profile,
                    compiled,
                    lmem,
                    dma,
                    cluster.n_cores,
                    costs.fork,
                    block_cache,
                    pred_cache,
                    cluster.cores[core_id].max_instructions,
                )
                for core_id in range(cluster.n_cores)
            ]
            for state in states if len(states) > 1 else ():  # a team
                state.parks, state.touched = True, []
            for state in states[1:]:
                state.deferred_l1, state.dma = 0, None
            dma.touched = states[0].touched

            n_barriers = 0
            barrier_cycles_total = 0
            footprints: list = []
            while True:
                reasons = (
                    self._team_segment(states, footprints, n_barriers << 33)
                    if len(states) > 1
                    else [states[0].dispatch_segment()]
                )
                if all(reason == STOP_HALT for reason in reasons):
                    if footprints:
                        _check_disjoint(footprints, len(states))
                    break
                if any(reason == STOP_HALT for reason in reasons):
                    raise LockstepBail(LS_STOP_DISAGREEMENT)
                n_barriers += 1
                synced = states[0].cycles
                for state in states[1:]:
                    synced = np.maximum(synced, state.cycles)
                synced = synced + costs.barrier
                barrier_cycles_total += costs.barrier
                for state in states:
                    # Per-state copies: later in-place `+=` on a shared
                    # lane array would corrupt the other cores.
                    state.cycles = (
                        synced.copy()
                        if isinstance(synced, np.ndarray)
                        else int(synced)
                    )

            results = []
            for lane in range(self.n_lanes):
                per_core_cycles = tuple(
                    _lane_val(state.cycles, lane) for state in states
                )
                results.append(
                    ClusterRunResult(
                        program_name=program.name,
                        n_cores=cluster.n_cores,
                        total_cycles=max(per_core_cycles) + costs.join,
                        per_core_cycles=per_core_cycles,
                        per_core_instrs=tuple(
                            _lane_val(state.instr_count, lane)
                            for state in states
                        ),
                        n_barriers=n_barriers,
                        fork_cycles=costs.fork,
                        join_cycles=costs.join,
                        barrier_cycles=barrier_cycles_total,
                        dma_bytes=dma.total_bytes,
                    )
                )
        except LockstepBail as bail:
            _LOCKSTEP_TELEMETRY["bails"][bail.reason] += 1
            raise
        _LOCKSTEP_TELEMETRY["runs"] += 1
        _LOCKSTEP_TELEMETRY["lanes"] += self.n_lanes
        return results

    def _team_segment(self, states, footprints: list, offset: int) -> list:
        """Run a team to its next barrier or halt; the stop reasons.

        Cores step in core order, each to its next park point (see
        :meth:`DispatchCore._engage`), barrier or halt.  Cores parked at
        one loop plan run it as one fused vector run; a core parked
        alone, or whose fused run bailed, runs it alone.  Each later
        core's L1 conflict carries are charged here, in core order; if
        cores ran interleaved, their footprints join ``footprints``
        (ranges moved up by ``offset``) for :func:`_check_disjoint`.
        """
        steps = [state.segment_steps() for state in states]
        replies: List = [None] * len(states)
        stops: List = [None] * len(states)
        ready = range(len(states))
        interleaved = False
        while ready:
            parked: Dict[int, tuple] = {}
            for k in ready:
                try:
                    plan, trips = steps[k].send(replies[k])
                except StopIteration as stop:
                    stops[k] = stop.value
                else:
                    parked.setdefault(id(plan), (plan, []))[1].append(
                        (states[k], trips)
                    )
            ready = []
            for plan, members in parked.values():
                interleaved = True
                fused = len(members) > 1 and _run_team(plan, members)
                for state, trips in members:
                    replies[state.core_id] = fused or state._try_vector(
                        plan, trips
                    )
                    ready.append(state.core_id)
            ready.sort()
        for state in states[1:]:
            state.cycles += self.lmem.stalls.bulk_stalls(state.deferred_l1, 0)
            state.deferred_l1 = 0
        for state in states:
            for lo, hi, write, elems, width in (
                state.touched if interleaved else ()
            ):
                size = hi - lo if elems is None else width - 1
                for start in [lo] if elems is None else elems.tolist():
                    footprints += (offset + start, offset + start + size,
                                   state.core_id, write)
            state.touched.clear()
        return stops

    def read_word(self, lane: int, addr: int) -> int:
        """Read one 32-bit word from a lane's current image."""
        return self.lmem.read_lane_word(lane, addr)

    def lane_image(self, lane: int) -> LaneImage:
        """Snapshot a lane's current memory image."""
        return self.lmem.lane_image(lane)
