"""Block-compiled + loop-vectorizing fast-path engine for the ISS.

The per-instruction interpreter in :mod:`repro.pulp.core` is the
reference oracle; this module is the production engine.  It executes the
same pre-decoded programs with identical architectural results (registers,
memory, ``cycles``, ``instr_count``) through two accelerating layers:

1. **Block compilation** — the program is split into basic blocks
   (:func:`repro.pulp.assembler.basic_blocks`); each straight-line block
   is compiled once into a single Python closure with its constant cycle
   cost folded in, so the dispatch loop pays per *block* instead of per
   instruction.  Control flow, synchronization, and DMA remain
   interpreted at block boundaries, mirroring the oracle exactly.

2. **Loop vectorization** — the regular SPMD word loops the kernels emit
   (``lp.setup`` bodies and backward-branch self-loops whose memory
   accesses are strided and whose control flow is trip-count-only) are
   recognized at compile time.  At run time all trips execute as one
   batched NumPy pass: registers become length-``T`` lane arrays over the
   trip space, loads/stores become gathers/scatters over
   :class:`~repro.pulp.memory.MemorySystem` views, reductions fold in
   closed form, and cycle/stall totals are computed in closed form
   through :meth:`MemorySystem.bulk_stalls`.  Nested inner loops with
   lane-invariant trip counts are unrolled inside the pass, which is what
   lets the three-level bit-serial majority nests vectorize whole.

Whenever a loop does anything the vector model cannot reproduce
bit-exactly (cross-lane aliasing, lane-divergent control flow, region
straddling, duplicate store addresses, nesting-depth violations, runaway
trip counts), the engine *bails out before any state is mutated* and the
loop runs through the block path instead — so the fast path is total:
every program executes, and executes identically to the oracle.

**The unified dispatch core.**  The dispatch loop itself — block-plan
gating, terminator dispatch (branches, jumps, hardware loops, DMA,
barrier/halt), and cycle charging — lives once, in
:class:`repro.pulp.dispatch.DispatchCore`.  :class:`FastCore` is its
scalar (lanes = 1) instantiation: its hook overrides read registers as
plain ints, synthesize sub-blocks for computed jumps into block
interiors, and hand off to the interpreter at the instruction cap.  The
window-laned engine (:mod:`repro.pulp.lockstep`) instantiates the same
loop with lane-array registers, uniformity proofs where the loop needs
a scalar, and predicated execution of short divergent forward branches
— so the two engines cannot drift: there is no second terminator-
dispatch body to keep in sync.  What stays per-engine here is purely
scalar semantics: segment-closure compilation (shared with the laned
block path via :func:`_compile_seg`), the interpreter hand-off, and the
per-access stall accounting.

Differential parity is enforced by ``tests/pulp/test_fastpath*.py``:
random-program fuzzing plus every kernel × profile × core-count
configuration, comparing registers, memory images, cycles, and
instruction counts between the two engines.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hdc.bitpack import _popcount_array
from .assembler import Program
from .core import (
    ExecutionError,
    Core,
    _signed,
    predecode,
)
# The opcode tables, telemetry counters, trip solver, and the one
# dispatch loop live in repro.pulp.dispatch (shared with the lockstep
# engine); they are re-exported here so existing imports keep working.
from .dispatch import (  # noqa: F401 - re-exported shared definitions
    DispatchCore,
    MAX_VECTOR_TRIPS,
    REASON_CARRIED_REGISTER,
    REASON_DIVERGENT_BRANCH,
    REASON_DIVERGENT_TRIP_COUNT,
    REASON_DUPLICATE_STORE_LANES,
    REASON_GATHER_SPAN,
    REASON_INSTRUCTION_CAP,
    REASON_LOAD_STORE_OVERLAP,
    REASON_LOOP_DEPTH,
    REASON_REDUCTION_IN_CONDITION,
    REASON_REGION_SPAN,
    REASON_RUNAWAY_INNER_LOOP,
    REASON_STORE_OVERLAP,
    REASON_UNALIGNED_ACCESS,
    _Bail,
    _BRANCH_OPS,
    _LOAD_OPS,
    _MASK32,
    _MEM_WIDTH,
    _OP_ADD,
    _OP_ADDI,
    _OP_AND,
    _OP_ANDI,
    _OP_BARRIER,
    _OP_BEQ,
    _OP_BFI,
    _OP_BGEU,
    _OP_BLT,
    _OP_BLTU,
    _OP_BNE,
    _OP_CNT,
    _OP_DMA_COPY,
    _OP_DMA_WAIT,
    _OP_EXTRACTU,
    _OP_HALT,
    _OP_INSERT,
    _OP_J,
    _OP_JAL,
    _OP_JR,
    _OP_LBU,
    _OP_LHU,
    _OP_LI,
    _OP_LPSETUP,
    _OP_LW,
    _OP_LW_POST,
    _OP_MUL,
    _OP_MULH,
    _OP_MV,
    _OP_NOP,
    _OP_OR,
    _OP_ORI,
    _OP_SB,
    _OP_SH,
    _OP_SLL,
    _OP_SLLI,
    _OP_SLT,
    _OP_SLTI,
    _OP_SLTIU,
    _OP_SLTU,
    _OP_SRA,
    _OP_SRAI,
    _OP_SRL,
    _OP_SRLI,
    _OP_SUB,
    _OP_SW,
    _OP_SW_POST,
    _OP_UBFX,
    _OP_XOR,
    _OP_XORI,
    _REDUCIBLE_OPS,
    _TELEMETRY,
    _base_cost,
    _reads_writes,
)
from .isa import ArchProfile


# ---------------------------------------------------------------------------
# Block compilation: one Python closure per straight-line block.
# ---------------------------------------------------------------------------


#: Memo of compiled straight-line closures keyed by (profile name,
#: decoded instruction tuples).  Kernel generators rebuild structurally
#: identical programs for every machine configuration, so identical
#: blocks recur often and exec() is by far the dominant compile cost.
#: Both memos are cleared wholesale at _MEMO_LIMIT entries to bound
#: memory when many distinct programs stream through one process.
_STRAIGHT_MEMO: Dict[tuple, object] = {}
_MEMO_LIMIT = 4096


def _compile_straight(decoded, start: int, end: int, profile: ArchProfile):
    """Compile ``decoded[start:end]`` (no control flow) into a closure.

    The closure ``f(regs, mem) -> cycles`` applies all architectural
    effects and returns the segment's cycle cost (constant base cost +
    dynamic memory stalls).  Returns ``None`` for an empty segment.
    """
    if end <= start:
        return None
    memo_key = (profile.name, tuple(decoded[start:end]))
    cached = _STRAIGHT_MEMO.get(memo_key)
    if cached is not None:
        return cached
    lines: List[str] = []
    base = 0
    has_mem = False

    def r(reg: int) -> str:  # read expression
        return "0" if reg == 0 else f"regs[{reg}]"

    for pc in range(start, end):
        ins = decoded[pc]
        op, rd, ra, rb, imm, imm2 = ins[0], ins[1], ins[2], ins[3], ins[4], ins[5]
        base += _base_cost(op, profile)
        dst = f"regs[{rd}]"
        drop = rd == 0  # r0 stays hardwired to zero
        if op == _OP_ADD:
            expr = f"({r(ra)} + {r(rb)}) & M"
        elif op == _OP_SUB:
            expr = f"({r(ra)} - {r(rb)}) & M"
        elif op == _OP_AND:
            expr = f"{r(ra)} & {r(rb)}"
        elif op == _OP_OR:
            expr = f"{r(ra)} | {r(rb)}"
        elif op == _OP_XOR:
            expr = f"{r(ra)} ^ {r(rb)}"
        elif op == _OP_SLL:
            expr = f"({r(ra)} << ({r(rb)} & 31)) & M"
        elif op == _OP_SRL:
            expr = f"{r(ra)} >> ({r(rb)} & 31)"
        elif op == _OP_SRA:
            expr = f"(_sgn({r(ra)}) >> ({r(rb)} & 31)) & M"
        elif op == _OP_SLT:
            expr = f"1 if _sgn({r(ra)}) < _sgn({r(rb)}) else 0"
        elif op == _OP_SLTU:
            expr = f"1 if {r(ra)} < {r(rb)} else 0"
        elif op == _OP_ADDI:
            expr = f"({r(ra)} + {imm}) & M"
        elif op == _OP_ANDI:
            expr = f"{r(ra)} & {imm & _MASK32}"
        elif op == _OP_ORI:
            expr = f"{r(ra)} | {imm & _MASK32}"
        elif op == _OP_XORI:
            expr = f"{r(ra)} ^ {imm & _MASK32}"
        elif op == _OP_SLLI:
            expr = f"({r(ra)} << {imm & 31}) & M"
        elif op == _OP_SRLI:
            expr = f"{r(ra)} >> {imm & 31}"
        elif op == _OP_SRAI:
            expr = f"(_sgn({r(ra)}) >> {imm & 31}) & M"
        elif op == _OP_SLTI:
            expr = f"1 if _sgn({r(ra)}) < {imm} else 0"
        elif op == _OP_SLTIU:
            expr = f"1 if {r(ra)} < {imm & _MASK32} else 0"
        elif op == _OP_LI:
            expr = f"{imm & _MASK32}"
        elif op == _OP_MV:
            expr = r(ra)
        elif op == _OP_NOP:
            continue
        elif op == _OP_MUL:
            expr = f"({r(ra)} * {r(rb)}) & M"
        elif op == _OP_MULH:
            expr = f"((_sgn({r(ra)}) * _sgn({r(rb)})) >> 32) & M"
        elif op == _OP_CNT:
            expr = f'bin({r(ra)}).count("1")'
        elif op in (_OP_EXTRACTU, _OP_UBFX):
            expr = f"({r(ra)} >> {imm}) & {(1 << imm2) - 1}"
        elif op in (_OP_INSERT, _OP_BFI):
            mask = ((1 << imm2) - 1) << imm
            expr = (
                f"({r(rd)} & {~mask & _MASK32}) | "
                f"(({r(ra)} << {imm}) & {mask})"
            )
        elif op in (_OP_LW, _OP_LBU, _OP_LHU):
            fn = {_OP_LW: "load_word", _OP_LBU: "load_byte",
                  _OP_LHU: "load_half"}[op]
            has_mem = True
            lines.append(f"    _v, _s = mem.{fn}(({r(ra)} + {imm}) & M)")
            lines.append("    c += _s")
            if not drop:
                lines.append(f"    {dst} = _v")
            continue
        elif op == _OP_LW_POST:
            has_mem = True
            lines.append(f"    _a = {r(ra)}")
            lines.append("    _v, _s = mem.load_word(_a)")
            lines.append("    c += _s")
            if not drop:
                lines.append(f"    {dst} = _v")
            if ra != 0:
                lines.append(f"    regs[{ra}] = (_a + {imm}) & M")
            continue
        elif op in (_OP_SW, _OP_SB, _OP_SH):
            fn = {_OP_SW: "store_word", _OP_SB: "store_byte",
                  _OP_SH: "store_half"}[op]
            has_mem = True
            lines.append(
                f"    c += mem.{fn}(({r(ra)} + {imm}) & M, {r(rd)})"
            )
            continue
        elif op == _OP_SW_POST:
            has_mem = True
            lines.append(f"    _a = {r(ra)}")
            lines.append(f"    c += mem.store_word(_a, {r(rd)})")
            if ra != 0:
                lines.append(f"    regs[{ra}] = (_a + {imm}) & M")
            continue
        else:  # pragma: no cover - control ops never reach here
            raise ExecutionError(f"control opcode {op} in straight segment")
        if not drop:
            lines.append(f"    {dst} = {expr}")

    header = ["def _blk(regs, mem):"]
    if has_mem:
        header.append("    c = 0")
        lines.append(f"    return c + {base}")
    else:
        lines.append(f"    return {base}")
    src = "\n".join(header + lines)
    namespace = {"M": _MASK32, "_sgn": _signed}
    exec(src, namespace)  # noqa: S102 - compiling our own assembler output
    closure = namespace["_blk"]
    if len(_STRAIGHT_MEMO) >= _MEMO_LIMIT:
        _STRAIGHT_MEMO.clear()
    _STRAIGHT_MEMO[memo_key] = closure
    return closure


_LAZY = object()
"""Sentinel: this block's closure has not been compiled yet."""


@dataclass
class CompiledBlock:
    """One basic block: compiled straight-line prefix + raw terminator."""

    start: int
    end: int
    terminator: Optional[int]
    closure: object  # f(regs, mem) -> cycles, None when empty, or _LAZY
    n_straight: int


# ---------------------------------------------------------------------------
# Loop structure discovery (compile time).
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Fast-path telemetry (debug API).
# ---------------------------------------------------------------------------
#
# Lightweight process-wide counters — a handful of integer increments per
# plan engagement or bail, nothing on the per-instruction path — that make
# kernel-emitter perf regressions visible: a restructured emitter that
# stops vectorizing shows up as a bail reason, not just as a silent
# wall-clock drift.  ``benchmarks/bench_iss_engine.py`` publishes them
# next to the engine speed-up.  The counters themselves live in
# :mod:`repro.pulp.dispatch` (``_TELEMETRY``) so both engines share
# one set; this module provides the snapshot API.


@dataclass(frozen=True)
class FastPathTelemetry:
    """Immutable snapshot of the fast path's engagement counters."""

    engaged: Dict[tuple, int]
    trips: Dict[tuple, int]
    bails: Dict[str, int]
    plan_bails: Dict[tuple, int]
    compile_rejects: Dict[str, int]

    @property
    def total_engagements(self) -> int:
        """Vectorized loop executions across all plans."""
        return sum(self.engaged.values())

    @property
    def total_trips(self) -> int:
        """Loop trips executed through the vector path."""
        return sum(self.trips.values())

    @property
    def total_bails(self) -> int:
        """Vector attempts abandoned to the block path."""
        return sum(self.bails.values())


def fastpath_telemetry() -> FastPathTelemetry:
    """Snapshot the process-wide fast-path counters."""
    return FastPathTelemetry(
        engaged=dict(_TELEMETRY["engaged"]),
        trips=dict(_TELEMETRY["trips"]),
        bails=dict(_TELEMETRY["bails"]),
        plan_bails=dict(_TELEMETRY["plan_bails"]),
        compile_rejects=dict(_TELEMETRY["compile_rejects"]),
    )


def reset_fastpath_telemetry() -> None:
    """Zero all fast-path counters (start of a measured run)."""
    for counter in _TELEMETRY.values():
        counter.clear()


@dataclass(frozen=True)
class _InnerHw:
    """A nested hardware loop inside a vectorized region."""

    setup: int
    units: tuple


@dataclass(frozen=True)
class _InnerBranch:
    """A nested backward-branch do-while loop inside a region."""

    units: tuple
    branch: int


def _unit_start(unit) -> int:
    if isinstance(unit, int):
        return unit
    if isinstance(unit, _InnerHw):
        return unit.setup
    return _unit_start(unit.units[0]) if unit.units else unit.branch


def _hw_depth(units) -> int:
    depth = 0
    for unit in units:
        if isinstance(unit, _InnerHw):
            depth = max(depth, 1 + _hw_depth(unit.units))
        elif isinstance(unit, _InnerBranch):
            depth = max(depth, _hw_depth(unit.units))
    return depth


def _parse_region(decoded, lo: int, hi: int) -> tuple:
    """Parse [lo, hi) into a unit tree; raise :class:`_Bail` if the
    region contains control flow beyond nested counted loops."""
    units: List = []
    pending: List[Tuple[int, int, List]] = []  # (setup pc, end pc, units)
    pc = lo
    while pc < hi:
        while pending and pending[-1][1] == pc:
            setup, _, sub = pending.pop()
            target = pending[-1][2] if pending else units
            target.append(_InnerHw(setup=setup, units=tuple(sub)))
        cur = pending[-1][2] if pending else units
        ins = decoded[pc]
        op = ins[0]
        if op == _OP_LPSETUP:
            end = ins[6]
            if not (pc + 1 < end < hi):
                raise _Bail
            pending.append((pc, end, []))
            pc += 1
            continue
        if op in _BRANCH_OPS:
            tgt = ins[6]
            if tgt > pc:
                raise _Bail  # forward (exit) branches unsupported
            if pending and tgt <= pending[-1][0]:
                raise _Bail  # branch crossing a hardware-loop boundary
            sub: List = []
            while cur and _unit_start(cur[-1]) >= tgt:
                sub.append(cur.pop())
            sub.reverse()
            if not sub or _unit_start(sub[0]) != tgt:
                raise _Bail
            cur.append(_InnerBranch(units=tuple(sub), branch=pc))
            pc += 1
            continue
        if op in (_OP_J, _OP_JAL, _OP_JR, _OP_BARRIER, _OP_HALT,
                  _OP_DMA_COPY, _OP_DMA_WAIT):
            raise _Bail
        cur.append(pc)
        pc += 1
    while pending and pending[-1][1] == pc:
        # closes exactly at hi — disallowed (shared boundary with region)
        raise _Bail
    if pending:
        raise _Bail
    return tuple(units)


def _unit_liveness(decoded, units, branch: Optional[int] = None):
    """(exposed reads, all writes) of a unit body treated linearly."""
    exposed: set = set()
    writes: set = set()
    defined: set = set()
    for unit in units:
        if isinstance(unit, int):
            reads, wr = _reads_writes(decoded[unit])
            for reg in reads:
                if reg and reg not in defined:
                    exposed.add(reg)
            for reg in wr:
                if reg:
                    defined.add(reg)
                    writes.add(reg)
        elif isinstance(unit, _InnerBranch):
            sub_exposed, sub_writes = _unit_liveness(
                decoded, unit.units, unit.branch
            )
            exposed |= sub_exposed - defined
            writes |= sub_writes
            defined |= sub_writes  # a do-while body runs at least once
        else:  # _InnerHw: body may run zero times
            ra = decoded[unit.setup][2]
            if ra and ra not in defined:
                exposed.add(ra)
            sub_exposed, sub_writes = _unit_liveness(decoded, unit.units)
            exposed |= sub_exposed - defined
            writes |= sub_writes  # writes happen, but are not guaranteed
    if branch is not None:
        reads, _ = _reads_writes(decoded[branch])
        for reg in reads:
            if reg and reg not in defined:
                exposed.add(reg)
    return exposed, writes


def _collect_write_sites(decoded, units, top: bool, sites: Dict[int, list]):
    for unit in units:
        if isinstance(unit, int):
            _, wr = _reads_writes(decoded[unit])
            for reg in wr:
                if reg:
                    sites.setdefault(reg, []).append((unit, top))
        else:  # _InnerBranch / _InnerHw: nested writes are never "top"
            _collect_write_sites(decoded, unit.units, False, sites)


def _collect_read_counts(decoded, units, counts: Dict[int, list],
                         branch: Optional[int] = None):
    for unit in units:
        if isinstance(unit, int):
            reads, _ = _reads_writes(decoded[unit])
            for reg in reads:
                if reg:
                    counts.setdefault(reg, []).append(unit)
        elif isinstance(unit, _InnerBranch):
            _collect_read_counts(decoded, unit.units, counts, unit.branch)
        else:
            ra = decoded[unit.setup][2]
            if ra:
                counts.setdefault(ra, []).append(unit.setup)
            _collect_read_counts(decoded, unit.units, counts)
    if branch is not None:
        reads, _ = _reads_writes(decoded[branch])
        for reg in reads:
            if reg:
                counts.setdefault(reg, []).append(branch)


@dataclass(frozen=True)
class LoopPlan:
    """A vectorizable loop: structure + carried-register classification."""

    kind: str  # "hw" (lp.setup body) or "branch" (backward self-loop)
    head: int  # engage point: lp.setup pc (hw) / loop head pc (branch)
    units: tuple
    exit_pc: int
    branch_pc: Optional[int]  # the outer backward branch (branch kind)
    inductions: Dict[int, int]  # reg -> net signed step per iteration
    reduction_pcs: Dict[int, Tuple[int, int, int]]  # pc -> (reg, op, src)
    reduction_regs: frozenset
    written_regs: frozenset  # every register written anywhere in the body
    live_in: frozenset  # registers the body may read before writing them
    hw_depth: int  # nested hardware-loop levels, incl. the outer hw loop
    exec_nodes: tuple  # prepared execution tree (see _prepare_units)


def _classify_region(decoded, units, branch_pc: Optional[int]):
    """Classify carried registers; raise :class:`_Bail` when a carried
    register is neither induction, reduction, nor privatizable temp."""
    # Exposed reads at the outer level = possibly loop-carried registers.
    exposed, _ = _unit_liveness(decoded, units, branch_pc)
    write_sites: Dict[int, list] = {}
    _collect_write_sites(decoded, units, True, write_sites)
    read_sites: Dict[int, list] = {}
    _collect_read_counts(decoded, units, read_sites, branch_pc)

    inductions: Dict[int, int] = {}
    reduction_pcs: Dict[int, Tuple[int, int, int]] = {}
    for reg in sorted(exposed):
        sites = write_sites.get(reg)
        if not sites:
            continue  # read-only: invariant across trips
        step = 0
        is_induction = True
        for pc, top in sites:
            ins = decoded[pc]
            op, rd, ra, imm = ins[0], ins[1], ins[2], ins[4]
            if not top:
                is_induction = False
                break
            if op == _OP_ADDI and rd == reg and ra == reg:
                step += imm
            elif op in (_OP_LW_POST, _OP_SW_POST) and ra == reg and (
                op == _OP_SW_POST or rd != reg
            ):
                step += imm
            else:
                is_induction = False
                break
        if is_induction:
            inductions[reg] = step
            continue
        # Reduction: a single `op reg, reg, x` with x independent, and no
        # other read of reg anywhere in the body.
        if len(sites) == 1:
            pc, _top = sites[0]
            ins = decoded[pc]
            op, rd, ra, rb = ins[0], ins[1], ins[2], ins[3]
            if (
                op in _REDUCIBLE_OPS
                and rd == reg
                and (ra == reg) != (rb == reg)
                and len(read_sites.get(reg, ())) == 1
                and read_sites[reg][0] == pc
            ):
                src = rb if ra == reg else ra
                reduction_pcs[pc] = (reg, op, src)
                continue
        raise _Bail(REASON_CARRIED_REGISTER)
    # Outer-branch condition registers must be solvable for a trip count.
    if branch_pc is not None:
        ins = decoded[branch_pc]
        ra, rb = ins[2], ins[3]
        red = frozenset(r for r, _, _ in reduction_pcs.values())
        for reg in (ra, rb):
            if reg in red:
                raise _Bail(REASON_REDUCTION_IN_CONDITION)
    return (
        inductions, reduction_pcs, frozenset(write_sites), frozenset(exposed)
    )


#: Memo of compiled symbolic segments keyed by their prepared
#: instruction tuples (segment semantics are profile-independent — the
#: cycle costs live in the execution node, not the closure).
_SEG_MEMO: Dict[tuple, object] = {}


def _compile_seg(instrs):
    """Compile one straight symbolic segment into a generated closure.

    The closure ``f(sym, load, store, T)`` applies the segment's lane
    semantics over the symbolic register file — one generated line per
    instruction, mirroring the oracle's per-op semantics for both
    scalar (python int) and lane-array (uint64 ndarray) operands.
    ``load``/``store`` are the :class:`_VectorRun` memory hooks (which
    defer stores and count stalls); ``T`` the lane count for reduction
    feeds.  Returns ``None`` for a segment with no effect (all nops).
    """
    cached = _SEG_MEMO.get(instrs)
    if cached is not None:
        return cached
    lines: List[str] = []
    for op, rd, ra, rb, imm, immM, imm2, red in instrs:
        a = "0" if ra == 0 else f"sym[{ra}]"
        b = "0" if rb == 0 else f"sym[{rb}]"
        dst = f"sym[{rd}]"
        drop = rd == 0
        if red is not None:
            reg, _rop, src = red
            value = "0" if src == 0 else f"sym[{src}]"
            lines.append(f"    sym[{reg}].feed({value}, T)")
            continue
        if op == _OP_ADD:
            expr = f"({a} + {b}) & M"
        elif op == _OP_ADDI:
            expr = f"({a} + {immM}) & M"
        elif op == _OP_XOR:
            expr = f"{a} ^ {b}"
        elif op == _OP_AND:
            expr = f"{a} & {b}"
        elif op == _OP_OR:
            expr = f"{a} | {b}"
        elif op == _OP_SUB:
            expr = f"({a} - {b}) & M"
        elif op == _OP_SRL:
            expr = f"{a} >> ({b} & 31)"
        elif op == _OP_SLL:
            expr = f"({a} << ({b} & 31)) & M"
        elif op == _OP_SRLI:
            expr = f"{a} >> {imm & 31}"
        elif op == _OP_SLLI:
            expr = f"({a} << {imm & 31}) & M"
        elif op == _OP_ANDI:
            expr = f"{a} & {immM}"
        elif op == _OP_ORI:
            expr = f"{a} | {immM}"
        elif op == _OP_XORI:
            expr = f"{a} ^ {immM}"
        elif op == _OP_SLTU:
            expr = f"_b01({a} < {b})"
        elif op == _OP_SLT:
            expr = f"_b01(_sgn_v({a}) < _sgn_v({b}))"
        elif op == _OP_SLTI:
            expr = f"_b01(_sgn_v({a}) < {imm})"
        elif op == _OP_SLTIU:
            expr = f"_b01({a} < {immM})"
        elif op == _OP_SRA:
            expr = f"_u64((_sgn_v({a}) >> _sh31({b})) & M)"
        elif op == _OP_SRAI:
            expr = f"_u64((_sgn_v({a}) >> {imm & 31}) & M)"
        elif op == _OP_LI:
            expr = f"{immM}"
        elif op == _OP_MV:
            expr = a
        elif op == _OP_NOP:
            continue
        elif op == _OP_MUL:
            expr = f"({a} * {b}) & M"
        elif op == _OP_MULH:
            expr = f"_u64((_sgn_v({a}) * _sgn_v({b}) >> 32) & M)"
        elif op == _OP_CNT:
            expr = f"_pcnt({a})"
        elif op == _OP_EXTRACTU or op == _OP_UBFX:
            expr = f"({a} >> {imm}) & {(1 << imm2) - 1}"
        elif op == _OP_INSERT or op == _OP_BFI:
            mask = ((1 << imm2) - 1) << imm
            expr = (
                f"({dst} & {~mask & _MASK32}) | (({a} << {imm}) & {mask})"
            )
        elif op == _OP_LW or op == _OP_LBU or op == _OP_LHU:
            expr = f"load(({a} + {immM}) & M, {_MEM_WIDTH[op]})"
        elif op == _OP_LW_POST:
            lines.append(f"    _a = {a}")
            # Value first, post-increment second: when rd == ra the
            # increment overwrites the load, as in the oracle.
            if drop:
                lines.append("    load(_a, 4)")
            else:
                lines.append(f"    {dst} = load(_a, 4)")
            if ra:
                lines.append(f"    sym[{ra}] = (_a + {immM}) & M")
            continue
        elif op == _OP_SW or op == _OP_SB or op == _OP_SH:
            rv = "0" if rd == 0 else dst
            lines.append(
                f"    store(({a} + {immM}) & M, {rv}, {_MEM_WIDTH[op]})"
            )
            continue
        elif op == _OP_SW_POST:
            rv = "0" if rd == 0 else dst
            lines.append(f"    _a = {a}")
            lines.append(f"    store(_a, {rv}, 4)")
            if ra:
                lines.append(f"    sym[{ra}] = (_a + {immM}) & M")
            continue
        else:  # pragma: no cover - parse rejects control opcodes
            raise _Bail
        if drop:
            # Loads to r0 still access memory; pure ALU into r0 is dead.
            if op in _LOAD_OPS:
                lines.append(f"    {expr}")
            continue
        lines.append(f"    {dst} = {expr}")
    if not lines:
        return None
    src = "\n".join(["def _seg(sym, load, store, T):"] + lines)
    namespace = {
        "M": _MASK32,
        "_sgn_v": _sgn_v,
        "_u64": _u64,
        "_pcnt": _popcount_v,
        "_b01": _bool01,
        "_sh31": _sh31,
    }
    exec(src, namespace)  # noqa: S102 - compiling our own assembler output
    closure = namespace["_seg"]
    if len(_SEG_MEMO) >= _MEMO_LIMIT:
        _SEG_MEMO.clear()
    _SEG_MEMO[instrs] = closure
    return closure


def _prepare_units(decoded, units, profile, reduction_pcs):
    """Lower a unit tree into the runtime execution-node form.

    Straight runs of instructions become ``("seg", closure, count,
    cost)`` nodes whose instruction count and base cycle cost are folded
    to constants and whose semantics are compiled by
    :func:`_compile_seg`; nested loops become ``("bl", nodes, (op, ra,
    rb))`` and ``("hw", nodes, trip_reg)`` nodes.
    """
    nodes: List[tuple] = []
    seg: List[tuple] = []
    seg_cost = 0

    def flush():
        nonlocal seg_cost
        if seg:
            # Mutable node: [kind, closure, count, cost, instrs, hits].
            # The closure starts unset and is JIT-compiled by run_nodes
            # once the segment proves hot (second execution) — cold
            # segments are interpreted and never pay the exec() cost.
            nodes.append(["seg", None, len(seg), seg_cost, tuple(seg), 0])
            seg.clear()
            seg_cost = 0

    for unit in units:
        if isinstance(unit, int):
            ins = decoded[unit]
            op = ins[0]
            seg.append(
                (
                    op, ins[1], ins[2], ins[3], ins[4],
                    ins[4] & _MASK32, ins[5],
                    reduction_pcs.get(unit),
                )
            )
            seg_cost += _base_cost(op, profile)
        elif isinstance(unit, _InnerBranch):
            flush()
            ins = decoded[unit.branch]
            nodes.append(
                (
                    "bl",
                    _prepare_units(
                        decoded, unit.units, profile, reduction_pcs
                    ),
                    (ins[0], ins[2], ins[3]),
                )
            )
        else:  # _InnerHw
            flush()
            nodes.append(
                (
                    "hw",
                    _prepare_units(
                        decoded, unit.units, profile, reduction_pcs
                    ),
                    decoded[unit.setup][2],
                )
            )
    flush()
    return tuple(nodes)


#: Memo of loop-plan *bodies* keyed by (profile name, plan kind,
#: pc-normalized region instructions).  The kernel generators rebuild
#: structurally identical loops at different addresses for every machine
#: configuration and program; with branch/loop targets rebased relative
#: to the region head, the expensive analysis (_parse_region /
#: _classify_region / _prepare_units) runs once per distinct loop shape
#: instead of once per program.  Rejections memoize too (as the bail
#: reason string) so hopeless shapes are not re-analyzed; telemetry
#: still counts every compile-time reject per program.
_PLAN_MEMO: Dict[tuple, object] = {}


def _rebased_region(decoded, lo: int, hi: int, branch_pc: Optional[int]):
    """The region's instructions with control targets made head-relative.

    Returns a list usable both as the position-independent memo key and
    as the instruction sequence the plan analysis runs on (indices
    0 .. hi−lo−1, with the outer branch appended at index hi−lo for
    branch-kind plans).
    """
    rebased = []
    for pc in range(lo, hi):
        ins = decoded[pc]
        op = ins[0]
        if op == _OP_LPSETUP or op in _BRANCH_OPS or op in (
            _OP_J, _OP_JAL
        ):
            rebased.append(ins[:6] + (ins[6] - lo,))
        else:
            rebased.append(ins)
    if branch_pc is not None:
        ins = decoded[branch_pc]
        rebased.append(ins[:6] + (ins[6] - lo,))
    return rebased


def _build_plan_body(region, kind, n: int, branch_rel, profile):
    """Analyze one pc-normalized region into the memoizable plan body."""
    units = _parse_region(region, 0, n)
    inductions, reduction_pcs, written, live_in = _classify_region(
        region, units, branch_rel
    )
    depth = _hw_depth(units) + (1 if kind == "hw" else 0)
    if depth > 2:
        raise _Bail(REASON_LOOP_DEPTH)  # the core supports two hw-loop levels
    return (
        units,
        inductions,
        reduction_pcs,
        frozenset(r for r, _, _ in reduction_pcs.values()),
        written,
        live_in,
        depth,
        _prepare_units(region, units, profile, reduction_pcs),
    )


def _build_plan(decoded, kind, head, lo, hi, exit_pc, branch_pc, profile):
    region = _rebased_region(decoded, lo, hi, branch_pc)
    key = (profile.name, kind, tuple(region))
    body = _PLAN_MEMO.get(key)
    if body is None:
        branch_rel = None if branch_pc is None else hi - lo
        try:
            body = _build_plan_body(
                region, kind, hi - lo, branch_rel, profile
            )
        except _Bail as bail:
            if len(_PLAN_MEMO) >= _MEMO_LIMIT:
                _PLAN_MEMO.clear()
            _PLAN_MEMO[key] = bail.reason
            raise
        if len(_PLAN_MEMO) >= _MEMO_LIMIT:
            _PLAN_MEMO.clear()
        _PLAN_MEMO[key] = body
    elif isinstance(body, str):
        raise _Bail(body)
    (
        units, inductions, reduction_pcs, reduction_regs, written,
        live_in, depth, exec_nodes,
    ) = body
    return LoopPlan(
        kind=kind,
        head=head,
        units=units,
        exit_pc=exit_pc,
        branch_pc=branch_pc,
        inductions=inductions,
        reduction_pcs=reduction_pcs,
        reduction_regs=reduction_regs,
        written_regs=written,
        live_in=live_in,
        hw_depth=depth,
        exec_nodes=exec_nodes,
    )


# ---------------------------------------------------------------------------
# Runtime vector execution.
# ---------------------------------------------------------------------------


def _sgn_v(value):
    """Signed view of a 32-bit value (scalar int or uint64 lane array)."""
    if isinstance(value, np.ndarray):
        s = value.astype(np.int64)
        return ((s + 0x8000_0000) & _MASK32) - 0x8000_0000
    return _signed(value)


def _u64(value):
    if isinstance(value, np.ndarray) and value.dtype != np.uint64:
        return value.astype(np.uint64)
    return value


def _popcount_v(value):
    if isinstance(value, np.ndarray):
        # Guarded helper: np.bitwise_count on numpy >= 2.0, byte LUT
        # below (the same fallback the HDC engine uses).
        return _popcount_array(value).astype(np.uint64)
    return bin(value).count("1")


def _bool01(cond):
    """Comparison result as a 0/1 value (scalar or lane array)."""
    if isinstance(cond, np.ndarray):
        return cond.astype(np.uint64)
    return int(cond)


def _sh31(value):
    """Shift amount (& 31) in a dtype valid for shifting signed values.

    NumPy refuses ``int64 >> uint64`` promotion, and a negative python
    scalar cannot shift by a uint64 array — so arithmetic-shift amounts
    are carried as int64.
    """
    if isinstance(value, np.ndarray):
        return (value & 31).astype(np.int64)
    return value & 31


def _seg_noop(sym, load, store, T):
    """Compiled form of an all-nop segment."""


def _cond_v(op, a, b):
    """Branch condition on scalar/lane values; bool or bool array."""
    if op == _OP_BEQ:
        return a == b
    if op == _OP_BNE:
        return a != b
    if op == _OP_BLTU:
        return a < b
    if op == _OP_BGEU:
        return a >= b
    sa, sb = _sgn_v(a), _sgn_v(b)
    if op == _OP_BLT:
        return sa < sb
    return sa >= sb  # _OP_BGE


class _Reduction:
    """Write-only accumulator for a reduction register during a pass."""

    __slots__ = ("op", "base", "acc", "parity_hits")

    def __init__(self, op: int, base: int):
        self.op = op
        self.base = base
        if op == _OP_ADD:
            self.acc = 0
        elif op == _OP_OR or op == _OP_XOR:
            self.acc = 0
        else:  # AND
            self.acc = _MASK32

    def feed(self, value, lanes: int) -> None:
        op = self.op
        if isinstance(value, np.ndarray):
            if op == _OP_ADD:
                self.acc = (self.acc + int(value.sum())) & _MASK32
            elif op == _OP_OR:
                self.acc |= int(np.bitwise_or.reduce(value))
            elif op == _OP_XOR:
                self.acc ^= int(np.bitwise_xor.reduce(value))
            else:
                self.acc &= int(np.bitwise_and.reduce(value))
        else:
            if op == _OP_ADD:
                self.acc = (self.acc + value * lanes) & _MASK32
            elif op == _OP_OR:
                self.acc |= value
            elif op == _OP_XOR:
                if lanes & 1:
                    self.acc ^= value
            else:
                self.acc &= value

    def fold(self) -> int:
        op = self.op
        if op == _OP_ADD:
            return (self.base + self.acc) & _MASK32
        if op == _OP_OR:
            return self.base | self.acc
        if op == _OP_XOR:
            return self.base ^ self.acc
        return self.base & self.acc


def _affine_stride(addr: np.ndarray):
    """Positive common stride of an affine address array, else ``None``."""
    if addr.size < 2:
        return None
    step = int(addr[1]) - int(addr[0])
    if step <= 0:
        return None
    deltas = addr[1:] - addr[:-1]
    # Exact for unsigned dtypes too: a descending pair wraps to a huge
    # delta that can never equal the positive 32-bit step.
    if (deltas == deltas.dtype.type(step)).all():
        return step
    return None


def _accesses_disjoint(addr_a, width_a, stride_a, addr_b, width_b, stride_b):
    """Whether two access sets with overlapping bounding intervals are
    provably byte-disjoint.

    The decidable-in-O(1) case is two affine sets on the same stride
    lattice (the kernels' row-strided lane sets): their byte footprints
    repeat with period ``s``, so a phase test on ``(base_a − base_b)
    mod s`` settles disjointness for every pair of elements at once.  A
    scalar access against an affine set uses the same phase test.
    Everything undecided returns False (the caller bails — exactly the
    pre-stride behaviour, so this is only ever *more* permissive).
    ``None`` stands for an address set with no affine representative
    (e.g. the lockstep engine's per-lane gathers): never provably
    disjoint.
    """
    if addr_a is None or addr_b is None:
        return False
    if isinstance(addr_a, np.ndarray):
        if stride_a is None:
            return False
        base_a = int(addr_a[0])
    else:
        base_a, stride_a = int(addr_a), None
    if isinstance(addr_b, np.ndarray):
        if stride_b is None:
            return False
        base_b = int(addr_b[0])
    else:
        base_b, stride_b = int(addr_b), None
    if stride_a is None and stride_b is None:
        return False  # two scalars with overlapping intervals do touch
    if stride_a is not None and stride_b is not None:
        if stride_a != stride_b:
            return False
        stride = stride_a
    else:
        stride = stride_a if stride_a is not None else stride_b
    if width_a > stride or width_b > stride:
        return False
    # Phase of set a relative to set b on the shared lattice: bytes
    # [d, d+width_a) of some period must miss [0, width_b) of the next.
    d = (base_a - base_b) % stride
    return d >= width_b and d + width_a <= stride


class _VectorRun:
    """One batched execution of a :class:`LoopPlan` over ``T`` trips.

    All architectural effects are *deferred* (stores, register
    write-back, stall accounting), so a :class:`_Bail` raised at any
    point leaves the core and memory untouched and the block path can
    re-execute the loop scalar.
    """

    def __init__(self, core: "FastCore", plan: LoopPlan, trips: int):
        self.core = core
        self.plan = plan
        self.trips = trips
        self.decoded = core.compiled.decoded
        self.profile = core.profile
        self.memory = core.memory
        self.n_l1 = 0
        self.n_l2 = 0
        self.base_cycles = 0
        self.n_instr = 0
        # (lo, hi, addrs, values, width, stride) deferred stores and
        # (lo, hi, addrs, width, stride) gathered-load footprints.
        self.stores: List[tuple] = []
        self.loads: List[tuple] = []
        self.budget = core.max_instructions - core.instr_count
        self._taken = 1 + core.profile.branch_taken_penalty
        self._not_taken = 1 + core.profile.branch_not_taken_penalty
        regs = core.regs
        T = trips
        sym: List = list(regs)
        sym[0] = 0
        lanes = np.arange(T, dtype=np.uint64)
        for reg, step in plan.inductions.items():
            if reg == 0:
                continue
            sym[reg] = (
                np.uint64(regs[reg]) + lanes * np.uint64(step & _MASK32)
            ) & np.uint64(_MASK32)
        for pc, (reg, op, _src) in plan.reduction_pcs.items():
            if reg:
                sym[reg] = _Reduction(op, regs[reg])
        self.sym = sym

    # -- helpers -----------------------------------------------------------

    def _check_no_store_overlap(
        self, lo: int, hi: int, addr=None, width: int = 0, stride=None
    ) -> None:
        """A load (or new store) range may not touch a deferred store.

        [lo, hi] is the access set's bounding interval; interval overlap
        alone is not disproof of disjointness, so overlapping intervals
        fall through to the exact (or stride-lattice) test — a
        row-strided lane set interleaves with its neighbour's interval
        while touching entirely different bytes.
        """
        for s_lo, s_hi, s_addr, _, s_width, s_stride in self.stores:
            if lo <= s_hi and s_lo <= hi and not _accesses_disjoint(
                addr, width, stride, s_addr, s_width, s_stride
            ):
                raise _Bail(REASON_STORE_OVERLAP)

    def _check_no_load_overlap(self, lo, hi, addr, width, stride) -> None:
        """A new store range may not touch any already-gathered load.

        This catches the *backward* cross-trip dependence (a load site
        earlier in the body reading what a later store site writes on a
        previous trip): the gather already consumed pre-loop memory for
        every lane, so committing an overlapping store would diverge
        from the oracle.  Bailing here discards the deferred state and
        reruns the loop through the block path.

        One overlap shape stays vectorizable: a per-lane read-modify-
        write, where the store's address array equals the load's
        element for element (same width).  Lanes are duplicate-free, so
        every lane touches only its own address and the within-trip
        load-before-store order means the gather's pre-loop values are
        exactly what the oracle reads.  A *scalar* address reused by
        both sites is loop-carried through memory and must still bail.
        """
        for l_lo, l_hi, l_addr, l_width, l_stride in self.loads:
            if lo <= l_hi and l_lo <= hi:
                if (
                    width == l_width
                    and isinstance(addr, np.ndarray)
                    and isinstance(l_addr, np.ndarray)
                    and np.array_equal(addr, l_addr)
                ):
                    continue
                if _accesses_disjoint(
                    addr, width, stride, l_addr, l_width, l_stride
                ):
                    continue
                raise _Bail(REASON_LOAD_STORE_OVERLAP)

    def _load(self, addr, width: int):
        memory = self.memory
        stride = None
        if isinstance(addr, np.ndarray):
            lo = int(addr.min())
            hi = int(addr.max()) + width - 1
            stride = _affine_stride(addr)
            self._check_no_store_overlap(lo, hi, addr, width, stride)
            gathered = memory.gather(addr, width)
            if gathered is None:
                raise _Bail(REASON_GATHER_SPAN)
            values, is_l1 = gathered
        else:
            addr = int(addr)
            lo, hi = addr, addr + width - 1
            if width > 1 and addr % width:
                raise _Bail(REASON_UNALIGNED_ACCESS)
            located = memory.locate_bulk(lo, hi)
            if located is None:
                raise _Bail(REASON_REGION_SPAN)
            is_l1 = located[0]
            self._check_no_store_overlap(lo, hi, addr, width, stride)
            values = int.from_bytes(
                memory.read_bytes(addr, width), "little"
            )
        self.loads.append((lo, hi, addr, width, stride))
        if is_l1:
            self.n_l1 += self.trips
        else:
            self.n_l2 += self.trips
        return values

    def _store(self, addr, value, width: int) -> None:
        memory = self.memory
        stride = None
        if isinstance(addr, np.ndarray):
            lo = int(addr.min())
            hi = int(addr.max()) + width - 1
            located = memory.locate_bulk(lo, hi)
            if located is None:
                raise _Bail(REASON_REGION_SPAN)
            if width > 1 and (addr % width).any():
                raise _Bail(REASON_UNALIGNED_ACCESS)
            stride = _affine_stride(addr)
            if stride is None and np.unique(addr).size != addr.size:
                # Duplicate lane addresses: order-dependent.
                raise _Bail(REASON_DUPLICATE_STORE_LANES)
            is_l1 = located[0]
            if not isinstance(value, np.ndarray):
                value = np.full(self.trips, value, dtype=np.uint64)
        else:
            addr = int(addr)
            lo, hi = addr, addr + width - 1
            if width > 1 and addr % width:
                raise _Bail(REASON_UNALIGNED_ACCESS)
            located = memory.locate_bulk(lo, hi)
            if located is None:
                raise _Bail(REASON_REGION_SPAN)
            is_l1 = located[0]
            if isinstance(value, np.ndarray):
                value = int(value[-1])  # last lane wins on one address
        self._check_no_store_overlap(lo, hi, addr, width, stride)
        self._check_no_load_overlap(lo, hi, addr, width, stride)
        self.stores.append((lo, hi, addr, value, width, stride))
        if is_l1:
            self.n_l1 += self.trips
        else:
            self.n_l2 += self.trips

    # -- execution ---------------------------------------------------------

    def run_nodes(self, nodes) -> None:
        T = self.trips
        sym = self.sym
        for node in nodes:
            kind = node[0]
            if kind == "seg":
                closure, count, cost = node[1], node[2], node[3]
                self.n_instr += count * T
                if self.n_instr > self.budget:
                    raise _Bail(REASON_INSTRUCTION_CAP)
                self.base_cycles += cost * T
                if closure is not None:
                    closure(sym, self._load, self._store, T)
                else:
                    node[5] += 1
                    if node[5] >= 2:
                        # Hot segment: compile once, reuse forever (the
                        # node is shared by every core and run).
                        closure = _compile_seg(node[4]) or _seg_noop
                        node[1] = closure
                        closure(sym, self._load, self._store, T)
                    else:
                        evaluate = self.eval_prepared
                        for prepared in node[4]:
                            evaluate(prepared)
            elif kind == "bl":
                _, body, (op, ra, rb) = node
                taken = self._taken
                not_taken = self._not_taken
                passes = 0
                while True:
                    passes += 1
                    if passes > MAX_VECTOR_TRIPS:
                        raise _Bail(REASON_RUNAWAY_INNER_LOOP)  # go scalar
                    self.run_nodes(body)
                    self.n_instr += T
                    if self.n_instr > self.budget:
                        raise _Bail(REASON_INSTRUCTION_CAP)
                    cond = _cond_v(
                        op,
                        sym[ra] if ra else 0,
                        sym[rb] if rb else 0,
                    )
                    if isinstance(cond, np.ndarray):
                        if cond.all():
                            branch_taken = True
                        elif not cond.any():
                            branch_taken = False
                        else:
                            # Lane-divergent control flow.
                            raise _Bail(REASON_DIVERGENT_BRANCH)
                    else:
                        branch_taken = bool(cond)
                    if branch_taken:
                        self.base_cycles += taken * T
                    else:
                        self.base_cycles += not_taken * T
                        break
            else:  # "hw"
                _, body, trip_reg = node
                self.n_instr += T
                self.base_cycles += T  # lp.setup costs 1
                trips_v = sym[trip_reg] if trip_reg else 0
                if isinstance(trips_v, np.ndarray):
                    if not (trips_v == trips_v.flat[0]).all():
                        raise _Bail(REASON_DIVERGENT_TRIP_COUNT)
                    trips_v = trips_v.flat[0]
                inner = int(trips_v)
                # Every pass adds at least T to n_instr, so this
                # pre-guard bounds the unroll work by the instruction cap.
                if inner and self.n_instr + inner * T > self.budget:
                    raise _Bail(REASON_INSTRUCTION_CAP)
                for _ in range(inner):
                    self.run_nodes(body)

    def eval_prepared(self, prepared) -> None:
        """Interpret one prepared instruction over the symbolic state.

        The cold-path twin of :func:`_compile_seg`: segments run through
        this until they prove hot enough to be worth an exec() compile.
        Semantics must match the generated code line for line.
        """
        op, rd, ra, rb, imm, immM, imm2, red = prepared
        sym = self.sym
        a = sym[ra]
        if red is not None:
            reg, _rop, src = red
            sym[reg].feed(sym[src] if src else 0, self.trips)
            return
        M = _MASK32
        if op == _OP_ADD:
            value = (a + sym[rb]) & M
        elif op == _OP_ADDI:
            value = (a + immM) & M
        elif op == _OP_XOR:
            value = a ^ sym[rb]
        elif op == _OP_AND:
            value = a & sym[rb]
        elif op == _OP_OR:
            value = a | sym[rb]
        elif op == _OP_SUB:
            value = (a - sym[rb]) & M
        elif op == _OP_SRL:
            value = a >> (sym[rb] & 31)
        elif op == _OP_SLL:
            value = (a << (sym[rb] & 31)) & M
        elif op == _OP_SRLI:
            value = a >> (imm & 31)
        elif op == _OP_SLLI:
            value = (a << (imm & 31)) & M
        elif op == _OP_ANDI:
            value = a & immM
        elif op == _OP_ORI:
            value = a | immM
        elif op == _OP_XORI:
            value = a ^ immM
        elif op == _OP_SLTU:
            value = _bool01(a < sym[rb])
        elif op == _OP_SLT:
            value = _bool01(_sgn_v(a) < _sgn_v(sym[rb]))
        elif op == _OP_SLTI:
            value = _bool01(_sgn_v(a) < imm)
        elif op == _OP_SLTIU:
            value = _bool01(a < immM)
        elif op == _OP_SRA:
            value = _u64((_sgn_v(a) >> _sh31(sym[rb])) & M)
        elif op == _OP_SRAI:
            value = _u64((_sgn_v(a) >> (imm & 31)) & M)
        elif op == _OP_LI:
            value = immM
        elif op == _OP_MV:
            value = a
        elif op == _OP_NOP:
            return
        elif op == _OP_MUL:
            value = (a * sym[rb]) & M
        elif op == _OP_MULH:
            value = _u64((_sgn_v(a) * _sgn_v(sym[rb]) >> 32) & M)
        elif op == _OP_CNT:
            value = _popcount_v(a)
        elif op == _OP_EXTRACTU or op == _OP_UBFX:
            value = (a >> imm) & ((1 << imm2) - 1)
        elif op == _OP_INSERT or op == _OP_BFI:
            mask = ((1 << imm2) - 1) << imm
            value = (sym[rd] & (~mask & M)) | ((a << imm) & mask)
        elif op == _OP_LW or op == _OP_LBU or op == _OP_LHU:
            value = self._load((a + immM) & M, _MEM_WIDTH[op])
        elif op == _OP_LW_POST:
            value = self._load(a, 4)
            # Value first, post-increment second: when rd == ra the
            # increment overwrites the load, as in the oracle.
            if rd:
                sym[rd] = value
            if ra:
                sym[ra] = (a + immM) & M
            return
        elif op == _OP_SW or op == _OP_SB or op == _OP_SH:
            self._store((a + immM) & M, sym[rd] if rd else 0, _MEM_WIDTH[op])
            return
        elif op == _OP_SW_POST:
            self._store(a, sym[rd] if rd else 0, 4)
            if ra:
                sym[ra] = (a + immM) & M
            return
        else:  # pragma: no cover - parse rejects control opcodes
            raise _Bail
        if rd:
            sym[rd] = value

    def commit(self) -> None:
        """Apply all deferred effects; only called when no bail fired."""
        core = self.core
        memory = self.memory
        for _lo, _hi, addr, value, width, _stride in self.stores:
            if isinstance(addr, np.ndarray):
                memory.scatter(addr, _u64(value), width)
            else:
                mask = (1 << (8 * width)) - 1
                memory.write_bytes(
                    addr, (int(value) & mask).to_bytes(width, "little")
                )
        regs = core.regs
        # Only body-written registers can have changed in sym.
        for reg in self.plan.written_regs:
            if not reg:
                continue
            value = self.sym[reg]
            if isinstance(value, _Reduction):
                regs[reg] = value.fold()
            elif isinstance(value, np.ndarray):
                regs[reg] = int(value[-1])
            else:
                regs[reg] = value
        core.cycles += self.base_cycles + memory.bulk_stalls(
            self.n_l1, self.n_l2
        )
        core.instr_count += self.n_instr


# ---------------------------------------------------------------------------
# Program compilation + the dispatching core.
# ---------------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """Everything the fast path derives from one (program, profile)."""

    profile_name: str
    decoded: list
    n_instrs: int
    blocks: Dict[int, CompiledBlock]
    block_starts: list
    hw_plans: Dict[int, LoopPlan]
    branch_plans: Dict[int, LoopPlan]
    sub_blocks: Dict[int, CompiledBlock] = field(default_factory=dict)


def compile_program(
    program: Program, profile: ArchProfile
) -> CompiledProgram:
    """Compile ``program`` for the fast path (cached on the Program)."""
    cache = getattr(program, "_iss_fastpath", None)
    if cache is None:
        cache = {}
        object.__setattr__(program, "_iss_fastpath", cache)
    compiled = cache.get(profile.name)
    if compiled is not None:
        return compiled

    decoded = predecode(program)
    blocks: Dict[int, CompiledBlock] = {}
    for block in program.basic_blocks():
        body_end = block.body_end
        blocks[block.start] = CompiledBlock(
            start=block.start,
            end=block.end,
            terminator=block.terminator,
            closure=_LAZY,  # compiled on first execution
            n_straight=body_end - block.start,
        )

    hw_plans: Dict[int, LoopPlan] = {}
    branch_plans: Dict[int, LoopPlan] = {}
    for pc, ins in enumerate(decoded):
        op = ins[0]
        if op == _OP_LPSETUP:
            end = ins[6]
            try:
                hw_plans[pc] = _build_plan(
                    decoded, "hw", pc, pc + 1, end, end, None, profile
                )
            except _Bail as bail:
                _TELEMETRY["compile_rejects"][bail.reason] += 1
        elif op in _BRANCH_OPS:
            tgt = ins[6]
            if tgt <= pc:
                try:
                    plan = _build_plan(
                        decoded, "branch", tgt, tgt, pc, pc + 1, pc,
                        profile,
                    )
                except _Bail as bail:
                    _TELEMETRY["compile_rejects"][bail.reason] += 1
                    continue
                if tgt in branch_plans:
                    # Two loops sharing a head: ambiguous, keep neither.
                    branch_plans[tgt] = None
                else:
                    branch_plans[tgt] = plan
    branch_plans = {
        pc: plan for pc, plan in branch_plans.items() if plan is not None
    }

    compiled = CompiledProgram(
        profile_name=profile.name,
        decoded=decoded,
        n_instrs=len(decoded),
        blocks=blocks,
        block_starts=sorted(blocks),
        hw_plans=hw_plans,
        branch_plans=branch_plans,
    )
    cache[profile.name] = compiled
    return compiled


class FastCore(DispatchCore, Core):
    """Drop-in :class:`~repro.pulp.core.Core` running the fast path.

    Architecturally identical to the interpreter (same registers, memory
    effects, cycles, and instruction counts on every successful run);
    only wall-clock behaviour differs.  The dispatch loop itself lives
    in :class:`repro.pulp.dispatch.DispatchCore`; this class is its
    scalar (lanes = 1) instantiation — registers are plain ints, faults
    raise :class:`~repro.pulp.core.ExecutionError` exactly like the
    oracle, and the instruction cap hands off to the interpreter for
    per-instruction granularity.
    """

    __slots__ = ("compiled", "_disabled_plans")

    _vector_run_cls: type  # assigned after _VectorRun is defined below

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.compiled: Optional[CompiledProgram] = None
        self._disabled_plans: set = set()

    def load_program(self, decoded: list, compiled=None) -> None:
        super().load_program(decoded)
        self.compiled = compiled
        self._disabled_plans = set()

    # -- helpers -----------------------------------------------------------

    def _block_at(self, pc: int) -> CompiledBlock:
        """Block starting at ``pc``, synthesizing one for mid-block
        entries (reachable only through ``jr``)."""
        comp = self.compiled
        block = comp.blocks.get(pc)
        if block is not None:
            return block
        block = comp.sub_blocks.get(pc)
        if block is not None:
            return block
        index = bisect.bisect_right(comp.block_starts, pc) - 1
        host = comp.blocks[comp.block_starts[index]]
        body_end = max(pc, host.start + host.n_straight)
        block = CompiledBlock(
            start=pc,
            end=host.end,
            terminator=host.terminator,
            closure=_compile_straight(
                comp.decoded, pc, body_end, self.profile
            ),
            n_straight=body_end - pc,
        )
        comp.sub_blocks[pc] = block
        return block

    # -- dispatch-loop hooks (scalar instantiation) ------------------------

    _fetch_block = _block_at

    def _uniform_reg(self, reg: int):
        return self.regs[reg] if reg else 0

    def _over_cap(self, needed: int) -> bool:
        return self.instr_count + needed > self.max_instructions

    def _cap_handoff(self, pc: int) -> str:
        # Per-instruction cap granularity: when finishing this block
        # (straight body + terminator) could cross the instruction
        # cap, hand the rest of the run to the interpreter, which
        # checks the cap before every instruction.  A runaway program
        # therefore raises at exactly the same instruction, with the
        # same registers, memory, cycles, and instruction count as
        # the oracle (pinned by tests/pulp/test_fastpath.py).
        self.pc = pc
        return Core.run(self)

    def _exec_straight(self, block: CompiledBlock) -> None:
        self.instr_count += block.n_straight
        closure = block.closure
        if closure is _LAZY:
            closure = block.closure = _compile_straight(
                self.compiled.decoded, block.start,
                block.start + block.n_straight, self.profile,
            )
        self.cycles += closure(self.regs, self.memory)

    def _branch_next(
        self, op, ra, rb, target, fallthrough, taken, not_taken
    ):
        regs = self.regs
        a = regs[ra]
        b = regs[rb]
        if op == _OP_BEQ:
            hit = a == b
        elif op == _OP_BNE:
            hit = a != b
        elif op == _OP_BLTU:
            hit = a < b
        elif op == _OP_BGEU:
            hit = a >= b
        elif op == _OP_BLT:
            hit = _signed(a) < _signed(b)
        else:
            hit = _signed(a) >= _signed(b)
        if hit:
            self.cycles += taken
            return target
        self.cycles += not_taken
        return fallthrough

    def _jr_target(self, ra: int):
        return self.regs[ra]

    def _lpsetup_trips(self, ra: int) -> int:
        return self.regs[ra]

    def _dma_wait(self) -> None:
        self.cycles = max(self.cycles + 1, self.dma.busy_until)

    def _fault_pc_overrun(self, pc: int):
        self.pc = pc
        raise ExecutionError(
            f"core {self.core_id} ran off the end of the program"
        )

    def _fault_loop_nesting(self):
        raise ExecutionError("hardware loops support two nesting levels")

    def _fault_no_dma(self, what: str):
        raise ExecutionError(
            f"{what} executed with no DMA engine attached"
        )

    def _fault_unknown_terminator(self, op: int):  # pragma: no cover
        raise ExecutionError(f"unimplemented opcode {op}")

    # -- execution ---------------------------------------------------------

    def run(self) -> str:
        if self.compiled is None:
            return super().run()
        if self._decoded is None:
            raise ExecutionError("no program loaded")
        return self.dispatch_segment()


FastCore._vector_run_cls = _VectorRun
