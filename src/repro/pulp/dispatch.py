"""The unified ISS dispatch core shared by the scalar and laned engines.

:class:`repro.pulp.fastpath.FastCore` (scalar fast path) and
:class:`repro.pulp.lockstep._LaneCore` (window-laned lockstep engine)
run one dispatch loop, :meth:`DispatchCore.segment_steps`,
parameterized over a small set of per-engine hooks: the scalar engine
is the lanes=1 instantiation, so the two agree by construction.

What is shared (lives here, exactly once):

* the branch-plan gate and trip solving for vectorizable backward
  loops (:func:`_solve_branch_trips` + ``_try_vector`` engagement),
  with the one park point (:meth:`DispatchCore._engage`) at which a
  laned team core waits for a fused run,
* block sequencing and the instruction-cap guard,
* the terminator dispatch table (branches, ``j``/``jal``/``jr``,
  ``lp.setup`` + hardware-loop stack, ``barrier``, ``halt``, and the
  DMA pair) with its cycle charges,
* the hardware-loop back-edge epilogue.

What is per-engine (hook methods each engine implements):

* how registers collapse to solver operands (``_uniform_reg`` — the
  laned engine must prove lane uniformity, the scalar engine reads
  the register file directly),
* how blocks are fetched and straight-line bodies execute
  (``_fetch_block`` / ``_exec_straight``),
* how branch conditions resolve (``_branch_next`` — the laned engine
  adds lane-predicated execution of short forward branches),
* what happens on faults (``_fault_*`` — the scalar engine raises
  :class:`~repro.pulp.core.ExecutionError` exactly like the oracle,
  the laned engine raises ``LockstepBail`` so the caller falls back
  to per-window scalar runs),
* the vector-run class used for whole-loop engagements
  (``_vector_run_cls``).

The opcode tables, telemetry counters, and the affine trip solver
also live here so both engines (and the loop-plan analysis in
:mod:`repro.pulp.fastpath`) share one definition; ``fastpath``
re-exports them for backward compatibility.
"""

from __future__ import annotations

from collections import Counter
from typing import Tuple

from .core import _OPCODE_BY_NAME, STOP_BARRIER, STOP_HALT, _signed
from .isa import ArchProfile

_MASK32 = 0xFFFFFFFF

#: Vectorized loops longer than this fall back to the block path; far
#: above any kernel trip count, it bounds lane-array allocations.
MAX_VECTOR_TRIPS = 1 << 20

# Opcode integers, resolved once from the oracle's name table so the
# engines can never disagree about numbering.
_OP = dict(_OPCODE_BY_NAME)

_OP_ADD = _OP["add"]; _OP_SUB = _OP["sub"]; _OP_AND = _OP["and"]
_OP_OR = _OP["or"]; _OP_XOR = _OP["xor"]; _OP_SLL = _OP["sll"]
_OP_SRL = _OP["srl"]; _OP_SRA = _OP["sra"]; _OP_SLT = _OP["slt"]
_OP_SLTU = _OP["sltu"]; _OP_ADDI = _OP["addi"]; _OP_ANDI = _OP["andi"]
_OP_ORI = _OP["ori"]; _OP_XORI = _OP["xori"]; _OP_SLLI = _OP["slli"]
_OP_SRLI = _OP["srli"]; _OP_SRAI = _OP["srai"]; _OP_SLTI = _OP["slti"]
_OP_SLTIU = _OP["sltiu"]; _OP_LI = _OP["li"]; _OP_MV = _OP["mv"]
_OP_NOP = _OP["nop"]; _OP_MUL = _OP["mul"]; _OP_MULH = _OP["mulh"]
_OP_LW = _OP["lw"]; _OP_LBU = _OP["lbu"]; _OP_LHU = _OP["lhu"]
_OP_SW = _OP["sw"]; _OP_SB = _OP["sb"]; _OP_SH = _OP["sh"]
_OP_BEQ = _OP["beq"]; _OP_BNE = _OP["bne"]; _OP_BLT = _OP["blt"]
_OP_BGE = _OP["bge"]; _OP_BLTU = _OP["bltu"]; _OP_BGEU = _OP["bgeu"]
_OP_J = _OP["j"]; _OP_JAL = _OP["jal"]; _OP_JR = _OP["jr"]
_OP_EXTRACTU = _OP["p.extractu"]; _OP_INSERT = _OP["p.insert"]
_OP_CNT = _OP["p.cnt"]; _OP_UBFX = _OP["ubfx"]; _OP_BFI = _OP["bfi"]
_OP_LW_POST = _OP["p.lw!"]; _OP_SW_POST = _OP["p.sw!"]
_OP_LPSETUP = _OP["lp.setup"]; _OP_BARRIER = _OP["barrier"]
_OP_HALT = _OP["halt"]; _OP_DMA_COPY = _OP["dma.copy"]
_OP_DMA_WAIT = _OP["dma.wait"]

_BRANCH_OPS = frozenset(
    (_OP_BEQ, _OP_BNE, _OP_BLT, _OP_BGE, _OP_BLTU, _OP_BGEU)
)
_ALU3_OPS = frozenset(
    (_OP_ADD, _OP_SUB, _OP_AND, _OP_OR, _OP_XOR, _OP_SLL, _OP_SRL,
     _OP_SRA, _OP_SLT, _OP_SLTU, _OP_MUL, _OP_MULH)
)
_ALUI_OPS = frozenset(
    (_OP_ADDI, _OP_ANDI, _OP_ORI, _OP_XORI, _OP_SLLI, _OP_SRLI,
     _OP_SRAI, _OP_SLTI, _OP_SLTIU)
)
_LOAD_OPS = frozenset((_OP_LW, _OP_LBU, _OP_LHU, _OP_LW_POST))
_STORE_OPS = frozenset((_OP_SW, _OP_SB, _OP_SH, _OP_SW_POST))
_MEM_WIDTH = {
    _OP_LW: 4, _OP_SW: 4, _OP_LW_POST: 4, _OP_SW_POST: 4,
    _OP_LHU: 2, _OP_SH: 2, _OP_LBU: 1, _OP_SB: 1,
}
_REDUCIBLE_OPS = frozenset((_OP_ADD, _OP_OR, _OP_XOR, _OP_AND))


def _reads_writes(ins) -> Tuple[tuple, tuple]:
    """(read regs, written regs) of one decoded instruction tuple."""
    op, rd, ra, rb = ins[0], ins[1], ins[2], ins[3]
    if op in _ALU3_OPS:
        return (ra, rb), (rd,)
    if op in _ALUI_OPS or op in (_OP_MV, _OP_CNT, _OP_EXTRACTU, _OP_UBFX):
        return (ra,), (rd,)
    if op == _OP_LI:
        return (), (rd,)
    if op == _OP_NOP:
        return (), ()
    if op in (_OP_LW, _OP_LBU, _OP_LHU):
        return (ra,), (rd,)
    if op == _OP_LW_POST:
        return (ra,), (rd, ra)
    if op in (_OP_SW, _OP_SB, _OP_SH):
        return (ra, rd), ()
    if op == _OP_SW_POST:
        return (ra, rd), (ra,)
    if op in (_OP_INSERT, _OP_BFI):
        return (ra, rd), (rd,)
    if op in _BRANCH_OPS:
        return (ra, rb), ()
    if op == _OP_J:
        return (), ()
    if op == _OP_JAL:
        return (), (rd if rd else 1,)
    if op == _OP_JR:
        return (ra,), ()
    if op == _OP_LPSETUP:
        return (ra,), ()
    if op == _OP_DMA_COPY:
        return (ra, rb, rd), ()
    return (), ()  # barrier, halt, dma.wait


def _base_cost(op: int, profile: ArchProfile) -> int:
    """Constant cycle cost of a non-control instruction."""
    if op in _LOAD_OPS:
        return profile.load_cycles
    if op in _STORE_OPS:
        return profile.store_cycles
    if op in (_OP_MUL, _OP_MULH):
        return profile.mul_cycles
    return 1


# ---------------------------------------------------------------------------
# Reject/bail reason vocabulary.
#
# Every reason string the vector engines can emit lives here as a named
# constant, grouped into the two frozen tables below.  The static
# analyzer (:mod:`repro.pulp.analyze`) consumes these tables to predict
# which reasons a program can trigger; keeping them as data (rather
# than inline literals scattered through the bail sites) is what makes
# that prediction checkable — a renamed or newly added reason that the
# analyzer does not know about fails the differential harness instead
# of silently drifting.
# ---------------------------------------------------------------------------

#: Compile-time rejects (no plan is built; counted in
#: ``compile_rejects`` telemetry).
REASON_IRREGULAR_STRUCTURE = "irregular-structure"
REASON_CARRIED_REGISTER = "carried-register"
REASON_REDUCTION_IN_CONDITION = "reduction-in-condition"
REASON_LOOP_DEPTH = "loop-depth"

#: Runtime bails (a built plan declines one engagement; counted in
#: ``bails`` / ``plan_bails`` telemetry).
REASON_TRIP_COUNT_RANGE = "trip-count-range"
REASON_TRIP_UNSOLVABLE = "trip-unsolvable"
REASON_INSTRUCTION_CAP = "instruction-cap"
REASON_RUNAWAY_INNER_LOOP = "runaway-inner-loop"
REASON_DIVERGENT_BRANCH = "divergent-branch"
REASON_DIVERGENT_TRIP_COUNT = "divergent-trip-count"
REASON_STORE_OVERLAP = "store-overlap"
REASON_LOAD_STORE_OVERLAP = "load-store-overlap"
REASON_GATHER_SPAN = "gather-span"
REASON_REGION_SPAN = "region-span"
REASON_UNALIGNED_ACCESS = "unaligned-access"
REASON_DUPLICATE_STORE_LANES = "duplicate-store-lanes"

#: Reasons a loop can be rejected when its plan is built (the
#: ``compile_rejects`` telemetry key space).
COMPILE_REJECT_REASONS = frozenset({
    REASON_IRREGULAR_STRUCTURE,
    REASON_CARRIED_REGISTER,
    REASON_REDUCTION_IN_CONDITION,
    REASON_LOOP_DEPTH,
})

#: Reasons a built plan can decline a single engagement at runtime (the
#: ``bails`` telemetry key space).  The laned lockstep engine may
#: additionally surface any :data:`repro.pulp.lockstep.LOCKSTEP_BAIL_REASONS`
#: entry prefixed with ``laned-``.
RUNTIME_BAIL_REASONS = frozenset({
    REASON_TRIP_COUNT_RANGE,
    REASON_TRIP_UNSOLVABLE,
    REASON_INSTRUCTION_CAP,
    REASON_RUNAWAY_INNER_LOOP,
    REASON_DIVERGENT_BRANCH,
    REASON_DIVERGENT_TRIP_COUNT,
    REASON_STORE_OVERLAP,
    REASON_LOAD_STORE_OVERLAP,
    REASON_GATHER_SPAN,
    REASON_REGION_SPAN,
    REASON_UNALIGNED_ACCESS,
    REASON_DUPLICATE_STORE_LANES,
})


class _Bail(Exception):
    """Internal: this loop cannot be vectorized (for this run).

    ``reason`` is a short stable tag recorded by the telemetry counters
    (see :func:`repro.pulp.fastpath.fastpath_telemetry`); the default
    covers the compile-time structure bails where finer detail buys
    nothing.  Every value is drawn from :data:`COMPILE_REJECT_REASONS`
    or :data:`RUNTIME_BAIL_REASONS`.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = REASON_IRREGULAR_STRUCTURE):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Fast-path telemetry counters (shared by both engines; the snapshot
# API lives in repro.pulp.fastpath).
# ---------------------------------------------------------------------------

_TELEMETRY = {
    # (plan kind, plan head pc) -> successful vector engagements
    "engaged": Counter(),
    # (plan kind, plan head pc) -> total trips executed vectorized
    "trips": Counter(),
    # bail reason -> count (runtime bails + trip-solver failures)
    "bails": Counter(),
    # (plan kind, plan head pc, reason) -> count
    "plan_bails": Counter(),
    # reason -> loops rejected at compile time (no plan built)
    "compile_rejects": Counter(),
}


def _record_bail(plan, reason: str) -> None:
    _TELEMETRY["bails"][reason] += 1
    _TELEMETRY["plan_bails"][(plan.kind, plan.head, reason)] += 1


def _solve_branch_trips(op, a0, step, b, signed_cmp):
    """Trips of a do-while self-loop with an affine condition register.

    ``a0`` is the register value at loop entry, ``step`` its net signed
    change per iteration; the condition is checked after each iteration
    with value ``a0 + t*step``.  Returns the verified trip count, or
    ``None`` when unsolvable (wraps, diverges, or never exits).
    """

    def value(t):
        return (a0 + t * step) & _MASK32

    def cond(t):
        av = value(t)
        if op == _OP_BEQ:
            return av == b
        if op == _OP_BNE:
            return av != b
        if op == _OP_BLTU:
            return av < b
        if op == _OP_BGEU:
            return av >= b
        sa = _signed(av)
        sb = _signed(b)
        if op == _OP_BLT:
            return sa < sb
        return sa >= sb  # _OP_BGE

    candidates = [1]
    if step:
        if signed_cmp:
            sa0 = _signed(a0)
            sb = _signed(b)
            if op == _OP_BLT and step > 0:
                candidates.append(max(1, -((sa0 - sb) // step)))
            elif op == _OP_BGE and step < 0:
                candidates.append(max(1, (sa0 - sb) // (-step) + 1))
        else:
            if op == _OP_BLTU and step > 0:
                candidates.append(max(1, -((a0 - b) // step)))
            elif op == _OP_BGEU and step < 0:
                candidates.append(max(1, (a0 - b) // (-step) + 1))
            elif op == _OP_BNE:
                delta = b - a0
                if delta % step == 0 and delta // step >= 1:
                    candidates.append(delta // step)
    for trips in sorted(set(candidates), reverse=True):
        if trips < 1 or trips > MAX_VECTOR_TRIPS:
            continue
        # No 32-bit wrap across the iteration range keeps the affine
        # sequence monotonic, so endpoint checks pin the whole range.
        unwrapped_lo = min(a0, a0 + trips * step)
        unwrapped_hi = max(a0, a0 + trips * step)
        if signed_cmp:
            sa0 = _signed(a0)
            lo = min(sa0, sa0 + trips * step)
            hi = max(sa0, sa0 + trips * step)
            if lo < -(1 << 31) or hi >= (1 << 31):
                continue
        elif unwrapped_lo < 0 or unwrapped_hi > _MASK32:
            continue
        if cond(trips):
            continue
        if trips > 1 and not cond(trips - 1):
            continue
        return trips
    return None


# ---------------------------------------------------------------------------
# The one dispatch loop.
# ---------------------------------------------------------------------------


class DispatchCore:
    """Mixin providing the single block-dispatch loop for both engines.

    Subclasses supply the state attributes (``compiled``, ``regs``,
    ``cycles``, ``instr_count``, ``pc``, ``_loop_stack``,
    ``_disabled_plans``, ``max_instructions``, ``dma``, ``profile``)
    plus the per-engine hooks documented in the module docstring.
    """

    __slots__ = ()

    #: Per-engine _VectorRun class used by :meth:`_try_vector`.
    _vector_run_cls = None

    #: Whether :meth:`_engage` parks instead of running a plan.
    parks = False

    # -- vectorized loop engagement (shared verbatim) ----------------------

    def _try_vector(self, plan, trips: int) -> bool:
        """Vector-execute ``plan``; True on success, False on bail."""
        if trips < 1 or trips > MAX_VECTOR_TRIPS:
            _record_bail(plan, REASON_TRIP_COUNT_RANGE)
            return False
        try:
            run = self._vector_run_cls(self, plan, trips)
            run.run_nodes(plan.exec_nodes)
            if plan.kind == "branch":
                taken = 1 + self.profile.branch_taken_penalty
                not_taken = 1 + self.profile.branch_not_taken_penalty
                run.n_instr += trips
                run.base_cycles += (trips - 1) * taken + not_taken
                if run.n_instr > run.budget:
                    _record_bail(plan, REASON_INSTRUCTION_CAP)
                    return False
        except _Bail as bail:
            _record_bail(plan, bail.reason)
            return False
        run.commit()
        _TELEMETRY["engaged"][(plan.kind, plan.head)] += 1
        _TELEMETRY["trips"][(plan.kind, plan.head)] += trips
        return True

    def _engage(self, plan, trips: int):
        """Vector-run ``plan``; a parking core instead yields ``(plan,
        trips)`` and is sent back whether the loop ran vectorized."""
        if self.parks:
            return (yield plan, trips)
        return self._try_vector(plan, trips)

    # -- the dispatch loop -------------------------------------------------

    def dispatch_segment(self) -> str:
        """Execute until barrier or halt (on a core that never parks)."""
        try:
            next(self.segment_steps())
        except StopIteration as stop:
            return stop.value
        raise AssertionError("a parking core needs segment_steps()")

    def segment_steps(self):
        """The one loop both engines run, as a generator: it yields at
        each park (see :meth:`_engage`) and returns the stop reason."""
        comp = self.compiled
        decoded = comp.decoded
        regs = self.regs
        profile = self.profile
        taken = 1 + profile.branch_taken_penalty
        not_taken = 1 + profile.branch_not_taken_penalty
        jump_cost = profile.jump_cycles
        n_instrs = comp.n_instrs
        loop_stack = self._loop_stack
        disabled = self._disabled_plans
        pc = self.pc

        while True:
            if pc >= n_instrs:
                self._fault_pc_overrun(pc)

            plan = comp.branch_plans.get(pc)
            if (
                plan is not None
                and pc not in disabled
                and len(loop_stack) + plan.hw_depth <= 2
                # An enclosing hardware loop whose end boundary falls
                # inside the region would fire back-edges mid-loop; let
                # the block path reproduce that exactly.
                and not (
                    loop_stack
                    and plan.head <= loop_stack[-1][1] <= plan.branch_pc
                )
            ):
                ins = decoded[plan.branch_pc]
                op, ra, rb = ins[0], ins[2], ins[3]
                trips = None
                ra_step = plan.inductions.get(ra)
                if ra_step is None and (
                    ra == 0 or ra not in plan.written_regs
                ):
                    ra_step = 0
                if ra_step is not None and (
                    rb == 0 or rb not in plan.written_regs
                ):
                    a0 = self._uniform_reg(ra)
                    b0 = self._uniform_reg(rb)
                    if a0 is not None and b0 is not None:
                        trips = _solve_branch_trips(
                            op, a0, ra_step, b0,
                            op in (_OP_BLT, _OP_BGE),
                        )
                if trips is None:
                    _record_bail(plan, REASON_TRIP_UNSOLVABLE)
                elif (yield from self._engage(plan, trips)):
                    last_pc = plan.branch_pc
                    next_pc = plan.exit_pc
                    if loop_stack:
                        top = loop_stack[-1]
                        if next_pc == top[1] and top[0] <= last_pc < top[1]:
                            top[2] -= 1
                            if top[2] > 0:
                                next_pc = top[0]
                            else:
                                loop_stack.pop()
                    regs[0] = 0
                    pc = next_pc
                    continue
                disabled.add(pc)

            block = self._fetch_block(pc)
            needed = block.n_straight + (
                0 if block.terminator is None else 1
            )
            if self._over_cap(needed):
                return self._cap_handoff(pc)
            if block.n_straight:
                self._exec_straight(block)

            tpc = block.terminator
            if tpc is None:
                last_pc = block.end - 1
                next_pc = block.end
            else:
                last_pc = tpc
                next_pc = tpc + 1
                ins = decoded[tpc]
                op, rd, ra, rb = ins[0], ins[1], ins[2], ins[3]
                target = ins[6]
                self.instr_count += 1
                if op in _BRANCH_OPS:
                    next_pc = self._branch_next(
                        op, ra, rb, target, next_pc, taken, not_taken
                    )
                elif op == _OP_J:
                    next_pc = target
                    self.cycles += jump_cost
                elif op == _OP_JAL:
                    regs[rd if rd else 1] = next_pc
                    next_pc = target
                    self.cycles += jump_cost
                elif op == _OP_JR:
                    next_pc = self._jr_target(ra)
                    self.cycles += jump_cost
                elif op == _OP_LPSETUP:
                    self.cycles += 1
                    trips = self._lpsetup_trips(ra)
                    if trips == 0:
                        next_pc = target
                    else:
                        if len(loop_stack) >= 2:
                            self._fault_loop_nesting()
                        hw_plan = comp.hw_plans.get(tpc)
                        if (
                            hw_plan is not None
                            and tpc not in disabled
                            and len(loop_stack) + hw_plan.hw_depth <= 2
                            and (yield from self._engage(hw_plan, trips))
                        ):
                            # The final trip's own back-edge consumed
                            # the boundary check, so no enclosing-loop
                            # check happens here — exactly as the
                            # oracle.
                            regs[0] = 0
                            pc = hw_plan.exit_pc
                            continue
                        if hw_plan is not None:
                            disabled.add(tpc)
                        loop_stack.append([tpc + 1, target, trips])
                elif op == _OP_BARRIER:
                    self.cycles += 1
                    self.pc = next_pc
                    return STOP_BARRIER
                elif op == _OP_HALT:
                    self.cycles += 1
                    self.pc = tpc
                    return STOP_HALT
                elif op == _OP_DMA_COPY:
                    if self.dma is None:
                        self._fault_no_dma("dma.copy")
                    self.dma.enqueue(
                        src=regs[ra], dst=regs[rb], size=regs[rd],
                        issue_cycle=self.cycles,
                    )
                    self.cycles += profile.dma_setup_cycles
                elif op == _OP_DMA_WAIT:
                    if self.dma is None:
                        self._fault_no_dma("dma.wait")
                    self._dma_wait()
                else:
                    self._fault_unknown_terminator(op)

            if loop_stack:
                top = loop_stack[-1]
                if next_pc == top[1] and top[0] <= last_pc < top[1]:
                    top[2] -= 1
                    if top[2] > 0:
                        next_pc = top[0]
                    else:
                        loop_stack.pop()

            regs[0] = 0
            pc = next_pc
