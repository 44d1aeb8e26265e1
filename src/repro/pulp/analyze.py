"""Static analysis and vectorizability certification for ISS programs.

This module closes the gap between what the execution engines discover
*dynamically* (compile rejects in :mod:`repro.pulp.fastpath`, runtime
bails, :class:`repro.pulp.lockstep.LockstepBail` divergence) and what
can be proven *statically* from the assembled :class:`Program` IR:

* **CFG checks** — reachability (dead blocks), hardware-loop legality
  (nesting depth, region overlap, branches landing on a loop end from
  outside the body: the bug class the dispatcher guards against at
  runtime).
* **Dataflow** — definite assignment (reads of registers that are never
  written along some path from entry) over the intersection lattice.
* **Affine abstract interpretation** — every register is tracked as an
  affine expression ``const + Σ coef·sym`` over interval-bounded
  symbols, with taint flags recording *load-derived* and *core-varying*
  provenance.  Address expressions built on top of this prove memory
  accesses stay inside the declared :class:`MemoryConfig` regions and
  detect statically-misaligned accesses.
* **Vectorizability certifier** — mirrors ``compile_program``'s plan
  discovery exactly (it calls ``fastpath._build_plan`` itself, so
  accept/reject verdicts and reject reasons are identical by
  construction) and then over-approximates, per accepted plan, the set
  of runtime bail reasons that *can* fire.  An empty set certifies the
  site clean: the differential harness in ``tests/pulp/test_analyze.py``
  asserts that certified-clean sites never bail and that every observed
  bail/reject reason was predicted.
* **Lockstep prediction** — a program-level over-approximation of the
  :class:`LockstepBail` reasons reachable for a program, driven by the
  same taint analysis.

Soundness direction: the certifier may *over*-predict (list a reason
that never fires) but must never *under*-predict on a run that
completes without faulting.  One documented assumption: the oracle
memory system faults on misaligned accesses, so on any run that
completes, the vector-path ``unaligned-access`` bail cannot have been
the first divergence — it is excluded from predictions and reported as
a static finding instead when provable.

CLI::

    python -m repro.pulp.analyze            # corpus verdict table
    python -m repro.pulp.analyze --certify  # differential telemetry check
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import dispatch as _d
from . import fastpath as _fp
from .assembler import (
    ARG_REGS,
    CORE_ID_REG,
    N_CORES_REG,
    N_REGS,
    Program,
    cfg_successors,
    hw_loop_regions,
)
from .core import predecode
from .isa import ArchProfile
from .lockstep import (
    LS_ADDRESS_RANGE,
    LS_DIVERGENT_BRANCH,
    LS_DIVERGENT_DMA,
    LS_DIVERGENT_JUMP,
    LS_DIVERGENT_STORE_ADDRESS,
    LS_DIVERGENT_TRIP_COUNT,
    LS_INSTRUCTION_CAP,
    LS_MISALIGNED,
    LS_TEAM_CLOCK,
    LS_TEAM_SHARED_DATA,
)
from .memory import L1_BASE, L2_BASE, MemoryConfig

_M32 = 0xFFFF_FFFF

# ---------------------------------------------------------------------------
# Findings and verdicts.
# ---------------------------------------------------------------------------

F_UNREACHABLE = "unreachable-block"
F_UNINIT_READ = "uninit-read"
F_HW_OVERLAP = "hw-loop-overlap"
F_HW_DEPTH = "hw-loop-depth"
F_HW_EMPTY = "hw-loop-empty"
F_HW_END_ENTRY = "hw-loop-end-entry"
F_OUT_OF_REGION = "out-of-region"
F_MISALIGNED = "misaligned-access"

FINDING_KINDS = frozenset({
    F_UNREACHABLE, F_UNINIT_READ, F_HW_OVERLAP, F_HW_DEPTH,
    F_HW_EMPTY, F_HW_END_ENTRY, F_OUT_OF_REGION, F_MISALIGNED,
})


@dataclass(frozen=True)
class Finding:
    """One static defect: ``kind`` is drawn from :data:`FINDING_KINDS`."""

    kind: str
    pc: int
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"pc={self.pc:4d} {self.kind}: {self.detail}"


@dataclass(frozen=True)
class LoopVerdict:
    """Certifier verdict for one loop site discovered in a program.

    ``accepted`` mirrors ``fastpath._build_plan`` exactly;
    ``reject_reason`` is the compile reject tag when not accepted.
    ``disqualified`` marks branch heads shared by two loops (the
    dispatcher keeps neither plan and records no telemetry).
    ``possible_bails`` over-approximates the runtime bail reasons that
    can fire for an accepted plan; empty means certified clean.
    """

    kind: str  # "hw" | "branch"
    head: int
    accepted: bool
    reject_reason: Optional[str] = None
    disqualified: bool = False
    possible_bails: FrozenSet[str] = frozenset()

    @property
    def clean(self) -> bool:
        return self.accepted and not self.possible_bails


@dataclass
class AnalysisReport:
    """Full static-analysis result for one program."""

    n_instrs: int
    findings: List[Finding]
    loop_verdicts: List[LoopVerdict]
    lockstep_reasons: FrozenSet[str]
    unproven_accesses: int  # memory sites neither proven nor refuted
    work_bound: Optional[int]  # instruction-count bound; None = unbounded

    @property
    def ok(self) -> bool:
        return not self.findings

    def verdict_for(self, kind: str, head: int) -> Optional[LoopVerdict]:
        for v in self.loop_verdicts:
            if v.kind == kind and v.head == head:
                return v
        return None

    def predicted_rejects(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.loop_verdicts:
            if not v.accepted and v.reject_reason is not None:
                out[v.reject_reason] = out.get(v.reject_reason, 0) + 1
        return out


@dataclass(frozen=True)
class StaticContract:
    """Per-kernel-module contract checked by the analyzer.

    ``clean`` asserts the kernel's programs produce zero findings.
    ``allowed_rejects`` bounds the compile-reject reasons its loop
    sites may produce; ``min_vector_loops`` asserts at least that many
    accepted plans exist (the kernel really is on the fast path).
    ``waivers`` documents accepted findings as ``(kind, why)`` pairs.
    """

    name: str
    clean: bool = True
    allowed_rejects: FrozenSet[str] = frozenset()
    min_vector_loops: int = 0
    waivers: Tuple[Tuple[str, str], ...] = ()


def check_contract(
    contract: StaticContract, reports: List[AnalysisReport]
) -> List[str]:
    """Return a list of human-readable contract violations (empty = ok)."""
    problems: List[str] = []
    waived = {kind for kind, _ in contract.waivers}
    findings = [
        f for rep in reports for f in rep.findings if f.kind not in waived
    ]
    if contract.clean and findings:
        for f in findings:
            problems.append(f"{contract.name}: finding {f}")
    rejects: Dict[str, int] = {}
    accepted = 0
    for rep in reports:
        for reason, count in rep.predicted_rejects().items():
            rejects[reason] = rejects.get(reason, 0) + count
        accepted += sum(1 for v in rep.loop_verdicts if v.accepted)
    for reason in sorted(rejects):
        if reason not in contract.allowed_rejects:
            problems.append(
                f"{contract.name}: unexpected compile reject "
                f"{reason!r} ×{rejects[reason]}"
            )
    if accepted < contract.min_vector_loops:
        problems.append(
            f"{contract.name}: only {accepted} accepted vector loops, "
            f"contract requires >= {contract.min_vector_loops}"
        )
    return problems


# ---------------------------------------------------------------------------
# Abstract value domain: affine expressions over interval symbols.
# ---------------------------------------------------------------------------

_FULL = (0, _M32)

TAINT_LOAD = "load"  # value (transitively) read from memory
TAINT_CORE = "core"  # value (transitively) derived from the core id

_NO_TAINT: FrozenSet[str] = frozenset()


class _Sym:
    """An interval-bounded symbol.  Intervals are mutable so widening at
    join points is seen by every expression already referencing the
    symbol."""

    __slots__ = ("sid", "name", "lo", "hi", "taint", "periter", "widened")
    _next = 0

    def __init__(self, name, lo=0, hi=_M32, taint=_NO_TAINT, periter=False):
        _Sym._next += 1
        self.sid = _Sym._next
        self.name = name
        self.lo = lo
        self.hi = hi
        self.taint = taint
        self.periter = periter  # varies across vector lanes / trips
        self.widened = 0

    def widen(self, lo: int, hi: int) -> bool:
        nlo, nhi = min(self.lo, lo), max(self.hi, hi)
        if (nlo, nhi) == (self.lo, self.hi):
            return False
        self.widened += 1
        if self.widened >= 2:
            nlo, nhi = _FULL
        self.lo, self.hi = nlo, nhi
        return True


class _Val:
    """``const + Σ coef·sym`` with the invariant that the concrete value
    equals the expression exactly (no wrap hidden inside).  Operations
    that could wrap modulo 2**32 degrade to a fresh full-range symbol
    carrying the union of the operand taints."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        self.const = const
        self.terms = terms or {}  # sid -> (sym, coef)

    # -- interval ---------------------------------------------------------
    def range(self) -> Tuple[int, int]:
        lo = hi = self.const
        for sym, coef in self.terms.values():
            if coef >= 0:
                lo += coef * sym.lo
                hi += coef * sym.hi
            else:
                lo += coef * sym.hi
                hi += coef * sym.lo
        return lo, hi

    def const_value(self) -> Optional[int]:
        lo, hi = self.range()
        return lo if lo == hi else None

    def taint(self) -> FrozenSet[str]:
        out: FrozenSet[str] = _NO_TAINT
        for sym, coef in self.terms.values():
            if coef:
                out = out | sym.taint
        return out

    def periter_coef(self) -> bool:
        return any(
            coef and sym.periter for sym, coef in self.terms.values()
        )

    def key(self):
        return (
            self.const,
            tuple(sorted(
                (sid, coef) for sid, (s, coef) in self.terms.items() if coef
            )),
        )

    def same(self, other: "_Val") -> bool:
        return self.key() == other.key()


def _sym_val(sym: _Sym, coef: int = 1, const: int = 0) -> _Val:
    return _Val(const, {sym.sid: (sym, coef)})


def _fresh(name, lo=0, hi=_M32, taint=_NO_TAINT, periter=False) -> _Val:
    return _sym_val(_Sym(name, lo, hi, taint, periter))


def _in_u32(val: _Val) -> bool:
    lo, hi = val.range()
    return 0 <= lo and hi <= _M32


def _norm(val: _Val, name: str) -> _Val:
    """Keep the affine form only while provably wrap-free."""
    if _in_u32(val):
        return val
    return _fresh(name, taint=val.taint(), periter=val.periter_coef())


def _add(a: _Val, b: _Val, name="add") -> _Val:
    terms = dict(a.terms)
    for sid, (sym, coef) in b.terms.items():
        if sid in terms:
            terms[sid] = (sym, terms[sid][1] + coef)
        else:
            terms[sid] = (sym, coef)
    terms = {sid: tc for sid, tc in terms.items() if tc[1]}
    return _norm(_Val(a.const + b.const, terms), name)


def _neg(a: _Val) -> _Val:
    return _Val(-a.const, {
        sid: (sym, -coef) for sid, (sym, coef) in a.terms.items()
    })


def _sub(a: _Val, b: _Val, name="sub") -> _Val:
    return _add(a, _neg(b), name)


def _scale(a: _Val, k: int, name="mul") -> _Val:
    if k == 0:
        return _Val(0)
    return _norm(
        _Val(a.const * k, {
            sid: (sym, coef * k) for sid, (sym, coef) in a.terms.items()
        }),
        name,
    )

# ---------------------------------------------------------------------------
# Instruction transfer function.
# ---------------------------------------------------------------------------

def _u(v: int) -> int:
    return v & _M32


def _transfer(ins, regs: Dict[int, _Val], pc: int) -> None:
    """Apply one decoded instruction to the register map in place.

    Loads produce fresh ``TAINT_LOAD`` symbols; anything not modelled
    exactly degrades to a fresh full-range symbol with the operand
    taints.  ``regs[0]`` is pinned to the constant zero by callers."""
    op, rd, ra, rb, imm, imm2 = ins[0], ins[1], ins[2], ins[3], ins[4], ins[5]
    g = regs.get

    def setr(reg, val):
        if reg:
            regs[reg] = val

    def blur(reg, name, lo=0, hi=_M32, extra=_NO_TAINT):
        taint = extra
        for r in (ra, rb):
            v = g(r)
            if v is not None:
                taint = taint | v.taint()
        setr(reg, _fresh(f"{name}@{pc}", lo, hi, taint))

    a = g(ra) or _Val(0)
    b = g(rb) or _Val(0)
    if op == _d._OP_LI:
        setr(rd, _Val(_u(imm)))
    elif op == _d._OP_MV:
        setr(rd, a)
    elif op == _d._OP_ADD:
        setr(rd, _add(a, b, f"add@{pc}"))
    elif op == _d._OP_ADDI:
        setr(rd, _add(a, _Val(imm), f"addi@{pc}"))
    elif op == _d._OP_SUB:
        setr(rd, _sub(a, b, f"sub@{pc}"))
    elif op == _d._OP_SLLI:
        setr(rd, _scale(a, 1 << (imm & 31), f"slli@{pc}"))
    elif op == _d._OP_MUL:
        ka, kb = a.const_value(), b.const_value()
        if kb is not None:
            setr(rd, _scale(a, kb, f"mul@{pc}"))
        elif ka is not None:
            setr(rd, _scale(b, ka, f"mul@{pc}"))
        else:
            blur(rd, "mul")
    elif op == _d._OP_ANDI:
        ka = a.const_value()
        if ka is not None:
            setr(rd, _Val(ka & _u(imm)))
        else:
            m = _u(imm)
            _, hi = a.range()
            blur(rd, "andi", 0, min(m, hi if hi <= _M32 else _M32))
    elif op == _d._OP_AND:
        _, ha = a.range()
        _, hb = b.range()
        blur(rd, "and", 0, min(_M32, ha, hb))
    elif op == _d._OP_SRLI:
        ka = a.const_value()
        if ka is not None:
            setr(rd, _Val(ka >> (imm & 31)))
        else:
            _, hi = a.range()
            blur(rd, "srli", 0, min(hi, _M32) >> (imm & 31))
    elif op in (_d._OP_SLT, _d._OP_SLTU, _d._OP_SLTI, _d._OP_SLTIU):
        blur(rd, "slt", 0, 1)
    elif op == _d._OP_EXTRACTU or op == _d._OP_UBFX:
        width = imm2 if imm2 else 32
        blur(rd, "extract", 0, (1 << min(width, 32)) - 1)
    elif op == _d._OP_CNT:
        blur(rd, "cnt", 0, 32)
    elif op in (_d._OP_LW, _d._OP_LW_POST):
        setr(rd, _fresh(f"lw@{pc}", 0, _M32,
                        a.taint() | frozenset({TAINT_LOAD})))
        if op == _d._OP_LW_POST:
            regs[ra] = _add(a, _Val(imm), f"post@{pc}")
    elif op == _d._OP_LHU:
        setr(rd, _fresh(f"lhu@{pc}", 0, 0xFFFF,
                        a.taint() | frozenset({TAINT_LOAD})))
    elif op == _d._OP_LBU:
        setr(rd, _fresh(f"lbu@{pc}", 0, 0xFF,
                        a.taint() | frozenset({TAINT_LOAD})))
    elif op == _d._OP_SW_POST:
        regs[ra] = _add(a, _Val(imm), f"post@{pc}")
    elif op in (_d._OP_SW, _d._OP_SB, _d._OP_SH, _d._OP_NOP):
        pass
    elif op == _d._OP_JAL:
        setr(rd if rd else 1, _Val(pc + 1))
    elif op in _d._BRANCH_OPS or op in (
        _d._OP_J, _d._OP_JR, _d._OP_LPSETUP, _d._OP_BARRIER,
        _d._OP_HALT, _d._OP_DMA_COPY, _d._OP_DMA_WAIT,
    ):
        pass
    else:
        _, writes = _d._reads_writes(ins)
        for reg in writes:
            blur(reg, "op")
    regs[0] = _Val(0)


# ---------------------------------------------------------------------------
# Whole-program fixpoint over the CFG.
# ---------------------------------------------------------------------------

class _ProgramState:
    """Fixpoint result: abstract register state at every block entry."""

    def __init__(self, program: Program, n_cores: int,
                 args: Optional[dict] = None):
        self.program = program
        self.decoded = predecode(program)
        self.blocks = program.basic_blocks()
        self.succ = cfg_successors(program.instrs, self.blocks)
        self.starts = sorted(b.start for b in self.blocks)
        self.block_by_start = {b.start: b for b in self.blocks}
        self.n_cores = n_cores
        self.entry = self._entry_state(args or {})
        self.block_in: Dict[int, Dict[int, _Val]] = {}
        self._join_syms: Dict[Tuple[int, int], _Sym] = {}
        self.reachable: set = set()
        self._run()

    def _entry_state(self, args: dict) -> Dict[int, _Val]:
        regs: Dict[int, _Val] = {r: _Val(0) for r in range(N_REGS)}
        if self.n_cores > 1:
            regs[CORE_ID_REG] = _fresh(
                "core_id", 0, self.n_cores - 1,
                frozenset({TAINT_CORE}),
            )
        regs[N_CORES_REG] = _Val(self.n_cores)
        for i, reg in enumerate(ARG_REGS):
            if i < len(args) if isinstance(args, (list, tuple)) else reg in args:
                value = args[i] if isinstance(args, (list, tuple)) else args[reg]
                regs[reg] = _Val(_u(int(value)))
            else:
                regs[reg] = _fresh(f"arg{i}")
        return regs

    def _join(self, start: int, incoming: Dict[int, _Val]) -> bool:
        cur = self.block_in.get(start)
        if cur is None:
            self.block_in[start] = dict(incoming)
            return True
        changed = False
        for reg in range(N_REGS):
            old = cur.get(reg) or _Val(0)
            new = incoming.get(reg) or _Val(0)
            if old.same(new):
                continue
            sym = self._join_syms.get((start, reg))
            lo1, hi1 = old.range()
            lo2, hi2 = new.range()
            lo = max(0, min(lo1, lo2))
            hi = min(_M32, max(hi1, hi2))
            taint = old.taint() | new.taint()
            if sym is not None and len(old.terms) == 1 and not old.const \
                    and sym.sid in old.terms and old.terms[sym.sid][1] == 1:
                # Already joined here: widen the existing symbol.
                if sym.widen(lo, hi) or not taint <= sym.taint:
                    sym.taint = sym.taint | taint
                    changed = True
                continue
            sym = _Sym(f"join@{start}:r{reg}", lo, hi, taint)
            self._join_syms[(start, reg)] = sym
            cur[reg] = _sym_val(sym)
            changed = True
        return changed

    def _run(self) -> None:
        entry = self.starts[0] if self.starts else 0
        self.block_in[entry] = dict(self.entry)
        work = [entry]
        iters = 0
        limit = 40 * max(1, len(self.blocks))
        while work and iters < limit:
            iters += 1
            start = work.pop()
            self.reachable.add(start)
            block = self.block_by_start[start]
            regs = dict(self.block_in[start])
            for pc in range(block.start, block.end):
                _transfer(self.decoded[pc], regs, pc)
            succ = self.succ.get(start)
            if succ is None:  # jr: over-approximate with every block
                succ = tuple(self.starts)
            for nxt in succ:
                if nxt in self.block_by_start and self._join(nxt, regs):
                    if nxt not in work:
                        work.append(nxt)
                elif nxt in self.block_by_start and nxt not in self.reachable:
                    if nxt not in work:
                        work.append(nxt)

    def state_at(self, pc: int) -> Dict[int, _Val]:
        """Abstract register state immediately before ``pc``."""
        idx = bisect_right(self.starts, pc) - 1
        start = self.starts[max(0, idx)]
        regs = dict(self.block_in.get(start) or self.entry)
        for p in range(start, pc):
            _transfer(self.decoded[p], regs, p)
        return regs

# ---------------------------------------------------------------------------
# CFG / dataflow findings.
# ---------------------------------------------------------------------------

def _cfg_findings(state: _ProgramState) -> List[Finding]:
    out: List[Finding] = []
    for block in state.blocks:
        if block.start not in state.reachable:
            out.append(Finding(
                F_UNREACHABLE, block.start,
                f"block [{block.start}, {block.end}) is unreachable",
            ))
    return out


def _hw_loop_findings(state: _ProgramState) -> List[Finding]:
    decoded = state.decoded
    regions = hw_loop_regions(state.program.instrs)
    out: List[Finding] = []
    spans = [(body, end, setup) for setup, body, end in regions]
    for setup, body, end in regions:
        if end <= body:
            out.append(Finding(
                F_HW_EMPTY, setup,
                f"hw loop body [{body}, {end}) is empty",
            ))
            continue
        depth = 1
        for b2, e2, s2 in spans:
            if s2 == setup:
                continue
            if b2 <= setup and end <= e2:
                depth += 1
            elif (b2 < end and body < e2) and not (
                body <= b2 and e2 <= end
            ) and not (b2 <= body and end <= e2):
                out.append(Finding(
                    F_HW_OVERLAP, setup,
                    f"hw loop [{body}, {end}) partially overlaps "
                    f"[{b2}, {e2}) set up at pc {s2}",
                ))
        if depth > 2:
            out.append(Finding(
                F_HW_DEPTH, setup,
                f"hw loop nesting depth {depth} exceeds the 2 supported "
                "levels",
            ))
        # Transfers landing on the loop-end pc from outside the body
        # bypass the loop-setup bookkeeping (the bug class the
        # dispatcher had to re-guard at runtime).
        for pc, ins in enumerate(decoded):
            op, tgt = ins[0], ins[6]
            if pc == setup or body <= pc < end:
                continue
            if op in _d._BRANCH_OPS or op in (_d._OP_J, _d._OP_JAL):
                if tgt is not None and tgt == end and end < len(decoded):
                    out.append(Finding(
                        F_HW_END_ENTRY, pc,
                        f"transfer to hw-loop end pc {end} from outside "
                        f"body [{body}, {end})",
                    ))
        # Transfers escaping the body to anywhere but the end pc leave
        # the loop counter armed.
        for pc in range(body, end):
            ins = decoded[pc]
            op, tgt = ins[0], ins[6]
            if op in _d._BRANCH_OPS or op in (_d._OP_J, _d._OP_JAL):
                if tgt is not None and not (body <= tgt <= end):
                    out.append(Finding(
                        F_HW_END_ENTRY, pc,
                        f"transfer out of hw-loop body [{body}, {end}) "
                        f"to pc {tgt}",
                    ))
    return out


_ENTRY_REGS = frozenset(
    {0, CORE_ID_REG, N_CORES_REG} | set(ARG_REGS)
)


def _uninit_findings(state: _ProgramState) -> List[Finding]:
    """Definite-assignment dataflow (intersection over predecessors).

    The cluster zero-initialises every register, so an "uninitialised"
    read is not undefined behaviour — but a read of a register no path
    has written is almost always a kernel bug, and it is exactly the
    shape the fast path's trip solver treats as a constant-zero.
    """
    full = (1 << N_REGS) - 1
    entry_mask = 0
    for reg in _ENTRY_REGS:
        entry_mask |= 1 << reg
    out_mask: Dict[int, int] = {}
    starts = state.starts
    preds: Dict[int, List[int]] = {s: [] for s in starts}
    for s in starts:
        succ = state.succ.get(s)
        if succ is None:
            succ = tuple(starts)
        for nxt in succ:
            if nxt in preds:
                preds[nxt].append(s)
    changed = True
    while changed:
        changed = False
        for s in starts:
            if s not in state.reachable:
                continue
            block = state.block_by_start[s]
            if s == starts[0]:
                mask = entry_mask
            else:
                mask = full
                for p in preds[s]:
                    if p in state.reachable:
                        mask &= out_mask.get(p, full)
                mask |= entry_mask
            for pc in range(block.start, block.end):
                _, writes = _d._reads_writes(state.decoded[pc])
                for reg in writes:
                    mask |= 1 << reg
            if out_mask.get(s) != mask:
                out_mask[s] = mask
                changed = True
    findings: List[Finding] = []
    seen = set()
    for s in starts:
        if s not in state.reachable:
            continue
        block = state.block_by_start[s]
        if s == starts[0]:
            mask = entry_mask
        else:
            mask = full
            for p in preds[s]:
                if p in state.reachable:
                    mask &= out_mask.get(p, full)
            mask |= entry_mask
        for pc in range(block.start, block.end):
            reads, writes = _d._reads_writes(state.decoded[pc])
            for reg in reads:
                if reg and not (mask >> reg) & 1 and (pc, reg) not in seen:
                    seen.add((pc, reg))
                    findings.append(Finding(
                        F_UNINIT_READ, pc,
                        f"r{reg} read but never written on some path "
                        "from entry",
                    ))
            for reg in writes:
                mask |= 1 << reg
    return findings


# ---------------------------------------------------------------------------
# Memory-region checks.
# ---------------------------------------------------------------------------

def _regions(memory: MemoryConfig) -> Tuple[Tuple[int, int], ...]:
    return (
        (L1_BASE, L1_BASE + memory.l1_bytes),
        (L2_BASE, L2_BASE + memory.l2_bytes),
    )


def _contained(lo: int, hi: int, regions) -> Optional[bool]:
    """True = provably inside one region, False = provably outside all,
    None = unproven.  ``hi`` is the inclusive last byte."""
    if lo > hi:
        return None
    for rlo, rhi in regions:
        if rlo <= lo and hi < rhi:
            return True
    if all(hi < rlo or lo >= rhi for rlo, rhi in regions):
        return False
    return None


def _memory_findings(
    state: _ProgramState, memory: MemoryConfig
) -> Tuple[List[Finding], int]:
    """Check every reachable load/store site; returns (findings, unproven)."""
    regions = _regions(memory)
    findings: List[Finding] = []
    unproven = 0
    for s in sorted(state.reachable):
        block = state.block_by_start.get(s)
        if block is None:
            continue
        regs = dict(state.block_in.get(s) or state.entry)
        for pc in range(block.start, block.end):
            ins = state.decoded[pc]
            op = ins[0]
            width = _d._MEM_WIDTH.get(op)
            if width is not None:
                addr = _add(regs.get(ins[2]) or _Val(0), _Val(ins[4]),
                            f"addr@{pc}")
                lo, hi = addr.range()
                kaddr = addr.const_value()
                if kaddr is not None and kaddr % width:
                    findings.append(Finding(
                        F_MISALIGNED, pc,
                        f"address 0x{kaddr:08x} misaligned for "
                        f"width-{width} access",
                    ))
                inside = _contained(lo, hi + width - 1, regions)
                if inside is False:
                    findings.append(Finding(
                        F_OUT_OF_REGION, pc,
                        f"address range [0x{lo:08x}, 0x{hi + width - 1:08x}]"
                        " is outside every declared memory region",
                    ))
                elif inside is None:
                    unproven += 1
            _transfer(ins, regs, pc)
    return findings, unproven


# ---------------------------------------------------------------------------
# Whole-program instruction-count bound.
# ---------------------------------------------------------------------------

def _work_bound(state: _ProgramState) -> Optional[int]:
    """Upper bound on instructions one core can retire, or None.

    Multiplicities multiply through statically-bounded loop regions (hw
    loops with a provable trip bound, backward-branch do-while loops
    with a constant-solvable trip count).  Any backward edge not
    covered by a bounded region makes the bound None (unbounded).
    """
    decoded = state.decoded
    n = len(decoded)
    mult = [1] * n
    for setup, body, end in hw_loop_regions(state.program.instrs):
        trips = state.state_at(setup).get(decoded[setup][2]) or _Val(0)
        _, hi = trips.range()
        if hi > 1 << 40:
            return None
        for pc in range(body, end):
            mult[pc] *= max(1, hi)
    for pc, ins in enumerate(decoded):
        op, tgt = ins[0], ins[6]
        if op in _d._BRANCH_OPS and tgt is not None and tgt <= pc:
            ra, rb = ins[2], ins[3]
            regs = state.state_at(tgt)
            a = regs.get(ra) or _Val(0)
            b = regs.get(rb) or _Val(0)
            ka, kb = a.const_value(), b.const_value()
            step = _branch_step(decoded, tgt, pc, ra)
            step_b = _branch_step(decoded, tgt, pc, rb)
            trips = None
            if (
                ka is not None and kb is not None
                and step is not None and step_b == 0
            ):
                signed = op in (_d._OP_BLT, _d._OP_BGE)
                trips = _d._solve_branch_trips(op, ka, step, kb, signed)
            if trips is None:
                return None
            for p in range(tgt, pc + 1):
                mult[p] *= max(1, trips)
        elif op == _d._OP_J and tgt is not None and tgt <= pc:
            return None
        elif op == _d._OP_JR or op == _d._OP_JAL:
            return None
    return sum(mult)


def _branch_step(decoded, head: int, branch_pc: int, reg: int) -> Optional[int]:
    """Net constant step of ``reg`` over one straight-line loop body, or
    None when any write is not a constant self-increment."""
    if reg == 0:
        return 0
    step = 0
    for pc in range(head, branch_pc):
        ins = decoded[pc]
        op, rd, ra, imm = ins[0], ins[1], ins[2], ins[4]
        _, writes = _d._reads_writes(ins)
        if op == _d._OP_ADDI and rd == reg and ra == reg:
            step += imm
        elif op in (_d._OP_LW_POST, _d._OP_SW_POST) and ra == reg and (
            op == _d._OP_SW_POST or rd != reg
        ):
            step += imm
        elif reg in writes:
            return None
    return step

# ---------------------------------------------------------------------------
# Vectorizability certifier.
# ---------------------------------------------------------------------------

def _lane_varying(val: _Val) -> bool:
    return val.periter_coef() or bool(val.taint())


class _RegionWalk:
    """One symbolic iteration over an accepted plan's unit tree.

    Induction registers advance by ``step * ITER`` where ``ITER`` is a
    per-lane symbol spanning the engaged trip range, so an address
    expression's interval covers every lane and its ``ITER`` coefficient
    is the lane stride.  Anything inside nested units is handled
    conservatively (the walk only needs to *over*-approximate)."""

    def __init__(self, plan, state: _ProgramState, trips_hi: int):
        self.plan = plan
        self.state = state
        self.decoded = state.decoded
        # Plan units hold region-relative indices (``_rebased_region``
        # normalises them for memoization); rebase to absolute pcs.
        self.base = plan.head + 1 if plan.kind == "hw" else plan.head
        self.trips_hi = max(1, min(trips_hi, _d.MAX_VECTOR_TRIPS))
        self.iter_sym = _Sym("ITER", 0, self.trips_hi - 1, periter=True)
        self.accesses: List[tuple] = []  # (pc, 'load'|'store', width, val|None)
        self.reasons: set = set()
        env = dict(state.state_at(plan.head))
        for reg, step in plan.inductions.items():
            base = env.get(reg) or _Val(0)
            env[reg] = _add(
                base, _sym_val(self.iter_sym, step), f"ind:r{reg}"
            )
        for reg in plan.reduction_regs:
            env[reg] = _fresh(f"red:r{reg}", periter=True)
        self.env = env
        self._walk(plan.units)

    def _blur_writes(self, units) -> None:
        for unit in units:
            if isinstance(unit, int):
                _, writes = _d._reads_writes(self.decoded[self.base + unit])
                for reg in writes:
                    if reg:
                        self.env[reg] = _fresh(f"inner:r{reg}", periter=True)
            else:
                inner = unit.units
                self._blur_writes(inner)

    def _collect_inner_accesses(self, units) -> None:
        for unit in units:
            if isinstance(unit, int):
                ins = self.decoded[self.base + unit]
                width = _d._MEM_WIDTH.get(ins[0])
                if width is not None:
                    kind = "load" if ins[0] in _d._LOAD_OPS else "store"
                    self.accesses.append((self.base + unit, kind, width, None))
            else:
                self._collect_inner_accesses(unit.units)

    def _walk(self, units) -> None:
        for unit in units:
            if isinstance(unit, int):
                pc = self.base + unit
                ins = self.decoded[pc]
                op = ins[0]
                width = _d._MEM_WIDTH.get(op)
                if width is not None:
                    base = self.env.get(ins[2]) or _Val(0)
                    addr = _add(base, _Val(ins[4]), f"addr@{pc}")
                    kind = "load" if op in _d._LOAD_OPS else "store"
                    self.accesses.append((pc, kind, width, addr))
                _transfer(ins, self.env, pc)
                if op in _d._LOAD_OPS and ins[1]:
                    # Per-lane load results vary across lanes.
                    self.env[ins[1]] = _fresh(
                        f"vload@{pc}", periter=True,
                        taint=frozenset({TAINT_LOAD}),
                    )
            elif isinstance(unit, _fp._InnerHw):
                setup = self.decoded[self.base + unit.setup]
                trips = self.env.get(setup[2]) or _Val(0)
                if _lane_varying(trips):
                    self.reasons.add(_d.REASON_DIVERGENT_TRIP_COUNT)
                _, hi = trips.range()
                if hi > _d.MAX_VECTOR_TRIPS:
                    self.reasons.add(_d.REASON_RUNAWAY_INNER_LOOP)
                self._collect_inner_accesses(unit.units)
                self._blur_writes(unit.units)
            else:  # _InnerBranch
                self.reasons.add(_d.REASON_DIVERGENT_BRANCH)
                self.reasons.add(_d.REASON_RUNAWAY_INNER_LOOP)
                self._collect_inner_accesses(unit.units)
                self._blur_writes(unit.units)

    # -- per-access lane geometry ----------------------------------------
    def lane_form(self, addr: Optional[_Val]):
        """(stride, base_key) when every lane address is affine in ITER
        with no other lane-varying symbol; None otherwise.  ``base_key``
        identifies the ITER-independent part for pairwise diffs."""
        if addr is None:
            return None
        stride = 0
        rest_terms = []
        for sid, (sym, coef) in addr.terms.items():
            if not coef:
                continue
            if sym is self.iter_sym:
                stride = coef
            elif sym.periter:
                return None
            else:
                rest_terms.append((sid, coef))
        return stride, (addr.const, tuple(sorted(rest_terms)))


def _pair_disjoint(form_a, width_a, form_b, width_b) -> bool:
    """Static mirror of ``fastpath._accesses_disjoint``'s phase test."""
    if form_a is None or form_b is None:
        return False
    (sa, (ca, ta)) = form_a
    (sb, (cb, tb)) = form_b
    if sa != sb or sa == 0 or ta != tb:
        return False
    s = abs(sa)
    d = (ca - cb) % s
    return d >= width_b and d + width_a <= s


def _memory_bail_reasons(
    walk: _RegionWalk, memory: MemoryConfig
) -> set:
    """Over-approximate span/overlap bail reasons for a region's
    accesses.  ``unaligned-access`` is never predicted: the oracle
    memory system faults on misalignment, so on a completed run it
    cannot be the first divergence (documented module assumption)."""
    regions = _regions(memory)
    reasons: set = set()
    loads: List[tuple] = []
    stores: List[tuple] = []
    for pc, kind, width, addr in walk.accesses:
        form = walk.lane_form(addr)
        if addr is not None:
            lo, hi = addr.range()
            inside = _contained(lo, hi + width - 1, regions)
        else:
            inside = None
        if kind == "load":
            if inside is not True:
                reasons.add(_d.REASON_GATHER_SPAN)
                reasons.add(_d.REASON_REGION_SPAN)
            loads.append((pc, width, addr, form))
        else:
            if inside is not True:
                reasons.add(_d.REASON_REGION_SPAN)
            if form is None:
                reasons.add(_d.REASON_DUPLICATE_STORE_LANES)
            elif form[0] == 0 and walk.trips_hi > 1:
                reasons.add(_d.REASON_DUPLICATE_STORE_LANES)
            stores.append((pc, width, addr, form))
    for i, (pc_a, wa, addr_a, fa) in enumerate(stores):
        for pc_b, wb, addr_b, fb in stores[i + 1:]:
            if not _pair_disjoint(fa, wa, fb, wb):
                reasons.add(_d.REASON_STORE_OVERLAP)
        for pc_l, wl, addr_l, fl in loads:
            if (
                addr_a is not None and addr_l is not None
                and wa == wl and addr_a.same(addr_l)
            ):
                continue  # exact read-modify-write lanes are allowed
            if not _pair_disjoint(fa, wa, fl, wl):
                reasons.add(_d.REASON_LOAD_STORE_OVERLAP)
    return reasons


def _possible_bails(
    plan, state: _ProgramState, memory: MemoryConfig,
    work_bound: Optional[int], max_instructions: int,
) -> FrozenSet[str]:
    decoded = state.decoded
    reasons: set = set()
    trips_hi = _d.MAX_VECTOR_TRIPS + 1  # unknown until proven
    if plan.kind == "hw":
        trips = state.state_at(plan.head).get(decoded[plan.head][2])
        _, hi = (trips or _Val(0)).range()
        if hi <= _d.MAX_VECTOR_TRIPS:
            trips_hi = max(1, hi)
        else:
            reasons.add(_d.REASON_TRIP_COUNT_RANGE)
    else:
        ins = decoded[plan.branch_pc]
        op, ra, rb = ins[0], ins[2], ins[3]
        ra_step = plan.inductions.get(ra)
        if ra_step is None and (ra == 0 or ra not in plan.written_regs):
            ra_step = 0
        if ra_step is None or not (rb == 0 or rb not in plan.written_regs):
            # Trip shape is unsolvable: the vector body never runs, so
            # no other bail reason can fire at this site.
            return frozenset({_d.REASON_TRIP_UNSOLVABLE})
        regs = state.state_at(plan.head)
        a = regs.get(ra) or _Val(0)
        b = regs.get(rb) or _Val(0)
        ka, kb = a.const_value(), b.const_value()
        solved = None
        if ka is not None and kb is not None:
            signed = op in (_d._OP_BLT, _d._OP_BGE)
            solved = _d._solve_branch_trips(op, ka, ra_step, kb, signed)
        if solved is None:
            reasons.add(_d.REASON_TRIP_UNSOLVABLE)
            reasons.add(_d.REASON_TRIP_COUNT_RANGE)
        elif solved < 1 or solved > _d.MAX_VECTOR_TRIPS:
            reasons.add(_d.REASON_TRIP_COUNT_RANGE)
        else:
            trips_hi = solved
        if a.taint() or b.taint():
            # The laned engine additionally needs the condition operands
            # uniform across lanes (cores).
            reasons.add(_d.REASON_TRIP_UNSOLVABLE)
        if work_bound is None or work_bound > max_instructions:
            reasons.add(_d.REASON_INSTRUCTION_CAP)
    walk = _RegionWalk(plan, state, min(trips_hi, _d.MAX_VECTOR_TRIPS))
    reasons |= walk.reasons
    reasons |= _memory_bail_reasons(walk, memory)
    return frozenset(reasons)


def predict_loop_verdicts(
    program: Program,
    profile: ArchProfile,
    state: Optional[_ProgramState] = None,
    memory: Optional[MemoryConfig] = None,
    n_cores: int = 1,
    args: Optional[dict] = None,
    max_instructions: int = 200_000_000,
) -> List[LoopVerdict]:
    """Mirror ``fastpath.compile_program``'s plan discovery exactly.

    Accept/reject verdicts and reject reasons are identical to the
    engine's by construction (the same ``_build_plan`` runs, which
    records no telemetry); ``possible_bails`` over-approximates the
    runtime bail reasons reachable at each accepted site."""
    if state is None:
        state = _ProgramState(program, n_cores, args)
    if memory is None:
        memory = MemoryConfig()
    decoded = state.decoded
    work = _work_bound(state)
    verdicts: List[LoopVerdict] = []
    branch_heads: Dict[int, List[int]] = {}
    for pc, ins in enumerate(decoded):
        op = ins[0]
        if op == _d._OP_LPSETUP:
            end = ins[6]
            try:
                plan = _fp._build_plan(
                    decoded, "hw", pc, pc + 1, end, end, None, profile
                )
            except _d._Bail as bail:
                verdicts.append(LoopVerdict("hw", pc, False, bail.reason))
                continue
            verdicts.append(LoopVerdict(
                "hw", pc, True,
                possible_bails=_possible_bails(
                    plan, state, memory, work, max_instructions
                ),
            ))
        elif op in _d._BRANCH_OPS:
            tgt = ins[6]
            if tgt is None or tgt > pc:
                continue
            try:
                plan = _fp._build_plan(
                    decoded, "branch", tgt, tgt, pc, pc + 1, pc, profile
                )
            except _d._Bail as bail:
                verdicts.append(LoopVerdict(
                    "branch", tgt, False, bail.reason
                ))
                continue
            branch_heads.setdefault(tgt, []).append(len(verdicts))
            verdicts.append(LoopVerdict(
                "branch", tgt, True,
                possible_bails=_possible_bails(
                    plan, state, memory, work, max_instructions
                ),
            ))
    for head, idxs in branch_heads.items():
        if len(idxs) > 1:
            # Two accepted loops share a head: the dispatcher keeps
            # neither plan; the sites produce no telemetry at all.
            for i in idxs:
                v = verdicts[i]
                verdicts[i] = LoopVerdict(
                    v.kind, v.head, True, disqualified=True,
                    possible_bails=v.possible_bails,
                )
    return verdicts


# ---------------------------------------------------------------------------
# Lockstep (multi-core divergence) prediction.
# ---------------------------------------------------------------------------

def predict_lockstep_bails(
    state: _ProgramState,
    memory: Optional[MemoryConfig] = None,
    work_bound: Optional[int] = None,
) -> FrozenSet[str]:
    """Over-approximate the :class:`LockstepBail` reasons reachable for
    this program.  Laned-engine fallbacks carry a ``laned-`` prefix on
    the same vocabulary; strip it before comparing."""
    if memory is None:
        memory = MemoryConfig()
    regions = _regions(memory)
    reasons: set = set()
    for s in sorted(state.reachable):
        block = state.block_by_start.get(s)
        if block is None:
            continue
        regs = dict(state.block_in.get(s) or state.entry)
        for pc in range(block.start, block.end):
            ins = state.decoded[pc]
            op = ins[0]
            a = regs.get(ins[2]) or _Val(0)
            b = regs.get(ins[3]) or _Val(0)
            if op == _d._OP_JR:
                if a.taint():
                    reasons.add(LS_DIVERGENT_JUMP)
            elif op in _d._BRANCH_OPS:
                if a.taint() or b.taint():
                    reasons.add(LS_DIVERGENT_BRANCH)
                    tgt = ins[6]
                    if tgt is not None and tgt <= pc:
                        reasons.add(LS_DIVERGENT_TRIP_COUNT)
            elif op == _d._OP_LPSETUP:
                if a.taint():
                    reasons.add(LS_DIVERGENT_TRIP_COUNT)
            elif op == _d._OP_DMA_COPY:
                rd_val = regs.get(ins[1]) or _Val(0)
                if a.taint() or b.taint() or rd_val.taint():
                    reasons.add(LS_DIVERGENT_DMA)
            # Team fusion, path-insensitively: any core's DMA or store.
            if state.n_cores > 1 and op in (_d._OP_DMA_COPY, _d._OP_DMA_WAIT):
                reasons.update((LS_TEAM_CLOCK, LS_TEAM_SHARED_DATA))
            elif state.n_cores > 1 and op in _d._STORE_OPS:
                reasons.add(LS_TEAM_SHARED_DATA)
            width = _d._MEM_WIDTH.get(op)
            if width is not None:
                addr = _add(a, _Val(ins[4]), f"ls@{pc}")
                kaddr = addr.const_value()
                if kaddr is None or kaddr % width:
                    reasons.add(LS_MISALIGNED)
                lo, hi = addr.range()
                if _contained(lo, hi + width - 1, regions) is not True:
                    reasons.add(LS_ADDRESS_RANGE)
                if op in _d._STORE_OPS and a.taint():
                    reasons.add(LS_DIVERGENT_STORE_ADDRESS)
            _transfer(ins, regs, pc)
    if work_bound is None:
        reasons.add(LS_INSTRUCTION_CAP)
    return frozenset(reasons)

# ---------------------------------------------------------------------------
# Top-level entry point.
# ---------------------------------------------------------------------------

def analyze_program(
    program: Program,
    profile: ArchProfile,
    *,
    memory: Optional[MemoryConfig] = None,
    n_cores: int = 1,
    args: Optional[dict] = None,
    max_instructions: int = 200_000_000,
) -> AnalysisReport:
    """Run every static analysis over one assembled program.

    ``args`` seeds the abstract entry state for the argument registers
    (``r12..r17``): a mapping ``reg -> value`` or a positional sequence.
    Unseeded arguments are unknown, which leaves address containment
    unproven (counted, not flagged)."""
    if memory is None:
        memory = MemoryConfig()
    state = _ProgramState(program, n_cores, args)
    findings: List[Finding] = []
    findings.extend(_cfg_findings(state))
    findings.extend(_hw_loop_findings(state))
    findings.extend(_uninit_findings(state))
    mem_findings, unproven = _memory_findings(state, memory)
    findings.extend(mem_findings)
    work = _work_bound(state)
    verdicts = predict_loop_verdicts(
        program, profile, state, memory,
        max_instructions=max_instructions,
    )
    lockstep = predict_lockstep_bails(state, memory, work)
    return AnalysisReport(
        n_instrs=len(state.decoded),
        findings=findings,
        loop_verdicts=verdicts,
        lockstep_reasons=lockstep,
        unproven_accesses=unproven,
        work_bound=work,
    )


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def _print_report(name: str, report: AnalysisReport) -> None:
    accepted = sum(1 for v in report.loop_verdicts if v.accepted)
    clean = sum(1 for v in report.loop_verdicts if v.clean)
    print(f"== {name} ({report.n_instrs} instrs)")
    print(
        f"   loops: {len(report.loop_verdicts)} sites, "
        f"{accepted} accepted, {clean} certified clean; "
        f"work bound: "
        + (f"{report.work_bound}" if report.work_bound is not None
           else "unbounded")
    )
    for v in report.loop_verdicts:
        if v.accepted:
            tag = "CLEAN" if v.clean else "accept"
            extra = (
                "" if v.clean
                else " bails⊆{" + ",".join(sorted(v.possible_bails)) + "}"
            )
            if v.disqualified:
                tag = "shared-head"
            print(f"     {v.kind:6s} @pc {v.head:4d}  {tag}{extra}")
        else:
            print(
                f"     {v.kind:6s} @pc {v.head:4d}  reject "
                f"({v.reject_reason})"
            )
    for f in report.findings:
        print(f"   FINDING {f}")
    if report.lockstep_reasons:
        print(
            "   lockstep⊆{" + ",".join(sorted(report.lockstep_reasons)) + "}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.pulp.analyze",
        description=(
            "Static analysis and vectorizability certification over the "
            "kernel corpus."
        ),
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="differentially check verdicts against runtime telemetry "
             "(slow; runs the corpus on the fast engine)",
    )
    parser.add_argument(
        "--machine", default=None,
        help="restrict the corpus to one machine profile",
    )
    opts = parser.parse_args(argv)

    from ..kernels import corpus  # lazy: kernels import this module

    failures: List[str] = []
    for entry in corpus.static_entries(machine=opts.machine):
        report = analyze_program(
            entry.program, entry.profile,
            memory=entry.memory, n_cores=entry.n_cores, args=entry.args,
        )
        _print_report(entry.name, report)
        failures.extend(check_contract(entry.contract, [report]))

    if opts.certify:
        print("== differential certification (analyzer vs telemetry)")
        failures.extend(corpus.certify(machine=opts.machine))

    if failures:
        print(f"\n{len(failures)} contract/certification failure(s):")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print("\nall contracts hold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
