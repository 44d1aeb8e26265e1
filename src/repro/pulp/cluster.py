"""Multi-core cluster execution with barrier-segment scheduling.

All cores of a team execute the same program (SPMD, as the paper's
OpenMP kernels do), distinguished by the core-id register.  The cluster
advances execution in *segments*: every core runs independently until it
reaches a ``barrier`` or ``halt``; at a barrier the cluster aligns all
core clocks to the slowest core plus the architecture's barrier cost,
then resumes.  Between barriers cores must touch disjoint data (the
kernels partition hypervector words statically), which is what makes the
segment model exact for these workloads; the laned engine, which runs a
team's cores interleaved, checks it each segment
(:func:`repro.pulp.lockstep._check_disjoint`).

Fork and join overheads of the surrounding parallel region are charged at
run start and end for multi-core teams, per
:func:`repro.pulp.runtime.runtime_costs`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assembler import CORE_ID_REG, N_CORES_REG, ARG_REGS, Program
from .core import Core, ExecutionError, STOP_HALT, predecode
from .dma import DMAEngine
from .fastpath import FastCore, compile_program
from .isa import ArchProfile
from .memory import MemoryConfig, MemorySystem

ENGINES = ("auto", "fast", "interp")
"""Execution engines: ``fast`` is the block-compiled / vectorizing
engine, ``interp`` the per-instruction reference interpreter, ``auto``
currently resolves to ``fast`` (the fast path is architecturally exact
and falls back per-loop on anything it cannot vectorize)."""

ENGINE_ENV_VAR = "REPRO_ISS_ENGINE"
"""Environment override for the engine choice (takes effect when the
``Cluster`` is built without an explicit ``engine=``)."""


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an engine request against the environment override."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV_VAR) or "auto"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown ISS engine {engine!r}; known: {ENGINES}"
        )
    return "fast" if engine == "auto" else engine


@dataclass(frozen=True)
class ClusterRunResult:
    """Timing and accounting summary of one program run."""

    program_name: str
    n_cores: int
    total_cycles: int
    per_core_cycles: tuple
    per_core_instrs: tuple
    n_barriers: int
    fork_cycles: int
    join_cycles: int
    barrier_cycles: int
    dma_bytes: int

    @property
    def total_instrs(self) -> int:
        """Dynamic instruction count across all cores."""
        return sum(self.per_core_instrs)


class Cluster:
    """A PULP-style compute cluster: cores + shared L1 + DMA."""

    def __init__(
        self,
        profile: ArchProfile,
        n_cores: int,
        memory_config: Optional[MemoryConfig] = None,
        engine: Optional[str] = None,
    ):
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        if n_cores > profile.max_cores:
            raise ValueError(
                f"{profile.name} supports at most {profile.max_cores} "
                f"cores, got {n_cores}"
            )
        self.profile = profile
        self.n_cores = n_cores
        self.engine = resolve_engine(engine)
        self.memory = MemorySystem(
            memory_config
            or MemoryConfig(
                l2_extra_cycles=profile.l2_extra_cycles,
                n_banks=profile.n_tcdm_banks,
            )
        )
        self.dma = DMAEngine(
            self.memory, bytes_per_cycle=profile.dma_bytes_per_cycle
        )
        core_cls = FastCore if self.engine == "fast" else Core
        self.cores = [
            core_cls(core_id, profile, self.memory, dma=self.dma)
            for core_id in range(n_cores)
        ]

    # -- data placement helpers ---------------------------------------------

    def write_words(self, addr: int, words: np.ndarray) -> None:
        """Place a uint32 array into simulated memory (untimed)."""
        words = np.ascontiguousarray(words, dtype="<u4")
        self.memory.write_bytes(addr, words.tobytes())

    def read_words(self, addr: int, count: int) -> np.ndarray:
        """Read ``count`` uint32 words back from simulated memory."""
        data = self.memory.read_bytes(addr, count * 4)
        return np.frombuffer(data, dtype="<u4").astype(np.uint32)

    def write_word(self, addr: int, value: int) -> None:
        """Place one 32-bit value (untimed)."""
        self.memory.write_word(addr, value)

    def read_word(self, addr: int) -> int:
        """Read one 32-bit value (untimed)."""
        return self.memory.read_word(addr)

    # -- execution -------------------------------------------------------------

    def run(
        self, program: Program, args: Sequence[int] = ()
    ) -> ClusterRunResult:
        """Run ``program`` on all cores of the team.

        ``args`` are placed in the argument registers (r12..) of every
        core.  Returns the run summary; the memory retains all side
        effects for result readback.
        """
        from .runtime import runtime_costs  # local import to avoid cycle

        if program.profile_name != self.profile.name:
            raise ValueError(
                f"program was assembled for {program.profile_name!r}, "
                f"cluster is {self.profile.name!r}"
            )
        if len(args) > len(ARG_REGS):
            raise ValueError(
                f"at most {len(ARG_REGS)} kernel arguments supported, "
                f"got {len(args)}"
            )
        # predecode caches on the Program object itself, so the decoded
        # form can never outlive (or be mistakenly served to) another
        # program — the old id(program)-keyed cluster cache could, once
        # an id was reused after garbage collection.
        decoded = predecode(program)
        compiled = (
            compile_program(program, self.profile)
            if self.engine == "fast"
            else None
        )
        costs = runtime_costs(self.profile, self.n_cores)

        self.memory.set_team_size(self.n_cores)
        self.dma.reset()
        for core in self.cores:
            if compiled is not None:
                core.load_program(decoded, compiled)
            else:
                core.load_program(decoded)
            core.cycles = costs.fork
            core.instr_count = 0
            core.regs = [0] * 32
            core.regs[CORE_ID_REG] = core.core_id
            core.regs[N_CORES_REG] = self.n_cores
            for position, value in enumerate(args):
                core.regs[ARG_REGS[position]] = int(value) & 0xFFFFFFFF

        n_barriers = 0
        barrier_cycles_total = 0
        active = list(self.cores)
        while active:
            reasons = [core.run() for core in active]
            if all(reason == STOP_HALT for reason in reasons):
                break
            if any(reason == STOP_HALT for reason in reasons):
                raise ExecutionError(
                    f"cores disagree at a synchronization point in "
                    f"{program.name!r}: {reasons}"
                )
            # All cores reached a barrier: align clocks.
            n_barriers += 1
            synced = max(core.cycles for core in active) + costs.barrier
            barrier_cycles_total += costs.barrier
            for core in active:
                core.cycles = synced

        finish = max(core.cycles for core in self.cores) + costs.join
        self.memory.set_team_size(1)
        return ClusterRunResult(
            program_name=program.name,
            n_cores=self.n_cores,
            total_cycles=finish,
            per_core_cycles=tuple(core.cycles for core in self.cores),
            per_core_instrs=tuple(
                core.instr_count for core in self.cores
            ),
            n_barriers=n_barriers,
            fork_cycles=costs.fork,
            join_cycles=costs.join,
            barrier_cycles=barrier_cycles_total,
            dma_bytes=self.dma.total_bytes,
        )
