"""Static analyzer: defect-class unit tests + differential certification.

The unit tests feed purpose-built programs through
:func:`repro.pulp.analyze.analyze_program`, one per defect class
(uninitialised read, escape store, illegal hw-loop nesting, unreachable
block, ...), and the certifier tests assert the three-way contract
between the analyzer, the fast-path engine, and telemetry:

* a site the analyzer certifies **clean** must never bail at runtime;
* every observed runtime bail reason must be in the site's predicted
  ``possible_bails`` set;
* the engine's ``compile_rejects`` multiset must equal the analyzer's
  predicted rejects exactly (the analyzer runs the same ``_build_plan``);
* laned lockstep fallbacks must be predicted by the program-level
  lockstep analysis.
"""

import numpy as np
import pytest

from repro.pulp import Assembler, Cluster, L1_BASE, L2_BASE, PULPV3, WOLF
from repro.pulp.analyze import (
    F_HW_DEPTH,
    F_HW_END_ENTRY,
    F_MISALIGNED,
    F_OUT_OF_REGION,
    F_UNINIT_READ,
    F_UNREACHABLE,
    StaticContract,
    analyze_program,
    check_contract,
    predict_lockstep_bails,
    _ProgramState,
)
from repro.pulp.dispatch import (
    REASON_CARRIED_REGISTER,
    REASON_LOAD_STORE_OVERLAP,
    REASON_TRIP_UNSOLVABLE,
)
from repro.pulp.fastpath import (
    fastpath_telemetry,
    reset_fastpath_telemetry,
)
from repro.pulp.lockstep import (
    LS_DIVERGENT_STORE_ADDRESS,
    LockstepBail,
    LockstepSession,
)


def _kinds(report):
    return sorted({f.kind for f in report.findings})


def _analyze(asm, profile=None, **kwargs):
    return analyze_program(asm.build(), profile or asm.profile, **kwargs)


class TestFindings:
    def test_uninit_read(self):
        asm = Assembler(WOLF)
        asm.add(3, 4, 5)  # r4, r5 never written anywhere
        asm.halt()
        report = _analyze(asm)
        pcs = {f.pc for f in report.findings if f.kind == F_UNINIT_READ}
        assert pcs == {0}

    def test_uninit_read_on_one_path_only(self):
        asm = Assembler(WOLF)
        asm.li(2, 1)
        asm.beq(2, 0, "skip")
        asm.li(5, 7)  # r5 written on the fallthrough path only
        asm.label("skip")
        asm.add(3, 5, 2)
        asm.halt()
        report = _analyze(asm)
        assert F_UNINIT_READ in _kinds(report)

    def test_fully_initialised_is_clean(self):
        asm = Assembler(WOLF)
        asm.li(2, 3)
        asm.li(4, 5)
        asm.add(3, 2, 4)
        asm.halt()
        assert _analyze(asm).findings == []

    def test_unreachable_block(self):
        asm = Assembler(WOLF)
        asm.j("end")
        asm.li(2, 1)  # dead
        asm.label("end")
        asm.halt()
        report = _analyze(asm)
        assert [f.kind for f in report.findings] == [F_UNREACHABLE]
        assert report.findings[0].pc == 1

    def test_out_of_region_store(self):
        asm = Assembler(WOLF)
        asm.li(2, L1_BASE - 64)  # below every declared region
        asm.sw(0, 2, 0)
        asm.halt()
        report = _analyze(asm)
        assert F_OUT_OF_REGION in _kinds(report)

    def test_misaligned_word_load(self):
        asm = Assembler(WOLF)
        asm.li(2, L1_BASE + 6)
        asm.lw(3, 2, 0)
        asm.halt()
        report = _analyze(asm)
        assert F_MISALIGNED in _kinds(report)

    def test_in_region_aligned_access_is_clean(self):
        asm = Assembler(WOLF)
        asm.li(2, L2_BASE + 8)
        asm.lw(3, 2, 0)
        asm.sw(3, 2, 4)
        asm.halt()
        report = _analyze(asm)
        assert report.findings == []
        assert report.unproven_accesses == 0

    def test_illegal_hw_loop_nesting_depth(self):
        asm = Assembler(WOLF)
        asm.li(2, 4)
        asm.hw_loop(2, "e1")
        asm.hw_loop(2, "e2")
        asm.hw_loop(2, "e3")
        asm.nop()
        asm.label("e3")
        asm.nop()
        asm.label("e2")
        asm.nop()
        asm.label("e1")
        asm.halt()
        report = _analyze(asm)
        assert F_HW_DEPTH in _kinds(report)

    def test_branch_onto_hw_loop_end_from_outside(self):
        asm = Assembler(WOLF)
        asm.li(2, 4)
        asm.li(3, 0)
        asm.bne(2, 0, "end")  # lands on the loop-end pc, loop never set up
        asm.hw_loop(2, "end")
        asm.addi(3, 3, 1)
        asm.label("end")
        asm.addi(3, 3, 2)
        asm.halt()
        report = _analyze(asm)
        assert F_HW_END_ENTRY in _kinds(report)

    def test_escape_out_of_hw_loop_body(self):
        asm = Assembler(WOLF)
        asm.li(2, 4)
        asm.hw_loop(2, "end")
        asm.bne(2, 0, "out")  # leaves the body with the counter armed
        asm.label("end")
        asm.nop()
        asm.label("out")
        asm.halt()
        report = _analyze(asm)
        assert F_HW_END_ENTRY in _kinds(report)


class TestWorkBound:
    def test_counted_loop_is_bounded(self):
        asm = Assembler(WOLF)
        asm.li(2, 10)
        asm.hw_loop(2, "end")
        asm.nop()
        asm.label("end")
        asm.halt()
        report = _analyze(asm)
        assert report.work_bound is not None
        assert report.work_bound < 100

    def test_load_bound_loop_is_unbounded(self):
        asm = Assembler(WOLF)
        asm.li(2, L1_BASE)
        asm.lw(3, 2, 0)
        asm.li(4, 0)
        asm.label("head")
        asm.addi(4, 4, 1)
        asm.bltu(4, 3, "head")
        asm.halt()
        report = _analyze(asm)
        assert report.work_bound is None


class TestCertifierSynthetic:
    def _run_fast(self, program, n_cores=1, profile=WOLF):
        cluster = Cluster(profile, n_cores, engine="fast")
        reset_fastpath_telemetry()
        cluster.run(program)
        return fastpath_telemetry()

    def test_clean_hw_loop_runs_bail_free(self):
        asm = Assembler(WOLF)
        asm.li(2, L1_BASE)
        asm.li(3, 16)
        asm.li(4, 7)
        asm.hw_loop(3, "end")
        asm.sw_postinc(4, 2, 4)
        asm.label("end")
        asm.halt()
        program = asm.build()
        report = analyze_program(program, WOLF)
        (verdict,) = report.loop_verdicts
        assert verdict.accepted and verdict.clean, verdict
        telem = self._run_fast(program)
        assert sum(telem.engaged.values()) >= 1
        assert telem.bails == {}
        assert telem.compile_rejects == {}

    def test_predicted_reject_matches_engine(self):
        # r5 carries a rotating (non-inductive, non-reduction) value.
        asm = Assembler(WOLF)
        asm.li(2, 0)
        asm.li(3, 8)
        asm.li(5, 1)
        asm.label("head")
        asm.xori(5, 5, 3)
        asm.addi(2, 2, 1)
        asm.bltu(2, 3, "head")
        asm.halt()
        program = asm.build()
        report = analyze_program(program, WOLF)
        (verdict,) = report.loop_verdicts
        assert not verdict.accepted
        assert verdict.reject_reason == REASON_CARRIED_REGISTER
        telem = self._run_fast(program)
        assert telem.compile_rejects == {REASON_CARRIED_REGISTER: 1}

    def test_load_store_overlap_predicted_and_fires(self):
        # Each trip loads word i and stores word i+1: the deferred
        # store lanes overlap the gathered load lanes.
        asm = Assembler(WOLF)
        asm.li(2, L1_BASE)
        asm.li(3, 16)
        asm.hw_loop(3, "end")
        asm.lw(4, 2, 0)
        asm.sw(4, 2, 4)
        asm.addi(2, 2, 4)
        asm.label("end")
        asm.halt()
        program = asm.build()
        report = analyze_program(program, WOLF)
        (verdict,) = report.loop_verdicts
        assert verdict.accepted
        assert REASON_LOAD_STORE_OVERLAP in verdict.possible_bails
        telem = self._run_fast(program)
        assert telem.bails, "expected the vector attempt to bail"
        for (kind, head, reason) in telem.plan_bails:
            assert (kind, head) == (verdict.kind, verdict.head)
            assert reason in verdict.possible_bails

    def test_trip_unsolvable_shape_is_exclusive(self):
        # Both condition operands advance: the trip solver's shape
        # check fails, so the vector body never runs and no other bail
        # reason can fire.
        asm = Assembler(PULPV3)
        asm.li(2, 0)
        asm.li(3, 64)
        asm.label("head")
        asm.addi(2, 2, 4)
        asm.addi(3, 3, -4)
        asm.bltu(2, 3, "head")
        asm.halt()
        program = asm.build()
        report = analyze_program(program, PULPV3)
        (verdict,) = report.loop_verdicts
        assert verdict.accepted
        assert verdict.possible_bails == {REASON_TRIP_UNSOLVABLE}
        telem = self._run_fast(program, profile=PULPV3)
        assert set(telem.bails) == {REASON_TRIP_UNSOLVABLE}

    def test_two_branches_to_one_head_mirror_engine(self):
        # Two backward branches share a head: the outer site's region
        # contains the inner loop, whose carried register the
        # classifier rejects — the analyzer must predict exactly the
        # reject the engine records and certify the site that engages.
        asm = Assembler(PULPV3)
        asm.li(2, 0)
        asm.li(3, 8)
        asm.li(4, 0)
        asm.li(5, 4)
        asm.label("head")
        asm.addi(2, 2, 1)
        asm.bltu(2, 3, "head")
        asm.addi(4, 4, 1)
        asm.bltu(4, 5, "head")
        asm.halt()
        program = asm.build()
        report = analyze_program(program, PULPV3)
        accepted = [v for v in report.loop_verdicts if v.accepted]
        assert len(accepted) == 1 and not accepted[0].disqualified
        assert report.predicted_rejects() == {REASON_CARRIED_REGISTER: 1}
        telem = self._run_fast(program, profile=PULPV3)
        assert set(telem.engaged) == {("branch", accepted[0].head)}
        assert telem.compile_rejects == {REASON_CARRIED_REGISTER: 1}
        for (_, _, reason) in telem.plan_bails:
            assert reason in accepted[0].possible_bails


class TestLockstepPrediction:
    DIV = L1_BASE + 64

    def test_divergent_store_address_predicted(self):
        asm = Assembler(WOLF)
        asm.li(2, self.DIV)
        asm.lw(3, 2, 0)  # per-lane value
        asm.li(4, L1_BASE)
        asm.add(4, 4, 3)
        asm.sw(3, 4, 0)
        asm.halt()
        program = asm.build()
        state = _ProgramState(program, 1)
        predicted = predict_lockstep_bails(state)
        assert LS_DIVERGENT_STORE_ADDRESS in predicted

        cluster = Cluster(WOLF, 1, engine="fast")
        lane_writes = [
            [(self.DIV, int(v).to_bytes(4, "little"))] for v in (128, 256)
        ]
        config = cluster.memory.config
        session = LockstepSession(
            cluster,
            lane_writes,
            (L1_BASE + config.l1_bytes, L2_BASE + config.l2_bytes),
        )
        with pytest.raises(LockstepBail) as excinfo:
            session.run(program)
        assert excinfo.value.reason in predicted

    def test_uniform_program_predicts_no_divergence(self):
        asm = Assembler(WOLF)
        asm.li(2, L1_BASE)
        asm.li(3, 3)
        asm.sw(3, 2, 0)
        asm.halt()
        state = _ProgramState(asm.build(), 4)
        predicted = predict_lockstep_bails(state)
        assert not predicted & {
            LS_DIVERGENT_STORE_ADDRESS,
        }


class TestContracts:
    def test_contract_flags_unexpected_reject(self):
        asm = Assembler(WOLF)
        asm.li(2, 0)
        asm.li(3, 8)
        asm.li(5, 1)
        asm.label("head")
        asm.xori(5, 5, 3)
        asm.addi(2, 2, 1)
        asm.bltu(2, 3, "head")
        asm.halt()
        report = analyze_program(asm.build(), WOLF)
        strict = StaticContract(name="strict", clean=True)
        problems = check_contract(strict, [report])
        assert problems and "carried-register" in problems[0]
        waiving = StaticContract(
            name="waiving",
            allowed_rejects=frozenset({REASON_CARRIED_REGISTER}),
        )
        assert check_contract(waiving, [report]) == []

    def test_min_vector_loops_enforced(self):
        asm = Assembler(WOLF)
        asm.halt()
        report = analyze_program(asm.build(), WOLF)
        contract = StaticContract(name="needy", min_vector_loops=1)
        problems = check_contract(contract, [report])
        assert problems and "accepted vector loops" in problems[0]


class TestKernelCorpus:
    """The acceptance-criteria grid: analyzer vs engine on real kernels."""

    def test_static_contracts_hold(self):
        from repro.kernels import corpus

        failures = []
        for entry in corpus.static_entries():
            report = analyze_program(
                entry.program, entry.profile,
                memory=entry.memory, n_cores=entry.n_cores,
                args=entry.args,
            )
            failures.extend(check_contract(entry.contract, [report]))
        assert failures == []

    @pytest.mark.parametrize("machine", ["wolf", "cortex_m4"])
    def test_certify_against_telemetry(self, machine):
        from repro.kernels import corpus

        assert corpus.certify(machine=machine) == []
