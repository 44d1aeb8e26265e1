"""Differential suite for the batched window driver and its satellites.

The batched driver's contract is *bit- and cycle-exactness* against N
sequential ``run_window_levels`` calls: per-window labels, distances,
``ClusterRunResult`` equality (cycles, per-core breakdowns, barriers,
DMA bytes), and the final simulated-memory image, the whole of L1 and
of L2.  The grid covers engine × spatial strategy × core count ×
machine so both the window-laned lockstep path (fast engine) and the
per-window path (interp engine, where a batch is N
``run_window_levels`` calls) are pinned.

Alongside: the vectorized descriptor-table computation is pinned against
the historical per-element Python loop, the input-validation negative
paths are exercised, the cross-program loop-plan memo is proven to
share plans only between identical regions, and the restructured
memory-strategy channel loop is asserted to engage the vector path at
the channel level.
"""

import tracemalloc

import numpy as np
import pytest

from repro.kernels import ChainConfig, ChainDims, HDChainSimulator
from repro.kernels.chain import (
    BATCH_CHUNK_WINDOWS,
    chain_batch_telemetry,
    reset_chain_batch_telemetry,
)
from repro.kernels.layout import make_layout
from repro.pulp import fastpath
from repro.pulp.lockstep import (
    lockstep_telemetry,
    reset_lockstep_telemetry,
)
from repro.pulp.memory import L1_BASE, L2_BASE
from repro.pulp.soc import CORTEX_M4_SOC, PULPV3_SOC, WOLF_SOC


def _make_sim(soc, n_cores, dims, builtins, strategy, engine):
    rng = np.random.default_rng(29)
    sim = HDChainSimulator(
        ChainConfig(
            soc=soc,
            n_cores=n_cores,
            dims=dims,
            use_builtins=builtins,
            strategy=strategy,
            engine=engine,
        )
    )
    n_words = dims.n_words
    sim.load_model(
        rng.integers(
            0, 2**32, size=(dims.n_channels, n_words), dtype=np.uint32
        ),
        rng.integers(
            0, 2**32, size=(dims.n_levels, n_words), dtype=np.uint32
        ),
        rng.integers(
            0, 2**32, size=(dims.n_classes, n_words), dtype=np.uint32
        ),
    )
    return sim


def _snapshot(sim):
    """The simulated memory a run leaves: all of L1, and L2 up to the
    end of the chain's layout (model, descriptor table, results)."""
    memory = sim.cluster.memory
    return (
        memory.read_bytes(L1_BASE, memory.config.l1_bytes),
        memory.read_bytes(L2_BASE, sim.layout.l2_end - L2_BASE),
    )


def _assert_results_equal(seq, bat):
    assert len(seq) == len(bat)
    for index, (a, b) in enumerate(zip(seq, bat)):
        context = f"window {index}"
        assert b.label_index == a.label_index, context
        assert np.array_equal(b.distances, a.distances), context
        assert b.encode_cycles == a.encode_cycles, context
        assert b.am_cycles == a.am_cycles, context
        assert b.encode_run == a.encode_run, context
        assert b.am_run == a.am_run, context


BATCH_CONFIGS = [
    ("wolf_8_bi", WOLF_SOC, 8, True, "auto", dict()),
    ("wolf_1", WOLF_SOC, 1, False, "auto", dict()),
    ("wolf_4_ngram", WOLF_SOC, 4, True, "auto", dict(ngram=3, window=4)),
    ("pulpv3_4", PULPV3_SOC, 4, False, "auto", dict()),
    ("pulpv3_1_ngram", PULPV3_SOC, 1, False, "auto", dict(ngram=2, window=3)),
    ("m4", CORTEX_M4_SOC, 1, False, "auto", dict()),
    ("m4_carry_save", CORTEX_M4_SOC, 1, False, "auto", dict(n_channels=8)),
    ("wolf_8_memory", WOLF_SOC, 8, False, "memory", dict()),
    ("wolf_2_carry_save", WOLF_SOC, 2, False, "carry-save", dict()),
    # Team-fused runs: 2 words for 8 cores (six cores skip every loop),
    # and 31 words over 3 cores (chunks of 11, 11 and 9).
    ("wolf_8_bi_dim50", WOLF_SOC, 8, True, "auto", dict(dim=50)),
    ("pulpv3_3_uneven", PULPV3_SOC, 3, False, "auto", dict()),
    # The rotate pass's words 1..10 in chunks of 2: cores 5-7 idle, and
    # only core 4, the final word's owner, masks its pad bits.
    (
        "wolf_8_bi_dim333_ngram3", WOLF_SOC, 8, True, "auto",
        dict(dim=333, ngram=3, window=4),
    ),
]


def _batch_dims(overrides):
    overrides = dict(overrides)
    dims = ChainDims(
        dim=overrides.pop("dim", 992),
        n_channels=overrides.pop("n_channels", 4),
        n_levels=10,
        n_classes=4,
        ngram=overrides.pop("ngram", 1),
        window=overrides.pop("window", 5),
    )
    assert not overrides
    return dims


@pytest.mark.parametrize("engine", ["fast", "interp"])
@pytest.mark.parametrize(
    "key,soc,n_cores,builtins,strategy,overrides",
    BATCH_CONFIGS,
    ids=[cfg[0] for cfg in BATCH_CONFIGS],
)
def test_batched_matches_sequential(
    key, soc, n_cores, builtins, strategy, overrides, engine
):
    """run_window_levels_batch == N sequential run_window_levels calls,
    down to cycles, per-core breakdowns, and the final memory image."""
    dims = _batch_dims(overrides)
    rng = np.random.default_rng(31)
    batch = rng.integers(
        0, dims.n_levels, size=(5, dims.n_samples, dims.n_channels)
    )

    seq_sim = _make_sim(soc, n_cores, dims, builtins, strategy, engine)
    sequential = [seq_sim.run_window_levels(levels) for levels in batch]
    seq_state = _snapshot(seq_sim)

    bat_sim = _make_sim(soc, n_cores, dims, builtins, strategy, engine)
    batched = bat_sim.run_window_levels_batch(batch)
    bat_state = _snapshot(bat_sim)

    _assert_results_equal(sequential, batched)
    assert bat_state == seq_state


def test_batched_lockstep_engages_on_wolf():
    """The fast-engine batch must actually run window-laned (a silent
    fallback would pass the parity grid while losing the speed-up)."""
    dims = ChainDims(
        dim=992, n_channels=4, n_levels=10, n_classes=4, ngram=1, window=5
    )
    sim = _make_sim(WOLF_SOC, 4, dims, True, "auto", "fast")
    rng = np.random.default_rng(5)
    batch = rng.integers(
        0, dims.n_levels, size=(4, dims.n_samples, dims.n_channels)
    )
    reset_lockstep_telemetry()
    sim.run_window_levels_batch(batch)
    telemetry = lockstep_telemetry()
    assert telemetry["runs"] >= 1
    assert telemetry["lanes"] >= 4
    assert not telemetry["bails"]


@pytest.mark.parametrize(
    "key", ["wolf_8_bi", "pulpv3_4", "wolf_8_bi_dim333_ngram3"]
)
def test_team_batches_run_fused(key):
    """Team batches run their loops as team-fused vector runs, with no
    lockstep bail and no window on the fallback path (a silent
    fallback would pass the parity grid while losing the speed-up).
    At D = 333 the rotate pass leaves cores 5-7 idle: only the final
    word's owner may mask it, or the chunk bails ``team-shared-data``."""
    _, soc, n_cores, builtins, strategy, overrides = next(
        cfg for cfg in BATCH_CONFIGS if cfg[0] == key
    )
    dims = _batch_dims(overrides)
    sim = _make_sim(soc, n_cores, dims, builtins, strategy, "fast")
    rng = np.random.default_rng(6)
    batch = rng.integers(
        0, dims.n_levels, size=(4, dims.n_samples, dims.n_channels)
    )
    reset_lockstep_telemetry()
    reset_chain_batch_telemetry()
    sim.run_window_levels_batch(batch)
    telemetry = lockstep_telemetry()
    assert not telemetry["bails"]
    assert telemetry["team_runs"] > 0
    assert not telemetry["team_bails"]
    assert chain_batch_telemetry()["fallback_windows"] == 0


def test_batched_full_chunk_plus_one_window():
    """One full laned chunk, then a one-window chunk on the per-window
    path: exact against sequential calls, memory image included."""
    dims = ChainDims(
        dim=992, n_channels=4, n_levels=10, n_classes=4, ngram=1, window=5
    )
    rng = np.random.default_rng(13)
    batch = rng.integers(
        0,
        dims.n_levels,
        size=(BATCH_CHUNK_WINDOWS + 1, dims.n_samples, dims.n_channels),
    )
    seq_sim = _make_sim(WOLF_SOC, 2, dims, False, "auto", "fast")
    sequential = [seq_sim.run_window_levels(levels) for levels in batch]
    bat_sim = _make_sim(WOLF_SOC, 2, dims, False, "auto", "fast")
    reset_chain_batch_telemetry()
    _assert_results_equal(sequential, bat_sim.run_window_levels_batch(batch))
    assert _snapshot(bat_sim) == _snapshot(seq_sim)
    telemetry = chain_batch_telemetry()
    assert telemetry["laned_windows"] == BATCH_CHUNK_WINDOWS
    assert telemetry["fallback_windows"] == 0


def test_laned_chunk_allocates_the_layout_not_the_machine():
    """A laned chunk's lanes hold the chain layout's span, not copies of
    the whole L1 + L2: one 32-window chunk on Wolf 8 cores (576 KiB of
    memory, 18 MiB as 32 lanes) must allocate under 8 MiB at its peak,
    with every window laned.  tracemalloc counts NumPy's buffers, so
    the bound holds whatever the OS or allocator does."""
    dims = ChainDims(
        dim=2016, n_channels=4, n_levels=22, n_classes=5, ngram=4, window=5
    )
    sim = _make_sim(WOLF_SOC, 8, dims, True, "auto", "fast")
    rng = np.random.default_rng(11)
    batches = rng.integers(
        0,
        dims.n_levels,
        size=(2, BATCH_CHUNK_WINDOWS, dims.n_samples, dims.n_channels),
    )
    sim.run_window_levels_batch(batches[0])  # compile and warm up
    reset_chain_batch_telemetry()
    tracemalloc.start()
    try:
        sim.run_window_levels_batch(batches[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    telemetry = chain_batch_telemetry()
    assert telemetry["laned_windows"] == BATCH_CHUNK_WINDOWS
    assert telemetry["fallback_windows"] == 0
    assert peak < 8 << 20, f"{peak / 2**20:.2f} MiB"


def test_desc_tables_match_python_loop():
    """The vectorized descriptor addresses equal the historical
    per-element ``cim_l2_row(int(level))`` Python loop."""
    dims = ChainDims(
        dim=992, n_channels=3, n_levels=9, n_classes=4, ngram=2, window=4
    )
    sim = _make_sim(WOLF_SOC, 2, dims, False, "auto", "fast")
    rng = np.random.default_rng(77)
    batch = rng.integers(
        0, dims.n_levels, size=(6, dims.n_samples, dims.n_channels)
    )
    tables = sim._desc_tables(batch)
    assert tables.dtype == np.uint32
    for window, levels in enumerate(batch):
        expected = np.array(
            [
                sim.layout.cim_l2_row(int(level))
                for level in levels.ravel()
            ],
            dtype=np.uint32,
        )
        assert np.array_equal(tables[window], expected)


class TestLevelValidation:
    """Negative paths: structural checks fire before value inspection."""

    @pytest.fixture(scope="class")
    def sim(self):
        dims = ChainDims(
            dim=224, n_channels=4, n_levels=10, n_classes=3, ngram=1,
            window=5,
        )
        return _make_sim(WOLF_SOC, 1, dims, False, "auto", "fast")

    def test_float_levels_rejected(self, sim):
        levels = np.zeros((5, 4), dtype=np.float64)
        with pytest.raises(ValueError, match="integer"):
            sim.run_window_levels(levels)

    def test_float_batch_rejected(self, sim):
        levels = np.zeros((2, 5, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="integer"):
            sim.run_window_levels_batch(levels)

    def test_empty_array_rejected(self, sim):
        with pytest.raises(ValueError, match="shape"):
            sim.run_window_levels(np.empty((0,), dtype=np.int64))

    def test_empty_batch_rejected(self, sim):
        with pytest.raises(ValueError, match="zero windows"):
            sim.run_window_levels_batch(
                np.empty((0, 5, 4), dtype=np.int64)
            )

    def test_wrong_shape_rejected(self, sim):
        with pytest.raises(ValueError, match="shape"):
            sim.run_window_levels(np.zeros((4, 5), dtype=np.int64))

    def test_out_of_range_rejected(self, sim):
        levels = np.full((5, 4), 10, dtype=np.int64)
        with pytest.raises(ValueError, match="lie in"):
            sim.run_window_levels(levels)

    def test_negative_rejected(self, sim):
        levels = np.full((5, 4), -1, dtype=np.int64)
        with pytest.raises(ValueError, match="lie in"):
            sim.run_window_levels(levels)


class TestPlanMemo:
    """Cross-program loop-plan memoization: shared only when identical."""

    def _word_loop_plans(self, dim, n_cores):
        from repro.kernels.spatial import build_spatial_program

        dims = ChainDims(
            dim=dim, n_channels=4, n_levels=10, n_classes=3, ngram=1,
            window=5,
        )
        layout = make_layout(dims, n_cores, uses_dma=True)
        program = build_spatial_program(
            WOLF_SOC.profile, layout, n_cores, strategy="register"
        )
        compiled = fastpath.compile_program(program, WOLF_SOC.profile)
        plans = list(compiled.hw_plans.values()) + [
            p for p in compiled.branch_plans.values()
        ]
        assert plans, "spatial kernel must produce at least one loop plan"
        return plans

    def test_identical_programs_share_plan_bodies(self):
        first = self._word_loop_plans(992, 4)
        second = self._word_loop_plans(992, 4)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            # Memo hit: the expensive analysis products are the same
            # objects, not merely equal — but the per-site LoopPlan
            # wrappers (absolute head/exit pcs) stay per-program.
            assert a.exec_nodes is b.exec_nodes
            assert a.units is b.units
            assert a is not b

    def test_different_geometry_never_shares_plans(self):
        """Geometry-bearing regions must never share analysis products.

        The spatial word-loop *body* bakes in per-channel row offsets
        (``ch * row_bytes``), so a different hypervector dimension means
        different immediates, a different pc-normalized key, and a
        distinct plan body.  (Geometry-independent inner regions — the
        32-iteration majority bit loop — may legitimately coincide;
        trip counts are runtime values, not plan state.)
        """
        def outer_loops(plans):
            selected = [p for p in plans if p.hw_depth == 2]
            assert selected, "expected a nested outer word loop"
            return selected

        coarse = outer_loops(self._word_loop_plans(992, 4))
        fine = outer_loops(self._word_loop_plans(2016, 4))
        for a in coarse:
            for b in fine:
                assert a.exec_nodes is not b.exec_nodes
                assert a is not b

    def test_table3_configs_reuse_plan_bodies(self):
        """The measurable Table 3 win: a second core-count of the same
        machine compiles its chain without analyzing a single new loop
        shape (chunk immediates live outside the loop regions), which
        is where the ~30 % cold-run plan-compile cost went."""
        dims = ChainDims(
            dim=2016, n_channels=4, n_levels=22, n_classes=5, ngram=1,
            window=5,
        )

        def compile_chain(n_cores):
            sim = HDChainSimulator(
                ChainConfig(soc=PULPV3_SOC, n_cores=n_cores, dims=dims)
            )
            fastpath.compile_program(
                sim.encode_program, PULPV3_SOC.profile
            )
            fastpath.compile_program(sim.am_program, PULPV3_SOC.profile)

        compile_chain(1)
        before = len(fastpath._PLAN_MEMO)
        assert before > 0
        compile_chain(4)
        assert len(fastpath._PLAN_MEMO) == before

    def test_rejections_memoized_but_recounted(self):
        """A memoized rejection still increments per-compile telemetry."""
        dims = ChainDims(
            dim=512, n_channels=16, n_levels=8, n_classes=3, ngram=1,
            window=3,
        )

        def compile_fresh():
            sim = HDChainSimulator(
                ChainConfig(soc=CORTEX_M4_SOC, n_cores=1, dims=dims)
            )
            fastpath.compile_program(
                sim.encode_program, CORTEX_M4_SOC.profile
            )

        compile_fresh()  # populate the memo
        fastpath.reset_fastpath_telemetry()
        compile_fresh()
        rejects = fastpath.fastpath_telemetry().compile_rejects
        # The carry-save ripple row loop is genuinely carried — its
        # standalone plan rejects on every compile, memo hit or not.
        assert rejects.get("carried-register", 0) > 0


class TestChannelLoopVectorization:
    """The restructured Phase-A channel loop engages the vector path."""

    def test_memory_strategy_channel_lanes(self):
        n_channels = 13
        dims = ChainDims(
            dim=512,
            n_channels=n_channels,
            n_levels=8,
            n_classes=3,
            ngram=1,
            window=3,
        )
        sim = _make_sim(WOLF_SOC, 4, dims, False, "memory", "fast")
        rng = np.random.default_rng(3)
        levels = rng.integers(
            0, dims.n_levels, size=(dims.n_samples, n_channels)
        )
        fastpath.reset_fastpath_telemetry()
        sim.run_window_levels(levels)
        telemetry = fastpath.fastpath_telemetry()
        channel_plans = [
            site
            for site, engagements in telemetry.engaged.items()
            if telemetry.trips[site] / engagements == n_channels
        ]
        # One Phase-A bind loop per sample runs with lanes = channels.
        assert len(channel_plans) >= dims.n_samples
        assert not telemetry.bails

    def test_m4_carry_save_word_loop_engages(self):
        """Flat-memory machines vectorize the carry-save word loop now
        that the descriptor row walk is a do-while."""
        dims = ChainDims(
            dim=512, n_channels=16, n_levels=8, n_classes=3, ngram=1,
            window=3,
        )
        sim = _make_sim(CORTEX_M4_SOC, 1, dims, False, "auto", "fast")
        assert sim.strategy == "carry-save"
        rng = np.random.default_rng(4)
        levels = rng.integers(
            0, dims.n_levels, size=(dims.n_samples, 16)
        )
        fastpath.reset_fastpath_telemetry()
        sim.run_window_levels(levels)
        telemetry = fastpath.fastpath_telemetry()
        assert telemetry.total_engagements > 0
        assert not telemetry.bails


class TestAccessDisjointness:
    """The stride-lattice overlap test must stay conservative."""

    def test_none_address_is_never_disjoint(self):
        """``None`` marks an access set with no affine representative
        (lockstep per-lane gathers) — it must report non-disjoint so
        the caller bails instead of crashing (regression: int(None))."""
        arr = np.arange(4, dtype=np.uint64) * 8 + 100
        assert not fastpath._accesses_disjoint(None, 4, None, arr, 4, 8)
        assert not fastpath._accesses_disjoint(arr, 4, 8, None, 4, None)
        assert not fastpath._accesses_disjoint(None, 4, None, None, 4, None)

    def test_same_lattice_phase_decides(self):
        a = np.arange(4, dtype=np.uint64) * 64 + 1000  # stride 64
        b = a + 4  # same lattice, 4 bytes out of phase
        c = a + 64  # same lattice, in phase
        assert fastpath._accesses_disjoint(a, 4, 64, b, 4, 64)
        assert not fastpath._accesses_disjoint(a, 4, 64, c, 4, 64)

    def test_scalar_vs_lattice(self):
        a = np.arange(4, dtype=np.uint64) * 64 + 1000
        assert fastpath._accesses_disjoint(int(a[0]) + 8, 4, None, a, 4, 64)
        assert not fastpath._accesses_disjoint(int(a[1]), 4, None, a, 4, 64)
