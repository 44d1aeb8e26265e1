"""Cross-validation of the generated kernels against the numpy library.

These are the reproduction's core guarantees: the ISS chain — DMA,
spatial encoder, N-gram encoder, window bundle, AM search — produces
bit-identical hypervectors and identical labels to the packed library
(which in turn matches the unpacked golden model).
"""

import numpy as np
import pytest

from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.kernels import (
    ChainConfig,
    ChainDims,
    HDChainSimulator,
    build_ngram_program,
    build_spatial_program,
    make_layout,
)
from repro.pulp import CORTEX_M4_SOC, PULPV3_SOC, WOLF_SOC


def trained_classifier(rng, dim=192, n_ch=4, levels=6, ngram=1, classes=3):
    cfg = HDClassifierConfig(
        dim=dim, n_channels=n_ch, n_levels=levels, ngram_size=ngram
    )
    clf = BatchHDClassifier(cfg)
    t = 5 + ngram - 1
    windows = [rng.uniform(0, 21, size=(t, n_ch)) for _ in range(4 * classes)]
    labels = [i % classes for i in range(4 * classes)]
    clf.fit(np.stack(windows), labels)
    return clf


CHAIN_GRID = [
    ("pulpv3-1c", PULPV3_SOC, 1, False, "auto", 1, 4),
    ("pulpv3-4c", PULPV3_SOC, 4, False, "auto", 1, 4),
    ("pulpv3-4c-n3", PULPV3_SOC, 4, False, "auto", 3, 4),
    ("wolf-8c-bi", WOLF_SOC, 8, True, "auto", 1, 4),
    ("wolf-8c-bi-n2", WOLF_SOC, 8, True, "auto", 2, 4),
    ("wolf-3c-memory", WOLF_SOC, 3, False, "memory", 1, 4),
    ("wolf-5c-cs", WOLF_SOC, 5, False, "carry-save", 1, 4),
    ("wolf-8c-bi-cs", WOLF_SOC, 8, True, "carry-save", 1, 8),
    ("m4-direct", CORTEX_M4_SOC, 1, False, "auto", 1, 4),
    ("m4-direct-n4", CORTEX_M4_SOC, 1, False, "auto", 4, 4),
    ("m4-cs-9ch", CORTEX_M4_SOC, 1, False, "carry-save", 1, 9),
    ("wolf-odd-ch", WOLF_SOC, 2, False, "auto", 1, 3),
]


class TestChainFunctionalEquivalence:
    @pytest.mark.parametrize(
        "name,soc,cores,builtins,strategy,ngram,n_ch",
        CHAIN_GRID,
        ids=[row[0] for row in CHAIN_GRID],
    )
    def test_bit_exact_query_and_label(
        self, rng, name, soc, cores, builtins, strategy, ngram, n_ch
    ):
        clf = trained_classifier(rng, ngram=ngram, n_ch=n_ch)
        sim = HDChainSimulator.from_classifier(
            clf, soc, n_cores=cores, use_builtins=builtins,
            window=5, strategy=strategy,
        )
        for _ in range(4):
            window = rng.uniform(0, 21, size=(5 + ngram - 1, n_ch))
            result = sim.run_window(window)
            np.testing.assert_array_equal(
                sim.read_query(),
                clf.encoder.encode(window).words,
                err_msg=f"query mismatch in {name}",
            )
            assert (
                clf.labels[result.label_index]
                == clf.predict(window[None])[0]
            ), f"label mismatch in {name}"

    def test_run_window_quantises_over_the_model_range(self, rng):
        """A simulator built from a classifier quantises raw samples
        over that model's signal range, not the 0-21 default."""
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=512, n_channels=4, n_levels=8, signal_hi=1.0
            )
        ).fit(rng.random((40, 5, 4)), [i % 4 for i in range(40)])
        sim = HDChainSimulator.from_classifier(clf, WOLF_SOC, n_cores=1)
        windows = rng.random((20, 5, 4))
        for window, label in zip(windows, clf.predict(windows)):
            result = sim.run_window(window)
            np.testing.assert_array_equal(
                sim.read_query(), clf.encoder.encode(window).words
            )
            assert clf.labels[result.label_index] == label

    def test_distances_match_library(self, rng):
        clf = trained_classifier(rng)
        sim = HDChainSimulator.from_classifier(
            clf, WOLF_SOC, n_cores=4, window=5
        )
        window = rng.uniform(0, 21, size=(5, 4))
        result = sim.run_window(window)
        np.testing.assert_array_equal(
            result.distances, clf.distances(window[None])[0]
        )

    def test_cycles_deterministic(self, rng):
        clf = trained_classifier(rng)
        sim = HDChainSimulator.from_classifier(
            clf, PULPV3_SOC, n_cores=4, window=5
        )
        w = rng.uniform(0, 21, size=(5, 4))
        a = sim.run_window(w)
        b = sim.run_window(w)
        assert a.total_cycles == b.total_cycles

    def test_cycles_data_independent(self, rng):
        """The kernels' loops never depend on the data; only the AM
        reduction's argmin branches vary, within a couple of cycles
        (what makes Table 2/3 workloads representative)."""
        clf = trained_classifier(rng)
        sim = HDChainSimulator.from_classifier(
            clf, WOLF_SOC, n_cores=8, use_builtins=True, window=5
        )
        costs = [
            sim.run_window(rng.uniform(0, 21, size=(5, 4))).total_cycles
            for _ in range(3)
        ]
        assert max(costs) - min(costs) <= 16


class TestChainValidation:
    def test_model_required(self, rng):
        sim = HDChainSimulator(
            ChainConfig(soc=WOLF_SOC, n_cores=2, dims=ChainDims(dim=64))
        )
        with pytest.raises(RuntimeError):
            sim.run_window_levels(np.zeros((5, 4), dtype=int))

    def test_levels_validated(self, rng):
        clf = trained_classifier(rng)
        sim = HDChainSimulator.from_classifier(
            clf, WOLF_SOC, n_cores=2, window=5
        )
        with pytest.raises(ValueError):
            sim.run_window_levels(np.zeros((4, 4), dtype=int))
        bad = np.zeros((5, 4), dtype=int)
        bad[0, 0] = 99
        with pytest.raises(ValueError):
            sim.run_window_levels(bad)

    def test_model_shape_validated(self):
        sim = HDChainSimulator(
            ChainConfig(soc=WOLF_SOC, n_cores=2, dims=ChainDims(dim=64))
        )
        good = np.zeros((4, 2), dtype=np.uint32)
        with pytest.raises(ValueError):
            sim.load_model(
                np.zeros((3, 2), dtype=np.uint32),
                np.zeros((22, 2), dtype=np.uint32),
                np.zeros((5, 2), dtype=np.uint32),
            )

    def test_l1_overflow_rejected(self):
        with pytest.raises(ValueError):
            HDChainSimulator(
                ChainConfig(
                    soc=PULPV3_SOC,
                    n_cores=4,
                    dims=ChainDims(dim=40_000, n_channels=8),
                )
            )

    def test_builtins_require_bitmanip(self):
        with pytest.raises(ValueError):
            ChainConfig(
                soc=PULPV3_SOC, n_cores=1,
                dims=ChainDims(dim=64), use_builtins=True,
            )

    def test_window_shape_validated(self, rng):
        clf = trained_classifier(rng)
        sim = HDChainSimulator.from_classifier(
            clf, WOLF_SOC, n_cores=2, window=5
        )
        with pytest.raises(ValueError):
            sim.run_window(rng.uniform(0, 21, size=(6, 4)))


class TestStandaloneKernels:
    def test_spatial_program_matches_library(self, rng):
        clf = trained_classifier(rng, dim=160)
        layout = make_layout(
            ChainDims(dim=160, n_channels=4, n_levels=6, ngram=1),
            n_cores=4,
        )
        program = build_spatial_program(
            WOLF_SOC.profile, layout, n_cores=4, use_builtins=True
        )
        cluster = WOLF_SOC.make_cluster(4)
        spatial = clf.encoder.spatial
        sample = rng.uniform(0, 21, size=4)
        levels = [
            spatial.continuous_memory.quantize(v, 0, 21) for v in sample
        ]
        cluster.write_words(
            layout.im_l1, spatial.item_memory.as_matrix().ravel()
        )
        cim_rows = np.stack(
            [spatial.continuous_memory[lv].words for lv in levels]
        )
        cluster.write_words(layout.cim_buf0, cim_rows.ravel())
        cluster.run(program)
        got = cluster.read_words(layout.query_l1, layout.dims.n_words)
        np.testing.assert_array_equal(
            got, spatial.encode_levels(levels).words
        )

    def test_ngram_program_matches_library(self, rng):
        from repro.hdc import BinaryHypervector, TemporalEncoder

        dims = ChainDims(dim=130, ngram=4)
        layout = make_layout(dims, n_cores=2)
        program = build_ngram_program(PULPV3_SOC.profile, layout, 2)
        cluster = PULPV3_SOC.make_cluster(2)
        spatial = [
            BinaryHypervector.random(130, rng) for _ in range(4)
        ]
        for i, vec in enumerate(spatial):
            cluster.write_words(layout.spatial_row(i), vec.words)
        cluster.run(program)
        got = cluster.read_words(layout.query_l1, dims.n_words)
        expected = TemporalEncoder(4).encode(spatial)
        np.testing.assert_array_equal(got, expected.words)

    def test_ngram_program_requires_n2(self):
        layout = make_layout(ChainDims(dim=64, ngram=1), n_cores=1)
        with pytest.raises(ValueError):
            build_ngram_program(PULPV3_SOC.profile, layout, 1)
