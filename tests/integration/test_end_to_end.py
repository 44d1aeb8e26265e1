"""Full-pipeline integration tests: synthetic EMG → trained classifier →
simulated accelerator → prediction, across the whole stack."""

import numpy as np
import pytest

from repro.emg import WindowConfig, subject_windows
from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.hdc.reference import ReferenceHDClassifier
from repro.kernels import ChainConfig, ChainDims, HDChainSimulator
from repro.pulp import PULPV3_SOC, WOLF_SOC


@pytest.fixture(scope="module")
def trained_setup(tiny_emg_dataset):
    """A classifier trained on real (synthetic) EMG windows."""
    _, dataset = tiny_emg_dataset
    wc = WindowConfig(window_samples=5, stride_samples=50)
    (train_w, train_l), (test_w, test_l) = subject_windows(dataset[0], wc)
    cfg = HDClassifierConfig(dim=1024)
    clf = BatchHDClassifier(cfg)
    clf.fit(np.asarray(train_w), train_l)
    return clf, np.asarray(test_w), test_l


class TestLibraryOnEMG:
    def test_learns_gestures(self, trained_setup):
        clf, test_w, test_l = trained_setup
        assert clf.score(test_w[:200], test_l[:200]) > 0.6

    def test_batch_matches_object_on_emg(self, trained_setup, tiny_emg_dataset):
        """The packed classifier matches the unpacked golden model."""
        _, dataset = tiny_emg_dataset
        clf, test_w, _ = trained_setup
        cfg = clf.config
        wc = WindowConfig(window_samples=5, stride_samples=50)
        (train_w, train_l), _ = subject_windows(dataset[0], wc)
        ref = ReferenceHDClassifier(
            dim=cfg.dim, n_channels=cfg.n_channels, n_levels=cfg.n_levels,
            ngram_size=cfg.ngram_size, signal_lo=cfg.signal_lo,
            signal_hi=cfg.signal_hi, seed=cfg.seed,
        )
        ref.fit(train_w, train_l)
        assert clf.predict(test_w[:40]) == ref.predict(test_w[:40])


class TestAcceleratorOnEMG:
    @pytest.mark.parametrize(
        "soc,cores,builtins",
        [(PULPV3_SOC, 4, False), (WOLF_SOC, 8, True)],
        ids=["pulpv3-4c", "wolf-8c-bi"],
    )
    def test_chain_matches_library_predictions(
        self, trained_setup, soc, cores, builtins
    ):
        clf, test_w, _ = trained_setup
        sim = HDChainSimulator.from_classifier(
            clf, soc, n_cores=cores, use_builtins=builtins, window=5
        )
        for window in test_w[:10]:
            result = sim.run_window(window)
            assert (
                clf.labels[result.label_index]
                == clf.predict(window[None])[0]
            )

    def test_batch_prototypes_round_trip_through_chain(self, trained_setup):
        """Train the classifier, pack its prototypes, load them into the
        ISS chain by hand — the whole deployment flow of the paper."""
        batch, test_w, _ = trained_setup
        am = batch.am_matrix()
        dims = ChainDims(
            dim=batch.config.dim,
            n_channels=4,
            n_levels=batch.config.n_levels,
            n_classes=am.shape[0],
            ngram=1,
            window=5,
        )
        sim = HDChainSimulator(
            ChainConfig(soc=WOLF_SOC, n_cores=8, dims=dims)
        )
        spatial = batch.encoder.spatial
        sim.load_model(
            spatial.item_memory.as_matrix(),
            spatial.continuous_memory.as_matrix(),
            am,
        )
        for window in test_w[:8]:
            result = sim.run_window(window)
            assert (
                batch.labels[result.label_index]
                == batch.predict(window[None])[0]
            )

    def test_parallel_faster_same_answer(self, trained_setup):
        clf, test_w, _ = trained_setup
        window = test_w[0]
        single = HDChainSimulator.from_classifier(
            clf, PULPV3_SOC, n_cores=1, window=5
        ).run_window(window)
        quad = HDChainSimulator.from_classifier(
            clf, PULPV3_SOC, n_cores=4, window=5
        ).run_window(window)
        assert single.label_index == quad.label_index
        assert single.total_cycles > 3 * quad.total_cycles
