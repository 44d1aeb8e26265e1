"""Tests for the analytic performance model and its ISS calibration."""

import numpy as np
import pytest

from repro.kernels import ChainConfig, ChainDims, HDChainSimulator
from repro.perf.calibration import (
    calibrate_chain,
    calibration_dims,
    clear_cache,
)
from repro.perf.latency import (
    DETECTION_LATENCY_MS,
    check_latency,
    required_frequency_mhz,
)
from repro.perf.model import LinearCycleModel
from repro.pulp import CORTEX_M4_SOC, PULPV3_SOC, WOLF_SOC


class TestLinearCycleModel:
    def test_fit_and_predict_exact_on_fit_points(self):
        model = LinearCycleModel.fit(
            4, "encode", (4096, 10_000), (12_288, 28_000)
        )
        assert model.predict(4096) == 10_000
        assert model.predict(12_288) == 28_000

    def test_chunk_words(self):
        model = LinearCycleModel(
            slope=1.0, intercept=0.0, n_cores=8, kernel="x"
        )
        assert model.chunk_words(10_000) == 40  # ceil(313 / 8)

    def test_identical_chunks_rejected(self):
        with pytest.raises(ValueError):
            LinearCycleModel.fit(1, "x", (64, 10), (64, 12))


class TestCalibration:
    def test_predicts_held_out_iss_run(self):
        """The core guarantee: the affine model extrapolates the ISS."""
        dims = ChainDims(
            dim=10_000, n_channels=4, n_levels=8, n_classes=3,
            ngram=1, window=5,
        )
        model = calibrate_chain(WOLF_SOC, 4, dims, use_builtins=True)
        rng = np.random.default_rng(3)
        target_dim = 3200  # not a calibration point
        sim = HDChainSimulator(
            ChainConfig(
                soc=WOLF_SOC, n_cores=4,
                dims=ChainDims(
                    dim=target_dim, n_channels=4, n_levels=8,
                    n_classes=3, ngram=1, window=5,
                ),
                use_builtins=True,
            )
        )
        nw = sim.config.dims.n_words
        sim.load_model(
            rng.integers(0, 2**32, size=(4, nw), dtype=np.uint32),
            rng.integers(0, 2**32, size=(8, nw), dtype=np.uint32),
            rng.integers(0, 2**32, size=(3, nw), dtype=np.uint32),
        )
        run = sim.run_window_levels(rng.integers(0, 8, size=(5, 4)))
        assert model.predict_encode(target_dim) == pytest.approx(
            run.encode_cycles, rel=0.02
        )
        assert model.predict_am(target_dim) == pytest.approx(
            run.am_cycles, rel=0.02
        )

    def test_cache_hit_is_fast(self):
        import time

        clear_cache()
        dims = ChainDims(dim=10_000, n_levels=6, n_classes=3)
        calibrate_chain(WOLF_SOC, 2, dims)
        start = time.time()
        calibrate_chain(WOLF_SOC, 2, dims)
        assert time.time() - start < 0.01

    def test_calibration_dims_distinct_chunks(self):
        for cores in (1, 3, 8):
            dim_a, dim_b = calibration_dims(cores)
            chunk = lambda d: -(-(d // 32) // cores)  # noqa: E731
            assert chunk(dim_a) != chunk(dim_b)

    def test_calibration_dims_respect_l1(self):
        """Many-channel shapes shrink the calibration points to fit."""
        dims = ChainDims(dim=10_000, n_channels=256, n_levels=22)
        dim_a, dim_b = calibration_dims(8, WOLF_SOC, dims)
        assert dim_b < 24 * 8 * 32
        # and the resulting layout really fits:
        from repro.kernels import make_layout
        from repro.pulp import L1_BASE

        layout = make_layout(
            ChainDims(
                dim=dim_b, n_channels=256, n_levels=22
            ),
            8,
            with_bound_buf=False,
        )
        assert layout.l1_end - L1_BASE <= WOLF_SOC.l1_bytes

    def test_many_channel_calibration_runs(self):
        dims = ChainDims(
            dim=10_000, n_channels=32, n_levels=6, n_classes=3
        )
        model = calibrate_chain(
            WOLF_SOC, 8, dims, strategy="carry-save"
        )
        assert model.predict_total(10_000) > 0


class TestBatchedCalibration:
    def _dims(self, ngram):
        return ChainDims(
            dim=10_000, n_channels=4, n_levels=6, n_classes=3,
            ngram=ngram, window=5,
        )

    def test_batch_dedups_requests(self, monkeypatch):
        """Repeated sweep cells of one shape cost one fit (two ISS
        windows), not one per cell."""
        from repro.perf import calibration

        clear_cache()
        runs = []
        real = calibration._run_point
        monkeypatch.setattr(
            calibration,
            "_run_point",
            lambda *args: runs.append(args[2].dim) or real(*args),
        )
        models = [
            calibrate_chain(WOLF_SOC, 2, self._dims(1)) for _ in range(3)
        ]
        assert len(runs) == 2
        assert models[0] is models[1] is models[2]
        # and a later call hits the model cache entirely
        runs.clear()
        assert calibrate_chain(WOLF_SOC, 2, self._dims(1)) is models[0]
        assert runs == []


class TestLatency:
    def test_required_frequency(self):
        assert required_frequency_mhz(533_000) == pytest.approx(53.3)
        assert required_frequency_mhz(100_000, 1.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            required_frequency_mhz(0)
        with pytest.raises(ValueError):
            required_frequency_mhz(100, 0)

    def test_check_latency_pass_and_fail(self):
        ok = check_latency(500_000, WOLF_SOC)
        assert ok.meets_deadline
        assert ok.headroom > 1
        too_slow = check_latency(5_000_000_000, CORTEX_M4_SOC)
        assert not too_slow.meets_deadline

    def test_default_deadline_is_papers(self):
        assert DETECTION_LATENCY_MS == 10.0


class TestDeviceModel:
    """ISS-calibrated streaming telemetry (repro.perf.calibration)."""

    def test_calibrated_device_model_emg_shape(self):
        from repro.perf.calibration import device_model

        model = device_model(PULPV3_SOC, n_cores=4, dim=2048)
        assert model.cycles_per_window > 0
        # Clocked exactly to the deadline: latency == 10 ms by design.
        assert model.window_latency_ms == pytest.approx(
            DETECTION_LATENCY_MS
        )
        assert model.f_mhz == pytest.approx(
            required_frequency_mhz(model.cycles_per_window)
        )
        assert model.window_energy_uj > 0

    def test_more_cores_fewer_cycles(self):
        from repro.perf.calibration import device_model

        one = device_model(PULPV3_SOC, n_cores=1, dim=2048)
        four = device_model(PULPV3_SOC, n_cores=4, dim=2048)
        assert four.cycles_per_window < one.cycles_per_window
