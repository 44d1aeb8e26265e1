"""EMG preprocessing: power-line interference removal and envelope
extraction.

The paper runs this block off-platform ("this preprocessing block is not
executed on the PULP platform") before the samples enter the HD processing
chain, so the reproduction keeps it as a plain numpy/scipy pipeline:

1. 50 Hz IIR notch filter (power-line interference removal);
2. full-wave rectification;
3. moving-average smoothing (envelope extraction).

The output is the non-negative amplitude envelope in mV that the CIM
quantises into its 22 linear levels.

Only :func:`notch_filter` needs scipy, and it imports it when called:
the serving stack imports :mod:`repro.emg` for
:class:`~repro.emg.windows.WindowConfig` and never filters, so it runs
on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PreprocessConfig:
    """Preprocessing parameters.

    ``envelope_window_s`` controls the moving-average length; 50 ms keeps
    the 500 Hz envelope responsive well within the 10 ms detection latency
    downstream while still suppressing carrier variance.
    """

    sample_rate_hz: int = 500
    mains_hz: float = 50.0
    notch_q: float = 30.0
    envelope_window_s: float = 0.05

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )
        if not 0 < self.mains_hz < self.sample_rate_hz / 2:
            raise ValueError(
                f"mains frequency {self.mains_hz} outside (0, Nyquist)"
            )
        if self.envelope_window_s <= 0:
            raise ValueError(
                f"envelope window must be positive, "
                f"got {self.envelope_window_s}"
            )

    @property
    def envelope_window_samples(self) -> int:
        """Moving-average length in samples (at least 1)."""
        return max(1, int(round(self.envelope_window_s * self.sample_rate_hz)))


def notch_filter(raw: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Remove power-line interference with a second-order IIR notch.

    ``raw`` is (samples, channels); filtering is applied per channel with
    zero-phase ``filtfilt`` so the envelope is not delayed.
    """
    from scipy import signal as sp_signal

    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise ValueError(f"raw signal must be (samples, channels), got {raw.shape}")
    b, a = sp_signal.iirnotch(
        config.mains_hz, config.notch_q, fs=config.sample_rate_hz
    )
    return sp_signal.filtfilt(b, a, raw, axis=0)


def envelope(rectifiable: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Full-wave rectification followed by moving-average smoothing."""
    rectifiable = np.asarray(rectifiable, dtype=np.float64)
    if rectifiable.ndim != 2:
        raise ValueError(
            f"signal must be (samples, channels), got {rectifiable.shape}"
        )
    rectified = np.abs(rectifiable)
    w = config.envelope_window_samples
    kernel = np.ones(w) / w
    smoothed = np.empty_like(rectified)
    for ch in range(rectified.shape[1]):
        smoothed[:, ch] = np.convolve(rectified[:, ch], kernel, mode="same")
    return smoothed


def preprocess_trial(raw: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """Full preprocessing chain: notch → rectify → envelope.

    Returns the (samples, channels) non-negative envelope in mV.
    """
    return envelope(notch_filter(raw, config), config)
