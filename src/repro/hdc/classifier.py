"""Hyper-parameters of the end-to-end HD classifier.

:class:`HDClassifierConfig` fixes the processing chain of Fig. 1 (CIM/IM
mapping → encoders → AM) that :class:`~repro.hdc.batch.BatchHDClassifier`
trains and predicts.  The paper's EMG configuration is available as
:meth:`HDClassifierConfig.emg` (4 channels, 22 CIM levels, D=10,000,
N=1, W=5).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HDClassifierConfig:
    """Hyper-parameters of the HD classifier.

    The model size is fully determined by these values — the paper contrasts
    this with the SVM, whose support-vector count "is not determined a
    priori" (section 4.1).
    """

    dim: int = 10_000
    n_channels: int = 4
    n_levels: int = 22
    ngram_size: int = 1
    signal_lo: float = 0.0
    signal_hi: float = 21.0
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.n_channels <= 0:
            raise ValueError(
                f"n_channels must be positive, got {self.n_channels}"
            )
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be >= 2, got {self.n_levels}")
        if self.ngram_size < 1:
            raise ValueError(
                f"ngram_size must be >= 1, got {self.ngram_size}"
            )
        if self.signal_hi <= self.signal_lo:
            raise ValueError(
                f"invalid signal range [{self.signal_lo}, {self.signal_hi}]"
            )

    @classmethod
    def emg(cls, dim: int = 10_000, ngram_size: int = 1) -> "HDClassifierConfig":
        """The paper's EMG hand-gesture configuration.

        Four forearm channels, 22 linear CIM levels over the 0–21 mV
        amplitude range, N-gram size 1.
        """
        return cls(dim=dim, n_channels=4, n_levels=22, ngram_size=ngram_size)
