"""Fig. 4 — performance with large N-grams on 1/2/4/8 Wolf cores
(builtins, 10,000-D).

The paper's claim: "the accelerator is able to scale such excessive
workload perfectly among the cores" — the N-gram sweep shifts the curve
up (more rotate-XOR passes) while the core count divides it down with
near-ideal efficiency.  Each (N, cores) cell is one
:func:`~repro.perf.calibration.calibrate_chain` call, evaluated at the
fixed dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..kernels.layout import ChainDims
from ..perf.calibration import calibrate_chain
from ..pulp.soc import WOLF_SOC
from .reporting import Series, render_series_table

DEFAULT_NGRAMS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
DEFAULT_CORES = (1, 2, 4, 8)


@dataclass(frozen=True)
class Fig4Result:
    """Cycles per (N, cores) point at a fixed dimension."""

    ngrams: Sequence[int]
    cores: Sequence[int]
    dim: int
    cycles: Dict[int, List[int]]  # cores -> cycles per N

    def parallel_efficiency(self, n_cores: int, ngram: int) -> float:
        """speed-up / cores at one point (1.0 = ideal)."""
        idx = list(self.ngrams).index(ngram)
        base = self.cycles[1][idx]
        return base / self.cycles[n_cores][idx] / n_cores


def run_fig4(
    ngrams: Sequence[int] = DEFAULT_NGRAMS,
    cores: Sequence[int] = DEFAULT_CORES,
    dim: int = 10_000,
) -> Fig4Result:
    """Calibrate a model per (N, cores) shape and evaluate at ``dim``.

    The calibration cache fits each distinct shape of the grid once.
    """
    cycles: Dict[int, List[int]] = {
        n_cores: [
            calibrate_chain(
                WOLF_SOC,
                n_cores,
                ChainDims(
                    dim=dim, n_channels=4, n_levels=22, n_classes=5,
                    ngram=n, window=5,
                ),
                use_builtins=True,
            ).predict_total(dim)
            for n in ngrams
        ]
        for n_cores in cores
    }
    return Fig4Result(
        ngrams=tuple(ngrams), cores=tuple(cores), dim=dim, cycles=cycles
    )


def render(result: Fig4Result) -> str:
    """The figure as a cycles table plus an efficiency summary."""
    series = [
        Series(
            name=f"{c} core{'s' if c > 1 else ''} (kcyc)",
            x=list(result.ngrams),
            y=[v / 1e3 for v in result.cycles[c]],
        )
        for c in result.cores
    ]
    body = render_series_table(
        f"Fig. 4 — cycles vs N-gram size, Wolf + built-in, "
        f"{result.dim}-D",
        "N",
        series,
        y_format=".1f",
    )
    max_n = result.ngrams[-1]
    eff = ", ".join(
        f"{c} cores: {result.parallel_efficiency(c, max_n):.2f}"
        for c in result.cores
        if c > 1
    )
    return body + f"\n  * parallel efficiency at N={max_n} ({eff}; 1.0 = ideal)"
