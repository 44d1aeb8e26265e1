"""Fig. 3 — execution cycles versus hypervector dimension for several
N-gram sizes, on the 8-core Wolf with builtins.

The paper's claim: "increasing the dimension of the hypervectors, for
every N-gram size, corresponds to a linear growth of the execution
time".  Each N-gram size is one
:func:`~repro.perf.calibration.calibrate_chain` call (two small-D ISS
runs); the sweep then evaluates the model across the dimension axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..kernels.layout import ChainDims
from ..perf.calibration import calibrate_chain
from ..pulp.soc import WOLF_SOC
from .reporting import Series, render_series_table

DEFAULT_DIMS = (1_000, 2_000, 4_000, 6_000, 8_000, 10_000)
DEFAULT_NGRAMS = (1, 3, 5, 7, 10)


@dataclass(frozen=True)
class Fig3Result:
    """Cycles per (dimension, N) point on Wolf 8 cores + builtins."""

    dims: Sequence[int]
    ngrams: Sequence[int]
    cycles: Dict[int, List[int]]  # ngram -> cycles per dim

    def linearity_r2(self, ngram: int) -> float:
        """R² of a straight-line fit over the dimension axis."""
        x = np.asarray(self.dims, dtype=np.float64)
        y = np.asarray(self.cycles[ngram], dtype=np.float64)
        coeffs = np.polyfit(x, y, 1)
        fitted = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0:
            return 1.0
        return 1.0 - ss_res / ss_tot


def run_fig3(
    dims: Sequence[int] = DEFAULT_DIMS,
    ngrams: Sequence[int] = DEFAULT_NGRAMS,
    n_cores: int = 8,
) -> Fig3Result:
    """Calibrate one model per N and sweep the dimension axis."""
    cycles: Dict[int, List[int]] = {}
    for n in ngrams:
        model = calibrate_chain(
            WOLF_SOC,
            n_cores,
            ChainDims(
                dim=10_000, n_channels=4, n_levels=22, n_classes=5,
                ngram=n, window=5,
            ),
            use_builtins=True,
        )
        cycles[n] = [model.predict_total(d) for d in dims]
    return Fig3Result(dims=tuple(dims), ngrams=tuple(ngrams), cycles=cycles)


def render(result: Fig3Result) -> str:
    """The figure as a cycles table plus linearity check."""
    series = [
        Series(
            name=f"N={n} (kcyc)",
            x=list(result.dims),
            y=[c / 1e3 for c in result.cycles[n]],
        )
        for n in result.ngrams
    ]
    body = render_series_table(
        "Fig. 3 — cycles vs hypervector dimension, Wolf 8 cores + "
        "built-in",
        "D",
        series,
        y_format=".1f",
    )
    checks = ", ".join(
        f"N={n}: R²={result.linearity_r2(n):.5f}" for n in result.ngrams
    )
    return body + f"\n  * linear-growth check ({checks})"
