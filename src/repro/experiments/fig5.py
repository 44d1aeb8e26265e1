"""Fig. 5 — performance and memory footprint with increasing channel
count (Wolf 8 cores + builtins, 10,000-D), plus the Cortex M4's latency
wall.

The paper's claims: cycles grow linearly with the channel count, the
memory footprint grows linearly too, the 8-core Wolf keeps meeting the
10 ms deadline, and "the commercial ARM Cortex M4 … cannot meet the
10 ms latency constraint when the number of channels is larger than 16".
Each channel count is one :func:`~repro.perf.calibration.calibrate_chain`
call per machine, evaluated at the fixed dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..kernels.layout import ChainDims, make_layout
from ..perf.calibration import calibrate_chain
from ..perf.latency import DETECTION_LATENCY_MS, check_latency
from ..pulp.soc import CORTEX_M4_SOC, WOLF_SOC
from .reporting import Table

DEFAULT_CHANNELS = (4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Fig5Point:
    """One channel-count point."""

    n_channels: int
    wolf_cycles: int
    wolf_required_mhz: float
    wolf_meets_deadline: bool
    m4_cycles: int
    m4_required_mhz: float
    m4_meets_deadline: bool
    model_kbytes: float


@dataclass(frozen=True)
class Fig5Result:
    """The channel sweep."""

    points: List[Fig5Point]
    dim: int

    def m4_first_failure(self) -> Optional[int]:
        """Smallest channel count where the M4 misses the deadline."""
        for point in self.points:
            if not point.m4_meets_deadline:
                return point.n_channels
        return None

    def cycles_linearity_r2(self) -> float:
        """R² of cycles vs channels on the Wolf curve."""
        x = np.array([p.n_channels for p in self.points], dtype=np.float64)
        y = np.array([p.wolf_cycles for p in self.points], dtype=np.float64)
        coeffs = np.polyfit(x, y, 1)
        fitted = np.polyval(coeffs, x)
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot else 1.0


def run_fig5(
    channels: Sequence[int] = DEFAULT_CHANNELS,
    dim: int = 10_000,
) -> Fig5Result:
    """Calibrate per channel count on both machines, sweep, and check
    the deadline."""
    # The carry-save spatial strategy at every point keeps the sweep
    # strategy-consistent (and is the only one that scales to 256
    # channels); Table 3's small-channel numbers use the paper's
    # Fig. 2 register strategy instead.
    points = []
    for n_ch in channels:
        shape = ChainDims(
            dim=dim, n_channels=n_ch, n_levels=22, n_classes=5,
            ngram=1, window=5,
        )
        wolf_cycles = calibrate_chain(
            WOLF_SOC, 8, shape, use_builtins=True, strategy="carry-save"
        ).predict_total(dim)
        m4_cycles = calibrate_chain(
            CORTEX_M4_SOC, 1, shape, strategy="carry-save"
        ).predict_total(dim)
        wolf_check = check_latency(wolf_cycles, WOLF_SOC)
        m4_check = check_latency(m4_cycles, CORTEX_M4_SOC)
        layout = make_layout(shape, n_cores=8)
        points.append(
            Fig5Point(
                n_channels=n_ch,
                wolf_cycles=wolf_cycles,
                wolf_required_mhz=wolf_check.required_mhz,
                wolf_meets_deadline=wolf_check.meets_deadline,
                m4_cycles=m4_cycles,
                m4_required_mhz=m4_check.required_mhz,
                m4_meets_deadline=m4_check.meets_deadline,
                model_kbytes=(layout.model_bytes() + layout.input_bytes())
                / 1024.0,
            )
        )
    return Fig5Result(points=points, dim=dim)


def render(result: Fig5Result) -> str:
    """The channel sweep as a table with deadline annotations."""
    table = Table(
        title=f"Fig. 5 — channel scalability, {result.dim}-D, "
        f"{DETECTION_LATENCY_MS:.0f} ms deadline "
        "(Wolf 8 cores + built-in vs ARM Cortex M4)",
        headers=[
            "Channels", "Wolf cyc (k)", "Wolf f_req (MHz)", "Wolf OK",
            "M4 cyc (k)", "M4 f_req (MHz)", "M4 OK", "Model (kB)",
        ],
    )
    for p in result.points:
        table.add_row(
            p.n_channels,
            f"{p.wolf_cycles / 1e3:.0f}",
            f"{p.wolf_required_mhz:.1f}",
            "yes" if p.wolf_meets_deadline else "NO",
            f"{p.m4_cycles / 1e3:.0f}",
            f"{p.m4_required_mhz:.1f}",
            "yes" if p.m4_meets_deadline else "NO",
            f"{p.model_kbytes:.0f}",
        )
    failure = result.m4_first_failure()
    table.add_note(
        f"M4 first misses the deadline at {failure} channels "
        "(paper: above 16)"
        if failure
        else "M4 met the deadline at every swept channel count"
    )
    table.add_note(
        f"cycles-vs-channels linearity R² = "
        f"{result.cycles_linearity_r2():.5f} (paper: linear)"
    )
    table.add_note(
        "footprint counts the CIM+IM+AM model plus per-window input, "
        "which is the linearly-growing storage of the paper's red line"
    )
    return table.render()
