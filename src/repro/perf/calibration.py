"""Fit the analytic cycle model from small-dimension ISS runs.

For a given chain shape (machine, core count, channels, levels, classes,
N, W, builtins), two full ISS executions at small hypervector dimensions
pin down the affine cycles-per-chunk model of :mod:`repro.perf.model`.
Calibration dimensions are chosen so their word counts are exact
multiples of the core count (no ceil() mismatch between fit points) and
far enough apart for a stable slope.

Sweeps call :func:`calibrate_chain` once per cell.  A process-wide
**model cache** keyed on the shape makes a revisited configuration
(Fig. 4's core sweep shares shapes with Fig. 3's N sweep, for instance)
cost a dict lookup, so a sweep runs two ISS windows per distinct shape,
not per cell.

Every distinct (shape, dimension) pair owns a distinct generated
program — the layout bakes buffer addresses and the N-gram structure
into the instruction stream — so fit points cannot share window lanes
of a single laned engine run; each fit point routes through the batched
window driver, the same dispatch core the sweeps execute on.

:class:`DevicePerfModel` freezes one calibrated operating point for
streaming telemetry: the serving stack batches windows on the host, but
the system it models classifies one window at a time on the device under
the 10 ms deadline, so a run's device totals are ``n_windows *
cycles_per_window`` and ``n_windows * window_energy_uj``.
:func:`device_model` calibrates one against the ISS for any (SoC,
cores, shape); :meth:`DevicePerfModel.from_cycles` builds one from a
known cycle count without running the ISS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..kernels.chain import ChainConfig, HDChainSimulator
from ..kernels.layout import ChainDims
from ..pulp.power import (
    OperatingPoint,
    PULPPowerModel,
    energy_per_classification_uj,
    m4_power_mw,
    min_cluster_voltage,
)
from ..pulp.soc import PULPV3_SOC, SoCConfig
from .latency import DETECTION_LATENCY_MS, required_frequency_mhz
from .model import ChainCycleModel, LinearCycleModel

_CACHE: Dict[tuple, ChainCycleModel] = {}


def calibration_dims(
    n_cores: int,
    soc: Optional[SoCConfig] = None,
    dims: Optional[ChainDims] = None,
) -> Tuple[int, int]:
    """Two small hypervector dimensions suitable for fitting.

    By default the word counts are ``8 · n_cores`` and ``24 · n_cores``
    — exact chunk multiples for the team, small enough to simulate in
    well under a second for every machine.  When the chain's L1 working
    set at those dimensions would not fit the SoC (many-channel shapes),
    the points shrink to the largest word counts that do, keeping the
    two chunk values distinct.
    """
    words_a, words_b = 8 * n_cores, 24 * n_cores
    if soc is not None and dims is not None:
        max_words = _max_fitting_words(soc, dims, n_cores)
        if max_words < words_b:
            words_b = max(max_words, 2)
            words_a = max(words_b // 3, 1)
        chunk = lambda w: -(-w // n_cores)  # noqa: E731
        while chunk(words_a) == chunk(words_b) and words_a > 1:
            words_a -= 1
        if chunk(words_a) == chunk(words_b):
            raise ValueError(
                f"cannot find two distinct calibration chunks for "
                f"{soc.name} with {dims.n_channels} channels"
            )
    return words_a * 32, words_b * 32


def _max_fitting_words(
    soc: SoCConfig, dims: ChainDims, n_cores: int
) -> int:
    """Largest per-vector word count whose layout fits the SoC's L1/L2."""
    from ..kernels.layout import make_layout
    from ..kernels.spatial import choose_strategy
    from ..pulp.memory import L1_BASE, L2_BASE

    strategy = choose_strategy(
        dims.n_bundle_inputs, soc.uses_dma, dims.n_channels
    )
    mem = soc.memory_config()
    lo, hi = 1, 4096
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        layout = make_layout(
            replace(dims, dim=mid * 32),
            n_cores,
            uses_dma=soc.uses_dma,
            with_bound_buf=(strategy == "memory"),
        )
        fits = (
            layout.l1_end - L1_BASE <= mem.l1_bytes
            and layout.l2_end - L2_BASE <= mem.l2_bytes
        )
        if fits:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if best == 0:
        raise ValueError(
            f"no dimension of the {dims.n_channels}-channel chain fits "
            f"{soc.name}"
        )
    return best


def _run_point(
    soc: SoCConfig,
    n_cores: int,
    dims: ChainDims,
    use_builtins: bool,
    strategy: str,
    rng: np.random.Generator,
) -> Tuple[int, int]:
    """One full ISS chain execution; returns (encode, am) cycles."""
    sim = HDChainSimulator(
        ChainConfig(
            soc=soc,
            n_cores=n_cores,
            dims=dims,
            use_builtins=use_builtins,
            strategy=strategy,
        )
    )
    n_words = dims.n_words
    sim.load_model(
        rng.integers(0, 2**32, size=(dims.n_channels, n_words), dtype=np.uint32),
        rng.integers(0, 2**32, size=(dims.n_levels, n_words), dtype=np.uint32),
        rng.integers(0, 2**32, size=(dims.n_classes, n_words), dtype=np.uint32),
    )
    # Pad bits do not affect timing, but keep the invariant for hygiene.
    levels = rng.integers(
        0, dims.n_levels, size=(1, dims.n_samples, dims.n_channels)
    )
    # The batched driver is the production execution path: the sweeps
    # that consume this calibration run through it on the same engine.
    result = sim.run_window_levels_batch(levels)[0]
    return result.encode_cycles, result.am_cycles


def calibrate_chain(
    soc: SoCConfig,
    n_cores: int,
    dims: ChainDims,
    use_builtins: bool = False,
    strategy: str = "auto",
    seed: int = 99,
) -> ChainCycleModel:
    """Calibrate (or fetch from cache) the cycle model for one shape.

    ``dims.dim`` is ignored — the model predicts over dimensions; all
    other shape fields matter, and they key the model cache.  A fit
    runs two fit-point ISS windows sharing one rng stream seeded by
    ``seed``, which is not part of the key.
    """
    key = (
        soc.name,
        n_cores,
        dims.n_channels,
        dims.n_levels,
        dims.n_classes,
        dims.ngram,
        dims.window,
        use_builtins,
        strategy,
    )
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(seed)
    dim_a, dim_b = calibration_dims(n_cores, soc, dims)
    enc_a, am_a = _run_point(
        soc, n_cores, replace(dims, dim=dim_a), use_builtins, strategy, rng
    )
    enc_b, am_b = _run_point(
        soc, n_cores, replace(dims, dim=dim_b), use_builtins, strategy, rng
    )
    model = ChainCycleModel(
        encode=LinearCycleModel.fit(
            n_cores, "encode", (dim_a, enc_a), (dim_b, enc_b)
        ),
        am=LinearCycleModel.fit(n_cores, "am", (dim_a, am_a), (dim_b, am_b)),
    )
    _CACHE[key] = model
    return model


def clear_cache() -> None:
    """Drop all cached calibrations (tests)."""
    _CACHE.clear()


# -- device operating point for serving telemetry ----------------------------


@dataclass(frozen=True)
class DevicePerfModel:
    """One frozen device operating point for streaming telemetry."""

    name: str
    n_cores: int
    dim: int
    cycles_per_window: int
    f_mhz: float
    power_mw: float
    meets_deadline: bool
    deadline_ms: float = DETECTION_LATENCY_MS

    @property
    def window_latency_ms(self) -> float:
        """Latency of one on-device classification at ``f_mhz``."""
        return self.cycles_per_window / (self.f_mhz * 1000.0)

    @property
    def window_energy_uj(self) -> float:
        """Energy of one on-device classification."""
        return energy_per_classification_uj(
            self.power_mw, self.window_latency_ms
        )

    @classmethod
    def from_cycles(
        cls,
        cycles_per_window: int,
        soc: SoCConfig = PULPV3_SOC,
        n_cores: int = 4,
        dim: int = 10_000,
        v_cluster: Optional[float] = None,
        deadline_ms: float = DETECTION_LATENCY_MS,
    ) -> "DevicePerfModel":
        """Freeze an operating point from a known per-window cycle count.

        The clock is set exactly to finish one window within the deadline
        (the paper's frequency-selection rule); power comes from the
        fitted Table 2 model — the PULP cluster decomposition for DMA
        machines, the flat mW/MHz constant for the M4.
        """
        if cycles_per_window <= 0:
            raise ValueError(
                f"cycles_per_window must be positive, got {cycles_per_window}"
            )
        f_mhz = required_frequency_mhz(cycles_per_window, deadline_ms)
        if soc.uses_dma:
            voltage = (
                v_cluster
                if v_cluster is not None
                else max(min_cluster_voltage(f_mhz), soc.v_min)
            )
            power = PULPPowerModel().total_mw(
                n_cores, OperatingPoint(v_cluster=voltage, f_mhz=f_mhz)
            )
        else:
            power = m4_power_mw(f_mhz)
        return cls(
            name=f"{soc.name} {n_cores}c",
            n_cores=n_cores,
            dim=dim,
            cycles_per_window=cycles_per_window,
            f_mhz=f_mhz,
            power_mw=power,
            meets_deadline=f_mhz <= soc.f_max_mhz,
            deadline_ms=deadline_ms,
        )


def device_model(
    soc: SoCConfig = PULPV3_SOC,
    n_cores: int = 4,
    dim: int = 10_000,
    dims: Optional[ChainDims] = None,
    v_cluster: Optional[float] = None,
) -> DevicePerfModel:
    """ISS-calibrate a :class:`DevicePerfModel` for one chain shape.

    Runs two small-dimension ISS executions (cached per shape by
    :func:`calibrate_chain`), predicts the per-window cycles at
    ``dim``, and freezes the deadline-meeting operating point.  The
    default shape is the paper's EMG task.
    """
    shape = dims if dims is not None else ChainDims(dim=dim)
    chain = calibrate_chain(soc, n_cores, shape)
    return DevicePerfModel.from_cycles(
        chain.predict_total(dim),
        soc=soc,
        n_cores=n_cores,
        dim=dim,
        v_cluster=v_cluster,
    )
