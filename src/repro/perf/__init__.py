"""ISS-calibrated analytic performance model for the full-scale sweeps
(Figs. 3–5) and the detection-latency bookkeeping."""

from .calibration import (
    CalibrationRequest,
    calibrate_chain,
    calibrate_chain_batch,
    calibration_dims,
    clear_cache,
)
from .latency import (
    DETECTION_LATENCY_MS,
    LatencyCheck,
    check_latency,
    required_frequency_mhz,
)
from .model import ChainCycleModel, LinearCycleModel
from .streaming import (
    DevicePerfModel,
    FleetStats,
    StreamStats,
    device_model,
    merge_stream_stats,
)

__all__ = [
    "CalibrationRequest",
    "ChainCycleModel",
    "DETECTION_LATENCY_MS",
    "DevicePerfModel",
    "FleetStats",
    "LatencyCheck",
    "LinearCycleModel",
    "StreamStats",
    "calibrate_chain",
    "calibrate_chain_batch",
    "calibration_dims",
    "check_latency",
    "clear_cache",
    "device_model",
    "merge_stream_stats",
    "required_frequency_mhz",
]
