"""ISS-calibrated analytic performance model for the full-scale sweeps
(Figs. 3–5), the detection-latency bookkeeping, and serving telemetry.

This package imports none of its submodules; import from them:

* :mod:`repro.perf.model` — the affine cycles-per-chunk model
  (:class:`~repro.perf.model.LinearCycleModel`,
  :class:`~repro.perf.model.ChainCycleModel`);
* :mod:`repro.perf.calibration` — fits that model from small ISS runs,
  and freezes a device operating point for streaming telemetry
  (:class:`~repro.perf.calibration.DevicePerfModel`,
  :func:`~repro.perf.calibration.device_model`);
* :mod:`repro.perf.latency` — the 10 ms deadline, frequency targets and
  deadline checks;
* :mod:`repro.perf.streaming` — host-side serving telemetry (latency
  histograms, :class:`~repro.perf.streaming.StreamStats`,
  :class:`~repro.perf.streaming.FleetStats`).  It imports numpy only,
  so the serving stack loads it without the ISS.
"""
