"""Walkthrough: the multi-session streaming inference service.

The paper's deployment is *continuous* gesture recognition — a sensor
stream, one decision per 10 ms window, on a low-power device.  This
example builds that serving path end to end:

1. train a per-subject model offline and freeze it into the versioned
   model store (serving never retrains);
2. rebuild the classifier from the store, bit-exactly;
3. open concurrent sessions against one `StreamingService` and push
   samples in small real-time chunks; the scheduler coalesces ready
   windows from all sessions into single packed-engine batches;
4. read the smoothed decisions the calls return, and the host
   wall-clock next to the simulated on-device cost of the same
   workload on PULPv3 (window count times the per-window constants).

Run:  PYTHONPATH=src python examples/streaming_service.py

For the multi-process continuation of this walkthrough — the same
serving semantics sharded across worker processes over one mmap'd model
store, with crash/respawn recovery — see
``examples/sharded_streaming.py``.
"""

import pathlib
import tempfile
import time

import numpy as np

from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject
from repro.emg.windows import paper_split, windows_from_trials
from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.hdc.serialize import load_model, model_info, save_model
from repro.perf.calibration import device_model
from repro.pulp import PULPV3_SOC
from repro.stream import StreamConfig, StreamingService

DIM = 4096
N_SESSIONS = 8
CHUNK = 25  # 50 ms of samples per push at 500 Hz


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run(pathlib.Path(tmp) / "emg-model.npz")


def run(store: pathlib.Path) -> None:
    # -- 1. offline training, then the model store ----------------------
    dataset = EMGDatasetConfig(n_subjects=1)
    subject = generate_subject(dataset, 0)
    window = WindowConfig()  # W=5 -> the paper's 10 ms decision window
    train_trials, _ = paper_split(subject)
    train_windows, train_labels = windows_from_trials(train_trials, window)
    model = BatchHDClassifier(HDClassifierConfig.emg(dim=DIM))
    model.fit(np.asarray(train_windows), train_labels)

    save_model(store, model)
    print(f"model store: {model_info(store)}")

    # -- 2. serving rebuilds from the store, never retrains --------------
    served = load_model(store)
    assert np.array_equal(served.prototype_words, model.prototype_words)

    # -- 3. a shared service, many concurrent sessions -------------------
    service = StreamingService(
        served,
        StreamConfig(
            window=window,
            max_batch=256,
            max_wait=N_SESSIONS,  # flush after one arrival round
            smooth=5,  # paper-style temporal smoothing
        ),
    )
    streams = []
    for s in range(N_SESSIONS):
        service.open_session(s)
        trial = subject.trials[(s * 7) % len(subject.trials)]
        streams.append(trial)

    # The service keeps no decision log: every decision is in what
    # ingest/drain return, so collect them as they come back.
    decisions = {s: [] for s in range(N_SESSIONS)}
    start = time.perf_counter()
    pos = 0
    longest = max(t.envelope.shape[0] for t in streams)
    while pos < longest:
        for s, trial in enumerate(streams):
            for d in service.ingest(s, trial.envelope[pos : pos + CHUNK]):
                decisions[d.session_id].append(d)
        pos += CHUNK
    for d in service.drain():
        decisions[d.session_id].append(d)
    wall = time.perf_counter() - start

    # -- 4. decisions + telemetry ----------------------------------------
    n_windows = service.total_windows
    print(
        f"\n{N_SESSIONS} sessions, {n_windows} windows in "
        f"{service.total_batches} batches "
        f"({n_windows / max(service.total_batches, 1):.1f} windows/batch), "
        f"{wall * 1e3:.1f} ms host ({n_windows / wall:,.0f} windows/s)"
    )
    for sid, mine in decisions.items():
        truth = streams[sid].gesture
        raw = np.mean([d.raw_label == truth for d in mine])
        smooth = np.mean([d.label == truth for d in mine])
        print(
            f"  session {sid}: gesture {truth} "
            f"({streams[sid].gesture_name:>12s}) "
            f"raw {raw:.3f} -> smoothed {smooth:.3f} "
            f"over {len(mine)} decisions"
        )
    # One on-device classification per window at a fixed operating
    # point, so the device totals are the window count times constants.
    device = device_model(PULPV3_SOC, n_cores=4, dim=DIM)
    print(
        f"\nsimulated on-device ({device.name} @ {device.f_mhz:.2f} MHz): "
        f"{device.cycles_per_window:,} cycles, "
        f"{device.window_latency_ms:.2f} ms, "
        f"{device.window_energy_uj:.1f} uJ per decision "
        f"({'meets' if device.meets_deadline else 'MISSES'} the "
        f"{device.deadline_ms:.0f} ms deadline); whole run "
        f"{n_windows * device.cycles_per_window:,} cycles, "
        f"{n_windows * device.window_energy_uj / 1e3:.2f} mJ; "
        f"decision-cache hit rate "
        f"{service.cache_hits / max(service.cache_hits + service.cache_misses, 1):.0%}"
    )


if __name__ == "__main__":
    main()
