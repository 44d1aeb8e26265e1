"""Workload definitions, seeded input generators and measurement helpers.

Everything the benchmark feeds the system is built here from the
``--seed`` argument; the processes under test only ever receive these
generated arrays.  The model is the paper's D=10,000, N=1 EMG
classifier, fitted on subject 0's training quarter, so it is the same
for every seed; the seed picks the streamed trials, the uniform sample
streams and the order of the ISS windows.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import pathlib
import sys
from time import perf_counter
from typing import Dict, Iterator, List, Sequence

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DIM = 10_000
SAMPLE_RATE_HZ = 500
N_CHANNELS = 4

#: emg_tcp: sessions of the open loop.  A fresh server's p95 crossed
#: the paper's 10 ms deadline near 38 sessions on a 2-core host; from 12
#: sessions on, p95 flipped between runs from ~2.7 ms to ~6 ms (a chunk
#: arriving while the ingress driver thread has backlog waits out the
#: interpreter's 5 ms thread switch interval), so the count sits below.
TCP_SESSIONS = 8
#: 25 samples at 500 Hz: one SAMPLES frame per session every 50 ms.
TCP_CHUNK = 25
TCP_CONNECTIONS = 2
#: Warm-up sessions (subject 4 trials, disjoint from the measured ones).
TCP_WARM_SESSIONS = 8
TCP_WARM_TRIALS = 2
#: Subjects whose trials the measured sessions stream.
TCP_SUBJECTS = (1, 2, 3)
TCP_WARM_SUBJECT = 4

#: unique_batch / fleet2: 128 sessions x 4 windows per round = one
#: full max_batch=512 dispatch per arrival round.
UNIQUE_SESSIONS = 128
UNIQUE_CHUNK = 20
MAX_BATCH = 512
WARM_ROUNDS = 6
#: Rounds every run consumes; the decision digest covers them.
PREFIX_ROUNDS = 12

#: iss_grid: windows per run_window_levels_batch call (one arena chunk).
ISS_BATCH = 32
ISS_MACHINES = ("pulpv3_1c", "pulpv3_4c", "wolf_8c_bi")
PAPER_SPEEDUP = {"pulpv3_4c": 3.7, "wolf_8c_bi": 18.4}

#: Each run is cut into this many time slices; rates are the median
#: over slices.
SLICES = 20
#: Fresh process launches per run whose set-up times give setup_s.
SETUP_REPEATS = 3


# -- inputs -----------------------------------------------------------------


def training_set():
    """Subject 0's paper-split training windows (W=5, stride 25)."""
    from repro.emg import (
        EMGDatasetConfig,
        WindowConfig,
        generate_subject,
        subject_windows,
    )

    subject = generate_subject(EMGDatasetConfig(), 0)
    (train_w, train_l), _ = subject_windows(
        subject, WindowConfig(window_samples=5, stride_samples=25)
    )
    return np.asarray(train_w), np.asarray(train_l, dtype=np.int64)


def fit_model(train_w: np.ndarray, train_l: np.ndarray):
    """The served classifier: D=10,000, N=1, fitted on ``train_*``."""
    from repro.hdc import BatchHDClassifier, HDClassifierConfig

    model = BatchHDClassifier(HDClassifierConfig(dim=DIM))
    return model.fit(train_w, [int(label) for label in train_l])


def signal_range():
    """The model's quantiser range, which the uniform inputs span."""
    from repro.hdc import HDClassifierConfig

    config = HDClassifierConfig(dim=DIM)
    return config.signal_lo, config.signal_hi


def tcp_config():
    """The emg_tcp service configuration: defaults, with max_wait=0."""
    from repro.stream import StreamConfig

    return StreamConfig(max_wait=0)


def _trials(subject_id: int) -> List[np.ndarray]:
    from repro.emg import EMGDatasetConfig, generate_subject

    subject = generate_subject(EMGDatasetConfig(), subject_id)
    return [trial.envelope for trial in subject.trials]


def tcp_streams(seed: int, seconds: float):
    """(measured, warm-up) per-session EMG envelope streams for emg_tcp.

    Measured session ``i`` streams seed-chosen trials of subjects 1-3
    back to back for ``seconds`` at 500 Hz; the warm-up sessions stream
    subject 4, so warm-up never replays a measured window.
    """
    pool = [env for sid in TCP_SUBJECTS for env in _trials(sid)]
    order = np.random.default_rng([seed, 3]).permutation(len(pool))
    n_chunks = max(1, int(round(seconds * SAMPLE_RATE_HZ / TCP_CHUNK)))
    n_samples = n_chunks * TCP_CHUNK
    per_session = -(-n_samples // pool[0].shape[0])
    measured = []
    for i in range(TCP_SESSIONS):
        picks = [
            pool[order[(i * per_session + k) % len(pool)]]
            for k in range(per_session)
        ]
        measured.append(np.concatenate(picks)[:n_samples])
    warm_pool = _trials(TCP_WARM_SUBJECT)
    warm = [
        np.concatenate(
            warm_pool[i * TCP_WARM_TRIALS : (i + 1) * TCP_WARM_TRIALS]
        )
        for i in range(TCP_WARM_SESSIONS)
    ]
    return measured, warm


def uniform_rounds(seed: int, stream: int, lo: float, hi: float) -> Iterator:
    """Endless i.i.d. uniform arrival rounds, ``(sessions, chunk, ch)``.

    ``stream`` 1 is the measured stream and 2 the warm-up stream, so the
    two never share a sample.  The sequence is a pure function of
    ``seed``: a faster build consumes more rounds of the same sequence.
    """
    rng = np.random.default_rng([seed, stream])
    shape = (UNIQUE_SESSIONS, UNIQUE_CHUNK, N_CHANNELS)
    while True:
        yield lo + (hi - lo) * rng.random(shape)


def iss_windows(seed: int):
    """(measured pool, warm-up pool) of raw EMG test windows for iss_grid.

    The pool is subject 0's whole test set (the paper tests on every
    trial) in a seed-chosen order; warm-up windows come from subject 4.
    """
    from repro.emg import (
        EMGDatasetConfig,
        WindowConfig,
        generate_subject,
        windows_from_trials,
    )

    config = WindowConfig(window_samples=5)
    test, _ = windows_from_trials(
        generate_subject(EMGDatasetConfig(), 0).trials, config
    )
    test = np.asarray(test)
    test = test[np.random.default_rng([seed, 4]).permutation(len(test))]
    warm, _ = windows_from_trials(
        generate_subject(EMGDatasetConfig(), TCP_WARM_SUBJECT).trials[:1],
        config,
    )
    return test, np.asarray(warm)[:ISS_BATCH]


def digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the arrays' shapes, dtypes and bytes."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(repr((array.shape, array.dtype.str)).encode())
        h.update(array.tobytes())
    return h.hexdigest()


# -- offline oracle -----------------------------------------------------------


def offline_decisions(model, stream: np.ndarray, window_config, smooth: int):
    """Per-window ``(raw, smoothed)`` labels of the offline library path:
    ``emg.windows`` slicing, ``BatchHDClassifier.predict`` and the
    session smoother."""
    from repro.emg.dataset import Trial
    from repro.emg.windows import windows_from_trial
    from repro.stream import MajorityVoteSmoother

    trial = Trial(subject_id=-1, gesture=-1, repetition=0, envelope=stream)
    windows = windows_from_trial(trial, window_config, SAMPLE_RATE_HZ)
    if not windows:
        return []
    raw = model.predict(np.asarray(windows))
    smoother = MajorityVoteSmoother(smooth)
    return [(label, smoother.update(label)) for label in raw]


# -- measurement helpers ------------------------------------------------------

#: Seconds one probe unit takes on the reference host (the 2-core x86
#: host the bounds in BENCHMARK.json were set on).
PROBE_REFERENCE_S = 0.004
#: In-process closed loops run one probe unit this often.
PROBE_INTERVAL_S = 0.25
#: A slice is scaled by the probe units of this many slices either side.
PROBE_SPAN = 1


class Prober:
    """Host-speed probe for a shared host.

    On a shared host the clock of interpreter and memory-bound code
    drifts by tens of percent from run to run: a pure-Python loop took
    18 to 51 ms within 20 s on the reference host.  A probe unit is a
    fixed mix of both kinds of work; its duration against
    ``PROBE_REFERENCE_S`` gives the host's speed at that moment, and
    times are reported as they would read on the reference host.  Run
    units only where no work of the system is in flight (a unit then
    delays no decision and competes with nothing it measures): before
    each launch of a system process, between rounds of unique_batch
    and between batches of iss_grid; never beside fleet2's shard
    workers or inside emg_tcp's open loop.  ``samples`` holds
    ``(stamp, seconds)`` per unit.
    """

    def __init__(self) -> None:
        self._words = np.random.default_rng(0).integers(
            0, 1 << 63, size=(2048, 157), dtype=np.uint64
        )
        self.samples: List[tuple] = []
        self._next = 0.0

    def unit(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(20_000):
            total += i & 7
        mixed = self._words ^ (self._words >> np.uint64(1))
        (mixed & self._words) | (mixed ^ self._words)
        seconds = perf_counter() - start
        self.samples.append((start, seconds))
        return seconds

    def tick(self) -> None:
        """Run one unit if the last one is PROBE_INTERVAL_S old."""
        now = perf_counter()
        if now >= self._next:
            self.unit()
            self._next = now + PROBE_INTERVAL_S

    def speed(self, units: int = 12) -> float:
        """Host speed now (>1: faster than the reference host)."""
        return PROBE_REFERENCE_S / float(
            np.median([self.unit() for _ in range(units)])
        )


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Largest VmHWM (peak resident set) over this process and ``pids``."""
    best = 0
    for pid in ("self", *pids):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]))
        except OSError:
            continue
    return best / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _edges(times: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """SLICES equal slices of [t0, t1]; the last one reaches the last
    stamp (a closed loop's final drain lands after t1)."""
    edges = np.linspace(t0, t1, SLICES + 1)
    edges[-1] = max(t1, float(np.max(times, initial=t1))) + 1e-9
    return edges


def _speeds(edges: np.ndarray, probes) -> np.ndarray:
    """Host speed per slice: reference over the lower quartile of the
    probe units within PROBE_SPAN slices either side (anything else on
    the host can only slow a unit down)."""
    stamps = np.array([p[0] for p in probes])
    seconds = np.array([p[1] for p in probes])
    out = np.empty(SLICES)
    for k in range(SLICES):
        lo = edges[max(0, k - PROBE_SPAN)]
        hi = edges[min(SLICES, k + 1 + PROBE_SPAN)]
        near = seconds[(stamps >= lo) & (stamps < hi)]
        out[k] = PROBE_REFERENCE_S / np.percentile(
            near if near.size else seconds, 25
        )
    return out


def rate_metric(times, t0: float, t1: float, probes=None) -> float:
    """Events per second (one event per stamp in ``times``): the median
    over SLICES time slices of the run, so a few seconds of host stall
    move it less than a whole-run mean.  With ``probes`` (a Prober's
    samples) each slice is first divided by its host speed."""
    times = np.asarray(times, dtype=np.float64)
    edges = _edges(times, t0, t1)
    counts = np.histogram(times, edges)[0]
    rates = counts / np.diff(edges)
    if probes:
        rates = rates / _speeds(edges, probes)
    return float(np.median(rates[counts > 0])) if counts.any() else 0.0


def latency_metrics(latencies_s, times=None, t0=0.0, t1=0.0, probes=None):
    """decision_p50_ms / decision_p95_ms over the whole run.

    With ``probes`` each latency is first multiplied by the host speed
    of the slice its decision (stamped in ``times``) ended in.
    """
    latencies_s = np.asarray(latencies_s, dtype=np.float64)
    if not latencies_s.size:
        return {"decision_p50_ms": 0.0, "decision_p95_ms": 0.0}
    if probes:
        times = np.asarray(times, dtype=np.float64)
        edges = _edges(times, t0, t1)
        slice_of = np.clip(
            np.searchsorted(edges, times, side="right") - 1, 0, SLICES - 1
        )
        latencies_s = latencies_s * _speeds(edges, probes)[slice_of]
    return {
        f"decision_p{p}_ms": 1e3 * percentile(latencies_s, p)
        for p in (50, 95)
    }


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of every ``kind`` metric ("end_to_end" or
    "per_layer") that BENCHMARK.json declares; that file owns both."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# -- system processes ---------------------------------------------------------


@contextlib.asynccontextmanager
async def system_process(script: str, *args: str):
    """A fresh ``python perfbench/<script> *args`` with piped stdin and
    stdout; killed and reaped on leaving the block if still running."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, str(HERE / script), *args,
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        # The traced server's RESULT line carries every decision's span.
        limit=1 << 26,
    )
    try:
        yield proc
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()


async def expect(proc, prefix: str, timeout: float) -> str:
    """The next stdout line of ``proc`` that starts with ``prefix``."""
    while True:
        raw = await asyncio.wait_for(proc.stdout.readline(), timeout)
        if not raw:
            raise RuntimeError(
                f"system process ended before printing {prefix!r}"
            )
        line = raw.decode().strip()
        if line.startswith(prefix):
            return line


async def exited(proc, timeout: float = 60.0) -> None:
    """Wait for ``proc`` to end; raise unless it exited with 0."""
    if await asyncio.wait_for(proc.wait(), timeout) != 0:
        raise RuntimeError(f"system process exited with {proc.returncode}")


async def result(proc, timeout: float) -> dict:
    """The ``RESULT <json>`` line of ``proc``, once it has exited with 0."""
    line = await expect(proc, "RESULT", timeout)
    await exited(proc)
    return json.loads(line[len("RESULT "):])
