"""Benchmark the streaming service: sustained windows/sec vs. sessions.

Scales the multi-session scheduler from 1 to 1000 concurrent streams of
the paper's EMG task (D = 10,000) and compares against a naive
per-session loop that classifies each ready window with its own
single-window engine pass — the cost profile of serving every session
independently, with no batching and no memoization.

Each configuration streams one warm-up pass (cold caches: every pattern
encodes) and then one measured pass — *sustained* throughput, the
steady state a long-running service operates in, where the scheduler's
bit-exact cross-batch decision cache on quantised window patterns does
its work.  Cold-pass numbers and cache hit rates are published next
to the sustained numbers so nothing hides in the warm-up.

The acceptance number for the subsystem: batched multi-session
scheduling is >= 10x the naive loop's throughput at 100+ concurrent
sessions.  Device-side telemetry (simulated PULPv3 latency/energy per
decision) is published alongside.

The sharded section (PR 4) compares the multi-process front end
(``repro.stream.sharded``, N workers over one mmap'd model store)
against the single-process scheduler on identical *cache-hostile*
replay traces — uniform-random signals make nearly every window unique,
and the measured pass streams fresh samples after the warm-up pass, so
the measurement is encode-bound compute scaling, not cache luck.
Acceptance: >= 2x sustained windows/s at 4 shards on >= 100 sessions.
The scaling test needs >= 4 usable cores (it is skipped elsewhere, e.g.
single-core containers); ``python benchmarks/bench_stream.py --shards 4``
runs the same measurement standalone, as CI does.

The elastic section times worker recovery: a checkpointed respawn
(restore one snapshot blob) must be >= 5x faster than replaying the
full ingest journal.  It uses one shard, so it runs on any core count.
``python benchmarks/bench_stream.py --elastic`` runs it standalone.

``python benchmarks/bench_stream.py --small-batch`` publishes the hot
fixed cost of each serving stage (quantise, cache keys, encode, AM
search, queue-age record, ``Session.record``, windower push, and the
whole ``ingest``) at 1, 5, 8, 32 and 512 windows per dispatch: the
paper's deployment makes one small dispatch per 5-sample window, so
these per-call costs, not encode throughput, set its latency.  It has
no gate.
"""

import argparse
import os
import sys
import tempfile
import time

import numpy as np
import pytest

try:
    from benchmarks.conftest import publish
except ModuleNotFoundError:  # standalone: python benchmarks/bench_stream.py
    from conftest import publish

from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject
from repro.hdc import save_model
from repro.perf.calibration import device_model
from repro.perf.streaming import format_percentiles, wall_histogram
from repro.pulp import PULPV3_SOC
from repro.stream import (
    ShardedStreamingService,
    StreamConfig,
    StreamingService,
    StreamWindower,
    parity_digest,
    replay,
    trace_from_streams,
)

SESSION_COUNTS = (1, 10, 100, 1000)
NAIVE_COUNTS = (1, 10, 100)  # the naive loop at 1000 would dominate CI
#: One pass streams this many samples per session; length is a stride
#: multiple so the second (measured) pass re-emits aligned windows.
PASS_SAMPLES = 225
CHUNK = 45

# Pure throughput slicing: every sample position windows (no onset
# skip), non-overlapping W=5 windows as in the paper's 10 ms deadline.
WINDOW = WindowConfig(window_samples=5, stride_samples=5, skip_onset_s=0.0)
WINDOWS_PER_PASS = PASS_SAMPLES // WINDOW.stride - 1  # seam window shifts


@pytest.fixture(scope="module")
def stream_workload(emg_models):
    trials = generate_subject(EMGDatasetConfig(n_subjects=1), 0).trials
    streams = [t.envelope[:PASS_SAMPLES] for t in trials]
    return emg_models["batch"], streams


def _stream_pass(service, streams, n_sessions):
    pos = 0
    while pos < PASS_SAMPLES:
        for s in range(n_sessions):
            stream = streams[s % len(streams)]
            service.ingest(s, stream[pos : pos + CHUNK])
        pos += CHUNK
    service.drain()


def _run_batched(model, streams, n_sessions):
    # max_wait is in ingest ticks; two full arrival rounds of staleness
    # lets batches fill toward max_batch as the session count grows.
    service = StreamingService(
        model,
        StreamConfig(
            window=WINDOW, max_batch=512, max_wait=2 * n_sessions
        ),
    )
    for s in range(n_sessions):
        service.open_session(s)
    start = time.perf_counter()
    _stream_pass(service, streams, n_sessions)  # cold pass
    cold_s = time.perf_counter() - start
    cold_windows = service.total_windows
    service.cache_hits = service.cache_misses = 0
    start = time.perf_counter()
    _stream_pass(service, streams, n_sessions)  # sustained pass
    warm_s = time.perf_counter() - start
    n_windows = service.total_windows - cold_windows
    hit_rate = service.cache_hits / max(
        service.cache_hits + service.cache_misses, 1
    )
    return cold_s, warm_s, cold_windows, n_windows, hit_rate, service


def _run_naive(model, streams, n_sessions):
    """Per-session loop: every ready window gets its own engine pass."""
    windowers = [
        StreamWindower(WINDOW, model.config.n_channels)
        for _ in range(n_sessions)
    ]
    n_windows = 0
    start = time.perf_counter()
    pos = 0
    while pos < PASS_SAMPLES:
        for s in range(n_sessions):
            stream = streams[s % len(streams)]
            for window in windowers[s].push(stream[pos : pos + CHUNK]):
                model.predict(window[None, ...])
                n_windows += 1
        pos += CHUNK
    elapsed = time.perf_counter() - start
    return elapsed, n_windows


@pytest.fixture(scope="module")
def stream_scaling(stream_workload):
    model, streams = stream_workload
    rows = {}
    for n_sessions in SESSION_COUNTS:
        cold_s, warm_s, cold_w, warm_w, hit_rate, service = _run_batched(
            model, streams, n_sessions
        )
        naive = None
        if n_sessions in NAIVE_COUNTS:
            naive_s, naive_w = _run_naive(model, streams, n_sessions)
            naive = naive_s / naive_w
        mean_batch = (cold_w + warm_w) / max(service.total_batches, 1)
        rows[n_sessions] = dict(
            windows=warm_w,
            cold_us=cold_s / cold_w * 1e6,
            warm_us=warm_s / warm_w * 1e6,
            throughput=warm_w / warm_s,
            hit_rate=hit_rate,
            mean_batch=mean_batch,
            naive_us=(naive * 1e6) if naive else None,
            speedup=(naive * warm_w / warm_s) if naive else None,
            staleness=format_percentiles(
                service.queue_age_ticks_hist, "ticks"
            ),
        )

    device = device_model(PULPV3_SOC, n_cores=4, dim=model.config.dim)
    lines = [
        "Streaming service - sustained throughput vs. concurrent sessions",
        f"  (D={model.config.dim}, W=5/stride 5, {WINDOWS_PER_PASS + 1} "
        f"windows/session/pass, max_batch=512, max_wait=2 rounds; "
        f"sustained = second pass, warmed caches)",
        f"  {'sessions':>8s} {'windows':>8s} {'cold':>8s} {'sustain':>8s} "
        f"{'windows/s':>10s} {'hits':>6s} {'batch':>6s} "
        f"{'naive':>8s} {'speedup':>8s}",
    ]
    for n_sessions, row in rows.items():
        naive = f"{row['naive_us']:6.1f}us" if row["naive_us"] else "-"
        speedup = f"{row['speedup']:7.1f}x" if row["speedup"] else "-"
        lines.append(
            f"  {n_sessions:>8d} {row['windows']:>8d} "
            f"{row['cold_us']:6.1f}us {row['warm_us']:6.1f}us "
            f"{row['throughput']:>10,.0f} {row['hit_rate']:>6.0%} "
            f"{row['mean_batch']:>6.0f} {naive:>8s} {speedup:>8s}"
        )
    lines.append(
        "  decision staleness (ticks a window queued before dispatch, "
        "p50/p95/p99):"
    )
    for n_sessions, row in rows.items():
        lines.append(f"    {n_sessions:>6d} sessions: {row['staleness']}")
    lines.append(
        f"  simulated device: {device.name} @ {device.f_mhz:.2f} MHz, "
        f"{device.cycles_per_window:,} cycles / "
        f"{device.window_latency_ms:.2f} ms / "
        f"{device.window_energy_uj:.1f} uJ per decision"
    )
    publish("stream", "\n".join(lines))
    return rows


def test_scaling_reports_staleness_percentiles(stream_scaling):
    """Every published row carries non-empty p50/p95/p99 staleness."""
    for n_sessions, row in stream_scaling.items():
        assert row["staleness"] != "-", n_sessions
        assert "p95" in row["staleness"], row["staleness"]


def test_scaling_covers_thousand_sessions(stream_scaling):
    assert stream_scaling[1000]["windows"] >= 1000 * WINDOWS_PER_PASS


def test_batching_amortizes_with_session_count(stream_scaling):
    """More concurrent sessions -> bigger batches per dispatch."""
    assert (
        stream_scaling[1000]["mean_batch"]
        > stream_scaling[10]["mean_batch"]
    )


def test_sustained_cache_engages(stream_scaling):
    """Steady-state serving must run mostly out of the decision cache."""
    assert stream_scaling[100]["hit_rate"] > 0.5


def test_batched_speedup_target(stream_scaling):
    """Acceptance: >= 10x over the naive per-session loop at 100+
    concurrent sessions (sustained)."""
    assert stream_scaling[100]["speedup"] >= 10.0, stream_scaling[100]


# -- sharded multi-process scaling ------------------------------------------

SHARDED_SESSIONS = 100
SHARDED_SAMPLES = 500  # per session per pass; stride multiple
#: Samples per ingest in the sharded trace: 25 windows per pipe message
#: keeps the coordinator's per-window serialization cost well below the
#: workers' encode cost, so the measurement scales compute, not pickling.
SHARDED_CHUNK = 125


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _sharded_workload(model, n_sessions, seed=0):
    """Cache-hostile trace: i.i.d. uniform signals, ~every window unique."""
    rng = np.random.default_rng(seed)
    lo, hi = model.config.signal_lo, model.config.signal_hi
    streams = [
        lo + (hi - lo) * rng.random(
            (SHARDED_SAMPLES, model.config.n_channels)
        )
        for _ in range(n_sessions)
    ]
    return trace_from_streams(
        streams, seed=seed, chunking=SHARDED_CHUNK
    )


def _sustained_windows_per_sec(service, warm, trace, total_windows):
    """Warm-up pass over ``warm``, then a measured pass over ``trace``."""
    replay(service, warm)  # cold pass: open sessions, warm everything
    before = total_windows(service)
    start = time.perf_counter()
    replay(service, trace, open_sessions=False)
    elapsed = time.perf_counter() - start
    return (total_windows(service) - before) / elapsed


def _run_sharded_scaling(model, store_path, n_shards, n_sessions):
    """Sustained windows/s: 1 process vs. ``n_shards`` worker shards.

    The measured pass streams samples the warm-up never saw, so the
    decision cache misses on nearly every window: this measures compute
    scaling of the encode+search path, the regime a fleet is sized for.
    """
    config = StreamConfig(
        window=WINDOW,
        max_batch=512,
        max_wait=2 * n_sessions,
    )
    warm = _sharded_workload(model, n_sessions, seed=0)
    trace = _sharded_workload(model, n_sessions, seed=1)
    single = StreamingService(model, config)
    single_tp = _sustained_windows_per_sec(
        single, warm, trace, lambda s: s.total_windows
    )
    with ShardedStreamingService(
        store_path, config, n_shards=n_shards
    ) as service:
        sharded_tp = _sustained_windows_per_sec(
            service, warm, trace, lambda s: s.stats().n_windows
        )
        fleet = service.stats()
    return {
        "n_shards": n_shards,
        "n_sessions": n_sessions,
        "single_tp": single_tp,
        "sharded_tp": sharded_tp,
        "speedup": sharded_tp / single_tp,
        "fleet_windows": fleet.n_windows,
        "per_shard_windows": [s.n_windows for s in fleet.shards],
        "fleet_lines": fleet.describe(),
    }


def _render_sharded(model, rows) -> str:
    lines = [
        "Sharded streaming - multi-process scaling vs. one scheduler",
        f"  (D={model.config.dim}, W=5/stride 5, "
        f"{rows['n_sessions']} sessions, cache-hostile trace, "
        f"{_usable_cores()} usable cores)",
        f"  {'config':>12s} {'windows/s':>12s} {'speedup':>8s}",
        f"  {'1 process':>12s} {rows['single_tp']:>12,.0f} "
        f"{'1.0x':>8s}",
        f"  {str(rows['n_shards']) + ' shards':>12s} "
        f"{rows['sharded_tp']:>12,.0f} "
        f"{rows['speedup']:>7.1f}x",
        f"  per-shard windows: {rows['per_shard_windows']}",
        "  fleet telemetry (cache + journal/checkpoint columns):",
        *("  " + line for line in rows["fleet_lines"]),
    ]
    return "\n".join(lines)


@pytest.mark.skipif(
    _usable_cores() < 4,
    reason="sharded scaling assertion needs >= 4 usable cores",
)
def test_sharded_speedup_target(stream_workload, tmp_path_factory):
    """Acceptance: >= 2x sustained windows/s at 4 shards vs. the
    single-process scheduler, 100+ sessions, identical trace."""
    model, _ = stream_workload
    store = save_model(
        tmp_path_factory.mktemp("sharded-bench") / "model", model
    )
    rows = _run_sharded_scaling(
        model, store, n_shards=4, n_sessions=SHARDED_SESSIONS
    )
    publish("stream_sharded", _render_sharded(model, rows))
    assert rows["fleet_windows"] > 0
    assert rows["speedup"] >= 2.0, rows


# -- elastic operations: checkpointed respawn -------------------------------

ELASTIC_SESSIONS = 16
ELASTIC_SAMPLES = 2000  # per session; long enough to time journal replay
ELASTIC_CHUNK = 25


def _elastic_trace(model, n_sessions, samples, chunk, seed=3):
    """Cache-hostile trace (see :func:`_sharded_workload`)."""
    rng = np.random.default_rng(seed)
    lo, hi = model.config.signal_lo, model.config.signal_hi
    streams = [
        lo + (hi - lo) * rng.random((samples, model.config.n_channels))
        for _ in range(n_sessions)
    ]
    return trace_from_streams(streams, seed=seed, chunking=chunk)


def _run_checkpoint_respawn(model, store_path):
    """Respawn latency: full-journal replay vs. checkpoint + empty tail.

    One shard (the measurement is per-worker recovery, so it needs no
    extra cores) streams a long trace without draining, then is
    respawned twice from the *same* logical state: once with the whole
    journal to replay, once right after a checkpoint truncated it.
    The second respawn restores one snapshot blob instead of
    re-encoding every journaled ingest — the O(since-checkpoint)
    recovery bound the coordinator's periodic checkpoints buy.
    """
    config = StreamConfig(window=WINDOW, max_batch=64, max_wait=8)
    trace = _elastic_trace(
        model, ELASTIC_SESSIONS, ELASTIC_SAMPLES, ELASTIC_CHUNK
    )
    with ShardedStreamingService(
        store_path, config, n_shards=1
    ) as service:
        replay(service, trace, drain=False)
        journal_len = service.journal_length(0)
        journal_mb = service.journal_bytes(0) / 1e6
        start = time.perf_counter()
        service.respawn_shard(0)  # replays the full journal
        replay_s = time.perf_counter() - start
        ckpt_bytes = service.checkpoint_shard(0)
        start = time.perf_counter()
        service.respawn_shard(0)  # restores the blob, replays nothing
        restore_s = time.perf_counter() - start
        service.drain()
    return {
        "journal_len": journal_len,
        "journal_mb": journal_mb,
        "ckpt_bytes": ckpt_bytes,
        "replay_s": replay_s,
        "restore_s": restore_s,
        "speedup": replay_s / restore_s,
    }


def _render_elastic(model, respawn) -> str:
    lines = [
        "Elastic fleet - recovery costs",
        f"  (D={model.config.dim}, W=5/stride 5, cache-hostile trace, "
        f"{_usable_cores()} usable cores)",
        "  checkpointed respawn vs. full-journal replay "
        f"({ELASTIC_SESSIONS} sessions, 1 shard):",
        f"    journal: {respawn['journal_len']} commands, "
        f"{respawn['journal_mb']:.1f} MB; "
        f"checkpoint blob: {respawn['ckpt_bytes']:,} B",
        f"    full-journal respawn: {respawn['replay_s']:.3f} s",
        f"    checkpoint  respawn: {respawn['restore_s']:.3f} s   "
        f"({respawn['speedup']:.1f}x faster)",
    ]
    return "\n".join(lines)


def test_checkpointed_respawn_speedup(stream_workload, tmp_path_factory):
    """Acceptance: restoring a checkpoint beats replaying the full
    journal by >= 5x (single shard, so this holds on any core count)."""
    model, _ = stream_workload
    store = save_model(
        tmp_path_factory.mktemp("elastic-bench") / "model", model
    )
    respawn = _run_checkpoint_respawn(model, store)
    publish("stream_elastic", _render_elastic(model, respawn))
    assert respawn["journal_len"] > 0
    assert respawn["speedup"] >= 5.0, respawn


# -- network ingress: the SLO harness ---------------------------------------

INGRESS_STEADY_SESSIONS = 6
INGRESS_BURST_SESSIONS = 24
INGRESS_SAMPLES = 400


def _ingress_parity(result, model, config):
    """Digest of network decisions vs. in-process replay of the same
    accepted streams.  Byte equality or bust."""
    if not result.completed:
        return True, "no completed sessions"
    reference = StreamingService(model, config)
    expected = replay(
        reference, trace_from_streams(result.completed, seed=0)
    )
    got = parity_digest(result.decisions)
    want = parity_digest({sid: expected[sid] for sid in result.completed})
    return got == want, got[:16]


def _run_ingress_slo(model):
    """Steady phase + overload phase against a live TCP server.

    Latency stamps ride the wire (client ``perf_counter`` on each
    SAMPLES frame, echoed on the DECISION frames of the windows that
    chunk completed), so the percentiles are true ingest→decision wall
    latency over real sockets — scheduler queueing, coordinator
    round-trips, and network framing included.  In the overload phase
    most sessions arrive while earlier ones stream, against a server
    that admits no OPEN while any queued window has aged a tick: those
    OPENs are shed with retry-after, and the decisions of every
    *admitted* session must stay byte-identical to an in-process
    replay of exactly the streams that were accepted.
    """
    import asyncio

    from repro.stream import IngressConfig, IngressServer
    from repro.stream.workload import (
        WorkloadConfig,
        generate_workload,
        run_workload,
    )

    config = StreamConfig(window=WINDOW, max_batch=64, max_wait=4)
    phases = {}

    async def drive(ingress_config, workload_config, seed):
        service = StreamingService(model, config)
        server = IngressServer(service, config, ingress_config)
        host, port = await server.start("127.0.0.1", 0)
        scripts = generate_workload(workload_config, seed=seed)
        result = await run_workload(host, port, scripts)
        await server.stop()
        return result, server.stats

    # Steady phase: arrivals the fleet absorbs without shedding.
    result, stats = asyncio.run(
        drive(
            IngressConfig(),
            WorkloadConfig(
                n_sessions=INGRESS_STEADY_SESSIONS,
                n_channels=model.config.n_channels,
                samples_per_session=INGRESS_SAMPLES,
                burst_fraction=0.3,
                arrival_span_s=0.2,
            ),
            seed=11,
        )
    )
    hist = wall_histogram()
    hist.record_many(np.asarray(result.latencies))
    ok, digest = _ingress_parity(result, model, config)
    phases["steady"] = dict(
        result=result, stats=stats, hist=hist, parity=ok, digest=digest
    )

    # Overload: a quarter of the sessions open at t=0, the rest arrive
    # while paced earlier ones stream and their windows wait in the
    # queue, which is what the zero-tick queue-age watermark sheds on.
    result, stats = asyncio.run(
        drive(
            IngressConfig(shed_queue_age_ticks=0.0, retry_after_s=0.25),
            WorkloadConfig(
                n_sessions=INGRESS_BURST_SESSIONS,
                n_channels=model.config.n_channels,
                samples_per_session=INGRESS_SAMPLES,
                burst_fraction=0.25,
                pacing_s=0.01,
            ),
            seed=13,
        )
    )
    hist = wall_histogram()
    hist.record_many(np.asarray(result.latencies))
    ok, digest = _ingress_parity(result, model, config)
    phases["overload"] = dict(
        result=result, stats=stats, hist=hist, parity=ok, digest=digest
    )
    return phases


def _render_ingress(model, phases) -> str:
    lines = [
        "Network ingress - ingest->decision latency SLO over TCP",
        f"  (D={model.config.dim}, W=5/stride 5, framed wire protocol, "
        f"client-clock stamps, {_usable_cores()} usable cores)",
    ]
    for name, phase in phases.items():
        result, stats = phase["result"], phase["stats"]
        n_decisions = sum(len(d) for d in result.decisions.values())
        lines += [
            f"  {name} phase: "
            f"{len(result.completed)} sessions completed, "
            f"{len(result.rejected)} shed, "
            f"{len(result.aborted)} aborted, "
            f"{n_decisions} decisions",
            f"    latency: {format_percentiles(phase['hist'], 'ms')}",
            f"    accepted-session parity vs in-process replay: "
            f"{'PASS' if phase['parity'] else 'FAIL'} "
            f"[{phase['digest']}]",
            f"    server: {stats.describe()}",
        ]
    return "\n".join(lines)


def test_ingress_slo_harness(stream_workload):
    """Acceptance: the ingress harness publishes non-empty latency
    percentiles and shed counts; the overload phase sheds OPENs while
    accepted sessions stay byte-identical to in-process replay."""
    model, _ = stream_workload
    phases = _run_ingress_slo(model)
    publish("stream_ingress", _render_ingress(model, phases))
    for name, phase in phases.items():
        assert phase["parity"], f"{name}: network decisions diverged"
    assert phases["steady"]["hist"].count > 0
    assert phases["steady"]["result"].completed
    overload = phases["overload"]["result"]
    assert overload.rejected, "overload phase shed no sessions"
    assert overload.completed, "overload phase admitted no sessions"


ADAPT_SEGMENTS = 6
ADAPT_WINDOWS_PER_SEGMENT = 80
#: Per-segment attenuation on the worst electrode; the other channels
#: drift proportionally to their index, as when electrodes progressively
#: lose skin contact across a session and their envelopes collapse
#: toward the bottom quantisation levels.
ADAPT_DRIFT_PER_SEGMENT = 0.14


def _drift_gain(n_channels: int, segment: int) -> np.ndarray:
    grade = np.arange(1, n_channels + 1) / n_channels
    return 1.0 - ADAPT_DRIFT_PER_SEGMENT * segment * grade


def _adapt_workload(model, trials, seed=17):
    """Drifting gesture stream: window-aligned W-sample blocks whose
    channel gains worsen segment over segment.

    Blocks are drawn from gesture plateaus, so window ``i`` of the
    stream carries exactly one known gesture — ``truths[i]`` — and the
    non-overlapping ``WINDOW`` slicing keeps decision indices aligned
    with block indices.  Returns ``(stream, truths, segment_of)``.
    """
    rng = np.random.default_rng(seed)
    w = WINDOW.slice_samples
    pool = []
    for t in trials:
        env = t.envelope
        for start in range(len(env) // 4, len(env) - w, w):
            pool.append((env[start : start + w], t.gesture))
    blocks, truths, segment_of = [], [], []
    for seg in range(ADAPT_SEGMENTS):
        gain = _drift_gain(model.config.n_channels, seg)
        for _ in range(ADAPT_WINDOWS_PER_SEGMENT):
            block, label = pool[rng.integers(len(pool))]
            blocks.append(block * gain)
            truths.append(label)
            segment_of.append(seg)
    return np.concatenate(blocks, axis=0), truths, segment_of


def _run_adapt_pass(model, stream, truths, bystander, feedback):
    """One replay: frozen + adaptive tenants over the same drifted
    stream, plus a clean bystander; ground-truth feedback (when on)
    goes to the adaptive session only."""
    from repro.hdc import AdaptConfig

    config = StreamConfig(
        window=WINDOW,
        max_batch=64,
        max_wait=0,
        adapt=AdaptConfig(compact_every=128),
    )
    service = StreamingService(model, config)
    service.open_session("frozen")
    service.open_session("adaptive", adaptive=True)
    service.open_session("bystander")
    decisions = {"frozen": [], "adaptive": [], "bystander": []}
    w = WINDOW.slice_samples
    n_fed = 0
    for i in range(len(truths)):
        out = list(service.ingest("frozen", stream[i * w : (i + 1) * w]))
        out += service.ingest("adaptive", stream[i * w : (i + 1) * w])
        out += service.ingest("bystander", bystander[i * w : (i + 1) * w])
        for d in out:
            decisions[d.session_id].append(d)
            if feedback and d.session_id == "adaptive":
                service.feedback(
                    "adaptive", truths[d.index], index=d.index
                )
                n_fed += 1
    for d in service.drain():
        decisions[d.session_id].append(d)
    return decisions, n_fed


def _segment_accuracy(decisions, truths, segment_of):
    correct = [0] * ADAPT_SEGMENTS
    total = [0] * ADAPT_SEGMENTS
    for d in decisions:
        seg = segment_of[d.index]
        total[seg] += 1
        correct[seg] += int(d.raw_label == truths[d.index])
    return [c / max(t, 1) for c, t in zip(correct, total)]


def _hot_swap_gate(model, stream):
    """Republication through the multi-tenant store must cut over
    bit-exactly under the decision gate."""
    from repro.hdc import ModelStore

    w = WINDOW.slice_samples
    probe = np.stack([stream[i * w : (i + 1) * w] for i in range(32)])
    with tempfile.TemporaryDirectory() as tmp:
        with ModelStore(tmp) as store:
            store.publish("subject", model)
            version = store.hot_swap("subject", model, gate_windows=probe)
            same = store.load("subject").predict(probe) == model.predict(
                probe
            )
    return bool(same and version == 2), version


def _run_adaptation(model, trials):
    stream, truths, segment_of = _adapt_workload(model, trials)
    bystander, by_truths, _ = _adapt_workload(model, trials, seed=29)
    adapted, n_fed = _run_adapt_pass(
        model, stream, truths, bystander, feedback=True
    )
    silent, _ = _run_adapt_pass(
        model, stream, truths, bystander, feedback=False
    )
    from repro.stream import stream_bytes

    isolated = all(
        stream_bytes(adapted[sid]) == stream_bytes(silent[sid])
        for sid in ("frozen", "bystander")
    )
    hot_swap_ok, version = _hot_swap_gate(model, stream)
    return dict(
        frozen=_segment_accuracy(adapted["frozen"], truths, segment_of),
        adaptive=_segment_accuracy(
            adapted["adaptive"], truths, segment_of
        ),
        n_fed=n_fed,
        isolated=isolated,
        hot_swap_ok=hot_swap_ok,
        hot_swap_version=version,
    )


def _render_adapt(model, res) -> str:
    lines = [
        "Per-user adaptation under electrode drift - accuracy over time",
        f"  (D={model.config.dim}, {ADAPT_SEGMENTS} segments x "
        f"{ADAPT_WINDOWS_PER_SEGMENT} windows, channel-graded "
        f"electrode attenuation "
        f"-{ADAPT_DRIFT_PER_SEGMENT:.0%}/segment, "
        f"{res['n_fed']} ground-truth feedback updates)",
        "  segment   drift   frozen  adaptive   delta",
    ]
    for seg in range(ADAPT_SEGMENTS):
        f, a = res["frozen"][seg], res["adaptive"][seg]
        lines.append(
            f"  {seg:7d}  {-ADAPT_DRIFT_PER_SEGMENT * seg:+6.0%}  "
            f"{f:6.3f}  {a:8.3f}  {a - f:+6.3f}"
        )
    lines += [
        f"  final segment: frozen {res['frozen'][-1]:.3f} -> "
        f"adaptive {res['adaptive'][-1]:.3f}",
        f"  tenant isolation (frozen+bystander bytes identical under "
        f"neighbour feedback): "
        f"{'PASS' if res['isolated'] else 'FAIL'}",
        f"  hot-swap cutover (gated republication, version "
        f"{res['hot_swap_version']}): "
        f"{'PASS' if res['hot_swap_ok'] else 'FAIL'}",
    ]
    return "\n".join(lines)


def test_adaptation_recovers_drift(stream_workload):
    """Acceptance: under electrode drift the adaptive session beats the
    frozen one on the final segment, feedback never perturbs the frozen
    or bystander byte streams, and the store's hot-swap gate holds."""
    model, _ = stream_workload
    trials = generate_subject(EMGDatasetConfig(n_subjects=1), 0).trials
    res = _run_adaptation(model, trials)
    publish("stream_adapt", _render_adapt(model, res))
    assert res["isolated"], "neighbour feedback changed tenant bytes"
    assert res["hot_swap_ok"], "hot-swap cutover diverged"
    assert res["n_fed"] == ADAPT_SEGMENTS * ADAPT_WINDOWS_PER_SEGMENT
    assert res["adaptive"][-1] > res["frozen"][-1], (
        f"adaptation did not recover drift: "
        f"{res['adaptive'][-1]:.3f} <= {res['frozen'][-1]:.3f}"
    )


# -- small-batch fixed costs ------------------------------------------------

SMALL_BATCH_SIZES = (1, 5, 8, 32, 512)
#: Windows per queue item in the per-item stages: one 25-sample SAMPLES
#: frame of the paper's 500 Hz streams, as the emg_tcp open loop sends.
SMALL_BATCH_ITEM = 5


def _median_us(fn, reps):
    """Median microseconds of ``fn()`` over ``reps`` hot calls, after
    ``reps // 4`` untimed warm-up calls."""
    for _ in range(reps // 4):
        fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return 1e6 * times[len(times) // 2]


def _run_small_batch(model, envelope):
    """Hot fixed cost of each serving stage, by dispatch size.

    A dispatch of ``n`` windows is the one a ``max_wait=0`` service makes
    for one chunk of ``5n`` samples: one queue item of ``n`` windows.
    The queue-age record and ``Session.record`` rows run over 5-window
    items instead (``ceil(n / 5)`` of them), the shape of a batch that
    gathers many SAMPLES frames.  The two ``ingest`` rows time the whole
    call: on fresh uniform samples (every window misses the decision
    cache) and on one chunk served again (every window hits).
    """
    from repro.hdc import engine
    from repro.perf.streaming import tick_histogram
    from repro.stream import Session
    from repro.stream.scheduler import cache_keys

    encoder = model.encoder
    spatial = encoder.spatial
    key_dtype = np.min_scalar_type(model.config.n_levels - 1)
    protos = model.prototype_words
    config = StreamConfig(
        window=WINDOW, max_batch=max(SMALL_BATCH_SIZES), max_wait=0
    )
    n_channels = model.config.n_channels
    lo, hi = model.config.signal_lo, model.config.signal_hi
    rng = np.random.default_rng(29)
    rows: dict = {}
    for n in SMALL_BATCH_SIZES:
        reps = 400 if n <= 32 else 40
        chunk = envelope[: n * WINDOW.stride]
        windows = chunk.reshape(n, WINDOW.window_samples, n_channels)
        levels = spatial.quantize_batch(windows)
        queries = encoder.encode_levels_batch(levels).words
        labels = [model.labels[i] for i in engine.am_search(
            queries, protos)[0]]
        items = [
            (start, min(start + SMALL_BATCH_ITEM, n))
            for start in range(0, n, SMALL_BATCH_ITEM)
        ]
        sizes = [stop - start for start, stop in items]
        ticks = tick_histogram()
        session = Session("bench", WINDOW, n_channels)

        def record_ages():
            ticks.record_many([0] * len(items), sizes)

        def record_decisions():
            for start, stop in items:
                session.record(
                    labels[start:stop], 0, 0, 0, windows[start:stop]
                )

        service = StreamingService(model, config)
        service.open_session("hot")
        fresh = iter(
            lo + (hi - lo) * rng.random((reps + reps // 4, *chunk.shape))
        )
        rows[n] = {
            "quantise": _median_us(
                lambda: spatial.quantize_batch(windows), reps),
            "cache keys": _median_us(
                lambda: cache_keys(levels, key_dtype), reps),
            "encode": _median_us(
                lambda: encoder.encode_levels_batch(levels), reps),
            "AM search": _median_us(
                lambda: engine.am_search(queries, protos), reps),
            "queue-age record": _median_us(record_ages, reps),
            "Session.record": _median_us(record_decisions, reps),
            "windower push": _median_us(lambda: session.push(chunk), reps),
            "ingest, all misses": _median_us(
                lambda: service.ingest("hot", next(fresh)), reps),
            "ingest, all hits": _median_us(
                lambda: service.ingest("hot", chunk), reps),
        }
    return rows


def _render_small_batch(model, rows) -> str:
    sizes = list(rows)
    lines = [
        "Small-batch fixed costs - hot median us per call, by stage and "
        "dispatch size n (windows)",
        f"  (D={model.config.dim} EMG model, W=5/stride 5, max_wait=0, "
        f"{_usable_cores()} usable cores; per-item stages over "
        f"{SMALL_BATCH_ITEM}-window items)",
        f"  {'stage':<20s}" + "".join(f"{f'n={n}':>10s}" for n in sizes),
    ]
    for stage in rows[sizes[0]]:
        lines.append(
            f"  {stage:<20s}"
            + "".join(f"{rows[n][stage]:>10.1f}" for n in sizes)
        )
    lines.append(
        f"  {'us/window, misses':<20s}"
        + "".join(
            f"{rows[n]['ingest, all misses'] / n:>10.1f}" for n in sizes
        )
    )
    return "\n".join(lines)


def _main(argv=None) -> int:
    """Standalone smoke entry point: the CI ``--shards 4`` job."""
    parser = argparse.ArgumentParser(
        description="Sharded streaming throughput smoke"
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--sessions", type=int, default=SHARDED_SESSIONS)
    parser.add_argument("--dim", type=int, default=10_000)
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="run the elastic section (checkpointed respawn) instead "
        "of the scaling smoke",
    )
    parser.add_argument(
        "--ingress",
        action="store_true",
        help="run the network-ingress SLO harness (latency "
        "percentiles + admission-control shed counts) instead of "
        "the scaling smoke",
    )
    parser.add_argument(
        "--adapt",
        action="store_true",
        help="run the per-user adaptation harness (accuracy over "
        "time under electrode drift, tenant-isolation and hot-swap "
        "gates) instead of the scaling smoke",
    )
    parser.add_argument(
        "--small-batch",
        action="store_true",
        help="time each serving stage's hot fixed cost at 1 to 512 "
        "windows per dispatch (no gate) instead of the scaling smoke",
    )
    args = parser.parse_args(argv)
    cores = _usable_cores()
    from repro.emg import subject_windows
    from repro.hdc import BatchHDClassifier, HDClassifierConfig

    if (
        not (args.elastic or args.ingress or args.adapt or args.small_batch)
        and cores < args.shards
    ):
        print(
            f"SKIP: sharded scaling needs >= {args.shards} usable "
            f"cores, found {cores}"
        )
        return 0
    subject = generate_subject(EMGDatasetConfig(n_subjects=1), 0)
    (train_w, train_l), _ = subject_windows(
        subject, WindowConfig(window_samples=5, stride_samples=25)
    )
    model = BatchHDClassifier(HDClassifierConfig(dim=args.dim))
    model.fit(np.asarray(train_w), train_l)
    if args.small_batch:
        envelope = np.concatenate(
            [trial.envelope for trial in subject.trials]
        )
        rows = _run_small_batch(model, envelope)
        publish("stream_small_batch", _render_small_batch(model, rows))
        return 0
    if args.adapt:
        res = _run_adaptation(model, subject.trials)
        publish("stream_adapt", _render_adapt(model, res))
        if not res["isolated"]:
            print("FAIL: neighbour feedback changed tenant bytes")
            return 1
        if not res["hot_swap_ok"]:
            print("FAIL: hot-swap cutover diverged")
            return 1
        if res["adaptive"][-1] <= res["frozen"][-1]:
            print(
                f"FAIL: adaptation did not recover drift "
                f"({res['adaptive'][-1]:.3f} <= {res['frozen'][-1]:.3f})"
            )
            return 1
        return 0
    if args.ingress:
        phases = _run_ingress_slo(model)
        publish("stream_ingress", _render_ingress(model, phases))
        failed = [
            name
            for name, phase in phases.items()
            if not phase["parity"]
        ]
        if failed:
            print(f"FAIL: network decisions diverged in {failed}")
            return 1
        if phases["steady"]["hist"].count == 0:
            print("FAIL: steady phase produced no latency samples")
            return 1
        if not phases["overload"]["result"].rejected:
            print("FAIL: overload phase shed no sessions")
            return 1
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        store = save_model(f"{tmp}/model", model)
        if args.elastic:
            respawn = _run_checkpoint_respawn(model, store)
            publish("stream_elastic", _render_elastic(model, respawn))
            if respawn["speedup"] < 5.0:
                print(
                    f"FAIL: checkpointed respawn "
                    f"{respawn['speedup']:.2f}x < 5.0x"
                )
                return 1
            return 0
        rows = _run_sharded_scaling(
            model, store, n_shards=args.shards, n_sessions=args.sessions
        )
    rendered = _render_sharded(model, rows)
    publish("stream_sharded", rendered)
    if rows["speedup"] < 2.0:
        print(f"FAIL: speedup {rows['speedup']:.2f}x < 2.0x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main())
