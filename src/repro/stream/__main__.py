"""Streaming-service demo CLI.

``python -m repro.stream`` trains (or loads from the model store) a
per-subject EMG classifier, opens N concurrent sessions, streams the
subject's trials through them as one deterministic replay trace, and
reports throughput, accuracy, batch statistics, and simulated on-device
latency/energy.  ``--shards N`` serves the identical trace through the
multi-process :class:`~repro.stream.sharded.ShardedStreamingService`
instead (N workers over one memory-mapped model store) and prints the
merged fleet telemetry.  ``--checkpoint-interval N`` checkpoints each
worker every N journaled commands (recovery replays only the short
tail); ``--rescale N`` live-rescales the fleet to N workers halfway
through the trace.  The simulated device lines come from the device
model alone: a run's energy is its window count times the per-window
energy.

``--serve HOST:PORT`` starts the network ingress front door
(:mod:`repro.stream.ingress`) over the configured service and serves
until interrupted; ``--client HOST:PORT`` drives a seeded synthetic
workload (:mod:`repro.stream.workload`) against a running server and
reports ingest→decision latency percentiles plus shed counts.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..emg import EMGDatasetConfig, WindowConfig, generate_subject
from ..emg.windows import paper_split, windows_from_trials
from ..hdc import AdaptConfig, BatchHDClassifier, HDClassifierConfig
from ..hdc.serialize import load_model, save_model
from ..perf.streaming import DevicePerfModel, device_model
from ..pulp.soc import soc_by_name
from .replay import ReplayTrace, replay, trace_from_streams
from .scheduler import StreamConfig, StreamingService
from .sharded import ShardedStreamingService

_DEVICES = {
    "pulp4": ("pulpv3", 4),
    "pulp1": ("pulpv3", 1),
    "wolf8": ("wolf", 8),
    "m4": ("cortex_m4", 1),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Multi-session streaming HD inference demo",
    )
    parser.add_argument("--sessions", type=int, default=8,
                        help="concurrent streams (default 8)")
    parser.add_argument("--shards", type=int, default=0,
                        help="serve through N worker processes "
                             "(default 0 = single-process scheduler)")
    parser.add_argument("--checkpoint-interval", type=int, default=0,
                        help="with --shards: checkpoint each worker "
                             "every N journaled commands (default 0 = "
                             "journal-only recovery)")
    parser.add_argument("--rescale", type=int, default=0, metavar="N",
                        help="with --shards: live-rescale the fleet to "
                             "N workers halfway through the trace")
    parser.add_argument("--dim", type=int, default=10_000,
                        help="hypervector dimension (default 10000)")
    parser.add_argument("--subject", type=int, default=0,
                        help="synthetic subject id (default 0)")
    parser.add_argument("--repetitions", type=int, default=10,
                        help="trial repetitions per gesture (default 10)")
    parser.add_argument("--chunk", type=int, default=25,
                        help="samples per ingest call (default 25 = 50 ms)")
    parser.add_argument("--max-batch", type=int, default=256,
                        help="scheduler batch cap (default 256)")
    parser.add_argument("--max-wait", type=int, default=8,
                        help="ticks a ready window may wait (default 8)")
    parser.add_argument("--smooth", type=int, default=5,
                        help="majority-vote smoothing length (default 5)")
    parser.add_argument("--model", type=str, default=None,
                        help="load the model store instead of training")
    parser.add_argument("--extra-model", action="append", default=None,
                        metavar="ID=PATH",
                        help="serve an additional named model beside "
                             "the default one (repeatable); sessions "
                             "select it by model id")
    parser.add_argument("--adaptive", action="store_true",
                        help="open demo sessions with per-user "
                             "adaptation and feed ground-truth labels "
                             "back after every decision")
    parser.add_argument("--save-model", type=str, default=None,
                        help="write the trained model store here")
    parser.add_argument("--device", choices=[*_DEVICES, "none"],
                        default="pulp4",
                        help="simulated device for telemetry (default pulp4)")
    parser.add_argument("--serve", type=str, default=None,
                        metavar="HOST:PORT",
                        help="start the network ingress server "
                             "(port 0 picks a free port)")
    parser.add_argument("--client", type=str, default=None,
                        metavar="HOST:PORT",
                        help="drive a seeded workload against a "
                             "running ingress server")
    parser.add_argument("--channels", type=int, default=4,
                        help="with --client: channels per sample "
                             "(default 4; must match the server model)")
    parser.add_argument("--client-samples", type=int, default=1000,
                        help="with --client: samples per session "
                             "(default 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    return parser


def _parse_hostport(spec: str) -> Tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port:
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def _train_model(
    dim: int, subject_id: int, repetitions: int
) -> BatchHDClassifier:
    dataset = EMGDatasetConfig(
        n_subjects=subject_id + 1, n_repetitions=repetitions
    )
    subject = generate_subject(dataset, subject_id)
    window = WindowConfig()
    train_trials, _ = paper_split(subject)
    train_w, train_l = windows_from_trials(train_trials, window)
    model = BatchHDClassifier(HDClassifierConfig.emg(dim=dim))
    model.fit(np.asarray(train_w), train_l)
    return model


def _build_workload(
    trials: Sequence,
    n_sessions: int,
    window: WindowConfig,
    sample_rate_hz: int,
    chunk: int,
    seed: int = 0,
) -> tuple:
    """Deterministic replay trace + per-window ground truth.

    Session ``s`` streams trials ``s, s + N, s + 2N, ...`` back to back;
    the trace interleaves chunks from all sessions (seeded), so batches
    genuinely multiplex sessions.  Truth follows the offline slicing
    over each concatenated stream; a window is labelled by the trial
    owning its first sample.
    """
    streams: List[np.ndarray] = []
    truths: List[List[int]] = []
    for s in range(n_sessions):
        mine = [trials[i] for i in range(s, len(trials), n_sessions)] or [
            trials[s % len(trials)]
        ]
        streams.append(np.concatenate([t.envelope for t in mine]))
        bounds = np.cumsum([t.envelope.shape[0] for t in mine])
        start = int(round(window.skip_onset_s * sample_rate_hz))
        truth: List[int] = []
        pos = start
        while pos + window.slice_samples <= streams[-1].shape[0]:
            truth.append(mine[int(np.searchsorted(bounds, pos, "right"))]
                         .gesture)
            pos += window.stride
        truths.append(truth)
    trace = trace_from_streams(streams, seed=seed, chunking=chunk)
    return trace, truths


def _accuracy(
    per_session: Dict, truths: List[List[int]]
) -> tuple:
    raw_hits = smooth_hits = total = 0
    for sid, decisions in per_session.items():
        truth = truths[sid]
        for decision in decisions:
            total += 1
            raw_hits += decision.raw_label == truth[decision.index]
            smooth_hits += decision.label == truth[decision.index]
    if not total:
        return 0.0, 0.0
    return raw_hits / total, smooth_hits / total


def _parse_extra_models(specs: Optional[Sequence[str]]) -> Dict[str, str]:
    extra: Dict[str, str] = {}
    for spec in specs or []:
        model_id, _, path = spec.partition("=")
        if not model_id or not path:
            raise SystemExit(f"expected ID=PATH, got {spec!r}")
        extra[model_id] = path
    return extra


def _replay_adaptive(
    service, trace: ReplayTrace, truths, actions: Optional[Dict] = None
) -> tuple:
    """Replay with ground-truth feedback folded back per decision.

    Works against both service flavours (they share ``open_session`` /
    ``ingest`` / ``feedback``); feedback always names the decision's
    explicit index, so it is batching-independent.  ``actions`` maps
    an event index to a callable run with the service after that
    event, as in :func:`~repro.stream.replay.replay`; the decisions it
    returns get feedback too.  Returns ``(per_session, n_applied)``.
    """
    per_session: Dict = {}
    for sid in trace.session_ids:
        service.open_session(sid, adaptive=True)
        per_session[sid] = []
    applied = 0
    for position, event in enumerate(trace.events):
        decisions = service.ingest(event.session_id, event.samples)
        if actions and position in actions:
            decisions += actions[position](service) or []
        for decision in decisions:
            per_session[decision.session_id].append(decision)
            applied += service.feedback(
                decision.session_id,
                truths[decision.session_id][decision.index],
                index=decision.index,
            )
    for decision in service.drain():
        per_session[decision.session_id].append(decision)
    for decisions in per_session.values():
        decisions.sort(key=lambda d: d.index)
    return per_session, applied


def _device_lines(device: Optional[DevicePerfModel], n_windows: int):
    if device is None:
        return []
    return [
        f"simulated device    : {device.name} @ {device.f_mhz:.2f} MHz"
        f" ({'meets' if device.meets_deadline else 'MISSES'}"
        f" the {device.deadline_ms:.0f} ms deadline)",
        f"  per decision      : {device.cycles_per_window:,} cycles, "
        f"{device.window_latency_ms:.2f} ms, "
        f"{device.window_energy_uj:.1f} uJ",
        f"  whole run         : "
        f"{n_windows * device.window_energy_uj / 1e3:.2f} mJ across "
        f"{n_windows} decisions",
    ]


def _run_single(
    model: BatchHDClassifier,
    config: StreamConfig,
    trace: ReplayTrace,
    truths: List[List[int]],
    device: Optional[DevicePerfModel],
    adaptive: bool = False,
) -> List[str]:
    service = StreamingService(model, config)
    t0 = time.perf_counter()
    n_applied = 0
    if adaptive:
        per_session, n_applied = _replay_adaptive(service, trace, truths)
    else:
        per_session = replay(service, trace)
    wall = time.perf_counter() - t0
    n_windows = service.total_windows
    n_batches = service.total_batches
    raw_acc, smooth_acc = _accuracy(per_session, truths)
    adapt_lines = (
        [f"adaptation          : {n_applied} feedback updates folded "
         f"into per-session deltas"]
        if adaptive
        else []
    )
    lines = adapt_lines + [
        f"sessions            : {len(service.sessions)}",
        f"windows classified  : {n_windows}",
        f"dispatch batches    : {n_batches} "
        f"(mean {n_windows / max(n_batches, 1):.1f} windows/batch)",
        f"host wall-clock     : {wall:.3f} s "
        f"({n_windows / wall:,.0f} windows/s sustained)"
        if wall > 0 else "host wall-clock     : <1 ms",
        f"accuracy            : raw {raw_acc:.3f} / "
        f"smoothed {smooth_acc:.3f} "
        f"(majority of {config.smooth})",
    ]
    return lines + _device_lines(device, n_windows)


def _run_sharded(
    model_path: str,
    n_shards: int,
    config: StreamConfig,
    trace: ReplayTrace,
    truths: List[List[int]],
    device: Optional[DevicePerfModel],
    checkpoint_interval: int = 0,
    rescale_to: int = 0,
    adaptive: bool = False,
) -> List[str]:
    actions = (
        {trace.n_events // 2: lambda s: s.rescale(rescale_to)}
        if rescale_to
        else None
    )
    n_applied = 0
    with ShardedStreamingService(
        model_path,
        config,
        n_shards=n_shards,
        checkpoint_interval=checkpoint_interval or None,
    ) as service:
        t0 = time.perf_counter()
        if adaptive:
            per_session, n_applied = _replay_adaptive(
                service, trace, truths, actions
            )
        else:
            per_session = replay(service, trace, actions=actions)
        wall = time.perf_counter() - t0
        fleet = service.stats()
        final_shards = service.n_shards
    raw_acc, smooth_acc = _accuracy(per_session, truths)
    shard_note = (
        f"{n_shards} worker processes"
        if final_shards == n_shards
        else f"{n_shards} -> {final_shards} worker processes"
    )
    adapt_lines = (
        [f"adaptation          : {n_applied} feedback updates folded "
         f"into per-session deltas"]
        if adaptive
        else []
    )
    lines = adapt_lines + [
        f"shards              : {shard_note} (mmap'd model store)",
        f"sessions            : {fleet.n_sessions}",
        f"windows classified  : {fleet.n_windows}",
        f"dispatch batches    : {fleet.n_batches} "
        f"(mean {fleet.mean_batch:.1f} windows/batch, "
        f"{fleet.hit_rate:.0%} cache hits)",
        f"host wall-clock     : {wall:.3f} s "
        f"({fleet.n_windows / wall:,.0f} windows/s sustained)"
        if wall > 0 else "host wall-clock     : <1 ms",
        f"accuracy            : raw {raw_acc:.3f} / "
        f"smoothed {smooth_acc:.3f} "
        f"(majority of {config.smooth})",
        "per-shard fleet telemetry:",
        *("  " + line for line in fleet.describe()),
    ]
    return lines + _device_lines(device, fleet.n_windows)


def run_demo(args: argparse.Namespace) -> int:
    if args.model:
        model = load_model(args.model)
        print(f"loaded model store {args.model} "
              f"(dim={model.config.dim}, classes={list(model.labels)})")
    else:
        model = _train_model(args.dim, args.subject, args.repetitions)
        print(f"trained subject {args.subject} at dim={args.dim}")
    if args.save_model:
        path = save_model(args.save_model, model)
        print(f"saved model store -> {path}")

    device: Optional[DevicePerfModel] = None
    if args.device != "none":
        soc_name, n_cores = _DEVICES[args.device]
        device = device_model(
            soc_by_name(soc_name), n_cores, model.config.dim
        )

    config = StreamConfig(
        window=WindowConfig(),
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        smooth=args.smooth,
        # The demo labels decisions as they come back from the service;
        # over the sharded front end delivery is pipelined, so decided
        # windows must stay in the feedback buffer until the coordinator
        # has seen them.  Size it to cover the delivery lag.
        adapt=AdaptConfig(feedback_window=4096),
    )
    dataset = EMGDatasetConfig(
        n_subjects=args.subject + 1, n_repetitions=args.repetitions
    )
    trials = generate_subject(dataset, args.subject).trials
    trace, truths = _build_workload(
        trials, args.sessions, config.window, config.sample_rate_hz,
        args.chunk,
    )
    if args.shards > 0:
        # Sharded workers rebuild from the store; without --model,
        # persist the freshly trained model to a throwaway store.
        with tempfile.TemporaryDirectory() as tmp:
            model_path = args.model or str(
                save_model(f"{tmp}/model", model)
            )
            print("\n".join(_run_sharded(
                model_path, args.shards, config, trace, truths, device,
                checkpoint_interval=args.checkpoint_interval,
                rescale_to=args.rescale,
                adaptive=args.adaptive,
            )))
    else:
        print("\n".join(_run_single(
            model, config, trace, truths, device,
            adaptive=args.adaptive,
        )))
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Start the ingress front door and serve until interrupted."""
    from .ingress import IngressServer

    host, port = _parse_hostport(args.serve)
    if args.model:
        model = load_model(args.model)
    else:
        model = _train_model(args.dim, args.subject, args.repetitions)
        print(f"trained subject {args.subject} at dim={args.dim}")
    config = StreamConfig(
        window=WindowConfig(),
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        smooth=args.smooth,
    )

    async def serve(service) -> None:
        server = IngressServer(service, config)
        bound_host, bound_port = await server.start(host, port)
        print(
            f"ingress serving on {bound_host}:{bound_port} "
            f"({'sharded x' + str(args.shards) if args.shards else 'single'}"
            f" service); ctrl-c to stop",
            flush=True,
        )
        try:
            while True:
                await asyncio.sleep(3600)
        finally:
            await server.stop()
            print(f"ingress stats: {server.stats.describe()}")

    extra = _parse_extra_models(args.extra_model)
    if extra:
        print(f"extra models: {', '.join(sorted(extra))} "
              f"(clients select with OPEN2 model ids)")
    try:
        if args.shards > 0:
            with tempfile.TemporaryDirectory() as tmp:
                model_path = args.model or str(
                    save_model(f"{tmp}/model", model)
                )
                with ShardedStreamingService(
                    model_path,
                    config,
                    n_shards=args.shards,
                    models=extra or None,
                ) as service:
                    asyncio.run(serve(service))
        else:
            asyncio.run(serve(StreamingService(
                model,
                config,
                models={
                    mid: load_model(path) for mid, path in extra.items()
                },
            )))
    except KeyboardInterrupt:
        pass
    return 0


def run_client(args: argparse.Namespace) -> int:
    """Drive a seeded workload against a live ingress server."""
    from .workload import WorkloadConfig, generate_workload, run_workload

    host, port = _parse_hostport(args.client)
    scripts = generate_workload(
        WorkloadConfig(
            n_sessions=args.sessions,
            n_channels=args.channels,
            samples_per_session=args.client_samples,
        ),
        seed=args.seed,
    )
    result = asyncio.run(run_workload(host, port, scripts))
    lines = [
        f"sessions            : {len(scripts)} driven, "
        f"{len(result.completed)} completed, "
        f"{len(result.rejected)} shed, {len(result.aborted)} aborted",
        f"decisions observed  : "
        f"{sum(len(d) for d in result.decisions.values())}",
    ]
    if result.latencies:
        p50, p95, p99 = np.percentile(result.latencies, [50, 95, 99])
        lines.append(
            f"ingest->decision    : p50 {p50 * 1e3:.2f} ms / "
            f"p95 {p95 * 1e3:.2f} ms / p99 {p99 * 1e3:.2f} ms "
            f"({len(result.latencies)} stamped decisions)"
        )
    print("\n".join(lines))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.serve:
        return run_serve(args)
    if args.client:
        return run_client(args)
    return run_demo(args)


if __name__ == "__main__":
    sys.exit(main())
