"""Timing shims around the public entry points of each layer.

The traced run replaces named public functions and methods of
``repro.stream``, ``repro.hdc``, ``repro.kernels`` and ``repro.pulp``
with wrappers that time every call; nothing under ``src/`` changes.
A span's *self* time is its duration minus the durations of the spans
it called (tracked per thread: the ingress server decodes frames on
its event loop while a driver thread runs the scheduler).
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List

import common  # also puts src/ on sys.path


class Tracer:
    """Span aggregates for one process: inclusive and self seconds,
    call counts, item counts, and optional per-call durations."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []
        self.reset()

    def reset(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        #: (session id, decision index) -> seconds of the ingest call
        #: that returned the decision (filled when ``join_decisions``).
        self.decision_ingest: Dict[tuple, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *, keep=False, items=None, after=None,
             when=None):
        """Wrap ``fn`` so each call records one span.

        ``name`` is a string or a function of the call's arguments;
        ``keep`` stores every duration; ``items(result)`` counts work
        items; ``after(seconds, args, result)`` sees each finished call;
        ``when()`` returning False skips recording for that call.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
            label = name(*args) if callable(name) else name
            tracer.total[label] += seconds
            tracer.self_s[label] += seconds - frame[0]
            tracer.calls[label] += 1
            if keep:
                tracer.durations[label].append(seconds)
            if items is not None:
                tracer.items[label] += items(result)
            if after is not None:
                after(seconds, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name, **options) -> None:
        """Replace ``owner.attr`` with a span wrapper (undone by
        :meth:`uninstall`); class- and static methods keep their kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else None
        original = getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = self.span(name, raw.__func__, **options)
            setattr(owner, attr, classmethod(wrapped))
        else:
            setattr(owner, attr, self.span(name, original, **options))
        restore = raw if raw is not None else original
        self._undo.append(lambda: setattr(owner, attr, restore))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def aggregates(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_s),
            "calls": dict(self.calls),
            "items": dict(self.items),
        }


def install_serving(tracer: Tracer, join_decisions: bool = False) -> None:
    """Shims on the scheduler, session, encoder and engine entry points."""
    from repro.hdc import engine
    from repro.hdc.encoder import (
        SpatialEncoder,
        TemporalEncoder,
        WindowEncoder,
    )
    from repro.stream import Session, StreamingService

    local = threading.local()

    def record_decisions(seconds, args, decisions):
        for decision in decisions:
            tracer.decision_ingest[
                (decision.session_id, decision.index)
            ] = seconds

    tracer.patch(
        StreamingService, "ingest", "scheduler.ingest", keep=True,
        after=record_decisions if join_decisions else None,
    )
    tracer.patch(StreamingService, "drain", "scheduler.drain")
    tracer.patch(Session, "push", "windower.push")
    tracer.patch(
        SpatialEncoder, "quantize_batch", "encoder.quantize",
    )
    tracer.patch(WindowEncoder, "encode_levels_batch", "encoder.encode")
    tracer.patch(WindowEncoder, "encode_batch", "encoder.encode")

    # The window majority that follows ngram_words is the temporal
    # bundle; the channel majority inside spatial encode is not.
    def mark_temporal(seconds, args, result):
        local.pending = True

    def temporal_pending():
        if getattr(local, "pending", False):
            local.pending = False
            return True
        return False

    tracer.patch(
        TemporalEncoder, "ngram_words", "encoder.ngram",
        after=mark_temporal,
    )
    tracer.patch(
        engine, "majority_default_tie", "encoder.bundle",
        when=temporal_pending,
    )
    tracer.patch(engine, "am_search", "engine.am_search")


def install_wire(tracer: Tracer) -> None:
    """Server-side shims on frame decode and encode."""
    from repro.stream import ingress
    from repro.stream.wire import FrameDecoder

    tracer.patch(FrameDecoder, "feed", "wire.decode", items=len)
    tracer.patch(ingress, "encode_frame", "wire.encode")


def install_fleet(tracer: Tracer, dump_dir: str) -> None:
    """Coordinator shims, plus a per-worker dump hook.

    Shard workers are forked after these shims are in place, so they
    inherit them.  A worker computes its stats reply with
    ``StreamStats.collect``; the hook writes the worker's span
    aggregates (and its spatial row-cache counters) to
    ``dump_dir/worker-<pid>.json`` at that point and starts afresh.
    """
    from repro.perf.streaming import StreamStats
    from repro.stream import ShardedStreamingService

    tracer.patch(ShardedStreamingService, "ingest", "sharded.ingest")
    tracer.patch(ShardedStreamingService, "drain", "sharded.drain")
    original = StreamStats.__dict__["collect"].__func__

    def collect(cls, service, shard=None):
        stats = original(cls, service, shard)
        spatial = service.model.encoder.spatial
        data = tracer.aggregates()
        data["row_hits"] = spatial.row_cache_hits
        data["row_misses"] = spatial.row_cache_misses
        data["ingest_s"] = tracer.durations.get("scheduler.ingest", [])
        path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        tracer.reset()
        return stats

    StreamStats.collect = classmethod(collect)
    tracer._undo.append(
        lambda: setattr(StreamStats, "collect", classmethod(original))
    )


def install_iss(tracer: Tracer) -> None:
    """Shims on the batched chain driver and the lockstep engine."""
    from repro.kernels import HDChainSimulator
    from repro.pulp.lockstep import LockstepSession

    tracer.patch(
        HDChainSimulator, "run_window_levels_batch", "chain.batch"
    )
    tracer.patch(
        LockstepSession, "run",
        lambda session, program, *rest: (
            "lockstep.am" if program.name.startswith("am")
            else "lockstep.encode"
        ),
    )


def merge(aggregates: List[dict]) -> dict:
    """Sum span aggregates from several processes."""
    out: dict = {"total": {}, "self": {}, "calls": {}, "items": {}}
    for agg in aggregates:
        for key in out:
            for name, value in agg.get(key, {}).items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def serving_layers(agg: dict, n_windows: int) -> Dict[str, float]:
    """Encoder / engine / scheduler / windower metrics from aggregates."""
    total, self_s, calls = agg["total"], agg["self"], agg["calls"]
    per_window = 1e6 / max(n_windows, 1)
    out = {
        "encoder.quantize_us_per_window":
            total.get("encoder.quantize", 0.0) * per_window,
        "encoder.spatial_us_per_window":
            self_s.get("encoder.encode", 0.0) * per_window,
        "encoder.temporal_us_per_window": (
            total.get("encoder.ngram", 0.0)
            + total.get("encoder.bundle", 0.0)
        ) * per_window,
        "engine.am_search_us_per_window":
            total.get("engine.am_search", 0.0) * per_window,
        "scheduler.self_us_per_window": (
            self_s.get("scheduler.ingest", 0.0)
            + self_s.get("scheduler.drain", 0.0)
        ) * per_window,
    }
    pushes = calls.get("windower.push", 0)
    if pushes:
        out["windower.push_us_per_chunk"] = (
            1e6 * total["windower.push"] / pushes
        )
    return out


def ingest_percentiles(tracer: Tracer) -> Dict[str, float]:
    durations = tracer.durations.get("scheduler.ingest", [])
    if not durations:
        return {}
    return {
        "scheduler.ingest_ms_p50": 1e3 * common.percentile(durations, 50),
        "scheduler.ingest_ms_p95": 1e3 * common.percentile(durations, 95),
    }


def histogram_delta(before, after):
    """Counts recorded into a LatencyHistogram between two copies."""
    if after is None:
        return None
    delta = after.copy()
    if before is not None:
        delta.counts -= before.counts
        delta.zeros -= before.zeros
    return delta


def scheduler_counters(before, after) -> Dict[str, float]:
    """Batch size, queue age and cache hit share between two
    ``StreamStats`` snapshots (or merged ``FleetStats``)."""
    windows = after.n_windows - before.n_windows
    batches = after.n_batches - before.n_batches
    hits = after.cache_hits - before.cache_hits
    misses = after.cache_misses - before.cache_misses
    ticks = histogram_delta(
        before.queue_age_ticks_hist, after.queue_age_ticks_hist
    )
    return {
        "scheduler.batch_windows_mean": windows / max(batches, 1),
        "scheduler.queue_age_ticks_p95": (
            ticks.percentile(95.0) if ticks is not None else 0.0
        ),
        "scheduler.cache_hit_frac": hits / max(hits + misses, 1),
    }


def layer_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric of BENCHMARK.json with its unit; a layer
    the workload bypasses reads 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in common.metric_units("per_layer").items()
    }


def load_worker_dumps(dump_dir: str) -> List[dict]:
    dumps = []
    for entry in sorted(os.listdir(dump_dir)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            with open(os.path.join(dump_dir, entry)) as fh:
                dumps.append(json.load(fh))
    return dumps


def remove_worker_dumps(dump_dir: str) -> None:
    for entry in os.listdir(dump_dir):
        if entry.startswith("worker-") and entry.endswith(".json"):
            os.remove(os.path.join(dump_dir, entry))


def busy_frac(agg: dict, top_spans, wall_s: float) -> float:
    """Share of ``wall_s`` covered by the top-level spans."""
    return sum(agg["total"].get(name, 0.0) for name in top_spans) / wall_s
