"""Multi-session streaming inference over the packed HD engine.

The paper's deployment scenario is *continuous* gesture recognition: a
sensor stream, sliding windows, one decision per 10 ms window on a
low-power device.  This package is that serving layer, scaled out:

* :class:`~repro.stream.windower.StreamWindower` — ring-buffered
  incremental windowing, byte-identical to the offline
  :mod:`repro.emg.windows` slicing for any chunking of the stream;
* :class:`~repro.stream.session.Session` /
  :class:`~repro.stream.session.MajorityVoteSmoother` — per-stream state
  and the paper's temporal smoothing of consecutive decisions;
* :class:`~repro.stream.scheduler.StreamingService` — the batching
  scheduler: ready windows from all sessions coalesce into single
  packed encode + AM-search passes with ``max_batch`` / ``max_wait``
  backpressure;
* telemetry — lifetime counters and a queue-age histogram in ingest
  ticks only, merged across shards via :mod:`repro.perf.streaming`;
  no decision or batch log is kept, since ``ingest`` / ``pump`` /
  ``drain`` return every decision;
* :class:`~repro.stream.sharded.ShardedStreamingService` — the
  multi-process front end: sessions routed by consistent hash across N
  worker shards, each running its own scheduler against a read-only
  memory-mapped model store, ingest chunks crossing the worker pipes
  as raw float64 bytes, with checkpoint-bounded journal respawn, live
  session migration,
  :meth:`~repro.stream.sharded.ShardedStreamingService.rescale`, and
  fleet-wide telemetry;
* the snapshot protocol — every stateful class in the serving path
  (windower, smoother, session, scheduler) carries ``snapshot()`` /
  ``restore()`` that round-trip byte-exactly through the versioned
  envelope in :mod:`repro.hdc.serialize`, which is what makes
  checkpoints, migration, and resharding possible;
* :mod:`~repro.stream.replay` — seedable deterministic traces and the
  differential parity harness that pins the sharded service bit-exactly
  to the single-process one;
* :mod:`~repro.stream.wire` / :mod:`~repro.stream.ingress` — the
  network front door: a versioned length-prefixed frame protocol and an
  asyncio TCP server multiplexing client connections onto either
  service, with credit-based flow control, admission control with load
  shedding, and client-clock latency stamping;
* :mod:`~repro.stream.workload` — seeded synthetic network workloads
  (bursty arrivals, session churn, ragged chunking, slow clients) for
  the SLO harness in ``benchmarks/bench_stream.py --ingress``.

Models come from the versioned store (:mod:`repro.hdc.serialize`);
serving never retrains the *shared* model — but a session opened with
``adaptive=True`` carries a private copy-on-write prototype delta
(:class:`~repro.hdc.online.SessionDelta`) fed by ground-truth feedback
(``StreamingService.feedback`` / the FEEDBACK wire frame), and a
service can host several models side by side (``models=...`` +
``open_session(..., model_id=...)``) with gated bit-exact hot-swap
(``swap_model``).  ``python -m repro.stream`` runs a synthetic-EMG
demo (``--shards N`` for the multi-process front end);
``--serve HOST:PORT`` / ``--client HOST:PORT`` run the network ingress
server and a workload-driving client.
"""

import importlib
import sys
import types

from .scheduler import StreamConfig, StreamingService
from .session import Decision, MajorityVoteSmoother, Session
from .sharded import (
    ShardCrashError,
    ShardError,
    ShardedStreamingService,
    session_key_bytes,
    shard_for,
)
from .windower import StreamWindower
from .wire import (
    PROTOCOL_VERSION,
    Feedback,
    FeedbackOk,
    FrameDecoder,
    WireError,
    encode_frame,
)

#: Names imported on first use (PEP 562): the asyncio network front
#: door and the replay/workload harnesses, which a process serving
#: in-process never runs.
_LAZY = {
    "IngressClient": "ingress",
    "IngressConfig": "ingress",
    "IngressServer": "ingress",
    "IngressStats": "ingress",
    "ReplayTrace": "replay",
    "TraceEvent": "replay",
    "decision_records": "replay",
    "parity_digest": "replay",
    "replay": "replay",
    "stream_bytes": "replay",
    "synthetic_trace": "replay",
    "trace_from_streams": "replay",
    "WorkloadConfig": "workload",
    "generate_workload": "workload",
    "run_workload": "workload",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Importing the ``replay`` submodule binds it on the package under
    its own name; this keeps the package's ``replay`` the function."""

    def __setattr__(self, name: str, value) -> None:
        if not (name == "replay" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


__all__ = [
    "Decision",
    "Feedback",
    "FeedbackOk",
    "FrameDecoder",
    "IngressClient",
    "IngressConfig",
    "IngressServer",
    "IngressStats",
    "MajorityVoteSmoother",
    "PROTOCOL_VERSION",
    "ReplayTrace",
    "Session",
    "ShardCrashError",
    "ShardError",
    "ShardedStreamingService",
    "StreamConfig",
    "StreamingService",
    "StreamWindower",
    "TraceEvent",
    "WireError",
    "WorkloadConfig",
    "decision_records",
    "encode_frame",
    "generate_workload",
    "parity_digest",
    "replay",
    "run_workload",
    "session_key_bytes",
    "shard_for",
    "stream_bytes",
    "synthetic_trace",
    "trace_from_streams",
]
