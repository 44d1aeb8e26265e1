"""Deterministic replay traces and the differential parity harness.

A *trace* is the complete, ordered record of a streaming workload: which
session received which chunk of samples, in which order.  Because every
layer of the serving stack is a pure function of the quantised window
levels, two services fed the same trace must produce *identical*
per-session decision sequences — no tolerances, byte equality.  This
module provides the three pieces that turn that property into tests:

* **seedable trace generators** — :func:`synthetic_trace` fabricates a
  plateau-heavy multi-session workload from one integer seed (same seed,
  same bytes, on any machine); :func:`trace_from_streams` chops
  existing per-session streams (e.g. recorded EMG trials) into a
  deterministically interleaved, raggedly chunked trace;
* **a replay driver** — :func:`replay` feeds a trace to anything with
  the ``open_session`` / ``ingest`` / ``drain`` service interface (the
  single-process :class:`~repro.stream.scheduler.StreamingService` and
  the sharded front end :mod:`repro.stream.sharded` both qualify) and
  returns the per-session decision streams;
* **a canonical projection** — :func:`decision_records` /
  :func:`stream_bytes` / :func:`parity_digest` serialize the
  *batching-independent* part of a decision stream (per-session index,
  raw label, smoothed label) so "sharded output equals single-process
  output" is literally a byte comparison.  Scheduler metadata
  (batch ids, queue waits) legitimately differs between schedulers and
  is deliberately outside the projection.

``tests/stream/test_sharded.py`` pins the sharded front end to the
single-process service with this harness, and
``benchmarks/bench_stream.py`` replays the same traces.  The harness
reads decisions from what the service returns, never from retained
service state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .session import Decision

#: Default (lo, hi) bounds for ragged chunk sizes, in samples per ingest.
DEFAULT_CHUNKING = (1, 40)


@dataclass(frozen=True)
class TraceEvent:
    """One ingest call: ``samples`` pushed into ``session_id``.

    Events carry no explicit clock — a trace's ingest clock is its event
    *position* (event ``i`` is tick ``i + 1``), so any two replays of the
    same trace see identical clocks by construction.
    """

    session_id: Hashable
    samples: np.ndarray  # (k, n_channels) float64, read-only


@dataclass(frozen=True)
class ReplayTrace:
    """An ordered, immutable multi-session ingest schedule."""

    n_channels: int
    events: Tuple[TraceEvent, ...]

    @property
    def session_ids(self) -> Tuple[Hashable, ...]:
        """Distinct session ids, in first-appearance order."""
        seen: Dict[Hashable, None] = {}
        for event in self.events:
            seen.setdefault(event.session_id, None)
        return tuple(seen)

    @property
    def n_events(self) -> int:
        """Ingest calls in the trace."""
        return len(self.events)

    @property
    def total_samples(self) -> int:
        """Samples across all events."""
        return sum(e.samples.shape[0] for e in self.events)

    def session_stream(self, session_id: Hashable) -> np.ndarray:
        """The full (T, n_channels) stream one session receives."""
        chunks = [
            e.samples for e in self.events if e.session_id == session_id
        ]
        if not chunks:
            raise KeyError(f"session {session_id!r} not in trace")
        return np.concatenate(chunks)

    def digest(self) -> str:
        """SHA-256 over the trace's canonical bytes.

        Two traces with equal digests schedule byte-identical samples to
        the same sessions in the same order — the precondition of every
        differential parity claim.
        """
        h = hashlib.sha256()
        for event in self.events:
            h.update(repr(event.session_id).encode())
            h.update(np.ascontiguousarray(event.samples).tobytes())
        return h.hexdigest()


def _freeze(samples: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(samples, dtype=np.float64)
    out.setflags(write=False)
    return out


def trace_from_streams(
    streams: Union[Mapping[Hashable, np.ndarray], Sequence[np.ndarray]],
    seed: int = 0,
    chunking: Union[int, Tuple[int, int]] = DEFAULT_CHUNKING,
) -> ReplayTrace:
    """Chop per-session streams into a deterministic interleaved trace.

    ``streams`` maps session ids to (T, n_channels) sample arrays (a
    sequence means ids ``0 .. n-1``).  ``chunking`` is either a fixed
    chunk size or an inclusive ``(lo, hi)`` range of ragged sizes drawn
    from ``seed``; the same seed also drives which session ingests next,
    so chunks from different sessions interleave arbitrarily while each
    session's own samples stay in order.  Identical inputs produce an
    identical trace on every machine.
    """
    if not isinstance(streams, Mapping):
        streams = {i: s for i, s in enumerate(streams)}
    if not streams:
        raise ValueError("trace needs at least one session stream")
    arrays: Dict[Hashable, np.ndarray] = {}
    n_channels = None
    for sid, stream in streams.items():
        arr = np.asarray(stream, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError(
                f"session {sid!r} stream must be a non-empty "
                f"(T, n_channels) array, got shape {arr.shape}"
            )
        if n_channels is None:
            n_channels = arr.shape[1]
        elif arr.shape[1] != n_channels:
            raise ValueError(
                f"session {sid!r} has {arr.shape[1]} channels, "
                f"expected {n_channels}"
            )
        arrays[sid] = arr
    if isinstance(chunking, int):
        lo = hi = int(chunking)
    else:
        lo, hi = (int(chunking[0]), int(chunking[1]))
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid chunking range [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    offsets = {sid: 0 for sid in arrays}
    live = list(arrays)
    events: List[TraceEvent] = []
    while live:
        sid = live[int(rng.integers(len(live)))]
        stream = arrays[sid]
        step = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        start = offsets[sid]
        stop = min(start + step, stream.shape[0])
        events.append(TraceEvent(sid, _freeze(stream[start:stop])))
        offsets[sid] = stop
        if stop >= stream.shape[0]:
            live.remove(sid)
    return ReplayTrace(n_channels=int(n_channels), events=tuple(events))


def plateau_stream(
    rng: np.random.Generator,
    n_samples: int,
    n_channels: int,
    lo: float,
    hi: float,
) -> np.ndarray:
    """One session's plateau-heavy ``(n_samples, n_channels)`` stream.

    Constant plateaus (random level, random 5–40-sample length) with
    small additive noise, clipped to ``[lo, hi]`` — the redundancy
    profile of a smoothed biosignal envelope.  Every value is drawn
    from ``rng`` in a fixed order, so a seeded generator yields the
    same stream on any machine.
    """
    span = hi - lo
    parts: List[np.ndarray] = []
    remaining = n_samples
    while remaining > 0:
        length = min(int(rng.integers(5, 41)), remaining)
        level = lo + span * rng.random(n_channels)
        noise = 0.02 * span * rng.standard_normal((length, n_channels))
        parts.append(np.clip(level + noise, lo, hi))
        remaining -= length
    return np.concatenate(parts)


def synthetic_trace(
    n_sessions: int,
    samples_per_session: int,
    n_channels: int = 4,
    seed: int = 0,
    chunking: Union[int, Tuple[int, int]] = DEFAULT_CHUNKING,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ReplayTrace:
    """Fabricate a plateau-heavy multi-session trace from one seed.

    Each session's stream comes from :func:`plateau_stream`; its
    repeated windows are what exercise the decision cache and its
    eviction policy.  Everything (levels, plateau lengths, noise, chunk
    sizes, session interleaving) derives from ``seed``.
    """
    if n_sessions < 1:
        raise ValueError(f"need at least one session, got {n_sessions}")
    if samples_per_session < 1:
        raise ValueError(
            f"need at least one sample per session, got "
            f"{samples_per_session}"
        )
    if hi <= lo:
        raise ValueError(f"invalid signal range [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    streams = [
        plateau_stream(rng, samples_per_session, n_channels, lo, hi)
        for _ in range(n_sessions)
    ]
    return trace_from_streams(
        streams, seed=int(rng.integers(1 << 31)), chunking=chunking
    )


# -- replay driver ----------------------------------------------------------


def replay(
    service,
    trace: ReplayTrace,
    open_sessions: bool = True,
    drain: bool = True,
    actions: Union[
        Mapping[int, Callable], Sequence[Tuple[int, Callable]], None
    ] = None,
) -> Dict[Hashable, List[Decision]]:
    """Feed a trace to a streaming service; return per-session decisions.

    ``service`` is anything with the ``open_session(id)`` /
    ``ingest(id, samples)`` / ``drain()`` interface — the single-process
    scheduler and the sharded coordinator both qualify, which is exactly
    what makes this the differential harness.  Decisions are grouped by
    session and ordered by per-session index (both services guarantee
    in-order per-session delivery; the sort is a checked formality).

    ``actions`` schedules mid-stream operations against the service:
    a mapping (or pair sequence) from event index to a callable invoked
    with the service *after* that event's ingest.  This is how the
    parity harness drives elastic operations — kill a worker, migrate a
    session, ``rescale`` the fleet — at a deterministic point of the
    trace and still asserts byte-equality against an undisturbed run.
    Decisions an action returns (e.g. from ``rescale``) are folded into
    the result.
    """
    scheduled: Dict[int, List[Callable]] = {}
    if actions:
        pairs = (
            actions.items() if isinstance(actions, Mapping) else actions
        )
        for position, action in pairs:
            scheduled.setdefault(int(position), []).append(action)
    out: Dict[Hashable, List[Decision]] = {}
    if open_sessions:
        for sid in trace.session_ids:
            service.open_session(sid)
            out[sid] = []
    for position, event in enumerate(trace.events):
        for decision in service.ingest(event.session_id, event.samples):
            out.setdefault(decision.session_id, []).append(decision)
        for action in scheduled.get(position, ()):
            result = action(service)
            if result:
                for decision in result:
                    out.setdefault(decision.session_id, []).append(
                        decision
                    )
    if drain:
        for decision in service.drain():
            out.setdefault(decision.session_id, []).append(decision)
    for decisions in out.values():
        decisions.sort(key=lambda d: d.index)
    return out


# -- the parity projection --------------------------------------------------


def decision_records(
    decisions: Sequence[Decision],
) -> List[Tuple[int, Hashable, Hashable]]:
    """The batching-independent projection of one session's decisions.

    ``(index, raw_label, smoothed_label)`` per decision: exactly the
    fields determined by the session's own sample stream and the model,
    regardless of how windows were batched or which process classified
    them.  Scheduler metadata (batch ids, clock stamps) is excluded on
    purpose — it describes the *schedule*, not the *output*.
    """
    return [(d.index, d.raw_label, d.label) for d in decisions]


def stream_bytes(decisions: Sequence[Decision]) -> bytes:
    """Canonical byte serialization of one session's decision stream."""
    return "\n".join(
        repr(record) for record in decision_records(decisions)
    ).encode()


def parity_digest(
    per_session: Mapping[Hashable, Sequence[Decision]],
) -> str:
    """SHA-256 over every session's canonical decision stream.

    Equal digests == byte-identical per-session decision sequences.
    Sessions are folded in sorted-repr order so the digest is
    independent of dict ordering.
    """
    h = hashlib.sha256()
    for sid in sorted(per_session, key=repr):
        h.update(repr(sid).encode())
        h.update(b"\x00")
        h.update(stream_bytes(per_session[sid]))
        h.update(b"\x01")
    return h.hexdigest()
