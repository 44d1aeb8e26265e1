"""Seeded network workload generation for the ingress layer.

Fabricates a population of client sessions with the statistical shape
of real traffic — bursty/diurnal arrivals, session churn, ragged chunk
sizes, a fraction of pathologically slow consumers — entirely from one
integer seed, then drives it against a live :class:`IngressServer`
over real sockets.

The generator's sample streams reuse the plateau-heavy signal model of
:func:`repro.stream.replay.synthetic_trace` (random constant plateaus
plus small noise), so network workloads exercise the same cache/
scheduler behaviour as the in-process benchmarks.  Crucially, the
*samples each session sends* are deterministic given the seed and
independent of network timing — which is what lets
:func:`run_workload` hand back the exact per-session streams for an
in-process parity replay of whatever the server admitted.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .ingress import ClientDecision, IngressClient
from .replay import plateau_stream

__all__ = [
    "WorkloadConfig",
    "SessionScript",
    "WorkloadResult",
    "generate_workload",
    "run_workload",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one generated workload."""

    n_sessions: int = 8
    n_channels: int = 4
    samples_per_session: int = 400
    #: inclusive (lo, hi) ragged chunk-size range, samples per SAMPLES.
    chunking: Tuple[int, int] = (1, 40)
    #: total arrival window (seconds) over which sessions start.
    arrival_span_s: float = 0.5
    #: fraction of arrivals compressed into a burst at t=0 (the rest
    #: spread diurnally over the span).
    burst_fraction: float = 0.5
    #: mean pause between a session's chunks (seconds; 0 = slam).
    pacing_s: float = 0.0
    #: fraction of sessions that consume decisions pathologically slowly.
    slow_fraction: float = 0.0
    #: artificial read delay applied by slow sessions' clients.
    slow_read_delay_s: float = 0.2
    #: signal range for the plateau generator.
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError(
                f"n_sessions must be >= 1, got {self.n_sessions}"
            )
        if self.samples_per_session < 1:
            raise ValueError(
                f"samples_per_session must be >= 1, got "
                f"{self.samples_per_session}"
            )
        lo, hi = self.chunking
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid chunking range [{lo}, {hi}]")
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise ValueError(
                f"burst_fraction must be in [0, 1], got "
                f"{self.burst_fraction}"
            )
        if not 0.0 <= self.slow_fraction <= 1.0:
            raise ValueError(
                f"slow_fraction must be in [0, 1], got "
                f"{self.slow_fraction}"
            )


@dataclass(frozen=True)
class SessionScript:
    """One session's complete, pre-materialized network behaviour."""

    session_id: str
    start_s: float  # arrival offset from workload start
    stream: np.ndarray  # (T, n_channels) float64, the full signal
    chunks: Tuple[int, ...]  # chunk lengths, summing to len(stream)
    pauses: Tuple[float, ...]  # inter-chunk pauses (len == len(chunks))
    slow: bool = False


@dataclass
class WorkloadResult:
    """Everything observed while driving one workload."""

    #: sessions the server admitted, cleanly closed: sid -> full stream.
    completed: Dict[str, np.ndarray] = field(default_factory=dict)
    #: decisions received per admitted session, index order.
    decisions: Dict[str, List[ClientDecision]] = field(
        default_factory=dict
    )
    #: sessions rejected by admission control: sid -> retry_after_s.
    rejected: Dict[str, float] = field(default_factory=dict)
    #: admitted sessions that did not finish cleanly (disconnects).
    aborted: List[str] = field(default_factory=list)
    #: every measured ingest->decision latency, seconds.
    latencies: List[float] = field(default_factory=list)


def generate_workload(
    config: WorkloadConfig, seed: int = 0
) -> List[SessionScript]:
    """Materialize a workload: deterministic scripts, one per session.

    Same ``(config, seed)``, same scripts, on any machine — streams,
    chunk boundaries, arrival times, pauses, and which sessions are
    slow all derive from the one seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = config.chunking
    n_burst = int(round(config.n_sessions * config.burst_fraction))
    scripts: List[SessionScript] = []
    for i in range(config.n_sessions):
        stream = plateau_stream(
            rng,
            config.samples_per_session,
            config.n_channels,
            config.lo,
            config.hi,
        )
        chunks: List[int] = []
        remaining = stream.shape[0]
        while remaining > 0:
            step = (
                int(rng.integers(lo, hi + 1)) if hi > lo else lo
            )
            chunks.append(min(step, remaining))
            remaining -= chunks[-1]
        if i < n_burst:
            start = 0.0  # the thundering herd
        else:
            # Diurnal-ish tail: arrivals thin out across the span.
            start = config.arrival_span_s * float(rng.random()) ** 0.5
        pauses = (
            tuple(
                float(p)
                for p in rng.exponential(
                    config.pacing_s, size=len(chunks)
                )
            )
            if config.pacing_s > 0
            else tuple(0.0 for _ in chunks)
        )
        scripts.append(
            SessionScript(
                session_id=f"s{i:04d}",
                start_s=start,
                stream=stream,
                chunks=tuple(chunks),
                pauses=pauses,
                slow=bool(rng.random() < config.slow_fraction),
            )
        )
    return scripts


async def _drive_session(
    host: str,
    port: int,
    script: SessionScript,
    result: WorkloadResult,
    lock: asyncio.Lock,
    slow_read_delay_s: float,
) -> None:
    """One session = one connection: open, stream, close, bye."""
    client = IngressClient()
    if script.start_s > 0:
        await asyncio.sleep(script.start_s)
    admitted = False
    clean = False
    try:
        await client.connect(host, port)
        if script.slow:
            # The handshake reads at full speed; only decision
            # consumption is throttled.
            client.read_delay_s = slow_read_delay_s
        ok, retry_after = await client.open(script.session_id)
        if not ok:
            async with lock:
                result.rejected[script.session_id] = retry_after
            await client.aclose()
            return
        admitted = True
        offset = 0
        for chunk, pause in zip(script.chunks, script.pauses):
            if pause > 0:
                await asyncio.sleep(pause)
            await client.send(
                script.session_id,
                script.stream[offset : offset + chunk],
            )
            offset += chunk
        await client.close(script.session_id)
        await client.bye()
        clean = True
    except (ConnectionError, asyncio.TimeoutError, OSError, RuntimeError):
        try:
            await client.aclose()
        except Exception:
            pass
    async with lock:
        result.latencies.extend(client.latencies)
        if admitted and clean:
            result.completed[script.session_id] = script.stream
            result.decisions[script.session_id] = client.decisions.get(
                script.session_id, []
            )
        elif admitted:
            result.aborted.append(script.session_id)


async def run_workload(
    host: str,
    port: int,
    scripts: List[SessionScript],
    slow_read_delay_s: float = 0.2,
) -> WorkloadResult:
    """Drive every script concurrently against a live server."""
    result = WorkloadResult()
    lock = asyncio.Lock()
    tasks = [
        asyncio.ensure_future(
            _drive_session(
                host, port, script, result, lock, slow_read_delay_s
            )
        )
        for script in scripts
    ]
    await asyncio.gather(*tasks)
    return result
