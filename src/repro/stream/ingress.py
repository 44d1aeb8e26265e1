"""Asyncio network ingress: the fleet's TCP front door.

:class:`IngressServer` multiplexes many concurrent client connections
(each carrying any number of sessions) onto one streaming service —
the single-process :class:`~repro.stream.scheduler.StreamingService`
or the sharded :class:`~repro.stream.sharded.ShardedStreamingService` —
speaking the framed protocol of :mod:`repro.stream.wire`.

Design constraints this module resolves:

* **The service is single-threaded and blocking, and so is the
  server.**  Every service call runs inline on the event loop, in the
  handler of the frame that asks for it, so frames are served in
  arrival order by construction.  A connection's next frame is read
  only after the ones before it are served: nothing queues inside the
  server, and TCP flow control plus the credit window bound what waits
  outside it.  The server yields to the loop after each frame, so
  other connections get in between; one long call (a fleet's shard
  respawn or rescale) still stalls every connection while it runs.
* **Backpressure must reach the socket.**  Each connection gets a
  window of unacknowledged SAMPLES payload bytes (granted in WELCOME);
  the server returns CREDIT only after ``service.ingest`` has accepted
  the chunk, so coordinator credit pressure delays CREDIT frames and a
  well-behaved client stops sending.  A rejected chunk returns its
  credit too, with an ERR_SESSION answer.  The client sent every frame
  of one read before it could see any of their CREDITs, so together
  they must fit its window; a client that overdraws it is a protocol
  violation and is disconnected.
* **Admission control sheds load at the edge.**  New OPENs are
  rejected with a retry-after ERROR frame when fleet credit
  utilization or the oldest queued window's age crosses the configured
  watermarks; established sessions keep their service.
* **Slow clients cannot stall the pump.**  The transport's write
  buffer is each connection's one outbound buffer.  Every frame a
  service call answers waits in its connection's pending list until
  the call returns; then each answered connection gets all of them in
  one write, so the DECISIONs and CREDIT of one call leave in one
  ``send``.  A peer whose transport still holds more than
  ``write_buffer_bytes`` unsent after that write has stopped reading:
  its transport is aborted and it is counted in
  ``slow_client_disconnects``.  Idle connections time out.
* **Latency is measured end to end without trusting clocks.**  Clients
  stamp each SAMPLES frame with their own ``perf_counter``; the server
  mirrors the windower's emission arithmetic (:class:`_StampTracker`)
  to map each chunk to the windows it completes, and echoes the stamp
  on those windows' DECISION frames.  The client subtracts — one
  clock, no cross-host skew.

Decisions themselves are untouched by any of this: framing, chunk
boundaries, interleaving, and shedding change *which* sample streams
reach the fleet, never the decisions a given stream produces (the
parity tests pin network output byte-identical to in-process replay).
"""

from __future__ import annotations

import asyncio
import collections
import operator
import socket
import time
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .scheduler import StreamConfig
from .wire import (
    ERR_PROTOCOL,
    ERR_SESSION,
    ERR_SHED,
    ERR_VERSION,
    PROTOCOL_VERSION,
    Bye,
    Close,
    Closed,
    Credit,
    DecisionFrame,
    Error,
    Feedback,
    FeedbackOk,
    FrameDecoder,
    Hello,
    Open,
    OpenOk,
    Samples,
    Welcome,
    WireError,
    encode_frame,
)

_NAN = float("nan")
#: How long a dropped connection's transport may take to send what it
#: still holds before it is aborted.
_CLOSE_TIMEOUT_S = 5.0


def _wire_label(label) -> int:
    """``label`` as the i64 a DECISION frame carries; ValueError if it
    is not an integer in that range."""
    try:
        value = operator.index(label)
        if -(1 << 63) <= value < 1 << 63:
            return value
    except TypeError:
        pass
    raise ValueError(f"label {label!r} does not fit a DECISION frame's i64")


@dataclass(frozen=True)
class IngressConfig:
    """Tunables for one :class:`IngressServer`."""

    #: Per-connection window of unacknowledged SAMPLES payload bytes.
    credit_bytes: int = 1 << 18
    #: Hard frame-size cap enforced by the decoder.
    max_frame_bytes: int = 8 << 20
    #: Disconnect a connection with no inbound frames for this long
    #: (checked by the sweeper, so up to ``sweep_interval_s`` later).
    idle_timeout_s: float = 30.0
    #: Socket send buffer (bytes), and the most a connection's
    #: transport may hold unsent after a write before the peer counts
    #: as slow and is evicted.
    write_buffer_bytes: int = 1 << 16
    #: Admit no new sessions while fleet credit utilization, the mean
    #: fraction of the shards' unacknowledged-bytes windows in use, is
    #: >= this.  A single-process service has no such window.
    shed_utilization: float = 0.90
    #: Admit no new sessions while the oldest queued window has waited
    #: more than this many ingest ticks (``None`` disables the signal).
    shed_queue_age_ticks: Optional[float] = None
    #: Retry hint carried on shed ERROR frames.
    retry_after_s: float = 0.5
    #: Period of the idle sweeper that drains max_wait-aged windows
    #: when ingest traffic pauses and times out idle connections.
    sweep_interval_s: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "credit_bytes", "max_frame_bytes", "write_buffer_bytes"
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.credit_bytes > 0xFFFFFFFF:  # WELCOME carries a u32
            raise ValueError(
                f"credit_bytes must fit a u32, got {self.credit_bytes}"
            )
        for name in ("idle_timeout_s", "sweep_interval_s"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.shed_utilization <= 1.0:
            raise ValueError(
                f"shed_utilization must be in (0, 1], got "
                f"{self.shed_utilization}"
            )
        if not self.retry_after_s >= 0.0:
            raise ValueError(
                f"retry_after_s must be >= 0, got {self.retry_after_s}"
            )
        age = self.shed_queue_age_ticks
        if age is not None and not age >= 0.0:
            raise ValueError(
                f"shed_queue_age_ticks must be >= 0 or None, got {age}"
            )


@dataclass
class IngressStats:
    """Mutable counters published by one server instance."""

    connections_accepted: int = 0
    connections_closed: int = 0
    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_rejected: int = 0
    samples_frames: int = 0
    sample_bytes: int = 0
    decisions_sent: int = 0
    slow_client_disconnects: int = 0
    idle_disconnects: int = 0
    protocol_errors: int = 0

    def describe(self) -> str:
        return (
            f"conns {self.connections_accepted}/"
            f"{self.connections_closed} open/closed; "
            f"sessions {self.sessions_opened} opened, "
            f"{self.sessions_rejected} shed; "
            f"{self.samples_frames} sample frames "
            f"({self.sample_bytes} B), "
            f"{self.decisions_sent} decisions; "
            f"slow={self.slow_client_disconnects} "
            f"idle={self.idle_disconnects} "
            f"proto={self.protocol_errors}"
        )


class _StampTracker:
    """Shadow of one session's windower emission arithmetic.

    Re-runs the exact completion rule of
    :class:`~repro.stream.windower.StreamWindower` (windows complete
    while ``next_start + slice_samples <= samples_seen``, advancing by
    the stride; the onset skip is the first start) on chunk *counts*
    only — no sample data — so each inbound chunk can be mapped to the
    windows it completes and their client stamps queued in emission
    order.  Decisions arrive in per-session index order, so stamps pop
    FIFO.
    """

    __slots__ = ("_length", "_stride", "_next_start", "_total", "stamps")

    def __init__(self, config: StreamConfig):
        window = config.window
        self._length = window.slice_samples
        self._stride = window.stride
        self._next_start = int(
            round(window.skip_onset_s * config.sample_rate_hz)
        )
        self._total = 0
        self.stamps: Deque[float] = collections.deque()

    def push(self, n_samples: int, stamp: float) -> None:
        self._total += n_samples
        while self._next_start + self._length <= self._total:
            self.stamps.append(stamp)
            self._next_start += self._stride

    def pop(self) -> float:
        return self.stamps.popleft() if self.stamps else _NAN


class _Connection:
    """Server-side state for one client connection."""

    __slots__ = (
        "reader",
        "writer",
        "decoder",
        "pending",
        "sessions",
        "credit_debt",
        "closing",
        "last_read",
        "read_waiter",
        "timed_out",
    )

    def __init__(self, reader, writer, max_frame_bytes):
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self.pending: List[bytes] = []  # encoded frames not yet written
        self.sessions: set = set()
        self.credit_debt = 0  # SAMPLES bytes of the current read
        self.closing = False
        # Idle timeout state: when the last read returned, the read
        # loop's task while it waits on a read (else None), and whether
        # the sweep cancelled that read for idleness.
        self.last_read = time.monotonic()
        self.read_waiter: Optional[asyncio.Task] = None
        self.timed_out = False


class IngressServer:
    """Framed-TCP front door over one streaming service.

    The server makes every service call itself, inline on its event
    loop, but does not own the service's lifecycle — callers create
    and close the service.  Both backends take this one path.

    Usage::

        service = ShardedStreamingService(model_path, config, ...)
        server = IngressServer(service, config)
        host, port = await server.start("127.0.0.1", 0)
        ...
        await server.stop()
    """

    def __init__(
        self,
        service,
        stream_config: StreamConfig,
        config: IngressConfig = IngressConfig(),
    ):
        self._service = service
        self._stream_config = stream_config
        self._config = config
        self.stats = IngressStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._sessions: Dict[str, Tuple[_Connection, _StampTracker]] = {}
        self._connections: set = set()
        self._handlers: set = set()  # connection handler tasks not done
        self._answered: List[_Connection] = []  # those with pending frames
        self._sweeper: Optional[asyncio.Task] = None
        self._dirty = False  # ingested since the last drain

    # -- lifecycle ---------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and serve; returns the actual (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self._sweeper = asyncio.ensure_future(self._sweep_loop())
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def stop(self) -> None:
        """Stop accepting and drop every connection."""
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        # Together, so peers slow to take their last bytes share one
        # close bound instead of adding theirs up.
        await asyncio.gather(
            *(self._drop_connection(conn) for conn in list(self._connections))
        )
        # A connection whose peer ended its side has left the set while
        # its handler still waits out the close bound, and an aborted
        # transport reports its loss on a later loop turn: a loop
        # closed now would cancel those handlers.  Their errors were
        # reported when they ended.
        await asyncio.gather(*self._handlers, return_exceptions=True)

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    # -- admission ---------------------------------------------------------

    def _admission_signals(self) -> Tuple[float, float]:
        """(utilization, oldest queued age in ticks) now."""
        service = self._service
        if hasattr(service, "credit_utilization"):
            utilization = service.credit_utilization()
        else:
            utilization = 0.0
        return utilization, float(service.oldest_queued_tick_age)

    def _shed_reason(self) -> Optional[str]:
        """Why a new OPEN must be rejected, or None to admit."""
        cfg = self._config
        utilization, age_ticks = self._admission_signals()
        if utilization >= cfg.shed_utilization:
            return (
                f"credit utilization {utilization:.2f} >= "
                f"{cfg.shed_utilization:.2f}"
            )
        if (
            cfg.shed_queue_age_ticks is not None
            and age_ticks > cfg.shed_queue_age_ticks
        ):
            return (
                f"queue age {age_ticks:.0f} ticks > "
                f"{cfg.shed_queue_age_ticks:.0f}"
            )
        return None

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        cfg = self._config
        conn = _Connection(reader, writer, cfg.max_frame_bytes)
        self._connections.add(conn)
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self.stats.connections_accepted += 1
        try:
            # Left to grow to megabytes, the kernel's send buffer would
            # hide a peer that stopped reading from the eviction check.
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, cfg.write_buffer_bytes
            )
            await self._read_loop(conn)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            WireError,
        ):
            pass
        finally:
            await self._drop_connection(conn)

    async def _read_loop(self, conn: _Connection) -> None:
        hello_seen = False
        task = asyncio.current_task()
        while not conn.closing:
            # No timeout around the read: before CPython 3.12,
            # asyncio.wait_for runs every read as a task of its own.
            # The sweep cancels a read that has waited idle_timeout_s.
            conn.read_waiter = task
            try:
                data = await conn.reader.read(1 << 16)
            except asyncio.CancelledError:
                if not conn.timed_out:
                    raise
                if hasattr(task, "uncancel"):  # CPython 3.11+
                    task.uncancel()
                self.stats.idle_disconnects += 1
                self._send(
                    conn,
                    Error(ERR_PROTOCOL, "idle timeout", 0.0),
                )
                self._flush()
                return
            finally:
                conn.read_waiter = None
            conn.last_read = time.monotonic()
            if not data:
                return  # peer closed
            try:
                frames = conn.decoder.feed(data)
            except WireError as exc:
                self.stats.protocol_errors += 1
                self._send(conn, Error(ERR_PROTOCOL, str(exc), 0.0))
                self._flush()
                return
            # Each frame of this read was sent before the client could
            # see a CREDIT for any of them, so their SAMPLES bytes must
            # fit its window together.
            conn.credit_debt = 0
            for frame in frames:
                if conn.closing:
                    return  # BYE, an eviction, or the server stopped
                if hello_seen:
                    served = self._dispatch_frame(conn, frame)
                else:
                    served = hello_seen = self._on_hello(conn, frame)
                self._flush()
                if not served:
                    return
                # One read can hold a hundred SAMPLES frames: yielding
                # after each lets other connections in between.
                await asyncio.sleep(0)

    def _on_hello(self, conn: _Connection, frame) -> bool:
        """Answer the handshake; False ends the connection."""
        if isinstance(frame, Hello) and frame.version == PROTOCOL_VERSION:
            self._send(
                conn, Welcome(PROTOCOL_VERSION, self._config.credit_bytes)
            )
            return True
        self.stats.protocol_errors += 1
        self._send(
            conn,
            Error(
                ERR_VERSION,
                f"server speaks version {PROTOCOL_VERSION}",
                0.0,
            ),
        )
        return False

    def _dispatch_frame(self, conn: _Connection, frame) -> bool:
        """Handle one post-handshake frame; False ends the connection."""
        if isinstance(frame, Open):
            self._on_open(conn, frame)
            return True
        if isinstance(frame, Samples):
            return self._on_samples(conn, frame)
        if isinstance(frame, Feedback):
            self._on_feedback(conn, frame)
            return True
        if isinstance(frame, Close):
            self._on_close(conn, frame.session_id)
            return True
        if isinstance(frame, Bye):
            self._on_bye(conn)
            return True
        self.stats.protocol_errors += 1
        self._send(
            conn,
            Error(
                ERR_PROTOCOL,
                f"unexpected {type(frame).__name__} frame",
                0.0,
            ),
        )
        return False

    def _on_open(self, conn: _Connection, frame: Open) -> None:
        sid = frame.session_id
        if sid in self._sessions:
            self._send(
                conn,
                Error(ERR_SESSION, "session already open", 0.0, sid),
            )
            return
        reason = self._shed_reason()
        if reason is not None:
            self.stats.sessions_rejected += 1
            self._send(
                conn,
                Error(
                    ERR_SHED,
                    reason,
                    self._config.retry_after_s,
                    sid,
                ),
            )
            return
        try:
            self._service.open_session(
                sid, model_id=frame.model_id or None, adaptive=frame.adaptive
            )
        except Exception as exc:  # e.g. an unknown model id
            self._session_error(conn, sid, exc)
            return
        self.stats.sessions_opened += 1
        self._sessions[sid] = (conn, _StampTracker(self._stream_config))
        conn.sessions.add(sid)
        self._send(conn, OpenOk(sid))

    def _owner(
        self, conn: _Connection, sid: str
    ) -> Optional[Tuple[_Connection, _StampTracker]]:
        """``sid``'s entry if it is open on ``conn``; otherwise answer
        ERR_SESSION and return None."""
        owner = self._sessions.get(sid)
        if owner is not None and owner[0] is conn:
            return owner
        self._send(
            conn, Error(ERR_SESSION, "session not open here", 0.0, sid)
        )
        return None

    def _on_feedback(self, conn: _Connection, frame: Feedback) -> None:
        sid = frame.session_id
        if self._owner(conn, sid) is None:
            return
        try:
            applied = self._service.feedback(
                sid, frame.label, index=frame.index
            )
        except Exception as exc:
            # A rejected feedback (not adaptive, index fell out of the
            # buffer, ...) is answered, not fatal: the stream itself is
            # untouched, so the session stays open.
            self._session_error(conn, sid, exc)
            return
        self._send(conn, FeedbackOk(sid, bool(applied), frame.index))

    def _on_samples(self, conn: _Connection, frame: Samples) -> bool:
        sid = frame.session_id
        cost = frame.samples.size * 8
        owner = self._owner(conn, sid)
        if owner is None:
            # Typically a frame the client pipelined before it saw its
            # session fail.  Answered like CLOSE and FEEDBACK are, so
            # the connection's other sessions keep their service; the
            # client charged the bytes to its window, so they go back.
            self._send(conn, Credit(cost))
            return True
        conn.credit_debt += cost
        if conn.credit_debt > self._config.credit_bytes:
            self.stats.protocol_errors += 1
            self._send(
                conn,
                Error(
                    ERR_PROTOCOL,
                    f"credit overdraft: {conn.credit_debt} B in "
                    f"flight > {self._config.credit_bytes} B window",
                    0.0,
                    sid,
                ),
            )
            return False
        self.stats.samples_frames += 1
        self.stats.sample_bytes += cost
        owner[1].push(frame.samples.shape[0], frame.stamp)
        self._dirty = True
        failed = []
        while True:
            try:
                decisions = self._service.ingest(sid, frame.samples)
            except Exception as exc:
                stale = self._fail_stale(exc, sid)
                if stale is None:
                    self._fail_session(conn, sid, exc)
                    failed.append(sid)
                    break
                failed.append(stale)
                if exc.sent:
                    break  # this chunk will be served all the same
                # This chunk was dropped before the send: ingest it
                # again.  Each stale error settles one earlier command,
                # so the retries end.
            else:
                self._route_decisions(decisions)
                break
        if failed:
            # Closed in the service too, or the ids would stay taken
            # there after the ingress forgets them.
            self._close_in_service(failed)
        # Served or rejected, the chunk no longer holds window bytes.
        self._send(conn, Credit(cost))
        return True

    def _on_close(self, conn: _Connection, sid: str) -> None:
        if self._owner(conn, sid) is None:
            return
        # The drain decides every window of the closing session, as an
        # in-process replay with ``drain=True`` does; that is what keeps
        # cleanly closed network sessions byte-identical to replay.
        try:
            self._drain()
            if sid not in conn.sessions:
                return  # failed on a decision the drain routed
            self._service.close_session(sid)
        except Exception as exc:
            self._fail_session(conn, sid, exc)
            return
        self._forget_session(sid)
        self.stats.sessions_closed += 1
        self._send(conn, Closed(sid))

    def _on_bye(self, conn: _Connection) -> None:
        self._drain_if_dirty()
        self._send(conn, Bye())
        conn.closing = True  # the drop flushes, then closes

    # -- outbound ----------------------------------------------------------

    def _send(self, conn: _Connection, frame) -> None:
        if not conn.pending:
            self._answered.append(conn)
        conn.pending.append(encode_frame(frame))
        if isinstance(frame, DecisionFrame):
            self.stats.decisions_sent += 1

    def _flush(self) -> None:
        """Hand each answered connection its pending frames in one write.

        A service call sends its DECISION frames and then its CREDIT
        before the flush, so they leave in one ``send``, in the order
        sent.  A peer whose transport still holds more than
        ``write_buffer_bytes`` unsent after the write has stopped
        reading: its transport is aborted, so its read loop ends and
        the connection is dropped.
        """
        answered, self._answered = self._answered, []
        limit = self._config.write_buffer_bytes
        for conn in answered:
            data = b"".join(conn.pending)
            conn.pending.clear()
            transport = conn.writer.transport
            if transport.is_closing():
                continue  # evicted, closed or lost: nothing reaches it
            conn.writer.write(data)
            if transport.get_write_buffer_size() > limit:
                self.stats.slow_client_disconnects += 1
                conn.closing = True
                transport.abort()

    def _drain(self) -> None:
        """Decide every queued window; route the decisions.

        An error naming a session's rejected chunk fails that session,
        and the drain is repeated: a drain is safe to repeat.
        """
        failed = []
        while True:
            try:
                decisions = self._service.drain()
                break
            except Exception as exc:
                stale = self._fail_stale(exc, None)
                if stale is None:
                    raise
                failed.append(stale)
        self._dirty = False
        self._route_decisions(decisions)
        if failed:
            self._close_in_service(failed)

    def _drain_if_dirty(self) -> None:
        """Drain if anything was ingested since the last drain.

        For callers with no one to report a failed drain to; it leaves
        the server dirty, so the next sweep tries again.
        """
        if self._dirty:
            try:
                self._drain()
            except Exception:
                pass

    def _route_decisions(self, decisions) -> None:
        """Send each decision to the session it belongs to.

        Decisions of sessions the ingress has forgotten are dropped.
        DECISION frames carry i64 labels: a decision whose labels are
        not integers in that range fails its session, and routing goes
        on.  Such sessions are closed in the service only once the whole
        list is routed: the drain that closing takes would otherwise
        send newer decisions ahead of the rest of this list.
        """
        failed = []
        for decision in decisions:
            sid = decision.session_id
            owner = self._sessions.get(sid)
            if owner is None:
                continue  # that session's connection already went away
            conn, tracker = owner
            try:
                raw = _wire_label(decision.raw_label)
                label = _wire_label(decision.label)
            except ValueError as exc:
                self._fail_session(conn, sid, exc)
                failed.append(sid)
                continue
            self._send(
                conn,
                DecisionFrame(
                    sid, decision.index, raw, label, tracker.pop()
                ),
            )
        if failed:
            self._close_in_service(failed)

    # -- teardown paths ----------------------------------------------------

    def _fail_stale(self, exc: Exception, sid: Optional[str]) -> Optional[str]:
        """Fail the session a fleet error names, unless that is ``sid``.

        A :class:`~repro.stream.sharded.ShardError` may report an
        earlier command of another session than the call it surfaced in
        (its ``session_id``).  Returns the id of the session failed
        here, or None when the error is the caller's own.
        """
        stale = getattr(exc, "session_id", None)
        if stale is None or stale == sid:
            return None
        owner = self._sessions.get(stale)
        if owner is not None:
            self._fail_session(owner[0], stale, exc)
        return stale

    def _session_error(self, conn: _Connection, sid: str, error) -> None:
        self._send(
            conn,
            Error(ERR_SESSION, f"{type(error).__name__}: {error}", 0.0, sid),
        )

    def _fail_session(self, conn: _Connection, sid: str, error) -> None:
        self._forget_session(sid)
        self._session_error(conn, sid, error)

    def _forget_session(self, sid: str) -> None:
        owner = self._sessions.pop(sid, None)
        if owner is not None:
            owner[0].sessions.discard(sid)

    def _close_in_service(self, sids) -> None:
        """Close sessions the ingress has already forgotten.

        The drain first decides their queued windows, so none is left
        over to reach a session that reopens one of the ids; what it
        decides for other sessions still reaches them.
        """
        self._drain_if_dirty()
        for sid in sids:
            try:
                self._service.close_session(sid)
            except Exception:
                pass  # the service no longer holds it

    async def _drop_connection(self, conn: _Connection) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self.stats.connections_closed += 1
        sids = list(conn.sessions)
        for sid in sids:
            self._forget_session(sid)
        if sids:
            self._close_in_service(sids)
        conn.closing = True
        # The close's drain may have answered other connections too.
        self._flush()
        # The transport sends what it holds before it closes; a peer
        # that will not take it within the bound is cut off.
        conn.writer.close()
        try:
            await asyncio.wait_for(
                conn.writer.wait_closed(), timeout=_CLOSE_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            conn.writer.transport.abort()
        except ConnectionError:
            pass  # the peer reset it: closed all the same

    async def _sweep_loop(self) -> None:
        """Drain the service when ingest traffic pauses; time out idle
        connections.

        ``max_wait`` batching ages on the ingest clock; when clients go
        quiet the clock stops and queued partial batches would wait
        forever.  Decisions are batching-independent, so a periodic
        drain is parity-safe liveness, not a semantics change.
        """
        interval = self._config.sweep_interval_s
        while True:
            await asyncio.sleep(interval)
            self._drain_if_dirty()
            self._flush()
            self._time_out_idle()

    def _time_out_idle(self) -> None:
        """Cancel the waiting read of every connection that has read
        nothing for ``idle_timeout_s``; its read loop then answers an
        idle-timeout ERROR and ends.  A connection times out within one
        sweep interval of its deadline."""
        deadline = time.monotonic() - self._config.idle_timeout_s
        for conn in self._connections:
            if conn.read_waiter is not None and conn.last_read <= deadline:
                conn.timed_out = True
                conn.read_waiter.cancel()


# -- client ------------------------------------------------------------------


@dataclass
class ClientDecision:
    """One decision as observed by the client, with measured latency."""

    session_id: str
    index: int
    raw_label: int
    label: int
    #: ingest→decision wall seconds on the client's own clock, or None
    #: for decisions whose completing chunk was never stamped.
    latency_s: Optional[float]


class IngressClient:
    """Credit-respecting asyncio client for the ingress protocol.

    Collects every DECISION into :attr:`decisions` (per session, in
    index order) and the measured ingest→decision latencies into
    :attr:`latencies`.  One client may carry many sessions.
    """

    def __init__(self) -> None:
        self.decisions: Dict[str, List[ClientDecision]] = {}
        self.latencies: List[float] = []
        self.errors: List[Error] = []
        self.credit_bytes = 0
        self._credit = 0
        self._credit_event = asyncio.Event()
        #: Session of each SAMPLES frame sent and not yet credited,
        #: oldest first: the server credits every frame, in order.
        self._uncredited: Deque[str] = collections.deque()
        self._reader = None
        self._writer = None
        self._reader_task: Optional[asyncio.Task] = None
        self._open_waiters: Dict[str, asyncio.Future] = {}
        self._close_waiters: Dict[str, asyncio.Future] = {}
        #: FIFO per session: the server answers FEEDBACKs in order.
        self._feedback_waiters: Dict[str, Deque[asyncio.Future]] = {}
        self._welcome: Optional[asyncio.Future] = None
        self._bye_event = asyncio.Event()
        self._closed_event = asyncio.Event()
        #: artificial per-read delay for simulating a slow consumer
        self.read_delay_s = 0.0

    async def connect(
        self,
        host: str,
        port: int,
        version: int = PROTOCOL_VERSION,
        timeout: float = 10.0,
    ) -> Welcome:
        loop = asyncio.get_running_loop()
        self._reader, self._writer = await asyncio.open_connection(
            host, port
        )
        self._welcome = loop.create_future()
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._writer.write(encode_frame(Hello(version)))
        await self._writer.drain()
        welcome = await asyncio.wait_for(self._welcome, timeout)
        self.credit_bytes = welcome.credit_bytes
        self._credit = welcome.credit_bytes
        self._credit_event.set()
        return welcome

    async def open(
        self,
        session_id: str,
        model_id: str = "",
        adaptive: bool = False,
        timeout: float = 30.0,
    ) -> Tuple[bool, float]:
        """OPEN a session; returns (admitted, retry_after_s).

        ``model_id`` selects one of the server's named models ("" =
        the default); ``adaptive=True`` requests a per-user prototype
        delta fed by :meth:`feedback`.  A shed OPEN returns
        ``(False, retry_after_s)``; one the service refuses (an unknown
        model, an id still open there, ...) raises ``RuntimeError``.
        The OPEN goes out once every SAMPLES frame already sent for
        ``session_id`` is credited.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        # An error answering a SAMPLES frame already sent for this id
        # (its session failed, say) names the id too.  Once every such
        # frame is credited, an error naming it can only answer this OPEN.
        while session_id in self._uncredited:
            self._credit_event.clear()
            if self._closed_event.is_set():
                raise ConnectionError("connection closed")
            await asyncio.wait_for(
                self._credit_event.wait(), deadline - loop.time()
            )
        future = loop.create_future()
        self._open_waiters[session_id] = future
        self._writer.write(
            encode_frame(Open(session_id, model_id, adaptive))
        )
        await self._writer.drain()
        return await asyncio.wait_for(future, deadline - loop.time())

    async def feedback(
        self,
        session_id: str,
        label: int,
        index: Optional[int] = None,
        timeout: float = 30.0,
    ) -> bool:
        """Send ground-truth feedback; returns the applied flag.

        ``index=None`` targets the most recent decided window of the
        session.  Raises ``RuntimeError`` if the server rejects the
        feedback (session not adaptive, index no longer retained, ...).
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._feedback_waiters.setdefault(
            session_id, collections.deque()
        ).append(future)
        self._writer.write(
            encode_frame(Feedback(session_id, label, index))
        )
        await self._writer.drain()
        return await asyncio.wait_for(future, timeout)

    async def send(
        self,
        session_id: str,
        samples: np.ndarray,
        stamp: Optional[float] = None,
    ) -> None:
        """Send one chunk, waiting for credit as needed."""
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        cost = samples.size * 8
        if cost > self.credit_bytes:
            raise ValueError(
                f"chunk of {cost} B exceeds the {self.credit_bytes} B "
                f"credit window; split it"
            )
        while self._credit < cost:
            self._credit_event.clear()
            if self._closed_event.is_set():
                raise ConnectionError("connection closed")
            await self._credit_event.wait()
        self._credit -= cost
        self._uncredited.append(session_id)
        if stamp is None:
            stamp = time.perf_counter()
        self._writer.write(
            encode_frame(Samples(session_id, samples, stamp))
        )
        await self._writer.drain()

    async def close(self, session_id: str, timeout: float = 30.0) -> None:
        """CLOSE a session; returns once the server confirms.  Raises
        ``RuntimeError`` if the session is not open there (it failed,
        say)."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._close_waiters[session_id] = future
        self._writer.write(encode_frame(Close(session_id)))
        await self._writer.drain()
        await asyncio.wait_for(future, timeout)

    async def bye(self, timeout: float = 30.0) -> None:
        """Flush-then-close handshake; returns once the server confirms."""
        self._writer.write(encode_frame(Bye()))
        await self._writer.drain()
        await asyncio.wait_for(self._bye_event.wait(), timeout)
        await self.aclose()

    async def aclose(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
            self._writer = None
        self._fail_waiters(ConnectionError("connection closed"))

    def _fail_waiters(self, exc: Exception) -> None:
        self._closed_event.set()
        self._credit_event.set()
        for waiters in (self._open_waiters, self._close_waiters):
            for future in waiters.values():
                if not future.done():
                    future.set_exception(exc)
            waiters.clear()
        for queue_ in self._feedback_waiters.values():
            for future in queue_:
                if not future.done():
                    future.set_exception(exc)
        self._feedback_waiters.clear()
        if self._welcome is not None and not self._welcome.done():
            self._welcome.set_exception(exc)

    async def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await self._reader.read(1 << 16)
                if not data:
                    break
                if self.read_delay_s:
                    await asyncio.sleep(self.read_delay_s)
                for frame in decoder.feed(data):
                    self._on_frame(frame)
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        finally:
            self._fail_waiters(ConnectionError("connection closed"))

    def _on_frame(self, frame) -> None:
        if isinstance(frame, Welcome):
            if self._welcome is not None and not self._welcome.done():
                self._welcome.set_result(frame)
            return
        if isinstance(frame, OpenOk):
            future = self._open_waiters.pop(frame.session_id, None)
            if future is not None and not future.done():
                future.set_result((True, 0.0))
            return
        if isinstance(frame, Credit):
            self._credit += frame.bytes
            if self._uncredited:
                self._uncredited.popleft()
            self._credit_event.set()
            return
        if isinstance(frame, DecisionFrame):
            latency: Optional[float] = None
            if frame.stamp == frame.stamp:  # not NaN
                latency = time.perf_counter() - frame.stamp
                self.latencies.append(latency)
            self.decisions.setdefault(frame.session_id, []).append(
                ClientDecision(
                    frame.session_id,
                    frame.index,
                    frame.raw_label,
                    frame.label,
                    latency,
                )
            )
            return
        if isinstance(frame, FeedbackOk):
            queue_ = self._feedback_waiters.get(frame.session_id)
            if queue_:
                future = queue_.popleft()
                if not future.done():
                    future.set_result(frame.applied)
            return
        if isinstance(frame, Closed):
            future = self._close_waiters.pop(frame.session_id, None)
            if future is not None and not future.done():
                future.set_result(None)
            return
        if isinstance(frame, Bye):
            self._bye_event.set()
            return
        if isinstance(frame, Error):
            self.errors.append(frame)
            if frame.code == ERR_SHED and frame.session_id:
                future = self._open_waiters.pop(frame.session_id, None)
                if future is not None and not future.done():
                    future.set_result((False, frame.retry_after_s))
            elif frame.session_id:
                future = self._first_waiter(frame.session_id)
                if future is not None and not future.done():
                    future.set_exception(RuntimeError(frame.message))

    def _first_waiter(self, session_id: str) -> Optional[asyncio.Future]:
        """Pop the request an error naming ``session_id`` answers: its
        pending OPEN, else its oldest FEEDBACK, else its pending CLOSE."""
        future = self._open_waiters.pop(session_id, None)
        if future is not None:
            return future
        queue_ = self._feedback_waiters.get(session_id)
        if queue_:
            return queue_.popleft()
        return self._close_waiters.pop(session_id, None)
