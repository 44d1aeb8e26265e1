"""Sharded multi-process streaming front end — an *elastic* fleet.

The single-process :class:`~repro.stream.scheduler.StreamingService`
saturates one core; this module scales the same serving semantics across
N worker processes, and lets the fleet **heal** (checkpoint + respawn),
**move** (live session migration), and **resize** (consistent-hash
resharding) without dropping or reordering a single decision.  The
design leans on facts the rest of the stack already guarantees:

* the HDC chain is a **pure function** of a window's quantised levels,
  and smoothing is a pure function of one session's own decision
  history — so partitioning *sessions* across workers cannot change any
  session's decision sequence.  Sharded output is therefore
  byte-identical to the single-process service on the same trace
  (pinned by the differential harness in
  ``tests/stream/test_sharded.py`` via :mod:`repro.stream.replay`);
* the model store makes workers **stateless replicas**: each worker
  rebuilds its classifier from one ``.npz`` file via
  :func:`repro.hdc.serialize.load_model_mmap`, so the packed matrices
  are read-only file mappings shared through the page cache instead of
  N private copies;
* every piece of *runtime* state in the serving path is an explicit,
  picklable value — the scheduler's ``snapshot()``/``restore()`` and
  ``extract_session()``/``inject_session()`` round-trip byte-exactly —
  so worker state can be checkpointed to a blob and a single session
  can be lifted out of one worker and dropped into another.

Architecture::

    caller ──► ShardedStreamingService (coordinator)
                 │  consistent-hash routing: shard_for(session_id, N)
                 │  global ingest clock stamped on every chunk
                 │  per-shard journal + checkpoint blob (repair debt)
                 ├─ pipe ─► worker 0: StreamingService
                 ├─ pipe ─► worker 1: StreamingService
                 └─ pipe ─► worker N-1 ...

**Transport.** The coordinator multiplexes commands over
``multiprocessing`` pipes with one per-shard credit window: a cap on
unacknowledged command bytes that makes the classic duplex-pipe
deadlock structurally impossible.  Every command is pickled once and
charged its real pickled size against that window.  Ingest chunks
travel as raw float64 bytes plus their shape: pickling a ``bytes``
object is a memcpy, where pickling the ndarray itself costs ~4x more
per chunk.
Readiness comes from one ``select.poll`` object that holds every live
shard pipe: each pump round polls it once (~0.5 µs for two pipes,
where each ``Connection.poll(0)`` builds and drops a selector for
~5 µs) and reads only the pipes it reports.  A pipe leaves the poller before it is
closed; ``select.poll`` keeps no kernel state, so forked workers
cannot keep a closed pipe reporting.  Replies that carry decisions
carry them as seven field columns, ``tuple(zip(*decisions))``, which
pickle and unpickle ~10x faster than a list of :class:`Decision`
objects; labels stay the model's own label objects.  Decisions are
delivered in per-session order (enforced, not assumed — an
out-of-order index raises), and the coordinator builds a
:class:`Decision` only for each row it delivers.  Every other reply
payload is filed under the op of the command it answers (matched by
seq), where the one synchronous request path picks it up.

**Repair.** The coordinator keeps a per-shard **journal** of every
state-bearing command since the shard's last **checkpoint**.
``checkpoint_shard`` quiesces a worker, pulls its full scheduler
snapshot (a versioned blob via :mod:`repro.hdc.serialize`), and then
truncates the journal — the invariant is that *checkpoint blob +
journal tail* always reconstructs the worker exactly, so the journal
may be cleared precisely when the blob covers everything in it (the
checkpoint command is sent after every journaled command, replies
arrive in order, and the single-threaded coordinator interleaves no
sends while waiting).  ``respawn_shard`` starts a fresh worker,
restores the blob, and replays only the journal tail with the original
ingest-clock ticks — O(since-checkpoint), not O(lifetime).  Because
every decision carries its per-session index, already-delivered
decisions are filtered while decisions lost in a crash are delivered
exactly once.  ``max_wait`` backpressure inside each worker runs on
the coordinator's global clock (injected via the scheduler's ``tick=``
hook), which is what makes replay deterministic.

**Migration and rescale.** ``migrate_session`` quiesces a session's
shard, extracts the session's state (windower buffer, vote history,
queued windows), injects it into another worker, and re-routes.  Both
halves are journaled commands — a replayed ``extract`` re-discards,
a replayed ``inject`` re-delivers (dup-filtered) — so repair and
migration compose.  ``rescale(n)`` grows or shrinks the fleet: new
workers spawn, the consistent-hash routing ring decides which sessions
move (growing a fleet moves sessions *only onto the new shards*;
shrinking moves *only the retiring shards'* sessions), each mover
migrates live, and retiring workers drain and stop.

**Load signals.** Two cost nothing to read, because the transport
already keeps them: :meth:`~ShardedStreamingService.credit_utilization`
(the mean fraction of the byte window in use) and
``oldest_queued_tick_age`` (the largest queue age, in ingest ticks,
any shard reported with its last ingest ack), the name the
single-process service uses for its own queue.  The ingress's
admission control reads them from either backend.

Fleet telemetry: every worker snapshots its scheduler into a
:class:`~repro.perf.streaming.StreamStats`; :meth:`stats` merges them
into one :class:`~repro.perf.streaming.FleetStats` (per-shard and
fleet-wide batch + decision-cache statistics, the tick queue-age
histogram, journal/checkpoint byte sizes, checkpoint/migration/rescale
counts).
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import multiprocessing
import pathlib
import pickle
import select
import traceback
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from ..hdc.serialize import (
    dumps_snapshot,
    load_model_mmap,
    loads_snapshot,
    model_info,
)
from ..perf.streaming import FleetStats, StreamStats
from .scheduler import StreamConfig, StreamingService, check_finite
from .session import Decision
from .windower import as_chunk

_READY = -1  # sentinel seq of the worker's startup handshake

#: Cap on unacknowledged command *bytes* per shard, charged at each
#: command's pickled size: the fleet's only credit window, and the
#: denominator of :meth:`ShardedStreamingService.credit_utilization`.
#: A worker that is blocked writing a large decision reply stops
#: reading commands; as long as the coordinator keeps its unread
#: command bytes below the pipe's kernel buffer it can never block in
#: ``send`` itself, so it always returns to the pump loop, reads the
#: reply, and unblocks the worker — the classic duplex-pipe deadlock
#: is structurally impossible.  32 KiB is far below any platform's
#: default socketpair buffer, and holds ~47 20-sample 4-channel ingests
#: in flight.
_MAX_INFLIGHT_BYTES = 32 << 10

#: Virtual nodes per shard on the consistent-hash routing ring.  More
#: vnodes → flatter load split; 64 keeps the worst shard within a few
#: percent of fair share for realistic session counts.
_RING_VNODES = 64


class ShardError(RuntimeError):
    """A worker reported an exception; carries the remote traceback.

    ``sent`` says whether the call that raised had already handed its
    own command to a worker (written to the pipe, or journaled for a
    respawned worker to replay) when the error surfaced.  It is False
    for a stale error of an earlier command found before the send:
    the command was dropped, so retrying it is safe.  When True, the
    command will be served, and retrying it would serve it twice.

    ``session_id`` names the session of the command the worker
    rejected, when that was a session's ingest; a stale error may name
    another session than the call it surfaced in.  It is None for any
    other command and for a crash.
    """

    def __init__(self, shard: int, detail: str):
        super().__init__(f"shard {shard}: {detail}")
        self.shard = shard
        self.detail = detail
        self.sent = False
        self.session_id: Optional[Hashable] = None


class ShardCrashError(ShardError):
    """A worker process died (pipe closed mid-conversation)."""


# -- routing -----------------------------------------------------------------


def session_key_bytes(session_id: Hashable) -> bytes:
    """Canonical byte encoding of a session id, for routing hashes.

    Explicitly handles the supported id types — ``str`` (UTF-8),
    ``bytes``/``bytearray`` (verbatim), and ``int`` (decimal) — each
    under a distinct type tag so ``"1"``, ``b"1"`` and ``1`` are three
    different keys, and rejects everything else (including ``bool``,
    whose int-ness would silently alias ``True`` with ``1``).  Hashing
    an explicit encoding instead of ``repr(session_id)`` makes routing
    independent of repr quirks and documented per type.
    """
    if isinstance(session_id, bool):
        raise TypeError(
            "bool session ids are not routable (they would alias 0/1); "
            "use str, bytes, or int"
        )
    if isinstance(session_id, str):
        return b"s:" + session_id.encode("utf-8")
    if isinstance(session_id, (bytes, bytearray)):
        return b"b:" + bytes(session_id)
    if isinstance(session_id, (int, np.integer)):
        return b"i:" + str(int(session_id)).encode("ascii")
    raise TypeError(
        f"session id type {type(session_id).__name__} is not routable; "
        f"use str, bytes, or int"
    )


@functools.lru_cache(maxsize=None)
def _shard_points(index: int) -> Tuple[int, ...]:
    """The ring positions of one shard's virtual nodes (stable forever)."""
    return tuple(
        int.from_bytes(
            hashlib.blake2b(
                f"repro-stream-shard:{index}:{vnode}".encode(),
                digest_size=8,
            ).digest(),
            "big",
        )
        for vnode in range(_RING_VNODES)
    )


@functools.lru_cache(maxsize=128)
def _hash_ring(n_shards: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Sorted (points, owners) of the ring over shards ``0..n_shards-1``."""
    pairs = sorted(
        (point, index)
        for index in range(n_shards)
        for point in _shard_points(index)
    )
    return (
        tuple(point for point, _ in pairs),
        tuple(index for _, index in pairs),
    )


def shard_for(session_id: Hashable, n_shards: int) -> int:
    """Consistent-hash placement of a session onto ``n_shards`` workers.

    BLAKE2b over :func:`session_key_bytes` positions the session on a
    ring of per-shard virtual nodes — deterministic across processes,
    machines, and Python runs (``hash()`` is salted), so a session
    always lands on the same shard and a respawned fleet partitions
    identically.  Consistency is what makes rescaling cheap: growing
    ``n → n+1`` moves sessions *only onto the new shard* (everything
    else keeps its owner), and shrinking moves *only the retired
    shard's* sessions.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    key = session_key_bytes(session_id)
    if n_shards == 1:
        return 0
    point = int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "big"
    )
    points, owners = _hash_ring(n_shards)
    idx = bisect.bisect_right(points, point)
    if idx == len(points):
        idx = 0  # wrap around the ring
    return owners[idx]


# -- the worker --------------------------------------------------------------


def _columns(decisions: List[Decision]) -> tuple:
    """A reply's decisions as seven field columns (``()`` for none).

    Columns of plain Python values pickle in ~0.1 µs per decision,
    against ~1.5 µs for a list of :class:`Decision` tuples.
    """
    return tuple(zip(*decisions))


def _shard_worker(
    conn,
    model_path: str,
    config: StreamConfig,
    shard_index: int,
    model_paths: Dict[str, str],
) -> None:
    """One shard: a private StreamingService over the shared model store.

    Runs the command loop until ``stop`` or until the coordinator goes
    away.  Every command is acknowledged in order; exceptions inside a
    command are reported (with traceback) instead of killing the worker.

    State-transfer ops speak the versioned snapshot envelope of
    :mod:`repro.hdc.serialize`: ``checkpoint`` returns the full
    scheduler snapshot as a ``"worker"`` blob, ``restore`` adopts one
    on a fresh service, ``extract``/``inject`` move a single session
    as a ``"session-transfer"`` blob.  An ingest chunk arrives as raw
    float64 bytes plus its shape, and is rebuilt here without a copy.

    Reply payloads have one shape per kind: decision columns (a tuple,
    see :func:`_columns`) for ``ingest``/``drain``/``inject``, a bool
    for ``feedback``, a snapshot blob (bytes) for ``checkpoint`` and
    ``extract``, a ``StreamStats`` for ``stats``, and None otherwise.
    """
    try:
        try:
            service = StreamingService(
                load_model_mmap(model_path),
                config,
                models={
                    mid: load_model_mmap(path)
                    for mid, path in model_paths.items()
                },
            )
        except Exception:
            conn.send(("err", _READY, traceback.format_exc()))
            return
        conn.send(("ok", _READY, None))
        while True:
            message = conn.recv()
            op, seq = message[0], message[1]
            age = None
            try:
                if op == "ingest":
                    _, _, sid, raw, shape, tick = message
                    samples = np.frombuffer(raw, dtype=np.float64)
                    payload = _columns(
                        service.ingest(sid, samples.reshape(shape), tick=tick)
                    )
                    # Piggyback the oldest-queued-window age so the
                    # coordinator can watch queue latency without an
                    # extra stats round-trip per tick.
                    age = service.oldest_queued_tick_age
                elif op == "open":
                    service.open_session(
                        message[2],
                        model_id=message[3],
                        adaptive=message[4],
                    )
                    payload = None
                elif op == "feedback":
                    # Journaled like ingest: feedback mutates serving
                    # state (the session's prototype delta), so respawn
                    # replay must re-apply it to reconstruct the worker.
                    payload = bool(
                        service.feedback(
                            message[2], message[3], index=message[4]
                        )
                    )
                elif op == "close":
                    service.close_session(message[2])
                    payload = None
                elif op == "drain":
                    payload = _columns(service.drain())
                elif op == "checkpoint":
                    payload = dumps_snapshot("worker", service.snapshot())
                elif op == "restore":
                    service.restore(loads_snapshot(message[2], "worker"))
                    payload = None
                elif op == "extract":
                    payload = dumps_snapshot(
                        "session-transfer",
                        service.extract_session(message[2]),
                    )
                elif op == "inject":
                    payload = _columns(
                        service.inject_session(
                            loads_snapshot(message[2], "session-transfer")
                        )
                    )
                elif op == "stats":
                    payload = StreamStats.collect(service, shard_index)
                elif op == "stop":
                    conn.send(("ok", seq, None))
                    return
                else:
                    raise ValueError(f"unknown shard command {op!r}")
            except Exception:
                conn.send(("err", seq, traceback.format_exc()))
                continue
            if age is None:
                conn.send(("ok", seq, payload))
            else:
                conn.send(("ok", seq, payload, age))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # coordinator went away; nothing left to serve
    finally:
        conn.close()


@dataclass
class _Shard:
    """Coordinator-side bookkeeping for one worker."""

    index: int
    process: multiprocessing.process.BaseProcess
    conn: object  # multiprocessing.connection.Connection
    fd: int  # the pipe's descriptor, its key in the coordinator's poller
    next_seq: int = 0
    #: seq -> (op, pickled size, journal position or None) of each
    #: unacknowledged command.  A journaled command the worker rejects
    #: ("err" reply) is tombstoned out of the journal — it did not
    #: contribute to worker state (the scheduler validates before
    #: mutating; the clock is injected), so replaying it on respawn
    #: would only re-raise the same error mid-repair.
    inflight: Dict[int, Tuple[str, int, Optional[int]]] = field(
        default_factory=dict
    )
    inflight_bytes: int = 0  # sum of the pickled sizes in ``inflight``
    #: State-bearing commands since the last checkpoint.  The repair
    #: invariant: ``checkpoint (blob) + journal`` always reconstructs
    #: the worker exactly; the journal is truncated *only* at the
    #: moment a fresh checkpoint blob covers everything in it.
    journal: List[Optional[tuple]] = field(default_factory=list)
    #: Last full worker snapshot (versioned "worker" blob), if any.
    checkpoint: Optional[bytes] = None
    #: op -> payload of the latest reply to a command that returns a
    #: value (a feedback flag, a snapshot blob, stats); ``_request``
    #: pops the one it waits for.
    replies: Dict[str, object] = field(default_factory=dict)
    respawns: int = 0
    #: Oldest-queued-window age in ticks the worker reported with its
    #: last ingest ack; zeroed by a fleet drain.
    queued_tick_age: int = 0


class ShardedStreamingService:
    """Hash-partitioned multi-process twin of :class:`StreamingService`.

    Same serving interface (``open_session`` / ``ingest`` / ``drain`` /
    ``close_session``), same per-session outputs, N cores — plus the
    elastic surface: :meth:`checkpoint_shard`, :meth:`migrate_session`
    and :meth:`rescale`.
    Decisions are returned as they are acknowledged: an ``ingest`` may
    return decisions of *other* sessions whose batches happened to
    complete, exactly like the single-process scheduler — and within
    one session the delivery order (by decision index) is strictly
    enforced.

    The coordinator never touches the model: workers rebuild it from
    ``model_path`` (the :mod:`repro.hdc.serialize` store), read-only
    memory-mapped so the fleet shares one physical copy.  Workers are
    forked where the platform offers ``fork``.
    """

    def __init__(
        self,
        model_path,
        config: StreamConfig = StreamConfig(),
        n_shards: int = 2,
        checkpoint_interval: Optional[int] = None,
        models: Optional[Dict[str, Union[str, pathlib.Path]]] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, "
                f"got {checkpoint_interval}"
            )
        info = model_info(model_path)  # validates magic/version early
        if config.window.slice_samples < info["ngram_size"]:
            raise ValueError(
                f"windows of {config.window.slice_samples} timestamps "
                f"cannot form the model's {info['ngram_size']}-grams"
            )
        self._model_path = str(model_path)
        self._model_paths: Dict[str, str] = {}
        # Channels per sample of each served model (None = the default).
        self._model_channels: Dict[Optional[str], int] = {
            None: info["n_channels"]
        }
        for mid, path in (models or {}).items():
            if not isinstance(mid, str) or not mid:
                raise ValueError(
                    f"model id must be a non-empty string, got {mid!r}"
                )
            extra = model_info(path)
            if config.window.slice_samples < extra["ngram_size"]:
                raise ValueError(
                    f"windows of {config.window.slice_samples} "
                    f"timestamps cannot form model {mid!r}'s "
                    f"{extra['ngram_size']}-grams"
                )
            self._model_paths[mid] = str(path)
            self._model_channels[mid] = extra["n_channels"]
        self._config = config
        self._checkpoint_interval = checkpoint_interval
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._session_shard: Dict[Hashable, int] = {}
        self._session_channels: Dict[Hashable, int] = {}
        self._delivered: Dict[Hashable, int] = {}
        self._ready: List[Decision] = []
        self._clock = 0
        self._closed = False
        self.checkpoints = 0  # lifetime elastic-operation counters
        self.migrations = 0
        self.rescales = 0
        # Every live shard pipe, polled together: fd -> shard.
        self._poller = select.poll()
        self._pipes: Dict[int, _Shard] = {}
        self._shards: List[_Shard] = []
        try:
            for index in range(n_shards):
                self._shards.append(self._spawn(index))
        except Exception:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, index: int) -> _Shard:
        """Start one worker and handshake."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                child_conn,
                self._model_path,
                self._config,
                index,
                self._model_paths,
            ),
            name=f"repro-stream-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent's copy; worker keeps its own end
        shard = _Shard(index, process, parent_conn, parent_conn.fileno())
        try:
            kind, seq, payload = self._recv(shard)
        except ShardCrashError:
            self._stop_shard(shard)
            raise
        if kind != "ok" or seq != _READY:
            self._stop_shard(shard)
            raise ShardError(index, str(payload))
        self._pipes[shard.fd] = shard
        self._poller.register(shard.fd, select.POLLIN)
        return shard

    def _unregister(self, shard: _Shard) -> None:
        """Take a shard's pipe out of the poller; call before closing it.

        A no-op for a pipe that is not registered, or whose descriptor
        number a newer shard already reuses.
        """
        if self._pipes.get(shard.fd) is shard:
            del self._pipes[shard.fd]
            self._poller.unregister(shard.fd)

    def _stop_shard(self, shard: _Shard) -> None:
        """Stop one worker and close its pipe (idempotent)."""
        self._unregister(shard)
        try:
            shard.conn.send(("stop", shard.next_seq))
        except Exception:
            pass
        try:
            shard.conn.close()
        except Exception:
            pass
        shard.process.join(timeout=2.0)
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=2.0)

    def close(self) -> None:
        """Stop all workers (idempotent).  Pending windows are dropped —
        call :meth:`drain` first for a clean shutdown."""
        self._closed = True
        for shard in self._shards:
            self._stop_shard(shard)

    def __enter__(self) -> "ShardedStreamingService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of worker shards."""
        return len(self._shards)

    @property
    def clock(self) -> int:
        """The coordinator's global ingest clock."""
        return self._clock

    @property
    def config(self) -> StreamConfig:
        """The per-shard scheduler configuration."""
        return self._config

    @property
    def model_path(self) -> str:
        """The model store every shard serves from."""
        return self._model_path

    @property
    def model_ids(self) -> Tuple[str, ...]:
        """Ids of the extra models loaded beside the default one."""
        return tuple(self._model_paths)

    @property
    def session_ids(self) -> Tuple[Hashable, ...]:
        """Open session ids, in opening order."""
        return tuple(self._session_shard)

    def shard_of(self, session_id: Hashable) -> int:
        """The shard an *open* session is currently routed to."""
        try:
            return self._session_shard[session_id]
        except KeyError:
            raise KeyError(
                f"session {session_id!r} is not open"
            ) from None

    def shard_process(self, index: int):
        """The worker process of one shard (tests kill it on purpose)."""
        return self._shards[index].process

    def shard_respawns(self, index: int) -> int:
        """How many times a shard has been respawned."""
        return self._shards[index].respawns

    def journal_length(self, index: int) -> int:
        """Commands journaled for one shard since its last checkpoint."""
        return len(self._shards[index].journal)

    def journal_bytes(self, index: int) -> int:
        """Approximate bytes a respawn of this shard would replay."""
        return sum(
            self._entry_bytes(entry)
            for entry in self._shards[index].journal
            if entry is not None
        )

    def checkpoint_bytes(self, index: int) -> int:
        """Size of the shard's last checkpoint blob (0 if none)."""
        blob = self._shards[index].checkpoint
        return len(blob) if blob is not None else 0

    @property
    def total_delivered(self) -> int:
        """Decisions handed to the caller across all sessions."""
        return sum(self._delivered.values())

    # -- the data path -----------------------------------------------------

    def open_session(
        self,
        session_id: Hashable,
        model_id: Optional[str] = None,
        adaptive: bool = False,
    ) -> int:
        """Open a stream; returns the shard index it is partitioned to.

        ``model_id`` routes the stream to one of the extra models the
        fleet was constructed with (None = the default model), and
        ``adaptive=True`` attaches a per-user prototype delta fed by
        :meth:`feedback` — both travel in the journal, so a respawned
        worker reopens the session identically.

        Unlike the single-process service, session ids must be unique
        over the *lifetime* of the coordinator, not just while open:
        the respawn journal and the exactly-once delivery filter
        identify a session's decisions by ``(id, per-session index)``,
        which a reused id would make ambiguous.
        """
        self._ensure_open()
        if session_id in self._session_shard:
            raise ValueError(f"session {session_id!r} is already open")
        if session_id in self._delivered:
            raise ValueError(
                f"session id {session_id!r} was already used; sharded "
                f"session ids must be unique over the service lifetime"
            )
        if model_id is not None and model_id not in self._model_paths:
            raise KeyError(
                f"unknown model id {model_id!r}; known extra models: "
                f"{sorted(self._model_paths)}"
            )
        index = shard_for(session_id, len(self._shards))
        self._post(
            self._shards[index],
            ("open", session_id, model_id, bool(adaptive)),
        )
        self._session_shard[session_id] = index
        self._session_channels[session_id] = self._model_channels[model_id]
        self._delivered[session_id] = 0
        return index

    def feedback(
        self,
        session_id: Hashable,
        label: Hashable,
        index: Optional[int] = None,
    ) -> bool:
        """Apply ground-truth feedback to an adaptive session.

        Mirrors ``StreamingService.feedback``: the labelled window
        (``index=None`` = the most recent decided one) is re-encoded on
        the session's shard and folded into its private prototype
        delta.  Synchronous — returns the worker's ``applied`` flag
        once every command sent so far has been acknowledged.  The
        command is journaled, so respawn replay reconstructs the
        adapted prototypes exactly.
        """
        self._ensure_open()
        try:
            shard_index = self._session_shard[session_id]
        except KeyError:
            raise KeyError(
                f"session {session_id!r} is not open"
            ) from None
        return self._request(
            shard_index, ("feedback", session_id, label, index)
        )

    def close_session(self, session_id: Hashable) -> None:
        """Close a stream; its already-queued windows still dispatch."""
        self._ensure_open()
        try:
            index = self._session_shard.pop(session_id)
        except KeyError:
            raise KeyError(
                f"session {session_id!r} is not open"
            ) from None
        del self._session_channels[session_id]
        self._post(self._shards[index], ("close", session_id))

    def ingest(
        self, session_id: Hashable, samples: np.ndarray
    ) -> List[Decision]:
        """Route one chunk to its session's shard; collect ready results.

        Stamps the chunk with the next global ingest tick (all shards
        age their ``max_wait`` windows on fleet-wide traffic), applies
        per-shard backpressure, and returns every decision — from any
        shard — acknowledged by the time the call completes.

        A chunk with a non-finite sample, or of a shape the session's
        windower would refuse, raises ``ValueError`` here, before it is
        journaled or sent, so the error reaches this call and never
        another session's.

        Retry rule: a :class:`ShardError` raised here may report an
        earlier command of any session.  If its ``sent`` is False, this
        chunk was dropped before it reached a worker, and the caller
        may ingest it again.  If ``sent`` is True, the chunk was sent
        and journaled and will be served; ingesting it again would
        serve it twice.
        """
        self._ensure_open()
        try:
            index = self._session_shard[session_id]
        except KeyError:
            raise KeyError(
                f"session {session_id!r} is not open"
            ) from None
        samples = np.ascontiguousarray(samples, dtype=np.float64)
        check_finite(samples)
        samples = as_chunk(samples, self._session_channels[session_id])
        self._clock += 1
        self._post(
            self._shards[index],
            ("ingest", session_id, samples, self._clock),
        )
        try:
            self._pump_all()
        except ShardError as exc:
            exc.sent = True
            raise
        return self._take_ready()

    def pump(self) -> List[Decision]:
        """Collect decisions already acknowledged, without new input."""
        self._ensure_open()
        self._pump_all()
        return self._take_ready()

    def drain(self) -> List[Decision]:
        """Flush every shard's pending windows; block for all results.

        Afterwards no shard holds a queued window, so every shard's
        reported queue age is zeroed with it.
        """
        self._ensure_open()
        for shard in self._shards:
            self._post(shard, ("drain",))
        for shard in self._shards:
            self._flush(shard)
        # Re-read the list: a flush that respawned a shard replaced it.
        for shard in self._shards:
            shard.queued_tick_age = 0
        return self._take_ready()

    def stats(self) -> FleetStats:
        """Merged per-shard + fleet-wide serving statistics.

        Synchronous: each shard's snapshot is taken after everything the
        coordinator sent it so far has been acknowledged, so after a
        ``drain`` the numbers are exact, not racy.  A shard whose worker
        dies mid-snapshot is respawned and asked once more.
        Coordinator-side elastic telemetry (journal/checkpoint sizes,
        operation counts) rides along.
        """
        self._ensure_open()
        snapshots = []
        for index in range(len(self._shards)):
            try:
                snapshot = self._request(index, ("stats",), journal=False)
            except ShardCrashError:
                snapshot = self._request(index, ("stats",), journal=False)
            snapshots.append(snapshot)
        return FleetStats(
            shards=tuple(snapshots),
            journal_bytes=tuple(
                self.journal_bytes(i) for i in range(len(self._shards))
            ),
            checkpoint_bytes=tuple(
                self.checkpoint_bytes(i) for i in range(len(self._shards))
            ),
            checkpoints=self.checkpoints,
            migrations=self.migrations,
            rescales=self.rescales,
        )

    # -- elastic operations ------------------------------------------------

    def checkpoint_shard(self, index: int) -> int:
        """Snapshot one worker's full state; truncate its journal.

        Quiesces the shard (every outstanding command acknowledged),
        pulls the versioned ``"worker"`` snapshot blob, and *then*
        clears the journal: at that moment the blob provably covers
        every journaled command — the checkpoint command was sent after
        all of them, replies arrive in seq order, and the
        single-threaded coordinator sent nothing else while waiting.
        Returns the blob size in bytes.  A respawn afterwards restores
        the blob and replays only commands journaled since.  If the
        worker dies mid-checkpoint, it is respawned from the intact
        journal and :class:`ShardCrashError` says the checkpoint did
        not happen.
        """
        self._ensure_open()
        blob = self._request(index, ("checkpoint",), journal=False)
        shard = self._shards[index]
        shard.checkpoint = blob
        shard.journal.clear()
        self.checkpoints += 1
        return len(shard.checkpoint)

    def migrate_session(
        self, session_id: Hashable, to_shard: int
    ) -> List[Decision]:
        """Move one live session to another worker, byte-exactly.

        Quiesce → extract → re-route → inject: the source shard is
        flushed (its in-flight decisions deliver first), the session's
        state — windower buffer, vote history, decision counter, and
        its still-queued windows — travels as a versioned
        ``"session-transfer"`` blob, and the destination merges the
        queued windows into its ready queue by original ingest tick and
        pumps.  Both halves are journaled, so crash repair on either
        side replays them (duplicates are index-filtered).  The
        migrated stream's decision sequence is byte-identical to one
        that never moved.  A stale :class:`ShardError` of an earlier
        command that surfaces at the destination is raised only once
        the inject is sent (``sent`` is True): the session is live
        there, and the next call returns the decisions collected
        meanwhile.
        """
        self._ensure_open()
        self._migrate_session(session_id, to_shard)
        return self._take_ready()

    def _migrate_session(self, session_id: Hashable, to_shard: int) -> None:
        try:
            src_index = self._session_shard[session_id]
        except KeyError:
            raise KeyError(
                f"session {session_id!r} is not open"
            ) from None
        if not 0 <= to_shard < len(self._shards):
            raise ValueError(
                f"shard {to_shard} out of range "
                f"(fleet has {len(self._shards)})"
            )
        if to_shard == src_index:
            return
        blob = self._request(src_index, ("extract", session_id))
        # The source has given the session up, so route it to the
        # destination before the inject's post: the journaled inject
        # reaches the destination even when the auto-checkpoint that
        # can follow the post fails.
        self._session_shard[session_id] = to_shard
        self.migrations += 1
        # The blob is now the session's only copy.  A stale error of an
        # earlier command can abort the post before the send; that
        # command is settled once it surfaces, so post again, and raise
        # the first such error only once the inject is on its way.
        stale: Optional[ShardError] = None
        while True:
            try:
                self._post(self._shards[to_shard], ("inject", blob))
                break
            except ShardError as exc:
                if exc.sent:
                    raise
                stale = stale or exc
        if stale is not None:
            stale.sent = True
            raise stale

    def rescale(self, n_shards: int) -> List[Decision]:
        """Grow or shrink the fleet to ``n_shards`` workers, live.

        New workers spawn first; the consistent-hash ring then names
        exactly the sessions whose owner changes (growing moves
        sessions only *onto new shards*, shrinking only *off retiring
        shards*), and each one migrates with its full state.  Retiring
        workers drain (delivering any still-queued windows, including
        those of already-closed sessions) and stop.  Per-session
        decision streams are byte-identical to a fleet that never
        rescaled.  Returns the decisions delivered along the way.
        """
        self._ensure_open()
        self._rescale(n_shards)
        return self._take_ready()

    def _rescale(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        old_n = len(self._shards)
        if n_shards == old_n:
            return
        for index in range(old_n, n_shards):
            self._shards.append(self._spawn(index))
        moves = [
            (sid, shard_for(sid, n_shards))
            for sid, current in list(self._session_shard.items())
            if shard_for(sid, n_shards) != current
        ]
        # A stale error of an earlier command can surface in any move.
        # As in respawn replay it does not stop the resize: a move it
        # aborted before the send is retried, never skipped, and the
        # first error is raised once the resize is done and counted.
        deferred: List[ShardError] = []
        pos = 0
        while pos < len(moves):
            try:
                self._migrate_session(*moves[pos])
                pos += 1
            except ShardCrashError:
                raise
            except ShardError as exc:
                deferred.append(exc)
                if exc.sent:
                    pos += 1
        if n_shards < old_n:
            # Drain the retiring workers *while they are still in the
            # routing table* (a crash mid-drain then heals through the
            # normal respawn path), delivering anything still inside
            # them — e.g. queued windows of sessions closed before the
            # rescale — then stop them and drop them from the fleet.
            for shard in self._shards[n_shards:]:
                self._post(shard, ("drain",))
                self._flush(shard)
            retiring = self._shards[n_shards:]
            del self._shards[n_shards:]
            for shard in retiring:
                self._stop_shard(shard)
        self.rescales += 1
        if deferred:
            raise deferred[0]

    def credit_utilization(self) -> float:
        """Mean fraction of the shards' byte credit windows in use (0..1).

        A shard holding one oversized command counts as full.  Ingress
        admission control reads this between ingests; it costs nothing
        (pure coordinator bookkeeping, no worker round-trip).
        """
        return sum(
            min(s.inflight_bytes, _MAX_INFLIGHT_BYTES) for s in self._shards
        ) / (len(self._shards) * _MAX_INFLIGHT_BYTES)

    @property
    def oldest_queued_tick_age(self) -> int:
        """Largest oldest-queued-window age, in ticks, that any shard
        reported with its last ingest ack (0 after a :meth:`drain`)."""
        return max(s.queued_tick_age for s in self._shards)

    # -- shard repair ------------------------------------------------------

    def respawn_shard(self, index: int) -> None:
        """Replace one worker with a fresh process, without data loss.

        Works on a live shard (graceful: outstanding work is collected,
        the worker is stopped cleanly) and on a crashed one (salvage:
        replies still sitting in the pipe are delivered first).  The new
        worker first restores the shard's last checkpoint blob (if one
        exists), then replays the journal — which holds only commands
        since that checkpoint — with the original ingest ticks,
        re-deriving the lost scheduler state in O(since-checkpoint)
        work; decisions the caller already saw are filtered by
        per-session index, so nothing is delivered twice and nothing is
        lost.

        Worker-side command errors encountered along the way (salvaged
        "err" acks, or an unacknowledged bad command hitting the fresh
        worker during replay) never abort the repair: the offending
        entries are tombstoned, the replay runs to completion, and the
        first such error is re-raised once the shard is healthy.
        """
        self._ensure_open()
        shard = self._shards[index]
        deferred: List[ShardError] = []
        # Salvage every complete reply still buffered in the pipe —
        # whether the worker is alive (graceful path: this is a flush)
        # or dead (crash path: the kernel buffer may still hold acks).
        try:
            if shard.process.is_alive():
                while shard.inflight:
                    self._wait_one(shard, deferred)
                shard.conn.send(("stop", shard.next_seq))
                shard.process.join(timeout=2.0)
            else:
                while self._readable(shard):
                    self._wait_one(shard, deferred)
        except (ShardCrashError, EOFError, OSError, BrokenPipeError):
            pass  # died mid-flush: the journal replay recovers the rest
        self._unregister(shard)
        try:
            shard.conn.close()
        except Exception:
            pass
        if shard.process.is_alive():
            shard.process.terminate()
            shard.process.join(timeout=2.0)

        # Compact tombstones out before replaying.
        journal = [e for e in shard.journal if e is not None]
        checkpoint = shard.checkpoint
        respawns = shard.respawns + 1
        fresh = self._spawn(index)
        fresh.journal = journal
        fresh.checkpoint = checkpoint
        fresh.respawns = respawns
        self._shards[index] = fresh
        # Restore the checkpoint first: the journal holds only commands
        # sent after the blob was taken, so blob + tail is the exact
        # worker state.  A restore failure is not deferrable — replay
        # against the wrong base would fabricate state — so it raises.
        if checkpoint is not None:
            self._send(fresh, ("restore", checkpoint), journal=False)
            while fresh.inflight:
                self._wait_one(fresh)
        # Replay: same commands, same ticks -> same scheduler decisions.
        # Duplicates are dropped in _deliver by per-session index.  A
        # replayed entry that errs (possible only for a command the old
        # worker died on before acknowledging) is tombstoned by the
        # reply handler and its error deferred; the entry whose _send
        # was aborted by that stale error is retried, never skipped.
        pos = 0
        while pos < len(journal):
            entry = journal[pos]
            if entry is None:  # tombstoned while replaying
                pos += 1
                continue
            try:
                self._send(fresh, entry, journal_pos=pos)
                pos += 1
            except ShardCrashError:
                raise
            except ShardError as exc:
                deferred.append(exc)
        while fresh.inflight:
            self._wait_one(fresh, deferred)
        if deferred:
            raise deferred[0]

    # -- internals ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    @staticmethod
    def _entry_bytes(entry: tuple) -> int:
        """Journal-size estimate of one entry (payloads dominate)."""
        cost = 512
        if entry[0] == "ingest":
            cost += entry[2].nbytes
        elif entry[0] in ("inject", "restore"):
            cost += len(entry[1])
        return cost

    def _send(
        self,
        shard: _Shard,
        entry: tuple,
        journal: bool = False,
        journal_pos: Optional[int] = None,
    ) -> int:
        """Low-level send with backpressure; raises ShardCrashError.

        Pickles the command once (an ingest chunk as its raw float64
        bytes plus shape); those exact bytes are charged against the
        unacked-bytes credit window and written to the pipe.

        The journal records exactly the commands the worker has been
        handed, in hand-over order — so ``journal=True`` appends the
        entry only *after* ``conn.send`` succeeds.  Aborting earlier
        (backpressure waits and the pre-send pump can surface a stale
        "err" reply of an *earlier* command as ShardError) must leave
        no trace: a journaled-but-never-sent command would make a later
        respawn replay serve a stream the live worker never saw.
        ``journal_pos`` instead names an *existing* slot (respawn
        replay).  Either way the in-flight record keeps the slot, so an
        "err" reply can tombstone the entry.  Returns the seq.
        """
        self._pump(shard)
        # The credit wait below only receives replies, so next_seq is
        # already this command's seq.
        seq = shard.next_seq
        if entry[0] == "ingest":
            _, sid, samples, tick = entry
            wire = (
                "ingest", seq, sid, samples.tobytes(), samples.shape, tick
            )
        else:
            wire = (entry[0], seq) + entry[1:]
        data = pickle.dumps(wire)
        # The byte credit window (deadlock-freedom invariant, see module
        # top).  An oversized single command waits for an idle worker.
        while (
            shard.inflight
            and shard.inflight_bytes + len(data) > _MAX_INFLIGHT_BYTES
        ):
            self._wait_one(shard)
        shard.next_seq += 1
        try:
            shard.conn.send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise ShardCrashError(shard.index, str(exc)) from None
        if journal:
            shard.journal.append(entry)
            journal_pos = len(shard.journal) - 1
        shard.inflight[seq] = (entry[0], len(data), journal_pos)
        shard.inflight_bytes += len(data)
        return seq

    def _post(
        self, shard: _Shard, entry: tuple, journal: bool = True
    ) -> None:
        """Send one command; transparently respawn on worker crash.

        Invariant: the journal tracks what the worker was actually
        handed.  On a clean send, ``_send`` journals the entry; if the
        send aborts on a ShardError (a stale "err" of an earlier
        command), the entry is neither sent nor journaled — the caller
        sees the exception and may simply retry.  If the *worker died*,
        the entry is journaled here and the respawn's journal replay
        hands it to the replacement: at-least-once delivery into a
        worker, exactly-once delivery of decisions to the caller (the
        per-session index filter drops replayed duplicates).

        A ``checkpoint_interval`` triggers an automatic
        :meth:`checkpoint_shard` once a shard's journal reaches that
        many entries, bounding every future respawn's replay debt.

        Any :class:`ShardError` leaving here carries ``sent``: True once
        the entry was written to the pipe or journaled for replay.
        """
        sent = False
        try:
            try:
                self._send(shard, entry, journal=journal)
            except ShardCrashError:
                if journal:
                    # Never processed by the dead worker; the replacement
                    # picks it up from the journal during replay.
                    shard.journal.append(entry)
                    sent = True
                self.respawn_shard(shard.index)
                if not journal:
                    # Non-journaled commands (stats/checkpoint) are not
                    # replayed; the caller retries.
                    raise
                return
            sent = True
            # Auto-checkpoint when the journal hits the interval —
            # except on an "extract" post: a worker crash inside that
            # checkpoint would fail the migration after the worker had
            # already given the session up (the next journaled post
            # triggers instead).
            if (
                journal
                and entry[0] != "extract"
                and self._checkpoint_interval is not None
                and len(shard.journal) >= self._checkpoint_interval
            ):
                self.checkpoint_shard(shard.index)
        except ShardError as exc:
            exc.sent = sent
            raise

    def _recv(self, shard: _Shard):
        try:
            return shard.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardCrashError(
                shard.index, f"worker died ({exc!r})"
            ) from None

    def _wait_one(
        self, shard: _Shard, deferred: Optional[List[ShardError]] = None
    ) -> None:
        """Read and handle one reply.  With ``deferred`` (repair), a
        command error is collected there (and tombstoned by
        ``_handle_reply``) instead of raised."""
        message = self._recv(shard)
        try:
            self._handle_reply(shard, message)
        except ShardError as exc:
            if deferred is None:
                raise
            deferred.append(exc)

    def _readable(self, shard: _Shard) -> bool:
        """Whether the shard's pipe has a reply (or EOF) to read now."""
        return any(fd == shard.fd for fd, _ in self._poller.poll(0))

    def _pump(self, shard: _Shard) -> None:
        """Handle every complete reply of one shard without blocking."""
        while shard.inflight and self._readable(shard):
            self._wait_one(shard)

    def _pump_all(self) -> None:
        """Handle every complete reply of every shard without blocking.

        Each round polls all pipes once and reads one reply from each
        ready shard that has commands outstanding, until no such shard
        is ready.  A worker found dead here, while collecting other
        sessions' decisions, is repaired in place instead of failing
        the caller's unrelated ingest.
        """
        while True:
            polled = [self._pipes[fd] for fd, _ in self._poller.poll(0)]
            ready = [shard for shard in polled if shard.inflight]
            if not ready:
                return
            for shard in ready:
                try:
                    self._wait_one(shard)
                except ShardCrashError:
                    self.respawn_shard(shard.index)

    def _flush(self, shard: _Shard) -> None:
        """Block until the shard has acknowledged everything sent."""
        while shard.inflight:
            try:
                self._wait_one(shard)
            except ShardCrashError:
                self.respawn_shard(shard.index)
                return  # respawn already flushed the replacement

    def _request(
        self, index: int, entry: tuple, journal: bool = True
    ) -> object:
        """Send one command to a quiesced shard; return its reply.

        A journaled request is the last journal entry when it is
        posted, so a respawn replays it last and files its reply last.
        A non-journaled one (``checkpoint``, ``stats``) is never
        replayed: if the worker dies on it, no reply is filed and
        :class:`ShardCrashError` says so.
        """
        self._flush(self._shards[index])
        self._post(self._shards[index], entry, journal=journal)
        # A crash inside _post or _flush respawns the shard, replacing
        # the _Shard object, so it is re-read after each.  Only this
        # command is in flight now, so an error here is its own.
        try:
            self._flush(self._shards[index])
        except ShardError as exc:
            exc.sent = True
            raise
        try:
            return self._shards[index].replies.pop(entry[0])
        except KeyError:
            raise ShardCrashError(
                index, f"{entry[0]} did not complete"
            ) from None

    def _handle_reply(self, shard: _Shard, message) -> None:
        """Settle the command a reply answers (matched by seq): deliver
        its decision columns, or file any other payload under its op."""
        kind, seq, payload = message[0], message[1], message[2]
        if len(message) > 3:
            shard.queued_tick_age = message[3]
        op, size, journal_pos = shard.inflight.pop(seq)
        shard.inflight_bytes -= size
        if kind == "err":
            error = ShardError(shard.index, payload)
            if journal_pos is not None:
                if op == "ingest":
                    error.session_id = shard.journal[journal_pos][1]
                # The worker rejected the command without mutating its
                # serving state; keeping it would poison every future
                # journal replay with the same error.
                shard.journal[journal_pos] = None
            raise error
        if op in ("ingest", "drain", "inject"):
            self._deliver(payload)
        elif payload is not None:
            shard.replies[op] = payload

    def _deliver(self, columns: tuple) -> None:
        """Exactly-once filter over one reply's decision columns.

        Reads each row's session id and index; a :class:`Decision` is
        built only for the rows handed to the caller.
        """
        delivered = self._delivered
        for row in zip(*columns):
            sid, index = row[0], row[1]
            count = delivered.get(sid, 0)
            if index != count:
                if index < count:
                    continue  # journal-replay duplicate, delivered
                raise RuntimeError(
                    f"out-of-order delivery for session {sid!r}: got "
                    f"index {index}, expected {count}"
                )
            delivered[sid] = count + 1
            self._ready.append(Decision._make(row))

    def _take_ready(self) -> List[Decision]:
        out = self._ready
        self._ready = []
        return out
