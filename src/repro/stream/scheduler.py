"""Multi-session batching scheduler over the packed HD engine.

N independent sessions push samples at arbitrary rates; the scheduler
coalesces every *ready* window — across all sessions — into single
batched encode + AM-search calls on the shared packed engine: one
:class:`~repro.hdc.engine.HypervectorArray` pass per dispatch instead of
one per session.  Because the batched kernels are row-independent (the
window majority and the AM search never mix rows), a multiplexed batch
predicts bit-identically to per-session calls — and to the offline
:class:`~repro.hdc.batch.BatchHDClassifier` on the same windows
(pinned end-to-end by ``tests/stream/test_scheduler.py``).

Backpressure is two-knobbed, on a deterministic logical clock (one tick
per ingest call):

* ``max_batch`` — a dispatch never carries more windows than this; a
  full queue drains in consecutive full batches.
* ``max_wait`` — a partial batch dispatches once its oldest window has
  waited this many ticks, bounding decision staleness when traffic is
  light.  ``0`` dispatches on every ingest (lowest latency, smallest
  batches); larger values trade staleness for throughput.

The data path works a chunk or a batch at a time, not a window at a
time: a session's windower returns each chunk's completed windows as
one array, which is queued as it is; a dispatch builds every cache key
of a batch in one pass and maps winners to labels once per
classification group; and each queue item's decisions are built in one
call on its session.

The service keeps only the state decisions depend on, plus lifetime
counters (windows, batches, engine seconds, cache hits) and one
queue-age histogram in ingest ticks.  It records no per-decision or
per-batch log: each call returns its decisions, and a simulated device
total is the window count times one per-window constant of a
:class:`~repro.perf.calibration.DevicePerfModel`.

Each served model keeps one decision cache, bit-exactly: it memoizes
winners by quantised window pattern *across* batches — the whole chain
is a pure function of those integer levels and the model's prototypes,
so a repeat is a dict hit instead of a re-encode.  A key is the
window's levels as ``bytes``, one byte a level for models of up to 256
levels.  The misses of a batch go through the encoder's tiled chain in
one call (:mod:`repro.hdc.encoder`).  The cache is an LRU: a batch's
hits move to the most-recently-used end, its misses join there, and
the least-recently-used entries beyond the limit are evicted (hot
plateau patterns survive bursts of cold ones).  Since it only ever
short-circuits a pure function, any eviction policy is bit-exact by
construction, and checkpoints leave it out: a restored service starts
cold and decides identically.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from ..emg.windows import WindowConfig
from ..hdc import engine
from ..hdc.batch import BatchHDClassifier
from ..hdc.online import AdaptConfig, SessionDelta
from ..hdc.serialize import CutoverError
from ..perf.streaming import LatencyHistogram, tick_histogram
from .session import Decision, Session


@dataclass(frozen=True)
class StreamConfig:
    """Service-wide streaming parameters.

    All sessions share one window geometry (they are classified by one
    model) and one scheduler policy.  Callers get the full decision
    stream from the return values of ``ingest`` / ``pump`` / ``drain``;
    the service retains none of it.
    """

    window: WindowConfig = field(default_factory=WindowConfig)
    sample_rate_hz: int = 500
    max_batch: int = 256
    max_wait: int = 0
    smooth: int = 1
    #: Entries each served model's decision cache holds: a key of one
    #: byte per level (up to 256 levels) plus one small int each, ~185 B
    #: of RSS for a 5-sample, 4-channel window on 64-bit CPython 3.11,
    #: so the default bounds a model's cache at ~185 MiB.  The
    #: encode + AM-search chain is a pure function of the quantised
    #: window pattern, so a repeated pattern's winner is served from a
    #: dict hit instead of a re-encode — bit-exactly.  Plateau-heavy
    #: biosignal streams repeat patterns constantly.  When full, the
    #: least-recently-used entries are evicted, so a hot pattern never
    #: goes cold just because the service saw many one-off patterns
    #: since it was last refreshed.
    decision_cache_limit: int = 1 << 20
    #: Per-session adaptation policy, applied to sessions opened with
    #: ``adaptive=True`` (see :class:`~repro.hdc.online.AdaptConfig`).
    adapt: AdaptConfig = field(default_factory=AdaptConfig)

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_wait < 0:
            raise ValueError(
                f"max_wait must be >= 0, got {self.max_wait}"
            )
        if self.smooth < 1:
            raise ValueError(f"smooth must be >= 1, got {self.smooth}")
        if self.decision_cache_limit < 1:
            raise ValueError(
                f"decision_cache_limit must be >= 1, "
                f"got {self.decision_cache_limit}"
            )


@dataclass
class _ModelEntry:
    """One served model: the classifier plus its decision cache.

    ``cache`` maps a window's quantised level bytes to the index of its
    winning prototype, oldest-used entry first.  It memoizes this
    model's shared prototypes only, so two models can never collide on
    a window pattern, and :meth:`StreamingService.swap_model` gives the
    entry a fresh cache.  ``key_dtype`` is the smallest integer type
    that holds every level of the model (uint8 for up to 256 levels),
    so a key costs one byte per level there.
    """

    model_id: Optional[str]
    model: BatchHDClassifier
    proto_words: np.ndarray
    labels: tuple
    key_dtype: np.dtype
    cache: "OrderedDict[bytes, int]" = field(default_factory=OrderedDict)


def check_finite(samples: np.ndarray) -> None:
    """Reject a chunk holding a NaN or infinite sample.

    A NaN quantises to an out-of-range level, and the encode of the
    shared batch it lands in would then fail for every session in that
    batch.  Checking at ingest confines the error to the caller whose
    chunk carried it.
    """
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite (got NaN or inf)")


def cache_keys(levels: np.ndarray, key_dtype: np.dtype) -> List[bytes]:
    """Decision-cache keys of ``(n, T, channels)`` quantised windows:
    each window's levels as one ``bytes`` row of ``key_dtype``, built in
    one pass."""
    rows = levels.reshape(levels.shape[0], -1).astype(key_dtype)
    row_bytes = np.dtype((np.void, rows.shape[1] * rows.itemsize))
    return rows.view(row_bytes).ravel().tolist()


class StreamingService:
    """The serving front end: sessions in, smoothed decisions out.

    Owns one or more *fitted* :class:`BatchHDClassifier` instances
    (typically rebuilt from the model store — serving never retrains)
    and any number of concurrent sessions, each routed to its model by
    id.  Sessions opened with ``adaptive=True`` additionally carry a
    copy-on-write :class:`~repro.hdc.online.SessionDelta` over their
    model's read-only prototypes, fed through :meth:`feedback`.
    """

    def __init__(
        self,
        model: BatchHDClassifier,
        config: StreamConfig = StreamConfig(),
        models: Optional[Mapping[str, BatchHDClassifier]] = None,
    ):
        self._config = config
        # Models by id; None is the default model every session falls
        # back to, additional ids are tenant-selectable at open time.
        self._entries: "OrderedDict[Optional[str], _ModelEntry]" = (
            OrderedDict()
        )
        self._attach_model(None, model)
        if models:
            for model_id, extra in models.items():
                self.add_model(model_id, extra)
        self._sessions: Dict[Hashable, Session] = {}
        # Ready windows in arrival order, blocked per ingest:
        # (session, (k, T, channels) window stack, enqueued_at tick).
        # The tick drives the deterministic max_wait policy.
        self._queue: Deque[Tuple[Session, np.ndarray, int]] = deque()
        self._pending = 0
        self._clock = 0
        self._next_batch_id = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        # Per-window dispatch-wait histogram: how many logical ticks
        # each window sat in the ready queue before its batch
        # dispatched (deterministic, replay-stable).  Mergeable across
        # shards into FleetStats.
        self.queue_age_ticks_hist: LatencyHistogram = tick_histogram()
        # Lifetime totals for fleet aggregation.
        self._n_batches = 0
        self._n_windows = 0
        self._host_seconds = 0.0

    # -- model registry ----------------------------------------------------

    def _attach_model(
        self, model_id: Optional[str], model: BatchHDClassifier
    ) -> _ModelEntry:
        # Fail fast on an unfitted model; also freezes the AM matrix.
        proto_words = model.prototype_words
        config = self._config
        if config.window.slice_samples < model.config.ngram_size:
            raise ValueError(
                f"windows of {config.window.slice_samples} timestamps "
                f"cannot form the model's {model.config.ngram_size}-grams"
                f"; set WindowConfig.extra_samples >= "
                f"{model.config.ngram_size - config.window.window_samples}"
            )
        entry = _ModelEntry(
            model_id=model_id,
            model=model,
            proto_words=proto_words,
            labels=model.labels,
            key_dtype=np.min_scalar_type(model.config.n_levels - 1),
        )
        self._entries[model_id] = entry
        return entry

    def add_model(
        self, model_id: str, model: BatchHDClassifier
    ) -> None:
        """Register an additional model under ``model_id``.

        Sessions select it at :meth:`open_session` time; the default
        model (id ``None``) keeps serving sessions that name no model.
        """
        if not isinstance(model_id, str) or not model_id:
            raise ValueError(
                f"model id must be a non-empty string, got {model_id!r}"
            )
        if model_id in self._entries:
            raise ValueError(f"model {model_id!r} is already registered")
        self._attach_model(model_id, model)

    def _entry(self, model_id: Optional[str]) -> _ModelEntry:
        try:
            return self._entries[model_id]
        except KeyError:
            raise KeyError(
                f"model {model_id!r} is not registered "
                f"(known: {sorted(k for k in self._entries if k)!r} "
                f"+ default)"
            ) from None

    def swap_model(
        self,
        new_model: BatchHDClassifier,
        model_id: Optional[str] = None,
        gate_windows: Optional[np.ndarray] = None,
    ) -> None:
        """Hot-swap the served classifier for ``model_id``.

        The cutover is bit-exact from the scheduler's point of view: the
        entry gets a fresh decision cache, so no decision memoized
        against the old prototypes can ever be served for a window
        classified after the swap.  When ``gate_windows`` is given they
        act as a cutover gate: the swap is refused
        (:class:`CutoverError`, old model keeps serving) unless old and
        new models decide them identically — the validation step of a
        rollout that is supposed to be a byte-exact refresh (e.g. a
        recompacted or re-published store of the same weights).

        A swap that changes the channel count is refused while a
        session of this model is open or still has queued windows (a
        closed session's windows dispatch after it closes); ``drain()``
        first.

        Sessions with applied adaptation keep the base their delta was
        built over (the delta owns a copy); every other session of this
        model classifies against the new prototypes from the next
        dispatch.
        """
        entry = self._entry(model_id)
        proto_words = new_model.prototype_words
        old = entry.model
        if new_model.config.n_channels != old.config.n_channels and (
            any(s.model_id == model_id for s in self._sessions.values())
            or any(item[0].model_id == model_id for item in self._queue)
        ):
            raise ValueError(
                f"cannot swap model {model_id!r} to "
                f"{new_model.config.n_channels} channels while sessions "
                f"opened at {old.config.n_channels} channels are live "
                f"or have queued windows"
            )
        if self._config.window.slice_samples < new_model.config.ngram_size:
            raise ValueError(
                f"windows of {self._config.window.slice_samples} "
                f"timestamps cannot form the new model's "
                f"{new_model.config.ngram_size}-grams"
            )
        if gate_windows is not None:
            before = list(old.predict(gate_windows))
            after = list(new_model.predict(gate_windows))
            if before != after:
                mismatches = sum(
                    1 for b, a in zip(before, after) if b != a
                )
                which = (
                    "the default model" if model_id is None
                    else f"model {model_id!r}"
                )
                raise CutoverError(
                    f"cutover gate: new model decides "
                    f"{mismatches}/{len(before)} gate windows "
                    f"differently; {which} keeps serving "
                    f"the old version"
                )
        entry.model = new_model
        entry.proto_words = proto_words
        entry.labels = new_model.labels
        entry.key_dtype = np.min_scalar_type(new_model.config.n_levels - 1)
        entry.cache = OrderedDict()

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> StreamConfig:
        """The service configuration."""
        return self._config

    @property
    def model(self) -> BatchHDClassifier:
        """The default served classifier."""
        return self._entries[None].model

    @property
    def model_ids(self) -> Tuple[str, ...]:
        """Ids of the additionally registered models, in attach order."""
        return tuple(k for k in self._entries if k is not None)

    def model_for(
        self, model_id: Optional[str] = None
    ) -> BatchHDClassifier:
        """The classifier serving ``model_id`` (None = default)."""
        return self._entry(model_id).model

    @property
    def clock(self) -> int:
        """The logical service clock (ingest ticks so far)."""
        return self._clock

    @property
    def pending_windows(self) -> int:
        """Ready windows waiting for a batch slot."""
        return self._pending

    @property
    def cache_size(self) -> int:
        """Entries currently held by the decision caches of all models."""
        return sum(len(entry.cache) for entry in self._entries.values())

    @property
    def oldest_queued_tick_age(self) -> int:
        """Ticks the oldest still-queued window has waited (0 if none).

        This is the scheduler's queue-latency pressure signal: under
        ``max_wait`` backpressure it is bounded in steady state, and a
        value persistently above ``max_wait`` means dispatches cannot
        keep up with arrivals.  Shard workers piggyback it on every
        ingest acknowledgement, so a fleet exposes the same signal and
        ingress admission control reads it from either backend.
        """
        if not self._queue:
            return 0
        return self._clock - self._queue[0][2]

    @property
    def sessions(self) -> Tuple[Session, ...]:
        """All open sessions, in opening order."""
        return tuple(self._sessions.values())

    @property
    def total_decisions(self) -> int:
        """Decisions delivered across all currently open sessions."""
        return sum(s.n_decisions for s in self._sessions.values())

    @property
    def total_windows(self) -> int:
        """Windows classified over the service's lifetime."""
        return self._n_windows

    @property
    def total_batches(self) -> int:
        """Batches dispatched over the service's lifetime."""
        return self._n_batches

    @property
    def total_host_seconds(self) -> float:
        """Wall-clock spent in engine passes over the lifetime."""
        return self._host_seconds

    # -- session lifecycle -------------------------------------------------

    def _make_session(
        self,
        session_id: Hashable,
        model_id: Optional[str] = None,
        adaptive: bool = False,
    ) -> Session:
        """Construct a session under this service's configuration."""
        entry = self._entry(model_id)
        adapt = self._config.adapt
        session = Session(
            session_id,
            self._config.window,
            entry.model.config.n_channels,
            sample_rate_hz=self._config.sample_rate_hz,
            smooth=self._config.smooth,
            model_id=model_id,
            adaptive=adaptive,
            feedback_window=adapt.feedback_window,
        )
        if adaptive:
            session.delta = SessionDelta(
                entry.proto_words,
                entry.labels,
                entry.model.config.dim,
                adapt,
            )
        return session

    def open_session(
        self,
        session_id: Hashable,
        model_id: Optional[str] = None,
        adaptive: bool = False,
    ) -> Session:
        """Open a new stream; session ids must be unique while open.

        ``model_id`` routes the stream to a registered model (None =
        default); ``adaptive`` gives it a copy-on-write prototype delta
        driven through :meth:`feedback`.
        """
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        session = self._make_session(session_id, model_id, adaptive)
        self._sessions[session_id] = session
        return session

    def feedback(
        self,
        session_id: Hashable,
        label: Hashable,
        index: Optional[int] = None,
    ) -> bool:
        """Fold one labelled correction into a session's delta.

        ``index`` names the decision the correction refers to (it must
        still be inside the session's bounded feedback buffer); None
        applies it to the most recent decision.  Under the ``mistake``
        policy the correction only updates the delta when it disagrees
        with the raw decision that was actually served.  Returns True
        when the session's prototypes changed.

        Determinism note for differential replays: with ``max_wait=0``
        every ingested window is decided before ``ingest`` returns, so
        "most recent decision" is the same on every topology; under a
        batching policy (``max_wait > 0``) pass an explicit ``index``.
        """
        session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"session {session_id!r} is not open")
        if not session.adaptive or session.delta is None:
            raise ValueError(
                f"session {session_id!r} was not opened with "
                f"adaptive=True"
            )
        _, window, raw_label = session.recent_window(index)
        entry = self._entry(session.model_id)
        query = entry.model.encoder.encode_batch(window[None, :, :]).words[0]
        predicted = (
            raw_label if self._config.adapt.policy == "mistake" else None
        )
        return session.delta.update(query, label, predicted=predicted)

    def close_session(self, session_id: Hashable) -> Session:
        """Close a stream; its already-queued windows still dispatch.

        The windower's ragged tail (samples short of one slice) is dropped,
        matching the offline slicer's behaviour on a truncated trial.
        """
        try:
            session = self._sessions.pop(session_id)
        except KeyError:
            raise KeyError(f"session {session_id!r} is not open") from None
        return session

    # -- snapshot protocol -------------------------------------------------
    #
    # Everything mutable in the serving path — windower buffers, vote
    # histories, the ready queue, the clock and lifetime counters —
    # round-trips through plain picklable dicts.  The decision caches do
    # not: they only short-circuit a pure function, so a service that
    # starts with them empty decides identically.
    # ``snapshot``/``restore`` capture the whole service (worker
    # checkpoints); ``extract_session``/``inject_session`` move one
    # session between services (live migration).  Both preserve the
    # per-session decision stream byte-exactly: a restored or migrated
    # stream produces the same (index, raw_label, smoothed_label)
    # sequence as one that never moved.

    def snapshot(self) -> dict:
        """Capture the full service state as a plain picklable dict.

        Queued window stacks are serialized by value; queue entries
        referencing sessions that were closed while their windows were
        still queued ("orphans") are snapshotted alongside the open
        sessions so the queue reconstructs exactly.
        """
        open_ids = {id(s): s.id for s in self._sessions.values()}
        orphans: List[dict] = []
        orphan_index: Dict[int, int] = {}
        queue_state: List[tuple] = []
        for session, windows, tick in self._queue:
            if id(session) in open_ids:
                ref = ("open", session.id)
            else:
                slot = orphan_index.get(id(session))
                if slot is None:
                    slot = len(orphans)
                    orphan_index[id(session)] = slot
                    orphans.append(session.snapshot())
                ref = ("orphan", slot)
            queue_state.append((ref, windows.tobytes(), windows.shape, tick))
        return {
            "clock": self._clock,
            "next_batch_id": self._next_batch_id,
            "pending": self._pending,
            "sessions": [s.snapshot() for s in self._sessions.values()],
            "orphans": orphans,
            "queue": queue_state,
            "queue_age_ticks_hist": self.queue_age_ticks_hist.copy(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "n_batches": self._n_batches,
            "n_windows": self._n_windows,
            "host_seconds": self._host_seconds,
        }

    def restore(self, state: dict) -> "StreamingService":
        """Adopt a :meth:`snapshot` dict on a freshly built service.

        The service must be pristine (no sessions, no ticks) and built
        over the same model + config the snapshot was taken under;
        returns ``self``.  The decision caches stay empty: a restored
        or respawned worker starts cold and decides identically.
        """
        if self._sessions or self._queue or self._clock:
            raise ValueError(
                "restore() requires a freshly constructed service"
            )
        for s_state in state["sessions"]:
            session = self._restore_session(s_state)
            self._sessions[session.id] = session
        orphan_sessions = [
            self._restore_session(o) for o in state["orphans"]
        ]
        for (kind, ref), buf, shape, tick in state["queue"]:
            session = (
                self._sessions[ref] if kind == "open"
                else orphan_sessions[ref]
            )
            windows = (
                np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
            )
            self._queue.append((session, windows, int(tick)))
        self.queue_age_ticks_hist = state["queue_age_ticks_hist"].copy()
        self._pending = int(state["pending"])
        self._clock = int(state["clock"])
        self._next_batch_id = int(state["next_batch_id"])
        self.cache_hits = int(state["cache_hits"])
        self.cache_misses = int(state["cache_misses"])
        self.cache_evictions = int(state["cache_evictions"])
        self._n_batches = int(state["n_batches"])
        self._n_windows = int(state["n_windows"])
        self._host_seconds = float(state["host_seconds"])
        return self

    def _restore_session(self, s_state: dict) -> Session:
        """Rebuild one session (with its model routing) from a snapshot."""
        return self._make_session(
            s_state["id"],
            s_state.get("model_id"),
            bool(s_state.get("adaptive", False)),
        ).restore(s_state)

    def extract_session(self, session_id: Hashable) -> dict:
        """Remove one session *and its queued windows* for migration.

        Returns a transferable state dict (session snapshot + the
        session's not-yet-dispatched queue entries).  Feeding it to
        :meth:`inject_session` on another service built over the same
        model + config continues the stream byte-identically.
        """
        try:
            session = self._sessions.pop(session_id)
        except KeyError:
            raise KeyError(f"session {session_id!r} is not open") from None
        queued: List[tuple] = []
        kept: Deque[Tuple[Session, np.ndarray, int]] = deque()
        for entry_session, windows, tick in self._queue:
            if entry_session is session:
                queued.append((windows.tobytes(), windows.shape, tick))
                self._pending -= windows.shape[0]
            else:
                kept.append((entry_session, windows, tick))
        self._queue = kept
        return {"session": session.snapshot(), "queued": queued}

    def inject_session(self, state: dict) -> List[Decision]:
        """Adopt a session extracted from another service.

        Its pending windows are merged into the ready queue in tick
        order (the fleet shares one injected ingest clock, so ticks are
        comparable across services) and the scheduler is pumped, so the
        ``max_wait`` staleness bound keeps holding through a migration.
        """
        s_state = state["session"]
        session_id = s_state["id"]
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} is already open")
        session = self._restore_session(s_state)
        self._sessions[session_id] = session
        for buf, shape, tick in state["queued"]:
            windows = (
                np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
            )
            self._insert_by_tick(session, windows, int(tick))
            self._pending += windows.shape[0]
        return self.pump()

    def _insert_by_tick(
        self, session: Session, windows: np.ndarray, tick: int
    ) -> None:
        """Insert a queue entry keeping ticks non-decreasing.

        Equal-tick entries land *after* existing ones, so successive
        inserts of one migrated session preserve their relative order —
        which is all per-session byte-parity needs, since the batched
        kernels are row-independent.
        """
        queue = self._queue
        idx = len(queue)
        while idx > 0 and queue[idx - 1][2] > tick:
            idx -= 1
        queue.insert(idx, (session, windows, tick))

    # -- the data path -----------------------------------------------------

    def ingest(
        self,
        session_id: Hashable,
        samples: np.ndarray,
        tick: Optional[int] = None,
    ) -> List[Decision]:
        """Push one chunk of samples into a session; pump the scheduler.

        Returns every decision (across *all* sessions) that this tick's
        dispatches produced — the scheduler is shared, so one session's
        arrival can flush a batch full of other sessions' windows.

        ``tick`` injects an external ingest clock: the service clock
        jumps to exactly that value instead of incrementing by one.
        This is the sharding hook — a coordinator stamps every ingest
        with its own global tick so each shard's ``max_wait`` ages
        windows on fleet-wide traffic, and a respawned shard replaying
        its journal reproduces the original batching decisions exactly.
        Injected ticks must be strictly increasing per service.

        A rejected call (a non-finite sample, a chunk of the wrong
        shape, a tick that does not advance the clock) raises
        ``ValueError`` and leaves the service untouched, the clock
        included.
        """
        try:
            session = self._sessions[session_id]
        except KeyError:
            raise KeyError(f"session {session_id!r} is not open") from None
        samples = np.asarray(samples, dtype=np.float64)
        check_finite(samples)
        if tick is None:
            tick = self._clock + 1
        else:
            tick = int(tick)
            if tick <= self._clock:
                raise ValueError(
                    f"injected tick {tick} must advance the service "
                    f"clock (currently {self._clock})"
                )
        # The windower checks the chunk's shape before it mutates
        # anything, so the clock moves only once the chunk is accepted.
        windows = session.push(samples)
        self._clock = tick
        if windows.shape[0]:
            self._queue.append((session, windows, tick))
            self._pending += windows.shape[0]
        return self.pump()

    def pump(self) -> List[Decision]:
        """Dispatch every batch the policy currently allows."""
        decisions: List[Decision] = []
        queue = self._queue
        max_batch = self._config.max_batch
        max_wait = self._config.max_wait
        while queue and (
            self._pending >= max_batch
            or self._clock - queue[0][2] >= max_wait
        ):
            decisions.extend(self._dispatch(min(max_batch, self._pending)))
        return decisions

    def drain(self) -> List[Decision]:
        """Flush all pending windows regardless of the wait policy."""
        decisions: List[Decision] = []
        while self._queue:
            decisions.extend(
                self._dispatch(min(self._config.max_batch, self._pending))
            )
        return decisions

    @staticmethod
    def _group_of(session: Session) -> Tuple[Optional[str], Hashable]:
        """Classification-group key of a session's windows.

        Sessions of one model share a single engine pass and the model's
        decision cache; a session with *applied* adaptation (generation
        > 0) classifies against its own delta prototypes, so it forms a
        group of its own and bypasses the cache.  An adaptive session
        that has received no feedback yet still decides byte-identically
        to its non-adaptive neighbours, so it rides the shared group.
        """
        if session.delta is not None and session.delta.generation > 0:
            return (session.model_id, session.id)
        return (session.model_id, None)

    def _classify(
        self,
        stacked: np.ndarray,
        entry: _ModelEntry,
        session: Optional[Session] = None,
    ) -> Tuple[List[int], int]:
        """Winner indices of a window stack, through the decision cache,
        and how many of them were cache hits.

        Cache keys are the quantised level patterns, one ``bytes`` row
        of ``entry.key_dtype`` levels per window, built in one pass; the
        encode + AM search chain is a pure, deterministic function of
        those and the entry's prototypes, so a hit returns exactly the
        winner the chain would compute.  Every key is looked up before
        any miss is inserted, so a pattern repeated inside one stack
        counts one miss per window and adds one entry.  Hits move to the
        MRU end; the misses run as one batched engine pass, join the
        cache at the MRU end, and the LRU end is trimmed back to the
        limit.  ``session`` is the owning session when (and only when)
        the stack classifies against that session's adapted prototypes;
        those move with every feedback, so its windows are never
        memoized.  The caller counts hits and misses once the whole
        batch has its labels, so a failed dispatch counts nothing.
        """
        encoder = entry.model.encoder
        levels = encoder.spatial.quantize_batch(stacked)
        if session is not None:
            queries = encoder.encode_levels_batch(levels)
            indices, _ = engine.am_search(
                queries.words, session.delta.prototype_words()
            )
            return indices.tolist(), 0
        n = levels.shape[0]
        keys = cache_keys(levels, entry.key_dtype)
        cache = entry.cache
        winners = list(map(cache.get, keys))
        missing = [i for i, winner in enumerate(winners) if winner is None]
        for key, winner in zip(keys, winners):
            if winner is not None:
                cache.move_to_end(key)  # refresh LRU recency
        if missing:
            queries = encoder.encode_levels_batch(
                levels if len(missing) == n else levels[missing]
            )
            found, _ = engine.am_search(queries.words, entry.proto_words)
            found = found.tolist()
            for i, winner in zip(missing, found):
                winners[i] = winner
            cache.update(zip([keys[i] for i in missing], found))
            excess = len(cache) - self._config.decision_cache_limit
            if excess > 0:
                self.cache_evictions += excess
                for _ in range(excess):
                    cache.popitem(last=False)  # evict coldest
        return winners, n - len(missing)

    def _dispatch(self, n: int) -> List[Decision]:
        """Classify the ``n`` oldest ready windows, one engine pass per
        classification group (model, or adapted session).

        Failure-atomic: the batch leaves the queue only once every
        window has its label, so an exception from classification
        leaves the queue, the pending count and every session as they
        were, and a retry decides every window.
        """
        items: List[Tuple[Session, np.ndarray, int]] = []
        take = n
        for session, windows, tick in self._queue:
            if windows.shape[0] >= take:
                items.append((session, windows[:take], tick))
                break
            items.append((session, windows, tick))
            take -= windows.shape[0]
        # Group queue entries by classification context.  Windows of
        # different models (or of an adapted session) cannot share an
        # engine pass — their encoders/prototypes differ — but kernels
        # are row-independent, so per-group passes decide bit-identically
        # to the single-model fast path.
        groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for pos, (session, _, _) in enumerate(items):
            groups.setdefault(self._group_of(session), []).append(pos)
        start = time.perf_counter()
        item_labels: List[Optional[list]] = [None] * len(items)
        hits = misses = 0
        for (model_id, owner), positions in groups.items():
            entry = self._entries[model_id]
            blocks = [items[pos][1] for pos in positions]
            stacked = (
                np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
            )
            group_session = (
                items[positions[0]][0] if owner is not None else None
            )
            indices, group_hits = self._classify(
                stacked, entry, group_session
            )
            if group_session is None:
                hits += group_hits
                misses += len(indices) - group_hits
            labels = (
                group_session.delta.labels()
                if group_session is not None
                else entry.labels
            )
            group_labels = [labels[i] for i in indices]
            offset = 0
            for pos in positions:
                k = items[pos][1].shape[0]
                item_labels[pos] = group_labels[offset : offset + k]
                offset += k
        self._host_seconds += time.perf_counter() - start
        # Every label is known: only now does the batch leave the queue
        # and count in the cache totals.
        self.cache_hits += hits
        self.cache_misses += misses
        for _ in range(len(items)):
            session, windows, tick = self._queue.popleft()
        if windows.shape[0] > take:
            self._queue.appendleft((session, windows[take:], tick))
        self._pending -= n
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        decisions: List[Decision] = []
        clock = self._clock
        # One record per queue item, weighted by its window count: every
        # window of an item waited as long.
        self.queue_age_ticks_hist.record_many(
            [clock - tick for _, _, tick in items],
            [block.shape[0] for _, block, _ in items],
        )
        for (session, block, tick), raw_labels in zip(items, item_labels):
            decisions.extend(
                session.record(raw_labels, batch_id, tick, clock, block)
            )
        self._n_batches += 1
        self._n_windows += n
        return decisions
