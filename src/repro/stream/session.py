"""Per-session state: windowing and label smoothing.

A *session* is one independent sensor stream — one user's electrode
array pushing samples at its own rate.  Each session owns an incremental
:class:`~repro.stream.windower.StreamWindower` and a majority-vote
:class:`MajorityVoteSmoother` (the paper's temporal smoothing of
consecutive window decisions); the shared classifier and the batching
across sessions live in :mod:`repro.stream.scheduler`.  A session keeps
no record of the decisions it delivered, only their count: callers get
every decision from what the service's ``ingest`` / ``pump`` / ``drain``
return.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Hashable, List, NamedTuple, Optional

import numpy as np

from ..emg.windows import WindowConfig
from .windower import StreamWindower


class MajorityVoteSmoother:
    """Majority vote over the last ``k`` raw window decisions.

    The paper's deployment smooths the one-decision-per-10-ms stream by
    voting over a short history, trading a little latency for robustness
    to single-window errors.  Ties are broken toward the most recent
    label among the tied candidates (deterministic, and the natural
    choice for a stream: newer evidence wins).  ``k = 1`` is a
    pass-through.
    """

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError(f"smoothing window must be >= 1, got {k}")
        self._k = int(k)
        self._history: deque = deque(maxlen=self._k)

    @property
    def k(self) -> int:
        """The vote-history length."""
        return self._k

    def update(self, label: Hashable) -> Hashable:
        """Record one raw decision; return the smoothed decision."""
        self._history.append(label)
        if self._k == 1:
            return label
        counts = Counter(self._history)
        best = max(counts.values())
        for candidate in reversed(self._history):
            if counts[candidate] == best:
                return candidate
        raise AssertionError("non-empty history must yield a winner")

    def reset(self) -> None:
        """Clear the vote history (e.g. at a stream discontinuity)."""
        self._history.clear()

    def snapshot(self) -> dict:
        """Capture the vote history as a plain picklable dict."""
        return {"k": self._k, "history": list(self._history)}

    def restore(self, state: dict) -> "MajorityVoteSmoother":
        """Adopt a :meth:`snapshot` dict; returns ``self``."""
        if int(state["k"]) != self._k:
            raise ValueError(
                f"smoother snapshot k={state['k']} does not match "
                f"this smoother's k={self._k}"
            )
        self._history = deque(state["history"], maxlen=self._k)
        return self


class Decision(NamedTuple):
    """One classified window of one session.

    A named tuple, because construction is on the serving path: the
    scheduler builds one per window and the fleet coordinator one per
    delivered row.  On a 2-core Xeon VM one costs 1.1 µs with keywords
    and 0.5 µs positionally, against 2.7 and 1.6 µs for a frozen
    dataclass.  It is immutable and picklable; callers may build it by
    position in the field order below.  The ``index`` field shadows
    ``tuple.index``.
    """

    session_id: Hashable
    index: int  # per-session decision number, 0-based
    label: Hashable  # smoothed (majority-vote) decision
    raw_label: Hashable  # the window's own AM decision
    batch_id: int  # dispatch batch that carried the window
    enqueued_at: int  # service clock when the window became ready
    decided_at: int  # service clock when the batch dispatched

    @property
    def queue_wait(self) -> int:
        """Ingest steps the window spent waiting for a batch slot."""
        return self.decided_at - self.enqueued_at


class Session:
    """One stream's windower, smoother, and decision counter.

    ``model_id`` names which of the service's models classifies this
    stream (None = the default model); it is part of the session's
    identity and travels with every snapshot, so migration and respawn
    route the stream to the same prototypes.  An *adaptive* session
    additionally carries a per-user prototype delta
    (:class:`~repro.hdc.online.SessionDelta`, attached by the scheduler)
    plus a bounded buffer of recently decided windows so late feedback
    can still be re-encoded.
    """

    def __init__(
        self,
        session_id: Hashable,
        window_config: WindowConfig,
        n_channels: int,
        sample_rate_hz: int = 500,
        smooth: int = 1,
        model_id: Optional[str] = None,
        adaptive: bool = False,
        feedback_window: int = 64,
    ):
        self.id = session_id
        self.windower = StreamWindower(
            window_config, n_channels, sample_rate_hz
        )
        self.smoother = MajorityVoteSmoother(smooth)
        self.model_id = model_id
        self.adaptive = bool(adaptive)
        #: The copy-on-write prototype delta of an adaptive session;
        #: attached by the owning service (it needs the base AM).
        self.delta = None
        #: Recently decided windows of an adaptive session, newest last:
        #: (decision index, window copy, raw label).  Bounded — feedback
        #: older than ``feedback_window`` decisions cannot be applied.
        self.recent: Optional[deque] = (
            deque(maxlen=int(feedback_window)) if self.adaptive else None
        )
        self._n_decisions = 0

    @property
    def n_decisions(self) -> int:
        """Decisions delivered over the session's lifetime."""
        return self._n_decisions

    @property
    def samples_in(self) -> int:
        """Raw samples ingested so far."""
        return self.windower.samples_in

    @property
    def windows_out(self) -> int:
        """Windows emitted by the incremental windower so far."""
        return self.windower.windows_out

    def push(self, samples: np.ndarray) -> np.ndarray:
        """Ingest samples; return the windows that became ready as one
        ``(n, slice_samples, n_channels)`` array (``n`` may be 0)."""
        return self.windower.push(samples)

    def record(
        self,
        raw_labels: List[Hashable],
        batch_id: int,
        enqueued_at: int,
        decided_at: int,
        windows: np.ndarray,
    ) -> List[Decision]:
        """Smooth the raw results of one queue item into decisions.

        ``raw_labels`` are the AM decisions of ``windows``, this
        session's windows from one ingest, oldest first.  Every
        decision shares the item's batch and clock stamps; with
        ``smooth=1`` the label is the raw label and the smoother is
        skipped.
        """
        start = self._n_decisions
        self._n_decisions = start + len(raw_labels)
        if self.smoother.k == 1:
            labels = raw_labels
        else:
            labels = list(map(self.smoother.update, raw_labels))
        sid = self.id
        decisions = [
            Decision(sid, index, label, raw, batch_id, enqueued_at,
                     decided_at)
            for index, label, raw in zip(
                range(start, self._n_decisions), labels, raw_labels
            )
        ]
        if self.recent is not None:
            self.recent.extend(
                (index, window.copy(), raw)
                for index, window, raw in zip(
                    range(start, self._n_decisions), windows, raw_labels
                )
            )
        return decisions

    def recent_window(self, index: Optional[int] = None) -> tuple:
        """A retained ``(decision index, window, raw label)`` entry.

        ``index=None`` returns the most recent decision; an explicit
        index must still be inside the bounded feedback buffer.
        """
        if self.recent is None:
            raise ValueError(
                f"session {self.id!r} was not opened with adaptive=True"
            )
        if not self.recent:
            raise ValueError(
                f"session {self.id!r} has no decided windows to "
                f"apply feedback to"
            )
        if index is None:
            return self.recent[-1]
        index = int(index)
        for entry in reversed(self.recent):
            if entry[0] == index:
                return entry
            if entry[0] < index:
                break
        raise ValueError(
            f"decision {index} of session {self.id!r} is not in the "
            f"feedback buffer (retained: "
            f"{self.recent[0][0]}..{self.recent[-1][0]})"
        )

    # -- snapshot protocol -------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the session's full per-stream state as a plain dict.

        Composes the windower and smoother snapshots with the lifetime
        decision counter.  Everything is picklable, so the dict travels
        over a pipe (live migration) or into a checkpoint file
        unchanged; :meth:`restore` on a session built with the same
        configuration continues the stream byte-identically.
        """
        state = {
            "id": self.id,
            "windower": self.windower.snapshot(),
            "smoother": self.smoother.snapshot(),
            "n_decisions": self._n_decisions,
        }
        # Model routing and adaptation state travel as optional keys,
        # present only on sessions that use them.
        if self.model_id is not None:
            state["model_id"] = self.model_id
        if self.adaptive:
            state["adaptive"] = True
            state["recent"] = [
                (index, window.tobytes(), window.shape, raw_label)
                for index, window, raw_label in self.recent
            ]
            state["feedback_window"] = self.recent.maxlen
            if self.delta is not None:
                state["delta"] = self.delta.snapshot()
        return state

    def restore(self, state: dict) -> "Session":
        """Adopt a :meth:`snapshot` dict; returns ``self``.

        The receiving session must have been constructed with the same
        id and configuration (the component ``restore`` calls validate
        the structural parameters).
        """
        if state["id"] != self.id:
            raise ValueError(
                f"session snapshot is for id {state['id']!r}, "
                f"not {self.id!r}"
            )
        if state.get("model_id") != self.model_id:
            raise ValueError(
                f"session snapshot is for model "
                f"{state.get('model_id')!r}, not {self.model_id!r}"
            )
        if bool(state.get("adaptive", False)) != self.adaptive:
            raise ValueError(
                "session snapshot adaptive flag does not match"
            )
        self.windower.restore(state["windower"])
        self.smoother.restore(state["smoother"])
        self._n_decisions = int(state["n_decisions"])
        if self.adaptive:
            if int(state["feedback_window"]) != self.recent.maxlen:
                raise ValueError(
                    f"session snapshot feedback_window="
                    f"{state['feedback_window']} does not match "
                    f"{self.recent.maxlen}"
                )
            self.recent = deque(
                (
                    (
                        int(index),
                        np.frombuffer(buf, dtype=np.float64)
                        .reshape(shape)
                        .copy(),
                        raw_label,
                    )
                    for index, buf, shape, raw_label in state["recent"]
                ),
                maxlen=self.recent.maxlen,
            )
            delta_state = state.get("delta")
            if delta_state is not None:
                if self.delta is None:
                    raise ValueError(
                        "session snapshot carries a prototype delta but "
                        "no SessionDelta is attached to this session"
                    )
                self.delta.restore(delta_state)
        return self
