"""Snapshot protocol: byte-exact round trips of all streaming state.

The elastic fleet is only sound if pausing any stateful piece of the
serving path — windower, smoother, session, whole scheduler — through
``snapshot()``/``restore()`` (or ``extract_session``/``inject_session``)
is *unobservable* in the decision stream.  These property tests cut a
stream at arbitrary points (ragged chunk boundaries, partial windows,
queued-but-undispatched windows) and assert the resumed run, which
starts with a cold decision cache, continues byte-identically to an
uninterrupted one, with the snapshot itself surviving a pickle round
trip through the versioned envelope in :mod:`repro.hdc.serialize`.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.hdc.serialize import dumps_snapshot, loads_snapshot
from repro.stream import (
    MajorityVoteSmoother,
    StreamConfig,
    StreamingService,
    StreamWindower,
    decision_records,
)

N_CHANNELS = 3


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(3)
    clf = BatchHDClassifier(
        HDClassifierConfig(
            dim=256, n_channels=N_CHANNELS, n_levels=8, signal_hi=1.0
        )
    )
    windows = rng.random((30, 5, N_CHANNELS))
    return clf.fit(windows, [i % 3 for i in range(30)])


def _chunks(rng, total, lo=1, hi=13):
    """Ragged chunk sizes covering ``total`` samples."""
    sizes = []
    remaining = total
    while remaining > 0:
        k = min(int(rng.integers(lo, hi + 1)), remaining)
        sizes.append(k)
        remaining -= k
    return sizes


class TestWindowerSnapshot:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        geometry=st.sampled_from(
            [(5, None, 0.0), (5, 3, 0.0), (4, 6, 0.1), (7, 2, 0.0)]
        ),
        seed=st.integers(0, 2**20),
        cut=st.integers(0, 30),
    )
    def test_roundtrip_continues_byte_identically(self, geometry, seed, cut):
        window_samples, stride, skip = geometry
        config = WindowConfig(
            window_samples=window_samples,
            stride_samples=stride,
            skip_onset_s=skip,
        )
        rng = np.random.default_rng(seed)
        stream = rng.random((160, N_CHANNELS))
        sizes = _chunks(rng, stream.shape[0])
        cut = min(cut, len(sizes))

        straight = StreamWindower(config, N_CHANNELS)
        paused = StreamWindower(config, N_CHANNELS)
        out_a, out_b = [], []
        pos = 0
        for i, k in enumerate(sizes):
            chunk = stream[pos : pos + k]
            pos += k
            out_a.extend(straight.push(chunk))
            if i == cut:
                # Pause mid-stream: pickle the snapshot (the wire trip a
                # migration takes) and resume on a *fresh* windower.
                state = loads_snapshot(
                    dumps_snapshot("windower", paused.snapshot()),
                    "windower",
                )
                paused = StreamWindower(config, N_CHANNELS).restore(state)
            out_b.extend(paused.push(chunk))
        assert len(out_a) == len(out_b)
        for wa, wb in zip(out_a, out_b):
            assert wa.tobytes() == wb.tobytes()
        assert straight.samples_in == paused.samples_in
        assert straight.windows_out == paused.windows_out
        assert straight.pending_samples == paused.pending_samples

    def test_restore_rejects_mismatched_geometry(self):
        a = StreamWindower(
            WindowConfig(window_samples=5, skip_onset_s=0.0), N_CHANNELS
        )
        b = StreamWindower(
            WindowConfig(
                window_samples=5, stride_samples=2, skip_onset_s=0.0
            ),
            N_CHANNELS,
        )
        with pytest.raises(ValueError, match="stride"):
            b.restore(a.snapshot())

    def test_restore_rejects_mismatched_channels(self):
        config = WindowConfig(window_samples=5, skip_onset_s=0.0)
        a = StreamWindower(config, N_CHANNELS)
        b = StreamWindower(config, N_CHANNELS + 1)
        with pytest.raises(ValueError, match="n_channels"):
            b.restore(a.snapshot())


class TestSmootherSnapshot:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        labels=st.lists(st.integers(0, 3), min_size=0, max_size=30),
        cut=st.integers(0, 30),
        tail=st.lists(st.integers(0, 3), min_size=1, max_size=15),
    )
    def test_roundtrip_votes_identically(self, k, labels, cut, tail):
        straight = MajorityVoteSmoother(k)
        for label in labels:
            straight.update(label)
        state = loads_snapshot(
            dumps_snapshot("smoother", straight.snapshot()), "smoother"
        )
        resumed = MajorityVoteSmoother(k).restore(state)
        assert [straight.update(x) for x in tail] == [
            resumed.update(x) for x in tail
        ]

    def test_restore_rejects_mismatched_k(self):
        with pytest.raises(ValueError, match="k="):
            MajorityVoteSmoother(2).restore(
                MajorityVoteSmoother(3).snapshot()
            )


class TestServiceSnapshot:
    """Whole-scheduler round trips mid-stream; the cache restarts cold."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**20),
        cut=st.integers(0, 25),
        max_batch=st.integers(1, 8),
        max_wait=st.integers(0, 4),
        smooth=st.integers(1, 3),
    )
    def test_roundtrip_continues_byte_identically(
        self, model, seed, cut, max_batch, max_wait, smooth
    ):
        config = StreamConfig(
            window=WindowConfig(
                window_samples=5, stride_samples=3, skip_onset_s=0.0
            ),
            max_batch=max_batch,
            max_wait=max_wait,
            smooth=smooth,
        )
        rng = np.random.default_rng(seed)
        session_ids = ["a", "b", "c"]
        streams = {
            sid: rng.random((140, N_CHANNELS)) for sid in session_ids
        }
        schedule = []  # (sid, lo, hi) ingest schedule, derived from seed
        offsets = {sid: 0 for sid in session_ids}
        while any(offsets[s] < streams[s].shape[0] for s in session_ids):
            sid = session_ids[int(rng.integers(len(session_ids)))]
            k = int(rng.integers(1, 14))
            lo = offsets[sid]
            hi = min(lo + k, streams[sid].shape[0])
            if lo == hi:
                continue
            schedule.append((sid, lo, hi))
            offsets[sid] = hi

        def run(paused_at):
            service = StreamingService(model, config)
            for sid in session_ids:
                service.open_session(sid)
            out = []
            for i, (sid, lo, hi) in enumerate(schedule):
                out.extend(service.ingest(sid, streams[sid][lo:hi]))
                if i == paused_at:
                    blob = dumps_snapshot("worker", service.snapshot())
                    service = StreamingService(model, config).restore(
                        loads_snapshot(blob, "worker")
                    )
                    assert service.cache_size == 0
            out.extend(service.drain())
            per = {sid: [] for sid in session_ids}
            for decision in out:
                per[decision.session_id].append(decision)
            return service, {
                sid: decision_records(per[sid]) for sid in session_ids
            }

        straight_service, straight = run(paused_at=-1)
        resumed_service, resumed = run(paused_at=min(cut, len(schedule) - 1))
        assert resumed == straight
        # The restored service keeps its counters, not its cache.
        assert resumed_service.total_windows == straight_service.total_windows
        assert resumed_service.clock == straight_service.clock

    def test_snapshot_preserves_orphaned_queue_entries(self, model):
        # A session closed while windows are still queued must survive
        # the round trip: the queue references a session object that is
        # no longer in the open-session table.
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_batch=64,
            max_wait=100,  # keep windows queued
        )
        rng = np.random.default_rng(0)
        service = StreamingService(model, config)
        service.open_session("gone")
        service.ingest("gone", rng.random((25, N_CHANNELS)))
        service.close_session("gone")
        assert service.pending_windows > 0
        restored = StreamingService(model, config).restore(
            service.snapshot()
        )
        assert restored.pending_windows == service.pending_windows
        a = decision_records(service.drain())
        b = decision_records(restored.drain())
        assert a == b and a  # orphan windows dispatched identically

    def test_snapshot_of_a_restored_service_is_byte_identical(self, model):
        # The ready queue's part of a snapshot depends on the ingested
        # stream alone, so snapshot -> restore -> snapshot changes no
        # byte, orphaned entries included.
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_batch=64,
            max_wait=100,  # keep windows queued
        )
        rng = np.random.default_rng(2)
        service = StreamingService(model, config)
        for sid in ("open", "gone"):
            service.open_session(sid)
        service.ingest("open", rng.random((12, N_CHANNELS)))
        service.ingest("gone", rng.random((25, N_CHANNELS)))
        service.ingest("open", rng.random((9, N_CHANNELS)))
        service.close_session("gone")
        first = service.snapshot()
        assert len(first["queue"]) == 3 and first["orphans"]
        restored = StreamingService(model, config).restore(first)
        assert pickle.dumps(restored.snapshot()) == pickle.dumps(first)

    def test_snapshot_carries_no_decision_cache(self, model):
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0)
        )
        service = StreamingService(model, config)
        service.open_session("s")
        service.ingest("s", np.random.default_rng(7).random((25, N_CHANNELS)))
        assert service.cache_size > 0
        state = service.snapshot()
        assert "sessions" in state and "decision_cache" not in state
        assert StreamingService(model, config).restore(state).cache_size == 0

    def test_restore_requires_fresh_service(self, model):
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0)
        )
        service = StreamingService(model, config)
        service.open_session("x")
        with pytest.raises(ValueError, match="fresh"):
            service.restore(StreamingService(model, config).snapshot())


class TestExtractInject:
    def test_migrated_session_continues_byte_identically(self, model):
        config = StreamConfig(
            window=WindowConfig(
                window_samples=5, stride_samples=3, skip_onset_s=0.0
            ),
            max_batch=4,
            max_wait=3,
            smooth=3,
        )
        rng = np.random.default_rng(5)
        streams = {sid: rng.random((200, N_CHANNELS)) for sid in "ab"}
        sizes = _chunks(np.random.default_rng(6), 200)

        # Uninterrupted reference.
        ref = StreamingService(model, config)
        out_ref = []
        for sid in "ab":
            ref.open_session(sid)
        offsets = {sid: 0 for sid in "ab"}
        for k in sizes:
            for sid in "ab":
                lo = offsets[sid]
                out_ref.extend(
                    ref.ingest(sid, streams[sid][lo : lo + k])
                )
                offsets[sid] = lo + k
        out_ref.extend(ref.drain())

        # Same schedule, but "a" migrates between two services mid-way
        # (with queued windows — max_wait keeps some undispatched).
        src = StreamingService(model, config)
        dst = StreamingService(model, config)
        out = []
        for sid in "ab":
            src.open_session(sid)
        offsets = {sid: 0 for sid in "ab"}
        route = {"a": src, "b": src}
        clock = [0]
        for i, k in enumerate(sizes):
            for sid in "ab":
                lo = offsets[sid]
                clock[0] += 1
                out.extend(
                    route[sid].ingest(
                        sid, streams[sid][lo : lo + k], tick=clock[0]
                    )
                )
                offsets[sid] = lo + k
            if i == len(sizes) // 2:
                state = loads_snapshot(
                    dumps_snapshot(
                        "session-transfer", src.extract_session("a")
                    ),
                    "session-transfer",
                )
                out.extend(dst.inject_session(state))
                route["a"] = dst
        out.extend(src.drain())
        out.extend(dst.drain())

        def per_session(decisions):
            per = {}
            for d in decisions:
                per.setdefault(d.session_id, []).append(d)
            return {s: decision_records(v) for s, v in per.items()}

        assert per_session(out) == per_session(out_ref)

    def test_extract_removes_queued_windows(self, model):
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_batch=64,
            max_wait=100,
        )
        rng = np.random.default_rng(1)
        service = StreamingService(model, config)
        service.open_session("x")
        service.open_session("y")
        service.ingest("x", rng.random((25, N_CHANNELS)))
        service.ingest("y", rng.random((25, N_CHANNELS)))
        before = service.pending_windows
        state = service.extract_session("x")
        assert state["queued"]  # the undispatched windows travelled
        assert service.pending_windows < before
        with pytest.raises(KeyError):
            service.extract_session("x")  # no longer open here

    def test_extract_of_an_injected_session_is_byte_identical(self, model):
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_batch=64,
            max_wait=100,  # the inject dispatches nothing
        )
        rng = np.random.default_rng(4)
        src = StreamingService(model, config)
        dst = StreamingService(model, config)
        src.open_session("x")
        dst.open_session("y")
        src.ingest("x", rng.random((12, N_CHANNELS)), tick=1)
        dst.ingest("y", rng.random((10, N_CHANNELS)), tick=2)
        src.ingest("x", rng.random((13, N_CHANNELS)), tick=3)
        first = src.extract_session("x")
        assert len(first["queued"]) == 2
        assert dst.inject_session(first) == []
        assert pickle.dumps(dst.extract_session("x")) == pickle.dumps(first)

    def test_inject_rejects_duplicate_session(self, model):
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0)
        )
        a = StreamingService(model, config)
        b = StreamingService(model, config)
        a.open_session("x")
        b.open_session("x")
        with pytest.raises(ValueError, match="already open"):
            b.inject_session(a.extract_session("x"))


class TestSnapshotSize:
    """Checkpoints and migrations carry serving state, not a log: their
    size must not scale with the number of decisions delivered."""

    @staticmethod
    def _blobs(model, n_ingests):
        config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_wait=0,
        )
        rng = np.random.default_rng(8)
        service = StreamingService(model, config)
        service.open_session("s")
        decided = 0
        for _ in range(n_ingests):  # 250 samples = 50 windows per call
            decided += len(
                service.ingest("s", rng.random((250, N_CHANNELS)))
            )
        worker = dumps_snapshot("worker", service.snapshot())
        transfer = dumps_snapshot(
            "session-transfer", service.extract_session("s")
        )
        return decided, len(worker), len(transfer)

    def test_blobs_do_not_grow_with_decisions(self, model):
        few, worker_few, transfer_few = self._blobs(model, 6)
        many, worker_many, transfer_many = self._blobs(model, 60)
        assert (few, many) == (300, 3000)
        # 2,700 more decisions; a retained record costs ~44 B each.
        # The slack covers counters pickled in wider integer opcodes.
        assert worker_many <= worker_few + 8
        assert transfer_many <= transfer_few + 8
