"""Sharded front end: differential parity, crash recovery, telemetry.

The acceptance invariant of the subsystem (the tentpole's test
archetype): on identical replay traces, the multi-process
:class:`~repro.stream.sharded.ShardedStreamingService` produces
per-session decision streams *byte-identical* to the single-process
:class:`~repro.stream.scheduler.StreamingService` — for every tested
combination of shard count, session count, windowing geometry, ragged
chunking, and backpressure policy, and across shard crashes/respawns
with no lost or duplicated windows.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig, save_model
from repro.hdc.serialize import load_model
from repro.stream import sharded
from repro.stream import (
    ReplayTrace,
    ShardedStreamingService,
    ShardError,
    StreamConfig,
    StreamingService,
    TraceEvent,
    decision_records,
    parity_digest,
    replay,
    session_key_bytes,
    shard_for,
    stream_bytes,
    synthetic_trace,
)

DIM = 256
N_CHANNELS = 4


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    clf = BatchHDClassifier(
        HDClassifierConfig(
            dim=DIM, n_channels=N_CHANNELS, n_levels=8, signal_hi=1.0
        )
    )
    windows = rng.random((40, 5, N_CHANNELS))
    labels = [i % 4 for i in range(40)]
    return clf.fit(windows, labels)


@pytest.fixture(scope="module")
def store(model, tmp_path_factory):
    path = save_model(
        tmp_path_factory.mktemp("sharded") / "model", model
    )
    # The single-process reference serves the *stored* bits, exactly
    # like the shard workers do.
    return path, load_model(path)


def _config(**kwargs):
    defaults = dict(
        window=WindowConfig(window_samples=5, skip_onset_s=0.0),
        sample_rate_hz=500,
    )
    defaults.update(kwargs)
    return StreamConfig(**defaults)


def _single_reference(reference_model, config, trace):
    service = StreamingService(reference_model, config)
    per_session = replay(service, trace)
    return per_session, service


class TestHashPartition:
    def test_deterministic_and_in_range(self):
        ids = list(range(50)) + [f"user-{i}" for i in range(50)]
        for n_shards in (1, 2, 3, 7):
            placed = [shard_for(sid, n_shards) for sid in ids]
            assert placed == [shard_for(sid, n_shards) for sid in ids]
            assert all(0 <= p < n_shards for p in placed)
        # 100 ids across 4 shards: every shard gets traffic.
        assert set(shard_for(sid, 4) for sid in ids) == {0, 1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_for("x", 0)

    def test_session_key_bytes_is_canonical_and_typed(self):
        # Each supported type gets an unambiguous tagged encoding —
        # hashing canonical bytes, not repr(), so placement can never
        # depend on how a type happens to print.
        assert session_key_bytes("user-1") == b"s:user-1"
        assert session_key_bytes(b"user-1") == b"b:user-1"
        assert session_key_bytes(7) == b"i:7"
        assert session_key_bytes(np.int64(7)) == b"i:7"
        # Same-looking values of different types never collide.
        keys = [session_key_bytes(v) for v in ("7", b"7", 7)]
        assert len(set(keys)) == 3

    def test_session_key_bytes_rejects_unsupported_types(self):
        for bad in (True, 1.5, None, ("a", 1)):
            with pytest.raises(TypeError):
                session_key_bytes(bad)
        with pytest.raises(TypeError):
            shard_for(1.5, 2)

    def test_str_and_repr_equivalent_ids_place_independently(self):
        # The repr()-hashing bug this replaces made 'x' and "'x'"-style
        # collisions possible; canonical encoding keeps every id type
        # in its own namespace while staying deterministic.
        ids = [1, "1", b"1", 2, "2", b"2"]
        for n_shards in (2, 3, 5):
            placed = {repr(i): shard_for(i, n_shards) for i in ids}
            assert placed == {
                repr(i): shard_for(i, n_shards) for i in ids
            }

    def test_consistent_hash_minimal_movement(self):
        # Growing the fleet n -> n+1 moves sessions only *onto the new
        # shard*; everything else stays put.  This is the property that
        # makes live resharding cheap.
        ids = [f"sess-{i}" for i in range(300)]
        for n in (1, 2, 3, 5, 7):
            before = {sid: shard_for(sid, n) for sid in ids}
            after = {sid: shard_for(sid, n + 1) for sid in ids}
            moved = [sid for sid in ids if before[sid] != after[sid]]
            assert all(after[sid] == n for sid in moved)
            assert moved  # the new shard takes a share of the keys

    def test_service_places_sessions_by_hash(self, store):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=3
        ) as service:
            for sid in ("a", "b", "c", 0, 1, 2):
                assert service.open_session(sid) == shard_for(sid, 3)
                assert service.shard_of(sid) == shard_for(sid, 3)


class TestDifferentialParity:
    """The tentpole pin: sharded == single-process, byte for byte."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_sessions=st.integers(1, 5),
        n_shards=st.integers(1, 3),
        geometry=st.sampled_from(
            [(5, None, 0.0), (5, 3, 0.0), (4, 6, 0.0), (3, 2, 0.25)]
        ),
        trace_seed=st.integers(0, 2**20),
        chunking=st.sampled_from([(1, 9), (1, 40), (17, 17), (40, 80)]),
        max_batch=st.integers(1, 16),
        max_wait=st.integers(0, 5),
        smooth=st.integers(1, 4),
    )
    def test_sharded_equals_single_process(
        self,
        store,
        n_sessions,
        n_shards,
        geometry,
        trace_seed,
        chunking,
        max_batch,
        max_wait,
        smooth,
    ):
        path, reference_model = store
        window_samples, stride, skip = geometry
        config = _config(
            window=WindowConfig(
                window_samples=window_samples,
                stride_samples=stride,
                skip_onset_s=skip,
            ),
            max_batch=max_batch,
            max_wait=max_wait,
            smooth=smooth,
        )
        trace = synthetic_trace(
            n_sessions=n_sessions,
            samples_per_session=150,
            n_channels=N_CHANNELS,
            seed=trace_seed,
            chunking=chunking,
        )
        expected, _ = _single_reference(reference_model, config, trace)
        with ShardedStreamingService(
            path, config, n_shards=n_shards
        ) as service:
            got = replay(service, trace)
        assert parity_digest(got) == parity_digest(expected)
        # The digest is the headline; spell the claim out once too.
        assert set(got) == set(expected)
        for sid in expected:
            assert decision_records(got[sid]) == decision_records(
                expected[sid]
            )

    def test_parity_with_tight_backpressure(self, store, monkeypatch):
        """A credit window of about one command's bytes forces constant
        blocking waits; the decision streams must not care."""
        monkeypatch.setattr(sharded, "_MAX_INFLIGHT_BYTES", 1 << 10)
        path, reference_model = store
        config = _config(max_batch=4, max_wait=2, smooth=3)
        trace = synthetic_trace(
            n_sessions=4,
            samples_per_session=300,
            n_channels=N_CHANNELS,
            seed=11,
        )
        expected, _ = _single_reference(reference_model, config, trace)
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(service, trace)
        assert parity_digest(got) == parity_digest(expected)

    def test_string_labels_cross_the_pipe_unchanged(self, tmp_path):
        """Decision columns carry the model's own label objects: a
        fleet serving a model fitted on string labels decides exactly
        as the in-process service does."""
        rng = np.random.default_rng(19)
        names = ("fist", "open", "pinch", "rest")
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=N_CHANNELS, n_levels=8, signal_hi=1.0
            )
        ).fit(
            rng.random((40, 5, N_CHANNELS)),
            [names[i % 4] for i in range(40)],
        )
        path = save_model(tmp_path / "named", clf)
        config = _config(max_batch=8, max_wait=4, smooth=3)
        trace = synthetic_trace(
            n_sessions=5,
            samples_per_session=150,
            n_channels=N_CHANNELS,
            seed=31,
        )
        expected, _ = _single_reference(load_model(path), config, trace)
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(service, trace)
        # The digest folds in each label's repr, so a numpy scalar
        # label would change it; the type check names the failure.
        assert parity_digest(got) == parity_digest(expected)
        labels = [
            label
            for decisions in got.values()
            for d in decisions
            for label in (d.label, d.raw_label)
        ]
        assert labels and all(type(label) is str for label in labels)

    def test_ordered_per_session_delivery(self, store):
        """Decisions come back in strict per-session index order, in
        whatever interleaving the shards produce them."""
        path, _ = store
        trace = synthetic_trace(
            n_sessions=5,
            samples_per_session=200,
            n_channels=N_CHANNELS,
            seed=2,
        )
        seen = {sid: 0 for sid in trace.session_ids}
        with ShardedStreamingService(
            path, _config(max_wait=3), n_shards=3
        ) as service:
            for sid in trace.session_ids:
                service.open_session(sid)
            arrivals = []
            for event in trace.events:
                arrivals.extend(
                    service.ingest(event.session_id, event.samples)
                )
            arrivals.extend(service.drain())
        for decision in arrivals:
            assert decision.index == seen[decision.session_id]
            seen[decision.session_id] += 1
        assert service.total_delivered == len(arrivals)


class TestCrashAndRespawn:
    def test_killed_shard_loses_and_duplicates_nothing(self, store):
        """SIGKILL a worker mid-stream: the journal replay must
        re-derive its state so the caller sees every window's decision
        exactly once, byte-identical to the single-process service."""
        path, reference_model = store
        config = _config(max_batch=8, max_wait=4, smooth=3)
        trace = synthetic_trace(
            n_sessions=6,
            samples_per_session=250,
            n_channels=N_CHANNELS,
            seed=23,
        )
        expected, _ = _single_reference(reference_model, config, trace)
        got = {sid: [] for sid in trace.session_ids}
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            for sid in trace.session_ids:
                service.open_session(sid)
            third = trace.n_events // 3
            for event in trace.events[:third]:
                for d in service.ingest(event.session_id, event.samples):
                    got[d.session_id].append(d)
            victim = service.shard_process(0)
            victim.kill()
            victim.join()
            for event in trace.events[third:]:
                for d in service.ingest(event.session_id, event.samples):
                    got[d.session_id].append(d)
            for d in service.drain():
                got[d.session_id].append(d)
            assert service.shard_respawns(0) >= 1
        for decisions in got.values():
            decisions.sort(key=lambda d: d.index)
        # No loss, no duplication: exactly the reference streams.
        for sid in expected:
            assert [d.index for d in got[sid]] == list(
                range(len(expected[sid]))
            )
        assert parity_digest(got) == parity_digest(expected)

    def test_graceful_respawn_of_live_shard(self, store):
        """Drain-and-replace a healthy worker (rolling restart)."""
        path, reference_model = store
        config = _config(max_wait=5)
        trace = synthetic_trace(
            n_sessions=4,
            samples_per_session=200,
            n_channels=N_CHANNELS,
            seed=5,
        )
        expected, _ = _single_reference(reference_model, config, trace)
        got = {sid: [] for sid in trace.session_ids}
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            for sid in trace.session_ids:
                service.open_session(sid)
            half = trace.n_events // 2
            for event in trace.events[:half]:
                for d in service.ingest(event.session_id, event.samples):
                    got[d.session_id].append(d)
            old = service.shard_process(1)
            service.respawn_shard(1)
            assert not old.is_alive()
            assert service.shard_process(1) is not old
            assert service.shard_respawns(1) == 1
            for event in trace.events[half:]:
                for d in service.ingest(event.session_id, event.samples):
                    got[d.session_id].append(d)
            for d in service.drain():
                got[d.session_id].append(d)
        for decisions in got.values():
            decisions.sort(key=lambda d: d.index)
        assert parity_digest(got) == parity_digest(expected)

    def test_crash_with_unacked_commands_noticed_on_other_shards_ingest(
        self, store
    ):
        """A worker killed with commands still unacknowledged must be
        repaired when the crash is first *noticed* — even if that
        happens in the broadcast pump of an ingest routed to a
        different, healthy shard."""
        import os
        import signal
        import time

        path, reference_model = store
        config = _config(max_wait=50, max_batch=64)
        sid_a = next(s for s in range(100) if shard_for(s, 2) == 0)
        sid_b = next(s for s in range(100) if shard_for(s, 2) == 1)
        rng = np.random.default_rng(41)
        stream_a = rng.random((60, N_CHANNELS))
        stream_b = rng.random((60, N_CHANNELS))
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            service.open_session(sid_a)
            service.open_session(sid_b)
            victim = service.shard_process(0)
            # Freeze the worker so the next command stays unacked...
            os.kill(victim.pid, signal.SIGSTOP)
            time.sleep(0.05)
            service.ingest(sid_a, stream_a[:30])
            # ...then kill it with that command in flight.
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            # Ingest for the *other* shard: the broadcast pump finds
            # the corpse; auto-respawn must repair it, not raise.
            got = list(service.ingest(sid_b, stream_b[:30]))
            for d in service.ingest(sid_a, stream_a[30:]):
                got.append(d)
            for d in service.ingest(sid_b, stream_b[30:]):
                got.append(d)
            got.extend(service.drain())
            assert service.shard_respawns(0) == 1
        per_session = {sid_a: [], sid_b: []}
        for d in got:
            per_session[d.session_id].append(d)
        single = StreamingService(reference_model, config)
        single.open_session(sid_a)
        single.open_session(sid_b)
        expected = []
        expected += single.ingest(sid_a, stream_a[:30])
        expected += single.ingest(sid_b, stream_b[:30])
        expected += single.ingest(sid_a, stream_a[30:])
        expected += single.ingest(sid_b, stream_b[30:])
        expected += single.drain()
        ref = {sid_a: [], sid_b: []}
        for d in expected:
            ref[d.session_id].append(d)
        assert parity_digest(per_session) == parity_digest(ref)

    def test_rejected_command_does_not_poison_the_journal(
        self, store, worker_checks_width
    ):
        """A command the worker errors on is tombstoned: a later
        respawn replays cleanly instead of re-raising the old error
        mid-repair and losing the journal suffix."""
        path, reference_model = store
        config = _config(max_wait=50, max_batch=64)
        rng = np.random.default_rng(43)
        stream = rng.random((100, N_CHANNELS))
        with ShardedStreamingService(
            path, config, n_shards=1
        ) as service:
            service.open_session(0)
            service.ingest(0, stream[:50])
            with pytest.raises(ShardError):
                # Wrong channel count: the worker rejects it.
                service.ingest(0, rng.random((10, N_CHANNELS + 2)))
                service.drain()
            # Crash the shard; the respawn replays the journal, which
            # must no longer contain the rejected command.
            service.shard_process(0).kill()
            service.shard_process(0).join()
            got = list(service.ingest(0, stream[50:]))
            got.extend(service.drain())
            assert service.shard_respawns(0) == 1
        single = StreamingService(reference_model, config)
        single.open_session(0)
        expected = single.ingest(0, stream[:50])
        expected += single.ingest(0, stream[50:])
        expected += single.drain()
        # Skipping the bad chunk, every good window decided exactly once.
        all_got = sorted(got, key=lambda d: d.index)
        assert parity_digest({0: all_got}) == parity_digest(
            {0: expected}
        )

    def test_stale_error_does_not_journal_the_aborted_command(
        self, store, worker_checks_width
    ):
        """A send aborted by a *stale* "err" reply (of an earlier bad
        command) must leave no journal trace: the chunk was never
        handed to the worker, the caller retries it, and a later
        respawn replay serves the retried stream — not a phantom
        double-ingest of the aborted chunk."""
        import os
        import signal
        import time

        path, reference_model = store
        config = _config(max_wait=50, max_batch=64)
        rng = np.random.default_rng(47)
        stream = rng.random((150, N_CHANNELS))
        with ShardedStreamingService(
            path, config, n_shards=1
        ) as service:
            service.open_session(0)
            service.ingest(0, stream[:50])
            victim = service.shard_process(0)
            with pytest.raises(ShardError) as info:
                # Frozen, the worker cannot answer the bad chunk before
                # the next call: its err can only surface pre-send.
                os.kill(victim.pid, signal.SIGSTOP)
                time.sleep(0.05)
                try:
                    service.ingest(0, rng.random((10, N_CHANNELS + 2)))
                finally:
                    os.kill(victim.pid, signal.SIGCONT)
                time.sleep(0.3)  # let the err reply land in the pipe
                # This send aborts on the stale err, pre-send: the
                # chunk must be neither served nor journaled.
                service.ingest(0, stream[50:100])
            assert info.value.sent is False
            # Either way the middle chunk has not been ingested;
            # retrying it is the documented recovery.
            got = list(service.ingest(0, stream[50:100]))
            service.shard_process(0).kill()
            service.shard_process(0).join()
            for d in service.ingest(0, stream[100:]):
                got.append(d)
            got.extend(service.drain())
            assert service.shard_respawns(0) == 1
        single = StreamingService(reference_model, config)
        single.open_session(0)
        expected = single.ingest(0, stream[:50])
        expected += single.ingest(0, stream[50:100])
        expected += single.ingest(0, stream[100:])
        expected += single.drain()
        got.sort(key=lambda d: d.index)
        assert parity_digest({0: got}) == parity_digest({0: expected})

    def test_stale_error_after_the_send_reports_sent(
        self, store, worker_checks_width
    ):
        """Another shard's stale error can surface after this call's
        chunk was sent and journaled.  ``sent`` then says so, and the
        chunk is served once without a retry."""
        import os
        import signal
        import time

        path, reference_model = store
        config = _config(max_wait=50, max_batch=64)
        sid0 = next(s for s in range(100) if shard_for(s, 2) == 0)
        sid1 = next(s for s in range(100) if shard_for(s, 2) == 1)
        rng = np.random.default_rng(53)
        good = rng.random((60, N_CHANNELS))
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            service.open_session(sid0)
            service.open_session(sid1)
            victim = service.shard_process(0)
            os.kill(victim.pid, signal.SIGSTOP)
            time.sleep(0.05)
            try:
                service.ingest(sid0, rng.random((10, N_CHANNELS + 2)))
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            time.sleep(0.3)  # let shard 0's err reply land in its pipe
            assert service.journal_length(1) == 1
            with pytest.raises(ShardError) as info:
                service.ingest(sid1, good)
            assert info.value.shard == 0
            assert info.value.sent is True
            assert service.journal_length(1) == 2
            got = [d for d in service.drain() if d.session_id == sid1]
        single = StreamingService(reference_model, config)
        single.open_session(sid1)
        expected = single.ingest(sid1, good) + single.drain()
        assert parity_digest({sid1: got}) == parity_digest(
            {sid1: expected}
        )

    def test_stats_survive_a_crash(self, store):
        path, _ = store
        trace = synthetic_trace(
            n_sessions=3,
            samples_per_session=120,
            n_channels=N_CHANNELS,
            seed=9,
        )
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            replay(service, trace)
            service.shard_process(0).kill()
            service.shard_process(0).join()
            fleet = service.stats()
            # The respawned shard replayed its whole journal, so the
            # fleet still accounts for every window of the trace.
            assert fleet.n_shards == 2
            assert fleet.n_windows == sum(
                len(s) for s in replay(
                    StreamingService(load_model(path), _config()), trace
                ).values()
            )


class TestNonFiniteSamples:
    """A NaN or infinite sample is rejected on the call that carries
    it, before anything is queued, journaled or sent: no shared batch
    fails, and every other session keeps every window.  The property
    tests poison random events, with chunks of the wrong width too."""

    #: On a 2-shard fleet "good-1" shares "bad"'s shard, "good" does not.
    SESSIONS = ("good", "good-1", "bad")
    SAMPLES = 1375
    CHUNK = 25

    def _run(self, service, streams):
        """Round-robin 25-sample chunks; returns per-session decisions
        and the ``(session, offset)`` of every rejected chunk."""
        out = {sid: [] for sid in streams}
        rejected = []
        for sid in streams:
            service.open_session(sid)
        for pos in range(0, self.SAMPLES, self.CHUNK):
            for sid, stream in streams.items():
                try:
                    decisions = service.ingest(
                        sid, stream[pos : pos + self.CHUNK]
                    )
                except ValueError:
                    rejected.append((sid, pos))
                    continue
                for d in decisions:
                    out[d.session_id].append(d)
        for d in service.drain():
            out[d.session_id].append(d)
        return out, rejected

    @pytest.mark.parametrize(
        "kind,poison",
        [("single", np.nan), ("single", np.inf), ("fleet", np.nan)],
    )
    def test_poisoned_chunk_is_contained(self, store, kind, poison):
        path, reference = store
        config = _config(
            window=WindowConfig(
                window_samples=5, stride_samples=5, skip_onset_s=0.0
            ),
            max_batch=64,
            max_wait=4,
        )
        rng = np.random.default_rng(61)
        clean = {
            sid: rng.random((self.SAMPLES, N_CHANNELS))
            for sid in self.SESSIONS
        }
        poisoned = {sid: s.copy() for sid, s in clean.items()}
        poisoned["bad"][1000, 2] = poison
        want, _ = self._run(StreamingService(reference, config), clean)
        # What "bad" must still be served: its stream minus the chunk.
        without_chunk = dict(
            clean, bad=np.delete(clean["bad"], np.s_[1000:1025], axis=0)
        )
        want_bad, _ = self._run(
            StreamingService(reference, config), without_chunk
        )
        if kind == "single":
            got, rejected = self._run(
                StreamingService(reference, config), poisoned
            )
        else:
            with ShardedStreamingService(
                path, config, n_shards=2
            ) as service:
                got, rejected = self._run(service, poisoned)
                assert service.shard_of("good-1") == service.shard_of(
                    "bad"
                )
                assert service.shard_respawns(service.shard_of("bad")) == 0
        assert rejected == [("bad", 1000)]
        for sid in ("good", "good-1"):
            assert stream_bytes(got[sid]) == stream_bytes(want[sid])
        # One 25-sample chunk is five W=5, stride-5 windows.
        assert len(got["bad"]) == len(want["bad"]) - 5
        assert stream_bytes(got["bad"]) == stream_bytes(want_bad["bad"])

    # -- the property: any poison, anywhere --------------------------------

    @staticmethod
    def _replay_rejecting(service, trace):
        """:func:`replay`, but an event whose ingest raises
        ``ValueError`` is recorded by position instead of raised."""
        out = {sid: [] for sid in trace.session_ids}
        rejected = []
        for sid in trace.session_ids:
            service.open_session(sid)
        for position, event in enumerate(trace.events):
            try:
                decisions = service.ingest(event.session_id, event.samples)
            except ValueError:
                rejected.append(position)
                continue
            for d in decisions:
                out[d.session_id].append(d)
        for d in service.drain():
            out[d.session_id].append(d)
        return out, rejected

    def _poison_is_contained(self, store, data, fleet):
        """Poison 1-3 random events of a synthetic trace with a NaN, a
        +inf or one channel too many: exactly those events raise, every
        other session streams what a clean replay streams, and each
        poisoned session what a replay without its poisoned events
        streams."""
        path, reference = store
        config = _config(max_batch=16, max_wait=3, smooth=3)
        trace = synthetic_trace(
            n_sessions=4,
            samples_per_session=120,
            n_channels=N_CHANNELS,
            seed=data.draw(st.integers(0, 2**20), label="trace seed"),
        )
        positions = sorted(data.draw(
            st.lists(st.integers(0, trace.n_events - 1),
                     min_size=1, max_size=3, unique=True),
            label="poisoned events",
        ))
        kind = data.draw(st.sampled_from(["nan", "inf", "channels"]),
                         label="poison")
        events = list(trace.events)
        for position in positions:
            samples = np.array(events[position].samples)
            if kind == "channels":
                samples = np.hstack([samples, samples[:, :1]])
            else:
                row = data.draw(st.integers(0, len(samples) - 1))
                col = data.draw(st.integers(0, N_CHANNELS - 1))
                samples[row, col] = np.nan if kind == "nan" else np.inf
            events[position] = TraceEvent(events[position].session_id,
                                          samples)
        poisoned = ReplayTrace(N_CHANNELS, tuple(events))
        stripped = ReplayTrace(N_CHANNELS, tuple(
            e for i, e in enumerate(trace.events) if i not in positions
        ))
        clean = replay(StreamingService(reference, config), trace)
        without = replay(StreamingService(reference, config), stripped)
        with (
            ShardedStreamingService(path, config, n_shards=2) if fleet
            else nullcontext(StreamingService(reference, config))
        ) as service:
            got, rejected = self._replay_rejecting(service, poisoned)
            if fleet:
                assert [service.shard_respawns(k) for k in (0, 1)] == [0, 0]
        assert rejected == positions
        bad = {trace.events[position].session_id for position in positions}
        for sid in trace.session_ids:
            want = (without if sid in bad else clean)[sid]
            assert stream_bytes(got[sid]) == stream_bytes(want), sid

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_poison_is_contained(self, store, data):
        self._poison_is_contained(store, data, fleet=False)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_poison_is_contained_on_a_fleet(self, store, data):
        self._poison_is_contained(store, data, fleet=True)


class TestWrongWidthChunks:
    def test_wrong_width_fails_its_own_call_not_another_shards(
        self, store
    ):
        """A chunk of the wrong width raises ``ValueError`` in its own
        session's call, before it is sent, as the single-process service
        does.  Sent, it would fail inside the worker, and that error
        would surface on a later call of any session."""
        import os
        import signal
        import time

        path, reference = store
        config = _config(max_batch=16, max_wait=3)
        rng = np.random.default_rng(67)
        a, b = rng.random((40, N_CHANNELS)), rng.random((40, N_CHANNELS))
        narrow = rng.random((10, N_CHANNELS - 1))

        def run(service, stall=lambda: None, resume=lambda: None):
            got = {"s0": [], "s3": []}
            for sid in got:
                service.open_session(sid)
            for d in service.ingest("s0", a[:20]):
                got[d.session_id].append(d)
            stall()
            try:
                with pytest.raises(ValueError, match=r"expected \(k, 4\)"):
                    service.ingest("s0", narrow)
            finally:
                resume()
            for sid, chunk in (("s3", b[:20]), ("s0", a[20:]), ("s3", b[20:])):
                for d in service.ingest(sid, chunk):
                    got[d.session_id].append(d)
            for d in service.drain():
                got[d.session_id].append(d)
            return got

        want = run(StreamingService(reference, config))
        with ShardedStreamingService(path, config, n_shards=2) as service:
            victim = service.shard_process(0)

            def stall():
                assert service.shard_of("s0") == 0
                assert service.shard_of("s3") == 1
                os.kill(victim.pid, signal.SIGSTOP)
                time.sleep(0.05)

            def resume():
                os.kill(victim.pid, signal.SIGCONT)
                time.sleep(0.3)  # an error reply would land by now

            got = run(service, stall, resume)
        assert all(got.values())
        assert parity_digest(got) == parity_digest(want)


class TestFleetTelemetry:
    def test_fleet_stats_merge_shard_totals(self, store):
        path, reference_model = store
        config = _config(max_wait=2)
        trace = synthetic_trace(
            n_sessions=6,
            samples_per_session=200,
            n_channels=N_CHANNELS,
            seed=31,
        )
        expected, reference = _single_reference(
            reference_model, config, trace
        )
        with ShardedStreamingService(
            path, config, n_shards=3
        ) as service:
            replay(service, trace)
            fleet = service.stats()
        assert fleet.n_shards == 3
        assert [s.shard for s in fleet.shards] == [0, 1, 2]
        assert fleet.n_windows == sum(
            s.n_windows for s in fleet.shards
        )
        # Same total work as the single-process reference...
        assert fleet.n_windows == reference.total_windows
        assert fleet.n_sessions == len(trace.session_ids)
        # ...and the merged cache counters are the shard sums.
        assert fleet.cache_hits == sum(
            s.cache_hits for s in fleet.shards
        )
        assert fleet.cache_misses == sum(
            s.cache_misses for s in fleet.shards
        )
        assert fleet.host_seconds == pytest.approx(
            sum(s.host_seconds for s in fleet.shards)
        )
        lines = fleet.describe()
        assert any("fleet" in line for line in lines)

    def test_empty_fleet_rejected(self):
        from repro.perf.streaming import FleetStats

        with pytest.raises(ValueError):
            FleetStats(shards=())


class TestCoordinatorAPI:
    def test_session_lifecycle_errors(self, store):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            service.open_session("u1")
            with pytest.raises(ValueError):
                service.open_session("u1")
            with pytest.raises(KeyError):
                service.ingest("nope", np.zeros((5, N_CHANNELS)))
            with pytest.raises(KeyError):
                service.shard_of("nope")
            service.close_session("u1")
            with pytest.raises(KeyError):
                service.close_session("u1")
            # Ids are unique over the coordinator's lifetime: the
            # exactly-once filter identifies decisions by (id, index).
            with pytest.raises(ValueError, match="already used"):
                service.open_session("u1")

    def test_constructor_validation(self, store, tmp_path):
        path, _ = store
        with pytest.raises(ValueError):
            ShardedStreamingService(path, _config(), n_shards=0)
        with pytest.raises(FileNotFoundError):
            ShardedStreamingService(
                tmp_path / "absent.npz", _config(), n_shards=1
            )

    def test_worker_exception_surfaces_as_shard_error(
        self, store, worker_checks_width
    ):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=1
        ) as service:
            service.open_session(0)
            with pytest.raises(ShardError, match="shard 0"):
                # Wrong channel count blows up inside the worker; the
                # remote traceback must surface, not hang or crash.
                service.ingest(0, np.zeros((10, N_CHANNELS + 1)))
                service.drain()

    def test_closed_service_rejects_use(self, store):
        path, _ = store
        service = ShardedStreamingService(path, _config(), n_shards=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.open_session(0)
        service.close()  # idempotent

    def test_window_too_short_for_ngrams_rejected_locally(
        self, tmp_path
    ):
        rng = np.random.default_rng(3)
        ngram_model = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=N_CHANNELS, n_levels=8,
                ngram_size=3, signal_hi=1.0,
            )
        ).fit(rng.random((8, 7, N_CHANNELS)), [0, 1] * 4)
        path = save_model(tmp_path / "ngram", ngram_model)
        with pytest.raises(ValueError, match="3-grams"):
            ShardedStreamingService(
                path,
                _config(
                    window=WindowConfig(
                        window_samples=2, skip_onset_s=0.0
                    )
                ),
                n_shards=1,
            )
