"""Elastic fleet operations: checkpoints, migration, rescaling, transport.

Every elastic operation is pinned by the same differential harness the
base sharded service uses: replay one trace twice — once undisturbed on
the single-process reference, once on a sharded fleet that checkpoints,
gets SIGKILLed, migrates sessions, or rescales mid-stream — and assert
the ``parity_digest`` of the per-session decision streams is identical.
Elasticity must be *unobservable* in the output bytes.
"""

import os
import select
import signal
import threading
import time

import numpy as np
import pytest

from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig, save_model
from repro.hdc.serialize import load_model
from repro.stream import (
    ReplayTrace,
    ShardedStreamingService,
    ShardError,
    StreamConfig,
    StreamingService,
    TraceEvent,
    parity_digest,
    replay,
    shard_for,
    synthetic_trace,
)
from repro.stream import sharded
from repro.stream.sharded import _MAX_INFLIGHT_BYTES

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
        tmp_path_factory.mktemp("elastic") / "model", model
    )
    return path, load_model(path)


def _config(**kwargs):
    defaults = dict(
        window=WindowConfig(window_samples=5, skip_onset_s=0.0),
        sample_rate_hz=500,
    )
    defaults.update(kwargs)
    return StreamConfig(**defaults)


def _reference_digest(reference_model, config, trace):
    return parity_digest(
        replay(StreamingService(reference_model, config), trace)
    )


class TestTransport:
    """Ingest chunks cross the worker pipe as raw float64 bytes plus
    their shape; every layout and size a caller may pass must arrive
    as the same samples the single-process service sees."""

    @staticmethod
    def _trace(chunks):
        return ReplayTrace(
            n_channels=N_CHANNELS,
            events=tuple(TraceEvent(sid, c) for sid, c in chunks),
        )

    @staticmethod
    def _assert_fleet_parity(store, config, trace, timeout_s=60.0):
        """Replay on a 2-shard fleet in a thread, bounded by a timeout
        so a transport deadlock fails the test instead of hanging."""
        path, reference = store
        want = _reference_digest(reference, config, trace)
        got = {}
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            worker = threading.Thread(
                target=lambda: got.update(replay(service, trace)),
                daemon=True,
            )
            worker.start()
            worker.join(timeout_s)
            assert not worker.is_alive(), "fleet replay deadlocked"
        assert parity_digest(got) == want

    def test_single_sample_chunks(self, store):
        rng = np.random.default_rng(31)
        chunks = [
            (sid, rng.random(N_CHANNELS))
            for _ in range(60)
            for sid in ("a", "b", "c")
        ]
        self._assert_fleet_parity(
            store, _config(max_batch=8, max_wait=3), self._trace(chunks)
        )

    def test_empty_chunks(self, store):
        rng = np.random.default_rng(32)
        chunks = []
        for _ in range(40):
            for sid in ("a", "b", "c"):
                chunks.append((sid, np.empty((0, N_CHANNELS))))
                chunks.append((sid, rng.random((7, N_CHANNELS))))
        self._assert_fleet_parity(
            store, _config(max_batch=8, max_wait=3), self._trace(chunks)
        )

    def test_float32_and_fortran_ordered_chunks(self, store):
        rng = np.random.default_rng(33)
        chunks = []
        for i in range(30):
            for sid in ("a", "b", "c"):
                block = rng.random((25, N_CHANNELS))
                if i % 2:
                    block = block.astype(np.float32)
                else:
                    block = np.asfortranarray(block)
                chunks.append((sid, block))
        self._assert_fleet_parity(
            store, _config(max_batch=16, max_wait=3), self._trace(chunks)
        )

    def test_chunks_over_the_byte_window(self, store):
        # A chunk bigger than the whole credit window waits for an idle
        # worker, then goes out alone; small chunks of other sessions
        # keep flowing around it.
        big = 1100
        assert big * N_CHANNELS * 8 > _MAX_INFLIGHT_BYTES
        rng = np.random.default_rng(34)
        chunks = []
        for i in range(4):
            for sid in ("a", "b", "c", "d"):
                if sid == "a" or (sid == "b" and i % 2):
                    chunks.append((sid, rng.random((big, N_CHANNELS))))
                for _ in range(3):
                    chunks.append((sid, rng.random((25, N_CHANNELS))))
        self._assert_fleet_parity(
            store, _config(max_batch=64, max_wait=4), self._trace(chunks)
        )


class TestCheckpointRecovery:
    def test_checkpoint_truncates_journal(self, store):
        path, _ = store
        trace = synthetic_trace(3, 150, n_channels=4, seed=21)
        with ShardedStreamingService(
            path, _config(max_batch=8, max_wait=3), n_shards=2
        ) as service:
            replay(service, trace, drain=False)
            index = service.shard_of(trace.session_ids[0])
            before = service.journal_length(index)
            assert before > 0
            size = service.checkpoint_shard(index)
            assert size > 0
            assert service.journal_length(index) == 0
            assert service.checkpoint_bytes(index) == size
            assert service.checkpoints == 1
            service.drain()

    def test_sigkill_after_checkpoint_restores_byte_exactly(self, store):
        path, reference = store
        config = _config(max_batch=8, max_wait=3, smooth=3)
        trace = synthetic_trace(4, 250, n_channels=4, seed=22)
        want = _reference_digest(reference, config, trace)
        mid = trace.n_events // 2

        def checkpoint_then_kill(service):
            for index in range(service.n_shards):
                service.checkpoint_shard(index)
            os.kill(service.shard_process(0).pid, signal.SIGKILL)

        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(
                service, trace, actions={mid: checkpoint_then_kill}
            )
            assert parity_digest(got) == want
            assert service.shard_respawns(0) == 1

    def test_periodic_checkpoints_with_sigkill_parity(self, store):
        path, reference = store
        config = _config(max_batch=8, max_wait=3, smooth=3)
        trace = synthetic_trace(4, 250, n_channels=4, seed=23)
        want = _reference_digest(reference, config, trace)
        kill_at = (2 * trace.n_events) // 3

        def kill0(service):
            os.kill(service.shard_process(0).pid, signal.SIGKILL)

        with ShardedStreamingService(
            path, config, n_shards=2, checkpoint_interval=40
        ) as service:
            got = replay(service, trace, actions={kill_at: kill0})
            assert parity_digest(got) == want
            assert service.checkpoints > 0
            assert service.shard_respawns(0) == 1
            # Auto-checkpointing keeps every journal short.
            for index in range(service.n_shards):
                assert service.journal_length(index) <= 2 * 40

    def test_crash_mid_checkpoint_keeps_the_journal(
        self, store, monkeypatch
    ):
        # A worker dies while taking its checkpoint with a migration's
        # extract in its journal.  The respawn replays that extract, and
        # its session blob must not pass for the worker snapshot: the
        # checkpoint fails cleanly, the journal stays whole, and a later
        # respawn still restores the shard byte-exactly.
        path, reference = store
        config = _config(max_batch=8, max_wait=3)
        trace = synthetic_trace(6, 300, n_channels=4, seed=5)
        want = _reference_digest(reference, config, trace)
        real_dumps = sharded.dumps_snapshot

        def dumps_or_die(kind, state):
            if kind == "worker":
                os._exit(1)
            return real_dumps(kind, state)

        def migrate_then_checkpoint(service):
            victim = next(
                sid for sid in trace.session_ids
                if service.shard_of(sid) == 0
            )
            moved = service.migrate_session(victim, 1)
            with pytest.raises(ShardError, match="did not complete"):
                service.checkpoint_shard(0)
            assert service.checkpoint_bytes(0) == 0
            assert service.journal_length(0) > 0
            return moved

        # Patched before the fleet forks, so the workers inherit it.
        monkeypatch.setattr(sharded, "dumps_snapshot", dumps_or_die)
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(
                service,
                trace,
                actions={
                    trace.n_events // 2 - 1: migrate_then_checkpoint,
                    trace.n_events - 1: lambda s: s.respawn_shard(0),
                },
            )
        assert parity_digest(got) == want

    def test_crash_in_checkpoint_after_inject_keeps_the_route(
        self, store, monkeypatch, tmp_path
    ):
        # The destination dies in the auto-checkpoint that follows the
        # journaled inject of a migration.  The migration reports the
        # failed checkpoint, but the session must already be routed to
        # the destination: the source gave it up, and the respawn
        # replays the inject into the replacement worker.
        path, reference = store
        config = _config(max_batch=8, max_wait=3)
        trace = synthetic_trace(6, 300, n_channels=4, seed=5)
        want = _reference_digest(reference, config, trace)
        marker = tmp_path / "die"
        real_dumps = sharded.dumps_snapshot

        def dumps_or_die(kind, state):
            # Only the first worker snapshot after the marker appears
            # dies: the dying worker consumes the marker, so the
            # respawned one checkpoints normally.
            if kind == "worker" and marker.exists():
                marker.unlink()
                os._exit(1)
            return real_dumps(kind, state)

        def migrate_into_crash(service):
            victim = next(
                sid for sid in trace.session_ids
                if service.shard_of(sid) == 0
            )
            marker.touch()
            with pytest.raises(ShardError, match="did not complete"):
                service.migrate_session(victim, 1)
            assert service.shard_of(victim) == 1
            assert service.migrations == 1

        # Patched before the fleet forks, so the workers inherit it.
        monkeypatch.setattr(sharded, "dumps_snapshot", dumps_or_die)
        with ShardedStreamingService(
            path, config, n_shards=2, checkpoint_interval=1
        ) as service:
            got = replay(
                service,
                trace,
                actions={trace.n_events // 2: migrate_into_crash},
            )
            assert service.shard_respawns(1) == 1
        assert parity_digest(got) == want


class TestMigration:
    def test_migrated_stream_is_byte_identical(self, store):
        path, reference = store
        config = _config(max_batch=8, max_wait=3, smooth=3)
        trace = synthetic_trace(4, 250, n_channels=4, seed=31)
        want = _reference_digest(reference, config, trace)
        victim = trace.session_ids[0]

        def migrate(service):
            # Decisions flushed while quiescing the source shard come
            # back from migrate_session; return them so the replay
            # harness folds them into the result.
            src = service.shard_of(victim)
            return service.migrate_session(
                victim, (src + 1) % service.n_shards
            )

        with ShardedStreamingService(
            path, config, n_shards=3
        ) as service:
            got = replay(
                service,
                trace,
                actions={trace.n_events // 3: migrate},
            )
            assert parity_digest(got) == want
            assert service.migrations == 1

    def test_repeated_migrations_of_one_session(self, store):
        path, reference = store
        config = _config(max_batch=4, max_wait=2, smooth=3)
        trace = synthetic_trace(3, 200, n_channels=4, seed=32)
        want = _reference_digest(reference, config, trace)
        victim = trace.session_ids[1]

        def bounce(service):
            src = service.shard_of(victim)
            return service.migrate_session(
                victim, (src + 1) % service.n_shards
            )

        step = max(1, trace.n_events // 5)
        actions = {i: bounce for i in range(step, trace.n_events, step)}
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(service, trace, actions=actions)
            assert parity_digest(got) == want
            assert service.migrations == len(actions)

    def test_migration_survives_destination_sigkill(self, store):
        path, reference = store
        config = _config(max_batch=8, max_wait=3)
        trace = synthetic_trace(3, 200, n_channels=4, seed=33)
        want = _reference_digest(reference, config, trace)
        victim = trace.session_ids[0]
        dst = [None]

        def migrate(service):
            src = service.shard_of(victim)
            dst[0] = (src + 1) % service.n_shards
            return service.migrate_session(victim, dst[0])

        def kill_dst(service):
            os.kill(
                service.shard_process(dst[0]).pid, signal.SIGKILL
            )

        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(
                service,
                trace,
                actions={
                    trace.n_events // 3: migrate,
                    (2 * trace.n_events) // 3: kill_dst,
                },
            )
            # The journaled inject replays into the respawned worker.
            assert parity_digest(got) == want

    def test_stale_error_in_the_inject_post_keeps_the_session(
        self, store, worker_checks_width
    ):
        """An unread error of an earlier bad chunk at the destination
        aborts the inject's first post before the send.  The blob is
        the session's only copy, so the migration posts again: the
        session lives on at the destination with a byte-identical
        stream, and the stale error is raised afterwards as sent."""
        path, reference = store
        config = _config(max_wait=50, max_batch=64)
        mover = next(s for s in range(100) if shard_for(s, 2) == 0)
        other = next(s for s in range(100) if shard_for(s, 2) == 1)
        rng = np.random.default_rng(59)
        stream = rng.random((150, N_CHANNELS))
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            service.open_session(mover)
            service.open_session(other)
            got = list(service.ingest(mover, stream[:50]))
            victim = service.shard_process(1)
            # Frozen, shard 1 cannot answer the bad chunk before the
            # migration: its err can only surface in the inject's post.
            os.kill(victim.pid, signal.SIGSTOP)
            time.sleep(0.05)
            try:
                service.ingest(other, rng.random((10, N_CHANNELS + 2)))
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            time.sleep(0.3)  # let shard 1's err reply land in its pipe
            with pytest.raises(ShardError) as info:
                service.migrate_session(mover, 1)
            assert info.value.shard == 1
            assert info.value.sent is True
            assert service.shard_of(mover) == 1
            got.extend(service.ingest(mover, stream[50:]))
            got.extend(service.drain())
        single = StreamingService(reference, config)
        single.open_session(mover)
        expected = single.ingest(mover, stream[:50])
        expected += single.ingest(mover, stream[50:])
        expected += single.drain()
        got = [d for d in got if d.session_id == mover]
        assert parity_digest({mover: got}) == parity_digest(
            {mover: expected}
        )

    def test_migrate_to_same_shard_is_a_noop(self, store):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            service.open_session("x")
            service.migrate_session("x", service.shard_of("x"))
            assert service.migrations == 0

    def test_migrate_validation(self, store):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            with pytest.raises(KeyError):
                service.migrate_session("nope", 0)
            service.open_session("x")
            with pytest.raises(ValueError, match="out of range"):
                service.migrate_session("x", 5)


class TestRescale:
    def test_rescale_under_load_parity(self, store):
        # The CI smoke: grow 2 -> 4 mid-stream, shrink 4 -> 3 later,
        # decisions byte-identical to an undisturbed fleet.
        path, reference = store
        config = _config(max_batch=8, max_wait=3, smooth=3)
        trace = synthetic_trace(6, 250, n_channels=4, seed=41)
        want = _reference_digest(reference, config, trace)
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            got = replay(
                service,
                trace,
                actions={
                    trace.n_events // 3: lambda s: s.rescale(4),
                    (2 * trace.n_events) // 3: lambda s: s.rescale(3),
                },
            )
            assert parity_digest(got) == want
            assert service.n_shards == 3
            assert service.rescales == 2
            # Routing stays consistent-hash after resharding.
            for sid in trace.session_ids:
                assert service.shard_of(sid) == shard_for(sid, 3)

    @staticmethod
    def _assert_poller_holds_live_pipes(service, retired_fds=()):
        """The coordinator polls exactly the pipes of its live shards."""
        shards = [service._shards[i] for i in range(service.n_shards)]
        assert sorted(service._pipes) == sorted(s.fd for s in shards)
        for shard in shards:
            assert service._pipes[shard.fd] is shard
            assert shard.conn.fileno() == shard.fd
            service._poller.modify(shard.fd, select.POLLIN)  # registered
        for fd in set(retired_fds) - set(service._pipes):
            with pytest.raises(OSError):
                service._poller.modify(fd, select.POLLIN)

    def test_poller_tracks_respawn_rescale_and_close(self, store):
        """SIGKILL respawn, rescale(4), rescale(3) and close() each
        leave the coordinator's poller holding exactly the live shards'
        pipes, and the decisions stay those of an undisturbed run."""
        path, reference = store
        config = _config(max_batch=8, max_wait=3, smooth=3)
        trace = synthetic_trace(6, 250, n_channels=4, seed=41)
        want = _reference_digest(reference, config, trace)
        check = self._assert_poller_holds_live_pipes
        retired = []

        def kill0(service):
            check(service)
            retired.append(service._shards[0].fd)
            victim = service.shard_process(0)
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()

        def grow(service):
            assert service.shard_respawns(0) == 1
            check(service, retired)
            delivered = service.rescale(4)
            check(service, retired)
            return delivered

        def shrink(service):
            retired.append(service._shards[3].fd)
            delivered = service.rescale(3)
            check(service, retired)
            return delivered

        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            n = trace.n_events
            got = replay(
                service,
                trace,
                actions={n // 4: kill0, n // 2: grow, (3 * n) // 4: shrink},
            )
            check(service, retired)
            live = [s.fd for s in service._shards]
        assert parity_digest(got) == want
        assert service._pipes == {}
        for fd in retired + live:
            with pytest.raises(OSError):
                service._poller.modify(fd, select.POLLIN)

    def test_growing_moves_sessions_only_to_new_shards(self, store):
        path, _ = store
        ids = [f"grow-{i}" for i in range(40)]
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            before = {sid: service.open_session(sid) for sid in ids}
            service.rescale(3)
            for sid in ids:
                after = service.shard_of(sid)
                if after != before[sid]:
                    assert after == 2  # only onto the new shard
            assert any(service.shard_of(s) == 2 for s in ids)
            service.drain()

    def test_shrinking_moves_only_retired_shards_sessions(self, store):
        path, _ = store
        ids = [f"shrink-{i}" for i in range(40)]
        with ShardedStreamingService(
            path, _config(), n_shards=3
        ) as service:
            before = {sid: service.open_session(sid) for sid in ids}
            service.rescale(2)
            for sid in ids:
                if before[sid] != 2:  # survivor-shard sessions stay put
                    assert service.shard_of(sid) == before[sid]
            service.drain()

    def test_shrink_delivers_closed_sessions_queued_windows(self, store):
        path, reference = store
        # max_wait high enough that windows sit queued at close time.
        config = _config(max_batch=256, max_wait=10_000)
        trace = synthetic_trace(4, 150, n_channels=4, seed=42)
        reference_service = StreamingService(reference, config)
        want = replay(reference_service, trace)
        with ShardedStreamingService(
            path, config, n_shards=3
        ) as service:

            def close_all_then_shrink(s):
                for sid in trace.session_ids:
                    s.close_session(sid)
                return s.rescale(1)

            got = replay(
                service,
                trace,
                open_sessions=True,
                drain=True,
                actions={trace.n_events - 1: close_all_then_shrink},
            )
            assert parity_digest(got) == parity_digest(want)

    def test_stale_error_in_a_grow_finishes_the_resize(
        self, store, worker_checks_width
    ):
        """An unread error of an earlier bad chunk on shard 0 surfaces
        in a mover's extract.  The grow still finishes: every session
        ends on its ring owner, the rescale counts once, the error is
        raised afterwards, and every stream is byte-identical to an
        undisturbed run."""
        path, reference = store
        config = _config(max_wait=50, max_batch=64)
        ids = list(range(12))
        rng = np.random.default_rng(61)
        streams = {sid: rng.random((120, N_CHANNELS)) for sid in ids}
        bad = next(s for s in ids if shard_for(s, 2) == 0)
        assert any(
            shard_for(s, 2) == 0 and shard_for(s, 3) == 2 for s in ids
        )
        got = []
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            for sid in ids:
                service.open_session(sid)
                got.extend(service.ingest(sid, streams[sid][:60]))
            victim = service.shard_process(0)
            # Frozen, shard 0 cannot answer the bad chunk before the
            # rescale: its err can only surface in a migration.
            os.kill(victim.pid, signal.SIGSTOP)
            time.sleep(0.05)
            try:
                got.extend(
                    service.ingest(bad, rng.random((10, N_CHANNELS + 2)))
                )
            finally:
                os.kill(victim.pid, signal.SIGCONT)
            time.sleep(0.3)  # let shard 0's err reply land in its pipe
            with pytest.raises(ShardError) as info:
                service.rescale(3)
            assert info.value.shard == 0
            assert service.n_shards == 3
            assert service.rescales == 1
            for sid in ids:
                assert service.shard_of(sid) == shard_for(sid, 3)
            assert service.rescale(3) == []
            assert service.rescales == 1
            for sid in ids:
                got.extend(service.ingest(sid, streams[sid][60:]))
            got.extend(service.drain())
        single = StreamingService(reference, config)
        want = []
        for sid in ids:
            single.open_session(sid)
            want.extend(single.ingest(sid, streams[sid][:60]))
        for sid in ids:
            want.extend(single.ingest(sid, streams[sid][60:]))
        want.extend(single.drain())
        by_session = {
            sid: [d for d in got if d.session_id == sid] for sid in ids
        }
        assert parity_digest(by_session) == parity_digest(
            {sid: [d for d in want if d.session_id == sid] for sid in ids}
        )

    def test_rescale_noop_and_validation(self, store):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            service.rescale(2)
            assert service.rescales == 0
            with pytest.raises(ValueError):
                service.rescale(0)


class TestLoadSignals:
    """The two load signals ingress admission reads from a fleet: the
    byte credit window in use, and the oldest queued window's age."""

    def test_full_byte_window_reads_as_full(self, store):
        # A frozen worker acknowledges nothing, so 47 20x4 ingests
        # (~690 pickled bytes each) fill its 32 KiB window.
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=1
        ) as service:
            service.open_session("s")
            service.drain()  # every command so far acknowledged
            assert service.credit_utilization() == 0.0
            victim = service.shard_process(0)
            os.kill(victim.pid, signal.SIGSTOP)
            # Should a send block on the frozen worker, thaw it, so the
            # test fails on the reading below instead of hanging.
            thaw = threading.Timer(
                20.0, os.kill, (victim.pid, signal.SIGCONT)
            )
            thaw.start()
            try:
                time.sleep(0.05)
                rng = np.random.default_rng(55)
                for _ in range(47):
                    service.ingest("s", rng.random((20, N_CHANNELS)))
                utilization = service.credit_utilization()
            finally:
                thaw.cancel()
                os.kill(victim.pid, signal.SIGCONT)
            assert 0.9 <= utilization <= 1.0
            service.drain()
            assert service.credit_utilization() == 0.0

    def test_coordinator_collects_queue_age_samples(self, store):
        path, _ = store
        config = _config(max_batch=256, max_wait=50)
        trace = synthetic_trace(4, 150, n_channels=4, seed=53)
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            assert service.oldest_queued_tick_age == 0
            replay(service, trace, drain=False)
            # The ages ride on ingest acks, which the coordinator only
            # reaps opportunistically while sending; poll until every
            # in-flight ack has landed rather than racing the workers.
            deadline = time.monotonic() + 10.0
            while (
                service.credit_utilization() > 0.0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
                service.pump()
            # max_wait=50 with max_batch=256 leaves windows queueing
            # across many ticks, so workers must have reported real
            # nonzero ages.
            assert service.oldest_queued_tick_age > 0
            service.drain()
            assert service.oldest_queued_tick_age == 0


class TestElasticTelemetry:
    def test_stats_carry_elastic_columns(self, store):
        path, _ = store
        trace = synthetic_trace(4, 200, n_channels=4, seed=61)
        with ShardedStreamingService(
            path,
            _config(max_batch=8, max_wait=3),
            n_shards=2,
            checkpoint_interval=10,
        ) as service:
            victim = trace.session_ids[0]
            replay(
                service,
                trace,
                actions={
                    trace.n_events // 2: lambda s: s.migrate_session(
                        victim, (s.shard_of(victim) + 1) % 2
                    ),
                    (3 * trace.n_events) // 4: lambda s: s.rescale(3),
                },
            )
            stats = service.stats()
            assert len(stats.journal_bytes) == service.n_shards
            assert len(stats.checkpoint_bytes) == service.n_shards
            assert stats.checkpoints == service.checkpoints > 0
            assert stats.migrations >= 1
            assert stats.rescales == 1
            text = "\n".join(stats.describe())
            assert "journal" in text and "ckpt" in text
            assert "elastic:" in text
