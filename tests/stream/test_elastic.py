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
from repro.hdc.serialize import load_model, load_snapshot
from repro.stream import (
    AutoscalePolicy,
    ReplayTrace,
    ShardedStreamingService,
    StreamConfig,
    StreamingService,
    TraceEvent,
    parity_digest,
    replay,
    shard_for,
    synthetic_trace,
)
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

    def test_checkpoint_dir_persists_loadable_snapshots(
        self, store, tmp_path
    ):
        path, _ = store
        trace = synthetic_trace(2, 120, n_channels=4, seed=24)
        ckpt_dir = tmp_path / "ckpts"
        with ShardedStreamingService(
            path,
            _config(max_batch=8, max_wait=3),
            n_shards=2,
            checkpoint_dir=ckpt_dir,
        ) as service:
            replay(service, trace, drain=False)
            service.checkpoint_shard(1)
            service.drain()
        snap = ckpt_dir / "shard-1.snap"
        assert snap.is_file()
        state = load_snapshot(snap, "worker")
        assert "sessions" in state and "decision_cache" not in state


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

    def test_rescale_noop_and_validation(self, store):
        path, _ = store
        with ShardedStreamingService(
            path, _config(), n_shards=2
        ) as service:
            service.rescale(2)
            assert service.rescales == 0
            with pytest.raises(ValueError):
                service.rescale(0)


class TestAutoscale:
    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_shards"):
            AutoscalePolicy(min_shards=0)
        with pytest.raises(ValueError, match="max_shards"):
            AutoscalePolicy(min_shards=4, max_shards=2)
        with pytest.raises(ValueError, match="watermark"):
            AutoscalePolicy(low_watermark=0.8, high_watermark=0.5)
        with pytest.raises(ValueError, match="cooldown"):
            AutoscalePolicy(cooldown=-1)

    def test_decide_steps_by_one_within_bounds(self):
        policy = AutoscalePolicy(
            min_shards=1,
            max_shards=4,
            high_watermark=0.75,
            low_watermark=0.10,
            cooldown=100,
        )
        # Cooldown gates everything.
        assert policy.decide(2, 1.0, 99) is None
        # Scale up by exactly one, clamped at max.
        assert policy.decide(2, 0.75, 100) == 3
        assert policy.decide(4, 1.0, 100) is None
        # Scale down by exactly one, clamped at min.
        assert policy.decide(2, 0.10, 100) == 1
        assert policy.decide(1, 0.0, 100) is None
        # The hysteresis band holds steady.
        assert policy.decide(2, 0.5, 100) is None

    def test_service_rejects_n_shards_outside_policy_range(self, store):
        path, _ = store
        with pytest.raises(ValueError, match="autoscale range"):
            ShardedStreamingService(
                path,
                _config(),
                n_shards=5,
                autoscale=AutoscalePolicy(max_shards=4),
            )

    def test_autoscale_grows_under_synthetic_pressure(
        self, store, monkeypatch
    ):
        path, reference = store
        config = _config(max_batch=8, max_wait=3)
        trace = synthetic_trace(4, 200, n_channels=4, seed=51)
        want = _reference_digest(reference, config, trace)
        policy = AutoscalePolicy(
            min_shards=1, max_shards=3, cooldown=10
        )
        with ShardedStreamingService(
            path, config, n_shards=1, autoscale=policy
        ) as service:
            # On one core the real credit window rarely saturates, so
            # fake the load signal; the *decision plumbing* (ingest ->
            # decide -> live rescale) is what's under test, and parity
            # must hold through the autoscaled rescales.
            monkeypatch.setattr(
                type(service), "_utilization", lambda self: 1.0
            )
            got = replay(service, trace)
            assert parity_digest(got) == want
            assert service.n_shards == 3  # grew 1 -> 2 -> 3, then capped
            assert service.rescales == 2

    def test_autoscale_shrinks_when_idle(self, store, monkeypatch):
        path, reference = store
        config = _config(max_batch=8, max_wait=3)
        trace = synthetic_trace(3, 150, n_channels=4, seed=52)
        want = _reference_digest(reference, config, trace)
        policy = AutoscalePolicy(
            min_shards=1, max_shards=4, cooldown=10
        )
        with ShardedStreamingService(
            path, config, n_shards=3, autoscale=policy
        ) as service:
            monkeypatch.setattr(
                type(service), "_utilization", lambda self: 0.0
            )
            got = replay(service, trace)
            assert parity_digest(got) == want
            assert service.n_shards == 1
            assert service.rescales == 2

    def test_queue_age_slo_validation(self):
        with pytest.raises(ValueError, match="max_queue_age_ticks"):
            AutoscalePolicy(max_queue_age_ticks=0)
        with pytest.raises(ValueError, match="max_queue_age_s"):
            AutoscalePolicy(max_queue_age_s=-1.0)

    def test_decide_scales_up_on_queue_age_slo(self):
        policy = AutoscalePolicy(
            min_shards=1,
            max_shards=4,
            cooldown=100,
            max_queue_age_ticks=16,
            max_queue_age_s=0.050,
        )
        # Low utilization alone would scale down; an over-SLO queue age
        # forces up instead.
        assert (
            policy.decide(2, 0.0, 100, queue_age_p95_ticks=17.0) == 3
        )
        assert policy.decide(2, 0.0, 100, queue_age_p95_s=0.051) == 3
        # At/below the target neither signal fires; idle fleet shrinks.
        assert (
            policy.decide(
                2, 0.0, 100, queue_age_p95_ticks=16.0,
                queue_age_p95_s=0.050,
            )
            == 1
        )
        # An over-SLO age also vetoes the scale-down.
        policy_hold = AutoscalePolicy(
            min_shards=1, max_shards=2, cooldown=100,
            max_queue_age_ticks=16,
        )
        assert (
            policy_hold.decide(2, 0.0, 100, queue_age_p95_ticks=17.0)
            is None
        )
        # Unset targets never fire, whatever the observed age.
        default = AutoscalePolicy(cooldown=100)
        assert (
            default.decide(2, 0.5, 100, queue_age_p95_ticks=1e9)
            is None
        )

    def test_coordinator_collects_queue_age_samples(self, store):
        path, _ = store
        config = _config(max_batch=256, max_wait=50)
        trace = synthetic_trace(4, 150, n_channels=4, seed=53)
        with ShardedStreamingService(
            path, config, n_shards=2
        ) as service:
            assert service.queue_age_p95() == (0.0, 0.0)
            replay(service, trace, drain=False)
            # The ages ride on ingest acks, which the coordinator only
            # reaps opportunistically while sending; with a small trace
            # the credit window never fills, so poll until every
            # in-flight ack has landed rather than racing the workers.
            deadline = time.monotonic() + 10.0
            while (
                any(s.outstanding for s in service._shards)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
                service.pump()
            age_ticks, age_s = service.queue_age_p95()
            # max_wait=50 with max_batch=256 leaves windows queueing
            # across many ticks, so workers must have reported real
            # nonzero ages.
            assert age_ticks > 0
            assert age_s >= 0.0
            assert 0.0 <= service.credit_utilization() <= 1.0
            service.drain()

    def test_autoscale_grows_on_queue_age_pressure(
        self, store, monkeypatch
    ):
        path, reference = store
        config = _config(max_batch=8, max_wait=3)
        trace = synthetic_trace(4, 200, n_channels=4, seed=54)
        want = _reference_digest(reference, config, trace)
        policy = AutoscalePolicy(
            min_shards=1,
            max_shards=3,
            cooldown=10,
            max_queue_age_ticks=5,
        )
        with ShardedStreamingService(
            path, config, n_shards=1, autoscale=policy
        ) as service:
            # Credit utilization stays floored; only the queue-age SLO
            # signal (faked, like _utilization in the tests above) can
            # drive growth — and parity must hold through it.
            monkeypatch.setattr(
                type(service), "_utilization", lambda self: 0.5
            )
            monkeypatch.setattr(
                type(service),
                "queue_age_p95",
                lambda self: (100.0, 0.0),
            )
            got = replay(service, trace)
            assert parity_digest(got) == want
            assert service.n_shards == 3
            assert service.rescales == 2


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
