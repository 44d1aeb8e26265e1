"""Per-user adaptation over the multi-tenant model store.

The three acceptance invariants of the subsystem:

(a) **Tenant isolation** — feedback folded into one session's private
    prototype delta never changes another session's decision bytes,
    whether the neighbour shares the model or serves a different one.
(b) **Hot-swap cutover is bit-exact** — a gated ``swap_model`` of a
    byte-identical republication changes no decision, and the fresh
    decision cache a swap brings means no stale decision survives a
    real swap.
(c) **Elastic parity** — adapted sessions ride checkpoints, SIGKILL
    respawn, live migration, and rescale byte-identically to an
    undisturbed single-process run, deltas and all.

Plus a regression pin on the decision cache: each model keeps its own
and adapted sessions bypass it, so two models (or an adapted session)
can never collide on a window pattern.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.emg.windows import WindowConfig
from repro.hdc import (
    AdaptConfig,
    BatchHDClassifier,
    HDClassifierConfig,
    save_model,
)
from repro.hdc.serialize import CutoverError, load_model
from repro.stream import (
    IngressClient,
    IngressServer,
    ShardedStreamingService,
    StreamConfig,
    StreamingService,
    parity_digest,
    replay,
    stream_bytes,
    trace_from_streams,
)
from repro.stream.wire import (
    T_OPEN,
    Feedback,
    FeedbackOk,
    FrameDecoder,
    Open,
    WireError,
    encode_frame,
)

DIM = 256
N_CHANNELS = 4
WINDOW = 5


def _train(seed, n_classes=4):
    rng = np.random.default_rng(seed)
    clf = BatchHDClassifier(
        HDClassifierConfig(
            dim=DIM, n_channels=N_CHANNELS, n_levels=8, signal_hi=1.0
        )
    )
    windows = rng.random((10 * n_classes, WINDOW, N_CHANNELS))
    labels = [i % n_classes for i in range(len(windows))]
    return clf.fit(windows, labels)


@pytest.fixture(scope="module")
def model_a():
    return _train(7)


@pytest.fixture(scope="module")
def model_b():
    return _train(23)


@pytest.fixture(scope="module")
def paths(model_a, model_b, tmp_path_factory):
    root = tmp_path_factory.mktemp("adapt")
    return (
        save_model(root / "a", model_a),
        save_model(root / "b", model_b),
    )


def _config(**kwargs):
    defaults = dict(
        window=WindowConfig(window_samples=WINDOW, skip_onset_s=0.0),
        sample_rate_hz=500,
    )
    defaults.update(kwargs)
    return StreamConfig(**defaults)


def _pattern(seed=5, n_windows=1):
    """A fixed chunk of samples forming exactly ``n_windows`` windows."""
    rng = np.random.default_rng(seed)
    return rng.random((WINDOW * n_windows, N_CHANNELS))


def _labels(decisions):
    return [d.raw_label for d in decisions]


class TestCachePartitioning:
    """Regression: each model has its own decision cache, and adapted
    sessions bypass it."""

    def test_two_models_cannot_collide_on_a_window_pattern(
        self, model_a, model_b
    ):
        chunk = _pattern(seed=11)
        service = StreamingService(
            model_a, _config(), models={"b": model_b}
        )
        service.open_session("on-a")
        service.open_session("on-b", model_id="b")
        out = []
        # Identical byte patterns, alternating models, repeated so a
        # shared-key cache would definitely serve a stale hit.
        for _ in range(3):
            out.append(_labels(service.ingest("on-a", chunk)))
            out.append(_labels(service.ingest("on-b", chunk)))
        # The window must genuinely decide through its own model.
        expected_a = list(model_a.predict(chunk[None, :, :]))
        expected_b = list(model_b.predict(chunk[None, :, :]))
        assert expected_a != expected_b
        assert out == [expected_a, expected_b] * 3
        assert service.cache_hits == 4

    def test_adapted_session_gets_its_own_cache_partition(self, model_a):
        chunk = _pattern(seed=13)
        base_label = model_a.predict(chunk[None, :, :])[0]
        service = StreamingService(model_a, _config())
        service.open_session("frozen")
        service.open_session("adapted", adaptive=True)
        frozen, adapted = [], []
        frozen += _labels(service.ingest("frozen", chunk))
        adapted += _labels(service.ingest("adapted", chunk))
        # One-shot feedback with a brand-new label: the next identical
        # window of the adapted session must flip to it.
        assert service.feedback("adapted", 99) is True
        adapted += _labels(service.ingest("adapted", chunk))
        frozen += _labels(service.ingest("frozen", chunk))
        assert frozen == [base_label, base_label]
        assert adapted == [base_label, 99]
        # The adapted window was never memoized.
        assert service.cache_size == 1

    def test_cache_still_hits_within_a_partition(self, model_a):
        service = StreamingService(model_a, _config())
        service.open_session("s")
        chunk = _pattern(seed=17)
        service.ingest("s", chunk)
        assert service.cache_size >= 1
        before = service.cache_size
        service.ingest("s", chunk)  # identical pattern: pure hit
        assert service.cache_size == before


class TestSchedulerFeedback:
    def test_requires_adaptive_session(self, model_a):
        service = StreamingService(model_a, _config())
        service.open_session("s")
        service.ingest("s", _pattern())
        with pytest.raises(ValueError, match="adaptive"):
            service.feedback("s", 1)

    def test_unknown_session(self, model_a):
        service = StreamingService(model_a, _config())
        with pytest.raises(KeyError):
            service.feedback("ghost", 1)

    def test_requires_a_decided_window(self, model_a):
        service = StreamingService(model_a, _config())
        service.open_session("s", adaptive=True)
        with pytest.raises(ValueError, match="no decided windows"):
            service.feedback("s", 1)

    def test_explicit_index_and_buffer_bound(self, model_a):
        service = StreamingService(
            model_a,
            _config(adapt=AdaptConfig(feedback_window=2)),
        )
        service.open_session("s", adaptive=True)
        for seed in (1, 2, 3):
            service.ingest("s", _pattern(seed=seed))
        assert service.feedback("s", 99, index=2) is True
        with pytest.raises(ValueError, match="feedback buffer"):
            service.feedback("s", 99, index=0)  # fell out of the deque

    def test_mistake_policy_skips_correct_decisions(self, model_a):
        service = StreamingService(
            model_a,
            _config(adapt=AdaptConfig(policy="mistake")),
        )
        service.open_session("s", adaptive=True)
        decisions = service.ingest("s", _pattern(seed=19))
        raw = decisions[0].raw_label
        assert service.feedback("s", raw) is False  # already correct
        assert service.sessions[0].delta.generation == 0
        assert service.feedback("s", 99) is True  # a real mistake
        assert service.sessions[0].delta.generation == 1


class TestHotSwap:
    def test_republished_model_cutover_is_bit_exact(
        self, model_a, paths, tmp_path
    ):
        chunk_stream = [_pattern(seed=s) for s in range(8)]
        gate = np.stack([_pattern(seed=90 + i) for i in range(4)])

        def run(swap_at):
            service = StreamingService(load_model(paths[0]), _config())
            service.open_session("s")
            out = []
            for i, chunk in enumerate(chunk_stream):
                if i == swap_at:
                    # The same bytes, republished through the store.
                    service.swap_model(
                        load_model(paths[0]), gate_windows=gate
                    )
                out += service.ingest("s", chunk)
            out += service.drain()
            return stream_bytes(out)

        assert run(swap_at=4) == run(swap_at=None)

    def test_failed_gate_keeps_old_model_serving(self, model_a, model_b):
        gate = np.stack(
            [_pattern(seed=90 + i) for i in range(6)]
        ).reshape(6, WINDOW, N_CHANNELS)
        assert list(model_a.predict(gate)) != list(model_b.predict(gate))
        service = StreamingService(model_a, _config())
        service.open_session("s")
        chunk = _pattern(seed=3)
        before = _labels(service.ingest("s", chunk))
        with pytest.raises(CutoverError, match="gate"):
            service.swap_model(model_b, gate_windows=gate)
        assert _labels(service.ingest("s", chunk)) == before
        assert service.model is model_a

    def test_epoch_bump_invalidates_stale_cache_entries(
        self, model_a, model_b
    ):
        chunk = _pattern(seed=29)
        service = StreamingService(model_a, _config())
        service.open_session("s")
        service.ingest("s", chunk)  # warms the cache for model_a
        service.swap_model(model_b)  # ungated swap: a real new model
        got = _labels(service.ingest("s", chunk))
        assert got == list(model_b.predict(chunk[None, :, :]))

    @staticmethod
    def _two_channel_model():
        return BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=2, n_levels=8, signal_hi=1.0
            )
        ).fit(
            np.random.default_rng(0).random((8, WINDOW, 2)),
            [i % 2 for i in range(8)],
        )

    def test_channel_change_guarded_while_sessions_live(self, model_a):
        other = self._two_channel_model()
        service = StreamingService(model_a, _config())
        service.open_session("s")
        with pytest.raises(ValueError, match="channels"):
            service.swap_model(other)

    def test_channel_change_guarded_while_windows_queued(self, model_a):
        """A closed session's queued windows still need the old
        channel count: the swap waits for them to drain, and the drain
        decides them as the old model does."""
        other = self._two_channel_model()
        rng = np.random.default_rng(4)
        service = StreamingService(
            model_a, _config(max_batch=64, max_wait=100)
        )
        service.open_session("old")
        old = rng.random((2 * WINDOW, N_CHANNELS))
        assert service.ingest("old", old) == []
        service.close_session("old")
        with pytest.raises(ValueError, match="queued windows"):
            service.swap_model(other)
        assert service.pending_windows == 2
        assert _labels(service.drain()) == list(
            model_a.predict(old.reshape(2, WINDOW, N_CHANNELS))
        )
        service.swap_model(other)
        service.open_session("new")
        new = rng.random((2 * WINDOW, 2))
        assert service.ingest("new", new) == []
        assert _labels(service.drain()) == list(
            other.predict(new.reshape(2, WINDOW, 2))
        )


def _repeating_stream(seed, n_repeats):
    return np.tile(_pattern(seed=seed), (n_repeats, 1))


def _adaptive_trace():
    """Three tenants: one repeating (adaptable), two random."""
    rng = np.random.default_rng(31)
    return trace_from_streams(
        {
            "adapter": _repeating_stream(41, 12),
            "bystander": rng.random((12 * WINDOW, N_CHANNELS)),
            "other": rng.random((10 * WINDOW, N_CHANNELS)),
        },
        seed=2,
        chunking=(3, 11),
    )


class TestTenantIsolation:
    """(a): feedback never changes another tenant's decision bytes."""

    def test_adaptation_is_invisible_to_neighbours(self, model_a):
        trace = _adaptive_trace()

        def run(with_feedback):
            service = StreamingService(model_a, _config())
            for sid in trace.session_ids:
                service.open_session(
                    sid, adaptive=(sid == "adapter")
                )
            actions = {}
            if with_feedback:
                actions = {
                    trace.n_events // 3: lambda s: s.feedback(
                        "adapter", 99
                    )
                    and None,
                    trace.n_events // 2: lambda s: s.feedback(
                        "adapter", 99
                    )
                    and None,
                }
            return replay(
                service, trace, open_sessions=False, actions=actions
            )

        silent = run(with_feedback=False)
        adapted = run(with_feedback=True)
        for sid in ("bystander", "other"):
            assert stream_bytes(silent[sid]) == stream_bytes(
                adapted[sid]
            )
        # The feedback genuinely moved the adapter's own stream.
        assert stream_bytes(silent["adapter"]) != stream_bytes(
            adapted["adapter"]
        )

    def test_adaptation_isolated_across_models_too(
        self, model_a, model_b
    ):
        chunk = _pattern(seed=43)

        def run(with_feedback):
            service = StreamingService(
                model_a, _config(), models={"b": model_b}
            )
            service.open_session("a-adapt", adaptive=True)
            service.open_session("b-frozen", model_id="b")
            out = {"a-adapt": [], "b-frozen": []}
            for _ in range(3):
                out["a-adapt"] += service.ingest("a-adapt", chunk)
                out["b-frozen"] += service.ingest("b-frozen", chunk)
                if with_feedback:
                    service.feedback("a-adapt", 99)
            return out

        silent, adapted = run(False), run(True)
        assert stream_bytes(silent["b-frozen"]) == stream_bytes(
            adapted["b-frozen"]
        )
        assert stream_bytes(silent["a-adapt"]) != stream_bytes(
            adapted["a-adapt"]
        )


class TestSnapshotRoundTrip:
    def test_adapted_service_snapshot_restores_byte_identically(
        self, model_a, model_b
    ):
        chunk = _pattern(seed=47)
        service = StreamingService(
            model_a,
            _config(adapt=AdaptConfig(compact_every=2)),
            models={"b": model_b},
        )
        service.open_session("s", model_id="b", adaptive=True)
        service.ingest("s", chunk)
        for _ in range(3):
            service.feedback("s", 99)
        state = service.snapshot()

        twin = StreamingService(
            model_a,
            _config(adapt=AdaptConfig(compact_every=2)),
            models={"b": model_b},
        ).restore(state)
        a = _labels(service.ingest("s", chunk))
        b = _labels(twin.ingest("s", chunk))
        assert a == b == [99]
        assert (
            twin.sessions[0].delta.generation
            == service.sessions[0].delta.generation
        )


class TestShardedAdaptParity:
    """(c): deltas ride checkpoint / SIGKILL / migration / rescale."""

    def _reference(self, paths, config, trace, feedback_at):
        service = StreamingService(
            load_model(paths[0]), config, models={"b": load_model(paths[1])}
        )
        self._open_all(service)
        actions = {
            at: (lambda s, sid=sid, lab=lab: s.feedback(sid, lab) and None)
            for at, (sid, lab) in feedback_at.items()
        }
        return replay(
            service, trace, open_sessions=False, actions=actions
        )

    @staticmethod
    def _open_all(service):
        service.open_session("adapter", adaptive=True)
        service.open_session("on-b", model_id="b", adaptive=True)
        service.open_session("bystander")
        service.open_session("other", model_id="b")

    def test_elastic_operations_preserve_adapted_streams(self, paths):
        rng = np.random.default_rng(53)
        trace = trace_from_streams(
            {
                "adapter": _repeating_stream(61, 10),
                "on-b": _repeating_stream(67, 10),
                "bystander": rng.random((8 * WINDOW, N_CHANNELS)),
                "other": rng.random((8 * WINDOW, N_CHANNELS)),
            },
            seed=3,
            chunking=(4, 9),
        )
        config = _config(adapt=AdaptConfig(compact_every=2))
        n = trace.n_events
        feedback_at = {
            n // 6: ("adapter", 99),
            n // 4: ("on-b", 1),
            n // 3: ("adapter", 99),
            n // 2: ("on-b", 1),
            (2 * n) // 3: ("adapter", 99),
        }
        expected = self._reference(paths, config, trace, feedback_at)

        def kill_and_checkpoint(service):
            for index in range(service.n_shards):
                service.checkpoint_shard(index)
            service.shard_process(0).kill()

        def migrate(service):
            victim = service.shard_of("adapter")
            return service.migrate_session(
                "adapter", (victim + 1) % service.n_shards
            )

        elastic = {
            n // 5: lambda s: kill_and_checkpoint(s),
            (2 * n) // 5: lambda s: migrate(s),
            (4 * n) // 5: lambda s: s.rescale(3),
        }
        actions = {
            at: (lambda s, sid=sid, lab=lab: s.feedback(sid, lab) and None)
            for at, (sid, lab) in feedback_at.items()
        }
        for at, op in elastic.items():
            assert at not in actions  # keep both operations
            actions[at] = op

        with ShardedStreamingService(
            paths[0],
            config,
            n_shards=2,
            models={"b": paths[1]},
        ) as service:
            self._open_all(service)
            got = replay(
                service, trace, open_sessions=False, actions=actions
            )
            assert service.shard_respawns(0) >= 1
            assert service.migrations >= 1
            assert service.rescales >= 1
        assert parity_digest(got) == parity_digest(expected)
        # And the adaptation did something: the repeating tenants
        # converged onto their fed labels.
        assert expected["adapter"][-1].raw_label == 99
        assert expected["on-b"][-1].raw_label == 1

    def test_sharded_feedback_validation(self, paths):
        with ShardedStreamingService(
            paths[0], _config(), n_shards=2, models={"b": paths[1]}
        ) as service:
            assert service.model_ids == ("b",)
            with pytest.raises(KeyError, match="unknown model"):
                service.open_session("s", model_id="ghost")
            service.open_session("s", adaptive=True)
            with pytest.raises(KeyError):
                service.feedback("ghost", 1)
            service.ingest("s", _pattern(seed=71))
            assert service.feedback("s", 99) is True


async def _wait_decisions(client, sid, n, timeout=10.0):
    deadline = time.monotonic() + timeout
    while len(client.decisions.get(sid, [])) < n:
        if time.monotonic() > deadline:
            raise AssertionError(
                f"session {sid!r} delivered "
                f"{len(client.decisions.get(sid, []))}/{n} decisions"
            )
        await asyncio.sleep(0.01)


class TestIngressFeedback:
    """Model selection + feedback end to end over real sockets."""

    def test_adaptive_session_over_tcp(self, model_a, model_b):
        chunk = _pattern(seed=83)
        base_label = model_b.predict(chunk[None, :, :])[0]
        config = _config()
        service = StreamingService(
            model_a, config, models={"b": model_b}
        )

        async def scenario():
            server = IngressServer(service, config)
            host, port = await server.start("127.0.0.1", 0)
            try:
                client = IngressClient()
                await client.connect(host, port)
                ok, _ = await client.open(
                    "u1", model_id="b", adaptive=True
                )
                assert ok
                ok, _ = await client.open("u2")
                assert ok
                await client.send("u1", chunk)
                await _wait_decisions(client, "u1", 1)
                assert await client.feedback("u1", 99) is True
                await client.send("u1", chunk)
                await _wait_decisions(client, "u1", 2)
                # A rejected feedback answers with an error frame but
                # leaves the session itself serving.
                await client.send("u2", chunk)
                await _wait_decisions(client, "u2", 1)
                with pytest.raises(RuntimeError, match="adaptive"):
                    await client.feedback("u2", 1)
                await client.send("u2", chunk)
                await _wait_decisions(client, "u2", 2)
                decisions = client.decisions
                await client.bye()
                return decisions
            finally:
                await server.stop()

        decisions = asyncio.run(scenario())
        assert [d.raw_label for d in decisions["u1"]] == [
            base_label,
            99,
        ]
        u2 = [d.raw_label for d in decisions["u2"]]
        assert u2[0] == u2[1]


class TestWireFrames:
    def test_plain_open_keeps_legacy_bytes(self):
        raw = encode_frame(Open("sess"))
        assert raw[4] == T_OPEN  # old tag: v1 servers still accept it
        (frame,) = FrameDecoder().feed(raw)
        assert frame == Open("sess")

    def test_open2_round_trip(self):
        for frame in (
            Open("sess", model_id="subj-3"),
            Open("sess", adaptive=True),
            Open("sess", model_id="subj-3", adaptive=True),
        ):
            (decoded,) = FrameDecoder().feed(encode_frame(frame))
            assert decoded == frame

    def test_feedback_round_trip(self):
        for frame in (
            Feedback("s", 7),
            Feedback("s", -2, index=0),
            Feedback("s", 3, index=123456),
            FeedbackOk("s", True),
            FeedbackOk("s", False, index=9),
        ):
            (decoded,) = FrameDecoder().feed(encode_frame(frame))
            assert decoded == frame

    def test_byte_dribble_reassembly(self):
        frames = [
            Open("a", model_id="m", adaptive=True),
            Feedback("a", 5, index=2),
            FeedbackOk("a", True, index=2),
        ]
        blob = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i : i + 1]))
        assert out == frames

    def test_sentinel_index_rejected(self):
        with pytest.raises(WireError, match="sentinel"):
            encode_frame(Feedback("s", 1, index=0xFFFFFFFF))

    def test_unknown_open2_flags_rejected(self):
        raw = bytearray(encode_frame(Open("s", adaptive=True)))
        raw[5] = 0x82  # body byte 0: undefined flag bits
        with pytest.raises(WireError, match="flags"):
            FrameDecoder().feed(bytes(raw))
