"""Network ingress: sockets-to-fleet integration against a live server.

The load-bearing property is the same one the whole streaming stack is
pinned by: a session's decisions are a pure function of its sample
stream.  Framing, chunk interleaving, credit stalls, admission
shedding, and slow-client eviction may change *which* streams get
served — never the bytes a served stream decides.  Every test here
drives real TCP sockets against a real :class:`IngressServer`.
"""

import asyncio
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig, save_model
from repro.stream import (
    IngressClient,
    IngressConfig,
    IngressServer,
    ShardedStreamingService,
    StreamConfig,
    StreamingService,
    parity_digest,
    replay,
    shard_for,
    stream_bytes,
    trace_from_streams,
)
from repro.stream import ingress as ingress_module
from repro.stream.wire import (
    ERR_PROTOCOL,
    ERR_SESSION,
    ERR_SHED,
    ERR_VERSION,
    Bye,
    Close,
    Credit,
    DecisionFrame,
    Error,
    FrameDecoder,
    Hello,
    Open,
    OpenOk,
    Samples,
    Welcome,
    encode_frame,
)
from repro.stream.workload import (
    WorkloadConfig,
    generate_workload,
    run_workload,
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
    return save_model(
        tmp_path_factory.mktemp("ingress") / "model", model
    )


def _config(**kwargs):
    defaults = dict(
        window=WindowConfig(window_samples=5, skip_onset_s=0.0),
        sample_rate_hz=500,
    )
    defaults.update(kwargs)
    return StreamConfig(**defaults)


async def _read_frames(reader, decoder, n, timeout=10.0):
    """Read raw frames off a socket until ``n`` arrive or EOF."""
    frames = []
    deadline = time.monotonic() + timeout
    while len(frames) < n:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            data = await asyncio.wait_for(
                reader.read(1 << 16), timeout=remaining
            )
        except asyncio.TimeoutError:
            break
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


async def _raw_handshake(host, port, version=1, rcvbuf=None):
    if rcvbuf is None:
        reader, writer = await asyncio.open_connection(host, port)
    else:
        # Set before connect, the receive buffer stays this size: the
        # kernel does not grow it for a peer that stops reading.
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (host, port))
        reader, writer = await asyncio.open_connection(sock=sock)
    writer.write(encode_frame(Hello(version)))
    await writer.drain()
    decoder = FrameDecoder()
    frames = await _read_frames(reader, decoder, 1)
    return reader, writer, decoder, frames


class _Server:
    """One live server over a fresh service, torn down reliably."""

    def __init__(self, service, stream_config, ingress_config=None):
        self.service = service
        self.server = IngressServer(
            service, stream_config, ingress_config or IngressConfig()
        )
        self.host = ""
        self.port = 0

    async def __aenter__(self):
        self.host, self.port = await self.server.start("127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc):
        await self.server.stop()


# -- workload generator (pure, no sockets) -----------------------------------


class TestWorkloadGenerator:
    def test_same_seed_same_scripts(self):
        config = WorkloadConfig(
            n_sessions=6,
            samples_per_session=120,
            slow_fraction=0.3,
            pacing_s=0.01,
        )
        a = generate_workload(config, seed=5)
        b = generate_workload(config, seed=5)
        assert len(a) == len(b) == 6
        for left, right in zip(a, b):
            assert left.session_id == right.session_id
            assert left.start_s == right.start_s
            assert left.chunks == right.chunks
            assert left.pauses == right.pauses
            assert left.slow == right.slow
            assert left.stream.tobytes() == right.stream.tobytes()

    def test_different_seed_differs(self):
        config = WorkloadConfig(n_sessions=2, samples_per_session=100)
        a = generate_workload(config, seed=1)
        b = generate_workload(config, seed=2)
        assert any(
            left.stream.tobytes() != right.stream.tobytes()
            for left, right in zip(a, b)
        )

    def test_chunks_cover_stream_exactly(self):
        config = WorkloadConfig(
            n_sessions=4, samples_per_session=333, chunking=(1, 50)
        )
        for script in generate_workload(config, seed=9):
            assert sum(script.chunks) == script.stream.shape[0] == 333
            assert all(c >= 1 for c in script.chunks)

    def test_burst_fraction_starts_at_zero(self):
        config = WorkloadConfig(
            n_sessions=10, samples_per_session=20, burst_fraction=0.5
        )
        scripts = generate_workload(config, seed=3)
        assert sum(1 for s in scripts if s.start_s == 0.0) >= 5

    def test_validation(self):
        with pytest.raises(ValueError, match="n_sessions"):
            WorkloadConfig(n_sessions=0)
        with pytest.raises(ValueError, match="chunking"):
            WorkloadConfig(chunking=(5, 2))
        with pytest.raises(ValueError, match="burst_fraction"):
            WorkloadConfig(burst_fraction=1.5)
        with pytest.raises(ValueError, match="slow_fraction"):
            WorkloadConfig(slow_fraction=-0.1)

    def test_ingress_config_validation(self):
        with pytest.raises(ValueError, match="credit_bytes"):
            IngressConfig(credit_bytes=0)
        with pytest.raises(ValueError, match="shed_utilization"):
            IngressConfig(shed_utilization=0.0)
        # Each of these would break every connection, silently switch
        # off one of the server's own bounds, or spin its sweeper.
        for bad in (
            dict(write_buffer_bytes=0),
            dict(write_buffer_bytes=-1),
            dict(credit_bytes=1 << 32),  # WELCOME carries a u32
            dict(sweep_interval_s=0.0),
            dict(idle_timeout_s=0.0),
            dict(idle_timeout_s=-1.0),
            dict(max_frame_bytes=0),
            dict(retry_after_s=-0.5),
            dict(shed_queue_age_ticks=-1.0),
        ):
            (name,) = bad
            with pytest.raises(ValueError, match=name):
                IngressConfig(**bad)
        IngressConfig(retry_after_s=0.0, shed_queue_age_ticks=0.0)


# -- the parity contract over real sockets -----------------------------------


class TestSocketParity:
    def test_workload_decisions_match_in_process_replay(self, model):
        """Satellite contract: a seeded workload through the socket
        server is decision-byte-identical to an in-process replay of
        the same streams."""
        config = _config(max_batch=16, max_wait=3)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                scripts = generate_workload(
                    WorkloadConfig(
                        n_sessions=4,
                        n_channels=N_CHANNELS,
                        samples_per_session=200,
                        chunking=(1, 30),
                    ),
                    seed=3,
                )
                return await run_workload(
                    live.host, live.port, scripts
                )

        result = asyncio.run(scenario())
        assert len(result.completed) == 4
        assert not result.rejected and not result.aborted
        assert all(result.decisions[sid] for sid in result.completed)
        assert result.latencies  # stamps made the round trip
        reference = StreamingService(model, config)
        expected = replay(
            reference, trace_from_streams(result.completed, seed=0)
        )
        assert parity_digest(result.decisions) == parity_digest(
            {sid: expected[sid] for sid in result.completed}
        )

    def test_sharded_backend_same_contract(self, model, store):
        """Same parity through the multi-process fleet."""
        config = _config(max_batch=16, max_wait=3)

        async def scenario(service):
            async with _Server(service, config) as live:
                scripts = generate_workload(
                    WorkloadConfig(
                        n_sessions=3,
                        n_channels=N_CHANNELS,
                        samples_per_session=150,
                    ),
                    seed=8,
                )
                return await run_workload(
                    live.host, live.port, scripts
                )

        with ShardedStreamingService(
            store, config, n_shards=2
        ) as service:
            result = asyncio.run(scenario(service))
        assert len(result.completed) == 3
        reference = StreamingService(model, config)
        expected = replay(
            reference, trace_from_streams(result.completed, seed=0)
        )
        assert parity_digest(result.decisions) == parity_digest(
            {sid: expected[sid] for sid in result.completed}
        )

    def test_single_session_chunking_invariance(self, model):
        """One stream sent in 1-sample dribbles equals one big slam."""
        config = _config(max_batch=8, max_wait=2)
        rng = np.random.default_rng(21)
        stream = rng.random((80, N_CHANNELS))

        async def scenario(chunk):
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                ok, _ = await client.open("s")
                assert ok
                for lo in range(0, stream.shape[0], chunk):
                    await client.send("s", stream[lo : lo + chunk])
                await client.close("s")
                await client.bye()
                return client.decisions["s"]

        dribble = asyncio.run(scenario(1))
        slab = asyncio.run(scenario(80))
        assert [
            (d.index, d.raw_label, d.label) for d in dribble
        ] == [(d.index, d.raw_label, d.label) for d in slab]
        assert len(dribble) == 16  # 80 samples / 5-sample windows


# -- session teardown --------------------------------------------------------


async def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        await asyncio.sleep(0.01)
    return predicate()


def _replayed(model, config, streams):
    """Decisions of an in-process replay of ``streams``."""
    return replay(
        StreamingService(model, config), trace_from_streams(streams, seed=0)
    )


class TestSessionTeardown:
    def test_disconnect_keeps_other_sessions_decisions(self, model):
        """A dropped connection's close drains the whole service; the
        decisions that drain makes for other connections' sessions must
        still reach them."""
        config = _config(max_batch=64, max_wait=10_000)
        ingress = IngressConfig(sweep_interval_s=30.0)
        stream = np.random.default_rng(12).random((50, N_CHANNELS))

        async def scenario():
            service = StreamingService(model, config)
            async with _Server(service, config, ingress) as live:
                b = IngressClient()
                await b.connect(live.host, live.port)
                assert (await b.open("B"))[0]
                await b.send("B", stream)  # 10 windows, all queued
                assert await _wait_for(
                    lambda: service.pending_windows == 10
                )
                a = IngressClient()
                await a.connect(live.host, live.port)
                assert (await a.open("A"))[0]
                await a.aclose()  # disconnect without CLOSE or BYE
                assert await _wait_for(
                    lambda: all(s.id != "A" for s in service.sessions)
                )
                assert service.pending_windows == 0
                await b.close("B")
                await b.bye()
                return b.decisions.get("B", [])

        got = asyncio.run(scenario())
        want = _replayed(model, config, {"B": stream})["B"]
        assert len(got) == len(want) == 10
        assert stream_bytes(got) == stream_bytes(want)

    def test_reopened_id_gets_none_of_the_closed_ones_decisions(
        self, model
    ):
        """The drain of a dropped connection's close runs after another
        client reopened the same id; the old windows it decides must
        not reach the new session."""
        config = _config(max_batch=64, max_wait=10_000)
        ingress = IngressConfig(sweep_interval_s=30.0)
        rng = np.random.default_rng(15)
        old, new = rng.random((25, N_CHANNELS)), rng.random((25, N_CHANNELS))

        class SlowDrain(StreamingService):
            def drain(self):
                time.sleep(0.5)  # lets the reopen overtake the close
                return super().drain()

        async def scenario():
            service = SlowDrain(model, config)
            async with _Server(service, config, ingress) as live:
                a = IngressClient()
                await a.connect(live.host, live.port)
                assert (await a.open("s"))[0]
                await a.send("s", old)  # 5 windows, all queued
                assert await _wait_for(
                    lambda: service.pending_windows == 5
                )
                await a.aclose()
                assert await _wait_for(
                    lambda: live.server.open_sessions == 0
                )
                b = IngressClient()
                await b.connect(live.host, live.port)
                assert (await b.open("s"))[0]
                await b.send("s", new)
                await b.close("s")
                await b.bye()
                return b.decisions.get("s", [])

        got = asyncio.run(scenario())
        want = _replayed(model, config, {"s": new})["s"]
        assert stream_bytes(got) == stream_bytes(want)

    def test_reopen_after_a_failed_ingest_gets_none_of_its_windows(
        self, model
    ):
        """A failed session's queued windows are decided before the
        service closes it, so an id reopened right after the failure
        gets none of the old incarnation's decisions."""
        config = _config(max_batch=64, max_wait=10_000)
        ingress = IngressConfig(sweep_interval_s=30.0)
        rng = np.random.default_rng(18)
        old, new = rng.random((25, N_CHANNELS)), rng.random((25, N_CHANNELS))
        poisoned = np.zeros((5, N_CHANNELS))
        poisoned[2, 1] = np.nan

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("s"))[0]
                await client.send("s", old)  # 5 windows, all queued
                await client.send("s", poisoned)
                assert await _wait_for(
                    lambda: any(e.code == ERR_SESSION for e in client.errors)
                )
                assert (await client.open("s"))[0]
                await client.send("s", new)
                await client.close("s")
                await client.bye()
                return client.decisions.get("s", [])

        got = asyncio.run(scenario())
        want = _replayed(model, config, {"s": new})["s"]
        assert stream_bytes(got) == stream_bytes(want)

    @staticmethod
    async def _poison(live, good):
        """Stream ``good`` on session "n" around one NaN chunk sent on
        session "s"; returns the client once "n" is closed."""
        client = IngressClient()
        await client.connect(live.host, live.port)
        assert (await client.open("s"))[0]
        assert (await client.open("n"))[0]
        await client.send("n", good[:20])
        await client.send("s", np.zeros((5, N_CHANNELS)))
        poisoned = np.zeros((5, N_CHANNELS))
        poisoned[2, 1] = np.nan
        await client.send("s", poisoned)
        assert await _wait_for(
            lambda: any(
                e.code == ERR_SESSION and e.session_id == "s"
                for e in client.errors
            )
        )
        await client.send("n", good[20:])
        # The failure's close was queued before this CLOSE.
        await client.close("n")
        return client

    def test_failed_ingest_closes_the_session(self, model):
        config = _config(max_batch=16, max_wait=3)
        good = np.random.default_rng(13).random((60, N_CHANNELS))

        async def scenario():
            service = StreamingService(model, config)
            async with _Server(service, config) as live:
                client = await self._poison(live, good)
                assert all(s.id != "s" for s in service.sessions)
                reopened, _ = await client.open("s", timeout=5.0)
                await client.bye()
                return client, reopened

        client, reopened = asyncio.run(scenario())
        assert reopened
        want = _replayed(model, config, {"n": good})["n"]
        assert stream_bytes(client.decisions["n"]) == stream_bytes(want)

    def test_failed_ingest_closes_the_session_on_a_fleet(
        self, model, store
    ):
        config = _config(max_batch=16, max_wait=3)
        good = np.random.default_rng(14).random((60, N_CHANNELS))

        async def scenario(service):
            async with _Server(service, config) as live:
                client = await self._poison(live, good)
                open_ids = service.session_ids
                await client.bye()
                return client, open_ids

        with ShardedStreamingService(
            store, config, n_shards=2
        ) as service:
            client, open_ids = asyncio.run(scenario(service))
        assert "s" not in open_ids
        want = _replayed(model, config, {"n": good})["n"]
        assert stream_bytes(client.decisions["n"]) == stream_bytes(want)

    @pytest.mark.parametrize(
        "surface", ["samples-same-shard", "samples-other-shard", "close", "bye"]
    )
    def test_stale_fleet_error_fails_the_session_it_names(
        self, model, store, worker_checks_width, surface
    ):
        """A's chunk of the wrong width is rejected in its worker, and
        the error surfaces on a frame of B: A fails, B stays open, and
        B's decisions equal an in-process replay of its stream.  On A's
        shard, B's SAMPLES chunk was dropped before the send and is
        ingested again; on the other shard it was sent, and is served
        once.  A CLOSE or BYE surfaces the error in its drain."""
        import os
        import signal

        config = _config(max_batch=16, max_wait=3)
        # No sweeper drain may collect A's error before B's frame.
        ingress = IngressConfig(sweep_interval_s=30.0)
        good = np.random.default_rng(22).random((60, N_CHANNELS))
        sent_b = good if surface.startswith("samples") else good[:20]
        a = "a"
        b = next(
            sid
            for sid in (f"b{i}" for i in range(100))
            if (shard_for(sid, 2) == shard_for(a, 2))
            == (surface == "samples-same-shard")
        )

        async def scenario(service):
            async with _Server(service, config, ingress) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open(a))[0]
                assert (await client.open(b))[0]
                await client.send(b, good[:20])
                victim = service.shard_process(shard_for(a, 2))
                os.kill(victim.pid, signal.SIGSTOP)
                try:
                    # Frozen, A's worker cannot answer the bad chunk
                    # while the server ingests it.
                    await client.send(a, np.zeros((5, N_CHANNELS + 2)))
                    assert await _wait_for(
                        lambda: live.server.stats.samples_frames == 2
                    )
                finally:
                    os.kill(victim.pid, signal.SIGCONT)
                time.sleep(0.3)  # let the err reply land in the pipe
                if surface.startswith("samples"):
                    await client.send(b, good[20:])
                if surface != "bye":
                    await client.close(b)  # raises if B has failed
                await client.bye()
                return client

        with ShardedStreamingService(
            store, config, n_shards=2
        ) as service:
            client = asyncio.run(scenario(service))
        assert [(e.code, e.session_id) for e in client.errors] == [
            (ERR_SESSION, a)
        ]
        want = _replayed(model, config, {b: sent_b})[b]
        assert stream_bytes(client.decisions[b]) == stream_bytes(want)

    def test_reopen_behind_frames_of_the_failed_session(self, model):
        """A chunk pipelined behind a poisoned one draws an error naming
        the session too.  A reopen sent right behind both must wait for
        their answers, not take one of them as its own."""
        config = _config(max_batch=16, max_wait=3)
        new = np.random.default_rng(20).random((25, N_CHANNELS))
        poisoned = np.zeros((5, N_CHANNELS))
        poisoned[2, 1] = np.nan

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("s"))[0]
                await client.send("s", poisoned)
                await client.send("s", np.zeros((5, N_CHANNELS)))
                assert (await client.open("s", timeout=5.0))[0]
                await client.send("s", new)
                await client.close("s")
                await client.bye()
                return client, live.server.stats

        client, stats = asyncio.run(scenario())
        assert [e.code for e in client.errors] == [ERR_SESSION, ERR_SESSION]
        assert "not open here" in client.errors[1].message
        assert stats.sessions_opened == 2
        assert stats.sessions_closed == 1
        want = _replayed(model, config, {"s": new})["s"]
        assert stream_bytes(client.decisions["s"]) == stream_bytes(want)

    def test_late_frame_for_a_failed_session_keeps_the_connection(
        self, model
    ):
        """A SAMPLES frame that arrives after its session failed gets
        ERR_SESSION, not a disconnect, and every rejected frame (the
        failed one and the late one) returns its credit."""
        config = _config(max_batch=16, max_wait=3)
        good = np.random.default_rng(16).random((60, N_CHANNELS))

        async def scenario():
            service = StreamingService(model, config)
            async with _Server(service, config) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("s"))[0]
                assert (await client.open("n"))[0]
                await client.send("n", good[:20])
                poisoned = np.zeros((5, N_CHANNELS))
                poisoned[2, 1] = np.nan
                await client.send("s", poisoned)
                assert await _wait_for(
                    lambda: any(
                        e.code == ERR_SESSION and e.session_id == "s"
                        for e in client.errors
                    )
                )
                await client.send("s", np.zeros((5, N_CHANNELS)))
                await client.send("n", good[20:])
                await client.close("n")
                # CLOSED follows every CREDIT the server owed.
                credit = client._credit
                late = [e for e in client.errors if e.session_id == "s"]
                await client.bye()
                return client, credit, late

        client, credit, late = asyncio.run(scenario())
        want = _replayed(model, config, {"n": good})["n"]
        assert stream_bytes(client.decisions["n"]) == stream_bytes(want)
        assert [e.code for e in late] == [ERR_SESSION, ERR_SESSION]
        assert credit == client.credit_bytes


class TestOneThread:
    def test_service_calls_run_on_the_loop_thread(self, model):
        """The server calls the service inline on its event loop: no
        call of a session's life runs on another thread."""
        config = _config(max_batch=8, max_wait=0)
        threads = []

        class Recording(StreamingService):
            def open_session(self, *args, **kwargs):
                threads.append(("open_session", threading.get_ident()))
                return super().open_session(*args, **kwargs)

            def ingest(self, *args, **kwargs):
                threads.append(("ingest", threading.get_ident()))
                return super().ingest(*args, **kwargs)

            def feedback(self, *args, **kwargs):
                threads.append(("feedback", threading.get_ident()))
                return super().feedback(*args, **kwargs)

            def drain(self):
                threads.append(("drain", threading.get_ident()))
                return super().drain()

            def close_session(self, *args, **kwargs):
                threads.append(("close_session", threading.get_ident()))
                return super().close_session(*args, **kwargs)

        async def scenario():
            async with _Server(Recording(model, config), config) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("s", adaptive=True))[0]
                await client.send(
                    "s", np.random.default_rng(19).random((10, N_CHANNELS))
                )
                assert await _wait_for(lambda: client.decisions.get("s"))
                assert await client.feedback("s", 99) is True
                await client.close("s")
                await client.bye()
            return threading.get_ident()

        loop_thread = asyncio.run(scenario())
        assert {name for name, _ in threads} == {
            "open_session", "ingest", "feedback", "drain", "close_session",
        }
        assert {ident for _, ident in threads} == {loop_thread}


class TestOneWrite:
    def test_service_call_answers_leave_in_one_write(
        self, model, monkeypatch
    ):
        """The writer hands the transport every frame already queued:
        the 5 DECISIONs and the CREDIT of one SAMPLES frame go out in
        one ``StreamWriter.write``, in queue order."""
        config = _config(max_wait=0)
        writes = []
        write = asyncio.StreamWriter.write

        def recording_write(self, data):
            writes.append((self, bytes(data)))
            return write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
        samples = np.random.default_rng(23).random((25, N_CHANNELS))

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Open("s")))
                await writer.drain()
                assert await _read_frames(reader, decoder, 1) == [
                    OpenOk("s")
                ]
                mark = len(writes)
                writer.write(encode_frame(Samples("s", samples, 1.0)))
                await writer.drain()
                answers = await _read_frames(reader, decoder, 6)
                served = [
                    data for owner, data in writes[mark:]
                    if owner is not writer
                ]
                writer.close()
                return answers, served

        answers, served = asyncio.run(scenario())
        assert [type(f) for f in answers] == [DecisionFrame] * 5 + [Credit]
        assert [f.index for f in answers[:5]] == list(range(5))
        assert answers[5] == Credit(samples.size * 8)
        assert len(served) == 1
        assert served[0] == b"".join(encode_frame(f) for f in answers)

    def test_a_call_answers_other_connections_too(self, model):
        """One connection's service call can decide another's windows:
        the flush after the call writes to every connection it
        answered, so those decisions arrive without their connection
        sending another frame."""
        config = _config(max_batch=10, max_wait=10_000)
        ingress = IngressConfig(sweep_interval_s=60.0)
        rng = np.random.default_rng(29)
        streams = {sid: rng.random((25, N_CHANNELS)) for sid in "ab"}

        async def opened(live, sid):
            reader, writer, decoder, _ = await _raw_handshake(
                live.host, live.port
            )
            writer.write(encode_frame(Open(sid)))
            await writer.drain()
            assert await _read_frames(reader, decoder, 1) == [OpenOk(sid)]
            return reader, writer, decoder

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                a_reader, a_writer, a_decoder = await opened(live, "a")
                _, b_writer, _ = await opened(live, "b")
                a_writer.write(encode_frame(Samples("a", streams["a"], 1.0)))
                await a_writer.drain()
                # 5 windows, short of a batch: answered by CREDIT only.
                credit = await _read_frames(a_reader, a_decoder, 1)
                b_writer.write(encode_frame(Samples("b", streams["b"], 2.0)))
                await b_writer.drain()
                decided = await _read_frames(
                    a_reader, a_decoder, 5, timeout=3.0
                )
                a_writer.close()
                b_writer.close()
                return credit, decided

        credit, decided = asyncio.run(scenario())
        assert credit == [Credit(streams["a"].size * 8)]
        assert [type(f) for f in decided] == [DecisionFrame] * 5
        assert all(f.stamp == 1.0 for f in decided)
        want = _replayed(model, config, streams)["a"]
        assert stream_bytes(decided) == stream_bytes(want)


class TestNonIntegerLabels:
    def test_str_labelled_session_fails_and_routing_goes_on(self, model):
        """DECISION frames carry i64 labels.  A session served by a
        model fitted on string labels gets ERR_SESSION and is closed in
        the service; the connection's other session is served as an
        in-process replay is, and every chunk's credit comes back."""
        config = _config(max_batch=16, max_wait=3)
        rng = np.random.default_rng(17)
        named = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=N_CHANNELS, n_levels=8, signal_hi=1.0
            )
        ).fit(
            rng.random((20, 5, N_CHANNELS)),
            ["fist", "open"] * 10,
        )
        good = rng.random((60, N_CHANNELS))

        async def scenario():
            service = StreamingService(model, config, models={"s": named})
            async with _Server(service, config) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("n"))[0]
                assert (await client.open("t", model_id="s"))[0]
                await client.send("t", rng.random((25, N_CHANNELS)))
                await client.send("n", good[:30])
                assert await _wait_for(
                    lambda: any(
                        e.code == ERR_SESSION and e.session_id == "t"
                        for e in client.errors
                    )
                )
                await client.send("n", good[30:])
                await client.close("n")
                # CLOSED follows every CREDIT the server owed.
                credit = client._credit
                await client.bye()
                return client, credit, [s.id for s in service.sessions]

        client, credit, open_ids = asyncio.run(scenario())
        failed = [e for e in client.errors if e.session_id == "t"]
        assert [e.code for e in failed] == [ERR_SESSION]
        assert "'fist'" in failed[0].message or "'open'" in failed[0].message
        assert "t" not in client.decisions
        assert open_ids == []
        want = _replayed(model, config, {"n": good})["n"]
        assert stream_bytes(client.decisions["n"]) == stream_bytes(want)
        assert credit == client.credit_bytes


# -- admission control and shedding ------------------------------------------


class TestAdmission:
    def test_queue_age_watermark_sheds_new_opens(self, model):
        """Established sessions keep service; new OPENs bounce with a
        retry-after once queued windows age past the watermark."""
        config = _config(max_batch=256, max_wait=100)
        ingress = IngressConfig(
            shed_queue_age_ticks=0.0,
            retry_after_s=0.75,
            sweep_interval_s=60.0,  # keep the queue aged
        )

        async def scenario():
            service = StreamingService(model, config)
            async with _Server(service, config, ingress) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                ok, _ = await client.open("veteran")
                assert ok
                rng = np.random.default_rng(0)
                # Two ingest ticks leave the first windows one tick old.
                await client.send(
                    "veteran", rng.random((10, N_CHANNELS))
                )
                await client.send(
                    "veteran", rng.random((10, N_CHANNELS))
                )
                deadline = time.monotonic() + 5.0
                while (
                    service.oldest_queued_tick_age == 0
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.01)
                assert service.oldest_queued_tick_age > 0
                ok, retry_after = await client.open("latecomer")
                shed_stats = live.server.stats.sessions_rejected
                # The veteran still gets served to completion.
                await client.close("veteran")
                await client.bye()
                return ok, retry_after, shed_stats, client

        ok, retry_after, shed, client = asyncio.run(scenario())
        assert not ok
        assert retry_after == pytest.approx(0.75, rel=1e-6)
        assert shed == 1
        assert client.decisions.get("veteran")
        assert any(e.code == ERR_SHED for e in client.errors)

    def test_fleet_admits_again_after_a_drain(self, store):
        """The fleet's queue-age signal comes from ingest acks.  Once
        the last session closes, no ingest refreshes it, so the drain
        that closing takes must reset it, or the door stays shut."""
        config = _config(max_batch=256, max_wait=16)
        ingress = IngressConfig(shed_queue_age_ticks=4)

        async def scenario(service):
            async with _Server(service, config, ingress) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                ok, _ = await client.open("first")
                assert ok
                stream = np.random.default_rng(0).random((400, N_CHANNELS))
                for start in range(0, 400, 5):
                    await client.send("first", stream[start:start + 5])
                await client.close("first")
                await asyncio.sleep(0.3)
                ok, _ = await client.open("second")
                await client.bye()
                return ok

        with ShardedStreamingService(
            store, config, n_shards=2
        ) as service:
            assert asyncio.run(scenario(service))

    def test_duplicate_open_rejected(self, model):
        config = _config(max_batch=8, max_wait=2)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                first = IngressClient()
                await first.connect(live.host, live.port)
                ok, _ = await first.open("dup")
                assert ok
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Open("dup")))
                await writer.drain()
                frames = await _read_frames(reader, decoder, 1)
                writer.close()
                await first.bye()
                return frames

        frames = asyncio.run(scenario())
        assert frames and isinstance(frames[0], Error)
        assert frames[0].code == ERR_SESSION


# -- protocol enforcement ----------------------------------------------------


class TestProtocol:
    def test_version_mismatch_refused(self, model):
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                reader, writer, decoder, frames = await _raw_handshake(
                    live.host, live.port, version=99
                )
                tail = await _read_frames(reader, decoder, 1, timeout=2.0)
                data = await reader.read()  # server hangs up
                writer.close()
                return frames + tail, data, live.server.stats

        frames, tail, stats = asyncio.run(scenario())
        assert frames and isinstance(frames[0], Error)
        assert frames[0].code == ERR_VERSION
        assert tail == b""
        assert stats.protocol_errors >= 1

    def test_good_handshake_grants_credit(self, model):
        config = _config()
        ingress = IngressConfig(credit_bytes=4096)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                reader, writer, decoder, frames = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Bye()))
                await writer.drain()
                tail = await _read_frames(reader, decoder, 1)
                writer.close()
                return frames, tail

        frames, tail = asyncio.run(scenario())
        assert frames == [Welcome(1, 4096)]
        assert tail == [Bye()]

    def test_credit_overdraft_disconnects(self, model):
        config = _config()
        ingress = IngressConfig(credit_bytes=1024)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Open("greedy")))
                await writer.drain()
                await _read_frames(reader, decoder, 1)  # OPEN_OK
                # 200x4 float64 = 6400 payload bytes >> the 1024 window.
                writer.write(
                    encode_frame(
                        Samples("greedy", np.zeros((200, N_CHANNELS)))
                    )
                )
                await writer.drain()
                frames = await _read_frames(reader, decoder, 1)
                eof = await reader.read()
                writer.close()
                return frames, eof

        frames, eof = asyncio.run(scenario())
        errors = [f for f in frames if isinstance(f, Error)]
        assert errors and errors[0].code == ERR_PROTOCOL
        assert "overdraft" in errors[0].message
        assert eof == b""

    def test_credit_overdraft_across_frames_of_one_read(self, model):
        """Two frames that each fit the window but arrive in one read
        overdraw it together: the client sent both before it could see
        either one's CREDIT."""
        config = _config()
        ingress = IngressConfig(credit_bytes=1024)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Open("greedy")))
                await writer.drain()
                await _read_frames(reader, decoder, 1)  # OPEN_OK
                # 20x4 float64 = 640 payload bytes each, 1280 together.
                frame = encode_frame(
                    Samples("greedy", np.zeros((20, N_CHANNELS)))
                )
                writer.write(frame + frame)
                await writer.drain()
                frames = await _read_frames(reader, decoder, 3)
                eof = await reader.read()
                writer.close()
                return frames, eof

        frames, eof = asyncio.run(scenario())
        errors = [f for f in frames if isinstance(f, Error)]
        assert errors and errors[0].code == ERR_PROTOCOL
        assert "credit overdraft" in errors[0].message
        assert eof == b""

    def test_refused_open_raises_at_once(self, model):
        """An OPEN the service refuses is answered with ERR_SESSION,
        which the client raises instead of waiting out its timeout;
        the server does not count it as opened."""
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                start = time.monotonic()
                with pytest.raises(RuntimeError, match="nope"):
                    await client.open("x", model_id="nope", timeout=3.0)
                elapsed = time.monotonic() - start
                await client.bye()
                return elapsed, live.server.stats

        elapsed, stats = asyncio.run(scenario())
        assert elapsed < 1.0
        assert stats.sessions_opened == 0

    def test_close_of_a_failed_session_raises_at_once(self, model):
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("s"))[0]
                poisoned = np.zeros((5, N_CHANNELS))
                poisoned[2, 1] = np.nan
                await client.send("s", poisoned)
                assert await _wait_for(
                    lambda: any(e.code == ERR_SESSION for e in client.errors)
                )
                start = time.monotonic()
                with pytest.raises(RuntimeError, match="not open here"):
                    await client.close("s", timeout=3.0)
                elapsed = time.monotonic() - start
                await client.bye()
                return elapsed

        assert asyncio.run(scenario()) < 1.0

    def test_client_waits_for_credit_and_completes(self, model):
        """A window smaller than the stream forces CREDIT round trips;
        the client must stall, resume, and still get every decision."""
        config = _config(max_batch=8, max_wait=2)
        chunk_bytes = 10 * N_CHANNELS * 8
        ingress = IngressConfig(credit_bytes=chunk_bytes)  # one chunk

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                client = IngressClient()
                welcome = await client.connect(live.host, live.port)
                assert welcome.credit_bytes == chunk_bytes
                ok, _ = await client.open("s")
                assert ok
                rng = np.random.default_rng(4)
                for _ in range(12):
                    await client.send("s", rng.random((10, N_CHANNELS)))
                await client.close("s")
                await client.bye()
                return client, live.server.stats

        client, stats = asyncio.run(scenario())
        assert stats.samples_frames == 12
        assert len(client.decisions["s"]) == 24  # 120 samples / 5

    def test_samples_for_unknown_session_rejected(self, model):
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(
                    encode_frame(
                        Samples("ghost", np.zeros((5, N_CHANNELS)))
                    )
                )
                await writer.drain()
                frames = await _read_frames(reader, decoder, 1)
                writer.close()
                return frames

        frames = asyncio.run(scenario())
        assert frames and frames[0].code == ERR_SESSION

    def test_server_only_frame_is_protocol_error(self, model):
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Credit(64)))
                await writer.drain()
                frames = await _read_frames(reader, decoder, 1)
                writer.close()
                return frames, live.server.stats

        frames, stats = asyncio.run(scenario())
        assert frames and frames[0].code == ERR_PROTOCOL
        assert stats.protocol_errors >= 1

    def test_garbage_bytes_poison_and_disconnect(self, model):
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(struct.pack("!IB", 1, 0x7F))  # bad tag
                await writer.drain()
                frames = await _read_frames(reader, decoder, 1)
                eof = await reader.read()
                writer.close()
                return frames, eof

        frames, eof = asyncio.run(scenario())
        assert frames and frames[0].code == ERR_PROTOCOL
        assert eof == b""


# -- resource protection -----------------------------------------------------


class TestResourceBounds:
    def test_slow_client_is_disconnected(self, model):
        """A peer that never reads cannot buffer the server without
        bound — once its transport holds more than write_buffer_bytes
        unsent, it is evicted, and its sessions are closed as on any
        disconnect.  Its receive buffer is small, as the server's send
        buffer is: kernel buffers left to grow would take megabytes
        before the transport holds any."""
        config = _config(max_batch=4, max_wait=1)
        ingress = IngressConfig(write_buffer_bytes=2048)

        async def scenario():
            service = StreamingService(model, config)
            async with _Server(service, config, ingress) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port, rcvbuf=4096
                )
                writer.write(encode_frame(Open("hog")))
                await writer.drain()
                # Never read again; shovel samples to generate
                # decisions + credits the transport must hold.
                rng = np.random.default_rng(5)
                stats = live.server.stats
                deadline = time.monotonic() + 20.0
                while (
                    stats.slow_client_disconnects == 0
                    and time.monotonic() < deadline
                ):
                    try:
                        writer.write(
                            encode_frame(
                                Samples(
                                    "hog",
                                    rng.random((10, N_CHANNELS)),
                                )
                            )
                        )
                        await writer.drain()
                    except ConnectionError:
                        break
                    await asyncio.sleep(0)
                # The eviction alone ends the connection: the client
                # has not closed its end yet.
                closed = await _wait_for(
                    lambda: live.server.open_sessions == 0
                )
                sessions = service.sessions
                writer.close()
                return stats, closed, sessions

        stats, closed, sessions = asyncio.run(scenario())
        assert stats.slow_client_disconnects >= 1
        assert closed
        assert sessions == ()

    def test_burst_of_frames_in_one_read_keeps_the_client(self, model):
        """A client may send its whole window back to back, so one read
        can hold a hundred SAMPLES frames.  Their CREDITs and DECISIONs
        must reach a client that reads them, not pile up unsent and
        evict it."""
        config = _config(max_batch=64, max_wait=0)
        stream = np.random.default_rng(21).random((2000, N_CHANNELS))

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                assert (await client.open("s"))[0]
                for start in range(0, len(stream), 20):  # 640 B frames
                    await client.send("s", stream[start:start + 20])
                await client.close("s")
                await client.bye()
                return client, live.server.stats

        client, stats = asyncio.run(scenario())
        assert stats.slow_client_disconnects == 0
        want = _replayed(model, config, {"s": stream})["s"]
        assert len(want) == 400
        assert stream_bytes(client.decisions["s"]) == stream_bytes(want)

    def test_peer_reset_is_a_clean_disconnect(self, model):
        """A peer that resets the connection with answers unread is
        dropped like one that closes it: its session is closed, and
        the reset its close reports reaches no exception handler."""
        config = _config()

        async def scenario():
            reported = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["message"])
            )
            service = StreamingService(model, config)
            async with _Server(service, config) as live:
                reader, writer, _, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Open("s")))
                writer.write(
                    encode_frame(Samples("s", np.zeros((25, N_CHANNELS))))
                )
                await writer.drain()
                assert await _wait_for(
                    lambda: live.server.stats.samples_frames == 1
                )
                # Linger 0: the close sends RST, not FIN.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                writer.close()
                closed = await _wait_for(
                    lambda: live.server.stats.connections_closed == 1
                )
                await asyncio.sleep(0.05)
                return closed, service.sessions, reported

        closed, sessions, reported = asyncio.run(scenario())
        assert closed
        assert sessions == ()
        assert reported == []

    def test_stop_waits_for_every_connection_handler(
        self, model, monkeypatch
    ):
        """A peer stops reading with answers still unsent (but under
        write_buffer_bytes, so it is not evicted), then ends its side.
        The EOF starts its handler's own drop, which waits out the close
        bound and then aborts the transport, and the connection has
        already left the server's set when stop() runs.  stop() must
        still not return before that handler has ended: a loop that
        ends right after it would cancel the handler, and the cancelled
        handler would reach the loop's exception handler."""
        monkeypatch.setattr(
            ingress_module, "_CLOSE_TIMEOUT_S", 0.2, raising=False
        )
        config = _config(max_wait=0)
        ingress = IngressConfig(write_buffer_bytes=16384)
        reported = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reported.append(context["message"])
            )
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                _, writer, _, _ = await _raw_handshake(
                    live.host, live.port, rcvbuf=4096
                )
                writer.transport.pause_reading()  # read nothing more
                writer.write(encode_frame(Open("s")))
                stats = live.server.stats
                rng = np.random.default_rng(3)
                sent = 0
                (conn,) = live.server._connections
                unsent = conn.writer.transport.get_write_buffer_size
                while not unsent() and sent < 2000:
                    writer.write(
                        encode_frame(
                            Samples("s", rng.random((25, N_CHANNELS)))
                        )
                    )
                    sent += 1
                    assert await _wait_for(
                        lambda: stats.samples_frames == sent
                    )
                held = unsent()
                writer.write_eof()
                assert await _wait_for(lambda: stats.connections_closed)
                await live.server.stop()
                pending = [
                    task for task in asyncio.all_tasks()
                    if task is not asyncio.current_task()
                ]
                writer.close()
                return held, stats, pending

        held, stats, pending = asyncio.run(scenario())
        assert 0 < held <= 16384
        assert stats.slow_client_disconnects == 0
        assert pending == []
        assert reported == []

    def test_idle_connection_times_out(self, model):
        config = _config()
        ingress = IngressConfig(idle_timeout_s=0.2)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                frames = await _read_frames(reader, decoder, 1, timeout=5.0)
                eof = await reader.read()
                writer.close()
                return frames, eof, live.server.stats

        frames, eof, stats = asyncio.run(scenario())
        assert stats.idle_disconnects == 1
        assert eof == b""
        assert frames and frames[0].code == ERR_PROTOCOL
        assert "idle" in frames[0].message

    def test_active_connection_outlives_the_idle_timeout(self, model):
        """Idleness counts from the last read: a connection that keeps
        sending stays open for several idle timeouts, and is timed out
        once it goes quiet."""
        config = _config()
        ingress = IngressConfig(idle_timeout_s=0.2, sweep_interval_s=0.02)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                reader, writer, decoder, _ = await _raw_handshake(
                    live.host, live.port
                )
                writer.write(encode_frame(Open("s")))
                rng = np.random.default_rng(8)
                for _ in range(12):  # 0.6 s of traffic
                    writer.write(
                        encode_frame(Samples("s", rng.random((5, N_CHANNELS))))
                    )
                    await writer.drain()
                    await asyncio.sleep(0.05)
                active = live.server.stats.idle_disconnects
                frames = await _read_frames(reader, decoder, 100, 5.0)
                writer.close()
                return active, frames, live.server.stats

        active, frames, stats = asyncio.run(scenario())
        assert active == 0
        assert stats.idle_disconnects == 1
        assert isinstance(frames[-1], Error)
        assert "idle" in frames[-1].message

    def test_quiescent_queue_still_drains(self, model):
        """max_wait batching ages on the ingest clock; the sweeper must
        flush queued windows when traffic stops, without a CLOSE."""
        config = _config(max_batch=256, max_wait=1000)
        ingress = IngressConfig(sweep_interval_s=0.02)

        async def scenario():
            async with _Server(
                StreamingService(model, config), config, ingress
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                ok, _ = await client.open("s")
                assert ok
                await client.send(
                    "s", np.random.default_rng(6).random((20, N_CHANNELS))
                )
                deadline = time.monotonic() + 10.0
                while (
                    len(client.decisions.get("s", [])) < 4
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.01)
                got = len(client.decisions.get("s", []))
                await client.aclose()
                return got

        assert asyncio.run(scenario()) == 4  # 20 samples / 5, no close

    def test_stats_describe_is_printable(self, model):
        config = _config()

        async def scenario():
            async with _Server(
                StreamingService(model, config), config
            ) as live:
                client = IngressClient()
                await client.connect(live.host, live.port)
                ok, _ = await client.open("s")
                await client.send(
                    "s", np.zeros((5, N_CHANNELS))
                )
                await client.close("s")
                await client.bye()
                return live.server.stats.describe()

        text = asyncio.run(scenario())
        assert "sessions 1 opened" in text
        assert "sample frames" in text
