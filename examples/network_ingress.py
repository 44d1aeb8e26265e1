"""Walkthrough: the TCP front door over the streaming fleet.

Builds on ``examples/streaming_service.py`` — same model, same
parity-first mindset — but moves the clients off-process: samples
arrive over real sockets speaking the length-prefixed frame protocol
of ``repro.stream.wire``, and an ``IngressServer`` multiplexes every
connection onto one streaming service.

The walkthrough demonstrates the four ingress properties:

1. **Wire parity** — a seeded workload of concurrent network clients
   produces per-session decision streams byte-identical (by digest) to
   an in-process replay of the same sample streams: framing, chunk
   interleaving, and credit stalls are unobservable in the output;
2. **True end-to-end latency** — clients stamp each SAMPLES frame with
   their own ``perf_counter``; the server echoes the stamp on the
   DECISION frames of the windows that chunk completed, so p50/p95/p99
   below are honest ingest->decision wall latency over sockets;
3. **Admission control** — sessions that arrive while earlier ones
   stream meet a tight queue-age watermark: OPENs that land while
   queued windows have aged are shed with a retry-after hint, while
   every admitted session still gets byte-exact service;
4. **Slow-client eviction** — a client that stops reading is
   disconnected once its connection holds more than
   ``write_buffer_bytes`` unsent, instead of buffering the server into
   the ground.

Run:  PYTHONPATH=src python examples/network_ingress.py
"""

import asyncio
import socket
import time

import numpy as np

from repro.emg import EMGDatasetConfig, WindowConfig, generate_subject
from repro.emg.windows import paper_split, windows_from_trials
from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.stream import (
    IngressConfig,
    IngressServer,
    StreamConfig,
    StreamingService,
    parity_digest,
    replay,
    trace_from_streams,
)
from repro.stream.wire import Hello, Open, Samples, encode_frame
from repro.stream.workload import (
    WorkloadConfig,
    generate_workload,
    run_workload,
)

DIM = 2048


def train_model() -> BatchHDClassifier:
    dataset = EMGDatasetConfig(n_subjects=1)
    subject = generate_subject(dataset, 0)
    window = WindowConfig()
    train_trials, _ = paper_split(subject)
    train_w, train_l = windows_from_trials(train_trials, window)
    model = BatchHDClassifier(HDClassifierConfig.emg(dim=DIM))
    model.fit(np.asarray(train_w), train_l)
    return model


def percentile_line(latencies) -> str:
    if not latencies:
        return "no stamped decisions"
    p50, p95, p99 = np.percentile(latencies, [50, 95, 99]) * 1e3
    return (
        f"p50 {p50:.2f}ms / p95 {p95:.2f}ms / p99 {p99:.2f}ms "
        f"(n={len(latencies)})"
    )


async def steady_phase(model, config) -> None:
    # -- 1+2: wire parity and stamped latency ---------------------------
    service = StreamingService(model, config)
    server = IngressServer(service, config)
    host, port = await server.start("127.0.0.1", 0)
    scripts = generate_workload(
        WorkloadConfig(
            n_sessions=6,
            n_channels=model.config.n_channels,
            samples_per_session=600,
            chunking=(1, 40),
        ),
        seed=11,
    )
    result = await run_workload(host, port, scripts)
    await server.stop()
    print(f"steady: {len(result.completed)} sessions completed")
    print(f"  latency {percentile_line(result.latencies)}")

    reference = StreamingService(model, config)
    expected = replay(
        reference, trace_from_streams(result.completed, seed=0)
    )
    got = parity_digest(result.decisions)
    want = parity_digest(
        {sid: expected[sid] for sid in result.completed}
    )
    status = "PASS" if got == want else "FAIL"
    print(f"  wire parity vs in-process replay: {status} ({got[:16]})")
    assert got == want


async def overload_phase(model, config) -> None:
    # -- 3: arrivals during traffic against a tight queue-age watermark -
    service = StreamingService(model, config)
    server = IngressServer(
        service,
        config,
        IngressConfig(shed_queue_age_ticks=0.0, retry_after_s=0.25),
    )
    host, port = await server.start("127.0.0.1", 0)
    scripts = generate_workload(
        WorkloadConfig(
            n_sessions=24,
            n_channels=model.config.n_channels,
            samples_per_session=600,
            burst_fraction=0.25,  # the rest arrive while these stream
            pacing_s=0.01,
        ),
        seed=13,
    )
    result = await run_workload(host, port, scripts)
    await server.stop()
    print(
        f"overload: {len(result.completed)} admitted, "
        f"{len(result.rejected)} shed with retry-after"
    )

    reference = StreamingService(model, config)
    expected = replay(
        reference, trace_from_streams(result.completed, seed=0)
    )
    got = parity_digest(result.decisions)
    want = parity_digest(
        {sid: expected[sid] for sid in result.completed}
    )
    status = "PASS" if got == want else "FAIL"
    print(f"  admitted-session parity: {status} ({got[:16]})")
    assert got == want


async def slow_client_phase(model, config) -> None:
    # -- 4: a peer that never reads is evicted, not buffered ------------
    service = StreamingService(model, config)
    server = IngressServer(
        service,
        config,
        IngressConfig(write_buffer_bytes=2048),
    )
    host, port = await server.start("127.0.0.1", 0)
    # A small receive buffer, fixed before connect: a kernel left to
    # grow it would absorb megabytes of decisions before the server's
    # transport holds any unsent.
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (host, port))
    reader, writer = await asyncio.open_connection(sock=sock)
    writer.write(encode_frame(Hello()))
    writer.write(encode_frame(Open("hog")))
    await writer.drain()
    rng = np.random.default_rng(5)
    deadline = time.monotonic() + 20.0
    while (
        server.stats.slow_client_disconnects == 0
        and time.monotonic() < deadline
    ):
        try:
            writer.write(
                encode_frame(
                    Samples(
                        "hog",
                        rng.random((10, model.config.n_channels)),
                    )
                )
            )
            await writer.drain()
        except ConnectionError:
            break
        await asyncio.sleep(0)
    writer.close()
    await server.stop()
    print(
        f"slow client: evicted "
        f"(slow_client_disconnects="
        f"{server.stats.slow_client_disconnects})"
    )
    assert server.stats.slow_client_disconnects >= 1


def main() -> None:
    model = train_model()
    print(f"model trained (D={DIM})")
    config = StreamConfig(
        window=WindowConfig(), max_batch=64, max_wait=4
    )
    asyncio.run(steady_phase(model, config))
    asyncio.run(overload_phase(model, config))
    asyncio.run(slow_client_phase(model, config))
    print("all ingress properties demonstrated")


if __name__ == "__main__":
    main()
