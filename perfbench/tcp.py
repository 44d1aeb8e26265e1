"""emg_tcp load generator: an honest open loop over loopback TCP.

The generator is this process.  It launches the server process
(``server.py``), warms it with subject-4 sessions, then streams every
measured session's EMG envelope at 500 Hz in 25-sample SAMPLES frames
over two connections, staggered evenly across sessions.  Each frame is
stamped with the time it was *due*, so a generator or server stall
counts against every decision it delays; how late the generator itself
ran is reported beside it.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import List

import numpy as np

import common

async def _connect(port: int):
    from repro.stream import IngressClient

    client = IngressClient()
    await client.connect("127.0.0.1", port)
    return client


async def _finish(client, sessions) -> set:
    """Close ``sessions`` (each drains its windows), then say BYE.

    Returns the sessions that did not close cleanly."""
    failed = set()
    results = await asyncio.gather(
        *(client.close(sid, timeout=20.0) for sid in sessions),
        return_exceptions=True,
    )
    for sid, outcome in zip(sessions, results):
        if isinstance(outcome, BaseException):
            failed.add(sid)
    try:
        await client.bye(timeout=20.0)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        await client.aclose()
    return failed


def _windows_done(n_samples: int, window) -> int:
    """Windows the serving windower has completed after ``n_samples``."""
    onset = int(round(window.skip_onset_s * common.SAMPLE_RATE_HZ))
    full = n_samples - onset - window.slice_samples
    return full // window.stride + 1 if full >= 0 else 0


async def warm_up(port: int, streams: List[np.ndarray]) -> None:
    """Stream the warm-up sessions round by round, each round once the
    previous round's decisions are back (a closed loop, so warm-up
    never piles DECISION frames onto a client that is busy sending)."""
    client = await _connect(port)
    sids = [f"warm-{i}" for i in range(len(streams))]
    await asyncio.gather(*(client.open(sid) for sid in sids))
    chunk = common.TCP_CHUNK
    window = common.tcp_config().window
    expected = 0
    for start in range(0, max(s.shape[0] for s in streams), chunk):
        for sid, stream in zip(sids, streams):
            if start < stream.shape[0]:
                await client.send(sid, stream[start : start + chunk])
                expected += _windows_done(
                    min(start + chunk, stream.shape[0]), window
                ) - _windows_done(start, window)
        deadline = perf_counter() + 30.0
        while sum(map(len, client.decisions.values())) < expected:
            if perf_counter() > deadline:
                raise RuntimeError("warm-up decisions did not arrive")
            await asyncio.sleep(0.0005)
    failed = await _finish(client, sids)
    if failed:
        raise RuntimeError(f"warm-up sessions failed: {sorted(failed)}")


async def open_loop(port: int, streams: List[np.ndarray]) -> dict:
    """Run the measured open loop; returns client-side observations."""
    clients = [
        await _connect(port) for _ in range(common.TCP_CONNECTIONS)
    ]
    n = len(streams)
    sids = [f"s{i}" for i in range(n)]
    owner = [clients[i % len(clients)] for i in range(n)]
    opened = await asyncio.gather(
        *(owner[i].open(sids[i]) for i in range(n)),
        return_exceptions=True,
    )
    dropped = {
        sids[i] for i, outcome in enumerate(opened)
        if isinstance(outcome, BaseException) or not outcome[0]
    }
    period = common.TCP_CHUNK / common.SAMPLE_RATE_HZ
    n_chunks = streams[0].shape[0] // common.TCP_CHUNK
    chunk = common.TCP_CHUNK
    late = []
    t0 = perf_counter() + 0.05
    for j in range(n_chunks):
        for i in range(n):
            if sids[i] in dropped:
                continue
            due = t0 + (j + i / n) * period
            # Sleeping (at least a zero-length yield) lets the client's
            # reader drain DECISION frames between sends.
            await asyncio.sleep(max(0.0, due - perf_counter()))
            late.append(perf_counter() - due)
            try:
                await owner[i].send(
                    sids[i],
                    streams[i][j * chunk : (j + 1) * chunk],
                    stamp=due,
                )
            except (ConnectionError, OSError):
                dropped.update(
                    sid for sid, c in zip(sids, owner) if c is owner[i]
                )
    for client in clients:
        live = [
            sid for sid, c in zip(sids, owner)
            if c is client and sid not in dropped
        ]
        dropped |= await _finish(client, live)
    t_end = perf_counter()
    decisions = {}
    errors = []
    for client in clients:
        decisions.update(client.decisions)
        errors.extend(client.errors)
    for error in errors:
        if error.session_id:
            dropped.add(error.session_id)
    return {
        "sids": sids,
        "streams": streams,
        "decisions": decisions,
        "dropped": dropped,
        "late_s": late,
        "t0": t0,
        "t_end": t_end,
        "errors": [f"{e.code}:{e.message}" for e in errors],
    }


async def _session(inputs_path, measured, warm, trace, setup_only):
    t_launch = perf_counter()
    async with common.system_process(
        "server.py", "--inputs", inputs_path, "--trace", str(trace)
    ) as proc:
        port = int((await common.expect(proc, "READY", 120.0)).split()[1])
        await warm_up(port, warm)
        setup_s = perf_counter() - t_launch
        load = None
        if not setup_only:
            proc.stdin.write(b"mark\n")
            await proc.stdin.drain()
            await common.expect(proc, "MARKED", 30.0)
            load = await open_loop(port, measured)
        proc.stdin.write(b"stop\n")
        await proc.stdin.drain()
        return setup_s, load, await common.result(proc, 60.0)


def launch(inputs_path, measured, warm, trace=0, setup_only=False):
    """One fresh server: (setup_s, client observations, server result)."""
    return asyncio.run(
        _session(inputs_path, measured, warm, trace, setup_only)
    )


def evaluate(load, server, model) -> dict:
    """Check every decision against the offline library; collect the
    latency of every correct one, stamped with its receipt time."""
    config = common.tcp_config()
    window = config.window
    onset = int(round(window.skip_onset_s * common.SAMPLE_RATE_HZ))
    period = common.TCP_CHUNK / common.SAMPLE_RATE_HZ
    n = len(load["sids"])
    ingest_s = {
        (sid, index): seconds
        for sid, index, seconds in server.get("decision_ingest_s", [])
    }
    attempted = failed = 0
    times, lats, other = [], [], []
    for k, (sid, stream) in enumerate(zip(load["sids"], load["streams"])):
        want = common.offline_decisions(
            model, stream, window, config.smooth
        )
        attempted += len(want)
        if sid in load["dropped"]:
            failed += len(want)
            continue
        got = {d.index: d for d in load["decisions"].get(sid, [])}
        for index, pair in enumerate(want):
            d = got.get(index)
            if d is None or (d.raw_label, d.label) != pair:
                failed += 1
                continue
            if d.latency_s is None:
                continue
            # The chunk whose arrival completed this window was due at:
            end = onset + index * window.stride + window.slice_samples
            chunk = -(-end // common.TCP_CHUNK) - 1
            times.append(load["t0"] + (chunk + k / n) * period + d.latency_s)
            lats.append(d.latency_s)
            if (sid, index) in ingest_s:
                other.append(d.latency_s - ingest_s[(sid, index)])
    return {
        "attempted": attempted,
        "failed": failed,
        "times": times,
        "lats": lats,
        "other": other,
    }
