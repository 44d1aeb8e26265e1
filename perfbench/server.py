"""emg_tcp system process: a fresh StreamingService behind IngressServer.

Fits the model from the generated training windows, serves it on a
loopback port and prints ``READY <port>``.  Commands arrive one per
line on stdin: ``mark`` starts the measured period (counters and spans
restart; answered with ``MARKED``), ``stop`` (or end of input) shuts
the server down and prints one ``RESULT <json>`` line with the
server-side counters, peak memory and, when traced, the span data.

    python perfbench/server.py --inputs IN.npz --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

import common
import tracing


async def serve(inputs, tracer) -> dict:
    from repro.perf.streaming import StreamStats
    from repro.stream import IngressServer, StreamingService

    model = common.fit_model(inputs["train_w"], inputs["train_l"])
    config = common.tcp_config()
    service = StreamingService(model, config)
    server = IngressServer(service, config)
    _, port = await server.start("127.0.0.1", 0)
    print(f"READY {port}", flush=True)
    loop = asyncio.get_running_loop()
    before = StreamStats.collect(service)
    stats_before = server.stats.__dict__.copy()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = line.strip()
        if command == "mark":
            before = StreamStats.collect(service)
            stats_before = server.stats.__dict__.copy()
            if tracer is not None:
                tracer.reset()
            print("MARKED", flush=True)
        elif command in ("stop", ""):
            break
    await server.stop()
    after = StreamStats.collect(service)
    result = {
        "peak_rss_mb": common.peak_rss_mb(),
        "ingress": {
            key: value - stats_before[key]
            for key, value in server.stats.__dict__.items()
        },
    }
    if tracer is not None:
        values = tracing.scheduler_counters(before, after)
        agg = tracer.aggregates()
        values.update(tracing.serving_layers(
            agg, after.n_windows - before.n_windows
        ))
        values.update(tracing.ingest_percentiles(tracer))
        for span, metric in (
            ("wire.decode", "wire.decode_us_per_frame"),
            ("wire.encode", "wire.encode_us_per_frame"),
        ):
            count = agg["items"].get(span) or agg["calls"].get(span, 0)
            values[metric] = 1e6 * agg["total"].get(span, 0.0) / max(
                count, 1
            )
        spatial = model.encoder.spatial
        values["encoder.row_cache_hit_frac"] = spatial.row_cache_hits / max(
            spatial.row_cache_hits + spatial.row_cache_misses, 1
        )
        result["layers"] = values
        result["busy_s"] = sum(
            agg["total"].get(span, 0.0)
            for span in (
                "wire.decode", "wire.encode",
                "scheduler.ingest", "scheduler.drain",
            )
        )
        result["decision_ingest_s"] = [
            [sid, index, seconds]
            for (sid, index), seconds in tracer.decision_ingest.items()
        ]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = dict(np.load(args.inputs))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_serving(tracer, join_decisions=True)
        tracing.install_wire(tracer)
    result = asyncio.run(serve(inputs, tracer))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
