"""Closed-loop system process: unique_batch, fleet2 and iss_grid.

Launched fresh by ``run.py`` for every set-up it times.  It loads the
generated inputs, builds the system under test, warms it on inputs
disjoint from the measured ones and prints ``READY``.  In ``setup``
mode it then exits; in ``measure`` mode it drives the system flat out
for ``--seconds``, checks every output against the offline library,
and prints one ``RESULT <json>`` line.

    python perfbench/closed.py --workload unique_batch --inputs IN.npz \
        --seconds 10 --mode measure --trace 0 --scratch DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from time import perf_counter

import numpy as np

import common
import tracing


# -- unique_batch / fleet2 ----------------------------------------------------


class ServingLoop:
    """Arrival rounds of i.i.d. uniform chunks through a streaming
    service (single process or a 2-shard fleet), flat out."""

    def __init__(self, workload, inputs, scratch, tracer):
        from repro.emg import WindowConfig
        from repro.stream import (
            ShardedStreamingService,
            StreamConfig,
            StreamingService,
        )

        self.workload = workload
        self.scratch = scratch
        self.seed = int(inputs["seed"])
        self.tracer = tracer
        self.model = common.fit_model(inputs["train_w"], inputs["train_l"])
        self.lo, self.hi = common.signal_range()
        # Uniform noise has no onset transient to skip; max_wait is one
        # arrival round, so every round fills one max_batch dispatch.
        self.config = StreamConfig(
            window=WindowConfig(window_samples=5, skip_onset_s=0.0),
            max_batch=common.MAX_BATCH,
            max_wait=common.UNIQUE_SESSIONS,
        )
        self.per_chunk = common.UNIQUE_CHUNK // self.config.window.stride
        if workload == "fleet2":
            from repro.hdc import save_model

            if tracer is not None:
                tracing.install_fleet(tracer, scratch)
            store = save_model(f"{scratch}/model", self.model)
            self.service = ShardedStreamingService(
                store, self.config, n_shards=2
            )
        else:
            self.service = StreamingService(self.model, self.config)
        warm = common.uniform_rounds(self.seed, 2, self.lo, self.hi)
        sessions = [f"warm-{s}" for s in range(common.UNIQUE_SESSIONS)]
        for sid in sessions:
            self.service.open_session(sid)
        for _ in range(common.WARM_ROUNDS):
            block = next(warm)
            for s, sid in enumerate(sessions):
                self.service.ingest(sid, block[s])
        self.service.drain()
        for sid in sessions:
            self.service.close_session(sid)

    def close(self) -> None:
        if self.workload == "fleet2":
            self.service.close()

    def _counters(self):
        from repro.perf.streaming import StreamStats

        if self.workload == "fleet2":
            return self.service.stats()
        return StreamStats.collect(self.service)

    def _worker_pids(self):
        if self.workload != "fleet2":
            return ()
        return tuple(
            self.service.shard_process(i).pid
            for i in range(self.service.n_shards)
        )

    def run(self, seconds: float) -> dict:
        service, tracer = self.service, self.tracer
        n_sessions = common.UNIQUE_SESSIONS
        before = self._counters()
        spatial = self.model.encoder.spatial
        row_before = (spatial.row_cache_hits, spatial.row_cache_misses)
        if tracer is not None:
            if self.workload == "fleet2":
                tracing.remove_worker_dumps(self.scratch)
            tracer.reset()
        for s in range(n_sessions):
            service.open_session(s)
        rounds = common.uniform_rounds(self.seed, 1, self.lo, self.hi)
        # fleet2's shard workers are still busy after ingest returns,
        # so a probe there would measure them, not the host.
        prober = common.Prober() if self.workload == "unique_batch" else None
        starts = []
        returns = []
        decided = 0
        rss = None
        rss_at = 40 * common.MAX_BATCH
        t0 = perf_counter()
        deadline = t0 + seconds
        while True:
            block = next(rounds)
            stamps = np.empty(n_sessions)
            for s in range(n_sessions):
                stamps[s] = perf_counter()
                out = service.ingest(s, block[s])
                if out:
                    returns.append((perf_counter(), out))
                    decided += len(out)
            starts.append(stamps)
            if prober is not None:
                # Between rounds no window is queued in-process.
                prober.tick()
            if rss is None and decided >= rss_at:
                rss = common.peak_rss_mb(self._worker_pids())
            if perf_counter() >= deadline:
                break
        out = service.drain()
        t1 = perf_counter()
        returns.append((t1, out))
        if rss is None:
            rss = common.peak_rss_mb(self._worker_pids())
        after = self._counters()
        row_after = (spatial.row_cache_hits, spatial.row_cache_misses)
        n_rounds = len(starts)
        starts = np.asarray(starts)

        # Per-session decision streams, latency per decision.
        labels = [dict() for _ in range(n_sessions)]
        times, lats = [], []
        for stamp, decisions in returns:
            for d in decisions:
                labels[d.session_id][d.index] = (d.raw_label, d.label)
                chunk = d.index // self.per_chunk
                times.append(stamp)
                lats.append(stamp - starts[chunk, d.session_id])
        probes = prober.samples if prober is not None else None
        result = {
            "metrics": {
                "windows_per_s": common.rate_metric(times, t0, t1, probes),
                **common.latency_metrics(lats, times, t0, t1, probes),
                "peak_rss_mb": rss,
            },
            "raw_windows_per_s": common.rate_metric(times, t0, t1),
            "probe_units": len(probes or ()),
        }
        if tracer is not None:
            result["layers"] = self._layers(
                before, after, row_before, row_after, t1 - t0, len(times)
            )
            tracer.uninstall()
        result.update(self._check(labels, n_rounds))
        return result

    def _layers(self, before, after, row_before, row_after, wall, windows):
        tracer = self.tracer
        values = tracing.scheduler_counters(before, after)
        if self.workload == "fleet2":
            dumps = tracing.load_worker_dumps(self.scratch)
            agg = tracing.merge(dumps)
            coordinator = tracer.aggregates()
            calls = coordinator["calls"].get("sharded.ingest", 0)
            values["sharded.ingest_us_per_call"] = (
                1e6 * coordinator["total"].get("sharded.ingest", 0.0)
                / max(calls, 1)
            )
            shards = after.shards
            busy = sum(
                a.host_seconds - b.host_seconds
                for a, b in zip(shards, before.shards)
            )
            values["sharded.worker_busy_frac"] = busy / (len(shards) * wall)
            per_shard = [
                a.n_windows - b.n_windows
                for a, b in zip(shards, before.shards)
            ]
            values["sharded.shard_windows_skew"] = max(per_shard) / max(
                np.mean(per_shard), 1e-9
            )
            hits = sum(d["row_hits"] for d in dumps)
            misses = sum(d["row_misses"] for d in dumps)
            durations = [x for d in dumps for x in d["ingest_s"]]
            if durations:
                values["scheduler.ingest_ms_p50"] = (
                    1e3 * common.percentile(durations, 50)
                )
                values["scheduler.ingest_ms_p95"] = (
                    1e3 * common.percentile(durations, 95)
                )
            values["trace.busy_frac"] = tracing.busy_frac(
                coordinator, ("sharded.ingest", "sharded.drain"), wall
            )
        else:
            agg = tracer.aggregates()
            hits = row_after[0] - row_before[0]
            misses = row_after[1] - row_before[1]
            values.update(tracing.ingest_percentiles(tracer))
            values["trace.busy_frac"] = tracing.busy_frac(
                agg, ("scheduler.ingest", "scheduler.drain"), wall
            )
        values.update(tracing.serving_layers(agg, windows))
        values["encoder.row_cache_hit_frac"] = hits / max(hits + misses, 1)
        return values

    def _check(self, labels, n_rounds) -> dict:
        """Every window of every session against the offline library,
        plus the parity digest over the first PREFIX_ROUNDS rounds
        (equal for unique_batch and fleet2 on the same seed)."""
        from repro.stream import parity_digest
        from repro.stream.session import Decision

        gen = common.uniform_rounds(self.seed, 1, self.lo, self.hi)
        blocks = [next(gen) for _ in range(n_rounds)]
        attempted = failed = 0
        for s, got in enumerate(labels):
            want = common.offline_decisions(
                self.model, np.concatenate([b[s] for b in blocks]),
                self.config.window, self.config.smooth,
            )
            attempted += len(want)
            failed += sum(
                1 for i, pair in enumerate(want) if got.get(i) != pair
            )
        limit = min(common.PREFIX_ROUNDS, n_rounds) * self.per_chunk
        digest = parity_digest({
            s: [
                Decision(s, i, got[i][1], got[i][0], 0, 0, 0)
                for i in range(limit) if i in got
            ]
            for s, got in enumerate(labels)
        })
        return {
            "attempted": attempted,
            "failed": failed,
            "decision_digest": digest,
        }


# -- iss_grid ------------------------------------------------------------------


class IssLoop:
    """Batches of quantised EMG windows through the ISS on the three
    headline machine configurations, round robin, flat out."""

    def __init__(self, inputs, tracer):
        from repro.kernels import ChainConfig, ChainDims, HDChainSimulator
        from repro.pulp.soc import PULPV3_SOC, WOLF_SOC

        self.tracer = tracer
        self.model = common.fit_model(inputs["train_w"], inputs["train_l"])
        spatial = self.model.encoder.spatial
        self.pool = spatial.quantize_batch(inputs["pool"])
        cfg = self.model.config
        dims = ChainDims(
            dim=cfg.dim, n_channels=cfg.n_channels, n_levels=cfg.n_levels,
            n_classes=len(self.model.labels), ngram=cfg.ngram_size,
            window=self.pool.shape[1],
        )
        machines = {
            "pulpv3_1c": (PULPV3_SOC, 1, False),
            "pulpv3_4c": (PULPV3_SOC, 4, False),
            "wolf_8c_bi": (WOLF_SOC, 8, True),
        }
        im = spatial.item_memory.as_matrix()
        cim = spatial.continuous_memory.as_matrix()
        am = self.model.am_matrix()
        self.sims = {}
        self.hardware = {}
        warm = spatial.quantize_batch(inputs["warm"])
        for key in common.ISS_MACHINES:
            soc, cores, builtins = machines[key]
            sim = HDChainSimulator(
                ChainConfig(
                    soc=soc, n_cores=cores, dims=dims,
                    use_builtins=builtins,
                )
            )
            sim.load_model(im, cim, am)
            # The warm-up batch (first-call compile) is the same for
            # every seed, so the modelled-hardware statistics taken from
            # it are exact and identical in every run; the AM argmin's
            # cycles vary by a few with the data of other windows.
            results = sim.run_window_levels_batch(warm)
            self.sims[key] = sim
            self.hardware[key] = {
                "cycles": np.mean([r.total_cycles for r in results]),
                "instrs": np.mean([
                    r.encode_run.total_instrs + r.am_run.total_instrs
                    for r in results
                ]),
                "dma_bytes": np.mean([
                    r.encode_run.dma_bytes + r.am_run.dma_bytes
                    for r in results
                ]),
                "barrier_cycles": np.mean([
                    r.encode_run.barrier_cycles + r.am_run.barrier_cycles
                    for r in results
                ]),
            }

    def close(self) -> None:
        pass

    def run(self, seconds: float) -> dict:
        from repro.kernels.chain import (
            chain_batch_telemetry,
            reset_chain_batch_telemetry,
        )
        from repro.pulp import fastpath

        tracer = self.tracer
        reset_chain_batch_telemetry()
        fastpath.reset_fastpath_telemetry()
        if tracer is not None:
            tracer.reset()
        n_pool = len(self.pool)
        batch = common.ISS_BATCH
        records = []  # (machine, pool indices, results, end stamp, seconds)
        pos = 0
        rss = None
        prober = common.Prober()
        t0 = perf_counter()
        deadline = t0 + seconds
        while perf_counter() < deadline:
            for key, sim in self.sims.items():
                # Between batches no window is in flight.
                prober.tick()
                idx = np.arange(pos, pos + batch) % n_pool
                pos += batch
                start = perf_counter()
                results = sim.run_window_levels_batch(self.pool[idx])
                end = perf_counter()
                records.append((key, idx, results, end, end - start))
            if rss is None:
                rss = common.peak_rss_mb()
        t1 = perf_counter()
        chain = chain_batch_telemetry()
        bails = fastpath.fastpath_telemetry().total_bails
        times = [r[3] for r in records for _ in r[2]]
        lats = [r[4] for r in records for _ in r[2]]
        result = {
            "attempted": len(times),
            "metrics": {
                "windows_per_s": common.rate_metric(
                    times, t0, t1, prober.samples
                ),
                **common.latency_metrics(
                    lats, times, t0, t1, prober.samples
                ),
                "peak_rss_mb": rss,
            },
            "raw_windows_per_s": common.rate_metric(times, t0, t1),
            "probe_units": len(prober.samples),
            "sim_cycles": {
                key: hw["cycles"] for key, hw in self.hardware.items()
            },
        }
        if tracer is not None:
            result["layers"] = self._layers(records, chain, bails, t1 - t0)
            tracer.uninstall()
        result["failed"] = self._check(records)
        return result

    def _layers(self, records, chain, bails, wall):
        agg = self.tracer.aggregates()
        total, self_s = agg["total"], agg["self"]
        n = sum(len(r[2]) for r in records)
        instrs = sum(
            res.encode_run.total_instrs + res.am_run.total_instrs
            for r in records for res in r[2]
        )
        hardware = self.hardware.values()
        values = {
            "chain.staging_ms_per_window":
                1e3 * self_s.get("chain.batch", 0.0) / n,
            "lockstep.encode_ms_per_window":
                1e3 * total.get("lockstep.encode", 0.0) / n,
            "lockstep.am_ms_per_window":
                1e3 * total.get("lockstep.am", 0.0) / n,
            "lockstep.fallback_windows": chain["fallback_windows"],
            "fastpath.bails": bails,
            "pulp.sim_instrs_per_window":
                np.mean([hw["instrs"] for hw in hardware]),
            "pulp.dma_bytes_per_window":
                np.mean([hw["dma_bytes"] for hw in hardware]),
            "pulp.barrier_cycles_per_window":
                np.mean([hw["barrier_cycles"] for hw in hardware]),
            "pulp.sim_mips": instrs / wall / 1e6,
            "trace.busy_frac": tracing.busy_frac(
                agg, ("chain.batch",), wall
            ),
        }
        for key, hw in self.hardware.items():
            values[f"sim_cycles.{key}"] = hw["cycles"]
        return values

    def _check(self, records) -> int:
        """Labels and distances must equal the library's am_search on
        the same levels."""
        from repro.hdc import engine

        used = np.unique(np.concatenate([r[1] for r in records]))
        queries = self.model.encoder.encode_levels_batch(self.pool[used])
        labels, distances = engine.am_search(
            queries.words, self.model.prototype_words
        )
        where = {int(i): k for k, i in enumerate(used)}
        failed = 0
        for _, idx, results, _, _ in records:
            for i, res in zip(idx, results):
                k = where[int(i)]
                if res.label_index != int(labels[k]) or not np.array_equal(
                    res.distances, distances[k]
                ):
                    failed += 1
        return failed


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("unique_batch", "fleet2", "iss_grid"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    inputs = dict(np.load(args.inputs))
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        if args.workload == "iss_grid":
            if tracer is not None:
                tracing.install_iss(tracer)
            loop = IssLoop(inputs, tracer)
        else:
            if tracer is not None:
                tracing.install_serving(tracer)
            loop = ServingLoop(args.workload, inputs, scratch, tracer)
        try:
            print("READY", flush=True)
            if args.mode == "measure":
                result = loop.run(args.seconds)
                print("RESULT " + json.dumps(result), flush=True)
        finally:
            loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
