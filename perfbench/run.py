"""The repo's benchmark: both halves of the system, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``emg_tcp``      open loop over loopback TCP: a fresh StreamingService
                   (max_wait=0) behind IngressServer in its own process,
                   fed EMG envelopes at 500 Hz by this process;
* ``unique_batch`` closed loop, in process: i.i.d. uniform samples
                   through StreamingService (max_batch=512);
* ``fleet2``       the same inputs through a 2-shard
                   ShardedStreamingService (shm rings on);
* ``iss_grid``     closed loop through HDChainSimulator's batched driver
                   on PULPv3 1 core, PULPv3 4 cores and Wolf 8 cores.

Every system process is launched fresh; ``setup_s`` is the median over
several launches of the time from launch until the system is warm and
ready.  Set-up times, and the rates and latencies of the in-process
closed loops (unique_batch, iss_grid), are scaled to a reference host
by a speed probe (``common.Prober``) run where no system work is in
flight; every other figure is as measured.  With
``--trace 0`` the end-to-end metrics are measured with no shims
installed.  With ``--trace 1`` the run measures half its time
untraced and half traced (each in a fresh process) and reports the
per-layer metrics of the traced half plus the tracing overhead.  Every
checked output is compared with the offline library; the last stdout
line is one JSON object, and the exit code is non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import shutil
import statistics
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("emg_tcp", "unique_batch", "fleet2", "iss_grid")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- closed-loop system processes ---------------------------------------------


async def _closed(workload, inputs, seconds, mode, trace, scratch):
    """One fresh closed-loop process: (set-up seconds as measured,
    result or None)."""
    import common

    t_launch = perf_counter()
    async with common.system_process(
        "closed.py", "--workload", workload, "--inputs", inputs,
        "--seconds", repr(seconds), "--mode", mode,
        "--trace", str(trace), "--scratch", scratch,
    ) as proc:
        await common.expect(proc, "READY", 120.0)
        setup_s = perf_counter() - t_launch
        if mode == "setup":
            await common.exited(proc)
            return setup_s, None
        return setup_s, await common.result(proc, seconds + 150.0)


# -- workloads ------------------------------------------------------------------


def _closed_workload(args, scratch, notes, prober):
    import numpy as np

    import common

    train_w, train_l = common.training_set()
    arrays = {"train_w": train_w, "train_l": train_l,
              "seed": np.int64(args.seed)}
    if args.workload == "iss_grid":
        arrays["pool"], arrays["warm"] = common.iss_windows(args.seed)
        notes.append(
            "inputs sha256 " + common.digest(*arrays.values())
        )
    else:
        lo, hi = common.signal_range()
        gen = common.uniform_rounds(args.seed, 1, lo, hi)
        prefix = [next(gen) for _ in range(common.PREFIX_ROUNDS)]
        warm = common.uniform_rounds(args.seed, 2, lo, hi)
        notes.append(
            "inputs sha256 "
            + common.digest(
                train_w, train_l,
                *(next(warm) for _ in range(common.WARM_ROUNDS)),
                *prefix,
            )
            + f" (training set, warm-up and the first "
            f"{common.PREFIX_ROUNDS} measured rounds; later rounds "
            f"continue the same seeded stream)"
        )
    inputs = os.path.join(scratch, "inputs.npz")
    np.savez(inputs, **arrays)

    def launch(seconds, mode, trace):
        speed = prober.speed()
        setup_s, result = asyncio.run(_closed(
            args.workload, inputs, seconds, mode, trace, scratch
        ))
        return setup_s * speed, result

    if args.trace:
        _, base = launch(args.seconds / 2, "measure", 0)
        _, traced = launch(args.seconds / 2, "measure", 1)
        layers = traced["layers"]
        layers["decision_p95_ms"] = base["metrics"]["decision_p95_ms"]
        layers["trace.overhead_frac"] = 1.0 - (
            traced["metrics"]["windows_per_s"]
            / base["metrics"]["windows_per_s"]
        )
        runs = [base, traced]
        return runs, None, layers
    setups = [
        launch(args.seconds, "setup", 0)[0]
        for _ in range(common.SETUP_REPEATS - 1)
    ]
    setup_s, result = launch(args.seconds, "measure", 0)
    setups.append(setup_s)
    return [result], setups, None


def _tcp_workload(args, scratch, notes, prober):
    import numpy as np

    import common
    import tcp

    train_w, train_l = common.training_set()
    seconds = args.seconds / 2 if args.trace else args.seconds
    measured, warm = common.tcp_streams(args.seed, seconds)
    notes.append(
        "inputs sha256 "
        + common.digest(train_w, train_l, *warm, *measured)
    )
    inputs = os.path.join(scratch, "inputs.npz")
    np.savez(inputs, train_w=train_w, train_l=train_l)
    model = common.fit_model(train_w, train_l)

    def one(trace, setup_only=False):
        speed = prober.speed()
        setup_s, load, server = tcp.launch(
            inputs, measured, warm, trace, setup_only
        )
        setup_s *= speed
        if setup_only:
            return setup_s, None
        checked = tcp.evaluate(load, server, model)
        late = np.asarray(load["late_s"])
        stats = server["ingress"]
        notes.append(
            f"server: {stats['sessions_opened']} sessions opened, "
            f"{stats['sessions_rejected']} shed, "
            f"{stats['slow_client_disconnects']} slow, "
            f"{stats['idle_disconnects']} idle, "
            f"{stats['protocol_errors']} protocol errors; "
            f"client errors: {load['errors'] or 'none'}"
        )
        lats = np.asarray(checked["lats"])
        if lats.size:
            notes.append(
                f"decision latency over {lats.size} decisions: "
                f"p99 {1e3 * np.percentile(lats, 99):.2f} ms, "
                f"{100.0 * np.mean(lats > 0.010):.2f}% beyond the "
                f"10 ms deadline (not gated)"
            )
        result = {
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "metrics": {
                **common.latency_metrics(checked["lats"]),
                # Open loop: decided windows over the span from the
                # first due chunk to the last decision received.
                "windows_per_s": len(checked["times"]) / (
                    max(checked["times"], default=load["t_end"])
                    - load["t0"]
                ),
                "peak_rss_mb": server["peak_rss_mb"],
            },
            "dropped": len(load["dropped"]),
            "late_p95_ms": 1e3 * float(np.percentile(late, 95)),
        }
        if trace:
            layers = server["layers"]
            other = checked["other"]
            if other:
                layers["ingress.other_ms_p50"] = (
                    1e3 * common.percentile(other, 50)
                )
                layers["ingress.other_ms_p95"] = (
                    1e3 * common.percentile(other, 95)
                )
            layers["ingress.dropped_sessions"] = result["dropped"]
            layers["bench.gen_late_p95_ms"] = result["late_p95_ms"]
            layers["trace.busy_frac"] = server["busy_s"] / (
                load["t_end"] - load["t0"]
            )
            result["layers"] = layers
        return setup_s, result

    if args.trace:
        _, base = one(0)
        _, traced = one(1)
        layers = traced["layers"]
        layers["decision_p95_ms"] = base["metrics"]["decision_p95_ms"]
        # Open loop: throughput is the offered rate, so the overhead
        # shows as added decision latency.
        layers["trace.overhead_frac"] = (
            traced["metrics"]["decision_p50_ms"]
            / base["metrics"]["decision_p50_ms"] - 1.0
        )
        return [base, traced], None, layers
    setups = [
        one(0, setup_only=True)[0]
        for _ in range(common.SETUP_REPEATS - 1)
    ]
    setup_s, result = one(0)
    setups.append(setup_s)
    notes.append(
        f"generator lateness p95 {result['late_p95_ms']:.3f} ms; "
        f"{result['dropped']} sessions dropped"
    )
    return [result], setups, None


def _iss_notes(result, notes) -> None:
    import common

    cycles = result["sim_cycles"]
    base = cycles["pulpv3_1c"]
    parts = []
    for key in ("pulpv3_4c", "wolf_8c_bi"):
        speedup = base / cycles[key]
        paper = common.PAPER_SPEEDUP[key]
        parts.append(
            f"{key} {speedup:.2f}x (paper {paper}x, error "
            f"{100.0 * (speedup / paper - 1.0):+.1f}%)"
        )
    notes.append(
        "simulated cycles/window "
        + ", ".join(f"{k} {v}" for k, v in cycles.items())
        + "; speed-up vs PULPv3 1 core: " + "; ".join(parts)
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import common
    scratch = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    notes = [
        f"workload {args.workload} seed {args.seed} seconds "
        f"{args.seconds} trace {args.trace}"
    ]
    try:
        # Probed just before each launch, while no system process runs.
        prober = common.Prober()
        if args.workload == "emg_tcp":
            runs, setups, layers = _tcp_workload(
                args, str(scratch), notes, prober
            )
        else:
            runs, setups, layers = _closed_workload(
                args, str(scratch), notes, prober
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        if "decision_digest" in r:
            notes.append(
                f"decision digest (first {common.PREFIX_ROUNDS} rounds) "
                f"{r['decision_digest']}"
            )
        if "sim_cycles" in r:
            _iss_notes(r, notes)
        if r.get("probe_units"):
            notes.append(
                f"windows/s as measured on this host "
                f"{r['raw_windows_per_s']:.1f}; reported scaled to the "
                f"reference host by {r['probe_units']} probe units"
            )
        elif "raw_windows_per_s" in r:
            notes.append("windows/s reported as measured on this host")
    notes.append(
        f"failed_frac {failed / max(attempted, 1):.6f} "
        f"({failed} of {attempted} windows)"
    )
    correct = failed == 0 and attempted > 0
    if layers is None:
        values = dict(runs[0]["metrics"])
        values["setup_s"] = statistics.median(setups)
        notes.append(
            "set-up seconds per launch (reference host): "
            + ", ".join(f"{s:.3f}" for s in setups)
        )
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in common.metric_units("end_to_end").items()
        }
    else:
        import tracing

        busy = layers["trace.busy_frac"]
        notes.append(f"traced layer busy share of wall time: {busy:.3f}")
        if args.workload != "emg_tcp" and abs(busy - 1.0) > 0.10:
            # Closed loops: the layer spans must account for the run.
            notes.append("trace check failed: spans miss over 10% of wall")
            correct = False
        metrics = tracing.layer_metrics(layers)
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
