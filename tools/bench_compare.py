#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

Checks BASE (``git archive``) and the working tree (tracked files and
untracked ones git does not ignore, as they are on disk) out into
``.bench_compare/base`` and ``.bench_compare/work``.  The two paths have
equal length, because ``iss_grid``'s ``peak_rss_mb`` follows the
checkout path's length.  Each side runs its own ``perfbench/run.py``,
unchanged, for ``BENCHMARK.json``'s ``run_seconds``, on seeds
``S .. S + N - 1``, in pairs that alternate which side runs first.

The result is ``BENCH_<workload>.json`` at the repo root:

* both revisions (base commit and tree; the working tree's HEAD, tree
  and whether it differs from HEAD), the core count and the settings;
* per seed and side: every end-to-end metric, ``attempted``,
  ``failed``, the exit code and ``correct`` flag, the raw windows/s
  from the run's note where it prints one (the rate before probe
  scaling), and the run's whole CPU time (``cpu_s``: user plus system
  of the run and every child it waited for, set-up launches, probe
  and offline checks included) and ``cpu_us_per_window``, that time
  over ``attempted``;
* per metric: both sides' median and q25-q75 (inclusive quartiles),
  and ``work_wins``, the pairs in which the working tree read better
  (ties count for neither side);
* ``refused``: per side, the runs that exited non-zero or read
  ``correct: false``.  Their numbers prove nothing, so the script
  exits 1 after writing the file when there are any.

Usage::

    python tools/bench_compare.py BASE --workload W --pairs N --first-seed S
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / ".bench_compare"
SIDES = ("base", "work")  # equal-length directory names
RAW_RATE = re.compile(r"windows/s as measured on this host ([0-9.]+)")


def _git(*args: str, env=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, env=env, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def _checkout_base(rev: str, dest: Path) -> dict:
    archive = subprocess.run(
        ["git", "archive", rev], cwd=REPO, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {
        "commit": _git("rev-parse", f"{rev}^{{commit}}"),
        "tree": _git("rev-parse", f"{rev}^{{tree}}"),
    }


def _checkout_work(dest: Path) -> dict:
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        source = REPO / name
        if source.is_file():  # a deleted tracked file is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    # The tree id of what was copied, from a throwaway index.
    env = dict(os.environ, GIT_INDEX_FILE=str(OUT / "index"))
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    tree = _git("write-tree", env=env)
    head = _git("rev-parse", "HEAD")
    return {
        "head": head,
        "tree": tree,
        "dirty": tree != _git("rev-parse", "HEAD^{tree}"),
    }


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run(command: List[str], side: Path, workload: str, seed: int,
         seconds: float, names: List[str]) -> dict:
    """One benchmark run in ``side``: its end-to-end metrics, whether
    it passed its own checks, and the CPU it took."""
    cpu_s = _cpu_s()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", repr(seconds)],
        cwd=side, capture_output=True, text=True,
    )
    cpu_s = _cpu_s() - cpu_s
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"{side.name} seed {seed}: no result (exit {proc.returncode})"
            f"\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    rates = [float(m.group(1)) for m in map(RAW_RATE.search, lines) if m]
    attempted = result["attempted"]
    return {
        "exit": proc.returncode,
        "correct": result.get("correct") is True,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {
            name: result["metrics"][name]["value"] for name in names
        },
        "raw_windows_per_s": statistics.median(rates) if rates else None,
        "cpu_s": cpu_s,
        "cpu_us_per_window": 1e6 * cpu_s / attempted if attempted else None,
    }


def _spread(values: List[float]) -> dict:
    if len(values) > 1:
        q25, _, q75 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q25 = q75 = values[0]
    return {"median": statistics.median(values), "q25": q25, "q75": q75}


def _summary(pairs: List[dict], name: str, better: str) -> Optional[dict]:
    def value(run):
        return run["metrics"].get(name, run.get(name))

    both = [(value(p["base"]), value(p["work"])) for p in pairs]
    both = [(b, w) for b, w in both if b is not None and w is not None]
    if not both:
        return None
    sign = -1.0 if better == "lower" else 1.0
    return {
        "better": better,
        "base": _spread([b for b, _ in both]),
        "work": _spread([w for _, w in both]),
        "work_wins": sum(sign * (w - b) > 0 for b, w in both),
        "pairs": len(both),
    }


def _refusals(pairs: List[dict]) -> Dict[str, int]:
    """Per side, the runs that exited non-zero or read ``correct:
    false``: the benchmark's own checks refused their numbers."""
    return {
        side: sum(p[side]["exit"] != 0 or not p[side]["correct"]
                  for p in pairs)
        for side in SIDES
    }


def _report(args, seconds: float, metrics: Dict[str, str],
            revisions: dict, pairs: List[dict]) -> int:
    """Write and print ``BENCH_<workload>.json``; the exit status, 1
    when any run was refused."""
    summary = {
        name: _summary(pairs, name, better)
        for name, better in [*metrics.items(), ("failed", "lower"),
                             ("raw_windows_per_s", "higher"),
                             ("cpu_us_per_window", "lower")]
    }
    refused = _refusals(pairs)
    report = {
        "workload": args.workload,
        "seconds": seconds,
        "first_seed": args.first_seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "revisions": revisions,
        "pairs": pairs,
        "refused": refused,
        "summary": {k: v for k, v in summary.items() if v is not None},
    }
    path = REPO / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, row in report["summary"].items():
        print(f"{name}: base {row['base']['median']:.4g} "
              f"[{row['base']['q25']:.4g}, {row['base']['q75']:.4g}] "
              f"work {row['work']['median']:.4g} "
              f"[{row['work']['q25']:.4g}, {row['work']['q75']:.4g}] "
              f"work better in {row['work_wins']} of {row['pairs']}")
    for side, count in refused.items():
        print(f"{side}: {count} of {len(pairs)} runs refused "
              f"(non-zero exit or correct: false)")
    print(f"wrote {path.name}")
    return 1 if any(refused.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    shutil.rmtree(OUT, ignore_errors=True)
    dirs = {side: OUT / side for side in SIDES}
    for path in dirs.values():
        path.mkdir(parents=True)
    revisions = {
        "base": _checkout_base(args.base, dirs["base"]),
        "work": _checkout_work(dirs["work"]),
    }
    pairs = []
    try:
        for index in range(args.pairs):
            seed = args.first_seed + index
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair: Dict = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run = _run(
                    bench["command"], dirs[side], args.workload, seed,
                    seconds, list(metrics),
                )
                print(f"seed {seed} {side}: exit {run['exit']} "
                      f"correct {run['correct']} failed {run['failed']} "
                      f"raw {run['raw_windows_per_s']} "
                      f"cpu_us_per_window {run['cpu_us_per_window']} "
                      f"{run['metrics']}", flush=True)
            pairs.append(pair)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return _report(args, seconds, metrics, revisions, pairs)


if __name__ == "__main__":
    sys.exit(main())
