"""``tools/bench_compare.py``'s bookkeeping, without perfbench or git.

The script is loaded by path (it is a script, not a package).  Its
runs are driven through fake commands that print a result line the way
``perfbench/run.py`` does, so these tests check what a report records
and when the script refuses to vouch for it, not the benchmark itself.
"""

import argparse
import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
sys.modules["bench_compare"] = bench_compare
_spec.loader.exec_module(bench_compare)

NAMES = ["windows_per_s", "peak_rss_mb"]


def _fake(tmp_path, *, correct=True, exit_code=0, attempted=100,
          burn_s=0.0):
    """A command that burns ``burn_s`` of CPU, prints a run's notes and
    result line, and exits ``exit_code``."""
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else 3,
        "metrics": {
            "windows_per_s": {"value": 1000.0, "unit": "1/s"},
            "peak_rss_mb": {"value": 60.0, "unit": "MB"},
        },
    }
    script = tmp_path / "fake_run.py"
    script.write_text(textwrap.dedent(f"""
        import sys, time
        while time.process_time() < {burn_s!r}:
            pass
        print("windows/s as measured on this host 812.5; reported scaled")
        print({json.dumps(json.dumps(result))})
        sys.exit({exit_code!r})
    """))
    return [sys.executable, str(script)]


def _run(tmp_path, **kwargs):
    return bench_compare._run(
        _fake(tmp_path, **kwargs), tmp_path, "iss_grid", 1, 0.1, NAMES
    )


def _pair(base, work, seed=1):
    return {"seed": seed, "first": "base", "base": base, "work": work}


class TestRun:
    def test_records_metrics_and_raw_rate(self, tmp_path):
        run = _run(tmp_path)
        assert run["exit"] == 0 and run["correct"] is True
        assert run["attempted"] == 100 and run["failed"] == 0
        assert run["metrics"] == {"windows_per_s": 1000.0,
                                  "peak_rss_mb": 60.0}
        assert run["raw_windows_per_s"] == 812.5

    def test_incorrect_run_is_refused(self, tmp_path, monkeypatch,
                                      capsys):
        bad = _run(tmp_path, correct=False, exit_code=1)
        assert bad["exit"] == 1 and bad["correct"] is False
        good = _run(tmp_path)
        pairs = [_pair(good, bad)]
        assert bench_compare._refusals(pairs) == {"base": 0, "work": 1}
        # The report is still written, but the verdict fails.
        monkeypatch.setattr(bench_compare, "REPO", tmp_path)
        args = argparse.Namespace(workload="fake", first_seed=1)
        status = bench_compare._report(
            args, 0.1, {"windows_per_s": "higher"}, {}, pairs
        )
        assert status == 1
        report = json.loads((tmp_path / "BENCH_fake.json").read_text())
        assert report["refused"] == {"base": 0, "work": 1}
        assert report["pairs"][0]["work"]["correct"] is False
        assert "work: 1 of 1 runs refused" in capsys.readouterr().out

    def test_clean_runs_pass(self, tmp_path, monkeypatch):
        run = _run(tmp_path)
        monkeypatch.setattr(bench_compare, "REPO", tmp_path)
        args = argparse.Namespace(workload="fake", first_seed=1)
        status = bench_compare._report(
            args, 0.1, {"windows_per_s": "higher"}, {}, [_pair(run, run)]
        )
        assert status == 0

    def test_cpu_per_window_counts_the_child(self, tmp_path):
        run = _run(tmp_path, burn_s=0.05, attempted=50)
        assert run["cpu_s"] >= 0.05
        assert run["cpu_us_per_window"] == pytest.approx(
            1e6 * run["cpu_s"] / 50
        )
        assert run["cpu_us_per_window"] > 0


class TestSummary:
    BASE = [1.0, 2.0, 3.0, 4.0, 5.0]
    WORK = [1.0, 3.0, 2.0, 4.0, 6.0]  # ties at pairs 0 and 3

    def _pairs(self):
        return [
            _pair({"metrics": {"m": b}}, {"metrics": {"m": w}}, seed)
            for seed, (b, w) in enumerate(zip(self.BASE, self.WORK))
        ]

    def test_quartiles_are_inclusive(self):
        row = bench_compare._summary(self._pairs(), "m", "higher")
        assert row["base"] == {"median": 3.0, "q25": 2.0, "q75": 4.0}
        assert row["work"] == {"median": 3.0, "q25": 2.0, "q75": 4.0}
        assert row["pairs"] == 5

    @pytest.mark.parametrize("better,wins", [("higher", 2), ("lower", 1)])
    def test_ties_count_for_neither_side(self, better, wins):
        row = bench_compare._summary(self._pairs(), "m", better)
        assert row["better"] == better
        assert row["work_wins"] == wins

    def test_top_level_fields_and_missing_values(self):
        pairs = [
            _pair({"metrics": {}, "cpu_us_per_window": 10.0},
                  {"metrics": {}, "cpu_us_per_window": 8.0}),
            _pair({"metrics": {}, "cpu_us_per_window": None},
                  {"metrics": {}, "cpu_us_per_window": 9.0}),
        ]
        row = bench_compare._summary(pairs, "cpu_us_per_window", "lower")
        assert row["pairs"] == 1 and row["work_wins"] == 1
        assert bench_compare._summary(pairs, "absent", "lower") is None
