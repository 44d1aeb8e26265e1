"""The stream demo CLI (``python -m repro.stream``) end to end."""

from repro.stream.__main__ import main


def test_adaptive_fleet_run_rescales(capsys):
    # Per-decision feedback must not keep the scheduled mid-trace
    # rescale from running.
    code = main([
        "--shards", "2", "--rescale", "3", "--adaptive",
        "--dim", "512", "--repetitions", "1", "--sessions", "4",
        "--device", "none",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 -> 3 worker processes" in out
