"""Fixtures shared by the fleet test modules."""

import pytest

from repro.stream import sharded


@pytest.fixture
def worker_checks_width(monkeypatch):
    """Let chunks of the wrong width past the coordinator, so that only
    the worker's windower rejects them: the tests that take it use such
    a chunk to make a command fail inside a worker."""
    monkeypatch.setattr(sharded, "as_chunk", lambda samples, _: samples)
