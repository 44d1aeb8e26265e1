"""Incremental windower: byte-identical parity with the offline slicer.

The contract: for ANY chunking of a stream, the windows emitted by
:class:`repro.stream.StreamWindower` equal exactly the offline
``windows_from_trial`` slicing of the concatenated stream — same count,
same order, same float64 bytes — for all stride/overlap combinations,
N-gram margins, onset skips, and ragged tails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emg.dataset import Trial
from repro.emg.windows import WindowConfig, windows_from_trial
from repro.stream import StreamWindower


def _stream(n_samples: int, n_channels: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n_samples, n_channels)) * 21.0


def _offline(stream: np.ndarray, config: WindowConfig, rate: int):
    trial = Trial(
        subject_id=0, gesture=0, repetition=0, envelope=stream
    )
    return windows_from_trial(trial, config, sample_rate_hz=rate)


def _chunked_push(windower, stream, chunks):
    """Push ``stream`` in the given chunk sizes; collect emitted windows."""
    out = []
    pos = 0
    for size in chunks:
        if pos >= stream.shape[0]:
            break
        out.extend(windower.push(stream[pos : pos + size]))
        pos += size
    if pos < stream.shape[0]:
        out.extend(windower.push(stream[pos:]))
    return out


class TestParityBasics:
    def test_single_push_matches_offline(self):
        config = WindowConfig(window_samples=5)
        stream = _stream(400, 4, 0)
        offline = _offline(stream, config, 500)
        streaming = StreamWindower(config, 4).push(stream)
        assert len(streaming) == len(offline) > 0
        for got, want in zip(streaming, offline):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_sample_by_sample_matches_offline(self):
        config = WindowConfig(
            window_samples=5, stride_samples=3, extra_samples=2
        )
        stream = _stream(200, 4, 1)
        offline = _offline(stream, config, 500)
        windower = StreamWindower(config, 4)
        streaming = []
        for t in range(stream.shape[0]):
            streaming.extend(windower.push(stream[t]))
        assert len(streaming) == len(offline) > 0
        for got, want in zip(streaming, offline):
            assert np.array_equal(got, want)

    def test_ragged_tail_never_emits(self):
        config = WindowConfig(window_samples=8, skip_onset_s=0.0)
        windower = StreamWindower(config, 2, sample_rate_hz=100)
        assert windower.push(_stream(7, 2, 2)).shape == (
            0, config.slice_samples, 2
        )
        assert windower.pending_samples == 7

    def test_onset_skip_drops_leading_samples(self):
        config = WindowConfig(window_samples=4, skip_onset_s=0.1)
        rate = 100  # skip = 10 samples
        stream = _stream(30, 3, 3)
        offline = _offline(stream, config, rate)
        windower = StreamWindower(config, 3, sample_rate_hz=rate)
        got = _chunked_push(windower, stream, [3] * 10)
        assert len(got) == len(offline) > 0
        for a, b in zip(got, offline):
            assert np.array_equal(a, b)

    def test_gap_stride_larger_than_window(self):
        config = WindowConfig(
            window_samples=3, stride_samples=11, skip_onset_s=0.0
        )
        stream = _stream(100, 2, 4)
        offline = _offline(stream, config, 500)
        got = _chunked_push(StreamWindower(config, 2), stream, [7] * 15)
        assert len(got) == len(offline) > 0
        for a, b in zip(got, offline):
            assert np.array_equal(a, b)

    def test_counters(self):
        config = WindowConfig(window_samples=5, skip_onset_s=0.0)
        windower = StreamWindower(config, 4)
        stream = _stream(52, 4, 5)
        got = _chunked_push(windower, stream, [13, 13, 13])
        assert windower.samples_in == 52
        assert windower.windows_out == len(got) == 10

    def test_input_validation(self):
        config = WindowConfig()
        with pytest.raises(ValueError):
            StreamWindower(config, 0)
        with pytest.raises(ValueError):
            StreamWindower(config, 4, sample_rate_hz=0)
        windower = StreamWindower(config, 4)
        with pytest.raises(ValueError):
            windower.push(np.zeros((3, 5)))  # wrong channel count
        with pytest.raises(ValueError):
            windower.push(np.zeros((2, 3, 4)))

    def test_empty_push_is_noop(self):
        config = WindowConfig(skip_onset_s=0.0)
        windower = StreamWindower(config, 4)
        assert windower.push(np.zeros((0, 4))).shape == (
            0, config.slice_samples, 4
        )
        assert windower.samples_in == 0


class TestOneCopyBlocks:
    """``push`` returns one array per chunk, copied out of the buffer
    once: the block owns its memory, so later pushes that refill and
    trim the buffer cannot change it."""

    @pytest.mark.parametrize(
        "window, stride", [(5, 2), (3, 7)], ids=["overlapping", "gaps"]
    )
    def test_block_owns_its_memory(self, window, stride):
        config = WindowConfig(
            window_samples=window, stride_samples=stride, skip_onset_s=0.0
        )
        stream = _stream(200, 3, 7)
        offline = _offline(stream, config, 500)
        windower = StreamWindower(config, 3)
        block = windower.push(stream[:40])
        assert block.shape[0] > 1
        assert block.shape[1:] == (config.slice_samples, 3)
        assert block.dtype == np.float64
        assert block.flags.owndata and block.flags.c_contiguous
        kept = block.copy()
        rest = _chunked_push(windower, stream[40:], [9] * 18)
        assert np.array_equal(block, kept)
        got = list(block) + rest
        assert len(got) == len(offline)
        for a, b in zip(got, offline):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(1, 9),
    stride=st.integers(1, 12),
    extra=st.integers(0, 3),
    skip=st.integers(0, 20),
    n_samples=st.integers(0, 160),
    data=st.data(),
)
def test_any_chunking_matches_offline(
    window, stride, extra, skip, n_samples, data
):
    """Property: every stride/overlap/margin/onset combo, under every
    chunking (including ragged stream tails), is byte-identical to the
    offline slicer."""
    rate = 100
    config = WindowConfig(
        window_samples=window,
        stride_samples=stride,
        extra_samples=extra,
        skip_onset_s=skip / rate,
    )
    stream = _stream(n_samples, 2, seed=window * 1000 + n_samples)
    offline = _offline(stream, config, rate)

    chunks = []
    remaining = n_samples
    while remaining > 0:
        size = data.draw(st.integers(1, max(1, min(remaining, 37))))
        chunks.append(size)
        remaining -= size
    windower = StreamWindower(config, 2, sample_rate_hz=rate)
    streaming = _chunked_push(windower, stream, chunks)

    assert len(streaming) == len(offline)
    for got, want in zip(streaming, offline):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
