"""Incremental windowing of per-session sample streams.

The offline experiments slice a whole recorded trial at once
(:func:`repro.emg.windows.windows_from_trial`); a streaming service sees
the same signal arrive in arbitrary-sized chunks.  :class:`StreamWindower`
is the incremental twin of that slicing: samples are appended to a small
ring-style buffer and every classification window is emitted the moment
its last sample arrives.

The parity contract — pinned by a property test over stride/overlap
combinations and ragged chunkings (``tests/stream/test_windower.py``) —
is *byte identity*: for any chunking of a stream, the concatenated
emitted windows equal exactly the offline slicing of the concatenated
stream under the same :class:`~repro.emg.windows.WindowConfig` (same
onset skip, same stride, same N-gram margin, same float64 bytes).  A
ragged tail shorter than one slice never emits, matching the offline
loop's ``pos + length <= n`` bound.

Emitted windows feed :func:`repro.emg.features.window_features`
unchanged, so streaming feature extraction for the SVM baseline is the
same function call on the same bytes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..emg.windows import WindowConfig


def as_chunk(samples: np.ndarray, n_channels: int) -> np.ndarray:
    """``samples`` as float64 ``(k, n_channels)`` rows.

    A single ``(n_channels,)`` sample is one row, and an empty chunk is
    allowed; any other shape raises ``ValueError``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[None, :]
    if samples.ndim != 2 or samples.shape[1] != n_channels:
        raise ValueError(
            f"expected (k, {n_channels}) samples, "
            f"got shape {samples.shape}"
        )
    return samples


class StreamWindower:
    """Ring-buffered incremental windower for one session's stream.

    The buffer holds only the samples that can still contribute to a
    future window: everything before the next window start is discarded
    on the fly, so memory stays O(slice + stride + chunk) regardless of
    stream length.
    """

    def __init__(
        self,
        config: WindowConfig,
        n_channels: int,
        sample_rate_hz: int = 500,
    ):
        if n_channels <= 0:
            raise ValueError(
                f"n_channels must be positive, got {n_channels}"
            )
        if sample_rate_hz <= 0:
            raise ValueError(
                f"sample_rate_hz must be positive, got {sample_rate_hz}"
            )
        self._config = config
        self._n_channels = int(n_channels)
        self._length = config.slice_samples
        self._stride = config.stride
        # Absolute index (stream position) of the next window's first
        # sample; the onset skip is simply the first start position.
        self._next_start = int(round(config.skip_onset_s * sample_rate_hz))
        self._base = 0  # absolute index of buffer row 0
        self._filled = 0
        cap = max(self._length + self._stride, 64)
        self._buf = np.empty((cap, self._n_channels), dtype=np.float64)
        self.samples_in = 0
        self.windows_out = 0

    @property
    def config(self) -> WindowConfig:
        """The windowing parameters (shared with the offline slicer)."""
        return self._config

    @property
    def n_channels(self) -> int:
        """Channels per sample."""
        return self._n_channels

    @property
    def pending_samples(self) -> int:
        """Buffered samples not yet part of an emitted window."""
        return self._filled

    def push(self, samples: np.ndarray) -> List[np.ndarray]:
        """Ingest a chunk of samples; return every window it completes.

        ``samples`` is ``(k, n_channels)`` (or a single ``(n_channels,)``
        sample); returned windows are fresh ``(slice_samples, n_channels)``
        float64 copies, oldest first.
        """
        samples = as_chunk(samples, self._n_channels)
        k = samples.shape[0]
        self.samples_in += k
        if k:
            self._append(samples)
        out: List[np.ndarray] = []
        end = self._base + self._filled
        while self._next_start + self._length <= end:
            rel = self._next_start - self._base
            out.append(self._buf[rel : rel + self._length].copy())
            self._next_start += self._stride
        self.windows_out += len(out)
        self._trim()
        return out

    # -- snapshot protocol -------------------------------------------------

    def snapshot(self) -> dict:
        """Capture the windower's mutable state as a plain dict.

        The dict is value-like (ints + one ``bytes`` payload holding the
        pending buffer rows) and picklable; feeding it to
        :meth:`restore` on a windower built with the same config yields
        a stream continuation byte-identical to never having paused.
        """
        return {
            "length": self._length,
            "stride": self._stride,
            "n_channels": self._n_channels,
            "next_start": self._next_start,
            "base": self._base,
            "filled": self._filled,
            "buf": self._buf[: self._filled].tobytes(),
            "samples_in": self.samples_in,
            "windows_out": self.windows_out,
        }

    def restore(self, state: dict) -> "StreamWindower":
        """Adopt a :meth:`snapshot` dict; returns ``self``.

        The snapshot's structural parameters must match this windower's
        config — state captured under one slicing cannot silently
        continue under another.
        """
        for key in ("length", "stride", "n_channels"):
            if int(state[key]) != getattr(self, f"_{key}"):
                raise ValueError(
                    f"windower snapshot {key}={state[key]} does not match "
                    f"this windower's {key}={getattr(self, f'_{key}')}"
                )
        filled = int(state["filled"])
        rows = np.frombuffer(
            state["buf"], dtype=np.float64
        ).reshape(filled, self._n_channels)
        cap = max(self._length + self._stride, 64)
        while cap < filled:
            cap *= 2
        self._buf = np.empty((cap, self._n_channels), dtype=np.float64)
        self._buf[:filled] = rows
        self._filled = filled
        self._next_start = int(state["next_start"])
        self._base = int(state["base"])
        self.samples_in = int(state["samples_in"])
        self.windows_out = int(state["windows_out"])
        return self

    # -- buffer management -------------------------------------------------

    def _append(self, samples: np.ndarray) -> None:
        k = samples.shape[0]
        needed = self._filled + k
        if needed > self._buf.shape[0]:
            cap = self._buf.shape[0]
            while cap < needed:
                cap *= 2
            grown = np.empty((cap, self._n_channels), dtype=np.float64)
            grown[: self._filled] = self._buf[: self._filled]
            self._buf = grown
        self._buf[self._filled : needed] = samples
        self._filled = needed

    def _trim(self) -> None:
        """Drop samples that precede the next window start."""
        drop = self._next_start - self._base
        if drop <= 0:
            return
        drop = min(drop, self._filled)
        keep = self._filled - drop
        if keep:
            self._buf[:keep] = self._buf[drop : self._filled]
        self._filled = keep
        self._base += drop
