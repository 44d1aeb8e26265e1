"""Host-side serving telemetry for the streaming service.

Mergeable latency histograms (:class:`LatencyHistogram` and its two
geometries: :func:`tick_histogram`, the scheduler's queue-age clock,
and :func:`wall_histogram`, the benchmarks' seconds), and the
per-scheduler :class:`StreamStats` that fold into a fleet-wide
:class:`FleetStats`.  Queue age is counted in logical ingest ticks
only, the clock ``max_wait`` runs on, so it replays exactly.

This module is on the serving import path, so it imports numpy and
nothing from the ISS.  The simulated device operating point that prices
a run's windows, :class:`~repro.perf.calibration.DevicePerfModel`,
lives with the ISS calibration it is fitted from.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


# -- latency histograms ------------------------------------------------------

_VECTOR_MIN = 32
"""Values from which :meth:`LatencyHistogram.record_many` takes one
vectorized pass instead of a plain-Python record per value.

On the 2-core VM a plain-Python record costs about 0.6 µs a value and
the vectorized pass 16-26 µs from 1 to 128 values, so they break even
near 28.  A max_wait=0 dispatch (``emg_tcp``) records one queue item
per histogram; a full max_batch=512 round of 128 sessions
(``unique_batch``, ``fleet2``) records 128.
"""


@functools.lru_cache(maxsize=16)
def _bucket_edges(
    lo: float, buckets_per_decade: int, n_buckets: int
) -> Tuple[Tuple[float, ...], np.ndarray]:
    """Lower edges of buckets ``1 .. n_buckets - 1`` of one geometry, as
    a tuple (for :func:`bisect.bisect_right`) and as a read-only array
    (for :func:`numpy.searchsorted`) of the same floats.

    A value's bucket is the number of these edges at or below it.
    """
    edges = tuple(
        lo * 10.0 ** (i / buckets_per_decade) for i in range(1, n_buckets)
    )
    array = np.array(edges, dtype=np.float64)
    array.flags.writeable = False
    return edges, array


class LatencyHistogram:
    """Log-bucketed histogram with mergeable counts and percentile stats.

    The serving stack needs tail latency (p95/p99), not means, and it
    needs it aggregated across worker processes — so raw sample lists
    are out (unbounded) and a plain mean is out (hides the tail).  This
    is the standard compromise: fixed geometric buckets spanning
    ``[lo, hi)`` with ``buckets_per_decade`` buckets per factor of 10
    (16/decade ≈ 15 % bucket width, so percentile estimates carry that
    resolution), an exact-zero counter (logical-tick waits are often 0),
    and under/overflow clamped into the edge buckets.  Two histograms
    with the same geometry merge by adding counts, which is how
    :class:`FleetStats` folds per-shard views into fleet percentiles.

    Values are unit-agnostic: the scheduler records logical-tick waits,
    the benchmarks wall-clock seconds.  Instances are plain picklable
    values (they ride worker stats replies and scheduler snapshots).

    A record may carry a weight: the number of observations that share
    the value.  The scheduler records each queue item once, weighted by
    its window count, since every window of an item waited as long.
    :meth:`record` places one value in plain Python, so a dispatch of a
    few items makes no numpy call but the bucket increments;
    :meth:`record_many` loops over it below ``_VECTOR_MIN`` values and
    takes one vectorized pass above.  Both paths compare a value with
    the same bucket edges, so they fill identical buckets.
    """

    __slots__ = (
        "lo", "hi", "buckets_per_decade", "zeros", "counts",
        "total", "min", "max", "_edges",
    )

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 1e4,
        buckets_per_decade: int = 16,
    ):
        if not (0.0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, "
                f"got {buckets_per_decade}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self.buckets_per_decade = int(buckets_per_decade)
        n = int(
            math.ceil(math.log10(hi / lo) * buckets_per_decade)
        )
        self.zeros = 0  # exact-zero (and negative-clamped) values
        self.counts = np.zeros(n, dtype=np.int64)
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._edges = _bucket_edges(self.lo, self.buckets_per_decade, n)

    @property
    def count(self) -> int:
        """Recorded values, including exact zeros."""
        return self.zeros + int(self.counts.sum())

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded values (0.0 when empty)."""
        n = self.count
        return self.total / n if n else 0.0

    def record(self, value: float, weight: int = 1) -> None:
        """Record ``value`` ``weight`` times, in plain Python.

        Non-positive values count as exact zeros.  A positive value
        lands in the last bucket whose lower edge is at or below it:
        values below ``lo`` count in the first bucket, values beyond
        ``hi`` in the last.
        """
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        value = float(value)
        if value > 0.0:
            self.counts[bisect_right(self._edges[0], value)] += weight
        else:
            self.zeros += weight
        self.total += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values, weights=None) -> None:
        """Record a 1-D sequence of values, ``weights[i]`` times each
        (default once).

        Fewer than ``_VECTOR_MIN`` values go through :meth:`record` one
        by one; more take one vectorized pass.
        """
        if weights is None:
            weights = [1] * len(values)
        elif len(weights) != len(values):
            raise ValueError(
                f"{len(weights)} weights for {len(values)} values"
            )
        if len(values) < _VECTOR_MIN:
            for value, weight in zip(values, weights):
                self.record(value, weight)
            return
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.int64)
        if weights.min() < 1:
            raise ValueError("weights must be >= 1")
        positive = values > 0.0
        self.zeros += int(weights[~positive].sum())
        self.total += float((values * weights).sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        index = np.searchsorted(
            self._edges[1], values[positive], side="right"
        )
        np.add.at(self.counts, index, weights[positive])

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 100].

        Returns the geometric midpoint of the bucket where the
        cumulative count crosses the rank (0.0 for the zero bucket),
        clamped into the observed ``[min, max]`` range so tiny samples
        do not report a bucket edge outside anything recorded.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile must be in [0, 100], got {q}")
        n = self.count
        if n == 0:
            return 0.0
        rank = q / 100.0 * n
        if rank <= self.zeros:
            return 0.0
        cumulative = self.zeros + np.cumsum(self.counts)
        bucket = int(np.searchsorted(cumulative, rank))
        bucket = min(bucket, len(self.counts) - 1)
        lo_edge = self.lo * 10.0 ** (bucket / self.buckets_per_decade)
        hi_edge = lo_edge * 10.0 ** (1.0 / self.buckets_per_decade)
        value = math.sqrt(lo_edge * hi_edge)
        return float(min(max(value, self.min), self.max))

    def percentiles(
        self, qs: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Tuple[float, ...]:
        """Percentile estimates at each requested quantile."""
        return tuple(self.percentile(q) for q in qs)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold another histogram of identical geometry into this one."""
        if (
            other.lo != self.lo
            or other.hi != self.hi
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ValueError(
                "cannot merge histograms with different geometries"
            )
        self.zeros += other.zeros
        self.counts += other.counts
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def copy(self) -> "LatencyHistogram":
        """Independent deep copy (merge folds in place)."""
        out = LatencyHistogram(self.lo, self.hi, self.buckets_per_decade)
        return out.merge(self)

    # Plain picklable state for snapshots and stats transport.
    def __getstate__(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "buckets_per_decade": self.buckets_per_decade,
            "zeros": self.zeros,
            "counts": self.counts.tobytes(),
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def __setstate__(self, state: dict) -> None:
        self.lo = float(state["lo"])
        self.hi = float(state["hi"])
        self.buckets_per_decade = int(state["buckets_per_decade"])
        self.zeros = int(state["zeros"])
        self.counts = np.frombuffer(
            state["counts"], dtype=np.int64
        ).copy()
        self.total = float(state["total"])
        self.min = float(state["min"])
        self.max = float(state["max"])
        self._edges = _bucket_edges(
            self.lo, self.buckets_per_decade, len(self.counts)
        )

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        p50, p95, p99 = self.percentiles()
        return (
            f"LatencyHistogram(n={self.count}, p50={p50:.4g}, "
            f"p95={p95:.4g}, p99={p99:.4g}, max={self.max:.4g})"
        )


def tick_histogram() -> LatencyHistogram:
    """Histogram geometry for logical-tick waits (integers, 0..~1e6)."""
    return LatencyHistogram(lo=0.5, hi=1e6, buckets_per_decade=16)


def wall_histogram() -> LatencyHistogram:
    """Histogram geometry for wall-clock seconds (1 µs .. 10 ks)."""
    return LatencyHistogram(lo=1e-6, hi=1e4, buckets_per_decade=16)


def format_percentiles(
    hist: Optional[LatencyHistogram], unit: str = "s"
) -> str:
    """One-line ``p50/p95/p99`` rendering (``-`` when empty/absent)."""
    if hist is None or hist.count == 0:
        return "-"
    p50, p95, p99 = hist.percentiles()
    if unit == "ms":
        p50, p95, p99 = p50 * 1e3, p95 * 1e3, p99 * 1e3
        return (
            f"p50 {p50:.2f}ms / p95 {p95:.2f}ms / p99 {p99:.2f}ms "
            f"(n={hist.count})"
        )
    if unit == "ticks":
        return (
            f"p50 {p50:.1f} / p95 {p95:.1f} / p99 {p99:.1f} ticks "
            f"(n={hist.count})"
        )
    return (
        f"p50 {p50:.4g}{unit} / p95 {p95:.4g}{unit} / "
        f"p99 {p99:.4g}{unit} (n={hist.count})"
    )


# -- per-scheduler and fleet-wide aggregation --------------------------------
#
# The sharded front end (:mod:`repro.stream.sharded`) runs one scheduler
# per worker process; each worker snapshots its scheduler into a
# StreamStats (picklable, plain numbers) and the coordinator merges the
# snapshots into one FleetStats.  StreamStats.collect is duck-typed on
# the scheduler's telemetry properties rather than importing the
# scheduler class — repro.stream already imports this module.


@dataclass(frozen=True)
class StreamStats:
    """Lifetime serving statistics of one streaming scheduler."""

    shard: Optional[int]  # worker index; None for a single-process service
    n_sessions: int  # sessions currently open
    n_windows: int
    n_batches: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_size: int
    host_seconds: float  # wall-clock inside engine passes
    #: Per-window dispatch-wait histogram over the scheduler's
    #: lifetime, in logical ingest ticks.
    queue_age_ticks_hist: LatencyHistogram

    @classmethod
    def collect(cls, service, shard: Optional[int] = None) -> "StreamStats":
        """Snapshot any object with the scheduler's telemetry surface."""
        return cls(
            shard=shard,
            n_sessions=len(service.sessions),
            n_windows=service.total_windows,
            n_batches=service.total_batches,
            cache_hits=service.cache_hits,
            cache_misses=service.cache_misses,
            cache_evictions=service.cache_evictions,
            cache_size=service.cache_size,
            host_seconds=service.total_host_seconds,
            queue_age_ticks_hist=service.queue_age_ticks_hist.copy(),
        )

    @property
    def hit_rate(self) -> float:
        """Decision-cache hit fraction (0.0 when nothing was looked up)."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean windows per dispatched batch."""
        return self.n_windows / self.n_batches if self.n_batches else 0.0


def _format_bytes(n: int) -> str:
    """Compact byte-count column (``0``, ``512``, ``3.2K``, ``1.5M``)."""
    if n < 1024:
        return str(int(n))
    if n < 1024 * 1024:
        return f"{n / 1024:.1f}K"
    return f"{n / (1024 * 1024):.1f}M"


@dataclass(frozen=True)
class FleetStats:
    """Merged statistics of a fleet of shard schedulers.

    Counts are additive across shards.
    ``host_seconds`` is summed too — across concurrent workers that is
    aggregate *CPU* time in engine passes, not elapsed wall-clock (the
    shards overlap); elapsed time is whatever the caller measured around
    the whole run.

    The elastic-fleet coordinator additionally reports its own (per
    shard) **journal** and **checkpoint** byte sizes — the replay debt a
    respawn would pay and the snapshot that bounds it — plus lifetime
    counts of checkpoints taken, sessions migrated, and fleet rescales.
    These default to empty/zero so a single-process service merges
    unchanged.
    """

    shards: Tuple[StreamStats, ...]
    journal_bytes: Tuple[int, ...] = ()  # per shard, coordinator-side
    checkpoint_bytes: Tuple[int, ...] = ()  # per shard, last snapshot blob
    checkpoints: int = 0
    migrations: int = 0
    rescales: int = 0

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("fleet stats need at least one shard")
        for name in ("journal_bytes", "checkpoint_bytes"):
            sizes = getattr(self, name)
            if sizes and len(sizes) != len(self.shards):
                raise ValueError(
                    f"{name} has {len(sizes)} entries for "
                    f"{len(self.shards)} shards"
                )

    @property
    def n_shards(self) -> int:
        """Number of merged shard snapshots."""
        return len(self.shards)

    @property
    def n_sessions(self) -> int:
        """Open sessions across the fleet."""
        return sum(s.n_sessions for s in self.shards)

    @property
    def n_windows(self) -> int:
        """Windows classified across the fleet."""
        return sum(s.n_windows for s in self.shards)

    @property
    def n_batches(self) -> int:
        """Batches dispatched across the fleet."""
        return sum(s.n_batches for s in self.shards)

    @property
    def cache_hits(self) -> int:
        """Decision-cache hits across the fleet."""
        return sum(s.cache_hits for s in self.shards)

    @property
    def cache_misses(self) -> int:
        """Decision-cache misses across the fleet."""
        return sum(s.cache_misses for s in self.shards)

    @property
    def cache_evictions(self) -> int:
        """Decision-cache evictions across the fleet."""
        return sum(s.cache_evictions for s in self.shards)

    @property
    def hit_rate(self) -> float:
        """Fleet-wide decision-cache hit fraction."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def mean_batch(self) -> float:
        """Mean windows per dispatched batch across the fleet."""
        return self.n_windows / self.n_batches if self.n_batches else 0.0

    @property
    def host_seconds(self) -> float:
        """Aggregate engine CPU seconds across the fleet (overlapping)."""
        return sum(s.host_seconds for s in self.shards)

    @property
    def queue_age_ticks_hist(self) -> LatencyHistogram:
        """Merged per-window dispatch-wait histogram in logical ticks."""
        merged = self.shards[0].queue_age_ticks_hist.copy()
        for s in self.shards[1:]:
            merged.merge(s.queue_age_ticks_hist)
        return merged

    @property
    def total_journal_bytes(self) -> int:
        """Coordinator journal bytes across the fleet (replay debt)."""
        return sum(self.journal_bytes)

    @property
    def total_checkpoint_bytes(self) -> int:
        """Checkpoint blob bytes across the fleet."""
        return sum(self.checkpoint_bytes)

    def describe(self) -> List[str]:
        """Human-readable per-shard + fleet summary lines."""
        lines = [
            f"{'shard':>6s} {'sessions':>8s} {'windows':>9s} "
            f"{'batches':>8s} {'batch':>6s} {'hit%':>6s} {'hits':>9s} "
            f"{'misses':>8s} {'evict':>7s} {'journal':>8s} {'ckpt':>8s} "
            f"{'engine-s':>9s}"
        ]
        journal = self.journal_bytes or (None,) * len(self.shards)
        checkpoint = self.checkpoint_bytes or (None,) * len(self.shards)
        for s, jrnl, ckpt in zip(self.shards, journal, checkpoint):
            label = "solo" if s.shard is None else str(s.shard)
            lines.append(
                f"{label:>6s} {s.n_sessions:>8d} {s.n_windows:>9d} "
                f"{s.n_batches:>8d} {s.mean_batch:>6.1f} "
                f"{s.hit_rate:>6.0%} {s.cache_hits:>9d} "
                f"{s.cache_misses:>8d} {s.cache_evictions:>7d} "
                f"{'-' if jrnl is None else _format_bytes(jrnl):>8s} "
                f"{'-' if ckpt is None else _format_bytes(ckpt):>8s} "
                f"{s.host_seconds:>9.3f}"
            )
        lines.append(
            f"{'fleet':>6s} {self.n_sessions:>8d} {self.n_windows:>9d} "
            f"{self.n_batches:>8d} {self.mean_batch:>6.1f} "
            f"{self.hit_rate:>6.0%} {self.cache_hits:>9d} "
            f"{self.cache_misses:>8d} {self.cache_evictions:>7d} "
            f"{_format_bytes(self.total_journal_bytes):>8s} "
            f"{_format_bytes(self.total_checkpoint_bytes):>8s} "
            f"{self.host_seconds:>9.3f}"
        )
        ticks = self.queue_age_ticks_hist
        if ticks.count:
            lines.append(f"  queue age: {format_percentiles(ticks, 'ticks')}")
        if self.checkpoints or self.migrations or self.rescales:
            lines.append(
                f"  elastic: {self.checkpoints} checkpoints, "
                f"{self.migrations} migrations, {self.rescales} rescales"
            )
        return lines
