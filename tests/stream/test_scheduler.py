"""Streaming service: batching policy, smoothing, end-to-end parity.

The acceptance invariant of the subsystem: streaming predictions are
byte-identical to the offline :class:`~repro.hdc.batch.BatchHDClassifier`
on the same windows, no matter how many sessions are multiplexed or how
the scheduler batches them.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.emg.windows import WindowConfig
from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.perf.streaming import DevicePerfModel
from repro.pulp.soc import CORTEX_M4_SOC, PULPV3_SOC
from repro.stream import (
    Decision,
    MajorityVoteSmoother,
    StreamConfig,
    StreamingService,
)

DIM = 256
RATE = 500


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(7)
    clf = BatchHDClassifier(
        HDClassifierConfig(dim=DIM, n_channels=4, n_levels=8, signal_hi=1.0)
    )
    windows = rng.random((40, 5, 4))
    labels = [i % 4 for i in range(40)]
    return clf.fit(windows, labels)


def _batch_sizes(decisions):
    """Windows per dispatch, in dispatch order, from returned decisions."""
    return list(Counter(d.batch_id for d in decisions).values())


def _service(model, **kwargs):
    defaults = dict(
        window=WindowConfig(window_samples=5, skip_onset_s=0.0),
        sample_rate_hz=RATE,
    )
    defaults.update(kwargs)
    return StreamingService(model, StreamConfig(**defaults))


class TestSmoother:
    def test_passthrough_k1(self):
        sm = MajorityVoteSmoother(1)
        assert [sm.update(x) for x in "abab"] == list("abab")

    def test_majority_wins(self):
        sm = MajorityVoteSmoother(3)
        assert sm.update("a") == "a"
        assert sm.update("b") == "b"  # tie of 1-1 -> most recent
        assert sm.update("a") == "a"
        assert sm.update("a") == "a"
        assert sm.update("b") == "a"  # history a,a,b
        assert sm.update("b") == "b"  # history a,b,b

    def test_single_glitch_suppressed(self):
        sm = MajorityVoteSmoother(5)
        out = [sm.update(x) for x in ["g", "g", "g", "x", "g", "g"]]
        assert out == ["g"] * 6

    def test_validation_and_reset(self):
        with pytest.raises(ValueError):
            MajorityVoteSmoother(0)
        sm = MajorityVoteSmoother(3)
        sm.update("a")
        sm.update("a")
        sm.reset()
        assert sm.update("b") == "b"


class TestDecision:
    """The record every service returns: seven fields in a fixed order,
    built by keyword or by position, picklable, and immutable."""

    FIELDS = (
        "session_id",
        "index",
        "label",
        "raw_label",
        "batch_id",
        "enqueued_at",
        "decided_at",
    )

    def test_field_order(self):
        assert Decision._fields == self.FIELDS

    def test_positional_and_keyword_construction_agree(self):
        positional = Decision("s", 3, "fist", "open", 7, 10, 12)
        keyword = Decision(
            session_id="s",
            index=3,
            label="fist",
            raw_label="open",
            batch_id=7,
            enqueued_at=10,
            decided_at=12,
        )
        assert positional == keyword
        assert (positional.index, positional.raw_label) == (3, "open")
        assert positional.queue_wait == 2
        assert repr(positional) == (
            "Decision(session_id='s', index=3, label='fist', "
            "raw_label='open', batch_id=7, enqueued_at=10, decided_at=12)"
        )

    def test_pickle_round_trip(self):
        decision = Decision(("user", 4), 9, 2, 1, 5, 40, 41)
        back = pickle.loads(pickle.dumps(decision))
        assert type(back) is Decision
        assert back == decision
        assert back.queue_wait == 1

    def test_immutable(self):
        decision = Decision("s", 0, 1, 1, 0, 0, 0)
        with pytest.raises(AttributeError):
            decision.label = 2
        with pytest.raises(AttributeError):
            decision.index = 5
        assert decision == Decision("s", 0, 1, 1, 0, 0, 0)


class TestSessionLifecycle:
    def test_duplicate_and_unknown_session(self, model):
        service = _service(model)
        service.open_session("u1")
        with pytest.raises(ValueError):
            service.open_session("u1")
        with pytest.raises(KeyError):
            service.ingest("nope", np.zeros((5, 4)))
        service.close_session("u1")
        with pytest.raises(KeyError):
            service.close_session("u1")

    def test_unfitted_model_rejected(self):
        unfitted = BatchHDClassifier(
            HDClassifierConfig(dim=DIM, n_channels=4, n_levels=8,
                               signal_hi=1.0)
        )
        with pytest.raises(RuntimeError):
            _service(unfitted)


class TestBatchingPolicy:
    def test_max_wait_zero_dispatches_every_ingest(self, model, rng):
        service = _service(model, max_wait=0)
        service.open_session(0)
        decisions = service.ingest(0, rng.random((10, 4)))
        assert len(decisions) == 2  # 10 samples -> 2 windows, same tick
        assert service.pending_windows == 0
        assert service.total_batches == 1
        assert service.total_host_seconds > 0.0
        assert _batch_sizes(decisions) == [2]

    def test_max_wait_defers_partial_batches(self, model, rng):
        service = _service(model, max_wait=2, max_batch=64)
        service.open_session(0)
        assert service.ingest(0, rng.random((5, 4))) == []
        assert service.ingest(0, rng.random((5, 4))) == []
        assert service.pending_windows == 2
        # Third tick: the first window (enqueued at tick 1) has now aged
        # clock - enqueued_at = 2 >= max_wait, flushing the partial batch.
        decisions = service.ingest(0, rng.random((2, 4)))
        assert len(decisions) == 2
        assert decisions[0].queue_wait == 2

    def test_max_batch_splits_dispatches(self, model, rng):
        service = _service(model, max_batch=4, max_wait=0)
        service.open_session(0)
        decisions = service.ingest(0, rng.random((50, 4)))
        assert len(decisions) == 10
        assert _batch_sizes(decisions) == [4, 4, 2]

    def test_drain_flushes_regardless_of_wait(self, model, rng):
        service = _service(model, max_wait=1000, max_batch=64)
        service.open_session(0)
        service.ingest(0, rng.random((25, 4)))
        assert service.pending_windows == 5
        assert len(service.drain()) == 5
        assert service.pending_windows == 0

    def test_batches_multiplex_sessions(self, model, rng):
        service = _service(model, max_wait=10, max_batch=64)
        for s in range(4):
            service.open_session(s)
        decisions = []
        for s in range(4):
            decisions.extend(service.ingest(s, rng.random((10, 4))))
        decisions.extend(service.drain())
        sessions_per_batch = {}
        for d in decisions:
            sessions_per_batch.setdefault(d.batch_id, set()).add(
                d.session_id
            )
        assert any(len(s) > 1 for s in sessions_per_batch.values())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(max_batch=0)
        with pytest.raises(ValueError):
            StreamConfig(max_wait=-1)
        with pytest.raises(ValueError):
            StreamConfig(smooth=0)
        with pytest.raises(ValueError):
            StreamConfig(sample_rate_hz=0)
        with pytest.raises(ValueError):
            StreamConfig(decision_cache_limit=0)

    def test_window_too_short_for_ngrams_rejected_at_setup(self, rng):
        ngram_model = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=4, n_levels=8, ngram_size=3,
                signal_hi=1.0,
            )
        ).fit(rng.random((8, 7, 4)), [0, 1] * 4)
        with pytest.raises(ValueError, match="3-grams"):
            StreamingService(
                ngram_model,
                StreamConfig(
                    window=WindowConfig(window_samples=2, skip_onset_s=0.0)
                ),
            )


class TestDecisionCacheLRU:
    """Eviction is LRU, not wholesale: hot keys survive cold bursts.

    The cache only short-circuits a pure function, so the policy can
    never change an output — these tests pin the *performance* contract
    (which keys stay warm) and re-check bit-exactness for free.
    """

    #: Constant-valued windows quantise to distinct level patterns, one
    #: per value: deterministic cache keys without touching internals.
    @staticmethod
    def _window(value):
        return np.full((5, 4), value)

    def _lru_service(self, model, limit):
        service = _service(
            model, max_wait=0, decision_cache_limit=limit
        )
        service.open_session(0)
        return service

    def test_hot_key_survives_cold_evictions(self, model):
        service = self._lru_service(model, limit=3)
        values = np.linspace(0.05, 0.95, 7)
        hot = values[0]
        service.ingest(0, self._window(hot))  # miss: cache {hot}
        assert (service.cache_hits, service.cache_misses) == (0, 1)
        service.ingest(0, self._window(values[1]))  # {hot, v1}
        service.ingest(0, self._window(values[2]))  # {hot, v1, v2} full
        service.ingest(0, self._window(hot))  # hit, refreshes hot
        assert service.cache_hits == 1
        # Two cold inserts evict the two LRU keys (v1 then v2) -- the
        # recently-touched hot key must survive both.
        service.ingest(0, self._window(values[3]))
        service.ingest(0, self._window(values[4]))
        assert service.cache_evictions == 2
        assert service.cache_size == 3
        hits = service.cache_hits
        service.ingest(0, self._window(hot))
        assert service.cache_hits == hits + 1  # still cached
        # ...whereas the evicted cold key re-misses.
        misses = service.cache_misses
        service.ingest(0, self._window(values[1]))
        assert service.cache_misses == misses + 1

    def test_cache_never_exceeds_limit(self, model, rng):
        service = self._lru_service(model, limit=4)
        for value in np.linspace(0.02, 0.98, 9):
            service.ingest(0, self._window(value))
            assert service.cache_size <= 4

    def test_eviction_is_bit_exact(self, model, rng):
        """Predictions with a 2-entry cache thrashing constantly equal
        offline ``predict`` on the same windows."""
        stream = rng.random((400, 4))
        thrash = _service(model, max_wait=0, decision_cache_limit=2)
        thrash.open_session(0)
        got = [d.raw_label for d in thrash.ingest(0, stream)]
        want = model.predict(
            np.stack([stream[i * 5: i * 5 + 5] for i in range(80)])
        )
        assert got == want
        assert thrash.cache_evictions > 0

    def test_limit_bounds_each_model(self, model):
        """``decision_cache_limit`` sizes every served model's cache
        on its own: two models hold up to the limit each."""
        rng = np.random.default_rng(11)
        other = BatchHDClassifier(
            HDClassifierConfig(dim=DIM, n_channels=4, n_levels=8,
                               signal_hi=1.0)
        ).fit(rng.random((40, 5, 4)), [i % 4 for i in range(40)])
        service = StreamingService(
            model,
            StreamConfig(
                window=WindowConfig(window_samples=5, skip_onset_s=0.0),
                sample_rate_hz=RATE,
                decision_cache_limit=2,
            ),
            models={"other": other},
        )
        service.open_session("a")
        service.open_session("b", model_id="other")
        for value in np.linspace(0.05, 0.95, 4):
            service.ingest("a", self._window(value))
            service.ingest("b", self._window(value))
            assert service.cache_size <= 4
        assert service.cache_size == 4
        assert service.cache_evictions == 4

    def test_batch_larger_than_limit(self, model, rng):
        """One dispatch carrying more unique patterns than the limit
        must classify correctly and leave the cache within bounds."""
        service = self._lru_service(model, limit=2)
        stream = rng.random((200, 4))  # 40 mostly-unique windows
        decisions = service.ingest(0, stream)
        assert len(decisions) == 40
        assert service.cache_size <= 2
        offline = model.predict(
            np.stack([stream[i * 5: i * 5 + 5] for i in range(40)])
        )
        assert [d.raw_label for d in decisions] == offline


class TestDecisionCacheKeys:
    """One dispatch builds every key before it inserts any miss; a key
    is the window's levels in the narrowest dtype that holds them."""

    def test_wide_level_keys_do_not_collide(self, rng):
        # 300 levels need two bytes a level: levels l and l + 256 share
        # their low byte but are different patterns.
        wide = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=4, n_levels=300, signal_hi=1.0
            )
        ).fit(rng.random((40, 5, 4)), [i % 4 for i in range(40)])

        def window(level):
            return np.full((5, 4), level / 299)

        # A pair the model decides differently, so a collision would
        # also serve a wrong label.
        low = next(
            level for level in range(300 - 256)
            if len(set(wide.predict(
                np.stack([window(level), window(level + 256)])
            ))) == 2
        )
        service = _service(wide, max_wait=0)
        service.open_session(0)
        got = service.ingest(0, window(low))
        got += service.ingest(0, window(low + 256))
        assert (service.cache_hits, service.cache_misses) == (0, 2)
        assert service.cache_size == 2
        assert [d.raw_label for d in got] == wide.predict(
            np.stack([window(low), window(low + 256)])
        )

    def test_in_batch_duplicates_miss_each_and_share_one_entry(
        self, model
    ):
        service = _service(model, max_wait=0)
        service.open_session(0)
        pattern = np.full((5, 4), 0.4)
        first = service.ingest(0, np.concatenate([pattern, pattern]))
        assert len(first) == 2
        assert first[0].batch_id == first[1].batch_id
        assert (service.cache_hits, service.cache_misses) == (0, 2)
        assert service.cache_size == 1
        again = service.ingest(0, pattern)
        assert (service.cache_hits, service.cache_misses) == (1, 2)
        assert service.cache_size == 1
        assert [d.raw_label for d in first + again] == model.predict(
            np.stack([pattern] * 3)
        )


class TestClockInjection:
    def test_injected_ticks_drive_the_clock(self, model, rng):
        service = _service(model, max_wait=100, max_batch=64)
        service.open_session(0)
        service.ingest(0, rng.random((5, 4)), tick=7)
        assert service.clock == 7
        service.ingest(0, rng.random((2, 4)), tick=9)
        assert service.clock == 9

    def test_non_increasing_tick_rejected(self, model, rng):
        service = _service(model)
        service.open_session(0)
        service.ingest(0, rng.random((2, 4)), tick=5)
        with pytest.raises(ValueError, match="tick"):
            service.ingest(0, rng.random((2, 4)), tick=5)
        with pytest.raises(ValueError, match="tick"):
            service.ingest(0, rng.random((2, 4)), tick=3)

    def test_max_wait_ages_on_injected_ticks(self, model, rng):
        """A window enqueued at tick T dispatches once an injected tick
        reaches T + max_wait, regardless of how many ingest calls
        happened — the semantics a sharded coordinator relies on."""
        service = _service(model, max_wait=10, max_batch=64)
        service.open_session(0)
        assert service.ingest(0, rng.random((5, 4)), tick=100) == []
        # One call, far in the future: age 15 >= 10 flushes.
        decisions = service.ingest(0, rng.random((0, 4)), tick=115)
        assert len(decisions) == 1
        assert decisions[0].queue_wait == 15

    def test_rejected_chunk_leaves_the_clock_alone(self, model, rng):
        """A chunk of the wrong shape moves neither the clock nor the
        next dispatch's decided_at, with or without an injected tick."""
        chunks = [rng.random((5, 4)) for _ in range(3)]

        def run(bad_tick=None, bad=True):
            service = _service(model, max_wait=1, max_batch=64)
            service.open_session(0)
            service.ingest(0, chunks[0])
            if bad:
                with pytest.raises(ValueError, match="shape"):
                    service.ingest(0, rng.random((7, 3)), tick=bad_tick)
            clock = service.clock
            decisions = service.ingest(0, chunks[1])
            decisions += service.ingest(0, chunks[2])
            return clock, [d.decided_at for d in decisions]

        clean = run(bad=False)
        assert clean == (1, [2, 2])
        assert run() == clean
        assert run(bad_tick=5) == clean

    def test_mixed_injection_and_local_ticks(self, model, rng):
        service = _service(model, max_wait=50)
        service.open_session(0)
        service.ingest(0, rng.random((2, 4)))  # local: clock 1
        service.ingest(0, rng.random((2, 4)), tick=10)
        service.ingest(0, rng.random((2, 4)))  # local again: 11
        assert service.clock == 11


class TestOfflineParity:
    def test_streaming_equals_offline_predictions(self, model, rng):
        """The acceptance pin: interleaved multi-session streaming with
        aggressive batching produces exactly the offline predictions of
        each session's windows, in order."""
        n_sessions = 5
        streams = [rng.random((137, 4)) for _ in range(n_sessions)]
        service = _service(model, max_batch=7, max_wait=2, smooth=1)
        for s in range(n_sessions):
            service.open_session(s)
        offsets = [0] * n_sessions
        sizes = rng.integers(1, 23, size=500).tolist()
        decisions = []
        i = 0
        while any(o < 137 for o in offsets):
            s = i % n_sessions
            if offsets[s] < 137:
                step = sizes[i % len(sizes)]
                decisions.extend(service.ingest(
                    s, streams[s][offsets[s] : offsets[s] + step]
                ))
                offsets[s] += step
            i += 1
        decisions.extend(service.drain())

        from repro.emg.dataset import Trial
        from repro.emg.windows import windows_from_trial

        config = service.config.window
        for s in range(n_sessions):
            # The oracle is the real offline slicer + batch classifier.
            wins = windows_from_trial(
                Trial(
                    subject_id=0, gesture=0, repetition=0,
                    envelope=streams[s],
                ),
                config,
            )
            expected = model.predict(np.asarray(wins))
            mine = [d for d in decisions if d.session_id == s]
            got = [d.raw_label for d in mine]
            assert got == expected
            assert [d.index for d in mine] == list(range(len(expected)))

    def test_smoothed_labels_follow_vote(self, model, rng):
        service = _service(model, smooth=3, max_wait=0)
        service.open_session(0)
        decisions = service.ingest(0, rng.random((200, 4)))
        votes = MajorityVoteSmoother(3)
        for decision in decisions:
            assert decision.label == votes.update(decision.raw_label)


class TestTelemetry:
    def test_table2_operating_point(self):
        # The paper's Table 2 operating point: 143 kcycles at 14.3 MHz
        # meets the 10 ms deadline, so 10 windows take 100 ms.
        device = DevicePerfModel.from_cycles(
            143_000, soc=PULPV3_SOC, n_cores=4, dim=DIM
        )
        assert device.meets_deadline
        assert device.f_mhz == pytest.approx(14.3)
        assert 10 * device.window_latency_ms == pytest.approx(100.0)

    def test_m4_model_uses_flat_power(self):
        device = DevicePerfModel.from_cycles(
            439_000, soc=CORTEX_M4_SOC, n_cores=1, dim=DIM
        )
        assert device.f_mhz == pytest.approx(43.9)
        # Table 2: 20.83 mW at 43.9 MHz.
        assert device.power_mw == pytest.approx(20.83, rel=1e-3)

    def test_from_cycles_validation(self):
        with pytest.raises(ValueError):
            DevicePerfModel.from_cycles(0)


class TestSpatialRowCache:
    """Windows shifted by ``stride < W`` share ``W - stride`` spatial
    rows, across chunks and batches; each still decides as offline."""

    @staticmethod
    def _fresh_model(seed=7):
        rng = np.random.default_rng(seed)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=DIM, n_channels=4, n_levels=8, signal_hi=1.0
            )
        )
        windows = rng.random((40, 5, 4))
        return clf.fit(windows, [i % 4 for i in range(40)])

    def test_overlapping_stride_bit_exact(self, rng):
        """A stride-1 service decides every window as offline
        ``predict`` does."""
        stream = rng.random((200, 4))
        window = WindowConfig(
            window_samples=5, stride_samples=1, skip_onset_s=0.0
        )
        model = self._fresh_model()
        service = StreamingService(
            model,
            StreamConfig(window=window, sample_rate_hz=RATE, max_wait=0),
        )
        service.open_session(0)
        got = []
        # Chunked delivery, as a live stream would arrive: windows that
        # straddle chunk boundaries share rows with earlier encodes.
        for chunk in np.array_split(stream, 8):
            got.extend(d.raw_label for d in service.ingest(0, chunk))
        want = model.predict(
            np.stack([stream[i: i + 5] for i in range(len(stream) - 4)])
        )
        assert got == want


class TestQueueAgeHistograms:
    """Dispatch records each batch's queue ages in one pass."""

    def test_multi_item_batch_matches_per_item_reference(self, model, rng):
        from repro.perf.streaming import tick_histogram

        # A large max_wait holds every window until drain, so one batch
        # spans queue items enqueued at several different ticks.
        svc = _service(model, max_wait=1000, max_batch=1000)
        for sid in range(3):
            svc.open_session(sid)
        for sid, n_samples in [
            (0, 10), (1, 5), (2, 20), (0, 15), (1, 25), (0, 5)
        ]:
            assert svc.ingest(sid, rng.random((n_samples, 4))) == []
        decisions = svc.drain()
        assert len({d.batch_id for d in decisions}) == 1
        items = Counter((d.session_id, d.enqueued_at) for d in decisions)
        ticks = {d.enqueued_at for d in decisions}
        assert len(items) == 6 and len(ticks) == 6
        reference = tick_histogram()
        for (_, tick), k in items.items():
            reference.record_many(
                np.full(k, decisions[0].decided_at - tick, dtype=np.float64)
            )
        got = svc.queue_age_ticks_hist
        np.testing.assert_array_equal(got.counts, reference.counts)
        assert got.zeros == reference.zeros
        assert got.min == reference.min
        assert got.max == reference.max
        assert svc.queue_age_s_hist.count == len(decisions)
