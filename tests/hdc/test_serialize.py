"""Model store: round-trip bit-exactness, version gating, popcount paths,
and the read-only memory-mapped load path."""

import hashlib
import multiprocessing

import numpy as np
import pytest

from repro.hdc import (
    BatchHDClassifier,
    HDClassifierConfig,
    ModelFormatError,
    load_model,
    load_model_mmap,
    model_info,
    save_model,
)
from repro.hdc import bitpack, serialize
from repro.hdc.item_memory import ContinuousItemMemory, ItemMemory


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    clf = BatchHDClassifier(
        HDClassifierConfig(
            dim=300,  # deliberately not a multiple of 32 or 64: pad bits
            n_channels=4,
            n_levels=6,
            ngram_size=2,
            signal_hi=1.0,
            seed=99,
        )
    )
    windows = rng.random((36, 6, 4))
    labels = [i % 3 for i in range(36)]
    clf.fit(windows, labels)
    return clf


@pytest.fixture()
def saved(fitted, tmp_path):
    return save_model(tmp_path / "model", fitted)


class TestRoundTrip:
    def test_path_gets_npz_suffix(self, saved):
        assert saved.suffix == ".npz"
        assert saved.exists()

    def test_words_bit_exact(self, fitted, saved):
        loaded = load_model(saved)
        spatial = fitted.encoder.spatial
        lspatial = loaded.encoder.spatial
        assert np.array_equal(
            lspatial.item_memory.as_matrix64(),
            spatial.item_memory.as_matrix64(),
        )
        assert np.array_equal(
            lspatial.continuous_memory.as_matrix64(),
            spatial.continuous_memory.as_matrix64(),
        )
        assert np.array_equal(
            loaded.prototype_words, fitted.prototype_words
        )
        assert np.array_equal(loaded.am_matrix(), fitted.am_matrix())

    def test_config_and_labels_preserved(self, fitted, saved):
        loaded = load_model(saved)
        assert loaded.config == fitted.config
        assert loaded.labels == fitted.labels
        assert all(isinstance(l, int) for l in loaded.labels)

    def test_predictions_identical(self, fitted, saved):
        rng = np.random.default_rng(5)
        loaded = load_model(saved)
        probe = rng.random((64, 6, 4))
        assert loaded.predict(probe) == fitted.predict(probe)
        assert np.array_equal(
            loaded.distances(probe), fitted.distances(probe)
        )
        assert np.array_equal(
            loaded.encoder.encode_batch(probe).words,
            fitted.encoder.encode_batch(probe).words,
        )

    def test_save_load_save_is_stable(self, fitted, saved, tmp_path):
        again = save_model(tmp_path / "again", load_model(saved))
        with np.load(saved) as a, np.load(again) as b:
            assert sorted(a.files) == sorted(b.files)
            for key in a.files:
                assert np.array_equal(a[key], b[key]), key

    def test_string_labels_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=2, n_levels=4, signal_hi=1.0
            )
        )
        clf.fit(rng.random((8, 5, 2)), ["rest", "fist"] * 4)
        loaded = load_model(save_model(tmp_path / "m", clf))
        assert loaded.labels == ("rest", "fist")
        probe = rng.random((10, 5, 2))
        assert loaded.predict(probe) == clf.predict(probe)

    def test_model_info_header(self, fitted, saved):
        info = model_info(saved)
        assert info["magic"] == serialize.MODEL_MAGIC
        assert info["version"] == serialize.MODEL_VERSION
        assert info["dim"] == 300
        assert info["labels"] == list(fitted.labels)


class TestRejection:
    def test_unfitted_model_cannot_save(self, tmp_path):
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=2, n_levels=4, signal_hi=1.0
            )
        )
        with pytest.raises(RuntimeError):
            save_model(tmp_path / "m", clf)

    def test_object_labels_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=2, n_levels=4, signal_hi=1.0
            )
        )
        clf.fit(rng.random((4, 5, 2)), [(0, 1), (2, 3)] * 2)
        with pytest.raises(ModelFormatError, match="labels"):
            save_model(tmp_path / "m", clf)

    def test_mixed_labels_rejected_not_coerced(self, tmp_path):
        """np.asarray([0, 'rest']) silently stringifies the int; the
        store must reject the mix instead of round-tripping ['0',
        'rest'] and changing the predict() return values."""
        rng = np.random.default_rng(3)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=2, n_levels=4, signal_hi=1.0
            )
        )
        clf.fit(rng.random((4, 5, 2)), [0, "rest"] * 2)
        with pytest.raises(ModelFormatError, match="labels"):
            save_model(tmp_path / "m", clf)

    def test_bool_labels_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=128, n_channels=2, n_levels=4, signal_hi=1.0
            )
        )
        clf.fit(rng.random((4, 5, 2)), [True, False] * 2)
        with pytest.raises(ModelFormatError, match="labels"):
            save_model(tmp_path / "m", clf)

    def _resave(self, saved, tmp_path, **overrides):
        with np.load(saved) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload.update(overrides)
        path = tmp_path / "tampered.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        return path

    def test_version_mismatch_rejected(self, saved, tmp_path):
        bad = self._resave(
            saved, tmp_path, version=np.array(99, dtype=np.int64)
        )
        with pytest.raises(ModelFormatError, match="version 99"):
            load_model(bad)

    def test_wrong_magic_rejected(self, saved, tmp_path):
        bad = self._resave(saved, tmp_path, magic=np.array("other-format"))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(bad)

    def test_missing_key_rejected(self, saved, tmp_path):
        with np.load(saved) as archive:
            payload = {
                k: archive[k] for k in archive.files if k != "am_u32"
            }
        path = tmp_path / "truncated.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ModelFormatError, match="am_u32"):
            load_model(path)

    def test_shape_mismatch_rejected(self, saved, tmp_path):
        with np.load(saved) as archive:
            im = archive["im_u32"]
        bad = self._resave(saved, tmp_path, im_u32=im[:, :-1])
        with pytest.raises(ModelFormatError, match="shape"):
            load_model(bad)

    def test_pad_bit_violation_rejected(self, saved, tmp_path):
        with np.load(saved) as archive:
            am = archive["am_u32"].copy()
        am[0, -1] |= np.uint32(1 << 31)  # dim=300 -> 12 valid bits in last
        bad = self._resave(saved, tmp_path, am_u32=am)
        with pytest.raises(ModelFormatError, match="pad-bit"):
            load_model(bad)

    def test_dtype_mismatch_rejected(self, saved, tmp_path):
        with np.load(saved) as archive:
            am = archive["am_u32"].astype(np.uint64)
        bad = self._resave(saved, tmp_path, am_u32=am)
        with pytest.raises(ModelFormatError, match="uint32"):
            load_model(bad)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_missing_file_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.npz")


def _digest_of(clf) -> str:
    """Canonical fingerprint of a classifier's packed model state."""
    h = hashlib.sha256()
    spatial = clf.encoder.spatial
    h.update(np.ascontiguousarray(
        spatial.item_memory.as_matrix64()).tobytes())
    h.update(np.ascontiguousarray(
        spatial.continuous_memory.as_matrix64()).tobytes())
    h.update(np.ascontiguousarray(clf.prototype_words).tobytes())
    h.update(repr(clf.labels).encode())
    return h.hexdigest()


def _mmap_reader(args):
    """Pool worker: mmap-load a store, fingerprint it, predict."""
    path, probe = args
    clf = load_model_mmap(path)
    return _digest_of(clf), clf.predict(probe)


class TestMmapLoad:
    """The serving load path: mapped read-only, bit-identical, no RNG.

    ``fitted``/``saved`` use dim=300 (10 uint32 words -> even, the
    zero-copy uint64 view); the ``odd_saved`` fixture uses dim=96
    (3 uint32 words -> odd, the private read-only copy fallback).  Both
    paths must expose the same immutable, bit-exact contract.
    """

    @pytest.fixture()
    def odd_saved(self, tmp_path):
        # Written as a version-1 store: odd uint32 row lengths exercise
        # the private-copy fallback that version 2's padding removed.
        rng = np.random.default_rng(23)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=96, n_channels=3, n_levels=5, signal_hi=1.0
            )
        )
        clf.fit(rng.random((12, 5, 3)), [0, 1, 2] * 4)
        return clf, save_model(tmp_path / "odd", clf, version=1)

    def test_bit_identical_to_eager_load(self, fitted, saved):
        eager = load_model(saved)
        mapped = load_model_mmap(saved)
        assert _digest_of(mapped) == _digest_of(eager)
        assert _digest_of(mapped) == _digest_of(fitted)
        rng = np.random.default_rng(29)
        probe = rng.random((32, 6, 4))
        assert mapped.predict(probe) == fitted.predict(probe)
        assert np.array_equal(
            mapped.distances(probe), fitted.distances(probe)
        )

    def test_odd_word_count_fallback_bit_identical(self, odd_saved):
        clf, path = odd_saved
        mapped = load_model_mmap(path)
        assert _digest_of(mapped) == _digest_of(clf)
        rng = np.random.default_rng(31)
        probe = rng.random((16, 5, 3))
        assert mapped.predict(probe) == clf.predict(probe)

    def test_prototypes_stay_file_backed_when_even(self, saved):
        import mmap as mmap_module

        mapped = load_model_mmap(saved)
        words = mapped.prototype_words
        # dim=300 -> 10 uint32 words -> the uint64 rows are a pure
        # dtype view of the file mapping, not a heap copy: the chain of
        # bases must bottom out in the memory map itself.
        root = words
        while getattr(root, "base", None) is not None:
            if isinstance(root, np.memmap):
                break
            root = root.base
        assert isinstance(root, (np.memmap, mmap_module.mmap))

    def test_writes_rejected_on_mapping(self, saved, odd_saved):
        _, odd_path = odd_saved
        for path in (saved, odd_path):
            mapped = load_model_mmap(path)
            words = mapped.prototype_words
            assert not words.flags.writeable
            with pytest.raises(ValueError):
                words[0, 0] = np.uint64(1)
            with pytest.raises(ValueError):
                words[:] = 0

    def test_zero_rng_draws(self, saved, monkeypatch):
        """Rebuilding from the store must never touch the RNG — the
        served bits are adopted, not regenerated."""

        def _bomb(*args, **kwargs):
            raise AssertionError("model load drew from the RNG")

        monkeypatch.setattr(np.random, "default_rng", _bomb)
        mapped = load_model_mmap(saved)
        assert mapped.prototype_words.shape[0] == 3

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="concurrent-reader test uses the fork start method",
    )
    def test_concurrent_multiprocess_readers_bit_identical(
        self, fitted, saved
    ):
        """N processes mapping one store must all see the same bytes
        and produce the same predictions as the in-process original."""
        rng = np.random.default_rng(37)
        probe = rng.random((24, 6, 4))
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=3) as pool:
            results = pool.map(
                _mmap_reader, [(str(saved), probe)] * 3
            )
        digests = {digest for digest, _ in results}
        assert digests == {_digest_of(fitted)}
        for _, predictions in results:
            assert predictions == fitted.predict(probe)

    def test_compressed_store_rejected_with_clear_error(
        self, saved, tmp_path
    ):
        """np.savez_compressed archives cannot be mapped; the error
        must say so instead of serving garbage."""
        with np.load(saved) as archive:
            payload = {k: archive[k] for k in archive.files}
        path = tmp_path / "compressed.npz"
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        assert load_model(path) is not None  # eager path still works
        with pytest.raises(ModelFormatError, match="compressed"):
            load_model_mmap(path)

    def test_same_rejections_as_eager_load(self, saved, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model_mmap(tmp_path / "absent.npz")
        with np.load(saved) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["version"] = np.array(99, dtype=np.int64)
        bad = tmp_path / "future.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ModelFormatError, match="version 99"):
            load_model_mmap(bad)
        with np.load(saved) as archive:
            am = archive["am_u32"].copy()
        am[0, -1] |= np.uint32(1 << 31)  # dirty pad bit (dim=300)
        payload = dict(payload)
        payload["version"] = np.array(
            serialize.MODEL_VERSION, dtype=np.int64
        )
        payload["am_u32"] = am
        bad = tmp_path / "dirty.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ModelFormatError, match="pad-bit"):
            load_model_mmap(bad)

    def test_missing_matrix_member_rejected(self, saved, tmp_path):
        with np.load(saved) as archive:
            payload = {
                k: archive[k] for k in archive.files if k != "cim_u32"
            }
        path = tmp_path / "truncated.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ModelFormatError, match="cim_u32"):
            load_model_mmap(path)


class TestPopcountPathEquivalence:
    """A store written under one numpy popcount path must serve
    identically under the other (numpy >= 2.0 has np.bitwise_count; older
    versions use the byte-LUT fallback)."""

    def test_lut_and_native_paths_agree_on_loaded_model(
        self, fitted, saved, monkeypatch
    ):
        rng = np.random.default_rng(17)
        probe = rng.random((32, 6, 4))
        loaded = load_model(saved)
        native = loaded.distances(probe)
        native_pred = loaded.predict(probe)

        monkeypatch.setattr(bitpack, "_HAS_BITWISE_COUNT", False)
        lut = loaded.distances(probe)
        lut_pred = loaded.predict(probe)
        assert np.array_equal(native, lut)
        assert native_pred == lut_pred
        assert native_pred == fitted.predict(probe)


class TestFromState:
    def test_from_words64_validation(self, rng):
        with pytest.raises(ValueError):
            ItemMemory.from_words64(np.zeros(4, dtype=np.uint64), 128)
        with pytest.raises(ValueError):
            ItemMemory.from_words64(
                np.zeros((2, 2), dtype=np.uint64), 128, symbols=[0]
            )
        with pytest.raises(ValueError):
            ItemMemory.from_words64(
                np.zeros((2, 2), dtype=np.uint64), 128, symbols=[0, 0]
            )
        with pytest.raises(ValueError):
            ContinuousItemMemory.from_words64(
                np.zeros((1, 2), dtype=np.uint64), 128
            )

    def test_im_round_trip_preserves_symbols(self, rng):
        im = ItemMemory.for_channels(3, 192, rng)
        rebuilt = ItemMemory.from_words64(im.as_matrix64(), 192)
        assert rebuilt.symbols == im.symbols
        for symbol in im.symbols:
            assert rebuilt[symbol] == im[symbol]

    def test_cim_round_trip_preserves_structure(self, rng):
        cim = ContinuousItemMemory(5, 192, rng)
        rebuilt = ContinuousItemMemory.from_words64(cim.as_matrix64(), 192)
        assert rebuilt.n_levels == 5
        assert np.array_equal(
            rebuilt.level_distances(), cim.level_distances()
        )

    def test_from_state_shape_mismatch(self, fitted):
        spatial = fitted.encoder.spatial
        with pytest.raises(ValueError, match="prototype"):
            BatchHDClassifier.from_state(
                fitted.config,
                spatial.item_memory,
                spatial.continuous_memory,
                list(fitted.labels) + ["extra"],
                fitted.prototype_words,
            )

    def test_from_state_rejects_dirty_pad_bits(self, fitted):
        spatial = fitted.encoder.spatial
        dirty = fitted.prototype_words.copy()
        dirty[0, -1] |= np.uint64(1) << np.uint64(63)  # dim=300 pad bit
        with pytest.raises(ValueError, match="pad bits"):
            BatchHDClassifier.from_state(
                fitted.config,
                spatial.item_memory,
                spatial.continuous_memory,
                list(fitted.labels),
                dirty,
            )

    def test_model_info_rejects_unknown_version(self, saved, tmp_path):
        with np.load(saved) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["version"] = np.array(99, dtype=np.int64)
        path = tmp_path / "future.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ModelFormatError, match="version 99"):
            model_info(path)


def _file_backed(words) -> bool:
    """Whether an array's base chain bottoms out in the file mapping."""
    import mmap as mmap_module

    root = words
    while getattr(root, "base", None) is not None:
        if isinstance(root, np.memmap):
            return True
        root = root.base
    return isinstance(root, (np.memmap, mmap_module.mmap))


class TestModelVersion2:
    """The padded store: zero-copy mmap at every dimension, v1 compat."""

    def _fit(self, dim, seed=41):
        rng = np.random.default_rng(seed)
        clf = BatchHDClassifier(
            HDClassifierConfig(
                dim=dim, n_channels=3, n_levels=5, signal_hi=1.0
            )
        )
        clf.fit(rng.random((9, 5, 3)), [0, 1, 2] * 3)
        return clf

    def test_default_store_is_version_2(self, saved):
        assert serialize.MODEL_VERSION == 2
        with np.load(saved) as archive:
            assert int(archive["version"]) == 2

    def test_odd_rows_padded_to_even(self, tmp_path):
        clf = self._fit(96)  # 3 uint32 words per row
        path = save_model(tmp_path / "v2", clf)
        with np.load(path) as archive:
            assert archive["im_u32"].shape[1] == 4
            assert not archive["im_u32"][:, 3:].any()
        loaded = load_model(path)
        assert _digest_of(loaded) == _digest_of(clf)

    def test_paper_dimension_is_zero_copy(self, tmp_path):
        """D = 10,000 (313 uint32 words — odd) stays file-backed under
        version 2; a v1 store of the same model pays the private copy."""
        clf = self._fit(10_000)
        v2 = save_model(tmp_path / "paper_v2", clf)
        v1 = save_model(tmp_path / "paper_v1", clf, version=1)
        mapped_v2 = load_model_mmap(v2)
        mapped_v1 = load_model_mmap(v1)
        assert _file_backed(mapped_v2.prototype_words)
        assert not _file_backed(mapped_v1.prototype_words)
        assert _digest_of(mapped_v2) == _digest_of(clf)
        assert _digest_of(mapped_v1) == _digest_of(clf)

    def test_version_1_still_loads(self, fitted, tmp_path):
        path = save_model(tmp_path / "legacy", fitted, version=1)
        with np.load(path) as archive:
            assert int(archive["version"]) == 1
        assert _digest_of(load_model(path)) == _digest_of(fitted)
        assert _digest_of(load_model_mmap(path)) == _digest_of(fitted)
        assert model_info(path)["version"] == 1

    def test_dirty_padding_rejected(self, tmp_path):
        clf = self._fit(96)
        path = save_model(tmp_path / "dirty", clf)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        tampered = payload["im_u32"].copy()
        tampered[0, -1] = 1  # the v2 pad word must stay zero
        payload["im_u32"] = tampered
        bad = tmp_path / "tampered.npz"
        with open(bad, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(ModelFormatError, match="padding"):
            load_model(bad)

    def test_unknown_write_version_rejected(self, fitted, tmp_path):
        with pytest.raises(ModelFormatError, match="version 3"):
            save_model(tmp_path / "future", fitted, version=3)


class TestSnapshotEnvelope:
    """The versioned pickle envelope elastic state travels in."""

    def test_roundtrip(self):
        state = {"clock": 7, "buf": b"\x00\x01", "nested": {"a": [1, 2]}}
        blob = serialize.dumps_snapshot("worker", state)
        assert isinstance(blob, bytes)
        assert serialize.loads_snapshot(blob) == state
        assert serialize.loads_snapshot(blob, "worker") == state

    def test_kind_mismatch_rejected(self):
        blob = serialize.dumps_snapshot("worker", {})
        with pytest.raises(
            serialize.SnapshotFormatError, match="session-transfer"
        ):
            serialize.loads_snapshot(blob, "session-transfer")

    def test_garbage_rejected(self):
        with pytest.raises(serialize.SnapshotFormatError):
            serialize.loads_snapshot(b"not a snapshot")
        # A pickle that is not a snapshot envelope is also rejected.
        import pickle

        with pytest.raises(serialize.SnapshotFormatError):
            serialize.loads_snapshot(pickle.dumps({"magic": "nope"}))

    def test_unknown_version_rejected(self):
        import pickle

        blob = pickle.dumps(
            {
                "magic": serialize.SNAPSHOT_MAGIC,
                "version": serialize.SNAPSHOT_VERSION + 99,
                "kind": "worker",
                "state": {},
            }
        )
        with pytest.raises(
            serialize.SnapshotFormatError, match="version"
        ):
            serialize.loads_snapshot(blob)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            serialize.dumps_snapshot("", {})
        with pytest.raises(ValueError):
            serialize.dumps_snapshot("worker", [1, 2])
