"""Versioned model store: bit-exact save/load of trained HD models.

Serving never retrains.  A trained :class:`~repro.hdc.batch.BatchHDClassifier`
is fully determined by its seed memories (IM, CIM), its AM prototype matrix,
its class labels, and the hyper-parameter config — this module persists
exactly that state to a single ``.npz`` file and rebuilds a classifier from
it without drawing a single RNG sample.

Format (``MODEL_MAGIC`` / ``MODEL_VERSION``):

* all hypervector matrices are stored in the **paper's packed uint32
  layout** (:mod:`repro.hdc.bitpack`, 32 LSB-first components per
  little-endian word).  That layout is the ISS kernel ABI and is
  word-size- and numpy-version-stable, so a store written on one machine
  loads bit-identically on any other; the engine's uint64 widening is a
  lossless byte reinterpretation applied on load.
* config scalars are stored as 0-d arrays; labels as a plain int or
  unicode array (arbitrary hashables are rejected at save time — a model
  store is an interchange format, not a pickle).
* loading validates magic, version, array shapes, and the pad-bit
  invariant before any vector is adopted, and raises
  :class:`ModelFormatError` on any mismatch.

Two load paths serve the same bytes:

* :func:`load_model` — eager: every matrix is read into fresh private
  arrays.
* :func:`load_model_mmap` — the serving path: the packed matrices are
  ``np.memmap``-ed read-only straight out of the (uncompressed) zip
  archive, so N worker processes serving one store share a single
  page-cache copy of the model instead of N private heaps.  When the
  uint32 row length is even the engine's uint64 widening is a zero-copy
  byte view of the mapping (little-endian hosts); odd row lengths pay
  one private read-only copy for the pad word.  Either way the exposed
  arrays reject writes — a served model cannot be corrupted in place.

Round-trip bit-exactness, version rejection, popcount-path equivalence,
and mmap read-only/bit-identity behaviour are pinned by
``tests/hdc/test_serialize.py``.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import struct
import zipfile
from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from . import bitpack
from .batch import BatchHDClassifier
from .classifier import HDClassifierConfig
from .item_memory import ContinuousItemMemory, ItemMemory

MODEL_MAGIC = "repro-hdc-model"
"""File-format identifier stored in every model file."""

MODEL_VERSION = 2
"""Current format version.

Version 2 pads every stored uint32 row to an *even* word count (the pad
word is zero and is validated on load), so the engine's uint64 widening
is a zero-copy byte view at **every** dimension — version 1 stores with
odd row lengths (the paper's own D = 10,000 → 313 words) forced one
private read-only copy per worker on the mmap path.  Version 1 files
still load bit-identically.
"""

SUPPORTED_VERSIONS = (1, 2)
"""Format versions this build reads."""

_CONFIG_INT_FIELDS = ("dim", "n_channels", "n_levels", "ngram_size", "seed")
_CONFIG_FLOAT_FIELDS = ("signal_lo", "signal_hi")
_MATRIX_KEYS = ("im_u32", "cim_u32", "am_u32")


class ModelFormatError(ValueError):
    """Raised when a model file is malformed, truncated, or incompatible."""


def _normalize_path(path: Union[str, pathlib.Path]) -> pathlib.Path:
    """``np.savez`` appends ``.npz`` when missing; do it up front so the
    path we return is the path that exists."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def _pad_rows_even(words: np.ndarray) -> np.ndarray:
    """Append one zero uint32 column when the row length is odd."""
    if words.shape[1] % 2 == 0:
        return words
    padded = np.zeros(
        (words.shape[0], words.shape[1] + 1), dtype=np.uint32
    )
    padded[:, :-1] = words
    return padded


def save_model(
    path: Union[str, pathlib.Path],
    classifier: BatchHDClassifier,
    version: int = MODEL_VERSION,
) -> pathlib.Path:
    """Persist a fitted classifier to ``path`` (a ``.npz`` model file).

    Returns the path actually written.  Raises ``RuntimeError`` when the
    classifier has not been fitted and :class:`ModelFormatError` when the
    labels are not serializable (ints or strings only).  ``version``
    selects the store format (2 by default; 1 writes the legacy unpadded
    layout for compatibility tests).
    """
    if version not in SUPPORTED_VERSIONS:
        raise ModelFormatError(
            f"cannot write model format version {version}; "
            f"supported: {SUPPORTED_VERSIONS}"
        )
    path = _normalize_path(path)
    config = classifier.config
    am_u32 = classifier.am_matrix()  # raises RuntimeError if unfitted
    # Type-check the labels *before* numpy gets a chance to coerce them:
    # np.asarray([0, "rest"]) silently stringifies the int, which would
    # make the loaded model return different label objects than the
    # saved one.  The store is homogeneous ints or homogeneous strings.
    label_list = list(classifier.labels)
    if all(isinstance(label, str) for label in label_list):
        labels = np.asarray(label_list)
    elif all(
        isinstance(label, (int, np.integer))
        and not isinstance(label, (bool, np.bool_))
        for label in label_list
    ):
        labels = np.asarray(label_list, dtype=np.int64)
    else:
        raise ModelFormatError(
            f"model-store labels must be all ints or all strings, got "
            f"{classifier.labels!r}"
        )
    spatial = classifier.encoder.spatial
    pad = _pad_rows_even if version >= 2 else (lambda words: words)
    payload = {
        "magic": np.array(MODEL_MAGIC),
        "version": np.array(version, dtype=np.int64),
        "im_u32": pad(spatial.item_memory.as_matrix()),
        "cim_u32": pad(spatial.continuous_memory.as_matrix()),
        "am_u32": pad(am_u32),
        "labels": labels,
    }
    for name in _CONFIG_INT_FIELDS:
        payload[name] = np.array(getattr(config, name), dtype=np.int64)
    for name in _CONFIG_FLOAT_FIELDS:
        payload[name] = np.array(getattr(config, name), dtype=np.float64)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)
    return path


def _require(archive, key: str) -> np.ndarray:
    try:
        return archive[key]
    except KeyError:
        raise ModelFormatError(
            f"model file is missing required key {key!r}"
        ) from None


def _stored_words(dim: int, version: int) -> int:
    """uint32 words per stored row for a given format version."""
    n32 = bitpack.words_for_dim(dim)
    if version >= 2:
        n32 += n32 % 2  # rows padded to even word counts
    return n32


def _validate_u32_matrix(
    words: np.ndarray, key: str, n_rows: int, dim: int, version: int
) -> None:
    """Validate one stored uint32 matrix (dtype, shape, pad bits)."""
    if words.dtype != np.uint32:
        raise ModelFormatError(
            f"{key} must be uint32, got {words.dtype}"
        )
    n32 = bitpack.words_for_dim(dim)
    expected = (n_rows, _stored_words(dim, version))
    if words.shape != expected:
        raise ModelFormatError(
            f"{key} has shape {words.shape}, expected {expected}"
        )
    if not bitpack.pad_bits_are_zero(words[:, :n32], dim):
        raise ModelFormatError(
            f"{key} violates the pad-bit invariant for dimension {dim}"
        )
    if words.shape[1] != n32 and words[:, n32:].any():
        raise ModelFormatError(
            f"{key} has non-zero bits in the version-2 row padding"
        )


def _check_matrix(
    words: np.ndarray, key: str, n_rows: int, dim: int, version: int
) -> np.ndarray:
    """Validate one stored uint32 matrix and widen it to uint64 rows."""
    _validate_u32_matrix(words, key, n_rows, dim, version)
    return bitpack.u32_to_u64(
        words[:, : bitpack.words_for_dim(dim)], dim
    )


def _widen_readonly(
    words: np.ndarray, dim: int, version: int
) -> np.ndarray:
    """Widen validated uint32 rows to uint64 without giving up the map.

    When the stored uint32 row length is even — always, in a version-2
    store; at even word counts in version 1 — the uint64 layout is the
    *same bytes* (LSB-first little-endian), so a dtype view keeps the
    array mmap-backed and read-only.  Odd version-1 rows need a zero pad
    word per row, which forces one private copy — marked read-only so
    both paths expose the same immutable contract.
    """
    n64 = bitpack.words_for_dim(dim, bitpack.WORD_BITS64)
    if _stored_words(dim, version) == 2 * n64:
        return words.view("<u8")
    widened = bitpack.u32_to_u64(words, dim)
    widened.setflags(write=False)
    return widened


def _open_archive(path: pathlib.Path):
    # The handle is opened here, not by np.load: when handed a path,
    # np.load detaches its cleanup stack before parsing the zip, so a
    # corrupt archive orphans the open file (ResourceWarning, and a
    # leaked fd per failed load on a long-lived server).  Owning the
    # handle lets every error path close it deterministically.
    fh = open(path, "rb")
    try:
        archive = np.load(fh, allow_pickle=False)
    except Exception as exc:
        fh.close()
        raise ModelFormatError(f"cannot read model file {path}: {exc}")
    # np.load was handed an open file object, so it does not own it;
    # adopting it as the NpzFile's fid ties the handle's lifetime to
    # ``archive.close()`` (and hence to the ``with`` blocks below).
    archive.fid = fh
    return archive


def _load_header(
    archive, path: pathlib.Path
) -> Tuple[HDClassifierConfig, List[Hashable], int]:
    """Validate magic/version and decode config + labels (small arrays)."""
    magic = _require(archive, "magic")
    if str(magic) != MODEL_MAGIC:
        raise ModelFormatError(
            f"{path} is not a {MODEL_MAGIC} file (magic {magic!r})"
        )
    version = int(_require(archive, "version"))
    if version not in SUPPORTED_VERSIONS:
        raise ModelFormatError(
            f"unsupported model format version {version} "
            f"(this build reads versions {SUPPORTED_VERSIONS})"
        )
    fields = {}
    for name in _CONFIG_INT_FIELDS:
        fields[name] = int(_require(archive, name))
    for name in _CONFIG_FLOAT_FIELDS:
        fields[name] = float(_require(archive, name))
    try:
        config = HDClassifierConfig(**fields)
    except ValueError as exc:
        raise ModelFormatError(f"invalid stored config: {exc}")
    labels_arr = _require(archive, "labels")
    if labels_arr.ndim != 1 or labels_arr.dtype.kind not in "iuU":
        raise ModelFormatError(
            f"labels must be a 1-D int or string array, got "
            f"{labels_arr.dtype} shape {labels_arr.shape}"
        )
    labels: List[Hashable] = labels_arr.tolist()
    if len(set(labels)) != len(labels):
        raise ModelFormatError("duplicate class labels in model file")
    if not labels:
        raise ModelFormatError("model file stores zero classes")
    return config, labels, version


def load_model(path: Union[str, pathlib.Path]) -> BatchHDClassifier:
    """Load a model file into a ready-to-serve :class:`BatchHDClassifier`.

    The rebuilt classifier predicts bit-identically to the instance that
    was saved: seed memories, prototypes, and label order are adopted
    verbatim and no RNG is involved.
    """
    path = pathlib.Path(path)
    with _open_archive(path) as archive:
        config, labels, version = _load_header(archive, path)
        im64 = _check_matrix(
            _require(archive, "im_u32"), "im_u32", config.n_channels,
            config.dim, version,
        )
        cim64 = _check_matrix(
            _require(archive, "cim_u32"), "cim_u32", config.n_levels,
            config.dim, version,
        )
        am64 = _check_matrix(
            _require(archive, "am_u32"), "am_u32", len(labels),
            config.dim, version,
        )
    return BatchHDClassifier.from_state(
        config,
        ItemMemory.from_words64(im64, config.dim),
        ContinuousItemMemory.from_words64(cim64, config.dim),
        labels,
        am64,
    )


class CutoverError(RuntimeError):
    """A hot-swap cutover gate failed; the active version is unchanged."""


class ModelStore:
    """Several packed models mmapped side-by-side, addressed by model id.

    The multi-tenant front for :func:`save_model` /
    :func:`load_model_mmap`: each model id owns a directory of immutable
    versioned store files plus an atomically-replaced ``CURRENT``
    pointer, so a fleet of serving processes can map any mix of models
    (different D, gesture sets, subjects) out of one page cache and a
    publisher can roll a new version without touching the readers.

    Layout under ``root``::

        <model_id>/v<version>.npz   # immutable, written once
        <model_id>/CURRENT          # active version number, os.replace'd

    * :meth:`publish` writes the next version (optionally activating it);
    * :meth:`hot_swap` is the gated rollout path: the new version is
      written, **re-loaded through the serving loader**, and must be
      bit-exact with the supplied classifier (labels, config, IM/CIM and
      prototype words — plus identical decisions on optional
      ``gate_windows``) before the ``CURRENT`` pointer flips.  A failed
      gate deletes the candidate file and raises :class:`CutoverError`,
      leaving the active version untouched.
    * :meth:`load` returns (and caches) the classifier for
      ``(model_id, version)``; with ``use_mmap`` the packed matrices are
      read-only maps shared across every loader of the same file.
    """

    _CURRENT = "CURRENT"

    def __init__(
        self, root: Union[str, pathlib.Path], use_mmap: bool = True
    ):
        self._root = pathlib.Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._use_mmap = bool(use_mmap)
        self._cache: Dict[Tuple[str, int], BatchHDClassifier] = {}

    def __enter__(self) -> "ModelStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def root(self) -> pathlib.Path:
        return self._root

    @staticmethod
    def check_id(model_id: str) -> str:
        """Validate a model id (it doubles as a directory name)."""
        if (
            not isinstance(model_id, str)
            or not model_id
            or model_id.startswith(".")
            or not all(c.isalnum() or c in "._-" for c in model_id)
        ):
            raise ModelFormatError(
                f"model id must be a non-empty [A-Za-z0-9._-] string "
                f"not starting with '.', got {model_id!r}"
            )
        return model_id

    def _dir(self, model_id: str) -> pathlib.Path:
        return self._root / self.check_id(model_id)

    @property
    def model_ids(self) -> Tuple[str, ...]:
        """Ids with an active version, sorted."""
        out = []
        for child in self._root.iterdir():
            if child.is_dir() and (child / self._CURRENT).exists():
                out.append(child.name)
        return tuple(sorted(out))

    def versions(self, model_id: str) -> Tuple[int, ...]:
        """All stored versions of ``model_id``, ascending."""
        directory = self._dir(model_id)
        if not directory.is_dir():
            return ()
        found = []
        for child in directory.glob("v*.npz"):
            stem = child.name[1 : -len(".npz")]
            if stem.isdigit():
                found.append(int(stem))
        return tuple(sorted(found))

    def current_version(self, model_id: str) -> int:
        """The active version of ``model_id``."""
        pointer = self._dir(model_id) / self._CURRENT
        try:
            text = pointer.read_text().strip()
        except FileNotFoundError:
            raise ModelFormatError(
                f"model {model_id!r} has no active version"
            ) from None
        if not text.isdigit():
            raise ModelFormatError(
                f"corrupt version pointer for model {model_id!r}: "
                f"{text!r}"
            )
        version = int(text)
        if not self.path(model_id, version).exists():
            raise ModelFormatError(
                f"model {model_id!r} points at missing version "
                f"{version}"
            )
        return version

    def path(
        self, model_id: str, version: Optional[int] = None
    ) -> pathlib.Path:
        """The store file for ``(model_id, version)`` (default: active)."""
        if version is None:
            return self.path(model_id, self.current_version(model_id))
        return self._dir(model_id) / f"v{int(version)}.npz"

    def publish(
        self,
        model_id: str,
        classifier: BatchHDClassifier,
        activate: bool = True,
    ) -> int:
        """Write the next version of ``model_id``; returns its number."""
        directory = self._dir(model_id)
        directory.mkdir(parents=True, exist_ok=True)
        version = max(self.versions(model_id), default=0) + 1
        save_model(self.path(model_id, version), classifier)
        if activate:
            self.activate(model_id, version)
        return version

    def activate(self, model_id: str, version: int) -> None:
        """Atomically flip the active version pointer."""
        version = int(version)
        if version not in self.versions(model_id):
            raise ModelFormatError(
                f"model {model_id!r} has no version {version} "
                f"(stored: {self.versions(model_id)})"
            )
        directory = self._dir(model_id)
        tmp = directory / f"{self._CURRENT}.tmp"
        tmp.write_text(f"{version}\n")
        os.replace(tmp, directory / self._CURRENT)

    def load(
        self, model_id: str, version: Optional[int] = None
    ) -> BatchHDClassifier:
        """The classifier for ``(model_id, version)``, cached."""
        if version is None:
            version = self.current_version(model_id)
        key = (self.check_id(model_id), int(version))
        cached = self._cache.get(key)
        if cached is None:
            loader = load_model_mmap if self._use_mmap else load_model
            path = self.path(model_id, version)
            if not path.exists():
                raise ModelFormatError(
                    f"model {model_id!r} has no version {version}"
                )
            cached = self._cache[key] = loader(path)
        return cached

    def hot_swap(
        self,
        model_id: str,
        classifier: BatchHDClassifier,
        gate_windows: Optional[np.ndarray] = None,
    ) -> int:
        """Publish + gate + atomically cut over; returns the version.

        The bit-exact cutover gate: the candidate is re-read through the
        serving loader and compared word-for-word against the in-memory
        classifier (config, labels, IM, CIM, prototypes); when
        ``gate_windows`` is given the stored copy must also reproduce
        the candidate's decisions on them through the serving predict
        path.  Only a fully bit-exact candidate activates.
        """
        version = self.publish(model_id, classifier, activate=False)
        path = self.path(model_id, version)
        try:
            loader = load_model_mmap if self._use_mmap else load_model
            loaded = loader(path)
            self._gate_bit_exact(loaded, classifier, gate_windows)
        except Exception:
            self._cache.pop((model_id, version), None)
            path.unlink(missing_ok=True)
            raise
        self.activate(model_id, version)
        return version

    @staticmethod
    def _gate_bit_exact(
        loaded: BatchHDClassifier,
        candidate: BatchHDClassifier,
        gate_windows: Optional[np.ndarray],
    ) -> None:
        if loaded.config != candidate.config:
            raise CutoverError(
                f"cutover gate: stored config {loaded.config} differs "
                f"from candidate {candidate.config}"
            )
        if tuple(loaded.labels) != tuple(candidate.labels):
            raise CutoverError(
                "cutover gate: stored labels differ from candidate"
            )
        pairs = (
            ("prototypes", loaded.prototype_words,
             candidate.prototype_words),
            ("item memory",
             loaded.encoder.spatial.item_memory.as_matrix64(),
             candidate.encoder.spatial.item_memory.as_matrix64()),
            ("level memory",
             loaded.encoder.spatial.continuous_memory.as_matrix64(),
             candidate.encoder.spatial.continuous_memory.as_matrix64()),
        )
        for name, stored, fresh in pairs:
            if not np.array_equal(stored, fresh):
                raise CutoverError(
                    f"cutover gate: stored {name} are not bit-exact "
                    f"with the candidate"
                )
        if gate_windows is not None:
            stored = loaded.predict(gate_windows)
            fresh = candidate.predict(gate_windows)
            if list(stored) != list(fresh):
                raise CutoverError(
                    "cutover gate: stored model decides gate windows "
                    "differently from the candidate"
                )

    def close(self) -> None:
        """Drop cached classifiers so mmapped pages can be released."""
        self._cache.clear()


def _mmap_member(
    path: pathlib.Path, zf: zipfile.ZipFile, key: str
) -> np.ndarray:
    """Memory-map one stored ``.npy`` member of the archive, read-only.

    ``np.savez`` stores members uncompressed (``ZIP_STORED``), so each
    ``.npy`` payload sits at a fixed byte offset in the archive and can
    be mapped directly — no inflate, no copy.  The local file header is
    re-read from disk because its extra-field length may differ from the
    central directory's.
    """
    name = f"{key}.npy"
    try:
        info = zf.getinfo(name)
    except KeyError:
        raise ModelFormatError(
            f"model file is missing required key {key!r}"
        ) from None
    if info.compress_type != zipfile.ZIP_STORED:
        raise ModelFormatError(
            f"{name} is compressed inside {path}; only uncompressed "
            f"(np.savez) stores can be memory-mapped — use load_model()"
        )
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ModelFormatError(
                f"corrupt local zip header for {name} in {path}"
            )
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        try:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = (
                    np.lib.format.read_array_header_1_0(fh)
                )
            elif version == (2, 0):
                shape, fortran, dtype = (
                    np.lib.format.read_array_header_2_0(fh)
                )
            else:
                raise ModelFormatError(
                    f"unsupported .npy format version {version} for {name}"
                )
        except ModelFormatError:
            raise
        except Exception as exc:
            raise ModelFormatError(
                f"cannot parse .npy header of {name} in {path}: {exc}"
            )
        if fortran:
            raise ModelFormatError(
                f"{name} is Fortran-ordered; the store writes C order"
            )
        payload_offset = fh.tell()
    return np.memmap(
        path, dtype=dtype, mode="r", offset=payload_offset, shape=shape
    )


def load_model_mmap(path: Union[str, pathlib.Path]) -> BatchHDClassifier:
    """Load a model with its packed matrices memory-mapped read-only.

    Bit-identical to :func:`load_model` — same validation, same adopted
    words, zero RNG draws — but the uint32 matrices stay backed by the
    file mapping, so concurrent worker processes serving one store share
    a single physical copy of the model (copy-on-write pages that are
    never written).  The exposed arrays are read-only: any attempt to
    write through :attr:`~repro.hdc.batch.BatchHDClassifier.prototype_words`
    raises ``ValueError``.  This is the load path of each shard worker in
    :mod:`repro.stream.sharded`.
    """
    path = pathlib.Path(path)
    with _open_archive(path) as archive:
        config, labels, version = _load_header(archive, path)
    row_counts = {
        "im_u32": config.n_channels,
        "cim_u32": config.n_levels,
        "am_u32": len(labels),
    }
    mapped = {}
    try:
        with zipfile.ZipFile(path) as zf:
            for key, n_rows in row_counts.items():
                words = _mmap_member(path, zf, key)
                _validate_u32_matrix(
                    words, key, n_rows, config.dim, version
                )
                mapped[key] = _widen_readonly(words, config.dim, version)
    except ModelFormatError:
        raise
    except Exception as exc:
        raise ModelFormatError(f"cannot map model file {path}: {exc}")
    return BatchHDClassifier.from_state(
        config,
        ItemMemory.from_words64(mapped["im_u32"], config.dim),
        ContinuousItemMemory.from_words64(mapped["cim_u32"], config.dim),
        labels,
        mapped["am_u32"],
    )


def model_info(path: Union[str, pathlib.Path]) -> dict:
    """Cheap header peek: format, version, shape, and classes of a store.

    Used by the streaming CLI to describe a model without rebuilding it.
    """
    path = pathlib.Path(path)
    with _open_archive(path) as archive:
        magic = str(_require(archive, "magic"))
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"{path} is not a {MODEL_MAGIC} file")
        version = int(_require(archive, "version"))
        if version not in SUPPORTED_VERSIONS:
            raise ModelFormatError(
                f"unsupported model format version {version} "
                f"(this build reads versions {SUPPORTED_VERSIONS})"
            )
        return {
            "magic": magic,
            "version": version,
            "dim": int(_require(archive, "dim")),
            "n_channels": int(_require(archive, "n_channels")),
            "n_levels": int(_require(archive, "n_levels")),
            "ngram_size": int(_require(archive, "ngram_size")),
            "labels": _require(archive, "labels").tolist(),
        }


# -- streaming snapshot envelope ---------------------------------------------
#
# The elastic streaming fleet (:mod:`repro.stream`) transfers *runtime*
# state — windower ring buffers, smoother histories, scheduler queues —
# between processes and keeps worker checkpoints as blobs.  That state
# is value-like (plain dicts of numbers, bytes, and small arrays built
# by each class's ``snapshot()``), but unlike the model store it is
# internal wire format, not interchange: pickle is the right carrier
# (the sharded coordinator already pickles every pipe command).  What
# the store layer adds here is the *envelope*: a magic string, a format
# version, and a declared kind, validated before any state is adopted —
# so a checkpoint written by one build is never silently misread by
# another, exactly like the model store's header.

SNAPSHOT_MAGIC = "repro-stream-snapshot"
"""Envelope identifier stored in every serialized snapshot."""

SNAPSHOT_VERSION = 4
"""Current snapshot envelope version.

The envelope wraps the ``snapshot()`` dicts of the streaming stack
(windower / smoother / session / session-transfer / worker) produced by
:mod:`repro.stream`.  Bump on any incompatible change to those dicts.
"""

SUPPORTED_SNAPSHOT_VERSIONS = (4,)
"""Snapshot envelope versions this build reads."""


class SnapshotFormatError(ValueError):
    """Raised when a snapshot blob is malformed or incompatible."""


def dumps_snapshot(kind: str, state: dict) -> bytes:
    """Serialize one ``snapshot()`` dict into a versioned envelope.

    ``kind`` names the snapshot's producer (e.g. ``"worker"``,
    ``"session-transfer"``); :func:`loads_snapshot` refuses to hand a
    blob of one kind to a consumer expecting another.
    """
    if not isinstance(kind, str) or not kind:
        raise SnapshotFormatError(f"snapshot kind must be a non-empty "
                                  f"string, got {kind!r}")
    if not isinstance(state, dict):
        raise SnapshotFormatError(
            f"snapshot state must be a dict, got {type(state).__name__}"
        )
    return pickle.dumps(
        {
            "magic": SNAPSHOT_MAGIC,
            "version": SNAPSHOT_VERSION,
            "kind": kind,
            "state": state,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def loads_snapshot(blob: bytes, kind: Optional[str] = None) -> dict:
    """Validate a snapshot envelope and return the wrapped state dict.

    ``kind`` (when given) must match the kind the blob was written
    with.  Raises :class:`SnapshotFormatError` on any mismatch —
    truncated bytes, foreign pickles, unsupported versions, wrong kind.
    """
    try:
        envelope = pickle.loads(bytes(blob))
    except Exception as exc:
        raise SnapshotFormatError(f"cannot decode snapshot: {exc}")
    if not isinstance(envelope, dict) or envelope.get("magic") != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"blob is not a {SNAPSHOT_MAGIC} envelope"
        )
    version = envelope.get("version")
    if version not in SUPPORTED_SNAPSHOT_VERSIONS:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads {SUPPORTED_SNAPSHOT_VERSIONS})"
        )
    if kind is not None and envelope.get("kind") != kind:
        raise SnapshotFormatError(
            f"expected a {kind!r} snapshot, got {envelope.get('kind')!r}"
        )
    state = envelope.get("state")
    if not isinstance(state, dict):
        raise SnapshotFormatError("snapshot envelope carries no state")
    return state
