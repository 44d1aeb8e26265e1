"""Core HD computing library: the paper's algorithmic contribution.

Public surface:

* :mod:`~repro.hdc.bitpack` — packed word layouts of binary hypervectors:
  the paper's 32-components-per-word uint32 ABI plus its uint64 widening.
* :mod:`~repro.hdc.engine` — the unified batched engine:
  :class:`~repro.hdc.engine.HypervectorArray` and the packed kernels
  (bind / rotate / bit-plane majority / Hamming search) every layer runs on.
* :class:`~repro.hdc.hypervector.BinaryHypervector` — the value type
  (a one-row view of the engine representation).
* :mod:`~repro.hdc.ops` — the MAP operations (bind / bundle / permute)
  and Hamming distance.
* :class:`~repro.hdc.item_memory.ItemMemory` /
  :class:`~repro.hdc.item_memory.ContinuousItemMemory` — symbol and level
  seed memories.
* :class:`~repro.hdc.encoder.SpatialEncoder` /
  :class:`~repro.hdc.encoder.TemporalEncoder` /
  :class:`~repro.hdc.encoder.WindowEncoder` — the processing chain.
* :class:`~repro.hdc.batch.BatchHDClassifier` (configured by
  :class:`~repro.hdc.classifier.HDClassifierConfig`) — the classifier:
  end-to-end fit/predict with the AM as a packed prototype matrix
  searched by :func:`~repro.hdc.engine.am_search`.
* :class:`~repro.hdc.online.SessionDelta` — on-line learning:
  copy-on-write prototype updates over a fitted AM.
* :mod:`~repro.hdc.robustness` — fault injection into the prototype
  matrix and graceful-degradation curves.
* :mod:`~repro.hdc.reference` — the unpacked golden model used for
  bit-exact validation (the paper's MATLAB reference).
* :mod:`~repro.hdc.serialize` — the versioned model store: bit-exact
  save/load of trained models so serving (:mod:`repro.stream`) never
  retrains.
"""

from .batch import BatchHDClassifier
from .classifier import HDClassifierConfig
from .encoder import SpatialEncoder, TemporalEncoder, WindowEncoder
from .engine import HypervectorArray
from .hypervector import BinaryHypervector
from .item_memory import ContinuousItemMemory, ItemMemory, quantize_samples
from .online import AdaptConfig, SessionDelta
from .robustness import (
    DegradationCurve,
    DegradationPoint,
    degradation_curve,
    faulty_memory,
    flip_bits,
    stuck_at,
)
from .ops import bind, bundle, hamming, permute, similarity
from .serialize import (
    MODEL_MAGIC,
    MODEL_VERSION,
    CutoverError,
    ModelFormatError,
    ModelStore,
    load_model,
    load_model_mmap,
    model_info,
    save_model,
)

__all__ = [
    "AdaptConfig",
    "BatchHDClassifier",
    "BinaryHypervector",
    "ContinuousItemMemory",
    "CutoverError",
    "DegradationCurve",
    "DegradationPoint",
    "HDClassifierConfig",
    "HypervectorArray",
    "ItemMemory",
    "MODEL_MAGIC",
    "MODEL_VERSION",
    "ModelFormatError",
    "ModelStore",
    "SessionDelta",
    "SpatialEncoder",
    "TemporalEncoder",
    "WindowEncoder",
    "bind",
    "degradation_curve",
    "faulty_memory",
    "flip_bits",
    "bundle",
    "hamming",
    "load_model",
    "load_model_mmap",
    "model_info",
    "permute",
    "quantize_samples",
    "save_model",
    "similarity",
    "stuck_at",
]
