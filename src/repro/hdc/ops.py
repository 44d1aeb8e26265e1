"""The MAP operation set on binary hypervectors (section 2.1 of the paper).

* **Multiplication** (binding) — componentwise XOR; produces a vector
  dissimilar to both inputs; self-inverse.
* **Addition** (bundling) — componentwise majority with ties broken by a
  reproducible tiebreaker vector; produces a vector similar to every input.
* **Permutation** — circular rotation; produces a dissimilar
  pseudo-orthogonal vector, used to encode sequence position.

The bundling tie rule follows section 5.1 exactly: when the number of
inputs is even, "one random but reproducible hypervector is generated, by
componentwise XOR between two bound hypervectors, for the majority to break
the ties at random".  We XOR the first two inputs.

All operations run on the packed uint64 engine kernels
(:mod:`repro.hdc.engine`); in particular :func:`bundle` takes the
per-component majority through the bit-plane count kernel without ever
unpacking its inputs to component arrays.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import engine
from .hypervector import BinaryHypervector


def bind(a: BinaryHypervector, b: BinaryHypervector) -> BinaryHypervector:
    """Bind two hypervectors (componentwise XOR)."""
    return a ^ b


def permute(v: BinaryHypervector, k: int = 1) -> BinaryHypervector:
    """Apply the permutation ρ^k (circular component rotation by ``k``)."""
    return v.rotate(k)


def hamming(a: BinaryHypervector, b: BinaryHypervector) -> int:
    """Hamming distance between two hypervectors."""
    return a.hamming(b)


def tiebreaker(vectors: Sequence[BinaryHypervector]) -> BinaryHypervector:
    """The reproducible tie-breaking vector for an even-sized bundle.

    Defined as the XOR of the first two inputs (paper, section 5.1).  It is
    deterministic given the inputs, yet its components look random with
    respect to each individual input.
    """
    if len(vectors) < 2:
        raise ValueError("a tiebreaker needs at least two input vectors")
    return vectors[0] ^ vectors[1]


def bundle(vectors: Sequence[BinaryHypervector]) -> BinaryHypervector:
    """Bundle (add) hypervectors by componentwise majority.

    For an even input count, the XOR tiebreaker of the first two inputs is
    appended so the effective count is odd and every component has a strict
    majority.  A single input is returned unchanged; an empty bundle is an
    error.  The majority runs packed, one bit plane at a time.
    """
    if len(vectors) == 0:
        raise ValueError("cannot bundle zero hypervectors")
    dim = vectors[0].dim
    for v in vectors[1:]:
        if v.dim != dim:
            raise ValueError(
                f"all bundled vectors must share a dimension, got {v.dim} vs {dim}"
            )
    if len(vectors) == 1:
        return vectors[0]
    stack = np.stack([v.words64 for v in vectors])
    return BinaryHypervector.from_words64(
        engine.majority_default_tie(stack, dim), dim
    )


def similarity(a: BinaryHypervector, b: BinaryHypervector) -> float:
    """Normalized similarity in [0, 1]: 1 − hamming/dim.

    Unrelated random hypervectors score ≈ 0.5; identical vectors score 1.
    """
    return 1.0 - a.normalized_hamming(b)
