"""Quickstart: the HD computing library in five minutes.

Walks through the paper's building blocks — hypervectors, the MAP
operations, item memories, encoders, and the associative memory — then
trains a tiny classifier end to end.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.hdc import (
    BatchHDClassifier,
    BinaryHypervector,
    ContinuousItemMemory,
    HDClassifierConfig,
    ItemMemory,
    bind,
    bundle,
    permute,
    similarity,
)


def main() -> None:
    rng = np.random.default_rng(42)

    # --- 1. hypervectors and the MAP operations -------------------------
    print("== MAP operations on 10,000-D hypervectors ==")
    a = BinaryHypervector.random(10_000, rng)
    b = BinaryHypervector.random(10_000, rng)
    print(f"random vectors are quasi-orthogonal: "
          f"similarity(a, b) = {similarity(a, b):.3f}")

    bound = bind(a, b)  # multiplication: XOR, dissimilar to both
    print(f"binding is dissimilar to its inputs: "
          f"similarity(a^b, a) = {similarity(bound, a):.3f}")
    print(f"...and invertible: bind(bind(a,b), b) == a -> "
          f"{bind(bound, b) == a}")

    bundled = bundle([a, b, BinaryHypervector.random(10_000, rng)])
    print(f"bundling stays similar to its inputs: "
          f"similarity(bundle, a) = {similarity(bundled, a):.3f}")

    rotated = permute(a, 1)
    print(f"permutation is pseudo-orthogonal: "
          f"similarity(rho(a), a) = {similarity(rotated, a):.3f}\n")

    # --- 2. item memories ------------------------------------------------
    print("== item memories (the seeds of the system) ==")
    im = ItemMemory.for_channels(4, 10_000, rng)
    cim = ContinuousItemMemory(22, 10_000, rng)
    print(f"IM: {len(im)} orthogonal channel vectors")
    print(f"CIM: {cim.n_levels} levels; hamming(level 0, level 21) = "
          f"{cim[0].hamming(cim[21])} (~dim/2), "
          f"hamming(level 10, level 11) = {cim[10].hamming(cim[11])} "
          f"(similar)\n")

    # --- 3. an associative memory ----------------------------------------
    print("== associative memory ==")
    fist = BinaryHypervector.random(10_000, rng)
    open_hand = BinaryHypervector.random(10_000, rng)
    prototypes = {"fist": fist, "open": open_hand}
    # Corrupt 30% of the fist prototype: still recovered.
    bits = fist.to_bits()
    flips = rng.choice(10_000, size=3000, replace=False)
    bits[flips] ^= 1
    noisy = BinaryHypervector.from_bits(bits)
    # AM search: the label of the prototype at minimum Hamming distance.
    nearest = min(
        prototypes, key=lambda label: noisy.hamming(prototypes[label])
    )
    print(f"query with 30% bit flips classifies as: "
          f"{nearest!r} (robustness!)\n")

    # --- 4. an end-to-end classifier -------------------------------------
    print("== end-to-end classifier on toy 4-channel windows ==")
    clf = BatchHDClassifier(HDClassifierConfig(dim=2048))
    centers = {"rest": 1.0, "weak": 8.0, "strong": 17.0}
    train, labels = [], []
    for name, level in centers.items():
        for _ in range(10):
            train.append(
                np.clip(rng.normal(level, 1.2, size=(5, 4)), 0, 21)
            )
            labels.append(name)
    clf.fit(np.stack(train), labels)
    test = np.stack([
        np.clip(rng.normal(level, 1.2, size=(5, 4)), 0, 21)
        for level in centers.values()
        for _ in range(20)
    ])
    truth = [name for name in centers for _ in range(20)]
    print(f"accuracy on held-out windows: {clf.score(test, truth):.2%}")
    spatial = clf.encoder.spatial
    model = (
        spatial.continuous_memory.as_matrix(),
        spatial.item_memory.as_matrix(),
        clf.am_matrix(),
    )
    print(f"model footprint (CIM+IM+AM, packed): "
          f"{sum(m.nbytes for m in model) / 1024:.1f} kB")


if __name__ == "__main__":
    main()
