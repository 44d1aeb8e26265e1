"""Running the HD chain on the simulated PULP platforms.

Trains a small classifier, then executes the exact same classification
window on every machine of the paper — ARM Cortex M4, PULPv3 (1 and 4
cores), and Wolf (with and without the xpulp builtins, 1 and 8 cores) —
showing bit-exact agreement with the library plus the cycle counts,
speed-ups, and the power ladder of Tables 2 and 3.

Run:  python examples/accelerator_simulation.py
"""

import numpy as np

from repro.hdc import BatchHDClassifier, HDClassifierConfig
from repro.kernels import HDChainSimulator
from repro.perf.latency import required_frequency_mhz
from repro.pulp import (
    CORTEX_M4_SOC,
    OperatingPoint,
    PULPPowerModel,
    PULPV3_SOC,
    WOLF_SOC,
    m4_power_mw,
)

DIM = 4096  # keep the demo fast; Tables 2-3 use the full 10,000


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"training a {DIM}-D EMG-style classifier...")
    clf = BatchHDClassifier(HDClassifierConfig(dim=DIM))
    windows = rng.uniform(0, 21, size=(25, 5, 4))
    labels = [i % 5 for i in range(25)]
    clf.fit(windows, labels)
    window = rng.uniform(0, 21, size=(5, 4))
    expected = clf.predict(window[None])[0]
    print(f"library prediction for the probe window: class {expected}\n")

    configs = [
        ("ARM Cortex M4", CORTEX_M4_SOC, 1, False),
        ("PULPv3  1 core", PULPV3_SOC, 1, False),
        ("PULPv3  4 cores", PULPV3_SOC, 4, False),
        ("Wolf    1 core", WOLF_SOC, 1, False),
        ("Wolf    1 core +builtins", WOLF_SOC, 1, True),
        ("Wolf    8 cores +builtins", WOLF_SOC, 8, True),
    ]
    print(f"{'machine':<26} {'cycles':>10} {'speed-up':>9} "
          f"{'MAP+ENC':>8} {'AM':>7} {'match':>6}")
    baseline = None
    for name, soc, cores, builtins in configs:
        sim = HDChainSimulator.from_classifier(
            clf, soc, n_cores=cores, use_builtins=builtins, window=5
        )
        result = sim.run_window(window)
        label = clf.labels[result.label_index]
        if name.startswith("PULPv3  1"):
            baseline = result.total_cycles
        speedup = (
            f"{baseline / result.total_cycles:.2f}x" if baseline else "-"
        )
        print(
            f"{name:<26} {result.total_cycles:>10,} {speedup:>9} "
            f"{result.encode_cycles:>8,} {result.am_cycles:>7,} "
            f"{'yes' if label == expected else 'NO':>6}"
        )

    # The Table-2 power story at this workload size.
    print("\npower at the 10 ms detection latency (Table 2 structure):")
    model = PULPPowerModel()
    sim1 = HDChainSimulator.from_classifier(
        clf, PULPV3_SOC, n_cores=1, window=5
    )
    sim4 = HDChainSimulator.from_classifier(
        clf, PULPV3_SOC, n_cores=4, window=5
    )
    simm4 = HDChainSimulator.from_classifier(
        clf, CORTEX_M4_SOC, n_cores=1, window=5
    )
    cyc_m4 = simm4.run_window(window).total_cycles
    cyc_1 = sim1.run_window(window).total_cycles
    cyc_4 = sim4.run_window(window).total_cycles
    p_m4 = m4_power_mw(required_frequency_mhz(cyc_m4))
    rows = [
        ("ARM Cortex M4 @1.85V", p_m4, None),
        (
            "PULPv3 1 core @0.7V",
            model.total_mw(
                1, OperatingPoint(0.7, required_frequency_mhz(cyc_1))
            ),
            None,
        ),
        (
            "PULPv3 4 cores @0.7V",
            model.total_mw(
                4, OperatingPoint(0.7, required_frequency_mhz(cyc_4))
            ),
            None,
        ),
        (
            "PULPv3 4 cores @0.5V",
            model.total_mw(
                4, OperatingPoint(0.5, required_frequency_mhz(cyc_4))
            ),
            None,
        ),
    ]
    for name, power, _ in rows:
        boost = f"{p_m4 / power:.1f}x vs M4" if power != p_m4 else ""
        print(f"  {name:<24} {power:6.2f} mW   {boost}")


if __name__ == "__main__":
    main()
