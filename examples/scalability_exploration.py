"""Scalability exploration: the Figs. 3-5 sweeps in miniature.

Uses the ISS-calibrated analytic cycle model to sweep hypervector
dimension, N-gram size, core count, and channel count, printing the
cycles/latency landscape the paper's section 5.2 explores.

Run:  python examples/scalability_exploration.py
"""

from repro.kernels import ChainDims
from repro.perf.calibration import calibrate_chain
from repro.perf.latency import check_latency
from repro.pulp import CORTEX_M4_SOC, WOLF_SOC


def dimension_sweep() -> None:
    print("== cycles vs dimension (Wolf 8 cores + builtins), Fig. 3 ==")
    print(f"{'D':>7} " + "".join(f"N={n:<9}" for n in (1, 5, 10)))
    models = {
        n: calibrate_chain(
            WOLF_SOC, 8,
            ChainDims(dim=10_000, ngram=n, window=5),
            use_builtins=True,
        )
        for n in (1, 5, 10)
    }
    for dim in (1_000, 2_000, 5_000, 10_000):
        row = "".join(
            f"{models[n].predict_total(dim) / 1e3:8.1f}k "
            for n in (1, 5, 10)
        )
        print(f"{dim:>7} {row}")


def core_sweep() -> None:
    print("\n== cycles vs cores at N=10, 10,000-D (Fig. 4 column) ==")
    base = None
    for cores in (1, 2, 4, 8):
        model = calibrate_chain(
            WOLF_SOC, cores,
            ChainDims(dim=10_000, ngram=10, window=5),
            use_builtins=True,
        )
        cycles = model.predict_total(10_000)
        base = base or cycles
        efficiency = base / cycles / cores
        print(f"  {cores} core(s): {cycles / 1e3:8.1f}k cycles "
              f"(efficiency {efficiency:.2f})")


def channel_sweep() -> None:
    print("\n== channels vs the 10 ms deadline, 10,000-D (Fig. 5) ==")
    print(f"{'ch':>5} {'Wolf f_req':>11} {'Wolf ok':>8} "
          f"{'M4 f_req':>10} {'M4 ok':>6}")
    for n_ch in (4, 16, 64, 256):
        dims = ChainDims(dim=10_000, n_channels=n_ch, window=5)
        wolf = calibrate_chain(
            WOLF_SOC, 8, dims, use_builtins=True, strategy="carry-save"
        )
        m4 = calibrate_chain(
            CORTEX_M4_SOC, 1, dims, strategy="carry-save"
        )
        wolf_check = check_latency(wolf.predict_total(10_000), WOLF_SOC)
        m4_check = check_latency(m4.predict_total(10_000), CORTEX_M4_SOC)
        print(
            f"{n_ch:>5} {wolf_check.required_mhz:>9.1f}MHz "
            f"{'yes' if wolf_check.meets_deadline else 'NO':>8} "
            f"{m4_check.required_mhz:>8.1f}MHz "
            f"{'yes' if m4_check.meets_deadline else 'NO':>6}"
        )
    print("\nthe Wolf cluster keeps the 10 ms deadline at every channel "
          "count;\nthe commercial M4 hits its frequency wall "
          "(the paper's Fig. 5 story).")


if __name__ == "__main__":
    dimension_sweep()
    core_sweep()
    channel_sweep()
